package chip

// DrainArenas empties the pool of cache arenas, so that the next system is
// built on freshly allocated arrays.
func DrainArenas() {
	for arenas.Get() != nil {
	}
}

// NewCache builds a cache of the given capacity in bytes, associativity,
// and line size (power of two).
func NewCache(capacityBytes, ways, lineBytes int) *Cache {
	a := newCacheArena(cacheLines(capacityBytes, ways, lineBytes))
	return a.carve(capacityBytes, ways, lineBytes)
}
