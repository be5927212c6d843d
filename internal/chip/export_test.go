package chip

// DrainArenas empties the pool of cache arenas, so that the next system is
// built on freshly allocated arrays.
func DrainArenas() {
	for arenas.Get() != nil {
	}
}
