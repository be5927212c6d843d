// Package chip is the mechanistic multicore model standing in for the
// Sniper full-system simulator: 64 out-of-order cores on 16 four-core
// chiplets, private L1/L2 caches, chiplet-shared L3 slices, DRAM behind
// memory-controller chiplets, and a pluggable NoP (internal/noc) carrying
// the L2-miss and DRAM traffic. Cores execute abstract op streams produced
// by internal/workload; every cache/DRAM/network event is counted for the
// energy model.
package chip

import "fmt"

// Cache is a set-associative write-back cache with LRU replacement,
// tracked at cache-line granularity.
type Cache struct {
	sets     int
	ways     int
	lineBits uint
	// tags[set*ways+way]; valid when != 0 (tag stores line address + 1).
	tags []uint64
	// lruTick[set*ways+way]: larger is more recent.
	lruTick []int64
	tick    int64

	Accesses int64
	Misses   int64
}

// cacheLines checks a cache geometry and returns its line count, sets ×
// ways.
func cacheLines(capacityBytes, ways, lineBytes int) int {
	if capacityBytes <= 0 || ways <= 0 || lineBytes <= 0 || lineBytes&(lineBytes-1) != 0 {
		panic(fmt.Sprintf("chip: invalid cache geometry cap=%d ways=%d line=%d", capacityBytes, ways, lineBytes))
	}
	return max(1, capacityBytes/lineBytes/ways) * ways
}

// cacheArena holds the tag and LRU arrays of a group of caches, zeroed;
// carve hands them out from the front.
type cacheArena struct {
	tags []uint64
	lru  []int64
}

func newCacheArena(lines int) *cacheArena {
	return &cacheArena{tags: make([]uint64, lines), lru: make([]int64, lines)}
}

// carve builds an empty cache over the arena's next lines.
func (a *cacheArena) carve(capacityBytes, ways, lineBytes int) *Cache {
	n := cacheLines(capacityBytes, ways, lineBytes)
	c := &Cache{sets: n / ways, ways: ways, tags: a.tags[:n:n], lruTick: a.lru[:n:n]}
	for lb := lineBytes; lb > 1; lb >>= 1 {
		c.lineBits++
	}
	a.tags, a.lru = a.tags[n:], a.lru[n:]
	return c
}

// Access looks up the line containing addr, inserting it on a miss
// (evicting LRU; the lowest way wins a tie). It returns true on hit.
func (c *Cache) Access(addr uint64) bool {
	c.Accesses++
	c.tick++
	line := addr >> c.lineBits
	base := int(line%uint64(c.sets)) * c.ways
	tags := c.tags[base : base+c.ways]
	lru := c.lruTick[base : base+c.ways]
	key := line + 1
	for w, t := range tags {
		if t == key {
			lru[w] = c.tick
			return true
		}
	}
	c.Misses++
	victim := 0
	for w := 1; w < len(lru); w++ {
		if lru[w] < lru[victim] {
			victim = w
		}
	}
	tags[victim] = key
	lru[victim] = c.tick
	return false
}
