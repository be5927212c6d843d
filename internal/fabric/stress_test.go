package fabric

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestStressNoDoubleGrant hammers the arbiter with concurrent TryAcquire /
// Release holders while a ticker goroutine randomly flips the fabric
// between idle and busy, forcing preemptions mid-flight. Each partition
// carries an atomic ownership flag: a successful CAS 0→1 right after a
// grant proves exclusive grant, and the flag is cleared before Release so
// the mutex ordering inside Release publishes the store to the next
// grantee. Once the ticker stops it idles the fabric back to compute, and
// every holder runs until it has held at least one lease, so the test ends
// with grants made and nothing held. Run with -race.
func TestStressNoDoubleGrant(t *testing.T) {
	const (
		partitions = 4
		holders    = 8
		duration   = 300 * time.Millisecond
	)
	a := mustNew(t, Config{
		Partitions:        partitions,
		Nodes:             8,
		IdleWindow:        4,
		IdleThreshold:     0.05,
		BusyThreshold:     0.1,
		OccupancyPatience: 4,
		MinIdleCycles:     2,
		ReclaimBudget:     1 << 20, // SLO not under test here
	})

	owned := make([]int32, partitions)
	var stop atomic.Bool
	var grants, preemptions int64
	var wg sync.WaitGroup
	for h := 0; h < holders; h++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			held := 0
			for !stop.Load() || held == 0 {
				l, ok := a.TryAcquire()
				if !ok {
					runtime.Gosched()
					continue
				}
				p := l.Partition()
				if !atomic.CompareAndSwapInt32(&owned[p], 0, 1) {
					t.Errorf("double grant: partition %d already owned", p)
					l.Release()
					return
				}
				held++
				atomic.AddInt64(&grants, 1)
				// Simulate a few work items, honouring preemption between
				// them like fabricrun does.
				items := 1 + rng.Intn(4)
				for i := 0; i < items; i++ {
					if l.Preempted() {
						atomic.AddInt64(&preemptions, 1)
						a.NotePreemptedItems(items - i)
						break
					}
					if rng.Intn(3) == 0 {
						time.Sleep(time.Duration(rng.Intn(200)) * time.Microsecond)
					}
				}
				atomic.StoreInt32(&owned[p], 0)
				l.Release()
			}
		}(int64(h) + 1)
	}

	// Ticker: random busy bursts force compute → reclaiming → traffic →
	// idle round trips while holders churn.
	rng := rand.New(rand.NewSource(99))
	var cycle int64
	for start := time.Now(); time.Since(start) < duration; {
		burst := rng.Intn(2) == 0
		n := 3 + rng.Intn(6)
		for i := 0; i < n; i++ {
			if burst {
				a.Tick(cycle, 8, 4)
			} else {
				a.Tick(cycle, 0, 0)
			}
			cycle++
		}
		time.Sleep(time.Duration(rng.Intn(300)) * time.Microsecond)
	}
	// Idle until compute owns the fabric again: preempted holders release,
	// the reclaim completes, and the hysteresis hands the fabric back.
	for m := a.Stats().Mode; m == ModeReclaiming || m == ModeTraffic; m = a.Stats().Mode {
		a.Tick(cycle, 0, 0)
		cycle++
		runtime.Gosched()
	}
	stop.Store(true)
	wg.Wait()

	st := a.Stats()
	if st.ActiveLeases != 0 || st.FreePartitions != partitions {
		t.Fatalf("leaked leases at shutdown: %+v", st)
	}
	for p := range owned {
		if atomic.LoadInt32(&owned[p]) != 0 {
			t.Fatalf("partition %d still flagged owned after all holders exited", p)
		}
	}
	if grants < holders {
		t.Fatalf("%d grants, want at least one per holder", grants)
	}
	t.Logf("stress: %d grants, %d preempted holds, %d mode transitions",
		grants, preemptions, st.ModeTransitions)
}
