package serve

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestSchedulerShedsStaleJobsOnReclaim is the regression test for the
// admission-only capacity check: a job admitted while the fabric was free
// must be shed with errNoCapacity if traffic reclaims the fabric before the
// executor reaches it, not stall the executor behind an unleasable fabric.
func TestSchedulerShedsStaleJobsOnReclaim(t *testing.T) {
	srv, _ := newTestServer(t, fabricTestConfig())
	arb := srv.Fabric()

	release := stallExecutor(t, srv)

	// Admitted while compute is available…
	mj := &job{
		ctx:      context.Background(),
		endpoint: "matmul",
		enq:      time.Now(),
		key:      "k",
		m:        [][]float64{{1, 0}, {0, 1}},
		x:        [][]float64{{1, 0}, {0, 1}},
		done:     make(chan jobResult, 1),
	}
	if err := srv.sched.submit(mj); err != nil {
		t.Fatalf("submit with free fabric: %v", err)
	}

	// …then traffic claims the fabric while the job waits in the queue.
	fc := arb.Config()
	var cycle int64
	for i := 0; i < fc.IdleWindow+4; i++ {
		arb.Tick(cycle, fc.Nodes, fc.Nodes)
		cycle++
	}
	if arb.ComputeAvailable() {
		t.Fatalf("fabric still grants compute after sustained traffic, mode %v", arb.Mode())
	}

	release()
	select {
	case res := <-mj.done:
		if !errors.Is(res.err, errNoCapacity) {
			t.Fatalf("stale queued job finished with %v, want errNoCapacity", res.err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("stale queued job was never shed")
	}
}

// TestDrainCancelsWedgedBatch is the regression test for coalesced batches
// running under context.Background(): a batch blocked on an unleasable
// fabric must be aborted when the drain budget runs out, because its
// context derives from the scheduler's lifetime.
func TestDrainCancelsWedgedBatch(t *testing.T) {
	srv, _ := newTestServer(t, fabricTestConfig())
	arb := srv.Fabric()

	release := stallExecutor(t, srv)

	// Two same-key jobs coalesce into one batch. Quarantining every
	// partition makes the batch's lease Acquire block indefinitely while
	// ComputeAvailable() stays true, so the dequeue-time capacity check
	// passes and the batch wedges inside the engine call deterministically.
	m := [][]float64{{1, 0}, {0, 1}}
	x := [][]float64{{1, 0}, {0, 1}}
	jobs := make([]*job, 2)
	for i := range jobs {
		jobs[i] = &job{
			ctx:      context.Background(),
			endpoint: "matmul",
			enq:      time.Now(),
			key:      "k",
			m:        m,
			x:        x,
			done:     make(chan jobResult, 1),
		}
		if err := srv.sched.submit(jobs[i]); err != nil {
			t.Fatal(err)
		}
	}
	for p := 0; p < arb.Partitions(); p++ {
		arb.SetQuarantine(p, true)
	}
	release()

	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	if err := srv.sched.drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain over a wedged batch returned %v, want deadline exceeded", err)
	}

	// Revoking the scheduler-lifetime context must unwedge the executor…
	select {
	case <-srv.sched.exited:
	case <-time.After(5 * time.Second):
		t.Fatal("executor still wedged after drain cancelled the batch context")
	}
	// …and fail the batch members rather than leaving them hanging.
	for i, j := range jobs {
		select {
		case res := <-j.done:
			if res.err == nil {
				t.Fatalf("batch member %d succeeded on a fully quarantined fabric", i)
			}
		case <-time.After(time.Second):
			t.Fatalf("batch member %d never completed", i)
		}
	}
}
