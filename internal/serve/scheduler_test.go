package serve

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestDrainCancelsWedgedBatch is the regression test for coalesced batches
// running under context.Background(): a batch still queued when the drain
// budget runs out must be aborted, because its context derives from the
// scheduler's lifetime. The executor is stalled while two same-key jobs
// queue behind it, the drain's deadline has already passed, and only then
// is the executor released — so the batch always starts after the revoke.
func TestDrainCancelsWedgedBatch(t *testing.T) {
	srv, _ := newTestServer(t, testConfig())
	release := stallExecutor(t, srv)
	defer release()

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

	expired, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if err := srv.sched.drain(expired); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain over a stalled executor returned %v, want deadline exceeded", err)
	}
	release()

	// Revoking the scheduler-lifetime context lets the executor finish the
	// queue and exit…
	select {
	case <-srv.sched.exited:
	case <-time.After(5 * time.Second):
		t.Fatal("executor still running after drain revoked the batch context")
	}
	// …and fails the batch members rather than running them.
	for i, j := range jobs {
		select {
		case res := <-j.done:
			if res.err == nil {
				t.Fatalf("batch member %d ran after the drain budget was spent", i)
			}
		case <-time.After(time.Second):
			t.Fatalf("batch member %d never completed", i)
		}
	}
}
