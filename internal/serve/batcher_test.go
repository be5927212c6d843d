package serve

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"flumen"
	"flumen/internal/wfp"
)

// stagedJob describes one matmul queued behind the stalled executor.
type stagedJob struct {
	weights   int // index into the case's weight matrices (0 = A, 1 = B)
	cols      int
	cancelled bool
}

// Batches form from the backlog alone: everything is queued while the
// executor is stalled, so what coalesces with what is a pure function of the
// queue contents and no case depends on timing. All of a case's jobs share
// one done channel, which therefore carries the executor's completion order:
// a cancelled job completes when the batcher meets it, a live one when its
// batch's engine call returns, members in batch order.
func TestBatcherCoalescesSharedWeights(t *testing.T) {
	a, b := stagedJob{weights: 0, cols: 2}, stagedJob{weights: 1, cols: 2}
	wide := stagedJob{weights: 0, cols: 12} // testConfig caps a batch at 32 columns
	dead := stagedJob{weights: 0, cols: 2, cancelled: true}
	cases := []struct {
		name    string
		jobs    []stagedJob
		batches [][]int // live job indices per engine call, in execution order
	}{
		{"same key coalesces into one call", []stagedJob{a, a, a}, [][]int{{0, 1, 2}}},
		{"different key splits batches in FIFO order", []stagedJob{a, a, b, a}, [][]int{{0, 1}, {2}, {3}}},
		{"column overflow heads the next batch", []stagedJob{wide, wide, wide, wide}, [][]int{{0, 1}, {2, 3}}},
		{"cancelled job in the backlog is skipped", []stagedJob{a, dead, a}, [][]int{{0, 2}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig()
			s, _ := newTestServer(t, cfg)
			ref, err := flumen.NewAccelerator(cfg.Ports, cfg.BlockSize)
			if err != nil {
				t.Fatal(err)
			}
			release := stallExecutor(t, s)

			rng := rand.New(rand.NewSource(7))
			weights := [][][]float64{testMatrix(rng, 16, 16), testMatrix(rng, 16, 16)}
			cancelled, cancel := context.WithCancel(context.Background())
			cancel()
			done := make(chan jobResult, len(tc.jobs))
			jobs := make([]*job, len(tc.jobs))
			for i, sj := range tc.jobs {
				m := weights[sj.weights]
				jobs[i] = &job{
					ctx: context.Background(), endpoint: "matmul", enq: time.Now(),
					key: wfp.Matrix(m), m: m, x: testMatrix(rng, 16, sj.cols),
					done: done,
				}
				if sj.cancelled {
					jobs[i].ctx = cancelled
				}
				if err := s.sched.submit(jobs[i]); err != nil {
					t.Fatal(err)
				}
			}
			release()

			// Every job completes; the cancelled ones are whatever the batches
			// below do not account for.
			var live []jobResult
			for n := range jobs {
				select {
				case res := <-done:
					if res.err == nil {
						live = append(live, res)
					} else if !errors.Is(res.err, context.Canceled) {
						t.Fatalf("job failed: %v", res.err)
					}
				case <-time.After(10 * time.Second):
					t.Fatalf("%d of %d jobs completed", n, len(jobs))
				}
			}
			wantLive := 0
			for _, batch := range tc.batches {
				wantLive += len(batch)
			}
			if len(live) != wantLive {
				t.Fatalf("%d jobs completed without error, want %d", len(live), wantLive)
			}

			// The live completions, in order, are the batches' members in
			// order; each is bitwise its job's solo product.
			k := 0
			for bi, batch := range tc.batches {
				for _, ji := range batch {
					res := live[k]
					k++
					if res.batched != len(batch) {
						t.Fatalf("completion %d (job %d): batched %d, want %d", k-1, ji, res.batched, len(batch))
					}
					want, err := ref.MatMul(jobs[ji].m, jobs[ji].x)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(res.matmul, want) {
						t.Fatalf("completion %d is not bitwise job %d's solo product (batch %d out of FIFO order?)", k-1, ji, bi)
					}
				}
			}
			s.met.mu.Lock()
			calls := s.met.batchesExecuted
			s.met.mu.Unlock()
			if want := int64(len(tc.batches)) + 1; calls != want {
				t.Fatalf("%d engine calls (stall job included), want %d", calls, want)
			}
		})
	}
}

// With nothing queued behind it the head is dispatched alone and at once:
// collect returns synchronously instead of waiting for batch-mates. The
// executor is stalled, so the test goroutine is the queue's only reader.
func TestCollectOnEmptyQueueReturnsHeadAlone(t *testing.T) {
	s, _ := newTestServer(t, testConfig())
	release := stallExecutor(t, s)
	defer release()

	head := &job{
		ctx: context.Background(), endpoint: "matmul", enq: time.Now(),
		key: "k", m: [][]float64{{1, 0}, {0, 1}}, x: [][]float64{{1}, {2}},
		done: make(chan jobResult, 1),
	}
	batch, next := s.sched.collect(head)
	if len(batch) != 1 || batch[0] != head || next != nil {
		t.Fatalf("collect on an empty queue = %d jobs, next %v; want the head alone", len(batch), next)
	}
}
