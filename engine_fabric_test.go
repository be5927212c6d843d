package flumen

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"

	"flumen/internal/fabric"
	"flumen/internal/trace"
)

func fabricTestMatrices(t *testing.T, dim int) (m, x [][]float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(42))
	m = make([][]float64, dim)
	x = make([][]float64, dim)
	for i := range m {
		m[i] = make([]float64, dim)
		x[i] = make([]float64, dim)
		for j := range m[i] {
			m[i][j] = rng.Float64()*2 - 1
			x[i][j] = rng.Float64()*2 - 1
		}
	}
	return m, x
}

func newFabricAccel(t *testing.T) (*Accelerator, *fabric.Arbiter) {
	t.Helper()
	a, err := NewAccelerator(16, 4)
	if err != nil {
		t.Fatal(err)
	}
	arb, err := fabric.New(fabric.Config{
		Partitions:        a.NumPartitions(),
		Nodes:             8,
		IdleWindow:        4,
		IdleThreshold:     0.05,
		BusyThreshold:     0.1,
		OccupancyPatience: 4,
		MinIdleCycles:     4,
		ReclaimBudget:     1 << 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := a.AttachFabric(arb); err != nil {
		t.Fatal(err)
	}
	return a, arb
}

func TestAttachFabricValidation(t *testing.T) {
	a, err := NewAccelerator(16, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.AttachFabric(nil); err == nil {
		t.Error("attached nil arbiter")
	}
	wrong, _ := fabric.New(fabric.Config{Partitions: a.NumPartitions() + 1, Nodes: 4})
	if err := a.AttachFabric(wrong); err == nil {
		t.Error("attached arbiter with mismatched partition count")
	}
	right, _ := fabric.New(fabric.Config{Partitions: a.NumPartitions(), Nodes: 4})
	if err := a.AttachFabric(right); err != nil {
		t.Fatalf("valid attach failed: %v", err)
	}
	if err := a.AttachFabric(right); err == nil {
		t.Error("double attach accepted")
	}
	if a.Fabric() != right {
		t.Error("Fabric() does not return the attached arbiter")
	}
	if _, err := a.RoutePermutation(make([]int, 16)); err == nil {
		t.Error("RoutePermutation allowed while arbiter attached")
	}
	if s := a.Stats(); s.Fabric == nil || s.Fabric.Partitions != a.NumPartitions() {
		t.Errorf("Stats missing fabric snapshot: %+v", s.Fabric)
	}
}

func TestFabricIdleMatMulMatchesDedicated(t *testing.T) {
	m, x := fabricTestMatrices(t, 16)
	ded, err := NewAccelerator(16, 4)
	if err != nil {
		t.Fatal(err)
	}
	want, err := ded.MatMul(m, x)
	if err != nil {
		t.Fatal(err)
	}
	fa, arb := newFabricAccel(t)
	got, err := fa.MatMul(m, x)
	if err != nil {
		t.Fatal(err)
	}
	assertBitwiseEqual(t, want, got)
	if st := arb.Stats(); st.ActiveLeases != 0 || st.LeasesGranted == 0 {
		t.Fatalf("lease accounting after idle MatMul: %+v", st)
	}
}

// preemptingRecorder is a trace.Recorder that preempts the fabric at
// chosen work items: the engine books one StageCompute for its DAC pass and
// then one after every item, so the recorder ticks the arbiter busy right
// after the items listed in after (1-based). Ticks from the recorder and
// from the test goroutine share one cycle counter under mu.
type preemptingRecorder struct {
	arb   *fabric.Arbiter
	after map[int]bool

	mu       sync.Mutex
	cycle    int64
	computes int
}

func (r *preemptingRecorder) Add(s trace.Stage, _ time.Duration) {
	if s != trace.StageCompute {
		return
	}
	r.mu.Lock()
	item := r.computes // the first StageCompute is the DAC pass, item 0
	r.computes++
	r.mu.Unlock()
	if r.after[item] {
		r.tick(16, 8)
	}
}

// tick feeds the arbiter one cycle of telemetry.
func (r *preemptingRecorder) tick(injected, occupancy int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.arb.Tick(r.cycle, injected, occupancy)
	r.cycle++
}

// TestFabricPreemptionBitwiseDeterminism preempts a leased MatMul right
// after chosen work items and checks the answer is bit for bit the
// dedicated engine's. The engine ticks the arbiter busy itself, through
// the call's trace recorder; the test goroutine only hands the fabric back
// once traffic owns it. With one worker every preemption lands on a held
// lease with items still to run, so each re-queues exactly one item.
func TestFabricPreemptionBitwiseDeterminism(t *testing.T) {
	// 64×64 over 4×4 blocks → 256 work items.
	m, x := fabricTestMatrices(t, 64)
	ded, err := NewAccelerator(16, 4)
	if err != nil {
		t.Fatal(err)
	}
	ded.SetWorkers(1)
	want, err := ded.MatMul(m, x)
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			fa, arb := newFabricAccel(t)
			fa.SetWorkers(workers)
			after := map[int]bool{1: true, 17: true, 100: true, 255: true}
			rec := &preemptingRecorder{arb: arb, after: after}
			ctx := trace.NewContext(context.Background(), rec)

			type out struct {
				res [][]float64
				err error
			}
			done := make(chan out, 1)
			go func() {
				res, err := fa.MatMulCtx(ctx, m, x)
				done <- out{res, err}
			}()
			// Hand the fabric back whenever traffic owns it: idle ticks until
			// the hysteresis re-opens the window and the parked Acquire wakes.
			var o out
			for running := true; running; {
				select {
				case o = <-done:
					running = false
				default:
					if arb.Mode() == fabric.ModeTraffic {
						rec.tick(0, 0)
					} else {
						runtime.Gosched()
					}
				}
			}
			if o.err != nil {
				t.Fatal(o.err)
			}
			assertBitwiseEqual(t, want, o.res)
			st := arb.Stats()
			if st.ActiveLeases != 0 {
				t.Fatalf("%d leases leaked", st.ActiveLeases)
			}
			if workers == 1 && (st.LeasesPreempted != int64(len(after)) || st.PreemptedItems != st.LeasesPreempted) {
				t.Fatalf("%d preemptions re-queued %d items, want %d each: %+v",
					st.LeasesPreempted, st.PreemptedItems, len(after), st)
			}
		})
	}
}

func assertBitwiseEqual(t *testing.T, want, got [][]float64) {
	t.Helper()
	if len(want) != len(got) {
		t.Fatalf("shape mismatch: %d vs %d rows", len(want), len(got))
	}
	for i := range want {
		for j := range want[i] {
			if want[i][j] != got[i][j] {
				t.Fatalf("result differs at (%d,%d): %v vs %v", i, j, want[i][j], got[i][j])
			}
		}
	}
}
