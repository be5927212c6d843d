package trace

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestNilTraceIsInert(t *testing.T) {
	var tr *Trace
	tr.Add(StageDecode, time.Millisecond) // must not panic
	tr.AddSpill()
	tr.AddRetry()
	tr.SetBatched(4)
	if !tr.Start().IsZero() {
		t.Fatalf("nil trace Start() = %v, want zero", tr.Start())
	}
}

func TestAddAccumulates(t *testing.T) {
	tr := New("req-1")
	tr.Add(StageQueueWait, 2*time.Millisecond)
	tr.Add(StageQueueWait, 3*time.Millisecond)
	tr.Add(StageExec, 10*time.Millisecond)
	tr.Add(StageExec, -time.Second) // negative: dropped
	rec := tr.Record("matmul", 200)
	if got := rec.Duration(StageQueueWait); got != 5*time.Millisecond {
		t.Fatalf("queue_wait = %v, want 5ms", got)
	}
	if got := rec.Duration(StageExec); got != 10*time.Millisecond {
		t.Fatalf("exec = %v, want 10ms", got)
	}
	if rec.ID != "req-1" || rec.Endpoint != "matmul" || rec.Status != 200 {
		t.Fatalf("record identity = %+v", rec)
	}
}

func TestWallSumExcludesEngineSubStages(t *testing.T) {
	tr := New("req-2")
	tr.Add(StageDecode, 1*time.Millisecond)
	tr.Add(StageExec, 10*time.Millisecond)
	tr.Add(StageWrite, 2*time.Millisecond)
	// Engine sub-stages overlap exec: recorded per partition worker, their
	// sum can exceed wall time and must not inflate WallSum.
	tr.Add(StageLeaseWait, 40*time.Millisecond)
	tr.Add(StageCompute, 40*time.Millisecond)
	tr.Add(StageDAC, 5*time.Millisecond)
	tr.Add(StagePropagate, 20*time.Millisecond)
	tr.Add(StageDetect, 10*time.Millisecond)
	rec := tr.Record("matmul", 200)
	if got := rec.WallSum(); got != 13*time.Millisecond {
		t.Fatalf("WallSum = %v, want 13ms", got)
	}
}

func TestConcurrentAddsRaceFree(t *testing.T) {
	tr := New("req-3")
	const workers, adds = 8, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < adds; i++ {
				tr.Add(StageCompute, time.Microsecond)
				tr.AddRetry()
			}
		}()
	}
	wg.Wait()
	rec := tr.Record("matmul", 200)
	if got := rec.Duration(StageCompute); got != workers*adds*time.Microsecond {
		t.Fatalf("compute = %v, want %v", got, workers*adds*time.Microsecond)
	}
	if rec.Retries != workers*adds {
		t.Fatalf("retries = %d, want %d", rec.Retries, workers*adds)
	}
}

func TestGroupFansOut(t *testing.T) {
	a, b := New("a"), New("b")
	g := Group{a, b}
	g.Add(StageExec, 7*time.Millisecond)
	for _, tr := range []*Trace{a, b} {
		if got := tr.Record("matmul", 200).Duration(StageExec); got != 7*time.Millisecond {
			t.Fatalf("member exec = %v, want 7ms", got)
		}
	}
}

func TestContextCarriage(t *testing.T) {
	if FromContext(context.Background()) != nil {
		t.Fatal("empty context should carry no recorder")
	}
	tr := New("ctx")
	ctx := NewContext(context.Background(), tr)
	rec := FromContext(ctx)
	if rec == nil {
		t.Fatal("recorder not found in context")
	}
	rec.Add(StageLeaseWait, time.Millisecond)
	if got := tr.Record("", 0).Duration(StageLeaseWait); got != time.Millisecond {
		t.Fatalf("lease_wait via context = %v, want 1ms", got)
	}
}

func TestRecordJSON(t *testing.T) {
	tr := New("req-json")
	tr.Add(StageDecode, 1500*time.Microsecond)
	tr.Add(StageExec, 4*time.Millisecond)
	tr.SetBatched(3)
	rec := tr.Record("matmul", 200)

	raw, err := json.Marshal(rec)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	var got struct {
		ID      string             `json:"id"`
		Status  int                `json:"status"`
		TotalMS float64            `json:"total_ms"`
		WallSum float64            `json:"wall_stage_sum_ms"`
		Batched int                `json:"batched"`
		Stages  map[string]float64 `json:"stages"`
	}
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if got.ID != "req-json" || got.Status != 200 || got.Batched != 3 {
		t.Fatalf("identity fields = %+v", got)
	}
	if got.Stages["decode"] != 1.5 || got.Stages["exec"] != 4 {
		t.Fatalf("stages = %v", got.Stages)
	}
	if _, present := got.Stages["write"]; present {
		t.Fatal("zero stages must be omitted from JSON")
	}
	if got.WallSum != 5.5 {
		t.Fatalf("wall_stage_sum_ms = %g, want 5.5", got.WallSum)
	}
}

func TestRingEvictionAndOrder(t *testing.T) {
	r := NewRing(3)
	for i := 1; i <= 5; i++ {
		r.Push(Record{ID: fmt.Sprintf("r%d", i)})
	}
	snap := r.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("ring holds %d, want 3", len(snap))
	}
	for i, want := range []string{"r5", "r4", "r3"} {
		if snap[i].ID != want {
			t.Fatalf("snapshot[%d] = %s, want %s (newest first)", i, snap[i].ID, want)
		}
	}
}

func TestRingConcurrentPush(t *testing.T) {
	r := NewRing(16)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				r.Push(Record{ID: fmt.Sprintf("w%d-%d", w, i)})
			}
		}(w)
	}
	wg.Wait()
	if got := r.Len(); got != 16 {
		t.Fatalf("ring len = %d, want 16", got)
	}
}

func TestStageNames(t *testing.T) {
	seen := map[string]bool{}
	for s := Stage(0); s < NumStages; s++ {
		name := s.String()
		if name == "" || seen[name] {
			t.Fatalf("stage %d has empty/duplicate name %q", s, name)
		}
		seen[name] = true
	}
	if Stage(-1).String() != "stage(-1)" {
		t.Fatalf("out-of-range name = %q", Stage(-1).String())
	}
}

// Len reports how many records the ring currently holds.
func (r *Ring) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.n
}
