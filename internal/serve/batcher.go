package serve

import "flumen/internal/trace"

// The batcher coalesces consecutive matmul jobs whose weight matrices are
// bit-identical (wfp.Matrix keys) into one partition-wide engine
// call. The engine's per-column independence makes this exact: each
// request's result columns are bitwise what a solo call would have
// produced, while the shared call amortizes the weight-program cache lookup
// and keeps every fabric partition busy on one dispatch. Fingerprint-keyed
// coalescing is what lets the PR-1 program cache work across tenants — N
// clients streaming the same model pay the SVD + Clements decomposition
// once.

// collect gathers the already-queued jobs that share head's fingerprint. It
// never waits: the batch is whatever backlog built up while the previous
// engine call ran, so an idle server dispatches at once and a loaded one
// coalesces more the deeper its queue. It stops at the configured
// column/request caps, when the queue is empty, or at the first job with a
// different key — which is handed back (preserving FIFO order) to become the
// next head. Cancelled jobs encountered during collection are completed with
// their context error and skipped.
func (s *scheduler) collect(head *job) (batch []*job, next *job) {
	batch = []*job{head}
	cols := len(head.x[0])
	for len(batch) < s.cfg.MaxBatchReqs && cols < s.cfg.MaxBatchCols {
		var j *job
		var ok bool
		select {
		case j, ok = <-s.queue:
		default:
			return batch, nil
		}
		if !ok {
			return batch, nil
		}
		// Dequeued: the job's wait so far was queueing, whether it joins
		// this batch or is handed back as the next head (the hand-back case
		// books its renewed wait when it re-heads in runLoop).
		j.stage(trace.StageQueueWait)
		if err := j.ctx.Err(); err != nil {
			s.met.observeCancelled()
			j.done <- jobResult{err: err}
			continue
		}
		if j.key != head.key || cols+len(j.x[0]) > s.cfg.MaxBatchCols {
			return batch, j
		}
		batch = append(batch, j)
		cols += len(j.x[0])
	}
	return batch, nil
}

// concatColumns assembles the batch's right-hand sides into one matrix,
// member column blocks in batch order.
func concatColumns(batch []*job) [][]float64 {
	inner := len(batch[0].x)
	total := 0
	for _, j := range batch {
		total += len(j.x[0])
	}
	xAll := make([][]float64, inner)
	for r := 0; r < inner; r++ {
		row := make([]float64, 0, total)
		for _, j := range batch {
			row = append(row, j.x[r]...)
		}
		xAll[r] = row
	}
	return xAll
}

// sliceColumns extracts member i's column block from the batched product.
func sliceColumns(c [][]float64, batch []*job, i int) [][]float64 {
	lo := 0
	for k := 0; k < i; k++ {
		lo += len(batch[k].x[0])
	}
	hi := lo + len(batch[i].x[0])
	out := make([][]float64, len(c))
	for r := range c {
		out[r] = append([]float64(nil), c[r][lo:hi]...)
	}
	return out
}
