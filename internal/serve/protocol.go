package serve

import (
	"fmt"

	"flumen/internal/trace"
)

// The wire protocol: plain JSON over HTTP. Every request may carry
// timeout_ms; every error response is {"error": "..."} with a conventional
// status code (400 malformed, 404 unknown model, 503 queue full with
// Retry-After, 504 deadline exceeded or client gone).

// MatMulRequest asks for C = M·X on the fabric. M is row-major; X carries
// one column per right-hand-side vector. Alternatively Model names a
// registered matmul model ("name@version") whose stored weights stand in
// for M — the request then ships only X, and the response is bitwise-equal
// to the inline form because the same in-memory weights feed the same
// engine path. Exactly one of M and Model must be set.
type MatMulRequest struct {
	M     [][]float64 `json:"m,omitempty"`
	Model string      `json:"model,omitempty"`
	X     [][]float64 `json:"x"`
	// TimeoutMS bounds the request end to end (queue wait included);
	// 0 means the server default.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// MatMulResponse returns the product plus serving metadata.
type MatMulResponse struct {
	C [][]float64 `json:"c"`
	// Batched is the number of requests whose columns shared this engine
	// call (1 = no coalescing happened).
	Batched int `json:"batched"`
	// ElapsedMS is wall time from admission to completion.
	ElapsedMS float64 `json:"elapsed_ms"`
	// Trace is the per-stage breakdown, present only when the request
	// carried X-Flumen-Trace: 1. Snapshotted before the response write, so
	// the write stage appears only in the /debug/requests record.
	Trace *trace.Record `json:"trace,omitempty"`
}

// Conv2DRequest asks for an im2col convolution. Input is
// [channel][y][x]; Kernels is [kernel][channel][ky][kx]. Model may name a
// registered conv2d model instead of shipping Kernels inline (stride and
// pad remain per-request knobs); exactly one of Kernels and Model must be
// set.
type Conv2DRequest struct {
	Input     [][][]float64   `json:"input"`
	Kernels   [][][][]float64 `json:"kernels,omitempty"`
	Model     string          `json:"model,omitempty"`
	Stride    int             `json:"stride"`
	Pad       int             `json:"pad"`
	TimeoutMS int64           `json:"timeout_ms,omitempty"`
}

// Conv2DResponse returns the [kernel][y][x] output volume.
type Conv2DResponse struct {
	Output    [][][]float64 `json:"output"`
	ElapsedMS float64       `json:"elapsed_ms"`
	Trace     *trace.Record `json:"trace,omitempty"`
}

// InferRequest runs one of the built-in workload DNNs (bare model names) or
// a registered infer-kind model ("name@version"). Volume carries the
// [channel][y][x] input of convolutional models; Vector the flat input of
// fully-connected models.
type InferRequest struct {
	Model     string        `json:"model"`
	Volume    [][][]float64 `json:"volume,omitempty"`
	Vector    []float64     `json:"vector,omitempty"`
	TimeoutMS int64         `json:"timeout_ms,omitempty"`
}

// InferResponse returns the class scores and argmax prediction.
type InferResponse struct {
	Model     string        `json:"model"`
	Logits    []float64     `json:"logits"`
	Class     int           `json:"class"`
	ElapsedMS float64       `json:"elapsed_ms"`
	Trace     *trace.Record `json:"trace,omitempty"`
}

// HealthResponse is the /healthz body. Status is "ok", or "degraded" while
// the health monitor holds partitions out of service (still HTTP 200: the
// shrunken pool keeps serving).
type HealthResponse struct {
	Status        string  `json:"status"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	QueueDepth    int     `json:"queue_depth"`
	QueueCapacity int     `json:"queue_capacity"`
	Partitions    int     `json:"partitions"`
	Draining      bool    `json:"draining"`

	// Health-monitor breakdown, present only when the monitor is enabled.
	HealthyPartitions       int `json:"healthy_partitions,omitempty"`
	QuarantinedPartitions   int `json:"quarantined_partitions,omitempty"`
	RecalibratingPartitions int `json:"recalibrating_partitions,omitempty"`

	// Model-registry state, always present: RegistryModels counts
	// registered models; PrewarmPending counts models still waiting for
	// background compile-and-pin (0 means every registered model serves its
	// first by-reference request warm).
	RegistryModels int `json:"registry_models"`
	PrewarmPending int `json:"prewarm_pending"`
}

// Stable machine-readable error codes, carried in every error response's
// "code" field. Clients and the cluster router branch on these — never on
// the human-readable message, which may change.
const (
	CodeBadRequest      = "bad_request"
	CodeBodyTooLarge    = "body_too_large"
	CodeUnknownModel    = "unknown_model"    // 404: no model by that name
	CodeVersionMismatch = "version_mismatch" // 404: name exists, version doesn't
	CodeKindMismatch    = "kind_mismatch"    // 400: model exists but wrong endpoint
	CodeVersionConflict = "version_conflict" // 409: re-register with different weights
	CodeQueueFull       = "queue_full"
	CodeDraining        = "draining"
	CodeDeadline        = "deadline"
	CodeCancelled       = "cancelled"
	CodeInternal        = "internal"
)

// StatusClientClosed is the status recorded in traces and the ring for a
// request whose client disconnected before the answer: no response is
// written (there is no one left to read it), so no standard status applies.
// 499 follows the nginx convention for "client closed request".
const StatusClientClosed = 499

type errorResponse struct {
	Error string `json:"error"`
	Code  string `json:"code,omitempty"`
}

// The validate* functions check, before admission, what one field cannot
// tell the decoder: emptiness and how the operands fit each other. That
// every operand is rectangular and every value finite is established by the
// decode itself (decode.go), so nothing here walks a value.

// validateMatMul checks an inline request's weights and operand.
func validateMatMul(req *MatMulRequest) error {
	if len(req.M) == 0 || len(req.M[0]) == 0 {
		return fmt.Errorf("m must be a non-empty matrix")
	}
	return validateMatMulX("m is", req.M, req.X)
}

// validateMatMulX checks the right-hand side against a weight matrix known
// to be sound — the inline one just checked, or a registered model's,
// vetted at registration; what names it in the message.
func validateMatMulX(what string, m, x [][]float64) error {
	if len(x) != len(m[0]) {
		return fmt.Errorf("dimension mismatch: %s %d×%d but x has %d rows", what, len(m), len(m[0]), len(x))
	}
	if len(x[0]) == 0 {
		return fmt.Errorf("x must have at least one column")
	}
	return nil
}

// validateConv2D rejects shapes the workload layer would panic on: empty
// volumes, kernel/input channel mismatches, and strides/pads that leave no
// output.
func validateConv2D(req *Conv2DRequest) error {
	if len(req.Input) == 0 || len(req.Input[0]) == 0 || len(req.Input[0][0]) == 0 {
		return fmt.Errorf("input must be a non-empty [channel][y][x] volume")
	}
	inH, inW := len(req.Input[0]), len(req.Input[0][0])
	if len(req.Kernels) == 0 || len(req.Kernels[0]) == 0 || len(req.Kernels[0][0]) == 0 || len(req.Kernels[0][0][0]) == 0 {
		return fmt.Errorf("kernels must be a non-empty [kernel][channel][ky][kx] stack")
	}
	kc, kh, kw := len(req.Kernels[0]), len(req.Kernels[0][0]), len(req.Kernels[0][0][0])
	if kc != len(req.Input) {
		return fmt.Errorf("kernel channel count %d does not match input %d", kc, len(req.Input))
	}
	if req.Stride <= 0 {
		return fmt.Errorf("stride must be positive, got %d", req.Stride)
	}
	if req.Pad < 0 {
		return fmt.Errorf("pad must be non-negative, got %d", req.Pad)
	}
	if (inW+2*req.Pad-kw)/req.Stride+1 <= 0 || (inH+2*req.Pad-kh)/req.Stride+1 <= 0 {
		return fmt.Errorf("kernel %dx%d with stride %d pad %d leaves no output on a %dx%d input",
			kw, kh, req.Stride, req.Pad, inW, inH)
	}
	return nil
}
