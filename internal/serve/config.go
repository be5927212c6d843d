// Package serve is flumend's serving layer: an HTTP/JSON front end over the
// flumen.Accelerator with a bounded admission queue, a fingerprint-keyed
// batching scheduler that coalesces concurrent requests sharing the same
// weights into one engine call (riding the weight-program cache), per-request
// deadlines threaded as context.Context through dispatch, and graceful drain.
//
// The paper frames the photonic fabric as a shared, multiplexed resource
// (Sec 3.2); this package is the multi-tenant admission layer that view
// implies: competing demands queue at the fabric, batch when they share
// weights, and shed load with backpressure when the queue is full.
package serve

import (
	"fmt"
	"time"

	"flumen"
)

// Config parameterizes the server and its scheduler.
type Config struct {
	// Addr is the listen address, e.g. ":8080".
	Addr string

	// NodeID identifies this flumend instance in a cluster: it is echoed on
	// every response as the X-Flumen-Node header so the router (and clients
	// chasing a cross-node failure) can tell which backend actually served a
	// request. Empty picks a random "flumend-xxxxxxxx" identity.
	NodeID string

	// Ports and BlockSize configure the underlying accelerator fabric
	// (see flumen.NewAccelerator).
	Ports     int
	BlockSize int

	// CacheSize overrides the weight-program cache capacity when != 0;
	// negative disables caching.
	CacheSize int
	// Precision overrides the DAC/ADC bit depth when > 0 (default 8); it
	// must lie in [0, 24].
	Precision int

	// QueueDepth bounds the admission queue. A full queue rejects new
	// requests with 503 and a Retry-After header instead of blocking.
	QueueDepth int

	// MaxBatchCols caps the total right-hand-side columns coalesced into
	// one engine call; MaxBatchReqs caps the request count per batch. A
	// batch is the same-weight backlog already queued when its head is
	// dequeued; the scheduler never waits for more.
	MaxBatchCols int
	MaxBatchReqs int

	// DefaultTimeout bounds a request that does not carry its own
	// timeout_ms; MaxTimeout clamps client-supplied deadlines.
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration

	// DrainTimeout bounds graceful shutdown: queued work is given this long
	// to finish after the listener stops accepting.
	DrainTimeout time.Duration

	// RetryAfter is the Retry-After hint (rounded up to whole seconds)
	// returned with queue-full 503 responses.
	RetryAfter time.Duration

	// MaxBodyBytes bounds a request body.
	MaxBodyBytes int64

	// InferSeed seeds the deterministic weights of the built-in inference
	// models, so a fleet of flumend instances started with the same seed
	// serves identical models.
	InferSeed int64

	// StoreDir, when non-empty, persists the model registry there: every
	// registered model survives a restart, and reloaded models are
	// recompiled and pinned before their first request. Empty runs the
	// registry memory-only.
	StoreDir string

	// Health, when non-nil, enables the accelerator's device-health monitor:
	// partitions are probed between work items, quarantined when their error
	// exceeds the threshold, recalibrated in the background, and returned to
	// service. While any partition is out of service /healthz reports
	// "degraded" (still 200) and /metrics exports flumend_health_* series.
	Health *flumen.HealthConfig

	// EnablePprof mounts net/http/pprof under /debug/pprof/ on the serving
	// mux. Off by default: the profile endpoints expose stacks and timings,
	// so they are opt-in (flumend -pprof) and meant for trusted networks.
	EnablePprof bool

	// TraceEnabled turns on per-request stage tracing for every request:
	// stage durations feed the flumend_stage_seconds histograms, the
	// /debug/requests ring, and the slow-request log. Individual requests
	// can opt in with the X-Flumen-Trace: 1 header even when this is off.
	// Disabled tracing costs only nil-pointer checks on the hot path.
	TraceEnabled bool
	// TraceRing bounds the in-memory ring of recent traces served at
	// /debug/requests (0 = default 256).
	TraceRing int
	// SlowRequest, when positive, logs a per-stage breakdown for any traced
	// request whose end-to-end latency reaches the threshold.
	SlowRequest time.Duration
}

// DefaultConfig returns production-leaning defaults on a 32-port fabric.
func DefaultConfig() Config {
	return Config{
		Addr:           ":8080",
		Ports:          32,
		BlockSize:      8,
		QueueDepth:     256,
		MaxBatchCols:   64,
		MaxBatchReqs:   32,
		DefaultTimeout: 30 * time.Second,
		MaxTimeout:     2 * time.Minute,
		DrainTimeout:   10 * time.Second,
		RetryAfter:     1 * time.Second,
		MaxBodyBytes:   32 << 20,
		InferSeed:      99,
	}
}

// Validate checks the knobs that would otherwise fail deep inside the
// scheduler, and normalizes zero values to their defaults.
func (c *Config) Validate() error {
	d := DefaultConfig()
	if c.Addr == "" {
		c.Addr = d.Addr
	}
	if c.Ports == 0 {
		c.Ports = d.Ports
	}
	if c.BlockSize == 0 {
		c.BlockSize = d.BlockSize
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = d.QueueDepth
	}
	if c.MaxBatchCols <= 0 {
		c.MaxBatchCols = d.MaxBatchCols
	}
	if c.MaxBatchReqs <= 0 {
		c.MaxBatchReqs = d.MaxBatchReqs
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = d.DefaultTimeout
	}
	if c.MaxTimeout <= 0 {
		c.MaxTimeout = d.MaxTimeout
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = d.DrainTimeout
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = d.RetryAfter
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = d.MaxBodyBytes
	}
	if c.InferSeed == 0 {
		c.InferSeed = d.InferSeed
	}
	if c.NodeID == "" {
		c.NodeID = "flumend-" + randomHex(4)
	}
	if c.Ports < 4 || c.Ports%4 != 0 {
		return fmt.Errorf("serve: ports must be a positive multiple of 4, got %d", c.Ports)
	}
	if c.BlockSize < 2 || c.BlockSize%2 != 0 || c.BlockSize > c.Ports/2 {
		return fmt.Errorf("serve: block size must be even, ≥2 and ≤ ports/2, got %d", c.BlockSize)
	}
	if c.Precision < 0 || c.Precision > 24 {
		return fmt.Errorf("serve: precision must be in [1, 24] bits, or 0 for the default 8, got %d", c.Precision)
	}
	return nil
}
