// Package cluster is Flumen's scale-out layer: an HTTP router that shards
// requests across N flumend backends by weight affinity.
//
// Flumen's thesis is dynamic compute in the interconnect of a multi-chiplet
// package; at datacenter scale the analogue is many accelerator nodes behind
// one front door. The router completes that picture: it fronts a fleet of
// flumend instances and routes each request by rendezvous hashing over the
// same raw-bit weight fingerprint that keys the engine's weight-program
// cache and the serving layer's batcher. Repeat weights therefore land on
// the node whose LRU already holds the compiled plan (SVD + Clements
// decomposition + compiled propagation kernels) — cache affinity is the
// whole point, and it composes with the per-node coalescer: same-weight
// traffic converges on one node and then batches into shared engine calls.
//
// Around that core the router keeps the fleet honest:
//
//   - A backend pool actively probes /healthz and passively tracks request
//     failures. Repeated failures eject a backend; after a cooldown it
//     enters probation and is reinstated only after consecutive successful
//     probes. flumend's degraded-health payload deprioritizes (but does not
//     eject) a node whose partitions are quarantined.
//   - Retries are bounded per request and by a cluster-wide retry budget
//     (a token bucket refilled by live traffic), so a brown-out cannot
//     amplify into a retry storm.
//   - 503 backpressure spills to the next-preferred healthy node first and
//     propagates Retry-After to the client only when every candidate is
//     saturated.
//   - Requests carry X-Request-ID end to end and responses carry
//     X-Flumen-Node, so any response can be chased to the backend that
//     produced it.
package cluster

import (
	"fmt"
	"net/url"
	"strings"
	"time"
)

// Config parameterizes the router, its backend pool, and its failure
// handling.
type Config struct {
	// Addr is the router's listen address, e.g. ":8090".
	Addr string

	// Backends are the flumend base URLs, e.g. "http://10.0.0.1:8080".
	// Order is irrelevant: routing preference comes from the hash.
	Backends []string

	// ProbeInterval is how often each backend's /healthz is probed;
	// ProbeTimeout bounds one probe.
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration

	// FailThreshold is the consecutive failure count (probe or live
	// request) that ejects an active backend.
	FailThreshold int
	// EjectionTime is how long an ejected backend cools off before
	// probation probes may readmit it.
	EjectionTime time.Duration
	// ReinstateAfter is the consecutive probe/request successes a
	// probationary backend needs to return to active service.
	ReinstateAfter int

	// MaxRetries caps transport-level retries for one request.
	// RetryBudget is the cluster-wide token-bucket refill per admitted
	// request (0.1 = one retry allowed per ten requests); RetryBurst is
	// the bucket capacity. Spills on 503 are not retries and do not
	// consume budget — a saturated node answered, it was not at fault.
	MaxRetries  int
	RetryBudget float64
	RetryBurst  float64

	// RequestTimeout bounds a request end to end across all attempts;
	// AttemptTimeout bounds a single backend attempt.
	RequestTimeout time.Duration
	AttemptTimeout time.Duration

	// MaxBodyBytes bounds a request body read at the router.
	MaxBodyBytes int64

	// DrainTimeout bounds graceful shutdown; RetryAfter is the hint
	// attached to router-originated 503s.
	DrainTimeout time.Duration
	RetryAfter   time.Duration

	// TraceEnabled traces every proxied request (candidate selection, hop
	// latency, spills, retries) into the router's /debug/requests ring and
	// the flumen_router_hop_seconds histogram. Off, individual requests can
	// still opt in with the X-Flumen-Trace: 1 header, which the router
	// forwards so the backend returns its stage breakdown in the body.
	TraceEnabled bool
	// TraceRing bounds the /debug/requests ring (0 = default 256).
	TraceRing int
}

// DefaultConfig returns production-leaning router defaults.
func DefaultConfig() Config {
	return Config{
		Addr:           ":8090",
		ProbeInterval:  2 * time.Second,
		ProbeTimeout:   1 * time.Second,
		FailThreshold:  3,
		EjectionTime:   10 * time.Second,
		ReinstateAfter: 2,
		MaxRetries:     2,
		RetryBudget:    0.1,
		RetryBurst:     10,
		RequestTimeout: 30 * time.Second,
		AttemptTimeout: 10 * time.Second,
		MaxBodyBytes:   32 << 20,
		DrainTimeout:   10 * time.Second,
		RetryAfter:     1 * time.Second,
	}
}

// Validate normalizes zero values to defaults and rejects configurations
// the router cannot serve with.
func (c *Config) Validate() error {
	d := DefaultConfig()
	if c.Addr == "" {
		c.Addr = d.Addr
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = d.ProbeInterval
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = d.ProbeTimeout
	}
	if c.FailThreshold <= 0 {
		c.FailThreshold = d.FailThreshold
	}
	if c.EjectionTime <= 0 {
		c.EjectionTime = d.EjectionTime
	}
	if c.ReinstateAfter <= 0 {
		c.ReinstateAfter = d.ReinstateAfter
	}
	if c.MaxRetries < 0 {
		c.MaxRetries = d.MaxRetries
	}
	if c.RetryBudget <= 0 {
		c.RetryBudget = d.RetryBudget
	}
	if c.RetryBurst <= 0 {
		c.RetryBurst = d.RetryBurst
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = d.RequestTimeout
	}
	if c.AttemptTimeout <= 0 {
		c.AttemptTimeout = d.AttemptTimeout
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = d.MaxBodyBytes
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = d.DrainTimeout
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = d.RetryAfter
	}
	if len(c.Backends) == 0 {
		return fmt.Errorf("cluster: at least one backend is required")
	}
	seen := make(map[string]bool, len(c.Backends))
	for i, b := range c.Backends {
		b = strings.TrimRight(strings.TrimSpace(b), "/")
		if b == "" {
			return fmt.Errorf("cluster: backend %d is empty", i)
		}
		u, err := url.Parse(b)
		if err != nil || u.Scheme == "" || u.Host == "" {
			return fmt.Errorf("cluster: backend %q is not an absolute URL", c.Backends[i])
		}
		if seen[b] {
			return fmt.Errorf("cluster: duplicate backend %q", b)
		}
		seen[b] = true
		c.Backends[i] = b
	}
	return nil
}
