// Command flumen-router is the cluster front door: it shards /v1/matmul,
// /v1/conv2d, and /v1/infer across N flumend backends by rendezvous hashing
// over the weight fingerprint, so repeat weights land on the node whose
// weight-program cache already holds the compiled plan.
//
//	flumen-router -addr :8090 -backends http://n0:8080,http://n1:8080
//
// Around the affinity core: active /healthz probing with passive error
// tracking (ejection → probation → reinstatement), budget-bounded retries,
// 503 spill to the next-preferred healthy node, Prometheus /metrics
// (flumen_router_*), and graceful drain on SIGTERM.
package main

import (
	"context"
	"flag"
	"log"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"flumen/internal/cluster"
)

func main() {
	cfg := cluster.DefaultConfig()
	backends := flag.String("backends", "", "comma-separated flumend base URLs (required)")
	flag.StringVar(&cfg.Addr, "addr", cfg.Addr, "listen address")
	flag.DurationVar(&cfg.ProbeInterval, "probe-interval", cfg.ProbeInterval, "health probe period per backend")
	flag.DurationVar(&cfg.ProbeTimeout, "probe-timeout", cfg.ProbeTimeout, "health probe timeout")
	flag.IntVar(&cfg.FailThreshold, "fail-threshold", cfg.FailThreshold, "consecutive failures that eject a backend")
	flag.DurationVar(&cfg.EjectionTime, "ejection-time", cfg.EjectionTime, "cooldown before an ejected backend may enter probation")
	flag.IntVar(&cfg.ReinstateAfter, "reinstate-after", cfg.ReinstateAfter, "consecutive successes that reinstate a probationary backend")
	flag.IntVar(&cfg.MaxRetries, "retries", cfg.MaxRetries, "max transport-level retries per request")
	flag.Float64Var(&cfg.RetryBudget, "retry-budget", cfg.RetryBudget, "cluster-wide retry tokens earned per request")
	flag.Float64Var(&cfg.RetryBurst, "retry-burst", cfg.RetryBurst, "retry token bucket capacity")
	flag.DurationVar(&cfg.RequestTimeout, "timeout", cfg.RequestTimeout, "end-to-end request deadline across all attempts")
	flag.DurationVar(&cfg.AttemptTimeout, "attempt-timeout", cfg.AttemptTimeout, "single backend attempt deadline")
	flag.Int64Var(&cfg.MaxBodyBytes, "max-body", cfg.MaxBodyBytes, "request body size limit in bytes")
	flag.DurationVar(&cfg.DrainTimeout, "drain-timeout", cfg.DrainTimeout, "graceful shutdown budget")
	flag.BoolVar(&cfg.TraceEnabled, "trace", cfg.TraceEnabled, "trace every proxied request (selection, hops, spills, retries) into /debug/requests")
	flag.IntVar(&cfg.TraceRing, "trace-ring", cfg.TraceRing, "recent-trace ring size at /debug/requests (0 = default 256)")
	flag.Parse()

	for _, b := range strings.Split(*backends, ",") {
		if b = strings.TrimSpace(b); b != "" {
			cfg.Backends = append(cfg.Backends, b)
		}
	}
	if len(cfg.Backends) == 0 {
		log.Fatalf("flumen-router: -backends is required (comma-separated flumend base URLs)")
	}

	rt, err := cluster.New(cfg)
	if err != nil {
		log.Fatalf("flumen-router: %v", err)
	}
	if err := rt.Listen(); err != nil {
		log.Fatalf("flumen-router: %v", err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	log.Printf("flumen-router: listening on %s, routing over %d backends: %s",
		rt.Addr(), len(cfg.Backends), strings.Join(cfg.Backends, ", "))
	start := time.Now()
	if err := rt.Run(ctx); err != nil {
		log.Fatalf("flumen-router: %v", err)
	}
	st := rt.Stats()
	ratio := 0.0
	if st.Routed > 0 {
		ratio = float64(st.AffinityHits) / float64(st.Routed)
	}
	log.Printf("flumen-router: drained cleanly after %s (%d routed, affinity ratio %.3f, %d retries, %d spills)",
		time.Since(start).Round(time.Millisecond), st.Routed, ratio, st.Retries, st.Spills)
}
