// Command flumend serves the Flumen photonic accelerator over HTTP/JSON: a
// batching inference server with a bounded admission queue, per-request
// deadlines, Prometheus-style /metrics, and graceful drain on SIGTERM.
//
// Endpoints:
//
//	POST   /v1/matmul       {"m": [[...]], "x": [[...]], "timeout_ms": 0} or {"model": "name@v1", "x": [[...]]}
//	POST   /v1/conv2d       {"input": [[[...]]], "kernels": [[[[...]]]], "stride": 1, "pad": 0} or by "model"
//	POST   /v1/infer        {"model": "tiny-cnn", "volume": [[[...]]]}
//	POST   /v1/models       register a named model (persisted with -store; prewarmed and pinned)
//	GET    /v1/models       list registered models
//	DELETE /v1/models/{ref} unregister "name@version"
//	GET    /healthz
//	GET    /metrics
//	GET    /debug/requests  recent per-request stage traces, newest first
//	GET    /debug/pprof/    (only with -pprof)
//
// Concurrent matmul requests whose weight matrices are bit-identical are
// coalesced into one partition-wide engine call, so a fleet of clients
// streaming the same model shares a single SVD + Clements compilation via
// the weight-program cache.
package main

import (
	"context"
	"flag"
	"log"
	"os/signal"
	"syscall"
	"time"

	"flumen"
	"flumen/internal/serve"
)

func main() {
	cfg := serve.DefaultConfig()
	flag.StringVar(&cfg.Addr, "addr", cfg.Addr, "listen address")
	flag.IntVar(&cfg.Ports, "ports", cfg.Ports, "fabric port count (multiple of 4)")
	flag.IntVar(&cfg.BlockSize, "block", cfg.BlockSize, "compute block size (even, ≤ ports/2)")
	flag.IntVar(&cfg.CacheSize, "cache", 0, "weight-program cache capacity (0 = default, <0 disables)")
	flag.IntVar(&cfg.Precision, "bits", 0, "DAC/ADC bit depth, 1–24 (0 = default 8)")
	flag.IntVar(&cfg.QueueDepth, "queue", cfg.QueueDepth, "admission queue depth")
	flag.IntVar(&cfg.MaxBatchReqs, "max-batch", cfg.MaxBatchReqs, "max requests coalesced per engine call")
	flag.IntVar(&cfg.MaxBatchCols, "max-batch-cols", cfg.MaxBatchCols, "max RHS columns per engine call")
	flag.DurationVar(&cfg.DefaultTimeout, "timeout", cfg.DefaultTimeout, "default per-request deadline")
	flag.DurationVar(&cfg.DrainTimeout, "drain-timeout", cfg.DrainTimeout, "graceful shutdown budget")
	flag.Int64Var(&cfg.InferSeed, "infer-seed", cfg.InferSeed, "seed for the built-in model weights")
	flag.StringVar(&cfg.NodeID, "node-id", "", "cluster identity echoed as X-Flumen-Node (empty = random)")
	flag.StringVar(&cfg.StoreDir, "store", "", "model-registry store directory (empty = memory-only; models vanish on restart)")
	flag.Int64Var(&cfg.MaxBodyBytes, "max-body", cfg.MaxBodyBytes, "request body size limit in bytes (oversized bodies get 413)")
	healthOn := flag.Bool("health", false, "enable the device-health monitor (probe, quarantine, recalibrate)")
	probeEvery := flag.Int("health-probe-interval", 0, "work items between calibration probes (0 = default)")
	flag.BoolVar(&cfg.TraceEnabled, "trace", cfg.TraceEnabled, "trace every request's per-stage latency into /debug/requests and flumend_stage_seconds (off: only X-Flumen-Trace requests are traced)")
	flag.IntVar(&cfg.TraceRing, "trace-ring", cfg.TraceRing, "recent-trace ring size at /debug/requests (0 = default 256)")
	flag.DurationVar(&cfg.SlowRequest, "trace-slow", cfg.SlowRequest, "log a stage breakdown for traced requests slower than this (0 = off)")
	pprofOn := flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/ (trusted networks only)")
	flag.Parse()

	cfg.EnablePprof = *pprofOn
	if *healthOn {
		cfg.Health = &flumen.HealthConfig{ProbeInterval: *probeEvery}
	}

	srv, err := serve.New(cfg)
	if err != nil {
		log.Fatalf("flumend: %v", err)
	}
	if err := srv.Listen(); err != nil {
		log.Fatalf("flumend: %v", err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	st := srv.Accelerator().Stats()
	log.Printf("flumend: node %s listening on %s (fabric %d ports, %d partitions of %d, cache %d programs)",
		srv.NodeID(), srv.Addr(), st.Ports, st.Partitions, st.BlockSize, st.Cache.Capacity)
	if cfg.StoreDir != "" {
		rs := srv.Registry().Stats()
		log.Printf("flumend: model registry persisted at %s (%d models loaded, %d awaiting prewarm)",
			cfg.StoreDir, rs.Models, rs.PrewarmPending)
	}
	if cfg.Health != nil {
		log.Printf("flumend: device-health monitor enabled (probe threshold %g)", srv.Accelerator().HealthStats().ProbeThreshold)
	}
	if *pprofOn {
		log.Printf("flumend: pprof mounted at /debug/pprof/")
	}
	if cfg.TraceEnabled {
		log.Printf("flumend: request tracing on (ring %d, slow threshold %s)", cfg.TraceRing, cfg.SlowRequest)
	}

	start := time.Now()
	if err := srv.Run(ctx); err != nil {
		log.Fatalf("flumend: %v", err)
	}
	st = srv.Accelerator().Stats()
	log.Printf("flumend: drained cleanly after %s (%d programs, %d λ-batches, %.0f pJ, cache %d/%d hits/misses)",
		time.Since(start).Round(time.Millisecond), st.Programs, st.Batches, st.EnergyPJ, st.Cache.Hits, st.Cache.Misses)
}
