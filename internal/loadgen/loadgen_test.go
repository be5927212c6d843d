package loadgen

import (
	"bytes"
	"sync"
	"testing"

	"flumen/internal/serve"
)

// Small geometry keeps the reference accelerator and the in-process fleet
// cheap enough to run under -race.
func testServeConfig() serve.Config {
	cfg := serve.DefaultConfig()
	cfg.Ports = 8
	cfg.BlockSize = 4
	return cfg
}

func testWorkload() Config {
	cfg := DefaultConfig()
	cfg.Requests = 48
	cfg.Concurrency = 4
	cfg.Matrices = 6
	cfg.Dim = 8
	cfg.NRHS = 3
	return cfg
}

// Same seed and config must produce a byte-identical stream — bodies,
// request IDs, arrival offsets, digests — across independent generations.
// Run concurrently so -race also proves generation shares no hidden state.
func TestStreamDeterminism(t *testing.T) {
	scfg := testServeConfig()
	ref, err := serve.NewReference(scfg)
	if err != nil {
		t.Fatal(err)
	}
	shapes := ref.InferShapes()

	cfg := testWorkload()
	cfg.RatePerSec = 500 // open loop: arrival schedule is part of the stream

	const n = 4
	streams := make([]*Stream, n)
	digests := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			st, err := NewStream(cfg, shapes)
			if err != nil {
				t.Error(err)
				return
			}
			streams[i] = st
			_, digests[i], err = st.Expect(scfg)
			if err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	first := streams[0]
	for i := 1; i < n; i++ {
		st := streams[i]
		if len(st.Requests) != len(first.Requests) {
			t.Fatalf("stream %d has %d requests, stream 0 has %d", i, len(st.Requests), len(first.Requests))
		}
		for j := range st.Requests {
			a, b := &first.Requests[j], &st.Requests[j]
			if !bytes.Equal(a.Body, b.Body) {
				t.Fatalf("stream %d request %d body differs:\n%s\nvs\n%s", i, j, a.Body, b.Body)
			}
			if a.RequestID != b.RequestID || a.Path != b.Path || a.Arrival != b.Arrival {
				t.Fatalf("stream %d request %d metadata differs", i, j)
			}
		}
		if st.RequestDigest() != first.RequestDigest() {
			t.Fatalf("stream %d request digest differs", i)
		}
		if digests[i] != digests[0] {
			t.Fatalf("stream %d conformance digest differs: %s vs %s", i, digests[i], digests[0])
		}
	}

	// A different seed must change the stream (the digest actually hashes
	// something seed-dependent).
	cfg2 := cfg
	cfg2.Seed = cfg.Seed + 1
	st2, err := NewStream(cfg2, shapes)
	if err != nil {
		t.Fatal(err)
	}
	if st2.RequestDigest() == first.RequestDigest() {
		t.Fatal("different seeds produced the same request digest")
	}
}
