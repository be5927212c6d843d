package cluster

import (
	"fmt"
	"net/http"
	"reflect"
	"testing"

	"flumen/internal/serve"
)

// TestStartBackendsAddressesRepeat pins what makes a fleet's rendezvous
// placement repeat: two fleets started one after the other have the same
// URLs, and a fleet started while those are held gets other ports, all of
// them, and serves. `go test ./...` runs the benchmark package's fleets
// beside this one on harnessBasePort, so while those ports are held the test
// moves to another fixed pair below the kernel's ephemeral range.
func TestStartBackendsAddressesRepeat(t *testing.T) {
	cfg := serve.DefaultConfig()
	cfg.Ports, cfg.BlockSize = 16, 8

	var (
		first *Harness
		want  []string
		base  int
	)
	for base = harnessBasePort; ; base += 10 {
		if base >= harnessBasePort+200 {
			t.Skipf("fixed ports held by another process: no free pair from %d to %d", harnessBasePort, base)
		}
		want = []string{
			fmt.Sprintf("http://127.0.0.1:%d", base),
			fmt.Sprintf("http://127.0.0.1:%d", base+1),
		}
		h, err := startBackends(2, cfg, base)
		if err != nil {
			t.Fatal(err)
		}
		if reflect.DeepEqual(h.URLs(), want) {
			first = h
			break
		}
		h.Stop()
	}
	// An answer means the node's accept loop owns the listener, so Stop
	// closes it before it returns.
	healthy(t, first)
	first.Stop()

	second, err := startBackends(2, cfg, base)
	if err != nil {
		t.Fatal(err)
	}
	defer second.Stop()
	if got := second.URLs(); !reflect.DeepEqual(got, want) {
		t.Fatalf("restarted fleet at %v, want %v", got, want)
	}

	// Node 1's port alone is free once it is killed; a fleet must not take
	// it and leave node 0 somewhere else.
	if err := second.Kill(1); err != nil {
		t.Fatal(err)
	}
	beside, err := startBackends(2, cfg, base)
	if err != nil {
		t.Fatal(err)
	}
	defer beside.Stop()
	for i, u := range beside.URLs() {
		if u == want[0] || u == want[1] {
			t.Fatalf("second live fleet's node %d took fixed address %s", i, u)
		}
	}
	healthy(t, beside)
	if err := second.Restart(1); err != nil {
		t.Fatalf("restart on the fixed port: %v", err)
	}
}

func healthy(t *testing.T, h *Harness) {
	t.Helper()
	for i, u := range h.URLs() {
		resp, err := http.Get(u + "/healthz")
		if err != nil {
			t.Fatalf("node %d at %s: %v", i, u, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("node %d at %s: healthz status %d", i, u, resp.StatusCode)
		}
	}
}
