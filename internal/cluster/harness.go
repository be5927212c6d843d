package cluster

import (
	"context"
	"fmt"
	"net"
	"path/filepath"
	"sync"
	"time"

	"flumen/internal/serve"
)

// Harness spins up N real flumend instances on loopback inside one process,
// so cluster tests and the standing benchmark exercise the genuine HTTP
// path — real listeners, real JSON, real schedulers and program caches —
// without forking binaries. Kill simulates a crashed node (abrupt
// connection teardown, no drain) and Restart brings a replacement up on the
// same address with the same node identity, which is exactly the
// eject-then-reinstate sequence the router's pool must survive.
type Harness struct {
	mu    sync.Mutex
	cfg   serve.Config
	nodes []*harnessNode
}

type harnessNode struct {
	srv    *serve.Server
	addr   string // pinned after first bind so restarts reuse it
	nodeID string
	cancel context.CancelFunc
	done   chan error
}

// harnessBasePort is the loopback port of node 0 of a fleet of several; node
// i listens on harnessBasePort+i. The router ranks backends by a hash of
// their URLs, so on kernel-assigned ports which node owns which weights
// differed from one start to the next, and in about one start in five one
// node was handed more unpinned programs than its cache has room for: the
// same routed stream then ran 10 % slower with 0.6 ms more p95
// (EXPERIMENTS.md, "Fleet placement"). With fixed ports a fleet's placement
// is a function of the traffic alone.
const harnessBasePort = 18080

// StartBackends launches n flumend instances with the given base config
// (NodeID is overridden with "node-<i>"; Addr with loopback ports from
// harnessBasePort up, or with any free ports while another fleet holds those
// and for a lone node: it owns every key whatever it is called, and its
// callers reach it directly, over connections that would outlive it at a
// repeated address). Identical Ports/BlockSize/Precision/InferSeed across nodes is what makes
// the fleet bitwise-interchangeable.
func StartBackends(n int, base serve.Config) (*Harness, error) {
	if n < 2 {
		return startBackends(n, base, 0)
	}
	return startBackends(n, base, harnessBasePort)
}

// startBackends is StartBackends from a chosen first port; 0 asks the kernel
// for every port, which tests that kill and restart nodes do so that they
// never contend with another process's fleet for a port a node must return to.
func startBackends(n int, base serve.Config, port int) (*Harness, error) {
	// A fleet is either wholly at the fixed addresses or nowhere near them.
	for i := 0; i < n && port != 0; i++ {
		lis, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", port+i))
		if err != nil {
			port = 0
			continue
		}
		lis.Close()
	}
	h := &Harness{cfg: base}
	for i := 0; i < n; i++ {
		node := &harnessNode{nodeID: fmt.Sprintf("node-%d", i)}
		h.nodes = append(h.nodes, node)
		addr := "127.0.0.1:0"
		if port != 0 {
			addr = fmt.Sprintf("127.0.0.1:%d", port+i)
		}
		if err := h.start(node, addr); err != nil {
			h.Stop()
			return nil, err
		}
	}
	return h, nil
}

// start boots one node on the given address and records its bound port.
func (h *Harness) start(node *harnessNode, addr string) error {
	cfg := h.cfg
	cfg.Addr = addr
	cfg.NodeID = node.nodeID
	if h.cfg.StoreDir != "" {
		// Each node persists its registry in its own subdirectory, so a
		// Restart reloads exactly what that node had registered — the
		// single-machine analogue of per-node disks.
		cfg.StoreDir = filepath.Join(h.cfg.StoreDir, node.nodeID)
	}
	srv, err := serve.New(cfg)
	if err != nil {
		return err
	}
	if err := srv.Listen(); err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Run(ctx) }()
	node.srv = srv
	node.addr = srv.Addr()
	node.cancel = cancel
	node.done = done
	return nil
}

// N returns the backend count.
func (h *Harness) N() int { return len(h.nodes) }

// URLs returns the backends' base URLs in index order.
func (h *Harness) URLs() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	urls := make([]string, len(h.nodes))
	for i, node := range h.nodes {
		urls[i] = "http://" + node.addr
	}
	return urls
}

// Backend exposes node i's server (e.g. for Stats()).
func (h *Harness) Backend(i int) *serve.Server {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.nodes[i].srv
}

// Stop gracefully drains every running node and waits for exit.
func (h *Harness) Stop() {
	h.mu.Lock()
	nodes := append([]*harnessNode(nil), h.nodes...)
	h.mu.Unlock()
	for _, node := range nodes {
		if node.srv == nil {
			continue
		}
		node.cancel()
	}
	for _, node := range nodes {
		if node.srv == nil {
			continue
		}
		select {
		case <-node.done:
		case <-time.After(15 * time.Second):
		}
		node.srv = nil
	}
}
