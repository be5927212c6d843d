package cluster

import (
	"errors"
	"fmt"
	"net/http"
	"time"
)

// Kill tears node i down abruptly — open connections reset, no drain — the
// in-process equivalent of SIGKILL. The address stays reserved for Restart.
func (h *Harness) Kill(i int) error {
	h.mu.Lock()
	node := h.nodes[i]
	h.mu.Unlock()
	if node.srv == nil {
		return fmt.Errorf("cluster: backend %d is not running", i)
	}
	err := node.srv.Close()
	node.cancel()
	select {
	case runErr := <-node.done:
		if runErr != nil && !errors.Is(runErr, http.ErrServerClosed) && err == nil {
			err = runErr
		}
	case <-time.After(5 * time.Second):
		return fmt.Errorf("cluster: backend %d did not exit after Close", i)
	}
	h.mu.Lock()
	node.srv = nil
	h.mu.Unlock()
	return err
}

// Restart brings a killed node back on its original address with its
// original identity (a fresh process: caches cold, counters zeroed).
func (h *Harness) Restart(i int) error {
	h.mu.Lock()
	node := h.nodes[i]
	h.mu.Unlock()
	if node.srv != nil {
		return fmt.Errorf("cluster: backend %d is already running", i)
	}
	return h.start(node, node.addr)
}
