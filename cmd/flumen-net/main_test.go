package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestRunValidatesNames(t *testing.T) {
	for _, c := range []struct {
		name   string
		args   []string
		status int
		rows   int    // sweep rows on stdout
		stderr string // substring of stderr
	}{
		{"unknown topology", []string{"-topology", "Nonesuch"}, 2, 0, "valid: Ring, Mesh, OptBus, Flumen"},
		{"unknown pattern", []string{"-pattern", "nonesuch"}, 2, 0, "valid: uniform, bitrev, shuffle"},
		{"one pattern on one topology", []string{"-pattern", "uniform", "-topology", "Flumen", "-measure", "200"}, 0, len(rates), ""},
	} {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if got := run(c.args, &stdout, &stderr); got != c.status {
				t.Fatalf("exit %d, want %d; stderr: %s", got, c.status, stderr.String())
			}
			if rows := strings.Count(stdout.String(), "load="); rows != c.rows {
				t.Errorf("%d sweep rows, want %d:\n%s", rows, c.rows, stdout.String())
			}
			if !strings.Contains(stderr.String(), c.stderr) {
				t.Errorf("stderr %q does not name %q", stderr.String(), c.stderr)
			}
		})
	}
}
