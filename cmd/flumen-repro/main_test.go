package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"flumen"
)

// The Figs. 13-15 section must carry the whole grid, not just the Mesh
// headline: one energy row per benchmark × topology, a speedup column per
// topology Flumen-A is compared with, and a geomean under each figure.
func TestFigs131415(t *testing.T) {
	var buf bytes.Buffer
	figs131415(&buf, 8)
	out := buf.String()
	section := func(from, to string) string {
		i, j := strings.Index(out, from), strings.Index(out, to)
		if i < 0 || j < i {
			t.Fatalf("no %q … %q section in:\n%s", from, to, out)
		}
		return out[i:j]
	}

	fig13 := section("## Fig. 13", "## Fig. 14")
	for _, b := range flumen.Benchmarks() {
		for _, topo := range flumen.Topologies() {
			row := fmt.Sprintf("\n| %s | %s |", b, topo)
			if n := strings.Count(fig13, row); n != 1 {
				t.Errorf("Fig. 13 has %d rows for %s on %s, want 1", n, b, topo)
			}
		}
	}
	if n := strings.Count(fig13, "\n| "); n != 1+5*5 {
		t.Errorf("Fig. 13 has %d table lines, want a header and 25 rows", n)
	}

	fig14 := section("## Fig. 14", "## Fig. 15")
	if !strings.Contains(fig14, "\n| benchmark | Ring | Mesh | OptBus | Flumen-I |\n") {
		t.Errorf("Fig. 14 lacks a speedup column per non-Flumen-A topology:\n%s", fig14)
	}
	for _, b := range flumen.Benchmarks() {
		i := strings.Index(fig14, "\n| "+b+" |")
		if i < 0 {
			t.Errorf("Fig. 14 has no row for %s", b)
			continue
		}
		row, _, _ := strings.Cut(fig14[i+1:], "\n")
		if n := strings.Count(row, "× |"); n != 4 {
			t.Errorf("Fig. 14 row %q has %d speedups, want 4", row, n)
		}
	}

	for _, line := range []string{
		"\ngeomean Flumen-A energy gain over Mesh: ",
		"\ngeomean Flumen-A speedup over Mesh: ",
		"\ngeomean Flumen-A EDP gain over Mesh: ",
	} {
		if strings.Count(out, line) != 1 {
			t.Errorf("want exactly one line %q in:\n%s", strings.TrimSpace(line), out)
		}
	}
}

// TestRunValidatesFlags holds every bad -scale to exit 2 before
// any output, naming what is valid.
func TestRunValidatesFlags(t *testing.T) {
	for _, c := range []struct {
		name   string
		args   []string
		stderr string // substring of stderr
	}{
		{"zero scale", []string{"-scale", "0"}, "-scale must be at least 1"},
		{"negative scale", []string{"-scale", "-2"}, "-scale must be at least 1"},
	} {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if got := run(c.args, &stdout, &stderr); got != 2 {
				t.Fatalf("exit %d, want 2; stderr: %s", got, stderr.String())
			}
			if stdout.Len() != 0 {
				t.Errorf("wrote output before rejecting the flags:\n%s", stdout.String())
			}
			if !strings.Contains(stderr.String(), c.stderr) {
				t.Errorf("stderr %q does not name %q", stderr.String(), c.stderr)
			}
		})
	}
}
