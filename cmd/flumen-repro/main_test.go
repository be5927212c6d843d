package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
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

// TestRunValidatesFlags runs the command as a user would at -scale 8. A
// bad flag, an unknown section or a -scale below 1 exits 2 with nothing on
// stdout and the valid sections on stderr. Each section exits 0 and prints
// exactly its slice of the whole report: the header followed by every
// section in table order is the report, byte for byte.
func TestRunValidatesFlags(t *testing.T) {
	type outcome struct {
		code           int
		stdout, stderr string
	}
	exec := func(args ...string) outcome {
		var stdout, stderr bytes.Buffer
		code := run(args, &stdout, &stderr)
		return outcome{code, stdout.String(), stderr.String()}
	}
	valid := "sections: fig1, fig11, sec52, fig12, sec6, figs13-15, sec51, sec34"
	type testCase struct {
		name   string
		args   []string
		code   int
		stderr string // substring of stderr
	}
	cases := []testCase{
		{"zero scale", []string{"-scale", "0"}, 2, "-scale must be at least 1"},
		{"negative scale", []string{"-scale", "-2"}, 2, "-scale must be at least 1"},
		{"unknown section", []string{"-scale", "8", "fig1", "fig99"}, 2, `unknown section "fig99"`},
		{"removed flag", []string{"-pattern", "uniform", "fig11"}, 2, "flag provided but not defined: -pattern"},
	}
	for _, s := range sections {
		cases = append(cases, testCase{s.name, []string{"-scale", "8", s.name}, 0, ""})
	}

	// The sections are independent simulations: run them and the whole
	// report at once.
	outs := make([]outcome, len(cases))
	var report outcome
	var wg sync.WaitGroup
	for i, c := range cases {
		wg.Add(1)
		go func() { defer wg.Done(); outs[i] = exec(c.args...) }()
	}
	wg.Add(1)
	go func() { defer wg.Done(); report = exec("-scale", "8") }()
	wg.Wait()

	if report.code != 0 || report.stderr != "" {
		t.Fatalf("the whole report exited %d; stderr: %s", report.code, report.stderr)
	}
	const header = "# Flumen reproduction report\n\nWorkload scale: 1/8 of paper scale.\n"
	rest, ok := strings.CutPrefix(report.stdout, header)
	if !ok {
		t.Fatalf("the report does not open with its header:\n%s", report.stdout)
	}
	for i, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			o := outs[i]
			if o.code != c.code {
				t.Fatalf("exit %d, want %d; stderr: %s", o.code, c.code, o.stderr)
			}
			if c.code != 0 {
				if o.stdout != "" {
					t.Errorf("wrote output before rejecting the arguments:\n%s", o.stdout)
				}
				for _, want := range []string{c.stderr, valid} {
					if !strings.Contains(o.stderr, want) {
						t.Errorf("stderr %q does not name %q", o.stderr, want)
					}
				}
				return
			}
			if !strings.HasPrefix(o.stdout, "\n## ") || !strings.HasPrefix(rest, o.stdout) {
				t.Fatalf("section %s is not the report's next slice; it printed:\n%s\nthe report goes on:\n%s", c.name, o.stdout, rest)
			}
			rest = rest[len(o.stdout):]
		})
	}
	if rest != "" {
		t.Errorf("the report prints text that no section does:\n%s", rest)
	}
}

// failAfter accepts n bytes, then fails every write.
type failAfter struct{ n int }

func (f *failAfter) Write(p []byte) (int, error) {
	if len(p) > f.n {
		n := f.n
		f.n = 0
		return n, errors.New("device full")
	}
	f.n -= len(p)
	return len(p), nil
}

// A report that cannot be written in full exits 1 with the error on
// stderr, whether the write fails on stdout or in the -o file.
func TestRunReportsWriteErrors(t *testing.T) {
	var stderr bytes.Buffer
	if code := run([]string{"-scale", "8", "sec6"}, &failAfter{n: 100}, &stderr); code != 1 {
		t.Errorf("stdout failing after 100 bytes: exit %d, want 1", code)
	}
	if !strings.Contains(stderr.String(), "device full") {
		t.Errorf("stderr %q does not carry the write error", stderr.String())
	}

	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("no /dev/full:", err)
	}
	stderr.Reset()
	var stdout bytes.Buffer
	if code := run([]string{"-o", "/dev/full", "-scale", "8", "sec6"}, &stdout, &stderr); code != 1 {
		t.Errorf("-o /dev/full: exit %d, want 1", code)
	}
	if stderr.Len() == 0 || stdout.Len() != 0 {
		t.Errorf("-o /dev/full: stdout %q, stderr %q; want the error on stderr alone", stdout.String(), stderr.String())
	}
}
