package main

import (
	"bytes"
	"os"
	"runtime"
	"strings"
	"testing"
)

func TestRunValidatesFlags(t *testing.T) {
	for _, c := range []struct {
		name   string
		args   []string
		status int
		stderr string // substring of stderr
	}{
		{"zero block", []string{"-block", "0"}, 2, "-block 0 must be positive"},
		{"negative budget", []string{"-budget", "-5"}, 2, "-budget -5 must be positive"},
		{"more partitions than nodes", []string{"-ports", "256"}, 2, "32 partitions, more than the 16 NoP nodes"},
		{"odd block", []string{"-ports", "12", "-block", "3"}, 2, "-ports 12 -block 3"},
		{"infinite rate", []string{"-rates", "0.01,Inf"}, 2, `"Inf"`},
		{"rate above one", []string{"-rates", "1.5"}, 2, `"1.5"`},
		{"zero step rate", []string{"-step-rate", "0"}, 2, "-step-rate 0 outside (0, 1]"},
		{"unknown pattern", []string{"-pattern", "nonesuch"}, 2, "valid: uniform, bitrev, shuffle"},
		{"one rate", []string{"-rates", "0.02"}, 0, ""},
	} {
		t.Run(c.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			if got := run(c.args, &stdout, &stderr); got != c.status {
				t.Fatalf("exit %d, want %d; stderr: %s", got, c.status, stderr.String())
			}
			if c.status == 0 {
				if !strings.Contains(stdout.String(), "\n0.020 ") || stderr.Len() != 0 {
					t.Errorf("no 0.020 row, or stderr written:\n%s%s", stdout.String(), stderr.String())
				}
				return
			}
			if stdout.Len() != 0 {
				t.Errorf("bad flag wrote a report:\n%s", stdout.String())
			}
			if lines := strings.Count(stderr.String(), "\n"); lines != 1 || !strings.Contains(stderr.String(), c.stderr) {
				t.Errorf("stderr %q is not one line naming %q", stderr.String(), c.stderr)
			}
		})
	}
}

// TestRunGolden holds the report to the one recorded in testdata before the
// mixed harness ran on noc.RunSynthetic.
func TestRunGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/rates.golden")
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if got := run([]string{"-rates", "0.005,0.02,0.2"}, &stdout, &stderr); got != 0 {
		t.Fatalf("exit %d; stderr: %s", got, stderr.String())
	}
	if !bytes.Equal(stdout.Bytes(), want) {
		t.Fatalf("report moved:\n got:\n%s\nwant:\n%s", stdout.String(), want)
	}
}

// TestSmokeSameAcrossGOMAXPROCS runs -smoke, which fails unless the mixed
// run reaches steady state with no leaked lease and reclaims within budget,
// and checks the harness's one clock gives the same report at GOMAXPROCS 1
// and 2.
func TestSmokeSameAcrossGOMAXPROCS(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var reports []string
	for _, procs := range []int{1, 2} {
		runtime.GOMAXPROCS(procs)
		var stdout, stderr bytes.Buffer
		if got := run([]string{"-smoke"}, &stdout, &stderr); got != 0 {
			t.Fatalf("GOMAXPROCS=%d: exit %d; stderr: %s", procs, got, stderr.String())
		}
		reports = append(reports, stdout.String())
	}
	if !strings.HasPrefix(reports[0], "SMOKE OK") || reports[0] != reports[1] {
		t.Fatalf("smoke reports differ or did not pass:\nGOMAXPROCS=1: %sGOMAXPROCS=2: %s", reports[0], reports[1])
	}
}
