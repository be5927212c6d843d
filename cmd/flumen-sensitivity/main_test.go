package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestRunValidatesFlags holds every bad -scale and every unknown -benchmark to exit 2 before
// any output, naming what is valid.
func TestRunValidatesFlags(t *testing.T) {
	for _, c := range []struct {
		name   string
		args   []string
		stderr string // substring of stderr
	}{
		{"zero scale", []string{"-scale", "0"}, "-scale must be at least 1"},
		{"negative scale", []string{"-scale", "-2"}, "-scale must be at least 1"},
		{"unknown benchmark", []string{"-benchmark", "Nope"}, "valid: ImageBlur, VGG16FC, ResNet50Conv3, JPEG, 3DRotation"},
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
