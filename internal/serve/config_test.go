package serve

import (
	"fmt"
	"testing"
)

// TestConfigValidate pins the converter bit depth Validate accepts: 0 means
// the default, 1–24 is what optics.NewQuantizer can build, and anything else
// is an error — not a panic at start (25, 64) or a silent 8 bits (-3).
func TestConfigValidate(t *testing.T) {
	for _, tc := range []struct {
		bits int
		ok   bool
	}{
		{-3, false},
		{25, false},
		{64, false},
		{0, true},
		{1, true},
		{24, true},
	} {
		t.Run(fmt.Sprintf("bits=%d", tc.bits), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Precision = tc.bits
			if err := cfg.Validate(); (err == nil) != tc.ok {
				t.Errorf("Validate() = %v, want ok=%v", err, tc.ok)
			}
			if _, err := NewReference(cfg); (err == nil) != tc.ok {
				t.Errorf("NewReference error = %v, want ok=%v", err, tc.ok)
			}
		})
	}
}
