package flumen

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"testing"

	"flumen/internal/workload"
)

// suiteGolden is the SHA-256 of the JSON Results of the five paper
// benchmarks at 1/16 scale on the five topologies, recorded at the commit
// before the NoP step and the chip's per-cycle scans were rewritten. It
// pins the full-system simulated statistics inside tier-1 (the benchmark's
// sim_digests.json needs a paper-scale run). Do not re-record it for a
// change that claims to keep the model.
const suiteGolden = "cfa485dee65ea99bdef710bdb7fdecf369f19349acb89ff24fe82f251d87875f"

func TestSuiteGoldenScaled(t *testing.T) {
	h := sha256.New()
	for _, w := range workload.ScaledAll(16) {
		for _, topo := range Topologies() {
			res, err := RunWorkload(w, topo, DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			raw, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			h.Write(raw)
		}
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != suiteGolden {
		t.Errorf("simulated statistics moved: digest %s, recorded %s", got, suiteGolden)
	}
}
