package flumen

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"flumen/internal/photonic"
)

// Golden digests for the engine: the tier-1 twin of the standing benchmark's
// conformance digest. Every other engine test compares the engine against
// itself (serial ≡ parallel, cached ≡ uncached); this one compares it
// against bits recorded from the engine as it stood before the warm path
// was rebuilt (commit 8a3612e), when an interpreter still ran beside the
// compiled plans, so a rewrite that moves every path by the same bit is
// caught too.
//
// Each case runs twice on one accelerator (cold, then from the program
// cache) and hashes the raw bits of every output of both calls followed by
// the bits of Stats().EnergyPJ, Programs and Batches. One digest per
// (case, noise) must hold at every worker count.

// goldenDigests were produced by this file's code on the parent commit's
// engine. Do not regenerate them to make a change pass.
var goldenDigests = map[string]string{
	"matmul20x20x5/clean":  "ab4e315cb8c0c82ce9f698bca13b292b2a903f1de096365e017922ee149f4b47",
	"matmul20x20x5/noise":  "200940f4ad730752c92f77fb8fdbb8df40b9f458be8f2e1e1818de137f2c6000",
	"matmul30x50x7/clean":  "9ddcd54ce997d3472e87fa4082c918e6c44f1383416c63cd787e450b8917a55b",
	"matmul30x50x7/noise":  "191d0c5c5d0c78e2dd621fe27f018ed936536f40b3c8f694b5f8cf52d2883b05",
	"matmul64x64x64/clean": "b54531adc5ab9df2dd09d2a9aca19ec6b9d9ac1d414a4c01d1a30939c89b9d5c",
	"matmul64x64x64/noise": "9e0c3cd87aba7d9b29d402f67ab2abbd614119fb96f965d54b54e491430697da",
	"matvec30x50/clean":    "661822aa1e6d29e7e113dc0d9108d3fca6eb9bbed963b0ea62eccc9edc296599",
	"matvec30x50/noise":    "1335f166fb57d04548cbd94970993e6d32bd84967e2be90ebff597ee11feeff9",
	"conv3ch8k/clean":      "3c2995e7a8b2c03d5659e695b91f5867ac012d19b008a70a1214c5217bce8612",
	"conv3ch8k/noise":      "07669c2bf4655a3a184482ab9025152045abcf55acdb6d6bb418f47399ce72a0",
	"conv3ch1k/clean":      "723523b32468020cd30df8d81cf51906615494dad9e240abea76f1ed1ee82d1e",
	"conv3ch1k/noise":      "62b3c53f6fa1f853a69ad1661c5c4d8ca1989b2e4f3cebd3100b9cf393c49f49",
	// Serial run with a drifting fault injector on every partition: pins the
	// order in which items step and corrupt the device at workers = 1.
	"matmul30x50x7/drift": "1352ef8d861970a0b9fc9e1777841e0f5c154ba8788be4f1c6f96e4eb3939dea",
}

// goldenCase is one seeded workload: run makes the call and flattens its
// result.
type goldenCase struct {
	name string
	run  func(a *Accelerator) ([]float64, error)
}

func flatten2(m [][]float64) []float64 {
	var out []float64
	for _, row := range m {
		out = append(out, row...)
	}
	return out
}

func goldenMatMul(seed int64, rows, inner, nrhs int) func(*Accelerator) ([]float64, error) {
	rng := rand.New(rand.NewSource(seed))
	m := randMatrix(rng, rows, inner)
	x := randMatrix(rng, inner, nrhs)
	return func(a *Accelerator) ([]float64, error) {
		out, err := a.MatMul(m, x)
		return flatten2(out), err
	}
}

func goldenConv(seed int64, kernels int) func(*Accelerator) ([]float64, error) {
	rng := rand.New(rand.NewSource(seed))
	input := make([][][]float64, 3)
	for c := range input {
		input[c] = randMatrix(rng, 9, 11)
	}
	ks := make([][][][]float64, kernels)
	for k := range ks {
		ks[k] = make([][][]float64, 3)
		for c := range ks[k] {
			ks[k][c] = randMatrix(rng, 3, 3)
		}
	}
	return func(a *Accelerator) ([]float64, error) {
		out, err := a.Conv2D(input, ks, 1, 1)
		var flat []float64
		for _, plane := range out {
			flat = append(flat, flatten2(plane)...)
		}
		return flat, err
	}
}

func goldenCases() []goldenCase {
	rng := rand.New(rand.NewSource(104))
	mv := randMatrix(rng, 30, 50)
	xv := make([]float64, 50)
	for i := range xv {
		xv[i] = rng.NormFloat64()
	}
	return []goldenCase{
		{"matmul20x20x5", goldenMatMul(101, 20, 20, 5)},
		{"matmul30x50x7", goldenMatMul(102, 30, 50, 7)},
		{"matmul64x64x64", goldenMatMul(103, 64, 64, 64)},
		{"matvec30x50", func(a *Accelerator) ([]float64, error) { return a.MatVec(mv, xv) }},
		{"conv3ch8k", goldenConv(105, 8)},
		{"conv3ch1k", goldenConv(106, 1)},
	}
}

// goldenDigest runs the case twice on a and hashes outputs and meter state.
func goldenDigest(t *testing.T, a *Accelerator, c goldenCase) string {
	t.Helper()
	h := sha256.New()
	var word [8]byte
	put := func(bits uint64) {
		binary.LittleEndian.PutUint64(word[:], bits)
		h.Write(word[:])
	}
	for call := 0; call < 2; call++ {
		out, err := c.run(a)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range out {
			put(math.Float64bits(v))
		}
	}
	st := a.Stats()
	put(math.Float64bits(st.EnergyPJ))
	put(uint64(st.Programs))
	put(uint64(st.Batches))
	return hex.EncodeToString(h.Sum(nil))
}

func TestEngineGoldenDigests(t *testing.T) {
	check := func(t *testing.T, a *Accelerator, c goldenCase, key, config string) {
		t.Helper()
		if got := goldenDigest(t, a, c); got != goldenDigests[key] {
			t.Errorf("%s %s: digest %s, golden %s", key, config, got, goldenDigests[key])
		}
	}
	cases := goldenCases()
	for _, c := range cases {
		for _, noise := range []bool{false, true} {
			key := c.name + "/clean"
			if noise {
				key = c.name + "/noise"
			}
			for _, workers := range []int{1, 4} {
				a := newEngineAccel(t, 32, 8)
				a.SetWorkers(workers)
				if noise {
					a.EnableNoise(7)
				}
				check(t, a, c, key, fmt.Sprintf("workers=%d", workers))
			}
		}
	}

	// A serial run with a drifting injector on every partition: each item
	// steps the drift and runs the faulted plan.
	a := newEngineAccel(t, 32, 8)
	a.SetWorkers(1)
	for p := 0; p < a.NumPartitions(); p++ {
		if err := a.InjectFaults(p, photonic.FaultConfig{DriftSigma: 0.01, Seed: int64(70 + p)}); err != nil {
			t.Fatal(err)
		}
	}
	check(t, a, cases[1], cases[1].name+"/drift", "workers=1 under drift")
}
