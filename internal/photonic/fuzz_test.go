package photonic

import (
	"math"
	"math/rand"
	"testing"

	"flumen/internal/mat"
)

// Fuzz targets: seedable entry points exercising the decomposition and
// routing invariants on arbitrary inputs. They run their seed corpus under
// plain `go test` and support `go test -fuzz` for extended exploration.

func FuzzClementsReconstruction(f *testing.F) {
	for _, seed := range []int64{1, 42, 1234, -7} {
		f.Add(seed, uint8(8))
	}
	f.Fuzz(func(t *testing.T, seed int64, nRaw uint8) {
		n := 2 + int(nRaw)%11
		rng := rand.New(rand.NewSource(seed))
		u := mat.RandomUnitary(n, rng)
		m := NewMesh(n)
		m.ProgramUnitary(u)
		if d := mat.MaxAbsDiff(m.Matrix(), u); d > 1e-8 {
			t.Fatalf("n=%d seed=%d: reconstruction error %g", n, seed, d)
		}
	})
}

func FuzzPartitionProgram(f *testing.F) {
	for _, seed := range []int64{3, 99, -12} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		sizes := []int{2, 4, 6, 8}
		size := sizes[rng.Intn(len(sizes))]
		loMax := (16 - size) / 2
		lo := 2 * rng.Intn(loMax+1)
		fm := NewFlumenMesh(16)
		p, err := fm.NewPartition(lo, size)
		if err != nil {
			t.Fatalf("partition (%d,%d): %v", lo, size, err)
		}
		a := mat.RandomDense(size, size, rng)
		if err := p.ProgramScaled(a); err != nil {
			t.Fatalf("program: %v", err)
		}
		got := mat.Scale(complex(p.Scale, 0), p.Matrix())
		if p.Scale == 0 {
			return
		}
		if d := mat.MaxAbsDiff(got, a); d > 1e-7*math.Max(1, p.Scale) {
			t.Fatalf("partition (%d,%d) seed=%d: error %g", lo, size, seed, d)
		}
	})
}

func FuzzRoutePermutation(f *testing.F) {
	for _, seed := range []int64{5, 17, -3} {
		f.Add(seed, uint8(16))
	}
	f.Fuzz(func(t *testing.T, seed int64, nRaw uint8) {
		n := 2 * (1 + int(nRaw)%12)
		rng := rand.New(rand.NewSource(seed))
		m := NewMesh(n)
		perm := rng.Perm(n)
		m.RoutePermutation(perm)
		for src := 0; src < n; src++ {
			in := make([]complex128, n)
			in[src] = 1
			out := forward(m.CompilePlan(), in)
			if math.Abs(cAbs2(out[perm[src]])-1) > 1e-9 {
				t.Fatalf("n=%d seed=%d: src %d power %g at dest", n, seed, src, cAbs2(out[perm[src]]))
			}
		}
	})
}

// fuzzBlock decodes fuzz bytes into a square block: size 2–12, real or
// complex, every part m·2^e with e spread around a base exponent that
// ranges over the whole float64 band (so blocks land inside the safe band,
// beyond either end of it, and across its edges). Exhausted input reads as
// zeros, so short inputs give sparse and rank-deficient blocks.
func fuzzBlock(data []byte) *mat.Dense {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return b
	}
	n := 2 + int(next())%11
	complexValued := next()&1 != 0
	base := int(int8(next())) * 8 // −1024 … 1016
	spread := int(next()) % 64
	part := func() float64 {
		m := float64(int8(next())) / 16
		e := min(base+int(next())%(spread+1), 1000) // keeps the block's norm finite
		return math.Ldexp(m, e)
	}
	m := mat.New(n, n)
	for r := 0; r < n; r++ {
		for c := 0; c < n; c++ {
			re, im := part(), 0.0
			if complexValued {
				im = part()
			}
			m.Set(r, c, complex(re, im))
		}
	}
	return m
}

// FuzzCompileBlockRoundTrip is the SVD round trip of the block compiler:
// whatever finite block the bytes decode to must compile, the compiled
// lattice times Scale must give the block back, and the program's plan must
// propagate exactly as the oracle walks its slots.
func FuzzCompileBlockRoundTrip(f *testing.F) {
	// The corpus proper is in testdata/fuzz/FuzzCompileBlockRoundTrip.
	f.Add([]byte{6, 0, 0, 3, 16, 0, 240, 1, 8, 2, 100, 3, 77, 0, 5, 1, 200, 2, 31, 3})
	f.Add([]byte{2, 0, 125, 10, 127, 3, 1, 9, 255, 0, 64, 5}) // 2^1000: squares overflow
	f.Fuzz(func(t *testing.T, data []byte) {
		m := fuzzBlock(data)
		bp, err := CompileBlockScaled(m)
		if err != nil {
			t.Fatalf("finite %d×%d block (peak %g) did not compile: %v", m.Rows(), m.Rows(), m.MaxAbsPart(), err)
		}
		if peak := m.MaxAbsPart(); (bp.Scale == 0) != (peak == 0) {
			t.Fatalf("Scale %g for a block with peak entry %g", bp.Scale, peak)
		}
		// Below 1e-290 the products Scale·Matrix() are subnormal and carry
		// too few bits to compare at a relative tolerance.
		if bp.Scale > 1e-290 {
			got := mat.Scale(complex(bp.Scale, 0), bp.Matrix())
			if d := mat.MaxAbsDiff(got, m); !(d <= 1e-7*bp.Scale) {
				t.Fatalf("%d×%d block, Scale %g: Scale·Matrix() is off by %g", m.Rows(), m.Rows(), bp.Scale, d)
			}
		}
		n := bp.Size
		in := make([]complex128, n)
		for i := range in {
			in[i] = complex(float64(i+1)/float64(n), float64(len(data)%7)-3)
		}
		if !bitsEqualVec(forward(&bp.plan, in), oracleProgram(bp, in)) {
			t.Fatalf("%d×%d block: plan output differs from the oracle", n, n)
		}
	})
}
