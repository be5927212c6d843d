package flumen

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"time"

	"flumen/internal/mat"
	"flumen/internal/optics"
	"flumen/internal/photonic"
	"flumen/internal/trace"
)

// Engine-level tests of the transfer matrices every work item multiplies
// by: the product agrees with propagating through the plan, and the ADC
// masks the difference bit for bit; non-finite right-hand sides stay in
// their own column, serial ≡ parallel, and plan accounting follows the
// weight-program cache. The plans' bit-for-bit equivalence with the
// device-by-device oracle, and the transfer matrix's with the plan's
// Matrix, are pinned in internal/photonic.

func matsBitsEqual(t *testing.T, a, b [][]float64, label string) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: row count %d vs %d", label, len(a), len(b))
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			t.Fatalf("%s: row %d length %d vs %d", label, i, len(a[i]), len(b[i]))
		}
		for j := range a[i] {
			if math.Float64bits(a[i][j]) != math.Float64bits(b[i][j]) {
				t.Fatalf("%s: (%d,%d) = %v vs %v (bits differ)", label, i, j, a[i][j], b[i][j])
			}
		}
	}
}

// TestCompiledKernelsNonFiniteInputs checks right-hand-side isolation end
// to end: NaN and ±Inf in some columns of X, plus an all-zero and an
// all-NaN column (both dark: they ride through the batch and are never
// detected), leave every other column — one of them holding a -0 — with
// exactly the bits a clean X gives it.
func TestCompiledKernelsNonFiniteInputs(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := randMatrix(rng, 16, 16)
	clean := randMatrix(rng, 16, 8)
	clean[2][2] = math.Copysign(0, -1)
	x := make([][]float64, len(clean))
	for i := range clean {
		x[i] = append([]float64(nil), clean[i]...)
		x[i][3] = 0          // column 3: dark
		x[i][4] = math.NaN() // column 4: all-NaN, maxAbs sees 0, also dark
	}
	x[3][0] = math.NaN()
	x[0][1] = math.Inf(1)
	x[9][1] = math.Inf(-1)

	var want, got [][]float64
	for _, run := range []struct {
		in  [][]float64
		out *[][]float64
	}{{clean, &want}, {x, &got}} {
		out, err := newEngineAccel(t, 32, 8).MatMul(m, run.in)
		if err != nil {
			t.Fatal(err)
		}
		*run.out = out
	}
	column := func(a [][]float64, j int) [][]float64 {
		col := make([][]float64, len(a))
		for i := range a {
			col[i] = []float64{a[i][j]}
		}
		return col
	}
	for _, j := range []int{2, 5, 6, 7} {
		matsBitsEqual(t, column(got, j), column(want, j), "clean column beside non-finite ones")
	}
	for i := range got {
		if got[i][3] != 0 || got[i][4] != 0 {
			t.Fatalf("row %d: dark columns read %v, %v; want 0", i, got[i][3], got[i][4])
		}
	}
}

func TestCompiledKernelsSerialParallelBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	a := newEngineAccel(t, 32, 8)
	m := randMatrix(rng, 24, 24)
	x := randMatrix(rng, 24, 16)
	a.SetWorkers(1)
	serial, err := a.MatMul(m, x)
	if err != nil {
		t.Fatal(err)
	}
	a.SetWorkers(a.NumPartitions())
	parallel, err := a.MatMul(m, x)
	if err != nil {
		t.Fatal(err)
	}
	matsBitsEqual(t, serial, parallel, "serial vs parallel")
}

// TestKernelStatsPlanReuseAndEviction: a plan is compiled with its program
// and evicted with it, so Stats().Kernel is the cache's accounting — a cold
// call compiles one plan per block, a warm call reuses them all, and
// nothing ever falls back.
func TestKernelStatsPlanReuseAndEviction(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	a := newEngineAccel(t, 32, 8)
	m := randMatrix(rng, 16, 16)
	x := randMatrix(rng, 16, 4)
	if _, err := a.MatMul(m, x); err != nil {
		t.Fatal(err)
	}
	first := a.Stats()
	if first.Kernel.PlanCompiles != 4 || first.Kernel.PlanCompiles != first.Cache.Misses {
		t.Fatalf("cold 16×16 call: %+v, cache %+v; want 4 plan compiles, one per cache miss", first.Kernel, first.Cache)
	}
	if _, err := a.MatMul(m, x); err != nil {
		t.Fatal(err)
	}
	second := a.Stats()
	if second.Kernel.PlanCompiles != first.Kernel.PlanCompiles {
		t.Fatalf("warm weights recompiled plans: %d → %d", first.Kernel.PlanCompiles, second.Kernel.PlanCompiles)
	}
	if second.Kernel.PlanReuses != first.Kernel.PlanReuses+4 || second.Kernel.PlanReuses != second.Cache.Hits {
		t.Fatalf("warm call: %+v, cache %+v; want 4 more plan reuses, one per cache hit", second.Kernel, second.Cache)
	}
	if second.Kernel.Fallbacks != 0 {
		t.Fatalf("Fallbacks = %d, want 0", second.Kernel.Fallbacks)
	}

	// A capacity-1 cache thrashes: each distinct block evicts the previous
	// program together with its plan.
	a.SetProgramCacheSize(1)
	if _, err := a.MatMul(m, x); err != nil {
		t.Fatal(err)
	}
	if st := a.Stats(); st.Cache.Evictions == 0 || st.Kernel.PlanCompiles != st.Cache.Misses {
		t.Fatalf("thrashing cache: %+v, kernel %+v", st.Cache, st.Kernel)
	}
}

// transferCase is one compiled block and k right-hand sides through the
// call's DAC: the real slab the engine multiplies, and the same slab as
// the complex field ForwardBatch propagates.
type transferCase struct {
	bp     *photonic.BlockProgram
	xs     []float64
	states []complex128
	scales []float64
}

func newTransferCase(t *testing.T, rng *rand.Rand, n, k int, dac optics.Quantizer) transferCase {
	t.Helper()
	bp, err := photonic.CompileBlockScaled(mat.RandomReal(n, n, rng))
	if err != nil {
		t.Fatal(err)
	}
	x := make([][]float64, n)
	for i := range x {
		x[i] = make([]float64, k)
		for v := range x[i] {
			x[i][v] = rng.NormFloat64() * math.Ldexp(1, rng.Intn(9)-4)
		}
	}
	in := (&Accelerator{blockSize: n}).modulate(x, 1, dac)
	tc := transferCase{bp: bp, xs: in.states, states: make([]complex128, n*k), scales: in.scales}
	for i, x := range in.states {
		tc.states[i] = complex(x, 0)
	}
	return tc
}

// fields returns the real part of every vector's pre-ADC field two ways:
// the engine's product with the program's transfer matrix, and the plan's
// propagation.
func (tc transferCase) fields() (product, propagated []float64) {
	n := tc.bp.Size
	product = make([]float64, len(tc.xs))
	propagate(product, tc.bp.Transfer(), tc.xs, n)
	states := append([]complex128(nil), tc.states...)
	plan, _ := tc.bp.Plan()
	plan.ForwardBatch(states, len(tc.scales))
	propagated = make([]float64, len(states))
	for i, z := range states {
		propagated[i] = real(z)
	}
	return product, propagated
}

// TestTransferProductMatchesPlan is the seeded property behind every work
// item: for sizes 2–16 and DAC/ADC depths of 4, 8, 12 and 24 bits, the
// real field Re(T)·x of a real DAC slab lies within 1e-12, relative to the
// real field's norm, of the real part of the field ForwardBatch propagates
// through the same program.
func TestTransferProductMatchesPlan(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	for _, bits := range []int{4, 8, 12, 24} {
		for n := 2; n <= 16; n++ {
			tc := newTransferCase(t, rng, n, 40, optics.NewQuantizer(bits, 1))
			product, propagated := tc.fields()
			for v := range tc.scales {
				y, z := product[v*n:(v+1)*n], propagated[v*n:(v+1)*n]
				var diff, norm float64
				for i := range z {
					diff = max(diff, math.Abs(y[i]-z[i]))
					norm += z[i] * z[i]
				}
				if diff > 1e-12*math.Sqrt(norm) {
					t.Fatalf("%d bits, n=%d, vector %d: |Re(T)·x − plan| = %g against a field of norm %g", bits, n, v, diff, math.Sqrt(norm))
				}
			}
		}
	}
}

// TestTransferProductDetectsLikePlan states the masking argument as a
// test: the product and the plan differ only in float64 rounding, far
// below one step of the served 8-bit ADC, so over 10⁵ seeded vectors —
// sizes 2–16, with and without detection noise — every detected output
// agrees bit for bit.
func TestTransferProductDetectsLikePlan(t *testing.T) {
	const k = 1700
	rng := rand.New(rand.NewSource(137))
	vectors := 0
	for n := 2; n <= 16; n++ {
		adc := optics.NewQuantizer(8, math.Sqrt(float64(n)))
		for block := 0; block < 4; block++ {
			tc := newTransferCase(t, rng, n, k, optics.NewQuantizer(8, 1))
			product, propagated := tc.fields()
			got, want := make([]float64, n*k), make([]float64, n*k)
			for _, run := range []struct {
				rows   []float64
				fields []float64
			}{{got, product}, {want, propagated}} {
				var noise *optics.NoiseModel
				if block%2 == 1 {
					nm := optics.DefaultNoise(1, rand.New(rand.NewSource(int64(n*4+block))))
					noise = &nm
				}
				detect(run.rows, run.fields, tc.scales, tc.bp.Scale, noise, adc)
			}
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("n=%d block %d: output %d detects %v from Re(T)·x, %v from the plan", n, block, i, got[i], want[i])
				}
			}
			vectors += k
		}
	}
	if vectors < 100000 {
		t.Fatalf("only %d vectors checked", vectors)
	}
}

// complexPropagate and complexDetect are the receive chain the engine ran
// before it went real: the whole complex field T·x, then the complex
// arithmetic of scale, noise, ADC and rescale, of which the output kept the
// real part. They are the oracle the real chain is held to.
func complexPropagate(fields, t []complex128, xs []float64, n int) {
	for off := 0; off < len(xs); off += n {
		x, y := xs[off:off+n], fields[off:off+n]
		x0 := x[0]
		for i, c := range t[:n] {
			y[i] = complex(real(c)*x0, imag(c)*x0)
		}
		for j := 1; j < n; j++ {
			xj := x[j]
			for i, c := range t[j*n : (j+1)*n] {
				y[i] += complex(real(c)*xj, imag(c)*xj)
			}
		}
	}
}

// complexDetect divides by the real block scale as the runtime's complex
// division by a real divisor written out, falling back to it only when
// both parts of the quotient are NaN, and quantizes each part of every
// field on its own.
func complexDetect(rows []float64, fields []complex128, scales []float64, blockScale float64, noise *optics.NoiseModel, adc optics.Quantizer) {
	n, nrhs := len(fields)/len(scales), len(scales)
	scaleC := complex(blockScale, 0)
	ratio := 0 / blockScale
	re, im := make([]float64, n), make([]float64, n)
	for v, scale := range scales {
		if scale == 0 {
			continue
		}
		det := fields[v*n:][:n]
		for i, d := range det {
			if blockScale != 1 {
				d *= scaleC
			}
			if noise != nil {
				d = complex(noise.Apply(real(d)), noise.Apply(imag(d)))
			}
			if blockScale != 0 {
				re, im := real(d), imag(d)
				q := complex((re+im*ratio)/blockScale, (im-re*ratio)/blockScale)
				if math.IsNaN(real(q)) && math.IsNaN(imag(q)) {
					q = d / scaleC
				}
				d = q
			}
			det[i] = d
		}
		if blockScale != 0 {
			for i, d := range det {
				re[i], im[i] = real(d), imag(d)
			}
			adc.QuantizeVec(re)
			adc.QuantizeVec(im)
			for i := range det {
				det[i] = complex(re[i], im[i])
			}
		}
		for i, d := range det {
			if blockScale != 0 {
				d *= scaleC
			}
			rows[i*nrhs+v] += real(d)*scale - imag(d)*0
		}
	}
}

// oracleBlock compiles the n×n block of the given kind: "unit" through
// CompileBlock (scale 1), "scaled" through CompileBlockScaled, "exponent"
// from entries far outside the band that CompileBlockScaled brings to unit
// magnitude by a power of two, "zero" the all-zero block (scale 0), and
// "edge" a block whose spectral norm lies just below MaxFloat64, so that a
// field times the block scale can leave the float64 range.
func oracleBlock(t *testing.T, rng *rand.Rand, n int, kind string) *photonic.BlockProgram {
	t.Helper()
	m := mat.RandomReal(n, n, rng)
	var bp *photonic.BlockProgram
	var err error
	switch kind {
	case "unit":
		// ‖m‖₂ ≤ n·max|m_ij|, so the scaled block's singular values are ≤ 1.
		bp, err = photonic.CompileBlock(mat.Scale(complex(1/(float64(n)*m.MaxAbsPart()), 0), m))
	case "scaled":
		bp, err = photonic.CompileBlockScaled(m)
	case "exponent":
		bp, err = photonic.CompileBlockScaled(mat.Scale(complex(math.Ldexp(1, 450*(2*rng.Intn(2)-1)), 0), m))
	case "zero":
		bp, err = photonic.CompileBlockScaled(mat.New(n, n))
	case "edge":
		if bp, err = photonic.CompileBlockScaled(m); err == nil {
			bp, err = photonic.CompileBlockScaled(mat.Scale(complex(math.MaxFloat64/bp.Scale/1.0001, 0), m))
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	return bp
}

// oracleInputs draws an n×k right-hand side whose columns hold finite
// values over 2^±60, and, column by column, NaN, ±Inf, −0, all-zero (dark)
// and all-NaN vectors.
func oracleInputs(rng *rand.Rand, n, k int) [][]float64 {
	x := make([][]float64, n)
	for i := range x {
		x[i] = make([]float64, k)
	}
	for v := 0; v < k; v++ {
		mag := math.Ldexp(1, rng.Intn(121)-60)
		for i := range x {
			x[i][v] = rng.NormFloat64() * mag
		}
		switch v % 8 {
		case 1:
			x[rng.Intn(n)][v] = math.NaN()
		case 2:
			x[rng.Intn(n)][v] = math.Inf(1 - 2*rng.Intn(2))
		case 3:
			for i := range x {
				if rng.Intn(2) == 0 {
					x[i][v] = math.Copysign(0, -1)
				}
			}
		case 4:
			for i := range x {
				x[i][v] = 0
			}
		case 5:
			for i := range x {
				x[i][v] = math.NaN()
			}
		}
	}
	return x
}

// TestEngineReceiveChainMatchesComplexOracle holds the engine's real
// receive chain (propagate by Re T, then detect) to the complex chain it
// replaced, bit for bit in the fields before the ADC and in the outputs,
// over 10⁵ seeded vectors: sizes 2–16, detection noise on and off, block
// scales of 1, any, far from unit by a power of two and 0, right-hand sides
// holding NaN, ±Inf, −0 and dark vectors, and the faulted lattices a fault
// injector makes of each program. The chains part only where a field times
// the block scale overflows: there the complex chain read NaN and the real
// chain reads the overflow's ±Inf, and the "edge" blocks must show it.
func TestEngineReceiveChainMatchesComplexOracle(t *testing.T) {
	const k = 336
	rng := rand.New(rand.NewSource(149))
	dac := optics.NewQuantizer(8, 1)
	vectors, overflows := 0, 0
	for n := 2; n <= 16; n++ {
		adc := optics.NewQuantizer(8, math.Sqrt(float64(n)))
		for _, kind := range []string{"unit", "scaled", "exponent", "zero", "edge"} {
			bp := oracleBlock(t, rng, n, kind)
			fi := photonic.NewFaultInjector(n, photonic.FaultConfig{DriftSigma: 0.05, StuckFrac: 0.1, DeadFrac: 0.1, Seed: int64(n)})
			fi.Step(2)
			// Each lattice's complex matrix for the oracle, and the real part
			// the engine multiplies by: the program's own, or a faulted
			// item's taken from its measured matrix.
			faulted := fi.Corrupt(bp).TransferInto(make([]complex128, n*n))
			faultedRe := make([]float64, n*n)
			for i, c := range faulted {
				faultedRe[i] = real(c)
			}
			plan, _ := bp.Plan()
			for _, lattice := range []struct {
				name string
				t    []complex128
				re   []float64
			}{
				{"program", plan.TransferInto(make([]complex128, n*n)), bp.Transfer()},
				{"faulted", faulted, faultedRe},
			} {
				in := (&Accelerator{blockSize: n}).modulate(oracleInputs(rng, n, k), 1, dac)
				for _, noisy := range []bool{false, true} {
					noise := func() *optics.NoiseModel {
						if !noisy {
							return nil
						}
						nm := optics.DefaultNoise(1, rand.New(rand.NewSource(int64(n))))
						return &nm
					}
					fields, cfields := make([]float64, n*k), make([]complex128, n*k)
					propagate(fields, lattice.re, in.states, n)
					complexPropagate(cfields, lattice.t, in.states, n)
					for i, z := range cfields {
						if math.Float64bits(fields[i]) != math.Float64bits(real(z)) {
							t.Fatalf("n=%d %s %s: field %d is %v, the complex field's real part %v", n, kind, lattice.name, i, fields[i], real(z))
						}
					}
					got, want := make([]float64, n*k), make([]float64, n*k)
					detect(got, fields, in.scales, bp.Scale, noise(), adc)
					complexDetect(want, cfields, in.scales, bp.Scale, noise(), adc)
					for i := range want {
						if kind == "edge" && math.IsNaN(want[i]) && math.IsInf(got[i], 0) {
							overflows++
						} else if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
							t.Fatalf("n=%d %s %s noise=%v: output %d (vector %d) reads %v (%#x), the complex chain %v (%#x)",
								n, kind, lattice.name, noisy, i, i%k, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
						}
					}
					vectors += k
				}
			}
		}
	}
	if vectors < 100000 {
		t.Fatalf("only %d vectors checked", vectors)
	}
	if overflows == 0 {
		t.Fatal("no edge block overflowed: the overflow case went untested")
	}
}

// TestTracedCallOpensCompute: a traced 64×64·64 call books the DAC pass,
// the products and the detection chains as their own stages, each inside
// compute.
func TestTracedCallOpensCompute(t *testing.T) {
	rng := rand.New(rand.NewSource(139))
	a := newEngineAccel(t, 32, 8)
	m, x := randMatrix(rng, 64, 64), randMatrix(rng, 64, 64)
	tr := trace.New("opens-compute")
	if _, err := a.MatMulCtx(trace.NewContext(context.Background(), tr), m, x); err != nil {
		t.Fatal(err)
	}
	rec := tr.Record("matmul", 200)
	var sum time.Duration
	for _, s := range []trace.Stage{trace.StageDAC, trace.StagePropagate, trace.StageDetect} {
		if rec.Duration(s) <= 0 {
			t.Fatalf("stage %s = %v, want > 0", s, rec.Duration(s))
		}
		sum += rec.Duration(s)
	}
	if compute := rec.Duration(trace.StageCompute); sum > compute {
		t.Fatalf("dac + propagate + detect = %v exceeds compute %v", sum, compute)
	}
}
