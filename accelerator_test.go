package flumen

import (
	"context"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// Ports returns the fabric port count.
func (a *Accelerator) Ports() int { return a.ports }

func randomMatrix(r, c int, rng *rand.Rand) [][]float64 {
	m := make([][]float64, r)
	for i := range m {
		m[i] = make([]float64, c)
		for j := range m[i] {
			m[i][j] = 2*rng.Float64() - 1
		}
	}
	return m
}

func matVecRef(m [][]float64, x []float64) []float64 {
	out := make([]float64, len(m))
	for i, row := range m {
		var s float64
		for j, v := range row {
			s += v * x[j]
		}
		out[i] = s
	}
	return out
}

func maxRange(m [][]float64) float64 {
	var r float64
	for _, row := range m {
		for _, v := range row {
			if a := math.Abs(v); a > r {
				r = a
			}
		}
	}
	return r
}

func TestNewAcceleratorValidation(t *testing.T) {
	if _, err := NewAccelerator(6, 4); err == nil {
		t.Fatal("non-multiple-of-4 ports accepted")
	}
	if _, err := NewAccelerator(16, 10); err == nil {
		t.Fatal("oversized block accepted")
	}
	a, err := NewAccelerator(16, 8)
	if err != nil {
		t.Fatal(err)
	}
	if a.Ports() != 16 || a.BlockSize() != 8 || a.Precision() != 8 {
		t.Fatalf("accelerator geometry wrong: %d ports, block %d, %d bits", a.Ports(), a.BlockSize(), a.Precision())
	}
}

func TestAcceleratorMatVec8Bit(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a, err := NewAccelerator(16, 8)
	if err != nil {
		t.Fatal(err)
	}
	m := randomMatrix(12, 20, rng)
	x := make([]float64, 20)
	for i := range x {
		x[i] = 2*rng.Float64() - 1
	}
	got, err := a.MatVec(m, x)
	if err != nil {
		t.Fatal(err)
	}
	want := matVecRef(m, x)
	// 8-bit quantization over 3 block columns: relative error bounded by a
	// few LSB per block accumulation.
	scale := 0.0
	for _, w := range want {
		if math.Abs(w) > scale {
			scale = math.Abs(w)
		}
	}
	for i := range got {
		if math.Abs(got[i]-want[i]) > 0.05*scale+0.05 {
			t.Fatalf("MatVec[%d] = %g, want %g (8-bit tolerance exceeded)", i, got[i], want[i])
		}
	}
}

func TestAcceleratorHighPrecisionConverges(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a, err := NewAccelerator(8, 4)
	if err != nil {
		t.Fatal(err)
	}
	a.SetPrecision(16)
	m := randomMatrix(4, 4, rng)
	x := []float64{0.3, -0.7, 0.2, 0.9}
	got, err := a.MatVec(m, x)
	if err != nil {
		t.Fatal(err)
	}
	want := matVecRef(m, x)
	for i := range got {
		if math.Abs(got[i]-want[i]) > 1e-3 {
			t.Fatalf("16-bit MatVec[%d] = %g, want %g", i, got[i], want[i])
		}
	}
}

func TestAcceleratorErrorShrinksWithPrecision(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := randomMatrix(8, 8, rng)
	x := make([]float64, 8)
	for i := range x {
		x[i] = 2*rng.Float64() - 1
	}
	want := matVecRef(m, x)
	errAt := func(bits int) float64 {
		a, err := NewAccelerator(16, 8)
		if err != nil {
			t.Fatal(err)
		}
		a.SetPrecision(bits)
		got, err := a.MatVec(m, x)
		if err != nil {
			t.Fatal(err)
		}
		var worst float64
		for i := range got {
			if d := math.Abs(got[i] - want[i]); d > worst {
				worst = d
			}
		}
		return worst
	}
	e4 := errAt(4)
	e8 := errAt(8)
	e12 := errAt(12)
	if !(e12 < e8 && e8 < e4) {
		t.Fatalf("error not monotone in precision: e4=%g e8=%g e12=%g", e4, e8, e12)
	}
}

func TestAcceleratorMatMulMatchesMatVec(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	a, err := NewAccelerator(16, 8)
	if err != nil {
		t.Fatal(err)
	}
	m := randomMatrix(8, 8, rng)
	x := randomMatrix(8, 3, rng)
	got, err := a.MatMul(m, x)
	if err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 3; j++ {
		col := make([]float64, 8)
		for i := range col {
			col[i] = x[i][j]
		}
		b, err := NewAccelerator(16, 8)
		if err != nil {
			t.Fatal(err)
		}
		want, err := b.MatVec(m, col)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if math.Abs(got[i][j]-want[i]) > 1e-9 {
				t.Fatalf("MatMul col %d row %d: %g vs MatVec %g", j, i, got[i][j], want[i])
			}
		}
	}
}

func TestAcceleratorDimensionChecks(t *testing.T) {
	a, err := NewAccelerator(8, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := a.MatVec([][]float64{{1, 2}}, []float64{1}); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
	if _, err := a.MatMul([][]float64{{1}}, [][]float64{{1}, {2}}); err == nil {
		t.Fatal("MatMul mismatch accepted")
	}
}

func TestAcceleratorEnergyAccumulates(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a, err := NewAccelerator(16, 8)
	if err != nil {
		t.Fatal(err)
	}
	m := randomMatrix(16, 16, rng)
	x := make([]float64, 16)
	for i := range x {
		x[i] = rng.Float64()
	}
	if _, err := a.MatVec(m, x); err != nil {
		t.Fatal(err)
	}
	if a.EnergyPJ() <= 0 {
		t.Fatal("no energy recorded")
	}
	aStats := a.Stats()
	programs, batches := aStats.Programs, aStats.Batches
	// 16×16 in 8-blocks: 2×2 grid = 4 programs, 4 single-vector batches.
	if programs != 4 || batches != 4 {
		t.Fatalf("programs=%d batches=%d, want 4/4", programs, batches)
	}
}

func TestPropertyAcceleratorAccuracy(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		rows := 1 + rng.Intn(10)
		cols := 1 + rng.Intn(10)
		a, err := NewAccelerator(16, 8)
		if err != nil {
			return false
		}
		m := randomMatrix(rows, cols, rng)
		x := make([]float64, cols)
		for i := range x {
			x[i] = 2*rng.Float64() - 1
		}
		got, err := a.MatVec(m, x)
		if err != nil {
			return false
		}
		want := matVecRef(m, x)
		bound := 0.02*maxRange(m)*float64(cols) + 0.05
		for i := range got {
			if math.Abs(got[i]-want[i]) > bound {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestAcceleratorNoiseAddsBoundedError(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	m := randomMatrix(8, 8, rng)
	x := make([]float64, 8)
	for i := range x {
		x[i] = 2*rng.Float64() - 1
	}
	clean, err := NewAccelerator(16, 8)
	if err != nil {
		t.Fatal(err)
	}
	clean.SetPrecision(16)
	ref, err := clean.MatVec(m, x)
	if err != nil {
		t.Fatal(err)
	}
	noisy, err := NewAccelerator(16, 8)
	if err != nil {
		t.Fatal(err)
	}
	noisy.SetPrecision(16)
	noisy.EnableNoise(1)
	got, err := noisy.MatVec(m, x)
	if err != nil {
		t.Fatal(err)
	}
	var worst float64
	for i := range got {
		if d := math.Abs(got[i] - ref[i]); d > worst {
			worst = d
		}
	}
	if worst == 0 {
		t.Fatal("noise model injected nothing")
	}
	if worst > 0.2 {
		t.Fatalf("detection noise error %g implausibly large", worst)
	}
	// Determinism: same seed reproduces the run.
	noisy2, err := NewAccelerator(16, 8)
	if err != nil {
		t.Fatal(err)
	}
	noisy2.SetPrecision(16)
	noisy2.EnableNoise(1)
	got2, err := noisy2.MatVec(m, x)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != got2[i] {
			t.Fatal("seeded noise not reproducible")
		}
	}
	// DisableNoise restores the deterministic path.
	noisy.DisableNoise()
	clean2, err := noisy.MatVec(m, x)
	if err != nil {
		t.Fatal(err)
	}
	for i := range clean2 {
		if math.Abs(clean2[i]-ref[i]) > 1e-12 {
			t.Fatal("DisableNoise did not restore determinism")
		}
	}
}

func TestAcceleratorConv2D(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	// 2-channel 6×6 input, three 3×3×2 kernels, stride 1, pad 1.
	input := make([][][]float64, 2)
	for c := range input {
		input[c] = make([][]float64, 6)
		for y := range input[c] {
			input[c][y] = make([]float64, 6)
			for x := range input[c][y] {
				input[c][y][x] = 2*rng.Float64() - 1
			}
		}
	}
	kernels := make([][][][]float64, 3)
	for k := range kernels {
		kernels[k] = make([][][]float64, 2)
		for c := range kernels[k] {
			kernels[k][c] = make([][]float64, 3)
			for ky := range kernels[k][c] {
				kernels[k][c][ky] = make([]float64, 3)
				for kx := range kernels[k][c][ky] {
					kernels[k][c][ky][kx] = (2*rng.Float64() - 1) / 4
				}
			}
		}
	}
	acc, err := NewAccelerator(16, 8)
	if err != nil {
		t.Fatal(err)
	}
	out, err := acc.Conv2D(input, kernels, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 3 || len(out[0]) != 6 || len(out[0][0]) != 6 {
		t.Fatalf("output shape %d×%d×%d", len(out), len(out[0]), len(out[0][0]))
	}
	// Direct reference at a few positions.
	ref := func(k, oy, ox int) float64 {
		var acc float64
		for c := 0; c < 2; c++ {
			for ky := 0; ky < 3; ky++ {
				for kx := 0; kx < 3; kx++ {
					y, x := oy+ky-1, ox+kx-1
					if y < 0 || y >= 6 || x < 0 || x >= 6 {
						continue
					}
					acc += kernels[k][c][ky][kx] * input[c][y][x]
				}
			}
		}
		return acc
	}
	for _, pos := range [][3]int{{0, 0, 0}, {1, 3, 2}, {2, 5, 5}} {
		k, y, x := pos[0], pos[1], pos[2]
		if math.Abs(out[k][y][x]-ref(k, y, x)) > 0.08 {
			t.Fatalf("Conv2D[%d][%d][%d] = %g, want %g", k, y, x, out[k][y][x], ref(k, y, x))
		}
	}
}

func TestAcceleratorConv2DValidation(t *testing.T) {
	acc, err := NewAccelerator(8, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := acc.Conv2D(nil, nil, 1, 0); err == nil {
		t.Fatal("empty input accepted")
	}
	input := [][][]float64{{{1, 2}, {3, 4}}}
	badKernels := [][][][]float64{{{{1}}, {{1}}}} // 2 channels vs 1
	if _, err := acc.Conv2D(input, badKernels, 1, 0); err == nil {
		t.Fatal("channel mismatch accepted")
	}
}

// TestComputeEntryPointsRejectBadShapes feeds every public compute entry
// point shapes that used to panic (ragged rows, nil kernels, a non-positive
// stride) or be silently zero-filled (a short input row), and requires an
// error with the energy meter untouched.
func TestComputeEntryPointsRejectBadShapes(t *testing.T) {
	ctx := context.Background()
	sq := [][]float64{{1, 2}, {3, 4}}
	ragged := [][]float64{{1, 2}, {3}}
	input := [][][]float64{{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}}}
	kernels := [][][][]float64{{{{1, 0}, {0, 1}}}, {{{0, 1}, {1, 0}}}}
	matMul := func(m, x [][]float64) func(*Accelerator) error {
		return func(a *Accelerator) error { _, err := a.MatMulCtx(ctx, m, x); return err }
	}
	matVec := func(m [][]float64, x []float64) func(*Accelerator) error {
		return func(a *Accelerator) error { _, err := a.MatVecCtx(ctx, m, x); return err }
	}
	conv := func(in [][][]float64, ks [][][][]float64, stride, pad int) func(*Accelerator) error {
		return func(a *Accelerator) error { _, err := a.Conv2DCtx(ctx, in, ks, stride, pad); return err }
	}
	for _, tc := range []struct {
		name string
		call func(*Accelerator) error
	}{
		{"MatMul ragged M", matMul(ragged, sq)},
		{"MatMul ragged X", matMul(sq, ragged)},
		{"MatMul X with empty rows", matMul(sq, [][]float64{{}, {}})},
		{"MatVec ragged M", matVec(ragged, []float64{1, 2})},
		{"MatVec empty row and vector", matVec([][]float64{{}}, nil)},
		{"Conv2D nil kernels", conv(input, nil, 1, 0)},
		{"Conv2D short input row", conv([][][]float64{{{1, 2, 3}, {4, 5}, {7, 8, 9}}}, kernels, 1, 0)},
		{"Conv2D input channels differ", conv([][][]float64{input[0], input[0][:2]}, [][][][]float64{{kernels[0][0], kernels[0][0]}}, 1, 0)},
		{"Conv2D ragged kernel", conv(input, [][][][]float64{kernels[0], {{{0, 1}, {1}}}}, 1, 0)},
		{"Conv2D later kernel lacks a channel", conv(input, [][][][]float64{kernels[0], {}}, 1, 0)},
		{"Conv2D kernels differ in size", conv(input, [][][][]float64{kernels[0], {{{1, 2, 3}, {4, 5, 6}, {7, 8, 9}}}}, 1, 0)},
		{"Conv2D stride 0", conv(input, kernels, 0, 0)},
		{"Conv2D negative stride", conv(input, kernels, -1, 0)},
		{"Conv2D negative pad", conv(input, kernels, 1, -1)},
		{"Conv2D kernel larger than input", conv([][][]float64{{{1}}}, kernels, 1, 0)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, err := NewAccelerator(8, 4)
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("panicked: %v", p)
				}
			}()
			if err := tc.call(a); err == nil {
				t.Fatal("bad shape accepted")
			}
			if st := a.Stats(); st.EnergyPJ != 0 || st.Programs != 0 || st.Batches != 0 {
				t.Fatalf("rejected call touched the meter: %g pJ, %d programs, %d batches", st.EnergyPJ, st.Programs, st.Batches)
			}
		})
	}
}

// TestMatMulExtremeWeightMagnitudes covers weights whose squares leave the
// float64 range. The spectral norm of such a block used to come out +Inf or
// 0, the block compiled to the zero map, and the product was answered with
// zeros and no error; NaN and ±Inf weights went the same way.
func TestMatMulExtremeWeightMagnitudes(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	logUniform := func(lo, hi float64) float64 {
		v := math.Pow(10, lo+(hi-lo)*rng.Float64())
		if rng.Intn(2) == 0 {
			v = -v
		}
		return v
	}
	fill := func(rows, cols int, lo, hi float64) [][]float64 {
		m := make([][]float64, rows)
		for i := range m {
			m[i] = make([]float64, cols)
			for j := range m[i] {
				m[i][j] = logUniform(lo, hi)
			}
		}
		return m
	}
	huge := fill(8, 8, 155, 300)
	huge[3][5] = 1e308
	tiny := fill(8, 8, -300, -162)
	tiny[2][2] = 5e-324 // subnormal
	// Two block columns: one overflowing block beside one underflowing block,
	// over a row of ordinary ones.
	mixed := fill(16, 16, -1, 1)
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			mixed[i][j] = huge[i][j] * 1e-100
			mixed[i][8+j] = tiny[i][j]
		}
	}
	for _, tc := range []struct {
		name string
		m    [][]float64
	}{{"huge", huge}, {"tiny", tiny}, {"mixed", mixed}, {"1e200", fill(8, 8, 200, 200)}} {
		t.Run(tc.name, func(t *testing.T) {
			a, err := NewAccelerator(16, 8)
			if err != nil {
				t.Fatal(err)
			}
			a.SetPrecision(16)
			x := fill(len(tc.m[0]), 3, -3, 0)
			got, err := a.MatMul(tc.m, x)
			if err != nil {
				t.Fatal(err)
			}
			for i, row := range tc.m {
				// Each row is judged at its own scale: blocks of one product
				// differ by hundreds of orders of magnitude.
				for c := range x[0] {
					var want float64
					for k, w := range row {
						want += w * x[k][c]
					}
					if tol := 0.05 * rowBlockScale(tc.m, x, i, c); !(math.Abs(got[i][c]-want) <= tol) {
						t.Fatalf("C[%d][%d] = %g, digital product %g (tolerance %g)", i, c, got[i][c], want, tol)
					}
				}
			}
		})
	}

	a, err := NewAccelerator(16, 8)
	if err != nil {
		t.Fatal(err)
	}
	x := fill(8, 2, -1, 0)
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		m := fill(8, 8, -1, 1)
		m[4][1] = bad
		if _, err := a.MatMul(m, x); err == nil {
			t.Fatalf("MatMul accepted a weight of %v", bad)
		}
		if _, err := a.PrewarmWeights(m); err == nil {
			t.Fatalf("PrewarmWeights accepted a weight of %v", bad)
		}
		if _, err := a.Conv2D([][][]float64{fill(4, 4, -1, 0)}, [][][][]float64{{{{1, bad}, {0, 1}}}}, 1, 0); err == nil {
			t.Fatalf("Conv2D accepted a kernel weight of %v", bad)
		}
	}
}

// rowBlockScale is the magnitude against which output (i, c) of m·x is
// judged: each 8-wide block of row i contributes an error proportional to
// its own spectral scale, taken here as the block's largest |entry| times
// the largest |x| it meets.
func rowBlockScale(m, x [][]float64, i, c int) float64 {
	var total float64
	for b := 0; b < len(m[i]); b += 8 {
		var wmax, xmax float64
		for r := i - i%8; r < i-i%8+8 && r < len(m); r++ {
			for k := b; k < b+8 && k < len(m[r]); k++ {
				wmax = math.Max(wmax, math.Abs(m[r][k]))
			}
		}
		for k := b; k < b+8 && k < len(x); k++ {
			xmax = math.Max(xmax, math.Abs(x[k][c]))
		}
		total += wmax * xmax
	}
	return total
}

// Precision returns the converter bit depth.
func (a *Accelerator) Precision() int {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return a.quant.Bits
}

// BlockSize returns the compute partition size.
func (a *Accelerator) BlockSize() int { return a.blockSize }
