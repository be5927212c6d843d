package flumen

// Integration tests: each benchmark's MZIM mapping (Sec 3.3 / Sec 4.2)
// executed end-to-end through the simulated photonic fabric at 8-bit
// equivalent precision, validated against the workload's digital reference
// mathematics.

import (
	"math"
	"testing"

	"flumen/internal/mat"
	"flumen/internal/workload"
)

func toFloatMatrix(d *mat.Dense) [][]float64 {
	out := make([][]float64, d.Rows())
	for i := range out {
		out[i] = make([]float64, d.Cols())
		for j := range out[i] {
			out[i][j] = real(d.At(i, j))
		}
	}
	return out
}

func TestIntegrationBlurThroughFabric(t *testing.T) {
	// The block-Toeplitz blur mapping through a real partition: one
	// output group per image position, all four column blocks programmed
	// photonically.
	b := workload.NewImageBlur(24, 24)
	img := b.RandomImage(21)
	ref := b.Reference(img)
	acc, err := NewAccelerator(16, 8)
	if err != nil {
		t.Fatal(err)
	}
	op := toFloatMatrix(b.ToeplitzOperator(8))
	for _, pos := range [][2]int{{0, 3}, {8, 10}, {16, 23}} {
		x0, y := pos[0], pos[1]
		win := b.ToeplitzWindow(img[2], y, x0, 8)
		winCol := make([][]float64, len(win))
		for i, v := range win {
			winCol[i] = []float64{v}
		}
		out, err := acc.MatMul(op, winCol)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 8 && x0+i < b.W; i++ {
			want := ref[2].At(x0+i, y, 0)
			if math.Abs(out[i][0]-want) > 0.05 {
				t.Fatalf("photonic blur at (%d,%d): %g vs %g", x0+i, y, out[i][0], want)
			}
		}
	}
}

func TestIntegrationVGGSliceThroughFabric(t *testing.T) {
	// A 16×32 slice of the FC layer (weights in the mesh, activations as
	// optical inputs), with bias added on the "core" side.
	v := workload.NewVGG16FCShape(16, 32)
	weights, bias, input := v.RandomLayer(22)
	ref := v.Reference(weights, bias, input)
	acc, err := NewAccelerator(16, 8)
	if err != nil {
		t.Fatal(err)
	}
	got, err := acc.MatVec(toFloatMatrix(weights), input)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		got[i] += bias[i]
	}
	// Range of outputs ~ ±sqrt(32); 8-bit over 4 column blocks.
	for i := range got {
		if math.Abs(got[i]-ref[i]) > 0.25 {
			t.Fatalf("photonic FC output %d: %g vs %g", i, got[i], ref[i])
		}
	}
}

func TestIntegrationJPEGDCTThroughFabric(t *testing.T) {
	// The 8×8 DCT is orthogonal: it maps onto the full 8-input unitary
	// MZIM with unit singular values (Sec 5.4.1). Verify C·X·Cᵀ done as
	// two photonic matmuls reproduces the digital 2D DCT.
	j := workload.NewJPEG(32, 32)
	plane := j.RandomPlane(23)
	c := workload.DCTMatrix(8)
	cF := toFloatMatrix(c)
	block := j.Block(plane, 1, 2)
	want := workload.DCT2D(c, block)

	acc, err := NewAccelerator(16, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Pass 1: Y = C·X.
	y, err := acc.MatMul(cF, toFloatMatrix(block))
	if err != nil {
		t.Fatal(err)
	}
	// Pass 2: Z = Y·Cᵀ computed as (C·Yᵀ)ᵀ — the transposed-data trick the
	// offload stream describes.
	yT := make([][]float64, 8)
	for i := range yT {
		yT[i] = make([]float64, 8)
		for k := range yT[i] {
			yT[i][k] = y[k][i]
		}
	}
	zT, err := acc.MatMul(cF, yT)
	if err != nil {
		t.Fatal(err)
	}
	// Coefficients span roughly ±8·255·... here inputs are ±127ish; use a
	// relative bound on the largest coefficient.
	var scale float64
	for i := 0; i < 8; i++ {
		for k := 0; k < 8; k++ {
			if a := math.Abs(real(want.At(i, k))); a > scale {
				scale = a
			}
		}
	}
	for i := 0; i < 8; i++ {
		for k := 0; k < 8; k++ {
			got := zT[k][i] // transpose back
			if math.Abs(got-real(want.At(i, k))) > 0.03*scale+1 {
				t.Fatalf("photonic DCT coeff (%d,%d): %g vs %g", i, k, got, real(want.At(i, k)))
			}
		}
	}
}

func TestIntegrationRotationThroughFabric(t *testing.T) {
	// The homogeneous rotation matrix is orthogonal, so it programs with
	// unit attenuation into a 4-input partition and needs no partial sums.
	r := workload.NewRotation3D(64, 16)
	verts := r.RandomObject(24)
	ref := r.Reference(verts, 5)
	m := workload.RotationMatrix(2 * math.Pi * 5 / 16)
	acc, err := NewAccelerator(8, 4)
	if err != nil {
		t.Fatal(err)
	}
	// All vertices as RHS columns — WDM batching.
	rhs := make([][]float64, 4)
	for i := range rhs {
		rhs[i] = make([]float64, len(verts))
		for vi, v := range verts {
			rhs[i][vi] = v[i]
		}
	}
	out, err := acc.MatMul(toFloatMatrix(m), rhs)
	if err != nil {
		t.Fatal(err)
	}
	for vi := range verts {
		for c := 0; c < 4; c++ {
			if math.Abs(out[c][vi]-ref[vi][c]) > 0.05 {
				t.Fatalf("photonic rotation vertex %d coord %d: %g vs %g", vi, c, out[c][vi], ref[vi][c])
			}
		}
	}
}

func TestIntegrationResNetSliceThroughFabric(t *testing.T) {
	// A small conv slice via im2col: kernel matrix in the mesh, patches
	// as optical inputs, partial sums accumulated by MatMul's block loop.
	r := workload.NewResNetConv3Shape(12, 4, 4)
	in, kernels := r.RandomLayer(25)
	ref := r.Reference(in, kernels)
	sh := r.Shape()
	acc, err := NewAccelerator(16, 8)
	if err != nil {
		t.Fatal(err)
	}
	out, err := acc.MatMul(kernels, workload.Im2Col(sh, in))
	if err != nil {
		t.Fatal(err)
	}
	// PatchLen = 36: 5 block columns of partial sums at 8 bits.
	var worst float64
	for k := 0; k < sh.NumKernels; k++ {
		for p := 0; p < sh.Patches(); p++ {
			want := ref.At(p%sh.OutW(), p/sh.OutW(), k)
			if d := math.Abs(out[k][p] - want); d > worst {
				worst = d
			}
		}
	}
	if worst > 0.6 {
		t.Fatalf("photonic conv worst error %g", worst)
	}
}
