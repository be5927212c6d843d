package workload

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"flumen/internal/chip"
	"flumen/internal/mat"
)

func TestConvShapeGeometry(t *testing.T) {
	sh := ConvShape{InW: 56, InH: 56, InC: 32, KW: 3, KH: 3, NumKernels: 32, Stride: 2, Pad: 1}
	if sh.OutW() != 28 || sh.OutH() != 28 {
		t.Fatalf("out %dx%d, want 28x28", sh.OutW(), sh.OutH())
	}
	if sh.PatchLen() != 288 {
		t.Fatalf("patch len %d", sh.PatchLen())
	}
	if sh.MACs() != 28*28*288*32 {
		t.Fatalf("MACs %d", sh.MACs())
	}
}

func TestConvShapeValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid shape accepted")
		}
	}()
	ConvShape{InW: 0, InH: 1, InC: 1, KW: 1, KH: 1, NumKernels: 1, Stride: 1}.Validate()
}

func TestVolumePaddingReadsZero(t *testing.T) {
	v := NewVolume(4, 4, 1)
	v.Set(0, 0, 0, 7)
	if v.At(-1, 0, 0) != 0 || v.At(0, 4, 0) != 0 {
		t.Fatal("out-of-bounds reads must be zero")
	}
	if v.At(0, 0, 0) != 7 {
		t.Fatal("in-bounds read wrong")
	}
}

func TestIm2ColMatchesDirectConvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	sh := ConvShape{InW: 7, InH: 6, InC: 3, KW: 3, KH: 3, NumKernels: 4, Stride: 2, Pad: 1}
	in := NewVolume(sh.InW, sh.InH, sh.InC)
	for i := range in.Data {
		in.Data[i] = rng.NormFloat64()
	}
	kernels := make([][]float64, sh.NumKernels)
	for k := range kernels {
		kernels[k] = make([]float64, sh.PatchLen())
		for i := range kernels[k] {
			kernels[k][i] = rng.NormFloat64()
		}
	}
	direct := Convolve(sh, in, kernels)
	viaMM := ConvViaMatMul(sh, in, kernels)
	for i := range direct.Data {
		if math.Abs(direct.Data[i]-viaMM.Data[i]) > 1e-10 {
			t.Fatalf("im2col mismatch at %d: %g vs %g", i, direct.Data[i], viaMM.Data[i])
		}
	}
}

func TestPropertyIm2ColEquivalence(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		sh := ConvShape{
			InW: 3 + rng.Intn(6), InH: 3 + rng.Intn(6), InC: 1 + rng.Intn(3),
			KW: 1 + rng.Intn(3), KH: 1 + rng.Intn(3),
			NumKernels: 1 + rng.Intn(3), Stride: 1 + rng.Intn(2), Pad: rng.Intn(2),
		}
		if sh.OutW() <= 0 || sh.OutH() <= 0 {
			return true
		}
		in := NewVolume(sh.InW, sh.InH, sh.InC)
		for i := range in.Data {
			in.Data[i] = rng.NormFloat64()
		}
		kernels := make([][]float64, sh.NumKernels)
		for k := range kernels {
			kernels[k] = make([]float64, sh.PatchLen())
			for i := range kernels[k] {
				kernels[k][i] = rng.NormFloat64()
			}
		}
		direct := Convolve(sh, in, kernels)
		viaMM := ConvViaMatMul(sh, in, kernels)
		for i := range direct.Data {
			if math.Abs(direct.Data[i]-viaMM.Data[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestDCTMatrixIsOrthogonal(t *testing.T) {
	c := DCTMatrix(8)
	if !c.IsUnitary(1e-12) {
		t.Fatal("DCT-II matrix not orthogonal")
	}
}

func TestDCTRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	c := DCTMatrix(8)
	x := mat.RandomReal(8, 8, rng)
	y := mat.Mul(mat.Mul(c.Transpose(), DCT2D(c, x)), c) // C orthogonal: Cᵀ·Y·C inverts
	if !mat.EqualApprox(x, y, 1e-10) {
		t.Fatal("IDCT(DCT(x)) != x")
	}
}

func TestDCTConstantBlockConcentratesDC(t *testing.T) {
	c := DCTMatrix(8)
	x := mat.New(8, 8)
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			x.Set(i, j, 1)
		}
	}
	y := DCT2D(c, x)
	if math.Abs(real(y.At(0, 0))-8) > 1e-10 {
		t.Fatalf("DC coefficient %g, want 8", real(y.At(0, 0)))
	}
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			if i == 0 && j == 0 {
				continue
			}
			if math.Abs(real(y.At(i, j))) > 1e-10 {
				t.Fatalf("AC coefficient (%d,%d) = %g", i, j, real(y.At(i, j)))
			}
		}
	}
}

func TestZigzagCoversAll64(t *testing.T) {
	seen := map[[2]int]bool{}
	for _, xy := range zigzagOrder {
		seen[xy] = true
	}
	if len(seen) != 64 {
		t.Fatalf("zigzag visits %d distinct cells", len(seen))
	}
	if zigzagOrder[0] != [2]int{0, 0} || zigzagOrder[1] != [2]int{1, 0} {
		t.Fatalf("zigzag start wrong: %v %v", zigzagOrder[0], zigzagOrder[1])
	}
}

func TestZigzagRunLength(t *testing.T) {
	var blk [8][8]int
	blk[0][0] = 5
	blk[0][1] = 3 // position 1 in zigzag
	blk[7][7] = 1 // last position
	rl := ZigzagRunLength(blk)
	if len(rl) != 3 {
		t.Fatalf("run-length pairs: %v", rl)
	}
	if rl[0] != [2]int{0, 5} || rl[1] != [2]int{0, 3} {
		t.Fatalf("leading pairs wrong: %v", rl)
	}
	if rl[2][0] != 61 || rl[2][1] != 1 {
		t.Fatalf("trailing run wrong: %v", rl[2])
	}
}

func TestPaperMACCounts(t *testing.T) {
	// Sec 4.2 quotes ≈1.7M, ≈4.1M, ≈8M, ≈1.6M MACs.
	cases := []struct {
		w      Workload
		want   float64
		tolPct float64
	}{
		{NewImageBlur(256, 256), 1.7e6, 5},
		{NewVGG16FC(), 4.1e6, 2},
		{NewResNetConv3(), 8e6, 12},
		{NewJPEG(256, 384), 1.6e6, 2},
	}
	for _, c := range cases {
		got := float64(c.w.TotalMACs())
		if math.Abs(got-c.want)/c.want*100 > c.tolPct {
			t.Errorf("%s: %g MACs, want ≈%g", c.w.Name(), got, c.want)
		}
	}
}

func TestDigitalStreamsMACTotals(t *testing.T) {
	for _, w := range ScaledAll(8) {
		streams := w.DigitalStreams(8)
		var total int64
		for _, s := range streams {
			for {
				op, ok := s.Next()
				if !ok {
					break
				}
				if op.Kind == chip.KindMAC {
					total += op.N
				}
			}
		}
		// Digital mode must execute at least the kernel's MACs (bias adds
		// and accumulation may add a small epsilon).
		if total < w.TotalMACs() {
			t.Errorf("%s digital streams carry %d MACs, kernel needs %d", w.Name(), total, w.TotalMACs())
		}
		if float64(total) > 1.1*float64(w.TotalMACs()) {
			t.Errorf("%s digital streams carry %d MACs, far above kernel %d", w.Name(), total, w.TotalMACs())
		}
	}
}

func TestOffloadStreamsMoveMACsToFabric(t *testing.T) {
	for _, w := range ScaledAll(8) {
		streams := w.OffloadStreams(8, 8, 8)
		var coreMACs, fabricMACs int64
		var offloads int
		for _, s := range streams {
			for {
				op, ok := s.Next()
				if !ok {
					break
				}
				switch op.Kind {
				case chip.KindMAC:
					coreMACs += op.N
				case chip.KindOffload:
					job := op.Job.(MZIMJob)
					fabricMACs += job.FabricMACs()
					offloads++
				}
			}
		}
		if offloads == 0 {
			t.Errorf("%s produced no offloads", w.Name())
			continue
		}
		// The fabric must absorb the bulk of the kernel's multiplies; the
		// cores keep only accumulation.
		if fabricMACs < w.TotalMACs()/2 {
			t.Errorf("%s fabric MACs %d below half of kernel %d", w.Name(), fabricMACs, w.TotalMACs())
		}
		if coreMACs >= w.TotalMACs()/2 {
			t.Errorf("%s core MACs %d too high in offload mode (kernel %d)", w.Name(), coreMACs, w.TotalMACs())
		}
	}
}

func TestOffloadJobsAreWellFormed(t *testing.T) {
	for _, w := range ScaledAll(8) {
		for _, s := range w.OffloadStreams(4, 8, 8) {
			for {
				op, ok := s.Next()
				if !ok {
					break
				}
				if op.Kind != chip.KindOffload {
					continue
				}
				job := op.Job.(MZIMJob)
				if job.N < 2 || job.N > 8 {
					t.Fatalf("%s job N=%d", w.Name(), job.N)
				}
				if job.Vectors < 1 {
					t.Fatalf("%s job vectors=%d", w.Name(), job.Vectors)
				}
				if job.NumBlocks() < 1 {
					t.Fatalf("%s job blocks=%d", w.Name(), job.NumBlocks())
				}
				if job.FallMACs <= 0 || job.ResultBits <= 0 {
					t.Fatalf("%s job missing fallback/result sizes: %+v", w.Name(), job)
				}
				if job.ResultBits != job.NumBlocks()*job.Vectors*job.N*8 {
					t.Fatalf("%s job result bits %d inconsistent: %+v", w.Name(), job.ResultBits, job)
				}
			}
		}
	}
}

func TestWorkloadRegistry(t *testing.T) {
	all := All()
	if len(all) != 5 {
		t.Fatalf("expected 5 benchmarks, got %d", len(all))
	}
	names := map[string]bool{}
	for _, w := range all {
		names[w.Name()] = true
	}
	for _, want := range []string{"ImageBlur", "VGG16FC", "ResNet50Conv3", "JPEG", "3DRotation"} {
		if !names[want] {
			t.Errorf("missing benchmark %q", want)
		}
	}
	if _, err := ByName("VGG16FC"); err != nil {
		t.Error(err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestBlurReferenceSmoothes(t *testing.T) {
	b := NewImageBlur(16, 16)
	img := b.RandomImage(7)
	out := b.Reference(img)
	// Blurring reduces total variation.
	tv := func(v *Volume) float64 {
		var s float64
		for y := 0; y < v.H; y++ {
			for x := 1; x < v.W; x++ {
				s += math.Abs(v.At(x, y, 0) - v.At(x-1, y, 0))
			}
		}
		return s
	}
	if tv(out[0]) >= tv(img[0]) {
		t.Fatal("blur did not smooth the image")
	}
}

func TestVGGReferenceMatchesManualDot(t *testing.T) {
	v := NewVGG16FCShape(4, 6)
	w, bias, input := v.RandomLayer(3)
	out := v.Reference(w, bias, input)
	var want float64
	for j := 0; j < 6; j++ {
		want += real(w.At(2, j)) * input[j]
	}
	want += bias[2]
	if math.Abs(out[2]-want) > 1e-12 {
		t.Fatalf("reference row 2 = %g, want %g", out[2], want)
	}
}

func TestRotationPreservesLength(t *testing.T) {
	r := NewRotation3D(32, 8)
	verts := r.RandomObject(11)
	rot := r.Reference(verts, 3)
	for i := range verts {
		l0 := math.Sqrt(verts[i][0]*verts[i][0] + verts[i][1]*verts[i][1] + verts[i][2]*verts[i][2])
		l1 := math.Sqrt(rot[i][0]*rot[i][0] + rot[i][1]*rot[i][1] + rot[i][2]*rot[i][2])
		if math.Abs(l0-l1) > 1e-9 {
			t.Fatalf("vertex %d length changed: %g → %g", i, l0, l1)
		}
		if math.Abs(rot[i][3]-1) > 1e-12 {
			t.Fatalf("homogeneous coordinate broken: %g", rot[i][3])
		}
	}
}

func TestRotationMatrixIsOrthogonalBlock(t *testing.T) {
	m := RotationMatrix(1.234)
	if !m.IsUnitary(1e-12) {
		t.Fatal("homogeneous rotation matrix not orthogonal")
	}
}

func TestJPEGReferenceProducesCompactBlocks(t *testing.T) {
	j := NewJPEG(64, 64)
	plane := j.RandomPlane(5)
	sizes := j.Reference(plane)
	if len(sizes) != j.Blocks() {
		t.Fatalf("got %d block sizes, want %d", len(sizes), j.Blocks())
	}
	for _, s := range sizes {
		if s < 1 || s > 65 {
			t.Fatalf("block RLE size %d out of range", s)
		}
	}
}

func TestStreamsWithMoreCoresThanTasks(t *testing.T) {
	// 64 cores on tiny workloads: surplus cores get empty streams and the
	// op totals are preserved.
	for _, w := range ScaledAll(16) {
		for _, streams := range [][]chip.Stream{
			w.DigitalStreams(64),
			w.OffloadStreams(64, 8, 8),
		} {
			if len(streams) != 64 {
				t.Fatalf("%s: %d streams", w.Name(), len(streams))
			}
			for _, s := range streams {
				for {
					if _, ok := s.Next(); !ok {
						break
					}
				}
			}
		}
	}
}

func TestScaledAllUnitIsPaperScale(t *testing.T) {
	a := All()
	b := ScaledAll(1)
	for i := range a {
		if a[i].TotalMACs() != b[i].TotalMACs() {
			t.Fatalf("%s: ScaledAll(1) diverges from All()", a[i].Name())
		}
	}
}

func TestMZIMJobDefaults(t *testing.T) {
	j := MZIMJob{N: 8, Vectors: 2, FallMACs: 128}
	if j.NumBlocks() != 1 {
		t.Fatalf("zero Blocks should default to 1, got %d", j.NumBlocks())
	}
	if j.FallbackMACs() != 128 {
		t.Fatal("FallbackMACs accessor wrong")
	}
	if j.FabricMACs() != 2*64 {
		t.Fatalf("FabricMACs = %d", j.FabricMACs())
	}
}
