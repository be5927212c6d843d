package photonic

import (
	"math"
	"testing"

	"flumen/internal/mat"
)

func TestFlumenMeshAccessors(t *testing.T) {
	f := NewFlumenMesh(8)
	if f.Mesh().N() != 8 {
		t.Fatal("Mesh accessor broken")
	}
	if amp := f.Attenuator(3).Amplitude(); math.Abs(real(amp)-1) > 1e-12 {
		t.Fatalf("default attenuator %v", amp)
	}
}

func TestFlumenMeshBroadcastAndMulticast(t *testing.T) {
	f := NewFlumenMesh(8)
	f.RouteBroadcast(2)
	in := make([]complex128, 8)
	in[2] = 1
	out := f.Forward(in)
	for w := 0; w < 8; w++ {
		if math.Abs(cAbs2(out[w])-0.125) > 1e-10 {
			t.Fatalf("fabric broadcast output %d power %g", w, cAbs2(out[w]))
		}
	}
	f.RouteMulticast(0, []int{4, 5})
	in = make([]complex128, 8)
	in[0] = 1
	out = f.Forward(in)
	if math.Abs(cAbs2(out[4])-0.5) > 1e-10 || math.Abs(cAbs2(out[5])-0.5) > 1e-10 {
		t.Fatal("fabric multicast power division wrong")
	}
}

func TestFlumenMeshForwardValidation(t *testing.T) {
	f := NewFlumenMesh(8)
	defer func() {
		if recover() == nil {
			t.Fatal("wrong-length Forward accepted")
		}
	}()
	f.Forward(make([]complex128, 4))
}

func TestPartitionProgramSizeMismatch(t *testing.T) {
	f := NewFlumenMesh(8)
	p, err := f.NewPartition(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Program(mat.New(8, 8)); err == nil {
		t.Fatal("wrong-size Program accepted")
	}
}

func TestRoutePermutationRangeValidation(t *testing.T) {
	f := NewFlumenMesh(8)
	if _, err := f.NewPartition(4, 4); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []func(){
		func() { f.RoutePermutationRange(2, []int{0, 1, 2, 3}) }, // overlaps partition
		func() { f.RoutePermutationRange(0, []int{0, 0, 1, 2}) }, // not a permutation
		func() { f.RoutePermutationRange(-1, []int{0, 1}) },      // out of range
		func() { f.RoutePermutationRange(6, []int{0, 1, 2}) },    // runs off end
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid range routing accepted")
				}
			}()
			bad()
		}()
	}
}

func TestMeshOutputPhaseAccessors(t *testing.T) {
	m := NewMesh(4)
	m.SetOutputPhase(2, complex(0, 1))
	if m.outPhase[2] != complex(0, 1) {
		t.Fatal("output phase roundtrip failed")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("non-unit phase accepted")
		}
	}()
	m.SetOutputPhase(0, 2)
}

func TestMeshSetMZIAndGuards(t *testing.T) {
	m := NewMesh(4)
	m.SetMZI(0, 0, Cross())
	if !m.cols[0][0].IsCross() {
		t.Fatal("SetMZI roundtrip failed")
	}
	for _, bad := range []func(){
		func() { m.SetMZI(0, 1, Bar()) }, // wrong parity slot
		func() { NewMesh(1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid slot access accepted")
				}
			}()
			bad()
		}()
	}
}

func TestProgramScaledOnZeroPartition(t *testing.T) {
	f := NewFlumenMesh(8)
	p, err := f.NewPartition(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.ProgramScaled(mat.New(4, 4)); err != nil {
		t.Fatal(err)
	}
	if p.Scale != 0 {
		t.Fatalf("zero-matrix scale %g", p.Scale)
	}
	out := partitionMVM(p, []complex128{1, 1, 1, 1})
	for _, v := range out {
		if cAbs2(v) > 1e-12 {
			t.Fatal("zero map leaked power")
		}
	}
}

func TestDecomposeIdentityFastPath(t *testing.T) {
	ops, d, err := Decompose(mat.Identity(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) != 6 || len(d) != 4 {
		t.Fatalf("identity decomposition shape: %d ops, %d phases", len(ops), len(d))
	}
}
