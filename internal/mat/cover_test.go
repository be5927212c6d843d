package mat

import (
	"math/rand"
	"strings"
	"testing"
)

func TestMaxAbsAndString(t *testing.T) {
	a := FromReal([][]float64{{1, -3}, {2, 0.5}})
	if a.MaxAbs() != 3 {
		t.Fatalf("MaxAbs = %g", a.MaxAbs())
	}
	s := a.String()
	if !strings.Contains(s, "-3.000") || strings.Count(s, "\n") != 2 {
		t.Fatalf("String rendering wrong:\n%s", s)
	}
}

func TestRandomRealRange(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := RandomReal(6, 6, rng)
	for i := 0; i < 6; i++ {
		for j := 0; j < 6; j++ {
			v := m.At(i, j)
			if imag(v) != 0 || real(v) < -1 || real(v) >= 1 {
				t.Fatalf("RandomReal element %v outside [-1,1)", v)
			}
		}
	}
}

func TestSetColLengthPanics(t *testing.T) {
	m := New(2, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("SetCol length mismatch accepted")
		}
	}()
	m.SetCol(0, []complex128{1})
}

func TestEqualApproxShapeMismatch(t *testing.T) {
	if EqualApprox(New(2, 2), New(2, 3), 1) {
		t.Fatal("shape mismatch compared equal")
	}
}

func TestIsUnitaryRejectsNonSquare(t *testing.T) {
	if New(2, 3).IsUnitary(1) {
		t.Fatal("non-square matrix reported unitary")
	}
}

func TestDiagConstruction(t *testing.T) {
	d := Diag([]complex128{1, 2i})
	if d.At(0, 0) != 1 || d.At(1, 1) != 2i || d.At(0, 1) != 0 {
		t.Fatal("Diag wrong")
	}
}

func TestMulVecDimensionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MulVec mismatch accepted")
		}
	}()
	MulVec(New(2, 3), make([]complex128, 2))
}

func TestVecDotLengthPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("VecDot mismatch accepted")
		}
	}()
	VecDot(make([]complex128, 2), make([]complex128, 3))
}

func TestPadToValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("PadTo(0) accepted")
		}
	}()
	PadTo(New(2, 2), 0)
}

func TestBlockAlignmentPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("misaligned Block accepted")
		}
	}()
	Block(New(3, 3), 2, 0, 0)
}
