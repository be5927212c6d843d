package mat

import (
	"math"
	"math/rand"
	"testing"
)

func TestFingerprintDistinguishesContent(t *testing.T) {
	a := New(2, 2)
	b := New(2, 2)
	if a.Fingerprint() != b.Fingerprint() {
		t.Fatal("identical matrices have different fingerprints")
	}
	b.Set(1, 1, 1e-300)
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatal("matrices differing by one tiny element share a fingerprint")
	}
}

func TestFingerprintEncodesShape(t *testing.T) {
	// Same flat data, different shape: must not collide.
	a := New(2, 3)
	b := New(3, 2)
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatal("2×3 and 3×2 zero matrices share a fingerprint")
	}
}

func TestFingerprintIsBitExact(t *testing.T) {
	a := New(1, 1)
	b := New(1, 1)
	a.Set(0, 0, complex(0, 0))
	b.Set(0, 0, complex(math.Copysign(0, -1), 0))
	// +0 and -0 compare equal but are distinct programs' keys; the raw-bit
	// fingerprint keeps them apart (conservative: never a false hit).
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatal("+0 and -0 share a fingerprint")
	}
}

// TestAppendBlockFingerprintMatchesBlock pins the engine's allocation-free
// cache key to the key of the materialized block, for every block of a padded
// matrix and with a reused, non-empty-capacity buffer.
func TestAppendBlockFingerprintMatchesBlock(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := PadTo(RandomReal(10, 7, rng), 4)
	m.Set(0, 0, complex(math.Copysign(0, -1), 0))
	var buf []byte
	for bi := 0; bi < m.Rows()/4; bi++ {
		for bj := 0; bj < m.Cols()/4; bj++ {
			buf = AppendBlockFingerprint(buf[:0], m, 4, bi, bj)
			if string(buf) != Block(m, 4, bi, bj).Fingerprint() {
				t.Fatalf("block (%d,%d): appended fingerprint differs from Block().Fingerprint()", bi, bj)
			}
		}
	}
}

func TestPadToReturnsAlignedMatrixUncopied(t *testing.T) {
	m := New(4, 8)
	if PadTo(m, 4) != m {
		t.Fatal("PadTo copied a matrix that was already aligned")
	}
}
