// Package wfp defines the raw-bit weight fingerprint shared by every layer
// that keys on weight identity: the engine's block-program LRU, the serving
// layer's request coalescer, the cluster router's rendezvous hashing, and
// the model registry's content addressing. One encoding, one equality
// relation — two weight matrices share a fingerprint exactly when they are
// bit-identical, so a fingerprint match anywhere in the stack guarantees
// bitwise-equal compute.
package wfp

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
)

// Matrix is an exact content key for a weight matrix — its dimensions plus
// the IEEE-754 bits of every element. Collision-free by construction: the
// key is a lossless encoding of the matrix, so equal keys mean bit-equal
// weights (NaN payloads, signed zeros and infinities included).
func Matrix(m [][]float64) string {
	rows := len(m)
	cols := 0
	if rows > 0 {
		cols = len(m[0])
	}
	b := appendDims(make([]byte, 0, 16+rows*cols*8), rows, cols)
	for _, row := range m {
		for _, v := range row {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
	}
	return string(b)
}

// AppendBlock appends to b the Matrix key of the n×n block at block row bi,
// block column bj of m zero-padded to multiples of n (Eq. 2): entries past
// m's edge encode as +0. It reads m in place, so with enough capacity in b
// it allocates nothing — the engine looks up a resident block program
// without copying the block.
func AppendBlock(b []byte, m [][]float64, n, bi, bj int) []byte {
	b = appendDims(b, n, n)
	for i := bi * n; i < (bi+1)*n; i++ {
		var row []float64
		if i < len(m) {
			row = m[i]
		}
		for j := bj * n; j < (bj+1)*n; j++ {
			var bits uint64
			if j < len(row) {
				bits = math.Float64bits(row[j])
			}
			b = binary.LittleEndian.AppendUint64(b, bits)
		}
	}
	return b
}

func appendDims(b []byte, rows, cols int) []byte {
	b = binary.LittleEndian.AppendUint64(b, uint64(rows))
	return binary.LittleEndian.AppendUint64(b, uint64(cols))
}

// Hex condenses a raw fingerprint (or any byte string) to a fixed-width
// sha256 digest in hex — the printable form used in manifests, API
// responses, and blob file names, where the raw key's length (proportional
// to the weight count) would be unwieldy.
func Hex(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:])
}
