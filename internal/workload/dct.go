package workload

import (
	"math"

	"flumen/internal/mat"
)

// DCTMatrix returns the n×n orthonormal DCT-II matrix C, with
// C[k][i] = s(k)·cos(π·(2i+1)·k / 2n), s(0)=sqrt(1/n), s(k)=sqrt(2/n).
// C is orthogonal (real unitary), so the 8×8 JPEG DCT maps directly onto
// the full 8-input unitary MZIM with no Σ attenuation and no partial sums
// (Sec 5.4.1).
func DCTMatrix(n int) *mat.Dense {
	c := mat.New(n, n)
	for k := 0; k < n; k++ {
		s := math.Sqrt(2 / float64(n))
		if k == 0 {
			s = math.Sqrt(1 / float64(n))
		}
		for i := 0; i < n; i++ {
			c.Set(k, i, complex(s*math.Cos(math.Pi*float64(2*i+1)*float64(k)/float64(2*n)), 0))
		}
	}
	return c
}

// DCT2D applies the 2D DCT to an n×n block: C·X·Cᵀ.
func DCT2D(c, block *mat.Dense) *mat.Dense {
	return mat.Mul(mat.Mul(c, block), c.Transpose())
}

// JPEGLumaQuant is the standard JPEG luminance quantization table at
// quality 50.
var JPEGLumaQuant = [8][8]float64{
	{16, 11, 10, 16, 24, 40, 51, 61},
	{12, 12, 14, 19, 26, 58, 60, 55},
	{14, 13, 16, 24, 40, 57, 69, 56},
	{14, 17, 22, 29, 51, 87, 80, 62},
	{18, 22, 37, 56, 68, 109, 103, 77},
	{24, 35, 55, 64, 81, 104, 113, 92},
	{49, 64, 78, 87, 103, 121, 120, 101},
	{72, 92, 95, 98, 112, 100, 103, 99},
}

// QuantizeBlock divides DCT coefficients by the quantization table and
// rounds, returning the integer coefficient block.
func QuantizeBlock(coeffs *mat.Dense) [8][8]int {
	var out [8][8]int
	for y := 0; y < 8; y++ {
		for x := 0; x < 8; x++ {
			out[y][x] = int(math.Round(real(coeffs.At(y, x)) / JPEGLumaQuant[y][x]))
		}
	}
	return out
}

// zigzagOrder holds the JPEG zig-zag scan coordinates.
var zigzagOrder = buildZigzag()

func buildZigzag() [64][2]int {
	var order [64][2]int
	i := 0
	for s := 0; s < 15; s++ {
		if s%2 == 0 { // up-right
			for y := min(s, 7); y >= 0 && s-y <= 7; y-- {
				order[i] = [2]int{s - y, y}
				i++
			}
		} else { // down-left
			for x := min(s, 7); x >= 0 && s-x <= 7; x-- {
				order[i] = [2]int{x, s - x}
				i++
			}
		}
	}
	return order
}

// ZigzagRunLength scans the quantized block in zig-zag order and returns
// the (run, value) pairs of the non-zero coefficients plus the DC term —
// a faithful stand-in for JPEG entropy-coding work on the cores.
func ZigzagRunLength(block [8][8]int) [][2]int {
	out := [][2]int{{0, block[0][0]}}
	run := 0
	for i := 1; i < 64; i++ {
		x, y := zigzagOrder[i][0], zigzagOrder[i][1]
		v := block[y][x]
		if v == 0 {
			run++
			continue
		}
		out = append(out, [2]int{run, v})
		run = 0
	}
	return out
}
