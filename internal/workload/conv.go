package workload

import "fmt"

// ConvShape describes a convolutional layer (Fig. 7a): an input volume of
// InW×InH×InC activations convolved with NumKernels kernels of KW×KH×InC
// weights at the given stride and symmetric zero padding.
type ConvShape struct {
	InW, InH, InC int
	KW, KH        int
	NumKernels    int
	Stride        int
	Pad           int
}

// OutW returns the output volume width.
func (c ConvShape) OutW() int { return (c.InW+2*c.Pad-c.KW)/c.Stride + 1 }

// OutH returns the output volume height.
func (c ConvShape) OutH() int { return (c.InH+2*c.Pad-c.KH)/c.Stride + 1 }

// Patches returns the receptive-field count Q = OutW×OutH.
func (c ConvShape) Patches() int { return c.OutW() * c.OutH() }

// PatchLen returns the raveled receptive-field length KW×KH×InC.
func (c ConvShape) PatchLen() int { return c.KW * c.KH * c.InC }

// MACs returns the layer's multiply-accumulate count.
func (c ConvShape) MACs() int64 {
	return int64(c.Patches()) * int64(c.PatchLen()) * int64(c.NumKernels)
}

// Validate panics on inconsistent shapes.
func (c ConvShape) Validate() {
	if c.InW <= 0 || c.InH <= 0 || c.InC <= 0 || c.KW <= 0 || c.KH <= 0 ||
		c.NumKernels <= 0 || c.Stride <= 0 || c.Pad < 0 {
		panic(fmt.Sprintf("workload: invalid conv shape %+v", c))
	}
	if c.OutW() <= 0 || c.OutH() <= 0 {
		panic(fmt.Sprintf("workload: conv shape %+v has empty output", c))
	}
}

// Volume is a dense W×H×C activation volume, indexed [c][y][x].
type Volume struct {
	W, H, C int
	Data    []float64 // c-major, then y, then x
}

// NewVolume allocates a zero volume.
func NewVolume(w, h, c int) *Volume {
	return &Volume{W: w, H: h, C: c, Data: make([]float64, w*h*c)}
}

// At returns the activation at (x, y, ch); out-of-bounds coordinates read
// as zero (implicit padding).
func (v *Volume) At(x, y, ch int) float64 {
	if x < 0 || x >= v.W || y < 0 || y >= v.H {
		return 0
	}
	return v.Data[(ch*v.H+y)*v.W+x]
}

// Set stores the activation at (x, y, ch).
func (v *Volume) Set(x, y, ch int, val float64) {
	v.Data[(ch*v.H+y)*v.W+x] = val
}

// Im2Col lowers the convolution to the matrix form of Fig. 7b: the result
// has one raveled receptive field per column, shape PatchLen × Patches,
// row-major (the rows share one backing array).
func Im2Col(shape ConvShape, in *Volume) [][]float64 {
	shape.Validate()
	if in.W != shape.InW || in.H != shape.InH || in.C != shape.InC {
		panic("workload: Im2Col volume does not match shape")
	}
	cols := shape.Patches()
	data := make([]float64, shape.PatchLen()*cols)
	out := make([][]float64, shape.PatchLen())
	for i := range out {
		out[i] = data[i*cols : (i+1)*cols : (i+1)*cols]
	}
	col := 0
	for oy := 0; oy < shape.OutH(); oy++ {
		for ox := 0; ox < shape.OutW(); ox++ {
			row := 0
			x0 := ox*shape.Stride - shape.Pad
			y0 := oy*shape.Stride - shape.Pad
			for ch := 0; ch < shape.InC; ch++ {
				for ky := 0; ky < shape.KH; ky++ {
					for kx := 0; kx < shape.KW; kx++ {
						out[row][col] = in.At(x0+kx, y0+ky, ch)
						row++
					}
				}
			}
			col++
		}
	}
	return out
}

// Convolve computes the layer directly (sliding window), returning the
// output volume with one channel per kernel. It is the ground-truth
// reference the im2col/photonic paths are validated against.
func Convolve(shape ConvShape, in *Volume, kernels [][]float64) *Volume {
	shape.Validate()
	out := NewVolume(shape.OutW(), shape.OutH(), shape.NumKernels)
	for k := 0; k < shape.NumKernels; k++ {
		w := kernels[k]
		for oy := 0; oy < shape.OutH(); oy++ {
			for ox := 0; ox < shape.OutW(); ox++ {
				x0 := ox*shape.Stride - shape.Pad
				y0 := oy*shape.Stride - shape.Pad
				var acc float64
				i := 0
				for ch := 0; ch < shape.InC; ch++ {
					for ky := 0; ky < shape.KH; ky++ {
						for kx := 0; kx < shape.KW; kx++ {
							acc += w[i] * in.At(x0+kx, y0+ky, ch)
							i++
						}
					}
				}
				out.Set(ox, oy, k, acc)
			}
		}
	}
	return out
}
