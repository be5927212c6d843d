package workload

import (
	"math/rand"

	"flumen/internal/chip"
	"flumen/internal/mat"
)

// ImageBlur applies a 3×3 Gaussian blur kernel to a W×H 24-bit color image
// (Sec 4.2: 256×256 → ~1.7 million MACs). Each color channel is an
// independent single-kernel convolution; the kernel weights live in the
// MZIM and receptive-field patches stream as the optical inputs.
type ImageBlur struct {
	W, H int
}

// GaussianKernel3x3 is the paper's blur kernel, [1 2 1; 2 4 2; 1 2 1]/16,
// raveled row-major.
var GaussianKernel3x3 = []float64{
	1.0 / 16, 2.0 / 16, 1.0 / 16,
	2.0 / 16, 4.0 / 16, 2.0 / 16,
	1.0 / 16, 2.0 / 16, 1.0 / 16,
}

// NewImageBlur returns the benchmark at the given image size.
func NewImageBlur(w, h int) *ImageBlur {
	if w < 4 {
		w = 4
	}
	if h < 4 {
		h = 4
	}
	return &ImageBlur{W: w, H: h}
}

// Name implements Workload.
func (b *ImageBlur) Name() string { return "ImageBlur" }

// Shape returns the per-channel convolution shape.
func (b *ImageBlur) Shape() ConvShape {
	return ConvShape{InW: b.W, InH: b.H, InC: 1, KW: 3, KH: 3, NumKernels: 1, Stride: 1, Pad: 1}
}

// TotalMACs implements Workload: 3 channels × W·H·9.
func (b *ImageBlur) TotalMACs() int64 { return 3 * b.Shape().MACs() }

// RandomImage generates a seeded synthetic RGB image as three volumes with
// pixel values in [0, 1).
func (b *ImageBlur) RandomImage(seed int64) [3]*Volume {
	rng := rand.New(rand.NewSource(seed))
	var img [3]*Volume
	for c := 0; c < 3; c++ {
		img[c] = NewVolume(b.W, b.H, 1)
		for i := range img[c].Data {
			img[c].Data[i] = rng.Float64()
		}
	}
	return img
}

// Reference blurs the image digitally, returning the three output planes.
func (b *ImageBlur) Reference(img [3]*Volume) [3]*Volume {
	var out [3]*Volume
	for c := 0; c < 3; c++ {
		out[c] = Convolve(b.Shape(), img[c], [][]float64{GaussianKernel3x3})
	}
	return out
}

// DigitalStreams implements Workload: one task per (channel, output row).
func (b *ImageBlur) DigitalStreams(cores int) []chip.Stream {
	tasks := 3 * b.H
	streams := make([]chip.Stream, cores)
	rowBytes := b.W // 1 byte per 8-bit quantized pixel per channel
	for c := 0; c < cores; c++ {
		lo, hi := splitRange(tasks, cores, c)
		var ops []chip.Op
		for t := lo; t < hi; t++ {
			ch := t / b.H
			row := t % b.H
			addr := baseInputs + uint64(ch*b.H+row)*uint64(rowBytes)
			// Three input rows feed one output row; the overlap with the
			// previous task usually hits in L1/L2.
			ops = append(ops,
				chip.Op{Kind: chip.KindLoadBlock, Addr: addr, Lines: lines(3 * rowBytes)},
				chip.Op{Kind: chip.KindMAC, N: int64(b.W) * 9},
				chip.Op{Kind: chip.KindStoreBlock, Addr: baseOutputs + uint64(t*rowBytes), Lines: lines(rowBytes)},
			)
		}
		streams[c] = chip.NewSliceStream(ops)
	}
	return streams
}

// OffloadStreams implements Workload. The stride-1 convolution is packed
// as a block-Toeplitz matrix multiplication: N consecutive output pixels of
// one row derive from a 3×(N+2)-pixel input window, giving an
// N×(3·(N+2)) Toeplitz operator that partitions into ⌈3(N+2)/N⌉ fixed N×N
// blocks. The blocks depend only on the kernel, so their phases are
// programmed a handful of times for the whole image (Sec 5.4.2: high
// operand reuse), and every mesh pass produces N useful outputs per
// wavelength. Each core issues one kernel-request per (channel, block
// column) covering all of its output groups as WDM-batched vectors.
func (b *ImageBlur) OffloadStreams(cores, meshN, lambdas int) []chip.Stream {
	windowLen := 3 * (meshN + 2) // 3 input rows × (N+2) columns per group
	blockCols := (windowLen + meshN - 1) / meshN
	groupsPerRow := (b.W + meshN - 1) / meshN
	groups := groupsPerRow * b.H // per channel
	rowBytes := b.W
	streams := make([]chip.Stream, cores)
	for c := 0; c < cores; c++ {
		lo, hi := splitRange(groups, cores, c)
		g := hi - lo
		var ops []chip.Op
		if g == 0 {
			streams[c] = chip.NewSliceStream(nil)
			continue
		}
		rowLo := lo / groupsPerRow
		rowHi := (hi-1)/groupsPerRow + 1
		for ch := 0; ch < 3; ch++ {
			// Bring in the input rows (with halo) feeding this core's
			// output groups; they are reused across all block columns.
			addr := baseInputs + uint64(ch*b.H+max(rowLo-1, 0))*uint64(rowBytes)
			ops = append(ops, chip.Op{Kind: chip.KindLoadBlock,
				Addr: addr, Lines: lines((rowHi - rowLo + 2) * rowBytes)})
			for bc := 0; bc < blockCols; bc++ {
				tag := 0xB1000000 | uint64(bc)
				ops = append(ops, chip.Op{Kind: chip.KindOffload, Job: MZIMJob{
					N:          meshN,
					Blocks:     1,
					Vectors:    g,
					MatrixTag:  tag,
					ResultBits: g * meshN * 8,
					FallMACs:   int64(g) * int64(meshN) * int64(meshN),
				}})
				if bc > 0 {
					// Accumulate this block column's partials.
					ops = append(ops, chip.Op{Kind: chip.KindAdd, N: int64(g * meshN)})
				}
			}
			ops = append(ops, chip.Op{Kind: chip.KindStoreBlock,
				Addr: baseOutputs + uint64(ch*b.H+rowLo)*uint64(rowBytes), Lines: lines(g * meshN)})
		}
		streams[c] = chip.NewSliceStream(ops)
	}
	return streams
}

// ToeplitzOperator builds the N×(3·(N+2)) block-Toeplitz matrix that the
// offload mapping programs into the mesh: row i computes output pixel
// x0+i of one image row from the 3×(N+2) input window around it,
//
//	T[i][r·(N+2) + i + k] = K[r][k],  r,k ∈ {0,1,2},
//
// so that T·window(y, x0) equals N consecutive blurred pixels. The
// operator depends only on the kernel, which is why its column blocks are
// programmed a handful of times for the whole image.
func (b *ImageBlur) ToeplitzOperator(meshN int) *mat.Dense {
	w := meshN + 2
	t := mat.New(meshN, 3*w)
	for i := 0; i < meshN; i++ {
		for r := 0; r < 3; r++ {
			for k := 0; k < 3; k++ {
				t.Set(i, r*w+i+k, complex(GaussianKernel3x3[r*3+k], 0))
			}
		}
	}
	return t
}

// ToeplitzWindow extracts the raveled 3×(N+2) input window feeding the
// output group starting at (x0, y) of channel plane img (out-of-bounds
// samples read as zero, matching the blur's implicit padding).
func (b *ImageBlur) ToeplitzWindow(img *Volume, y, x0, meshN int) []float64 {
	w := meshN + 2
	out := make([]float64, 3*w)
	for r := 0; r < 3; r++ {
		for c := 0; c < w; c++ {
			out[r*w+c] = img.At(x0-1+c, y-1+r, 0)
		}
	}
	return out
}
