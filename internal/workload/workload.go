// Package workload implements the five benchmark applications of Sec 4.2 —
// Image Blur, VGG16 FC, ResNet50 Conv3, JPEG, and 3D Rotation — each with
// (a) a real digital reference computation on synthetic data, (b) op-stream
// generation for the multicore model in pure-electrical mode, and (c)
// offload-mode op streams that hand MZIM-sized block matrix multiplications
// (Eq. 2-3) to the Flumen control unit.
package workload

import (
	"fmt"

	"flumen/internal/chip"
)

// Workload is one benchmark application.
type Workload interface {
	// Name is the benchmark's display name.
	Name() string
	// TotalMACs returns the multiply-accumulate count of the kernel
	// (Sec 4.2 quotes these per benchmark).
	TotalMACs() int64
	// DigitalStreams partitions the computation across cores as
	// electrical-only op streams.
	DigitalStreams(cores int) []chip.Stream
	// OffloadStreams produces op streams that offload block MVMs to an
	// meshN-input MZIM compute partition with `lambdas` compute
	// wavelengths.
	OffloadStreams(cores, meshN, lambdas int) []chip.Stream
}

// MZIMJob is the compute-request payload a core sends to the MZIM control
// unit: one N×N block matrix programmed into a partition, with Vectors
// input vectors streamed through on WDM wavelengths.
type MZIMJob struct {
	// N is the required partition size.
	N int
	// Blocks is the number of distinct N×N matrices streamed in sequence
	// within this kernel request (1 when a single matrix is reused).
	Blocks int
	// Vectors is the number of input vectors streamed per block.
	Vectors int
	// MatrixTag identifies the block matrix when Blocks == 1; the control
	// unit skips the 6 ns phase reprogram when a partition already holds
	// this tag (operand reuse, Sec 5.4.2). Multi-block jobs always program
	// each matrix (pipelined from matrix memory).
	MatrixTag uint64
	// ResultBits is the total data volume returned to the requester
	// through the fabric's many-to-one return path.
	ResultBits int
	// FallMACs is the local-execution cost if the request is rejected.
	FallMACs int64
}

// FallbackMACs implements chip.FallbackJob.
func (j MZIMJob) FallbackMACs() int64 { return j.FallMACs }

// BlockSize returns the partition size (core.ComputeJob).
func (j MZIMJob) BlockSize() int { return j.N }

// NumBlocks returns the matrices programmed in sequence (core.ComputeJob).
func (j MZIMJob) NumBlocks() int {
	if j.Blocks < 1 {
		return 1
	}
	return j.Blocks
}

// NumVectors returns the per-block vector count (core.ComputeJob).
func (j MZIMJob) NumVectors() int { return j.Vectors }

// Tag returns the matrix identity for reuse tracking (core.ComputeJob).
func (j MZIMJob) Tag() uint64 { return j.MatrixTag }

// ResultVolumeBits returns the result transfer size (core.ComputeJob).
func (j MZIMJob) ResultVolumeBits() int { return j.ResultBits }

// FabricMACs returns the multiply-accumulates the fabric performs for this
// job, including zero-padding waste.
func (j MZIMJob) FabricMACs() int64 {
	return int64(j.NumBlocks()) * int64(j.Vectors) * int64(j.N) * int64(j.N)
}

// Address-space bases keep each data structure's lines spread across L3
// home slices without aliasing between structures.
const (
	baseWeights uint64 = 0x1000_0000
	baseInputs  uint64 = 0x2000_0000
	baseOutputs uint64 = 0x3000_0000
	basePatches uint64 = 0x4000_0000
	lineBytes          = 64
)

// lines returns the cache-line count covering n bytes.
func lines(nBytes int) int {
	if nBytes <= 0 {
		return 1
	}
	return (nBytes + lineBytes - 1) / lineBytes
}

// splitRange divides [0, total) into `parts` contiguous chunks and returns
// the [lo, hi) bounds of chunk i.
func splitRange(total, parts, i int) (lo, hi int) {
	base := total / parts
	rem := total % parts
	lo = i*base + min(i, rem)
	hi = lo + base
	if i < rem {
		hi++
	}
	return lo, hi
}

// All returns the five paper benchmarks at paper scale.
func All() []Workload {
	return []Workload{
		NewImageBlur(256, 256),
		NewVGG16FC(),
		NewResNetConv3(),
		NewJPEG(256, 384),
		NewRotation3D(306, 360),
	}
}

// ByName returns the named workload or an error.
func ByName(name string) (Workload, error) {
	for _, w := range All() {
		if w.Name() == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("workload: unknown benchmark %q", name)
}

// ScaledAll returns the benchmarks shrunk by roughly the given linear
// factor for fast tests (factor 1 = paper scale).
func ScaledAll(factor int) []Workload {
	if factor <= 1 {
		return All()
	}
	return []Workload{
		NewImageBlur(256/factor, 256/factor),
		NewVGG16FCShape(1000/factor, 4096/factor),
		NewResNetConv3Shape(56/factor, 32, 32),
		NewJPEG(256/factor, 384/factor),
		NewRotation3D(306/factor, 360/factor),
	}
}
