package serve

import (
	"context"
	"fmt"
	"math/rand"
	"sort"

	"flumen"
	"flumen/internal/registry"
	"flumen/internal/workload"
)

// Built-in inference models for /v1/infer: deterministic, seed-derived
// stand-ins for the paper's workload DNNs (Sec 4.2), scaled so a request
// completes in milliseconds on the simulated fabric. Because the weights
// are fixed at server start, every request hits the same block fingerprints
// and repeat inferences ride the weight-program cache.
//
//   - tiny-cnn:     conv 3×3×2→4 over an 8×8×2 volume (the dnn-inference
//     example's feature extractor), ReLU, FC → 10 classes.
//   - vggfc-micro:  a single FC layer, 10×64 — VGG16's FC head scaled down.
//   - resnet-micro: conv 3×3×4→8 over an 8×8×4 volume (ResNet50 conv3
//     scaled down), ReLU, global average pool → 8 class scores.
type inferModel struct {
	name    string
	conv    bool               // has a convolutional front end
	shape   workload.ConvShape // valid when conv
	kernels [][]float64        // ravelled kernel matrix rows (when conv)
	fcW     [][]float64        // classes × features; nil = global average pool
	classes int
}

// buildModels derives every model's weights from the seed.
func buildModels(seed int64) map[string]*inferModel {
	rng := rand.New(rand.NewSource(seed))
	models := make(map[string]*inferModel)

	tiny := &inferModel{
		name:    "tiny-cnn",
		conv:    true,
		shape:   workload.ConvShape{InW: 8, InH: 8, InC: 2, KW: 3, KH: 3, NumKernels: 4, Stride: 1, Pad: 0},
		classes: 10,
	}
	tiny.kernels = randMatrix(rng, tiny.shape.NumKernels, tiny.shape.PatchLen(), 1.0/3)
	tiny.fcW = randMatrix(rng, tiny.classes, tiny.shape.Patches()*tiny.shape.NumKernels, 1.0/8)
	models[tiny.name] = tiny

	vgg := &inferModel{name: "vggfc-micro", classes: 10}
	vgg.fcW = randMatrix(rng, vgg.classes, 64, 1.0/8)
	models[vgg.name] = vgg

	res := &inferModel{
		name:    "resnet-micro",
		conv:    true,
		shape:   workload.ConvShape{InW: 8, InH: 8, InC: 4, KW: 3, KH: 3, NumKernels: 8, Stride: 1, Pad: 1},
		classes: 8,
	}
	res.kernels = randMatrix(rng, res.shape.NumKernels, res.shape.PatchLen(), 1.0/3)
	models[res.name] = res

	return models
}

func randMatrix(rng *rand.Rand, rows, cols int, scale float64) [][]float64 {
	m := make([][]float64, rows)
	for i := range m {
		m[i] = make([]float64, cols)
		for j := range m[i] {
			m[i][j] = (2*rng.Float64() - 1) * scale
		}
	}
	return m
}

// inferModelFromSpec adapts a registered infer-kind model to the built-in
// execution path. Construction is a few slice-header copies — the weights
// stay shared with the registry's Spec — so building one per request is
// cheap, and because the same in-memory matrices feed the same engine
// calls, a registered copy of a built-in model produces bitwise-identical
// logits.
func inferModelFromSpec(ref string, spec *registry.Spec) *inferModel {
	mo := &inferModel{
		name:    ref,
		fcW:     spec.FC,
		classes: spec.Classes,
	}
	if cv := spec.Conv; cv != nil {
		mo.conv = true
		mo.shape = workload.ConvShape{
			InW: cv.InW, InH: cv.InH, InC: cv.InC,
			KW: cv.KW, KH: cv.KH, NumKernels: cv.NumKernels,
			Stride: cv.Stride, Pad: cv.Pad,
		}
		mo.kernels = cv.Kernels
	}
	return mo
}

// features returns the FC input width (0 for pool-only heads).
func (mo *inferModel) features() int {
	if mo.fcW == nil {
		return 0
	}
	return len(mo.fcW[0])
}

// checkInput validates the request payload against the model's input shape.
func (mo *inferModel) checkInput(req *InferRequest) error {
	if mo.conv {
		v := req.Volume
		if len(v) != mo.shape.InC {
			return fmt.Errorf("model %s wants a %d×%d×%d volume, got %d channels",
				mo.name, mo.shape.InW, mo.shape.InH, mo.shape.InC, len(v))
		}
		for c := range v {
			if len(v[c]) != mo.shape.InH {
				return fmt.Errorf("model %s: channel %d has %d rows, want %d", mo.name, c, len(v[c]), mo.shape.InH)
			}
			for y := range v[c] {
				if len(v[c][y]) != mo.shape.InW {
					return fmt.Errorf("model %s: channel %d row %d has %d columns, want %d",
						mo.name, c, y, len(v[c][y]), mo.shape.InW)
				}
			}
		}
		return nil
	}
	if len(req.Vector) != mo.features() {
		return fmt.Errorf("model %s wants a %d-element vector, got %d", mo.name, mo.features(), len(req.Vector))
	}
	return nil
}

// infer runs the model photonically and returns the class scores.
func (mo *inferModel) infer(ctx context.Context, acc *flumen.Accelerator, req *InferRequest) ([]float64, error) {
	if !mo.conv {
		return acc.MatVecCtx(ctx, mo.fcW, req.Vector)
	}

	vol := workload.NewVolume(mo.shape.InW, mo.shape.InH, mo.shape.InC)
	for c := range req.Volume {
		for y := range req.Volume[c] {
			for x := range req.Volume[c][y] {
				vol.Set(x, y, c, req.Volume[c][y][x])
			}
		}
	}
	convOut, err := acc.MatMulCtx(ctx, mo.kernels, workload.Im2Col(mo.shape, vol))
	if err != nil {
		return nil, err
	}

	patches := mo.shape.Patches()
	if mo.fcW == nil {
		// Global average pool per kernel: each feature map's mean is the
		// class score.
		logits := make([]float64, mo.shape.NumKernels)
		for k := 0; k < mo.shape.NumKernels; k++ {
			sum := 0.0
			for p := 0; p < patches; p++ {
				if v := convOut[k][p]; v > 0 { // ReLU folded into the pool
					sum += v
				}
			}
			logits[k] = sum / float64(patches)
		}
		return logits, nil
	}

	// ReLU feature vector in channel-major order, then the FC head.
	feat := make([]float64, mo.shape.NumKernels*patches)
	for k := 0; k < mo.shape.NumKernels; k++ {
		for p := 0; p < patches; p++ {
			if v := convOut[k][p]; v > 0 {
				feat[k*patches+p] = v
			}
		}
	}
	return acc.MatVecCtx(ctx, mo.fcW, feat)
}

// modelNames lists the available models, sorted for stable error messages.
func modelNames(models map[string]*inferModel) []string {
	names := make([]string, 0, len(models))
	for n := range models {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func argmax(xs []float64) int {
	best := 0
	for i, x := range xs {
		if x > xs[best] {
			best = i
		}
	}
	return best
}
