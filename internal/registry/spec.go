package registry

import (
	"fmt"
	"math"
	"strings"

	"flumen/internal/wfp"
)

// Kind names what a registered model's weights program: a bare matmul
// weight matrix, a conv2d kernel stack, or an /v1/infer layer stack.
type Kind string

const (
	KindMatMul Kind = "matmul"
	KindConv2D Kind = "conv2d"
	KindInfer  Kind = "infer"
)

// ConvSpec is the convolutional front end of an infer-kind model: the
// geometry plus the ravelled kernel matrix (NumKernels rows of
// InC·KH·KW entries each, channel-major then row-major — exactly the
// matrix the engine programs for Conv2D's im2col lowering).
type ConvSpec struct {
	InW        int `json:"in_w"`
	InH        int `json:"in_h"`
	InC        int `json:"in_c"`
	KW         int `json:"kw"`
	KH         int `json:"kh"`
	NumKernels int `json:"num_kernels"`
	Stride     int `json:"stride"`
	Pad        int `json:"pad"`

	Kernels [][]float64 `json:"kernels"`
}

// Spec is the registration payload for one named, versioned model. Exactly
// the weight fields of its Kind must be populated:
//
//   - matmul: M (the weight matrix of C = M·X; also serves MatVec-shaped
//     fully-connected layers)
//   - conv2d: Kernels ([kernel][channel][ky][kx], the /v1/conv2d stack)
//   - infer: Conv (optional convolutional front end), FC (optional
//     classes×features head; nil = global average pool), Classes
type Spec struct {
	Name    string `json:"name"`
	Version string `json:"version"`
	Kind    Kind   `json:"kind"`

	M       [][]float64     `json:"m,omitempty"`
	Kernels [][][][]float64 `json:"kernels,omitempty"`

	Conv    *ConvSpec   `json:"conv,omitempty"`
	FC      [][]float64 `json:"fc,omitempty"`
	Classes int         `json:"classes,omitempty"`
}

// Ref is the model's resolvable identity, "name@version".
func (s *Spec) Ref() string { return s.Name + "@" + s.Version }

// SplitRef separates a "name@version" reference. ok is false when the
// string carries no version separator.
func SplitRef(ref string) (name, version string, ok bool) {
	i := strings.LastIndex(ref, "@")
	if i <= 0 || i == len(ref)-1 {
		return ref, "", false
	}
	return ref[:i], ref[i+1:], true
}

// Validate checks the spec is self-consistent and registerable, and
// normalizes an empty version to "v1". Weight payloads must be non-empty,
// rectangular, and finite — the same gate the inline request paths apply,
// enforced once here so by-reference serving can skip per-request weight
// scans.
func (s *Spec) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("registry: model name is required")
	}
	if strings.ContainsAny(s.Name, "@/\\ \t\n") {
		return fmt.Errorf("registry: model name %q must not contain '@', path separators, or whitespace", s.Name)
	}
	if s.Version == "" {
		s.Version = "v1"
	}
	if strings.ContainsAny(s.Version, "@/\\ \t\n") {
		return fmt.Errorf("registry: model version %q must not contain '@', path separators, or whitespace", s.Version)
	}
	switch s.Kind {
	case KindMatMul:
		if s.Kernels != nil || s.Conv != nil || s.FC != nil {
			return fmt.Errorf("registry: matmul model %s must set only m", s.Ref())
		}
		return checkMatrix("m", s.M)
	case KindConv2D:
		if s.M != nil || s.Conv != nil || s.FC != nil {
			return fmt.Errorf("registry: conv2d model %s must set only kernels", s.Ref())
		}
		return s.checkKernelStack()
	case KindInfer:
		if s.M != nil || s.Kernels != nil {
			return fmt.Errorf("registry: infer model %s must set conv/fc/classes, not m or kernels", s.Ref())
		}
		return s.checkInferStack()
	case "":
		return fmt.Errorf("registry: model %s needs a kind (matmul, conv2d, or infer)", s.Ref())
	default:
		return fmt.Errorf("registry: unknown model kind %q (want matmul, conv2d, or infer)", s.Kind)
	}
}

func (s *Spec) checkKernelStack() error {
	k := s.Kernels
	if len(k) == 0 || len(k[0]) == 0 || len(k[0][0]) == 0 || len(k[0][0][0]) == 0 {
		return fmt.Errorf("registry: kernels must be a non-empty [kernel][channel][ky][kx] stack")
	}
	kc, kh, kw := len(k[0]), len(k[0][0]), len(k[0][0][0])
	for ki := range k {
		if len(k[ki]) != kc {
			return fmt.Errorf("registry: kernel %d has %d channels, kernel 0 has %d", ki, len(k[ki]), kc)
		}
		for c := range k[ki] {
			if len(k[ki][c]) != kh {
				return fmt.Errorf("registry: kernel %d channel %d has %d rows, want %d", ki, c, len(k[ki][c]), kh)
			}
			for y := range k[ki][c] {
				if len(k[ki][c][y]) != kw {
					return fmt.Errorf("registry: kernel %d channel %d row %d has %d columns, want %d", ki, c, y, len(k[ki][c][y]), kw)
				}
				for _, v := range k[ki][c][y] {
					if math.IsNaN(v) || math.IsInf(v, 0) {
						return fmt.Errorf("registry: kernel entries must be finite")
					}
				}
			}
		}
	}
	return nil
}

func (s *Spec) checkInferStack() error {
	if s.Conv == nil && s.FC == nil {
		return fmt.Errorf("registry: infer model %s needs a conv front end, an fc head, or both", s.Ref())
	}
	if cv := s.Conv; cv != nil {
		if cv.InW <= 0 || cv.InH <= 0 || cv.InC <= 0 || cv.KW <= 0 || cv.KH <= 0 || cv.NumKernels <= 0 {
			return fmt.Errorf("registry: infer model %s conv geometry must be positive", s.Ref())
		}
		if cv.Stride <= 0 {
			return fmt.Errorf("registry: infer model %s conv stride must be positive", s.Ref())
		}
		if cv.Pad < 0 {
			return fmt.Errorf("registry: infer model %s conv pad must be non-negative", s.Ref())
		}
		if (cv.InW+2*cv.Pad-cv.KW)/cv.Stride+1 <= 0 || (cv.InH+2*cv.Pad-cv.KH)/cv.Stride+1 <= 0 {
			return fmt.Errorf("registry: infer model %s conv leaves no output", s.Ref())
		}
		if err := checkMatrix("conv.kernels", cv.Kernels); err != nil {
			return err
		}
		if len(cv.Kernels) != cv.NumKernels || len(cv.Kernels[0]) != cv.InC*cv.KH*cv.KW {
			return fmt.Errorf("registry: infer model %s conv.kernels is %d×%d, geometry wants %d×%d",
				s.Ref(), len(cv.Kernels), len(cv.Kernels[0]), cv.NumKernels, cv.InC*cv.KH*cv.KW)
		}
	}
	if s.FC != nil {
		if err := checkMatrix("fc", s.FC); err != nil {
			return err
		}
		if s.Classes != 0 && s.Classes != len(s.FC) {
			return fmt.Errorf("registry: infer model %s classes %d does not match fc rows %d", s.Ref(), s.Classes, len(s.FC))
		}
		s.Classes = len(s.FC)
	} else if s.Classes != 0 && s.Classes != s.Conv.NumKernels {
		// Pool-only head: the per-kernel averages are the class scores.
		return fmt.Errorf("registry: infer model %s classes %d does not match pooled kernel count %d",
			s.Ref(), s.Classes, s.Conv.NumKernels)
	} else if s.FC == nil {
		s.Classes = s.Conv.NumKernels
	}
	return nil
}

func checkMatrix(field string, m [][]float64) error {
	if len(m) == 0 || len(m[0]) == 0 {
		return fmt.Errorf("registry: %s must be a non-empty matrix", field)
	}
	for i, row := range m {
		if len(row) != len(m[0]) {
			return fmt.Errorf("registry: %s is ragged: row %d has %d columns, row 0 has %d", field, i, len(row), len(m[0]))
		}
		for _, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("registry: %s entries must be finite", field)
			}
		}
	}
	return nil
}

// RavelKernels flattens a conv2d kernel stack into one row per kernel in
// channel-major (c, ky, kx) order — the exact matrix Conv2D programs into
// the mesh, and the exact flattening the cluster router fingerprints.
func RavelKernels(kernels [][][][]float64) [][]float64 {
	rows := make([][]float64, len(kernels))
	for k, kern := range kernels {
		var row []float64
		for _, ch := range kern {
			for _, r := range ch {
				row = append(row, r...)
			}
		}
		rows[k] = row
	}
	return rows
}

// Weights returns the dense matrices the engine will program when this
// model serves, in layer order — the prewarmer compiles and pins each.
func (s *Spec) Weights() [][][]float64 {
	switch s.Kind {
	case KindMatMul:
		return [][][]float64{s.M}
	case KindConv2D:
		return [][][]float64{RavelKernels(s.Kernels)}
	case KindInfer:
		var ws [][][]float64
		if s.Conv != nil {
			ws = append(ws, s.Conv.Kernels)
		}
		if s.FC != nil {
			ws = append(ws, s.FC)
		}
		return ws
	}
	return nil
}

// RoutingKey is the raw-bit affinity key a cluster router shards this
// model's by-reference requests on. For matmul and conv2d it is exactly the
// fingerprint an inline request with the same weights hashes to, so by-name
// and inline traffic land on the same warm node; infer models route by
// reference (inline infer has no weight bytes to fingerprint either).
func (s *Spec) RoutingKey() string {
	switch s.Kind {
	case KindMatMul:
		return wfp.Matrix(s.M)
	case KindConv2D:
		return wfp.Matrix(RavelKernels(s.Kernels))
	default:
		return "model:" + s.Ref()
	}
}
