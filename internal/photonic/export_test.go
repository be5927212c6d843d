package photonic

import (
	"fmt"
	"math"

	"flumen/internal/mat"
)

// NumOps returns the number of MZI applications in the plan.
func (pl *CompiledPlan) NumOps() int { return len(pl.wires) }

// Steps returns how many drift steps have elapsed.
func (fi *FaultInjector) Steps() int64 {
	fi.mu.Lock()
	defer fi.mu.Unlock()
	return fi.steps
}

// ProgramScaled programs the partition with m/‖m‖₂ and records the scale in
// p.Scale; callers multiply outputs by p.Scale (Sec 3.3.1). A zero
// matrix programs the zero map with Scale 0.
func (p *Partition) ProgramScaled(m *mat.Dense) error {
	if m.Rows() != p.Size || m.Cols() != p.Size {
		return fmt.Errorf("photonic: partition is %d-input, matrix is %d×%d", p.Size, m.Rows(), m.Cols())
	}
	bp, err := CompileBlockScaled(m)
	if err != nil {
		return err
	}
	return p.Apply(bp)
}

// Splitter returns an MZI that sends fraction r of the power entering the
// top port to the top output (bar-like path) and 1-r to the bottom output.
// r=0.5 gives the 50:50 split used to build broadcast trees (Fig. 6b).
func Splitter(r float64) MZI {
	if r < 0 || r > 1 {
		panic(fmt.Sprintf("photonic: split ratio %g outside [0,1]", r))
	}
	// Power at top output from top input is |T00|² = sin²(θ/2).
	return MZI{Theta: 2 * math.Asin(math.Sqrt(r))}
}
