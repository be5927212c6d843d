package photonic

import (
	"math"
	"math/rand"
	"sync"

	"flumen/internal/mat"
)

// Runtime fault injection: the package's one imperfection model, a mesh
// that degrades while it serves. Three mechanisms, matching the failure
// taxonomy of the photonic accelerator reliability literature (LuxIA;
// Al-Qadasi et al.):
//
//   - random-walk phase drift: every tunable phase wanders by N(0, σ²)
//     radians per step (thermal crosstalk, aging) — compensable by
//     re-tuning;
//   - stuck phase shifters: the actuator no longer responds, so the device
//     holds a fixed random phase pair regardless of programming — not
//     compensable locally, partially compensable by its neighbours;
//   - dead MZIs: actuation failed entirely and the device sits at its bar
//     rest state — again only neighbour-compensable.
//
// A FaultInjector is attached per compute partition. The engine executes
// every program on a faulty partition through the plan Corrupt compiles —
// the faults become coefficients, the executor stays the one ForwardBatch —
// so compute results degrade exactly as the injected device state dictates,
// and the health monitor's calibration probes observe the same corrupted
// lattice the workload does. Recalibrate, the package's one calibration
// loop, tunes per-device correction phases in place from measurements, the
// in-situ matrix optimisation of the paper's programming reference ([33]
// Pai et al.): it nulls accumulated drift and partially compensates stuck
// and dead devices.

// FaultConfig parameterizes a partition's runtime fault injector.
type FaultConfig struct {
	// DriftSigma is the per-step random-walk standard deviation, in
	// radians, applied to every live device's θ and φ.
	DriftSigma float64
	// StuckFrac is the fraction of lattice devices whose phase shifters
	// freeze at a random setting and ignore programming.
	StuckFrac float64
	// DeadFrac is the fraction of lattice devices that fail to the bar
	// rest state entirely.
	DeadFrac float64
	// Seed makes the fault realization and drift walk reproducible.
	Seed int64
}

// deviceFault is one lattice device's runtime state: accumulated drift,
// calibration corrections, and its static failure mode.
type deviceFault struct {
	driftTheta, driftPhi float64
	corrTheta, corrPhi   float64
	stuck                bool
	stuckTheta, stuckPhi float64
	dead                 bool
}

// FaultInjector carries the time-evolving fault state of one compute
// partition's SVD lattice (both the V* and U MZI lattices of a
// size-input BlockProgram). All methods are safe for concurrent use.
type FaultInjector struct {
	mu   sync.Mutex
	size int
	cfg  FaultConfig
	rng  *rand.Rand
	// v and u hold each lattice's devices in the program's slot layout,
	// indexed column·size + topWire like BlockProgram.vSlots/uSlots.
	v, u  []deviceFault
	steps int64
}

// forEachSlot calls f with every slot index column·size + topWire of a
// size-input lattice in physical order — columns ascending, the wires of a
// column's parity ascending — the order of a program plan's ops within each
// lattice, and of every draw the injector makes.
func forEachSlot(size int, f func(s int)) {
	for c := 0; c < size; c++ {
		for s := c*size + c%2; s < (c+1)*size-1; s += 2 {
			f(s)
		}
	}
}

// NewFaultInjector builds the fault state for a size-input partition:
// stuck and dead devices are drawn once (static failures), drift starts at
// zero and accumulates through Step.
func NewFaultInjector(size int, cfg FaultConfig) *FaultInjector {
	fi := &FaultInjector{
		size: size,
		cfg:  cfg,
		rng:  rand.New(rand.NewSource(cfg.Seed)),
		v:    make([]deviceFault, size*size),
		u:    make([]deviceFault, size*size),
	}
	for _, lattice := range [2][]deviceFault{fi.v, fi.u} {
		forEachSlot(size, func(s int) {
			d := &lattice[s]
			switch p := fi.rng.Float64(); {
			case p < cfg.StuckFrac:
				d.stuck = true
				d.stuckTheta = fi.rng.Float64() * math.Pi
				d.stuckPhi = fi.rng.Float64() * 2 * math.Pi
			case p < cfg.StuckFrac+cfg.DeadFrac:
				d.dead = true
			}
		})
	}
	return fi
}

// SetDriftSigma changes the per-step drift rate at runtime: 0 freezes the
// walk (a transient fault source abating), leaving accumulated drift and
// corrections in place; a larger value models worsening conditions.
func (fi *FaultInjector) SetDriftSigma(sigma float64) {
	fi.mu.Lock()
	fi.cfg.DriftSigma = sigma
	fi.mu.Unlock()
}

// Step advances the drift random walk by n steps: every live device's θ
// and φ each gain N(0, n·σ²) radians (the exact n-step walk in one draw).
func (fi *FaultInjector) Step(n int) {
	if n <= 0 {
		return
	}
	fi.mu.Lock()
	defer fi.mu.Unlock()
	fi.steps += int64(n)
	if fi.cfg.DriftSigma == 0 {
		return
	}
	s := fi.cfg.DriftSigma * math.Sqrt(float64(n))
	for _, lattice := range [2][]deviceFault{fi.v, fi.u} {
		forEachSlot(fi.size, func(i int) {
			if d := &lattice[i]; !d.stuck && !d.dead {
				d.driftTheta += fi.rng.NormFloat64() * s
				d.driftPhi += fi.rng.NormFloat64() * s
			}
		})
	}
}

// faultedTransfer returns the physical 2×2 transfer the faulty device
// realizes when programmed with op.
func (d *deviceFault) faultedTransfer(op MZI) [2][2]complex128 {
	switch {
	case d.dead:
		return Bar().Transfer()
	case d.stuck:
		return MZI{Theta: d.stuckTheta, Phi: d.stuckPhi}.Transfer()
	default:
		return MZI{
			Theta: op.Theta + d.driftTheta + d.corrTheta,
			Phi:   op.Phi + d.driftPhi + d.corrPhi,
		}.Transfer()
	}
}

// corruptInto writes into pl's coefficients the transfers the faulty
// devices realize when programmed with bp's slot settings, in the order of
// bp's plan ops: V* then U, each lattice in forEachSlot order.
func (fi *FaultInjector) corruptInto(pl *CompiledPlan, bp *BlockProgram) {
	o := 0
	lattice := func(slots []MZI, faults []deviceFault) {
		forEachSlot(fi.size, func(s int) {
			t := faults[s].faultedTransfer(slots[s])
			pl.t00[o], pl.t01[o], pl.t10[o], pl.t11[o] = t[0][0], t[0][1], t[1][0], t[1][1]
			o++
		})
	}
	lattice(bp.vSlots, fi.v)
	lattice(bp.uSlots, fi.u)
}

// corruptLocked is Corrupt with fi.mu already held: a plan sharing bp's
// wires and diagonal stages, with fresh coefficient arrays.
func (fi *FaultInjector) corruptLocked(bp *BlockProgram) *CompiledPlan {
	pl := bp.plan
	ops := len(pl.wires)
	pl.setCoef(make([]complex128, 4*ops), ops)
	fi.corruptInto(&pl, bp)
	return &pl
}

// Corrupt returns the plan the degraded hardware actually executes when bp
// is applied: bp's lattice with every MZI transfer replaced by what its
// device realizes under the injector's current state. bp itself is never
// mutated (it may be a shared cache entry). With no faults injected the
// plan is numerically identical to bp's.
func (fi *FaultInjector) Corrupt(bp *BlockProgram) *CompiledPlan {
	if bp.Size != fi.size {
		panic("photonic: FaultInjector size mismatch")
	}
	fi.mu.Lock()
	defer fi.mu.Unlock()
	return fi.corruptLocked(bp)
}

// MatrixError returns the maximum absolute element difference between the
// lattice bp physically realizes under the current fault state and the
// ideal compiled lattice, in the normalized (unit-spectral-norm) domain —
// the quantity a calibration probe measures.
func (fi *FaultInjector) MatrixError(bp *BlockProgram) float64 {
	return mat.MaxAbsDiff(fi.Corrupt(bp).Matrix(), bp.Matrix())
}

// Recalibrate tunes the correction phase pair of every responsive device
// by exact sinusoid coordinate descent against ref's ideal lattice,
// nulling accumulated drift and partially compensating stuck and dead
// neighbours. Every transfer entry is affine in e^{jx} for each single
// phase x, so the squared Frobenius error along one coordinate is exactly
// a + b·cos x + c·sin x: three measurements fix the sinusoid and its
// minimum in closed form (minimizeSinusoid). It returns the residual
// Frobenius error of the recalibrated lattice. Drift continues to
// accumulate after recalibration; corrections persist until the next
// Recalibrate.
func (fi *FaultInjector) Recalibrate(ref *BlockProgram, passes int) float64 {
	if ref.Size != fi.size {
		panic("photonic: FaultInjector size mismatch")
	}
	n := fi.size
	target := ref.plan.TransferInto(make([]complex128, n*n))
	fi.mu.Lock()
	defer fi.mu.Unlock()
	// Every probe recompiles the coefficients of one faulted plan in place,
	// measures its matrix into one slab (column-major, like target) and sums
	// ‖T − target‖²_F in place, in row-major order: the sum's rounding sets
	// every correction, so its order is part of Recalibrate's result.
	pl := fi.corruptLocked(ref)
	slab := make([]complex128, n*n)
	measure := func() float64 {
		fi.corruptInto(pl, ref)
		got := pl.TransferInto(slab)
		var s float64
		for i := 0; i < n; i++ {
			for k := i; k < n*n; k += n {
				d := got[k] - target[k]
				s += real(d)*real(d) + imag(d)*imag(d)
			}
		}
		return math.Sqrt(s)
	}
	err2 := func() float64 {
		d := measure()
		return d * d
	}
	for pass := 0; pass < passes; pass++ {
		for _, lattice := range [2][]deviceFault{fi.v, fi.u} {
			forEachSlot(n, func(s int) {
				if d := &lattice[s]; !d.stuck && !d.dead {
					minimizeSinusoid(&d.corrTheta, err2)
					minimizeSinusoid(&d.corrPhi, err2)
				}
			})
		}
	}
	return measure()
}

// minimizeSinusoid minimizes err2 over *p, exploiting the exact
// E²(x) = a + b·cos x + c·sin x form: three probes fix b and c, and *p
// jumps to the minimizer when a fourth probe confirms it improves.
func minimizeSinusoid(p *float64, err2 func() float64) {
	const d = 2 * math.Pi / 3
	x0 := *p
	e0 := err2()
	*p = x0 + d
	e1 := err2()
	*p = x0 - d
	e2 := err2()
	// With y = x − x0: E = a + b·cos y + c·sin y sampled at 0, ±2π/3.
	b := (2*e0 - e1 - e2) / 3
	c := (e1 - e2) / math.Sqrt(3)
	best := x0
	if b != 0 || c != 0 {
		yStar := math.Atan2(-c, -b) // minimizes b·cos y + c·sin y
		cand := x0 + yStar
		// Bring the candidate near x0's branch.
		for cand > x0+math.Pi {
			cand -= 2 * math.Pi
		}
		for cand < x0-math.Pi {
			cand += 2 * math.Pi
		}
		*p = cand
		if err2() < e0 {
			best = cand
		}
	}
	*p = best
}
