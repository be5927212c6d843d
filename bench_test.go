package flumen

// This file is the benchmark harness indexed in DESIGN.md: one testing.B
// bench per table/figure of the paper's evaluation, plus ablation benches
// for the design choices DESIGN.md calls out. Each bench reports the
// figure's headline quantities as custom metrics so
// `go test -bench=. -benchmem` regenerates the evaluation in one run.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"flumen/internal/core"
	"flumen/internal/energy"
	"flumen/internal/mat"
	"flumen/internal/noc"
	"flumen/internal/optics"
	"flumen/internal/photonic"
	"flumen/internal/workload"
)

// benchWorkload returns a scaled workload (keeps bench iterations fast
// while preserving the traffic and compute shape).
func benchWorkload(b *testing.B, name string, scale int) workload.Workload {
	b.Helper()
	for _, w := range workload.ScaledAll(scale) {
		if w.Name() == name {
			return w
		}
	}
	b.Fatalf("no workload %q", name)
	return nil
}

func mustRun(b *testing.B, w workload.Workload, topo string, cfg Config) Result {
	b.Helper()
	res, err := RunWorkload(w, topo, cfg)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkFig01LinkUtilization regenerates Fig. 1: average photonic link
// utilization for Image Blur and VGG16 FC at 16/32/64 wavelengths.
func BenchmarkFig01LinkUtilization(b *testing.B) {
	for _, name := range []string{"ImageBlur", "VGG16FC"} {
		for _, lambdas := range []int{16, 32, 64} {
			b.Run(fmt.Sprintf("%s/%dlambda", name, lambdas), func(b *testing.B) {
				w := benchWorkload(b, name, 2)
				cfg := DefaultConfig()
				cfg.Wavelengths = lambdas
				var util float64
				for i := 0; i < b.N; i++ {
					util = mustRun(b, w, "Flumen-I", cfg).AvgLinkUtilization
				}
				b.ReportMetric(100*util, "util%")
			})
		}
	}
}

// BenchmarkFig11SyntheticTraffic regenerates Fig. 11: latency versus load
// for each topology and pattern at a representative moderate load.
func BenchmarkFig11SyntheticTraffic(b *testing.B) {
	np := core.DefaultNetworkParams()
	mks := []struct {
		name string
		mk   func() noc.Network
	}{
		{"Ring", func() noc.Network { return noc.NewRing(np.Nodes, np.RingWidthBits, np.BufPackets) }},
		{"Mesh", func() noc.Network { return noc.NewMesh(4, 4, np.MeshWidthBits, np.BufPackets) }},
		{"OptBus", func() noc.Network { return noc.NewOptBus(np.Nodes, np.BusChannels, np.BusWidthBits) }},
		{"Flumen", func() noc.Network { return noc.NewMZIM(np.Nodes, np.MZIMWidthBits, np.MZIMSetupCycles) }},
	}
	pats := []noc.Pattern{noc.Uniform(np.Nodes), noc.BitReversal(np.Nodes), noc.Shuffle(np.Nodes)}
	cfg := noc.DefaultRunConfig()
	cfg.MeasureCycles = 4000
	for _, m := range mks {
		for _, pat := range pats {
			b.Run(m.name+"/"+pat.Name, func(b *testing.B) {
				var lat float64
				for i := 0; i < b.N; i++ {
					lat = noc.RunSynthetic(m.mk(), pat, 0.02, cfg).AvgLatency
				}
				b.ReportMetric(lat, "cycles/pkt")
			})
		}
	}
}

// BenchmarkFig12aLaserPower regenerates Fig. 12a: laser power for OptBus
// and Flumen at the paper's quoted point (32 λ, 0.1 dB MRR thru loss).
func BenchmarkFig12aLaserPower(b *testing.B) {
	d := optics.DefaultDevices()
	var ob, fl float64
	for i := 0; i < b.N; i++ {
		ob = optics.OptBusLaserPowerMW(d, 16, 32, 1)
		fl = optics.FlumenLaserPowerMW(d, 16, 32, 1)
	}
	b.ReportMetric(ob, "optbus-mW")
	b.ReportMetric(fl*1000, "flumen-uW")
	b.ReportMetric(ob/fl, "ratio")
}

// BenchmarkFig12bComputeEnergy regenerates Fig. 12b: Flumen vs electrical
// MAC energy at the paper's anchor points.
func BenchmarkFig12bComputeEnergy(b *testing.B) {
	p := energy.Default()
	for _, tc := range []struct{ n, v int }{{8, 4}, {16, 8}, {64, 1}, {64, 8}} {
		b.Run(fmt.Sprintf("%dx%d-%dvec", tc.n, tc.n, tc.v), func(b *testing.B) {
			var e, f float64
			for i := 0; i < b.N; i++ {
				e = p.ElecMatMulPJ(tc.n, tc.v)
				f = p.FlumenComputePJ(tc.n, tc.v)
			}
			b.ReportMetric(e, "elec-pJ")
			b.ReportMetric(f, "flumen-pJ")
			b.ReportMetric(e/f, "gain")
		})
	}
}

// BenchmarkFig12cMACEnergy regenerates Fig. 12c: per-MAC energy across
// MZIM dimension and wavelength count.
func BenchmarkFig12cMACEnergy(b *testing.B) {
	p := energy.Default()
	for _, n := range []int{8, 16, 64} {
		for _, v := range []int{1, 8} {
			b.Run(fmt.Sprintf("dim%d-%dlambda", n, v), func(b *testing.B) {
				var e float64
				for i := 0; i < b.N; i++ {
					e = p.FlumenMACEnergyPJ(n, v)
				}
				b.ReportMetric(e*1000, "fJ/MAC")
			})
		}
	}
}

// BenchmarkFig13Energy regenerates Fig. 13: total energy per benchmark on
// Mesh and Flumen-A, reporting the energy gain.
func BenchmarkFig13Energy(b *testing.B) {
	for _, name := range Benchmarks() {
		b.Run(name, func(b *testing.B) {
			w := benchWorkload(b, name, 2)
			cfg := DefaultConfig()
			var gain float64
			for i := 0; i < b.N; i++ {
				mesh := mustRun(b, w, "Mesh", cfg)
				fa := mustRun(b, w, "Flumen-A", cfg)
				gain = fa.EnergyGainOver(mesh)
			}
			b.ReportMetric(gain, "energy-gain")
		})
	}
}

// BenchmarkFig14Speedup regenerates Fig. 14: Flumen-A speedup over Mesh.
func BenchmarkFig14Speedup(b *testing.B) {
	for _, name := range Benchmarks() {
		b.Run(name, func(b *testing.B) {
			w := benchWorkload(b, name, 2)
			cfg := DefaultConfig()
			var sp float64
			for i := 0; i < b.N; i++ {
				mesh := mustRun(b, w, "Mesh", cfg)
				fa := mustRun(b, w, "Flumen-A", cfg)
				sp = fa.SpeedupOver(mesh)
			}
			b.ReportMetric(sp, "speedup")
		})
	}
}

// BenchmarkFig15EDP regenerates Fig. 15: Flumen-A EDP gain over Mesh.
func BenchmarkFig15EDP(b *testing.B) {
	for _, name := range Benchmarks() {
		b.Run(name, func(b *testing.B) {
			w := benchWorkload(b, name, 2)
			cfg := DefaultConfig()
			var gain float64
			for i := 0; i < b.N; i++ {
				mesh := mustRun(b, w, "Mesh", cfg)
				fa := mustRun(b, w, "Flumen-A", cfg)
				gain = fa.EDPGainOver(mesh)
			}
			b.ReportMetric(gain, "edp-gain")
		})
	}
}

// BenchmarkSec51Area regenerates the Sec 5.1 area anchors.
func BenchmarkSec51Area(b *testing.B) {
	a := energy.DefaultArea()
	var mzim, system float64
	for i := 0; i < b.N; i++ {
		mzim = a.MZIMAreaMM2(8)
		system = a.FlumenSystemMM2(16, 8)
	}
	b.ReportMetric(mzim, "mzim8-mm2")
	b.ReportMetric(system, "system-mm2")
	b.ReportMetric(a.MZIMAreaMM2(64), "mzim64-mm2")
}

// BenchmarkSchedulerSensitivity regenerates the Sec 3.4 parameter study:
// runtime at the paper's τ=100 point versus a starved τ=800 configuration.
func BenchmarkSchedulerSensitivity(b *testing.B) {
	w := benchWorkload(b, "JPEG", 2)
	for _, tau := range []int64{25, 100, 400, 800} {
		b.Run(fmt.Sprintf("tau%d", tau), func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.Tau = tau
			var cycles int64
			for i := 0; i < b.N; i++ {
				cycles = mustRun(b, w, "Flumen-A", cfg).Cycles
			}
			b.ReportMetric(float64(cycles), "cycles")
		})
	}
}

// --- Ablation benches (DESIGN.md Sec 4) ---

// BenchmarkAblationProgramPipelining compares Flumen-A with and without
// the double-buffered phase-DAC assumption on the zero-reuse VGG16 FC
// workload, where every block requires a fresh program.
func BenchmarkAblationProgramPipelining(b *testing.B) {
	w := benchWorkload(b, "VGG16FC", 2)
	for _, disabled := range []bool{false, true} {
		name := "pipelined"
		if disabled {
			name = "serialized"
		}
		b.Run(name, func(b *testing.B) {
			cfg := DefaultConfig()
			cfg.DisableProgramPipelining = disabled
			var cycles int64
			for i := 0; i < b.N; i++ {
				cycles = mustRun(b, w, "Flumen-A", cfg).Cycles
			}
			b.ReportMetric(float64(cycles), "cycles")
		})
	}
}

// BenchmarkAblationArbiterLookahead compares the MZIM crossbar's
// saturation behaviour with FIFO head-of-line blocking (lookahead 1)
// against the default depth-2 request scan.
func BenchmarkAblationArbiterLookahead(b *testing.B) {
	cfg := noc.DefaultRunConfig()
	cfg.MeasureCycles = 4000
	for _, k := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("lookahead%d", k), func(b *testing.B) {
			var lat float64
			for i := 0; i < b.N; i++ {
				net := noc.NewMZIM(16, 256, 3)
				net.SetLookahead(k)
				lat = noc.RunSynthetic(net, noc.Uniform(16), 0.12, cfg).AvgLatency
			}
			b.ReportMetric(lat, "cycles/pkt")
		})
	}
}

// BenchmarkAblationLossEqualization measures the receiver power spread of
// a routed permutation with and without the Flumen attenuator column
// (Sec 3.1.2's motivation for the added MZI column).
func BenchmarkAblationLossEqualization(b *testing.B) {
	d := optics.DefaultDevices()
	perMZI := d.MZIInsertionLossDB()
	perm := []int{3, 7, 0, 5, 1, 6, 2, 4}
	var rawSpreadDB, eqSpreadDB float64
	for i := 0; i < b.N; i++ {
		f := photonic.NewFlumenMesh(8)
		f.RoutePermutation(perm)
		minC, maxC := 1<<30, 0
		for src := 0; src < 8; src++ {
			c, _ := f.PathMZICount(src)
			if c < minC {
				minC = c
			}
			if c > maxC {
				maxC = c
			}
		}
		rawSpreadDB = float64(maxC-minC) * perMZI
		f.EqualizeLoss(perMZI)
		// After equalization all paths see the worst-case loss: spread 0.
		var lo, hi float64 = math.Inf(1), math.Inf(-1)
		for src := 0; src < 8; src++ {
			count, dst := f.PathMZICount(src)
			in := make([]complex128, 8)
			in[src] = 1
			out := f.Forward(in)
			p := real(out[dst])*real(out[dst]) + imag(out[dst])*imag(out[dst])
			total := float64(count)*perMZI - 10*math.Log10(p)
			if total < lo {
				lo = total
			}
			if total > hi {
				hi = total
			}
		}
		eqSpreadDB = hi - lo
	}
	b.ReportMetric(rawSpreadDB, "raw-spread-dB")
	b.ReportMetric(eqSpreadDB, "equalized-spread-dB")
}

// --- Substrate micro-benches ---

// BenchmarkClementsProgram measures programming an 8×8 unitary into a mesh
// (decomposition + placement), the per-matrix software cost of the
// simulator's compute path.
func BenchmarkClementsProgram(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	u := mat.RandomUnitary(8, rng)
	m := photonic.NewMesh(8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ProgramUnitary(u)
	}
}

// BenchmarkPartitionProgram measures SVD-programming a 4-input Flumen
// partition with an arbitrary contractive matrix.
func BenchmarkPartitionProgram(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	a := mat.RandomDense(4, 4, rng)
	a = mat.Scale(complex(0.9/mat.SpectralNorm(a), 0), a)
	f := photonic.NewFlumenMesh(8)
	p, err := f.NewPartition(0, 4)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := p.Program(a); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPhotonicMVM measures one E-field forward propagation through an
// 8-input Flumen fabric.
func BenchmarkPhotonicMVM(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	f := photonic.NewFlumenMesh(8)
	f.ProgramUnitary(mat.RandomUnitary(8, rng))
	in := make([]complex128, 8)
	for i := range in {
		in[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Forward(in)
	}
}

// BenchmarkSVD measures the one-sided Jacobi SVD on an 8×8 complex matrix.
func BenchmarkSVD(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	a := mat.RandomDense(8, 8, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mat.SVD(a)
	}
}

// BenchmarkNoCCycle measures the host cost of one simulated cycle of each
// NoP alone, Bernoulli injection included, well below saturation (0.02
// packets per node per cycle: the cycle is mostly empty) and at or past it
// (0.3; a refused injection is dropped, so the load stays bounded).
func BenchmarkNoCCycle(b *testing.B) {
	np := core.DefaultNetworkParams()
	for _, kind := range []core.TopologyKind{core.TopoRing, core.TopoMesh, core.TopoOptBus, core.TopoFlumenI} {
		for _, rate := range []float64{0.02, 0.3} {
			b.Run(fmt.Sprintf("%s/rate=%g", kind, rate), func(b *testing.B) {
				net := core.BuildNetwork(kind, np)
				pat := noc.Uniform(np.Nodes)
				rng := rand.New(rand.NewSource(5))
				var id int64
				b.ReportAllocs()
				b.ResetTimer()
				for cycle := int64(0); cycle < int64(b.N); cycle++ {
					for src := 0; src < np.Nodes; src++ {
						if rng.Float64() < rate {
							net.Inject(&noc.Packet{ID: id, Src: src, Dst: pat.Dest(src, rng), Bits: 640}, cycle)
							id++
						}
					}
					net.Step(cycle)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/cycle")
			})
		}
	}
}

// BenchmarkFullSystem measures a complete scaled benchmark run (the unit of
// work behind Figs 13-15) for each paper kernel on the electrical mesh,
// where the cores compute, and on Flumen-A, where they offload.
func BenchmarkFullSystem(b *testing.B) {
	for _, name := range Benchmarks() {
		for _, topo := range []string{"Mesh", "Flumen-A"} {
			b.Run(name+"/"+topo, func(b *testing.B) {
				w := benchWorkload(b, name, 4)
				cfg := DefaultConfig()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					mustRun(b, w, topo, cfg)
				}
			})
		}
	}
}

// --- Engine benches (parallel compute engine & program cache) ---

// BenchmarkEngineMatMul measures the accelerator's MatMul at 64×64 and
// 256×256 with the serial path (1 worker) versus the full partition pool,
// cache disabled so the per-block SVD + Clements cost is on the measured
// path. The standing benchmark carries the same comparison as
// `flumen.parallel_speedup`.
func BenchmarkEngineMatMul(b *testing.B) {
	for _, size := range []int{64, 256} {
		rng := rand.New(rand.NewSource(31))
		m := randMatrix(rng, size, size)
		x := randMatrix(rng, size, size)
		for _, mode := range []struct {
			name    string
			workers int
		}{{"serial", 1}, {"parallel", 0}} {
			b.Run(fmt.Sprintf("%dx%d/%s", size, size, mode.name), func(b *testing.B) {
				a, err := NewAccelerator(64, 8)
				if err != nil {
					b.Fatal(err)
				}
				a.SetProgramCacheSize(0) // measure the uncached path
				if mode.workers > 0 {
					a.SetWorkers(mode.workers)
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := a.MatMul(m, x); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(a.Workers()), "workers")
			})
		}
	}
}

// BenchmarkEngineConv2DCache measures a small convolution (kernel
// programming dominates) cold — cache cleared every iteration — versus
// warm, where every block program is served from the weight cache and the
// SVD + Clements decomposition is skipped.
func BenchmarkEngineConv2DCache(b *testing.B) {
	rng := rand.New(rand.NewSource(32))
	input := make([][][]float64, 3)
	for c := range input {
		input[c] = make([][]float64, 4)
		for y := range input[c] {
			input[c][y] = make([]float64, 4)
			for x := range input[c][y] {
				input[c][y][x] = rng.NormFloat64()
			}
		}
	}
	kernels := make([][][][]float64, 8)
	for k := range kernels {
		kernels[k] = make([][][]float64, 3)
		for c := range kernels[k] {
			kernels[k][c] = make([][]float64, 3)
			for y := range kernels[k][c] {
				kernels[k][c][y] = make([]float64, 3)
				for x := range kernels[k][c][y] {
					kernels[k][c][y][x] = rng.NormFloat64()
				}
			}
		}
	}
	conv := func(b *testing.B, a *Accelerator) {
		if _, err := a.Conv2D(input, kernels, 1, 1); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("cold", func(b *testing.B) {
		a, err := NewAccelerator(16, 8)
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			a.SetProgramCacheSize(DefaultProgramCacheSize) // clear: next call recompiles
			b.StartTimer()
			conv(b, a)
		}
	})
	b.Run("warm", func(b *testing.B) {
		a, err := NewAccelerator(16, 8)
		if err != nil {
			b.Fatal(err)
		}
		conv(b, a) // prime the cache
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			conv(b, a)
		}
	})
}
