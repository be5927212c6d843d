// Image blur end-to-end: blur a synthetic RGB image two ways — digitally,
// and through a photonic Flumen partition programmed with the Gaussian
// kernel's im2col matrix — then verify the photonic result pixel-by-pixel
// and run the full-system benchmark comparing the electrical mesh against
// Flumen with dynamic offload (the paper's Image Blur workload, Sec 4.2).
package main

import (
	"fmt"
	"log"
	"math"

	"flumen"
	"flumen/internal/workload"
)

func main() {
	const side = 64 // keep the numerical demo fast; the benchmark uses 256
	blur := workload.NewImageBlur(side, side)
	img := blur.RandomImage(7)
	ref := blur.Reference(img)

	// Photonic path: the 1×9 kernel matrix zero-pads into 8×8 blocks; the
	// accelerator streams every im2col patch through the programmed
	// partition at 8-bit precision.
	acc, err := flumen.NewAccelerator(16, 8)
	if err != nil {
		log.Fatal(err)
	}
	kernel := [][]float64{workload.GaussianKernel3x3}
	shape := blur.Shape()

	var worst, sum float64
	var count int
	for ch := 0; ch < 3; ch++ {
		// One patch per column; batch all patches as the RHS matrix.
		out, err := acc.MatMul(kernel, workload.Im2Col(shape, img[ch]))
		if err != nil {
			log.Fatal(err)
		}
		for p := 0; p < shape.Patches(); p++ {
			want := ref[ch].At(p%shape.OutW(), p/shape.OutW(), 0)
			d := math.Abs(out[0][p] - want)
			if d > worst {
				worst = d
			}
			sum += d * d
			count++
		}
	}
	st := acc.Stats()
	programs, batches := st.Programs, st.Batches
	fmt.Printf("photonic blur of a %d×%d RGB image (8-bit analog):\n", side, side)
	fmt.Printf("  max pixel error %.5f, rms %.5f (pixel range [0,1))\n",
		worst, math.Sqrt(sum/float64(count)))
	fmt.Printf("  %d phase programs, %d wavelength batches, %.0f pJ photonic compute\n\n",
		programs, batches, acc.EnergyPJ())

	// Full-system benchmark at paper scale.
	cfg := flumen.DefaultConfig()
	mesh, err := flumen.RunBenchmark("ImageBlur", "Mesh", cfg)
	if err != nil {
		log.Fatal(err)
	}
	fa, err := flumen.RunBenchmark("ImageBlur", "Flumen-A", cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("full-system Image Blur (256×256, 64 cores):")
	fmt.Printf("  Mesh:     %7d cycles  %8.1f µJ\n", mesh.Cycles, mesh.Energy.TotalPJ()/1e6)
	fmt.Printf("  Flumen-A: %7d cycles  %8.1f µJ  (%d kernels offloaded)\n",
		fa.Cycles, fa.Energy.TotalPJ()/1e6, fa.OffloadsGranted)
	fmt.Printf("  speedup %.2f×, energy gain %.2f×, EDP gain %.2f×\n",
		fa.SpeedupOver(mesh), fa.EnergyGainOver(mesh), fa.EDPGainOver(mesh))
}
