package fabricrun

import "math/rand"

// PumpMatrices builds the deterministic dim×dim operand pair the compute
// pump multiplies. The weight matrix is fixed across calls so repeated
// pumps hit the accelerator's weight-program cache, the same way a serving
// workload reuses its model weights.
func PumpMatrices(dim int, seed int64) (m, x [][]float64) {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	m = make([][]float64, dim)
	x = make([][]float64, dim)
	for i := 0; i < dim; i++ {
		m[i] = make([]float64, dim)
		x[i] = make([]float64, dim)
		for j := 0; j < dim; j++ {
			m[i][j] = rng.Float64()*2 - 1
			x[i][j] = rng.Float64()*2 - 1
		}
	}
	return m, x
}
