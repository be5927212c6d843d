package flumen

import (
	"context"
	"math/rand"
	"testing"
)

// Engine-level MatMul benchmarks: a warm 256×256·256 product at both block
// sizes. The program cache is sized to the sweep's block count so the
// steady state is genuinely warm (an evicted program drops its plan with
// it).

func benchEngineMatMul(b *testing.B, blockSize, size, nrhs int) {
	a, err := NewAccelerator(64, blockSize)
	if err != nil {
		b.Fatal(err)
	}
	a.SetProgramCacheSize((size / blockSize) * (size / blockSize)) // hold every block of the sweep
	rng := rand.New(rand.NewSource(3))
	m := randMatrix(rng, size, size)
	x := randMatrix(rng, size, nrhs)
	if _, err := a.MatMul(m, x); err != nil { // prime caches
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.MatMul(m, x); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineMatMul256(b *testing.B)    { benchEngineMatMul(b, 8, 256, 256) }
func BenchmarkEngineMatMul256B32(b *testing.B) { benchEngineMatMul(b, 32, 256, 256) }

// BenchmarkEngineWarmWide is the engine call the standing benchmark's
// serve_wide workload makes: a 64×64·64 product on a 32-port, block-8
// accelerator whose 64 block programs and plans are already cached.
func BenchmarkEngineWarmWide(b *testing.B) {
	a, err := NewAccelerator(32, 8)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	m := randMatrix(rng, 64, 64)
	x := randMatrix(rng, 64, 64)
	if _, err := a.MatMul(m, x); err != nil { // prime caches
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := a.MatMul(m, x); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineColdMatMul is the engine call the standing benchmark's
// serve_cold workload makes on a miss: a 32×32·4 product on a 32-port,
// block-8 accelerator, with a matrix the cache has not seen each iteration,
// so all 16 blocks are compiled.
func BenchmarkEngineColdMatMul(b *testing.B) {
	a, err := NewAccelerator(32, 8)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	x := randMatrix(rng, 32, 4)
	ms := make([][][]float64, 64)
	for i := range ms {
		ms[i] = randMatrix(rng, 32, 32)
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := ms[i%len(ms)]
		for r := 0; r < 32; r += 8 { // one fresh entry per block
			for c := 0; c < 32; c += 8 {
				m[r][c] = float64(i + 1)
			}
		}
		if _, err := a.MatMulCtx(ctx, m, x); err != nil {
			b.Fatal(err)
		}
	}
}
