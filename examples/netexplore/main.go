// Network explorer: route a permutation through the Flumen fabric at the
// device level and inspect how many MZIs each path crosses — the spread
// that the attenuator column's loss equalization evens out (Sec 3.1.2).
// The four NoP topologies' latency against load (Fig. 11) is
// `flumen-repro fig11`.
package main

import (
	"fmt"
	"slices"

	"flumen/internal/photonic"
)

func main() {
	fabric := photonic.NewFlumenMesh(16)
	perm := []int{5, 12, 0, 9, 14, 2, 7, 11, 1, 15, 4, 8, 13, 3, 10, 6}
	fabric.RoutePermutation(perm)
	counts := make([]int, len(perm))
	for src := range perm {
		counts[src], _ = fabric.PathMZICount(src)
	}
	minC, maxC := slices.Min(counts), slices.Max(counts)
	fmt.Println("Flumen MZIM point-to-point routing (16 ports):")
	fmt.Printf("  permutation: %v\n", perm)
	fmt.Printf("  MZIs traversed per path: %v\n", counts)
	fmt.Printf("  spread %d..%d — the attenuator column equalizes this %d-MZI loss difference (Sec 3.1.2)\n",
		minC, maxC, maxC-minC)
	fmt.Println("\nLatency against load on the four NoP topologies (Fig. 11): go run ./cmd/flumen-repro fig11")
}
