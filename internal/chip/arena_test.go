package chip_test

import (
	"runtime"
	"testing"

	"flumen/internal/chip"
	"flumen/internal/core"
	"flumen/internal/workload"
)

// scaledWorkload returns the named workload at half size.
func scaledWorkload(t *testing.T, name string) workload.Workload {
	t.Helper()
	for _, w := range workload.ScaledAll(2) {
		if w.Name() == name {
			return w
		}
	}
	t.Fatalf("no workload %q", name)
	return nil
}

// TestReusedArenaComputesWhatAFreshOneDoes runs ImageBlur on a system built
// on fresh cache arrays, then ResNet50-Conv3, which leaves its lines in the
// arena it hands back, then ImageBlur again on a reused arena: the two
// ImageBlur runs must agree in every statistic. One more system must then
// cost no cache bytes (its 13 MB of tags and LRU ticks come from the pool).
func TestReusedArenaComputesWhatAFreshOneDoes(t *testing.T) {
	blur, resnet := scaledWorkload(t, "ImageBlur"), scaledWorkload(t, "ResNet50Conv3")
	chip.DrainArenas()
	fresh := newSuiteSystem(blur, core.TopoMesh).Run()
	if dirty := newSuiteSystem(resnet, core.TopoMesh).Run(); dirty.L2Misses == 0 {
		t.Fatal("ResNet50-Conv3 left nothing in the caches")
	}
	if reused := newSuiteSystem(blur, core.TopoMesh).Run(); reused != fresh {
		t.Fatalf("ImageBlur on a reused arena:\n%+v\non a fresh one:\n%+v", reused, fresh)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	newSuiteSystem(blur, core.TopoMesh).Run()
	runtime.ReadMemStats(&after)
	bytes := after.TotalAlloc - before.TotalAlloc
	t.Logf("one more ImageBlur system allocated %d B", bytes)
	// The race detector's sync.Pool drops a share of what it is given, so
	// the bound only holds without it.
	const ceiling = 2 << 20
	if bytes > ceiling && !raceEnabled {
		t.Fatalf("one more system allocated %d B (ceiling %d): its caches were not reused", bytes, ceiling)
	}
}
