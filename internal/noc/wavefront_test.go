package noc

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

// arbitrateDense is the arbiter as it was before requests were bucketed by
// wave: every cell of every wavefront is examined in order. It is the
// oracle the mask-based Arbitrate must match, grant for grant.
func arbitrateDense(n, priority int, req [][]bool, busyRow, busyCol []bool) []int {
	grants := make([]int, n)
	for i := range grants {
		grants[i] = -1
	}
	rowFree := make([]bool, n)
	colFree := make([]bool, n)
	for i := 0; i < n; i++ {
		rowFree[i] = busyRow == nil || !busyRow[i]
		colFree[i] = busyCol == nil || !busyCol[i]
	}
	for wave := 0; wave < n; wave++ {
		d := (priority + wave) % n
		for s := 0; s < n; s++ {
			t := (s + d) % n
			if rowFree[s] && colFree[t] && req[s][t] {
				grants[s] = t
				rowFree[s] = false
				colFree[t] = false
			}
		}
	}
	return grants
}

func maskOf(set []bool) uint64 {
	var m uint64
	for i, on := range set {
		if on {
			m |= 1 << uint(i)
		}
	}
	return m
}

// arbitrate calls the arbiter in the dense oracle's terms.
func arbitrate(a *WavefrontArbiter, req [][]bool, busyRow, busyCol []bool) []int {
	rows := make([]uint64, len(req))
	for s := range req {
		rows[s] = maskOf(req[s])
	}
	grants := make([]int, len(req))
	a.Arbitrate(rows, maskOf(busyRow), maskOf(busyCol), grants)
	return grants
}

// randomMask sets each of the low n bits with probability eighths/8,
// composed from three random words (OR halves the distance to 1, AND to 0).
func randomMask(rng *rand.Rand, n, eighths int) uint64 {
	m := uint64(0)
	if eighths >= 8 {
		m = ^m
	}
	for bit := 0; bit < 3; bit++ {
		if r := rng.Uint64(); eighths>>bit&1 == 1 {
			m |= r
		} else {
			m &= r
		}
	}
	return m & (^uint64(0) >> uint(64-n))
}

func setOf(mask uint64, n int) []bool {
	set := make([]bool, n)
	for i := range set {
		set[i] = mask>>uint(i)&1 == 1
	}
	return set
}

// diffArbiter runs one arbiter through consecutive calls on fresh random
// request matrices and busy sets (densities in eighths) and compares every
// grant vector, and the priority the call leaves behind, with the dense
// oracle's.
func diffArbiter(t *testing.T, rng *rand.Rand, n, calls, density, busy int) {
	t.Helper()
	arb := NewWavefrontArbiter(n)
	rows := make([]uint64, n)
	req := make([][]bool, n)
	got := make([]int, n)
	for call := 0; call < calls; call++ {
		for s := range rows {
			rows[s] = randomMask(rng, n, density)
			req[s] = setOf(rows[s], n)
		}
		busyRows, busyCols := randomMask(rng, n, busy), randomMask(rng, n, busy)
		want := arbitrateDense(n, arb.priority, req, setOf(busyRows, n), setOf(busyCols, n))
		wantPriority := (arb.priority + 1) % n
		arb.Arbitrate(rows, busyRows, busyCols, got)
		if !slices.Equal(got, want) {
			t.Fatalf("n=%d call %d density %d/8 busy %d/8: grants %v, dense scan %v", n, call, density, busy, got, want)
		}
		if arb.priority != wantPriority {
			t.Fatalf("n=%d call %d: priority %d after the call, want %d", n, call, arb.priority, wantPriority)
		}
	}
}

func TestArbitrateMatchesDense(t *testing.T) {
	cases := 0
	for seed := int64(0); seed < 20000; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(64)
		if seed%7 == 0 {
			n = 16 // the size every network in the tree uses
		}
		calls := 3 + rng.Intn(6)
		diffArbiter(t, rng, n, calls, rng.Intn(9), rng.Intn(6))
		cases += calls
	}
	if cases < 100_000 {
		t.Fatalf("only %d cases compared", cases)
	}
}

func FuzzWavefrontArbiter(f *testing.F) {
	f.Add(int64(1), uint8(15), uint8(4), uint8(3), uint8(2))
	f.Add(int64(2), uint8(63), uint8(3), uint8(8), uint8(0))
	f.Add(int64(3), uint8(0), uint8(5), uint8(8), uint8(0))
	f.Add(int64(4), uint8(62), uint8(9), uint8(1), uint8(6))
	f.Fuzz(func(t *testing.T, seed int64, n, calls, density, busy uint8) {
		diffArbiter(t, rand.New(rand.NewSource(seed)), 1+int(n)%64, 3+int(calls)%16, int(density)%9, int(busy)%9)
	})
}

func TestNewWavefrontArbiterRejectsWideCrossbar(t *testing.T) {
	NewWavefrontArbiter(64)
	defer func() {
		if recover() == nil {
			t.Fatal("a 65-port arbiter was accepted: a port set is one 64-bit word")
		}
	}()
	NewWavefrontArbiter(65)
}

func TestWavefrontArbiterGrantsAreMatching(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(15)
		arb := NewWavefrontArbiter(n)
		req := make([][]bool, n)
		for i := range req {
			req[i] = setOf(randomMask(rng, n, 3), n)
		}
		grants := arbitrate(arb, req, nil, nil)
		usedCol := make([]bool, n)
		for s, d := range grants {
			if d < 0 {
				continue
			}
			if !req[s][d] {
				return false // granted a non-request
			}
			if usedCol[d] {
				return false // output granted twice
			}
			usedCol[d] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestWavefrontArbiterMaximalOnDiagonal(t *testing.T) {
	// A full request matrix must yield a perfect matching.
	n := 8
	arb := NewWavefrontArbiter(n)
	req := make([][]bool, n)
	for i := range req {
		req[i] = make([]bool, n)
		for j := range req[i] {
			req[i][j] = true
		}
	}
	grants := arbitrate(arb, req, nil, nil)
	for s, d := range grants {
		if d < 0 {
			t.Fatalf("source %d ungranted under full requests", s)
		}
	}
}

func TestWavefrontArbiterRespectsBusy(t *testing.T) {
	arb := NewWavefrontArbiter(4)
	req := [][]bool{
		{true, false, false, false},
		{true, false, false, false},
		{false, false, true, false},
		{false, false, false, true},
	}
	busyRow := []bool{false, false, true, false}
	busyCol := []bool{false, false, false, true}
	grants := arbitrate(arb, req, busyRow, busyCol)
	if grants[2] != -1 {
		t.Fatal("busy row granted")
	}
	if grants[3] != -1 {
		t.Fatal("busy column granted")
	}
	if grants[0] != 0 && grants[1] != 0 {
		t.Fatal("column 0 should be granted to someone")
	}
	if grants[0] == 0 && grants[1] == 0 {
		t.Fatal("column 0 double-granted")
	}
}

func TestWavefrontArbiterFairnessRotates(t *testing.T) {
	// Two sources contending for one destination should alternate.
	arb := NewWavefrontArbiter(2)
	req := [][]bool{{true, false}, {true, false}}
	winners := map[int]int{}
	for i := 0; i < 10; i++ {
		g := arbitrate(arb, req, nil, nil)
		for s, d := range g {
			if d == 0 {
				winners[s]++
			}
		}
	}
	if winners[0] == 0 || winners[1] == 0 {
		t.Fatalf("arbiter starved a source: %v", winners)
	}
}

// BenchmarkArbitrate times one call on a 16-port crossbar with the request
// load of a lookahead-2 MZIM: up to two requests per bidding source.
func BenchmarkArbitrate(b *testing.B) {
	for _, bc := range []struct {
		name    string
		bidders int
	}{{"2of16", 2}, {"8of16", 8}, {"16of16", 16}} {
		b.Run(bc.name, func(b *testing.B) {
			const n = 16
			rng := rand.New(rand.NewSource(1))
			arb := NewWavefrontArbiter(n)
			req := make([]uint64, n)
			for s := 0; s < bc.bidders; s++ {
				req[s] = 1<<uint(rng.Intn(n)) | 1<<uint(rng.Intn(n))
			}
			grants := make([]int, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				arb.Arbitrate(req, 0, 0, grants)
			}
		})
	}
}
