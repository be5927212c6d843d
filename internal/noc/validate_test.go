package noc

import "testing"

func TestInjectValidation(t *testing.T) {
	nets := []Network{
		NewRing(4, 560, 2),
		NewMesh(2, 2, 320, 2),
		NewOptBus(4, 2, 256),
		NewMZIM(4, 256, 3),
	}
	bads := []*Packet{
		{Src: -1, Dst: 0, Bits: 64},
		{Src: 0, Dst: 9, Bits: 64},
		{Src: 0, Dst: 1, Bits: 0},
	}
	for _, net := range nets {
		for _, p := range bads {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s accepted invalid packet %+v", net.Name(), p)
					}
				}()
				net.Inject(p, 0)
			}()
		}
	}
}

func TestElecRejectsMulticast(t *testing.T) {
	net := NewMesh(2, 2, 320, 2)
	defer func() {
		if recover() == nil {
			t.Fatal("electrical network accepted a multicast packet")
		}
	}()
	net.Inject(&Packet{Src: 0, Multicast: []int{1, 2}, Bits: 64}, 0)
}

func TestConstructorValidation(t *testing.T) {
	NewOptBus(64, 8, 256) // a head set is one 64-bit word: 64 nodes fit
	for _, bad := range []func(){
		func() { NewRing(1, 560, 2) },
		func() { NewMesh(1, 1, 320, 2) },
		func() { NewOptBus(1, 2, 256) },
		func() { NewOptBus(4, 0, 256) },
		func() { NewOptBus(65, 8, 256) },
		func() { NewMZIM(1, 256, 3) },
		func() { NewWavefrontArbiter(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid constructor accepted")
				}
			}()
			bad()
		}()
	}
}

func TestInjectionQueueBackpressure(t *testing.T) {
	// Injection queues are bounded; Inject returns false when full and the
	// packet is not lost by the caller-retry contract.
	net := NewMZIM(4, 256, 3)
	accepted := 0
	for i := 0; i < 100; i++ {
		if net.Inject(&Packet{ID: int64(i), Src: 0, Dst: 1, Bits: 640}, 0) {
			accepted++
		}
	}
	if accepted >= 100 || accepted < 4 {
		t.Fatalf("accepted %d of 100 without stepping", accepted)
	}
}

func TestRunResultString(t *testing.T) {
	r := RunResult{Topology: "Mesh", PatternName: "uniform", OfferedGbps: 32, AvgLatency: 8.5, LinkUtilization: 0.034}
	s := r.String()
	if s == "" {
		t.Fatal("empty render")
	}
	r.Saturated = true
	if r.String() == s {
		t.Fatal("saturation marker missing")
	}
}
