package fabric

// idleDetector classifies interconnect demand from a sliding window of
// per-cycle injection counts plus current endpoint buffer occupancy. The
// two thresholds form a hysteresis band: between them the detector asserts
// neither busy nor idle, so a load hovering near one threshold cannot
// thrash the arbiter's mode.
type idleDetector struct {
	window        []int
	sum           int
	pos           int
	filled        int
	nodes         int
	idleThreshold float64
	busyThreshold float64
	occPatience   int
	occRun        int
	idleRun       int
}

func newIdleDetector(cfg Config) *idleDetector {
	return &idleDetector{
		window:        make([]int, cfg.IdleWindow),
		nodes:         cfg.Nodes,
		idleThreshold: cfg.IdleThreshold,
		busyThreshold: cfg.BusyThreshold,
		occPatience:   cfg.OccupancyPatience,
	}
}

// observe folds one cycle of telemetry and returns the instantaneous busy
// verdict plus the current consecutive-idle-cycle run length. Busy asserts
// when the windowed injection rate reaches the busy threshold, or when
// endpoint buffers have held packets for OccupancyPatience consecutive
// cycles (a burst that stopped injecting still owns undelivered traffic).
// A cycle counts toward the idle run only when the rate is below the idle
// threshold and the buffers are empty.
func (d *idleDetector) observe(injected, occupancy int) (busy bool, idleRun int) {
	d.sum += injected - d.window[d.pos]
	d.window[d.pos] = injected
	d.pos = (d.pos + 1) % len(d.window)
	if d.filled < len(d.window) {
		d.filled++
	}
	rate := d.rate()
	if occupancy > 0 {
		d.occRun++
	} else {
		d.occRun = 0
	}
	busy = rate >= d.busyThreshold || d.occRun >= d.occPatience
	if rate < d.idleThreshold && occupancy == 0 {
		d.idleRun++
	} else {
		d.idleRun = 0
	}
	return busy, d.idleRun
}

// rate reports the current windowed injection rate (packets/node/cycle).
func (d *idleDetector) rate() float64 {
	if d.filled == 0 {
		return 0
	}
	return float64(d.sum) / (float64(d.filled) * float64(d.nodes))
}
