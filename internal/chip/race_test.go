//go:build race

package chip_test

// raceEnabled reports a -race build. Its instrumentation can change what the
// compiler keeps off the heap, so allocation budgets are looser there.
const raceEnabled = true
