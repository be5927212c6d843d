//go:build race

package flumen

// raceEnabled reports a -race build, whose sync.Pool drops a share of what
// is put back: allocation budgets that count on pooled compilers are looser
// there.
const raceEnabled = true
