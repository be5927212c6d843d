//go:build !race

package flumen

const raceEnabled = false
