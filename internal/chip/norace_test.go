//go:build !race

package chip_test

const raceEnabled = false
