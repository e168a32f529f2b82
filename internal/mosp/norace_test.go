//go:build !race

package mosp

// raceEnabled reports a -race build; see race_test.go.
const raceEnabled = false
