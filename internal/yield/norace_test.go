//go:build !race

package yield

// raceEnabled reports a -race build; see race_test.go.
const raceEnabled = false
