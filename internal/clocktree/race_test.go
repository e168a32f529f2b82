//go:build race

package clocktree_test

// raceEnabled reports a -race build, under which the detector's
// instrumentation makes wall-clock bounds meaningless.
const raceEnabled = true
