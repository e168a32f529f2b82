//go:build race

package clocktree_test

// raceEnabled reports a -race build, under which the detector's
// instrumentation makes wall-clock bounds meaningless, and sync.Pool.Put
// drops a random quarter of the values it is given, so allocation pins
// on pooled buffers cannot hold.
const raceEnabled = true
