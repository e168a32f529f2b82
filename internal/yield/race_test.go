//go:build race

package yield

// raceEnabled reports a -race build. Under it sync.Pool.Put drops a
// random quarter of the values it is given, so allocation pins on pooled
// buffers cannot hold.
const raceEnabled = true
