//go:build race

package mosp

// raceEnabled reports a -race build. Under it sync.Pool.Put drops a
// random quarter of the values it is given (sync/pool.go), so a pooled
// workspace is not reliably reused and allocation pins cannot hold.
const raceEnabled = true
