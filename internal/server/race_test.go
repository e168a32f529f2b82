//go:build race

package server

// raceEnabled reports a -race build. Its instrumentation allocates on
// its own account (an s13207 request decode reads about 22 KB more), so
// allocation pins cannot hold under it.
const raceEnabled = true
