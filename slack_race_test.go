//go:build race

package wavemin

import "time"

// timingSlack pads wall-clock assertions. The race detector slows the
// stretches between context checks by up to an order of magnitude, so the
// promptness bounds get a much larger allowance.
const timingSlack = 2 * time.Second

// raceEnabled reports a -race build. Under it sync.Pool.Put drops a
// random quarter of the values it is given, so pooled buffers are not
// reliably reused and allocation pins cannot hold.
const raceEnabled = true
