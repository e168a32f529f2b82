//go:build !race

package wavemin

import "time"

// timingSlack pads wall-clock assertions against scheduler and GC jitter.
const timingSlack = 250 * time.Millisecond

// raceEnabled reports a -race build; see slack_race_test.go.
const raceEnabled = false
