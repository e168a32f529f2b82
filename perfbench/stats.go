package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 < p < 100) of xs by linear
// interpolation between closest ranks (the same rule as numpy's default).
// xs need not be sorted; it is not modified. An empty slice gives 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0]
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// tailLadder is the set of percentiles a tail latency may be reported at,
// highest first: p99.9, p99 and p90, then p75 for workloads too slow to
// put ten samples beyond p90.
var tailLadder = []float64{99.9, 99, 90, 75}

// minBeyond is how many samples must lie beyond a tail percentile for it
// to be reported: fewer, and the number is set by a handful of outliers.
const minBeyond = 10

// samplesBeyond is how many of n samples lie strictly above the p-th
// percentile's rank.
func samplesBeyond(n int, p float64) int {
	return int(math.Floor(float64(n)*(100-p)/100 + 1e-9))
}

// chooseTail returns the highest percentile of tailLadder that has at
// least minBeyond of n samples beyond it, or p50 when none has.
func chooseTail(n int) float64 {
	for _, p := range tailLadder {
		if samplesBeyond(n, p) >= minBeyond {
			return p
		}
	}
	return 50
}

// interval is a closed time range in nanoseconds on one clock.
type interval struct{ start, end int64 }

// coverage returns how many nanoseconds of [win.start, win.end] the union
// of ivs covers. Overlapping intervals count once.
func coverage(win interval, ivs []interval) int64 {
	var clipped []interval
	for _, iv := range ivs {
		s, e := max(iv.start, win.start), min(iv.end, win.end)
		if e > s {
			clipped = append(clipped, interval{s, e})
		}
	}
	sort.Slice(clipped, func(i, j int) bool { return clipped[i].start < clipped[j].start })
	var total int64
	var cur interval
	for i, iv := range clipped {
		switch {
		case i == 0:
			cur = iv
		case iv.start <= cur.end:
			cur.end = max(cur.end, iv.end)
		default:
			total += cur.end - cur.start
			cur = iv
		}
	}
	if len(clipped) > 0 {
		total += cur.end - cur.start
	}
	return total
}

// span is one timed trace span: its path identifies its parent (the path
// minus the last element).
type span struct {
	path string
	iv   interval
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval its direct children cover. Children are the spans whose
// path is the span's path plus one "/"-separated element.
func selfTimes(spans []span) map[string]int64 {
	children := make(map[string][]interval, len(spans))
	for _, sp := range spans {
		if parent, ok := parentPath(sp.path); ok {
			children[parent] = append(children[parent], sp.iv)
		}
	}
	out := make(map[string]int64, len(spans))
	for _, sp := range spans {
		out[sp.path] = (sp.iv.end - sp.iv.start) - coverage(sp.iv, children[sp.path])
	}
	return out
}

func parentPath(path string) (string, bool) {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			return path[:i], true
		}
	}
	return "", false
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
