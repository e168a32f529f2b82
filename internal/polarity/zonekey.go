package polarity

import (
	"crypto/sha256"
	"sort"

	"wavemin/internal/canon"
	"wavemin/internal/clocktree"
	"wavemin/internal/waveform"
	"wavemin/internal/zonecache"
)

// ZoneKeyer computes the canonical content key of every (interval, zone)
// solver instance — the zone-level generalization of the facade's
// whole-design CacheKey, versioned by zonecache.KeyFormat.
//
// The key covers, byte for byte, everything the per-zone solver sees:
//
//   - per feasible candidate: its candidate index, its cell name, the arrival
//     time it induces, and all four characterized supply-current waveforms
//     (which fold in the leaf's load, slew, upstream timing, and supply);
//   - per zone leaf, in the zone's canonical (ID-sorted) order: the leaf's
//     placement, wire parasitics, sink cap, domain, current cell, and
//     adjust steps — the raw design content, so any placement, parasitic,
//     or cell edit flips the key even if it happens not to move a
//     characterized number;
//   - the zone's non-leaf baseline waveforms in accumulation order
//     (Observation 1's term), empty when the baseline is ablated;
//   - the mode (name and sorted supply map) and the solver parameters that
//     shape the instance: algorithm, ε, label cap, sample count.
//
// Node IDs never enter the key: content, not identity, addresses the
// cache. The interval's window bounds are also excluded — two windows
// with identical per-leaf feasible sets define the same instance (the
// same dedup FeasibleIntervals applies).
//
// Because the key pins the exact solver input and the solver is
// deterministic, key equality implies a cold solve would reproduce the
// cached picks bit for bit — replay is not an approximation.
type ZoneKeyer struct {
	params     []byte
	leafDigest map[clocktree.NodeID][32]byte
	candDigest map[clocktree.NodeID][][32]byte
	baseDigest map[[2]int][32]byte
}

// NewZoneKeyer precomputes per-candidate, per-leaf, and per-zone-baseline
// digests once per run; Key then assembles per-instance keys from the
// 32-byte digests without touching waveform data again.
func NewZoneKeyer(
	t *clocktree.Tree, tm *clocktree.Timing, cs *CandidateSet,
	zones []Zone, cfg Config,
) *ZoneKeyer {
	zk := &ZoneKeyer{
		leafDigest: make(map[clocktree.NodeID][32]byte, len(cs.ByLeaf)),
		candDigest: make(map[clocktree.NodeID][][32]byte, len(cs.ByLeaf)),
		baseDigest: make(map[[2]int][32]byte, len(zones)),
	}

	// Solver-parameter and mode section, rendered once.
	var p []byte
	p = append(p, "alg="...)
	p = append(p, cfg.Algorithm.String()...)
	p = append(p, " eps="...)
	p = append(p, canon.Float(cfg.Epsilon)...)
	p = append(p, " maxlabels="...)
	p = canon.AppendInt(p, MaxLabels)
	p = append(p, " samples="...)
	p = canon.AppendInt(p, cfg.Samples)
	p = append(p, " mode="...)
	p = append(p, cs.Mode.Name...)
	doms := make([]string, 0, len(cs.Mode.Supplies))
	for d := range cs.Mode.Supplies {
		doms = append(doms, d)
	}
	sort.Strings(doms)
	for _, d := range doms {
		p = append(p, ' ')
		p = append(p, d...)
		p = append(p, '=')
		p = append(p, canon.Float(cs.Mode.Supplies[d])...)
	}
	zk.params = p

	var buf []byte
	for leaf, cands := range cs.ByLeaf {
		nd := t.Node(leaf)
		// Static leaf content: the design-side fields whose edit must
		// invalidate the zone even when electrically neutral.
		buf = buf[:0]
		buf = canon.AppendFloat(buf, nd.X)
		buf = canon.AppendFloat(buf, nd.Y)
		buf = canon.AppendFloat(buf, nd.WireRes)
		buf = canon.AppendFloat(buf, nd.WireCap)
		buf = canon.AppendFloat(buf, nd.SinkCap)
		buf = appendString(buf, nd.Domain)
		buf = appendString(buf, nd.Cell.Name)
		steps := make([]string, 0, len(nd.AdjustSteps))
		for m := range nd.AdjustSteps {
			steps = append(steps, m)
		}
		sort.Strings(steps)
		for _, m := range steps {
			buf = appendString(buf, m)
			buf = canon.AppendInt(buf, nd.AdjustSteps[m])
		}
		zk.leafDigest[leaf] = sha256.Sum256(buf)

		ds := make([][32]byte, len(cands))
		for ci := range cands {
			c := &cands[ci]
			buf = buf[:0]
			buf = appendString(buf, c.Cell.Name)
			buf = canon.AppendFloat(buf, c.AT)
			for _, w := range c.Waves {
				buf = appendWave(buf, w)
			}
			ds[ci] = sha256.Sum256(buf)
		}
		zk.candDigest[leaf] = ds
	}

	for _, z := range zones {
		buf = buf[:0]
		for _, id := range z.NonLeaves {
			for _, w := range NodeWaves(t, tm, id) {
				buf = appendWave(buf, w)
			}
		}
		zk.baseDigest[z.Key] = sha256.Sum256(buf)
	}
	return zk
}

// emptyBaseline is the digest of a zone with no (or an ablated) non-leaf
// baseline.
var emptyBaseline = sha256.Sum256(nil)

// Key returns the content key for one (interval, zone) instance as
// lowercase hex, the form the zone cache stores under.
func (zk *ZoneKeyer) Key(zone Zone, iv *Interval, leafIndex map[clocktree.NodeID]int) string {
	h := canon.NewHasher(zonecache.KeyFormat)
	h.SectionBytes("params", zk.params)

	base := emptyBaseline
	if len(zone.NonLeaves) > 0 {
		base = zk.baseDigest[zone.Key]
	}
	h.SectionBytes("baseline", base[:])

	var buf []byte
	for _, leaf := range zone.Leaves {
		buf = buf[:0]
		ld := zk.leafDigest[leaf]
		buf = append(buf, ld[:]...)
		ds := zk.candDigest[leaf]
		for _, ci := range iv.Feasible[leafIndex[leaf]] {
			buf = canon.AppendInt(buf, ci)
			if ci >= 0 && ci < len(ds) {
				buf = append(buf, ds[ci][:]...)
			}
		}
		h.SectionBytes("leaf", buf)
	}
	return h.Sum()
}

func appendString(b []byte, s string) []byte {
	b = canon.AppendInt(b, len(s))
	return append(b, s...)
}

func appendWave(b []byte, w waveform.Waveform) []byte {
	pts := w.Points()
	b = canon.AppendInt(b, len(pts))
	for _, p := range pts {
		b = canon.AppendFloat(b, p.T)
		b = canon.AppendFloat(b, p.I)
	}
	return b
}
