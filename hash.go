package wavemin

import (
	"bytes"
	"sort"
	"strconv"
	"strings"

	"wavemin/internal/canon"
	"wavemin/internal/cell"
	"wavemin/internal/clocktree"
)

// cacheKeyFormat versions the canonical request encoding and the evaluator
// whose results are stored under it. Bump it whenever the canonical form
// of any section changes, so stale cache entries from an older encoding
// can never alias a new request, and whenever the same request's Result
// bytes change, so an older evaluator's results are never replayed (v2:
// peaks from PeakCurrent's slope-event sweep; v3: a negative coordinate's
// zone tile rounds down, where it used to share the tile at the origin).
const cacheKeyFormat = "wavemin-cachekey-v3"

// CacheKey returns the content hash of the optimization problem "this
// design's tree, in these modes, under this configuration" in canonical
// form — the key a result cache should store Optimize results under.
//
// Two requests get the same key iff they denote the same problem:
//
//   - the tree section is the canonical JSON serialization (SaveTree), so
//     any two in-memory trees with identical topology, placement,
//     parasitics, cells, domains, and ADB settings hash identically no
//     matter how they were built or what key order their source JSON used;
//   - the config section fills defaults first, so Config{} and a config
//     spelling out the paper defaults hash identically — and it covers
//     ONLY the fields that define the problem (Kappa, Samples, Epsilon,
//     ZoneSize, Algorithm, EnableADI, MaxIntervals, MaxIntersections).
//     Workers is excluded because results are bitwise identical at every
//     worker count; Budget is excluded because it is execution policy, not
//     problem statement (callers must not cache Degraded results, which
//     are the only way Budget can show through); ECO is excluded because
//     an incremental run replays bitwise-identical zone solutions — the
//     same problem answered faster is still the same problem;
//   - the modes section sorts the mode list (and each mode's supply map)
//     canonically and drops exact duplicates, so permuted-but-identical
//     mode lists hash identically while any semantic change — a mode
//     name, a domain, a supply voltage — changes the key;
//   - the die section pins the power-grid extent (the one Design property
//     not derivable from the tree), so two identical trees measured
//     against different die sizes do not alias.
//
// Trace/telemetry state and timing data never enter the key: they describe
// a run, not the problem. The configuration is validated first; an invalid
// one returns its Validate error.
func (d *Design) CacheKey(cfg Config) (string, error) {
	if err := cfg.Validate(); err != nil {
		return "", err
	}
	var tree bytes.Buffer
	if err := d.SaveTree(&tree); err != nil {
		return "", err
	}
	d.mu.Lock()
	modes := append([]Mode(nil), d.Modes...)
	dieW, dieH := d.dieW, d.dieH
	d.mu.Unlock()
	return problemKey(tree.Bytes(), modes, dieW, dieH, cfg), nil
}

// CanonicalTree is a serialized clock tree that passed every check
// LoadTree makes, held in the form CacheKey hashes: the bytes SaveTree
// would write for the loaded design, and the die LoadTree would give it.
type CanonicalTree struct {
	json       []byte
	dieW, dieH float64
}

// ReadCanonicalTree decodes a serialized clock tree once and checks it as
// LoadTree does, failing with the same errors, but builds no tree, power
// grid or Design: it is how a service derives a request's cache key.
func ReadCanonicalTree(raw []byte) (*CanonicalTree, error) {
	tree, maxX, maxY, err := clocktree.CanonicalJSON(raw, cell.SharedDefaultLibrary())
	if err != nil {
		return nil, err
	}
	w, h := dieExtent(maxX, maxY)
	return &CanonicalTree{json: tree, dieW: w, dieH: h}, nil
}

// CacheKey returns the key Design.CacheKey(cfg) returns for the design
// LoadTree builds from the same bytes after SetModes(modes); an empty mode
// list keeps LoadTree's nominal mode. Mode errors come first, with
// SetModes' text, then cfg.Validate's.
func (t *CanonicalTree) CacheKey(modes []Mode, cfg Config) (string, error) {
	if len(modes) == 0 {
		modes = []Mode{NominalMode}
	} else if err := checkModes(modes); err != nil {
		return "", err
	}
	if err := cfg.Validate(); err != nil {
		return "", err
	}
	return problemKey(t.json, modes, t.dieW, t.dieH, cfg), nil
}

// problemKey hashes the canonical sections of one problem; both CacheKey
// methods end here, so a design's key and a request's render config,
// modes and die identically.
func problemKey(tree []byte, modes []Mode, dieW, dieH float64, cfg Config) string {
	h := canon.NewHasher(cacheKeyFormat)
	h.SectionBytes("tree", tree)
	h.Section("config", cfg.canonical())
	h.Section("modes", canonicalModes(modes))
	h.Section("die", canonFloat(dieW)+"x"+canonFloat(dieH))
	return h.Sum()
}

// canonical renders the problem-defining configuration fields with
// defaults filled, in a fixed order with shortest-round-trip float
// formatting.
func (c Config) canonical() string {
	f := c.withDefaults()
	return strings.Join([]string{
		"kappa=" + canonFloat(f.Kappa),
		"samples=" + strconv.Itoa(f.Samples),
		"epsilon=" + canonFloat(f.Epsilon),
		"zone=" + canonFloat(f.ZoneSize),
		"algorithm=" + f.Algorithm.String(),
		"adi=" + strconv.FormatBool(f.EnableADI),
		"max_intervals=" + strconv.Itoa(f.MaxIntervals),
		"max_intersections=" + strconv.Itoa(f.MaxIntersections),
	}, " ")
}

// canonicalModes renders a mode list order-independently: every mode's
// supply map is rendered with sorted domains, the rendered modes are
// sorted, and exact duplicates (same name, same supplies) are dropped —
// a duplicated mode adds no constraint.
func canonicalModes(modes []Mode) string {
	rendered := make([]string, 0, len(modes))
	for _, m := range modes {
		domains := make([]string, 0, len(m.Supplies))
		for dom := range m.Supplies {
			domains = append(domains, dom)
		}
		sort.Strings(domains)
		var sb strings.Builder
		sb.WriteString(strconv.Quote(m.Name))
		sb.WriteByte('{')
		for i, dom := range domains {
			if i > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(strconv.Quote(dom))
			sb.WriteByte('=')
			sb.WriteString(canonFloat(m.Supplies[dom]))
		}
		sb.WriteByte('}')
		rendered = append(rendered, sb.String())
	}
	sort.Strings(rendered)
	out := rendered[:0]
	for _, r := range rendered {
		if len(out) == 0 || out[len(out)-1] != r {
			out = append(out, r)
		}
	}
	return strings.Join(out, ";")
}

// canonFloat is the one float rendering used in cache keys — shared with
// the zone-level keys via internal/canon so the two formats can never
// drift apart.
func canonFloat(v float64) string {
	return canon.Float(v)
}
