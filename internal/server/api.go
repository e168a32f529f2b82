package server

import (
	"bytes"
	"encoding/json"
	"slices"
	"time"

	"wavemin"
	"wavemin/internal/httpjson"
	"wavemin/internal/jobq"
	"wavemin/internal/yield"
)

// maxModes bounds the power-mode list of one request: the multi-mode
// solver's cost vectors grow with the mode count, so an unbounded list is
// a resource-exhaustion vector, and no benchmark in the paper uses more.
const maxModes = 8

// wireRequest is the JSON body of POST /v1/optimize. Unknown fields are
// rejected (a typoed knob silently ignored is worse than a 400); the tree
// payload itself is the clocktree JSON format and is validated by its own
// loader.
type wireRequest struct {
	// Tree is the clock tree to optimize, in the wavemin-clocktree-v1
	// JSON format (what cmd/wavemin -save writes). Required.
	Tree json.RawMessage `json:"tree"`
	// Config selects the problem parameters; zero/absent fields take the
	// paper defaults.
	Config *wireConfig `json:"config"`
	// Modes declares power modes (multi-mode flow). Absent or empty means
	// single-mode at nominal supply.
	Modes []wireMode `json:"modes"`
	// Priority picks the queue lane: "high", "normal" (default), "low".
	Priority string `json:"priority"`
	// TimeoutMs bounds the job's wall time, queue wait included; 0 takes
	// the server default. The solver degrades down the algorithm ladder
	// rather than failing when the deadline gets close.
	TimeoutMs int64 `json:"timeoutMs"`
	// NoCache skips the result-cache lookup for this request (the result
	// is still stored for future requests).
	NoCache bool `json:"noCache"`
	// BaseJobID names a completed job to re-optimize incrementally from:
	// the base job's per-zone solutions seed this run, unchanged zones
	// replay, and only the delta is solved. Requires the server's ECO mode
	// (Options.Eco). Unknown bases are a 404 ("unknown_base"); bases that
	// cannot seed a delta — unfinished, failed, degraded, or without
	// recorded zones — are a 409 ("base_not_reusable"). The result is
	// bitwise-identical to a cold solve of the same tree either way.
	BaseJobID string `json:"baseJobId"`
	// Trace captures a per-job telemetry trace, served at
	// GET /v1/jobs/{id}/trace. Off by default: traces cost memory.
	Trace bool `json:"trace"`
	// Yield switches the job to statistical yield mode: solve the config's
	// result plus perturbed-knob alternates, race them under seeded Monte
	// Carlo process variation, and return the yield-maximizing assignment
	// with confidence intervals (internal/yield). Incompatible with
	// baseJobId and with multi-mode requests.
	Yield *wireYield `json:"yield"`
}

// wireYield is the yield-mode block of a request. Epsilon is a pointer
// because absence and zero mean different things: absent takes the
// default early-stop width, an explicit 0 disables the width-based stop
// (the full-budget reference mode).
type wireYield struct {
	Sigma       float64  `json:"sigma"`
	Correlation float64  `json:"correlation"`
	Kappa       float64  `json:"kappa"`
	PeakCap     float64  `json:"peakCap"`
	Samples     int      `json:"samples"`
	Epsilon     *float64 `json:"epsilon"`
	Confidence  float64  `json:"confidence"`
	Candidates  int      `json:"candidates"`
	Seed        int64    `json:"seed"`
}

type wireConfig struct {
	Kappa            float64 `json:"kappa"`
	Samples          int     `json:"samples"`
	Epsilon          float64 `json:"epsilon"`
	ZoneSize         float64 `json:"zoneSize"`
	Algorithm        string  `json:"algorithm"` // "wavemin" (default) | "fast" | "peakmin"
	EnableADI        bool    `json:"enableAdi"`
	MaxIntervals     int     `json:"maxIntervals"`
	MaxIntersections int     `json:"maxIntersections"`
	Workers          int     `json:"workers"`
}

type wireMode struct {
	Name     string             `json:"name"`
	Supplies map[string]float64 `json:"supplies"`
}

// optimizeRequest is a fully validated, ready-to-queue optimization job:
// the effective config, queueing parameters, and the canonical cache key.
type optimizeRequest struct {
	cfg     wavemin.Config
	pri     jobq.Priority
	timeout time.Duration
	noCache bool
	trace   bool
	key     string
	// tree and modes retain the canonical problem inputs: the job's
	// JobSpec carries them to the executor, which re-derives the design
	// bit-for-bit (internal/dispatch.JobSpec).
	tree  json.RawMessage
	modes []wavemin.Mode
	// baseJobID is the raw (unresolved) ECO base reference; the server
	// resolves it against its job registry and zone store at submit time.
	baseJobID string
	// yield, when non-nil, makes this a yield-mode job (internal/yield):
	// key is then the extended yield key, not the base optimization key.
	yield *yield.Params
	// forwardedFrom is the shard that forwarded this submission to its
	// owner, or -1 for direct submissions (and unsharded servers). Set by
	// the routing layer after decode; feeds the forwarded-hop trace span.
	forwardedFrom int
}

// decodeOptimizeRequest parses and validates one POST /v1/optimize body.
// Every rejection is a structured 4xx httpjson.Error — malformed input must
// never surface as a 500 or a panic (FuzzOptimizeRequest pins this).
// The envelope is read by readEnvelope when it can answer and by
// decodeEnvelope when it cannot; everything after runs on whichever
// wireRequest comes out.
func decodeOptimizeRequest(body []byte, opts Options) (*optimizeRequest, *httpjson.Error) {
	wire, tree, ok := readEnvelope(body)
	if !ok {
		var apiErr *httpjson.Error
		if wire, tree, apiErr = decodeEnvelope(body); apiErr != nil {
			return nil, apiErr
		}
	}
	return newOptimizeRequest(&wire, tree, opts)
}

// decodeEnvelope decodes a request body with encoding/json's Decoder,
// unknown fields refused, and reads its tree. It is the reference for
// every body: its acceptance, its error text and its error order are the
// service's.
func decodeEnvelope(body []byte) (wireRequest, *wavemin.CanonicalTree, *httpjson.Error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var wire wireRequest
	if err := dec.Decode(&wire); err != nil {
		return wire, nil, httpjson.BadRequest("request body: %v", err)
	}
	if skipSpace(body, int(dec.InputOffset())) < len(body) {
		return wire, nil, httpjson.BadRequest("request body: trailing data after the request object")
	}
	if len(wire.Tree) == 0 {
		return wire, nil, httpjson.BadRequest("missing required field %q", "tree")
	}
	tree, err := wavemin.ReadCanonicalTree(wire.Tree)
	if err != nil {
		return wire, nil, httpjson.BadRequest("tree: %v", err)
	}
	return wire, tree, nil
}

// wireKeys are wireRequest's JSON keys, in field order; readField decodes
// the field at each index.
var wireKeys = [...]string{"tree", "config", "modes", "priority", "timeoutMs", "noCache", "baseJobId", "trace", "yield"}

// readEnvelope reads a request body in one pass: it walks the top-level
// object once, hands the tree to ReadCanonicalTree as a sub-slice of body,
// with no copy, and decodes only the small fields, each from its own
// sub-slice. It answers (ok) only where decodeEnvelope would accept the
// body with the same wireRequest: every key one of wireKeys, written
// exactly, none escaped or repeated; only JSON whitespace between tokens
// and after the closing brace; every field decoding cleanly and the tree
// passing ReadCanonicalTree. Everything else — a key encoding/json would
// match case-insensitively, a repeated key it would merge — is left to
// decodeEnvelope, whose answer then stands.
func readEnvelope(body []byte) (wire wireRequest, tree *wavemin.CanonicalTree, ok bool) {
	i := skipSpace(body, 0)
	if i == len(body) || body[i] != '{' {
		return wire, nil, false
	}
	var seen [len(wireKeys)]bool
	for {
		// A key: no wire name holds a quote or a backslash, so the first
		// quote closes it, and an escaped or unknown key matches none.
		i = skipSpace(body, i+1)
		if i == len(body) || body[i] != '"' {
			return wire, nil, false
		}
		n := bytes.IndexByte(body[i+1:], '"')
		if n < 0 {
			return wire, nil, false
		}
		f := slices.Index(wireKeys[:], string(body[i+1:i+1+n]))
		if f < 0 || seen[f] {
			return wire, nil, false
		}
		seen[f] = true
		i = skipSpace(body, i+n+2)
		if i == len(body) || body[i] != ':' {
			return wire, nil, false
		}
		i = skipSpace(body, i+1)
		end := valueEnd(body, i)
		if end <= i || !wire.readField(f, body[i:end]) {
			return wire, nil, false
		}
		i = skipSpace(body, end)
		if i < len(body) && body[i] == '}' {
			break
		}
		if i == len(body) || body[i] != ',' {
			return wire, nil, false
		}
	}
	if skipSpace(body, i+1) < len(body) || len(wire.Tree) == 0 {
		return wire, nil, false
	}
	tree, err := wavemin.ReadCanonicalTree(wire.Tree)
	return wire, tree, err == nil
}

// readField decodes val, the value of field f, as decodeEnvelope's
// Decoder decodes that field, and reports whether it decoded cleanly.
// The tree must be an object: the one value ReadCanonicalTree can accept,
// and one whose extent valueEnd finds exactly.
func (w *wireRequest) readField(f int, val []byte) bool {
	switch wireKeys[f] {
	case "tree":
		w.Tree = val
		return val[0] == '{'
	case "config":
		return decodeStrict(val, &w.Config)
	case "modes":
		return decodeStrict(val, &w.Modes)
	case "yield":
		return decodeStrict(val, &w.Yield)
	case "priority":
		return json.Unmarshal(val, &w.Priority) == nil
	case "timeoutMs":
		return json.Unmarshal(val, &w.TimeoutMs) == nil
	case "noCache":
		return json.Unmarshal(val, &w.NoCache) == nil
	case "baseJobId":
		return json.Unmarshal(val, &w.BaseJobID) == nil
	case "trace":
		return json.Unmarshal(val, &w.Trace) == nil
	}
	return false
}

// decodeStrict decodes val into v with unknown fields refused, as the
// request Decoder decodes a nested value, and reports whether it decoded
// cleanly and consumed all of val.
func decodeStrict(val []byte, v any) bool {
	dec := json.NewDecoder(bytes.NewReader(val))
	dec.DisallowUnknownFields()
	return dec.Decode(v) == nil && dec.InputOffset() == int64(len(val))
}

// skipSpace returns the index of the first byte at or after i in b that
// is not JSON whitespace, or len(b).
func skipSpace(b []byte, i int) int {
	for i < len(b) && isSpace(b[i]) {
		i++
	}
	return i
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

// valueEnd returns the index just past the JSON value that starts at
// b[i], or -1. It finds only the value's extent — a string up to its
// closing quote, an object or array up to the bracket that closes it
// outside strings, anything else up to the next delimiter — and leaves
// checking the value to its decoder: on a valid value the extent is
// exactly the value.
func valueEnd(b []byte, i int) int {
	if i == len(b) {
		return -1
	}
	switch b[i] {
	case '"':
		if i = stringEnd(b, i+1); i < 0 {
			return -1
		}
		return i + 1
	case '{', '[':
		depth := 0
		for ; i < len(b); i++ {
			switch b[i] {
			case '"':
				if i = stringEnd(b, i+1); i < 0 {
					return -1
				}
			case '{', '[':
				depth++
			case '}', ']':
				if depth--; depth == 0 {
					return i + 1
				}
			}
		}
		return -1
	}
	for i < len(b) && b[i] != ',' && b[i] != '}' && b[i] != ']' && !isSpace(b[i]) {
		i++
	}
	return i
}

// stringEnd returns the index of the quote that closes a JSON string
// whose body starts at b[i], or -1: an escape's second byte is never it.
func stringEnd(b []byte, i int) int {
	for ; i < len(b); i++ {
		switch b[i] {
		case '\\':
			i++
		case '"':
			return i
		}
	}
	return -1
}

// newOptimizeRequest validates a decoded envelope, whose tree already
// passed ReadCanonicalTree, into a ready-to-queue job.
func newOptimizeRequest(wire *wireRequest, tree *wavemin.CanonicalTree, opts Options) (*optimizeRequest, *httpjson.Error) {
	var cfg wavemin.Config
	if wire.Config != nil {
		cfg = wavemin.Config{
			Kappa:            wire.Config.Kappa,
			Samples:          wire.Config.Samples,
			Epsilon:          wire.Config.Epsilon,
			ZoneSize:         wire.Config.ZoneSize,
			EnableADI:        wire.Config.EnableADI,
			MaxIntervals:     wire.Config.MaxIntervals,
			MaxIntersections: wire.Config.MaxIntersections,
			Workers:          wire.Config.Workers,
		}
		switch wire.Config.Algorithm {
		case "", "wavemin":
			cfg.Algorithm = wavemin.WaveMin
		case "fast":
			cfg.Algorithm = wavemin.WaveMinFast
		case "peakmin":
			cfg.Algorithm = wavemin.PeakMin
		default:
			return nil, httpjson.BadRequest("config.algorithm: unknown algorithm %q (want wavemin, fast, or peakmin)", wire.Config.Algorithm)
		}
	}
	// One server-side policy knob overrides the wire config: a cap on the
	// per-job solver parallelism, so queue-level and solver-level fan-out
	// don't multiply into oversubscription. Workers is not part of the
	// cache key, so the override cannot cause cache aliasing.
	if opts.MaxSolverWorkers > 0 && (cfg.Workers == 0 || cfg.Workers > opts.MaxSolverWorkers) {
		cfg.Workers = opts.MaxSolverWorkers
	}
	if err := cfg.Validate(); err != nil {
		return nil, httpjson.BadRequest("config: %v", err)
	}

	var modes []wavemin.Mode
	if len(wire.Modes) > 0 {
		if len(wire.Modes) > maxModes {
			return nil, httpjson.BadRequest("modes: %d modes exceeds the limit of %d", len(wire.Modes), maxModes)
		}
		seen := make(map[string]bool, len(wire.Modes))
		modes = make([]wavemin.Mode, 0, len(wire.Modes))
		for i, m := range wire.Modes {
			if seen[m.Name] {
				return nil, httpjson.BadRequest("modes[%d]: duplicate mode name %q", i, m.Name)
			}
			seen[m.Name] = true
			modes = append(modes, wavemin.Mode{Name: m.Name, Supplies: m.Supplies})
		}
	}
	key, err := tree.CacheKey(modes, cfg)
	if err != nil {
		// The config passed Validate above, so only the modes can fail.
		return nil, httpjson.BadRequest("modes: %v", err)
	}

	pri, err := jobq.ParsePriority(wire.Priority)
	if err != nil {
		return nil, httpjson.BadRequest("priority: %v", err)
	}
	if wire.TimeoutMs < 0 {
		return nil, httpjson.BadRequest("timeoutMs: negative timeout %d", wire.TimeoutMs)
	}
	// Clamped in milliseconds first: a huge timeoutMs must not wrap the
	// Duration product to a deadline already past.
	timeout := opts.DefaultTimeout
	if wire.TimeoutMs > 0 {
		timeout = opts.MaxTimeout
		if wire.TimeoutMs <= int64(opts.MaxTimeout/time.Millisecond) {
			timeout = time.Duration(wire.TimeoutMs) * time.Millisecond
		}
	}
	if timeout > opts.MaxTimeout {
		timeout = opts.MaxTimeout
	}

	var yp *yield.Params
	if wire.Yield != nil {
		if wire.BaseJobID != "" {
			return nil, httpjson.BadRequest("yield: incompatible with baseJobId (an ECO delta has no candidate ladder to race)")
		}
		if len(modes) > 1 {
			return nil, httpjson.BadRequest("yield: at most one power mode is supported (got %d)", len(modes))
		}
		p := yield.Params{
			Sigma:       wire.Yield.Sigma,
			Correlation: wire.Yield.Correlation,
			Kappa:       wire.Yield.Kappa,
			PeakCap:     wire.Yield.PeakCap,
			Samples:     wire.Yield.Samples,
			Confidence:  wire.Yield.Confidence,
			Candidates:  wire.Yield.Candidates,
			Seed:        wire.Yield.Seed,
		}
		if wire.Yield.Epsilon != nil {
			// An explicit 0 means "full budget, no width stop"; only
			// absence takes the default.
			p.Epsilon = *wire.Yield.Epsilon
		} else {
			p.Epsilon = yield.DefaultEpsilon
		}
		p = p.WithDefaults()
		if p.Kappa == 0 {
			// The skew bound defaults to the optimization's effective κ —
			// "how often does this assignment hold the bound it was
			// optimized for" is the question most callers are asking.
			p.Kappa = cfg.WithDefaults().Kappa
		}
		if opts.YieldMaxSamples > 0 && p.Samples > opts.YieldMaxSamples {
			return nil, httpjson.BadRequest("yield: samples %d exceeds this server's cap of %d", p.Samples, opts.YieldMaxSamples)
		}
		if err := p.Validate(); err != nil {
			return nil, httpjson.BadRequest("%v", err)
		}
		yp = &p
		// The extended key replaces the base key wholesale: caching,
		// replication, and shard routing all see one content identity per
		// (problem, yield knobs) pair, in the same hex keyspace.
		key = p.Key(key)
	}
	return &optimizeRequest{
		cfg:           cfg,
		pri:           pri,
		timeout:       timeout,
		noCache:       wire.NoCache,
		trace:         wire.Trace,
		key:           key,
		tree:          wire.Tree,
		modes:         modes,
		baseJobID:     wire.BaseJobID,
		yield:         yp,
		forwardedFrom: -1,
	}, nil
}
