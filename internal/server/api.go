package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"wavemin"
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

// apiError is a structured request failure: it renders as
// {"error":{"code":...,"message":...}} with the HTTP status attached.
type apiError struct {
	status  int
	code    string
	message string
}

func badRequest(format string, args ...any) *apiError {
	return &apiError{status: http.StatusBadRequest, code: "bad_request", message: fmt.Sprintf(format, args...)}
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
// Every rejection is a structured 4xx apiError — malformed input must
// never surface as a 500 or a panic (FuzzOptimizeRequest pins this).
func decodeOptimizeRequest(body []byte, opts Options) (*optimizeRequest, *apiError) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var wire wireRequest
	if err := dec.Decode(&wire); err != nil {
		return nil, badRequest("request body: %v", err)
	}
	if dec.More() {
		return nil, badRequest("request body: trailing data after the request object")
	}
	if len(wire.Tree) == 0 {
		return nil, badRequest("missing required field %q", "tree")
	}
	design, err := wavemin.LoadTree(bytes.NewReader(wire.Tree))
	if err != nil {
		return nil, badRequest("tree: %v", err)
	}

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
			return nil, badRequest("config.algorithm: unknown algorithm %q (want wavemin, fast, or peakmin)", wire.Config.Algorithm)
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
		return nil, badRequest("config: %v", err)
	}

	var modes []wavemin.Mode
	if len(wire.Modes) > 0 {
		if len(wire.Modes) > maxModes {
			return nil, badRequest("modes: %d modes exceeds the limit of %d", len(wire.Modes), maxModes)
		}
		seen := make(map[string]bool, len(wire.Modes))
		modes = make([]wavemin.Mode, 0, len(wire.Modes))
		for i, m := range wire.Modes {
			if seen[m.Name] {
				return nil, badRequest("modes[%d]: duplicate mode name %q", i, m.Name)
			}
			seen[m.Name] = true
			modes = append(modes, wavemin.Mode{Name: m.Name, Supplies: m.Supplies})
		}
		if err := design.SetModes(modes); err != nil {
			return nil, badRequest("modes: %v", err)
		}
	}

	pri, err := jobq.ParsePriority(wire.Priority)
	if err != nil {
		return nil, badRequest("priority: %v", err)
	}
	if wire.TimeoutMs < 0 {
		return nil, badRequest("timeoutMs: negative timeout %d", wire.TimeoutMs)
	}
	timeout := time.Duration(wire.TimeoutMs) * time.Millisecond
	if timeout == 0 {
		timeout = opts.DefaultTimeout
	}
	if timeout > opts.MaxTimeout {
		timeout = opts.MaxTimeout
	}

	key, err := design.CacheKey(cfg)
	if err != nil {
		// Config and tree were both validated above, so this is
		// unreachable in practice — but a decode path must degrade to a
		// 4xx, never a panic or a 500.
		return nil, badRequest("cache key: %v", err)
	}

	var yp *yield.Params
	if wire.Yield != nil {
		if wire.BaseJobID != "" {
			return nil, badRequest("yield: incompatible with baseJobId (an ECO delta has no candidate ladder to race)")
		}
		if len(modes) > 1 {
			return nil, badRequest("yield: at most one power mode is supported (got %d)", len(modes))
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
			return nil, badRequest("yield: samples %d exceeds this server's cap of %d", p.Samples, opts.YieldMaxSamples)
		}
		if err := p.Validate(); err != nil {
			return nil, badRequest("%v", err)
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
