package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"polyufc/internal/breaker"
	"polyufc/internal/core"
	"polyufc/internal/hw"
	"polyufc/internal/ir"
	"polyufc/internal/parallel"
	"polyufc/internal/platform"
	"polyufc/internal/roofline"
	"polyufc/internal/search"
	"polyufc/internal/tiling"
	"polyufc/internal/workloads"
)

// Request is the body of the three POST endpoints. Zero fields fall back
// to the paper's defaults (rpl, bench size, EDP objective, linalg caps).
type Request struct {
	Kernel string `json:"kernel"`
	// Platform selects the backend by registry name or alias.
	Platform  string  `json:"platform"`
	Size      string  `json:"size"`
	Objective string  `json:"objective"`
	CapLevel  string  `json:"cap_level"`
	Epsilon   float64 `json:"epsilon"`
	// Tiling selects the tile-stage strategy ("pluto", "cacheoblivious",
	// "latency:probe=3", "auto"; see internal/tiling). Empty falls back
	// to the daemon's configured default. The tiling= query parameter
	// overrides the body field.
	Tiling string `json:"tiling"`
	// Measure asks /v1/search to also run the baseline and capped program
	// on the platform's shared machine, through the circuit breaker. When
	// the breaker is open the response degrades to model-only instead of
	// erroring — see DegradedTo.
	Measure bool `json:"measure"`
}

// NestResponse is one nest's analysis in a response.
type NestResponse struct {
	Label          string  `json:"label"`
	OI             float64 `json:"oi"`
	Class          string  `json:"class"`
	Tiled          bool    `json:"tiled"`
	Tiling         string  `json:"tiling,omitempty"`
	TileSize       int64   `json:"tile_size,omitempty"`
	CapGHz         float64 `json:"cap_ghz"`
	Threads        int     `json:"threads"`
	PredSeconds    float64 `json:"pred_seconds"`
	PredJoules     float64 `json:"pred_joules"`
	PredEDP        float64 `json:"pred_edp"`
	DefaultSeconds float64 `json:"default_seconds"`
	DefaultJoules  float64 `json:"default_joules"`
	DefaultEDP     float64 `json:"default_edp"`
	Degraded       bool    `json:"degraded,omitempty"`
	Error          string  `json:"error,omitempty"`
	// Topology placement (multi-socket backends only; all omitted on
	// single-socket answers, keeping the v1 wire format byte-identical).
	// Socket is the home socket, -1 for nests spanning every socket;
	// RemoteRatio the modeled remote share of DRAM traffic; SocketCaps
	// the per-socket uncore cap vector in force while this nest runs.
	Socket      int       `json:"socket,omitempty"`
	RemoteRatio float64   `json:"remote_ratio,omitempty"`
	SocketCaps  []float64 `json:"socket_caps,omitempty"`
}

// TopologyResponse is the cluster-level rollup of a compilation on a
// multi-socket or multi-node backend (omitted entirely on v1
// single-socket answers): core's result, served through its json tags.
type TopologyResponse = core.TopologyResult

// CompileResponse is the /v1/compile payload. CalibrationDegraded marks
// answers computed while the backend's drift watchdog is in a
// degradation episode (best-effort daemons only; strict ones refuse
// with 503 instead) — the model constants are known to disagree with
// the live hardware until the re-fit lands.
type CompileResponse struct {
	Kernel              string            `json:"kernel"`
	Arch                string            `json:"arch"`
	Objective           string            `json:"objective"`
	CapLevel            string            `json:"cap_level"`
	CapsInserted        int               `json:"caps_inserted"`
	CapsRemoved         int               `json:"caps_removed"`
	Nests               []NestResponse    `json:"nests"`
	Topology            *TopologyResponse `json:"topology,omitempty"`
	CalibrationDegraded bool              `json:"calibration_degraded,omitempty"`
}

// CharacterizeResponse is the /v1/characterize payload: the calibrated
// roofline plus each nest's operational-intensity classification.
type CharacterizeResponse struct {
	Kernel              string         `json:"kernel"`
	Arch                string         `json:"arch"`
	PeakGFlops          float64        `json:"peak_gflops"`
	PeakGBs             float64        `json:"peak_gbs"`
	BtDRAM              float64        `json:"bt_dram"`
	Nests               []NestResponse `json:"nests"`
	CalibrationDegraded bool           `json:"calibration_degraded,omitempty"`
}

// MeasuredResponse is the hardware half of a measured /v1/search answer.
type MeasuredResponse struct {
	BaselineSeconds float64 `json:"baseline_seconds"`
	BaselineJoules  float64 `json:"baseline_joules"`
	BaselineEDP     float64 `json:"baseline_edp"`
	CappedSeconds   float64 `json:"capped_seconds"`
	CappedJoules    float64 `json:"capped_joules"`
	CappedEDP       float64 `json:"capped_edp"`
	EDPGainPct      float64 `json:"edp_gain_pct"`
	// SocketCaps is the per-socket cap vector asserted on the topology's
	// uncore domains after the capped run; SocketDegraded lists the
	// domains whose breaker refused the assertion (one sick socket
	// degrades only itself, never the measured answer). Both omitted on
	// single-socket backends.
	SocketCaps     []float64 `json:"socket_caps,omitempty"`
	SocketDegraded []string  `json:"socket_degraded,omitempty"`
}

// SearchResponse is the /v1/search payload. DegradedTo is set when a
// measured request fell back to the model answer (breaker open or driver
// error); the model half is always present.
type SearchResponse struct {
	Kernel              string            `json:"kernel"`
	Arch                string            `json:"arch"`
	Objective           string            `json:"objective"`
	Nests               []NestResponse    `json:"nests"`
	Topology            *TopologyResponse `json:"topology,omitempty"`
	Measured            *MeasuredResponse `json:"measured,omitempty"`
	DegradedTo          string            `json:"degraded_to,omitempty"`
	CalibrationDegraded bool              `json:"calibration_degraded,omitempty"`
}

// httpError carries a status code out of a handler. retryAfter, when
// positive, becomes a Retry-After header — every 503 the daemon sends
// for a transient condition (drift degradation, an open breaker) tells
// the client when to come back, consistent with the 429 shedding path.
type httpError struct {
	status     int
	msg        string
	retryAfter int
}

func (e *httpError) Error() string { return e.msg }

func badRequest(format string, args ...any) error {
	return &httpError{status: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

// retryAfterSeconds renders a duration as a Retry-After value, never
// below one second (zero would tell clients to hammer).
func retryAfterSeconds(d time.Duration) string {
	secs := int(d / time.Second)
	if d%time.Second != 0 {
		secs++
	}
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

type errBody struct {
	Error string `json:"error"`
}

// Handler builds the daemon's routing table. The three compute endpoints
// run behind the full middleware chain (panic isolation, admission gate,
// per-request deadline); the observability endpoints bypass the gate so
// health checks still answer while the daemon sheds load.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/statsz", s.handleStatsz)
	mux.HandleFunc("/v1/platforms", s.handlePlatforms)
	mux.HandleFunc("/v1/compile", s.wrap(s.compileAnswer))
	mux.HandleFunc("/v1/characterize", s.wrap(s.characterizeAnswer))
	mux.HandleFunc("/v1/search", s.wrap(s.searchAnswer))
	// The async job tier. Submission and status are cheap bookkeeping —
	// the actual work runs on the job worker pool — so like the
	// observability endpoints they bypass the admission gate: inspecting
	// a running sweep must work while the daemon sheds compute load.
	mux.HandleFunc("POST /v1/jobs", s.handleJobSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleJobList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJobGet)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleJobResult)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	mux.HandleFunc("POST /v1/jobs/{id}/cancel", s.handleJobCancel)
	// The fleet cache tier: peers fetch and fill content-addressed
	// entries. Cheap verified I/O, so like the observability endpoints
	// it bypasses the admission gate — cache exchange must keep working
	// while the daemon sheds compute load.
	mux.HandleFunc("GET /v1/cas/{key}", s.handleCASGet)
	mux.HandleFunc("PUT /v1/cas/{key}", s.handleCASPut)
	return mux
}

// wrap is the middleware chain of one compute endpoint: recover panics to
// a 500 without killing the daemon, acquire an admission slot (429 +
// Retry-After on saturation), bound the request with RequestTimeout, and
// translate errors to statuses. The request is resolved and handed to the
// endpoint's answer function, whose compact JSON bytes wrap writes
// indented.
func (s *Server) wrap(answer func(context.Context, resolved) ([]byte, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				s.panics.Add(1)
				writeJSON(w, http.StatusInternalServerError, errBody{fmt.Sprintf("internal panic: %v", rec)})
			}
		}()
		if r.Method != http.MethodPost {
			writeJSON(w, http.StatusMethodNotAllowed, errBody{"POST required"})
			return
		}
		// Unknown fields are rejected, not ignored: a typo (or the retired
		// "arch" spelling) must not silently fall through to the defaults.
		var req Request
		dec := json.NewDecoder(r.Body)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			writeJSON(w, http.StatusBadRequest, errBody{"bad request body: " + err.Error() +
				` (fields: kernel, platform, size, objective, cap_level, epsilon, tiling, measure)`})
			return
		}
		// tiling= in the URL overrides the body: curl-side strategy
		// comparison without editing the request payload.
		if v := r.URL.Query().Get("tiling"); v != "" {
			req.Tiling = v
		}
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		if err := s.gate.Acquire(ctx); err != nil {
			s.rejected.Add(1)
			if errors.Is(err, parallel.ErrSaturated) {
				w.Header().Set("Retry-After", "1")
				writeJSON(w, http.StatusTooManyRequests, errBody{"server saturated, retry later"})
				return
			}
			w.Header().Set("Retry-After", "1")
			writeJSON(w, http.StatusServiceUnavailable, errBody{"cancelled while queued: " + err.Error()})
			return
		}
		defer s.gate.Release()
		if s.testHook != nil {
			s.testHook()
		}
		rv, err := s.resolve(req)
		var out []byte
		if err == nil {
			out, err = answer(ctx, rv)
		}
		if err != nil {
			var he *httpError
			switch {
			case errors.As(err, &he):
				if he.retryAfter > 0 {
					w.Header().Set("Retry-After", strconv.Itoa(he.retryAfter))
				}
				writeJSON(w, he.status, errBody{he.msg})
			case errors.Is(err, hw.ErrBreakerOpen):
				// A strict compute path ran into a quarantined driver:
				// transient by construction — the breaker reprobes after
				// its cooldown — so tell the client when.
				w.Header().Set("Retry-After", retryAfterSeconds(s.cfg.Breaker.Cooldown))
				writeJSON(w, http.StatusServiceUnavailable, errBody{err.Error()})
			case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
				writeJSON(w, http.StatusGatewayTimeout, errBody{"deadline exceeded: " + err.Error()})
			default:
				writeJSON(w, http.StatusInternalServerError, errBody{err.Error()})
			}
			return
		}
		writeBody(w, http.StatusOK, out)
	}
}

// resolved is a validated Request: the backend it targets, the compile
// configuration it maps onto, and that compilation's identity.
type resolved struct {
	target *roofline.Target
	p      *hw.Platform
	sz     workloads.SizeClass
	cfg    core.Config
	// key is core.KeyOf the request: the ladder keys each endpoint's
	// answer on its wire form (responseKey).
	key core.CacheKey
	// measure asks a search answer for its measured half.
	measure bool
}

// servedNames lists the backends this daemon calibrated, in boot order.
func (s *Server) servedNames() []string {
	var names []string
	for _, p := range s.plats {
		names = append(names, p.Name)
	}
	return names
}

// servedTarget returns the live target of the backend a request or job names
// ("" is the default, rpl): the one place a platform name is looked up
// and checked against what this daemon calibrated.
func (s *Server) servedTarget(name string) (*roofline.Target, error) {
	if name == "" {
		name = "rpl"
	}
	b, err := platform.Lookup(name)
	if err != nil {
		return nil, badRequest("unknown platform %q (serving: %s)", name, strings.Join(s.servedNames(), ", "))
	}
	t, ok := s.target(b.Name)
	if !ok {
		return nil, badRequest("platform %q is registered but not served by this daemon (serving: %s)",
			b.Name, strings.Join(s.servedNames(), ", "))
	}
	return t, nil
}

func (s *Server) resolve(req Request) (resolved, error) {
	var r resolved
	if req.Kernel == "" {
		return r, badRequest("kernel is required")
	}
	t, err := s.servedTarget(req.Platform)
	if err != nil {
		return r, err
	}
	r.target = t
	r.p = t.Platform
	var ok bool
	if r.sz, ok = workloads.ParseSize(req.Size); !ok {
		return r, badRequest("unknown size class %q", req.Size)
	}
	cfg := core.DefaultConfig(t)
	if cfg.Search.Objective, ok = search.ParseObjective(req.Objective); !ok {
		return r, badRequest("unknown objective %q", req.Objective)
	}
	if cfg.CapLevel, ok = ir.ParseDialect(req.CapLevel); !ok {
		return r, badRequest("unknown cap level %q", req.CapLevel)
	}
	if cfg.Search.Epsilon = req.Epsilon; cfg.Search.Epsilon <= 0 {
		cfg.Search.Epsilon = 1e-3
	}
	if req.Tiling == "" {
		cfg.Tiling = s.cfg.Tiling.Normalize()
	} else if cfg.Tiling, err = tiling.ParseSpec(req.Tiling); err != nil {
		return r, badRequest("%v", err)
	}
	cfg.Degrade = s.cfg.Degrade
	cfg.Faults = s.cfg.Faults
	r.cfg = cfg
	r.key = core.KeyOf(req.Kernel, int(r.sz), cfg)
	r.measure = req.Measure
	return r, nil
}

// compile runs one resolved request through the pipeline over the
// daemon's stage cache and stage-event aggregation. until, when set,
// bounds the run to the pipeline prefix ending at that stage — the
// characterize endpoint stops at core.StageCharacterize. The daemon
// memoizes answers, not Results (the ladder); a compile reuses memoized
// stage snapshots, so one after a characterize of the same kernel skips
// the analysis prefix.
func (s *Server) compile(ctx context.Context, r resolved, until string) (*core.Result, error) {
	k, err := workloads.ByName(r.key.Kernel)
	if err != nil {
		return nil, badRequest("%v", err)
	}
	mod, err := k.Build(r.sz)
	if err != nil {
		return nil, err
	}
	return core.CompilePipeline(ctx, mod, r.cfg, core.PipelineOptions{Stages: &s.stages, Until: until, Observe: s.stageStats.Observe})
}

func nestResponses(res *core.Result) []NestResponse {
	out := make([]NestResponse, 0, len(res.Reports))
	for _, r := range res.Reports {
		n := NestResponse{
			Label:    r.Label,
			OI:       r.OI,
			Class:    r.Class.String(),
			Tiled:    r.Tiled,
			Tiling:   r.Tiling,
			TileSize: r.TileSize,
			CapGHz:   r.CapGHz,
			Threads:  r.Threads,
			// Zero on single-socket backends, so the omitempty tags keep
			// the pre-topology wire format (and journal keys) intact.
			Socket:      r.Socket,
			RemoteRatio: r.RemoteRatio,
			SocketCaps:  r.SocketCaps,
		}
		if r.Degraded {
			n.Degraded = true
			if r.Err != nil {
				n.Error = r.Err.Error()
			}
		}
		if r.CM != nil || !r.Degraded {
			n.PredSeconds = r.Est.Seconds
			n.PredJoules = r.Est.Joules
			n.PredEDP = r.Est.EDP
			n.DefaultSeconds = r.EstDefault.Seconds
			n.DefaultJoules = r.EstDefault.Joules
			n.DefaultEDP = r.EstDefault.EDP
		}
		out = append(out, n)
	}
	return out
}

// driftGate applies the degrade semantics while a backend's calibration
// is in a degradation episode (watchdog degraded, or re-fit running): a
// Strict daemon refuses the request with 503 — the constants are known
// wrong, an answer would be too — while a BestEffort daemon serves the
// model-only answer flagged CalibrationDegraded. The flag is applied
// OUTSIDE the response journal: degradation is live state, not part of
// the deterministic answer.
func (s *Server) driftGate(r resolved) (bool, error) {
	if !s.drift.Degraded(r.p.Name) {
		return false, nil
	}
	if s.cfg.Degrade == core.Strict {
		return false, &httpError{status: http.StatusServiceUnavailable, retryAfter: 5, msg: fmt.Sprintf(
			"calibration for %q is degraded (drift watchdog %s); re-fit in progress — retry later or serve with -degrade best-effort",
			r.p.Name, s.drift.State(r.p.Name))}
	}
	return true, nil
}

// serve is the spine every answer shares: apply the drift gate, answer
// through the degradation ladder under the request's response key, and
// count the answer as served. body builds the endpoint's response on a
// ladder miss. degraded is the drift gate's verdict, which the answer
// applies OUTSIDE the ladder because degradation is live state (withLive).
func serve[T any](ctx context.Context, s *Server, endpoint string, r resolved, body func(context.Context, resolved) (T, error)) (degraded bool, a answer[T], err error) {
	if degraded, err = s.driftGate(r); err != nil {
		return false, a, err
	}
	if a, err = cached(ctx, s, responseKey(endpoint, r.key), func() (T, error) { return body(ctx, r) }); err != nil {
		return false, a, err
	}
	s.markServed(r.p.Name, r.cfg.Tiling)
	return degraded, a, nil
}

// withLive returns the bytes of a's response with live state applied.
// Without live state (need false) they are the ladder's bytes as they
// stand; otherwise the response is decoded only now, apply sets the live
// fields, and the result is marshalled again.
func withLive[T any](a answer[T], need bool, apply func(*T) error) ([]byte, error) {
	if !need {
		return a.bytes, nil
	}
	v, err := a.value()
	if err != nil {
		return nil, err
	}
	if err := apply(&v); err != nil {
		return nil, err
	}
	return json.Marshal(v)
}

// The three functions below build each endpoint's deterministic body from
// a resolved request; serve calls them on a ladder miss.

func (s *Server) compileResponse(ctx context.Context, r resolved) (CompileResponse, error) {
	res, err := s.compile(ctx, r, "")
	if err != nil {
		return CompileResponse{}, err
	}
	return CompileResponse{
		Kernel:       r.key.Kernel,
		Arch:         r.p.Name,
		Objective:    r.cfg.Search.Objective.String(),
		CapLevel:     r.cfg.CapLevel.String(),
		CapsInserted: res.CapsInserted,
		CapsRemoved:  res.CapsRemoved,
		Nests:        nestResponses(res),
		Topology:     res.Topology,
	}, nil
}

// characterizeResponse runs the analysis prefix of the pipeline —
// preprocess, deps, tile, cachemodel, cache-eval, characterize — and
// answers with the calibrated roofline plus each nest's classification.
func (s *Server) characterizeResponse(ctx context.Context, r resolved) (CharacterizeResponse, error) {
	res, err := s.compile(ctx, r, core.StageCharacterize)
	if err != nil {
		return CharacterizeResponse{}, err
	}
	c := r.target.Constants
	return CharacterizeResponse{
		Kernel:     r.key.Kernel,
		Arch:       r.p.Name,
		PeakGFlops: c.PeakGFlops,
		PeakGBs:    c.PeakGBs,
		BtDRAM:     c.BtDRAM,
		Nests:      nestResponses(res),
	}, nil
}

// searchResponse compiles the request and answers with the model half of
// a search response; the Result comes back too, for the measured half.
func (s *Server) searchResponse(ctx context.Context, r resolved) (SearchResponse, *core.Result, error) {
	res, err := s.compile(ctx, r, "")
	if err != nil {
		return SearchResponse{}, nil, err
	}
	return SearchResponse{
		Kernel:    r.key.Kernel,
		Arch:      r.p.Name,
		Objective: r.cfg.Search.Objective.String(),
		Nests:     nestResponses(res),
		Topology:  res.Topology,
	}, res, nil
}

// The three answer functions below are each endpoint's whole path over a
// resolved request: serve, then live state. The HTTP handler and the sweep
// and characterize job units call the same one, so a unit is the answer
// its endpoint gives, and jobs and endpoints share the ladder both ways.

func (s *Server) compileAnswer(ctx context.Context, r resolved) ([]byte, error) {
	degraded, a, err := serve(ctx, s, "v1/compile", r, s.compileResponse)
	if err != nil {
		return nil, err
	}
	return withLive(a, degraded, func(resp *CompileResponse) error {
		resp.CalibrationDegraded = true
		return nil
	})
}

func (s *Server) characterizeAnswer(ctx context.Context, r resolved) ([]byte, error) {
	degraded, a, err := serve(ctx, s, "v1/characterize", r, s.characterizeResponse)
	if err != nil {
		return nil, err
	}
	return withLive(a, degraded, func(resp *CharacterizeResponse) error {
		resp.CalibrationDegraded = true
		return nil
	})
}

func (s *Server) searchAnswer(ctx context.Context, r resolved) ([]byte, error) {
	// The model half is deterministic and journaled; the measured half
	// never is — it exercises the live driver every time.
	var res *core.Result
	degraded, a, err := serve(ctx, s, "v1/search", r, func(ctx context.Context, r resolved) (resp SearchResponse, err error) {
		resp, res, err = s.searchResponse(ctx, r)
		return resp, err
	})
	if err != nil {
		return nil, err
	}
	return withLive(a, degraded || r.measure, func(resp *SearchResponse) error {
		resp.CalibrationDegraded = degraded
		if !r.measure {
			return nil
		}
		// A ladder hit skipped the compile; the measured path needs the
		// compiled module regardless.
		if res == nil {
			if res, err = s.compile(ctx, r, ""); err != nil {
				return err
			}
		}
		s.measure(res, r, resp)
		return nil
	})
}

// measure runs the baseline and the capped program on the platform's
// shared machine through its circuit breaker. Any driver-path failure —
// breaker open, verified-write exhaustion, run error — degrades the
// response to the model-only answer with DegradedTo set, never an error:
// a sick driver must not make the endpoint unavailable.
func (s *Server) measure(res *core.Result, r resolved, resp *SearchResponse) {
	b := s.breakers[r.p.Name]
	var base hw.RunResult
	err := b.WithMachine(func(m *hw.Machine) (err error) {
		base, err = m.RunBaseline(res.Module.Funcs...)
		return err
	})
	if err != nil {
		s.degraded.Add(1)
		resp.DegradedTo = "model-only: baseline measurement failed: " + err.Error()
		return
	}
	// Every successful baseline measurement feeds the drift watchdog:
	// the model's default-cap prediction vs what the hardware just did.
	// Sustained disagreement past the threshold flips the backend to
	// degraded and auto-enqueues a re-fit job (see onDrift).
	var predicted float64
	for _, rep := range res.Reports {
		if rep.Degraded {
			predicted = 0
			break
		}
		predicted += rep.EstDefault.Seconds
	}
	if predicted > 0 {
		s.drift.Record(r.p.Name, predicted, base.Seconds)
	}
	capped, err := b.RunFunc(res.Module.Funcs[0])
	if err != nil {
		s.degraded.Add(1)
		if errors.Is(err, hw.ErrBreakerOpen) {
			resp.DegradedTo = "model-only: " + err.Error()
		} else {
			resp.DegradedTo = "model-only: capped run failed: " + err.Error()
		}
		return
	}
	m := &MeasuredResponse{
		BaselineSeconds: base.Seconds,
		BaselineJoules:  base.PkgJoules,
		BaselineEDP:     base.EDP,
		CappedSeconds:   capped.Seconds,
		CappedJoules:    capped.PkgJoules,
		CappedEDP:       capped.EDP,
	}
	if base.EDP > 0 {
		m.EDPGainPct = 100 * (1 - capped.EDP/base.EDP)
	}
	s.applySocketCaps(res, r, m)
	resp.Measured = m
}

// applySocketCaps asserts the compiled per-socket cap vector on every
// extra uncore domain of a topology backend through that socket's own
// breaker (the capped run above already drove socket 0's). One socket's
// driver failure degrades only that socket — it is recorded, counted,
// and the measured answer stands.
func (s *Server) applySocketCaps(res *core.Result, r resolved, m *MeasuredResponse) {
	if r.target.NumSockets() <= 1 {
		return
	}
	caps := res.FinalSocketCaps()
	if caps == nil {
		return
	}
	m.SocketCaps = caps
	for k := 1; k < len(caps); k++ {
		b := s.socketBreaker(r.p.Name, k)
		if b == nil {
			continue
		}
		if _, err := b.SetCap(caps[k]); err != nil {
			s.degraded.Add(1)
			m.SocketDegraded = append(m.SocketDegraded, fmt.Sprintf("s%d: %v", k, err))
		}
	}
}

// PlatformResponse is one entry of the /v1/platforms payload: the
// backend's identity plus the provenance of the calibration serving it.
type PlatformResponse struct {
	Name         string             `json:"name"`
	Aliases      []string           `json:"aliases,omitempty"`
	CPU          string             `json:"cpu"`
	Cores        int                `json:"cores"`
	Threads      int                `json:"threads"`
	UncoreMinGHz float64            `json:"uncore_min_ghz"`
	UncoreMaxGHz float64            `json:"uncore_max_ghz"`
	CapStepGHz   float64            `json:"cap_step_ghz"`
	Paper        bool               `json:"paper,omitempty"`
	BackendHash  string             `json:"backend_hash"`
	PeakGFlops   float64            `json:"peak_gflops"`
	PeakGBs      float64            `json:"peak_gbs"`
	BtDRAM       float64            `json:"bt_dram"`
	FitDate      string             `json:"fit_date,omitempty"`
	FitSeed      int64              `json:"fit_seed"`
	FitTool      string             `json:"fit_tool,omitempty"`
	FitResiduals map[string]float64 `json:"fit_residuals,omitempty"`
	// Topology shape (multi-socket/multi-node backends only; all omitted
	// for v1 single-socket descriptions so their payloads are unchanged).
	Sockets         int     `json:"sockets,omitempty"`
	Nodes           int     `json:"nodes,omitempty"`
	TotalThreads    int     `json:"total_threads,omitempty"`
	InterconnectGBs float64 `json:"interconnect_gbs,omitempty"`
}

// PlatformsResponse is the /v1/platforms payload.
type PlatformsResponse struct {
	Platforms []PlatformResponse `json:"platforms"`
}

// handlePlatforms lists the served backends with calibration provenance.
// Like the other observability endpoints it bypasses the admission gate:
// discovering which machines a shedding daemon serves must still work.
func (s *Server) handlePlatforms(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeJSON(w, http.StatusMethodNotAllowed, errBody{"GET required"})
		return
	}
	resp := PlatformsResponse{Platforms: []PlatformResponse{}}
	for _, p := range s.plats {
		// Through target(): a re-fit job's swapTarget writes the map.
		t, _ := s.target(p.Name)
		resp.Platforms = append(resp.Platforms, platformResponse(t))
	}
	writeJSON(w, http.StatusOK, resp)
}

func platformResponse(t *roofline.Target) PlatformResponse {
	p, c, b, prov := t.Platform, t.Constants, t.Backend, t.Calibration.Provenance
	out := PlatformResponse{
		Name: p.Name, CPU: p.CPU, Cores: p.Cores, Threads: p.Threads,
		UncoreMinGHz: p.UncoreMin, UncoreMaxGHz: p.UncoreMax, CapStepGHz: p.CapStep,
		PeakGFlops: c.PeakGFlops, PeakGBs: c.PeakGBs, BtDRAM: c.BtDRAM,
		Aliases: b.Aliases, Paper: b.Paper, BackendHash: b.Hash(),
		FitDate: prov.FitDate, FitSeed: prov.Seed, FitTool: prov.Tool, FitResiduals: prov.Residuals,
	}
	if b.NumSockets() > 1 || b.NumNodes() > 1 {
		out.Sockets = b.NumSockets()
		out.Nodes = b.NumNodes()
		out.TotalThreads = b.TotalThreads()
		if b.Interconnect != nil {
			out.InterconnectGBs = b.Interconnect.BWGBs
		}
	}
	return out
}

// HealthzResponse is the /healthz payload.
type HealthzResponse struct {
	Status   string            `json:"status"`
	Breakers map[string]string `json:"breakers"`
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	resp := HealthzResponse{Status: "ok", Breakers: map[string]string{}}
	for name, b := range s.breakers {
		st := b.State()
		resp.Breakers[name] = st.String()
		if st != breaker.Closed {
			resp.Status = "degraded"
		}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleStatsz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.statsz())
}
