package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"time"

	"polyufc/internal/core"
	"polyufc/internal/ir"
	"polyufc/internal/pipeline"
	"polyufc/internal/platform"
	"polyufc/internal/roofline"
	"polyufc/internal/search"
	"polyufc/internal/server"
	"polyufc/internal/tiling"
	"polyufc/internal/workloads"
)

// span is one timed interval at a layer boundary. Spans are recorded from
// the harness's own files, around its calls into each layer; spans of one
// request share Req (direct-call passes use Req -1).
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"` // 0 = root
	Req      int    `json:"req"`
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"` // since the tracer was made
	EndNS    int64  `json:"end_ns"`
	CacheHit bool   `json:"cache_hit,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// tracer keeps spans in memory; they are written out when the run ends. A
// nil tracer records nothing, which is the untraced pass.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id; end closes it.
func (t *tracer) begin(name string, parent, req int) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name, StartNS: int64(time.Since(t.t0))})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t != nil {
		t.spans[id-1].EndNS = int64(time.Since(t.t0))
	}
}

// closed records a span that already ended, lasting d — the shape stage
// events arrive in.
func (t *tracer) closed(name string, parent, req int, d time.Duration, hit bool) {
	if t == nil {
		return
	}
	now := int64(time.Since(t.t0))
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name, StartNS: now - int64(d), EndNS: now, CacheHit: hit})
}

func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes returns each span's duration minus the part its direct
// children cover.
func selfTimes(spans []span) map[int]time.Duration {
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		self[s.ID] += s.dur()
		if s.Parent != 0 {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}

// mirror resolves a request the way internal/server does and runs it
// through its own core.Cache and stage cache, so the harness can put spans
// around Kernel.Build, core.CompilePipeline and every pipeline.Event of a
// compilation equivalent to the daemon's. Its caches live across set-up
// phases: a key the daemon answers from its journal or CAS after a reboot
// is a memo hit here — no compile spans, as in the daemon.
type mirror struct {
	targets map[string]*roofline.Target
	cache   core.Cache
	stages  pipeline.Cache
}

func newMirror(limit int) *mirror {
	m := &mirror{targets: map[string]*roofline.Target{}}
	m.cache.SetLimit(limit)
	m.stages.SetLimit(limit)
	return m
}

func (m *mirror) target(name string) (*roofline.Target, error) {
	b, err := platform.Lookup(name)
	if err != nil {
		return nil, err
	}
	if t, ok := m.targets[b.Name]; ok {
		return t, nil
	}
	t, err := roofline.Resolve(b)
	if err == nil {
		m.targets[b.Name] = t
	}
	return t, err
}

// run compiles one request; with a tracer it records workloads.build,
// core.compile and one child span per stage event under parent.
func (m *mirror) run(tr *tracer, parent, reqID int, r request) error {
	var req server.Request
	if err := json.Unmarshal([]byte(r.Body), &req); err != nil {
		return err
	}
	t, err := m.target(req.Platform)
	if err != nil {
		return err
	}
	k, err := workloads.ByName(req.Kernel)
	if err != nil {
		return err
	}
	size := workloads.Bench
	if req.Size == "test" {
		size = workloads.Test
	}
	spec, err := tiling.ParseSpec(req.Tiling)
	if err != nil {
		return err
	}
	obj, ok := search.ParseObjective(req.Objective)
	if !ok {
		return fmt.Errorf("unknown objective %q", req.Objective)
	}
	cfg := core.DefaultConfig(t)
	cfg.Search.Objective = obj
	if req.Epsilon > 0 {
		cfg.Search.Epsilon = req.Epsilon
	}
	cfg.Tiling = spec

	compile := tr.begin("core.compile", parent, reqID)
	opts := core.PipelineOptions{Stages: &m.stages}
	if tr != nil {
		opts.Observe = func(e pipeline.Event) { tr.closed("stage."+e.Stage, compile, reqID, e.Duration, e.CacheHit) }
	}
	build := func() (*ir.Module, error) {
		id := tr.begin("workloads.build", compile, reqID)
		defer tr.end(id)
		return k.Build(size)
	}
	ctx := context.Background()
	if strings.HasSuffix(r.Path, "/characterize") {
		var mod *ir.Module
		if mod, err = build(); err == nil {
			opts.Until = core.StageCharacterize
			_, err = core.CompilePipeline(ctx, mod, cfg, opts)
		}
	} else {
		_, err = m.cache.CompileStaged(ctx, core.CacheKey{
			Kernel: req.Kernel, Platform: t.Platform.Name, CalHash: t.Constants.Hash(), Size: int(size),
			CapLevel: cfg.CapLevel, Tiling: spec.Fingerprint(), Objective: obj, Epsilon: cfg.Search.Epsilon,
		}, cfg, opts, build)
	}
	tr.end(compile)
	return err
}

// replay is the in-process half of a traced run.
type replay struct {
	spans    []span
	payloads []payload // distinct responses, for the journal/CAS passes
	traced   time.Duration
	untraced time.Duration
}

// replayInProcess replays the plan's set-up and its first replayCount
// window requests in this process: server.handle around the in-process
// daemon's ServeHTTP, then the same request through two mirrors, one with
// spans and one without, alternating which goes first. The two mirror
// times give the tracing overhead.
func replayInProcess(p plan, dir string, tr *tracer) (replay, error) {
	var rp replay
	if err := os.RemoveAll(dir); err != nil {
		return rp, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return rp, err
	}
	post := func(h http.Handler, r request) (*httptest.ResponseRecorder, error) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, r.Path, strings.NewReader(r.Body)))
		if rec.Code != http.StatusOK {
			return nil, fmt.Errorf("in-process POST %s %s: status %d: %s", r.Path, r.Body, rec.Code, rec.Body)
		}
		return rec, nil
	}
	limit := server.DefaultConfig().CacheLimit
	traced, untraced := newMirror(limit), newMirror(limit)
	var srv *server.Server
	for i, ph := range p.phases {
		var err error
		if srv, err = server.New(ph.Boot.config(dir)); err != nil {
			return rp, err
		}
		for _, r := range ph.Fill {
			_, err := post(srv.Handler(), r)
			for _, m := range []*mirror{traced, untraced} {
				if err == nil {
					err = m.run(nil, 0, -1, r)
				}
			}
			if err != nil {
				srv.Close()
				return rp, err
			}
		}
		if i < len(p.phases)-1 {
			if err := srv.Close(); err != nil {
				return rp, err
			}
		}
	}
	defer srv.Close()
	h := srv.Handler()
	seen := map[string]bool{}
	for i := 0; i < p.replayCount; i++ {
		r, ok := p.window(i)
		if !ok {
			break
		}
		id := tr.begin("server.handle", 0, i)
		rec, err := post(h, r)
		tr.end(id)
		if err != nil {
			return rp, err
		}
		if !seen[r.Body] {
			seen[r.Body] = true
			rp.payloads = append(rp.payloads, payload{r.Path, rec.Body.Bytes()})
		}
		sides := [2]struct {
			m     *mirror
			tr    *tracer
			spent *time.Duration
		}{{traced, tr, &rp.traced}, {untraced, nil, &rp.untraced}}
		for j := range sides {
			side := sides[(i+j)%2]
			start := time.Now()
			err := side.m.run(side.tr, 0, i, r)
			*side.spent += time.Since(start)
			if err != nil {
				return rp, err
			}
		}
	}
	rp.spans = tr.spans
	return rp, nil
}

// replayMetrics derives the T-sourced layer metrics from the replay's
// spans.
func replayMetrics(rp replay) map[string]float64 {
	self := selfTimes(rp.spans)
	var handle, compile, compileSelf, build, load time.Duration
	var requests, loads int
	for _, s := range rp.spans {
		switch {
		case s.Name == "server.handle":
			handle += s.dur()
			requests++
		case s.Name == "core.compile":
			compile += s.dur()
			compileSelf += self[s.ID]
		case s.Name == "workloads.build":
			build += s.dur()
		case s.CacheHit:
			load += s.dur()
			loads++
		}
	}
	// Means per replayed request (build runs only on a memo miss, but is
	// averaged over all requests like the compile it is part of); the
	// snapshot load is a mean per loaded stage.
	per := func(d time.Duration, n int) float64 {
		if n == 0 {
			return 0
		}
		return ms(d) / float64(n)
	}
	return map[string]float64{
		"core.compile_ms":           per(compile, requests),
		"core.self_ms":              per(compileSelf, requests),
		"workloads.build_ms":        per(build, requests),
		"server.overhead_cold_ms":   per(handle-compile, requests),
		"pipeline.snapshot_load_us": 1000 * per(load, loads),
		"trace.overhead_ratio":      float64(rp.traced) / float64(rp.untraced),
	}
}

func traceFile(workload string) string {
	return filepath.Join(outRoot, "trace-"+workload+".json")
}
