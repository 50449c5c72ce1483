// Package server is the PolyUFC serving daemon: an HTTP front end over
// the compilation pipeline (compile / characterize / search endpoints)
// hardened for long-running operation. Requests pass an admission gate (a
// bounded queue that sheds load with 429 + Retry-After when full), carry
// per-request deadlines propagated through core and search via context,
// and measure hardware through a circuit breaker wrapping hw.CapController
// — a sick UFS driver degrades answers to model-only instead of hanging
// the pool. Deterministic responses checkpoint to a crash-safe journal so
// a restarted daemon replays them, caches are LRU-bounded, panics are
// isolated per request, and shutdown drains in-flight work before
// guaranteeing the driver-default cap is restored.
package server

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"polyufc/internal/breaker"
	"polyufc/internal/cas"
	"polyufc/internal/core"
	"polyufc/internal/faults"
	"polyufc/internal/fleet"
	"polyufc/internal/hw"
	"polyufc/internal/jobs"
	"polyufc/internal/journal"
	"polyufc/internal/parallel"
	"polyufc/internal/pipeline"
	"polyufc/internal/platform"
	"polyufc/internal/roofline"
	"polyufc/internal/tiling"
)

// Config tunes the daemon.
type Config struct {
	// Concurrency is the number of requests served at once (0 means
	// GOMAXPROCS); Queue bounds how many more may wait for a slot before
	// the gate sheds load with 429.
	Concurrency int
	Queue       int
	// RequestTimeout is the per-request deadline propagated through the
	// compilation pipeline; DrainTimeout bounds how long shutdown waits
	// for in-flight requests.
	RequestTimeout time.Duration
	DrainTimeout   time.Duration
	// Breaker tunes the per-platform circuit breaker quarantining the
	// UFS driver after consecutive verified-write failures.
	Breaker breaker.Options
	// CacheLimit is the LRU bound on the answer memo (the ladder's
	// in-memory rung), the stage cache and the profile cache — mandatory
	// hygiene for a process meant to run forever.
	CacheLimit int
	// Degrade is the compilation failure policy for served requests.
	Degrade core.DegradePolicy
	// Tiling is the default tile-stage strategy for requests that do not
	// choose one ("tiling" request field or tiling= query parameter). The
	// zero value is the pluto strategy — the pre-strategy pipeline.
	Tiling tiling.Spec
	// Faults, when non-nil, arms the injectable failure modes on every
	// machine and compilation the daemon runs (smoke tests, chaos runs).
	Faults *faults.Registry
	// FaultSeed seeds the cap controllers' backoff jitter.
	FaultSeed int64
	// FaultSocket scopes Faults on multi-socket backends: negative arms
	// every socket's machine, k >= 0 arms only socket k's. Single-socket
	// backends are unaffected (socket 0 is the only machine either way).
	// Smoke tests use this to prove one socket's UFS fault degrades only
	// that socket's uncore domain.
	FaultSocket int
	// JournalPath, when set, checkpoints deterministic responses to a
	// crash-safe JSONL journal; with Resume the journal is replayed on
	// startup (otherwise it is truncated).
	JournalPath string
	Resume      bool
	// PlatformFiles are extra backend descriptions (platforms/*.json) to
	// register before calibration: the daemon serves every registered
	// backend, so a machine added purely as JSON is served with zero code
	// changes.
	PlatformFiles []string
	// JobsDir, when set, enables the crash-safe asynchronous job tier
	// (/v1/jobs): sweeps, characterizations and calibration re-fits run
	// on a worker pool, journaled so a killed daemon resumes them on
	// restart. JobWorkers sizes the pool.
	JobsDir    string
	JobWorkers int
	// Drift tunes the calibration-drift watchdog: live model-vs-measured
	// residuals per backend, with a re-fit job auto-enqueued (when the
	// job tier is enabled) once a backend's residual EWMA crosses the
	// threshold. Zero fields select roofline.DefaultDriftOptions.
	Drift roofline.DriftOptions
	// CASDir, when set, enables the persistent content-addressed
	// snapshot store: deterministic responses and calibration artifacts
	// persist across restarts (warm start) and are served to
	// fleet peers over GET/PUT /v1/cas/{key}. CASMaxBytes bounds the
	// store's payload volume with LRU eviction (0 = unbounded).
	CASDir      string
	CASMaxBytes int64
	// Peers are the base URLs of the static fleet peer set. With at
	// least one peer, cache misses consult the fleet (deadline-bounded,
	// hedged, per-peer circuit breakers) before computing, and computed
	// entries are offered back asynchronously. PeerTimeout bounds one
	// attempt (a parallel second attempt starts a quarter of it in),
	// PeerRetries adds backoff rounds; zeros select fleet defaults.
	Peers       []string
	PeerTimeout time.Duration
	PeerRetries int
}

// DefaultConfig returns production-shaped defaults.
func DefaultConfig() Config {
	return Config{
		Queue:          64,
		RequestTimeout: 30 * time.Second,
		DrainTimeout:   10 * time.Second,
		Breaker:        breaker.DefaultOptions(),
		CacheLimit:     1024,
		FaultSocket:    -1,
	}
}

// Server is the daemon state: calibrated platforms, shared bounded
// caches, per-platform breaker-guarded machines, the admission gate and
// the response journal.
type Server struct {
	cfg   Config
	gate  *parallel.Gate
	plats []*hw.Platform
	// targets maps backend name to its resolved target. The map is
	// written by boot and by the re-fit job's atomic swap; requests read
	// their target once at resolve time and keep that snapshot for the
	// whole compilation.
	targetsMu sync.RWMutex
	targets   map[string]*roofline.Target
	profiles  hw.ProfileCache
	breakers  map[string]*hw.CapBreaker
	jrnl      *journal.Journal
	// casStore is the persistent content-addressed snapshot store and
	// fleetCli the peer cache protocol client; both nil-safe no-ops when
	// the daemon runs without -cas-dir / -peer.
	casStore *cas.Store
	fleetCli *fleet.Client
	// ladder answers deterministic responses (ladder.go): the in-memory
	// answer memo on top of whichever of the three tiers above are
	// configured. It is the only whole-response memo; the daemon keeps no
	// core.Result between requests.
	ladder ladder
	start  time.Time

	// drift is the calibration-drift watchdog; jobsMgr the async job
	// tier (nil unless cfg.JobsDir is set).
	drift   *roofline.DriftTracker
	jobsMgr *jobs.Manager

	// shutdown closes when the daemon begins draining; long-lived
	// streams (job event SSE) terminate on it instead of holding the
	// drain open.
	shutdown     chan struct{}
	shutdownOnce sync.Once

	// platServed counts answers served per backend and tilingServed per
	// tiling strategy (both prefilled at boot, so handlers update without
	// locking); markServed counts them with served.
	platServed   map[string]*atomic.Int64
	tilingServed map[string]*atomic.Int64

	// stages memoizes per-stage compile snapshots across endpoints: a
	// characterize followed by a search on the same kernel/config reuses
	// the analysis prefix instead of redoing it, and the same kernel and
	// tiling on a second platform reuses everything up to the stage that
	// applies the cache hierarchy (core.StageCacheEval).
	// stageStats aggregates every pipeline stage event for statsz.
	stages     pipeline.Cache
	stageStats pipeline.Metrics

	served   atomic.Int64
	rejected atomic.Int64
	panics   atomic.Int64
	degraded atomic.Int64

	closeOnce sync.Once
	closeErr  error

	// testHook, when non-nil, runs inside every request after admission —
	// the deterministic way tests hold a slot or inject a handler panic.
	testHook func()
}

// New builds a daemon: platforms calibrate concurrently, caches are
// bounded, one breaker-guarded cap controller boots per platform, and the
// journal (if configured) is opened or truncated per cfg.Resume.
func New(cfg Config) (*Server, error) {
	def := DefaultConfig()
	if cfg.Queue <= 0 {
		cfg.Queue = def.Queue
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = def.RequestTimeout
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = def.DrainTimeout
	}
	if cfg.CacheLimit <= 0 {
		cfg.CacheLimit = def.CacheLimit
	}
	s := &Server{
		cfg:          cfg,
		gate:         parallel.NewGate(parallel.Workers(cfg.Concurrency), cfg.Queue),
		targets:      map[string]*roofline.Target{},
		breakers:     map[string]*hw.CapBreaker{},
		platServed:   map[string]*atomic.Int64{},
		tilingServed: map[string]*atomic.Int64{},
		start:        time.Now(),
		shutdown:     make(chan struct{}),
	}
	for _, name := range tiling.Names() {
		s.tilingServed[name] = &atomic.Int64{}
	}
	s.profiles.SetLimit(cfg.CacheLimit)
	s.stages.SetLimit(cfg.CacheLimit)

	// The cache tier boots first: the warm-start scan below lets the
	// calibration loop reuse persisted artifacts instead of re-running
	// the micro-benchmarks.
	if cfg.CASDir != "" {
		st, err := cas.OpenOptions(cfg.CASDir, cfg.Faults, cas.Options{MaxBytes: cfg.CASMaxBytes})
		if err != nil {
			return nil, fmt.Errorf("server: %w", err)
		}
		s.casStore = st
	}
	s.fleetCli = fleet.New(fleet.Options{
		Peers: cfg.Peers, Timeout: cfg.PeerTimeout,
		Retries: cfg.PeerRetries, Seed: cfg.FaultSeed, Faults: cfg.Faults,
	})

	for _, path := range cfg.PlatformFiles {
		if _, err := platform.LoadFile(path); err != nil {
			return nil, fmt.Errorf("server: %w", err)
		}
	}
	backends := platform.All()
	targets, err := parallel.Map(context.Background(), len(backends), 0,
		func(_ context.Context, i int) (*roofline.Target, error) {
			if t, ok := s.warmCalibration(backends[i]); ok {
				return t, nil
			}
			t, err := roofline.Resolve(backends[i])
			if err != nil {
				return nil, fmt.Errorf("server: calibrate %s: %w", backends[i].Name, err)
			}
			s.storeCalibration(t)
			return t, nil
		})
	if err != nil {
		return nil, err
	}
	for _, t := range targets {
		p := t.Platform
		s.plats = append(s.plats, p)
		s.targets[p.Name] = t
		s.platServed[p.Name] = &atomic.Int64{}
		// Every socket of the backend's topology is its own uncore domain:
		// its own machine, cap controller (jitter seeds decorrelated per
		// socket) and breaker, so one socket's UFS fault quarantines only
		// that socket. Socket 0 keeps the bare platform key, socket k >= 1
		// is "name#sK" — single-socket daemons are byte-identical to the
		// pre-topology ones.
		ctls, err := hw.SocketControllers(t.Backend, hw.CapControllerOptions{JitterSeed: cfg.FaultSeed})
		if err != nil {
			return nil, fmt.Errorf("server: %s: %w", p.Name, err)
		}
		for i, ctl := range ctls {
			ctl.Machine().SetProfileCache(&s.profiles)
			if cfg.FaultSocket < 0 || cfg.FaultSocket == i {
				ctl.Machine().SetFaults(cfg.Faults)
			}
			s.breakers[socketBreakerName(p.Name, i)] = hw.NewCapBreaker(ctl, cfg.Breaker)
		}
	}

	if cfg.JournalPath != "" {
		j, err := journal.OpenResume(cfg.JournalPath, cfg.Resume)
		if err != nil {
			return nil, err
		}
		s.jrnl = j
	}
	s.buildRungs()

	s.drift = roofline.NewDriftTracker(cfg.Drift)
	s.drift.OnDegrade(s.onDrift)
	if cfg.JobsDir != "" {
		mgr, err := jobs.Open(jobs.Options{Dir: cfg.JobsDir, Workers: cfg.JobWorkers}, s.executeJob)
		if err != nil {
			return nil, fmt.Errorf("server: %w", err)
		}
		s.jobsMgr = mgr
		// Start last: resumed jobs begin executing immediately, against
		// the fully constructed server.
		mgr.Start()
	}
	return s, nil
}

// target returns the live resolved target for a backend name.
func (s *Server) target(name string) (*roofline.Target, bool) {
	s.targetsMu.RLock()
	defer s.targetsMu.RUnlock()
	t, ok := s.targets[name]
	return t, ok
}

// swapTarget atomically replaces a backend's target with a re-fitted
// one. In-flight requests keep the snapshot they resolved; new requests
// see the new fit.
func (s *Server) swapTarget(name string, t *roofline.Target) {
	s.targetsMu.Lock()
	s.targets[name] = t
	s.targetsMu.Unlock()
}

// Run serves on ln until ctx is cancelled (SIGTERM in main), then drains:
// the listener stops accepting, long-lived event streams are released,
// in-flight requests finish (bounded by DrainTimeout), and Close
// checkpoints running jobs and guarantees the driver-default caps are
// back.
func (s *Server) Run(ctx context.Context, ln net.Listener) error {
	hs := &http.Server{Handler: s.Handler()}
	// Shutdown would otherwise wait out the whole drain budget on an
	// open SSE connection: release the streams the moment drain begins.
	hs.RegisterOnShutdown(s.beginShutdown)
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	var err error
	select {
	case <-ctx.Done():
		dctx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
		defer cancel()
		err = hs.Shutdown(dctx)
	case err = <-errc:
	}
	if errors.Is(err, http.ErrServerClosed) {
		err = nil
	}
	if cerr := s.Close(); err == nil {
		err = cerr
	}
	return err
}

// beginShutdown releases long-lived streams; idempotent.
func (s *Server) beginShutdown() { s.shutdownOnce.Do(func() { close(s.shutdown) }) }

// Close drains the job tier (running jobs get DrainTimeout to finish,
// then are interrupted and checkpointed so the next boot resumes them),
// restores the driver-default cap on every platform (bypassing open
// breakers — the machine must never stay capped) and closes the
// journals. It is idempotent.
func (s *Server) Close() error {
	s.closeOnce.Do(func() {
		s.beginShutdown()
		// Stop offering cache fills and wait out in-flight ones before
		// anything they might reference is torn down.
		s.fleetCli.Close()
		if s.jobsMgr != nil {
			dctx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout)
			if err := s.jobsMgr.Close(dctx); err != nil && s.closeErr == nil {
				s.closeErr = err
			}
			cancel()
		}
		// Every breaker — socket 0 and the #sK socket domains alike —
		// must leave the machine at the driver default.
		for _, b := range s.breakers {
			if err := b.Restore(); err != nil && s.closeErr == nil {
				s.closeErr = err
			}
		}
		if err := s.jrnl.Close(); err != nil && s.closeErr == nil {
			s.closeErr = err
		}
	})
	return s.closeErr
}

// socketBreakerName keys one socket's uncore-domain breaker. Socket 0
// keeps the bare platform name (the pre-topology key); socket k >= 1 is
// "name#sk".
func socketBreakerName(plat string, socket int) string {
	if socket <= 0 {
		return plat
	}
	return fmt.Sprintf("%s#s%d", plat, socket)
}

// socketBreaker returns the breaker of one socket's uncore domain (nil
// for sockets the platform does not have).
func (s *Server) socketBreaker(plat string, socket int) *hw.CapBreaker {
	return s.breakers[socketBreakerName(plat, socket)]
}

// markServed counts one answer the ladder gave — an HTTP response or a job
// unit — in the total, under its backend and under its tiling strategy
// (keyed by the spec's strategy name, so "latency:probe=3" counts under
// "latency"). It is the one place all three count, so Served equals the
// sum over Platforms and the sum over TilingServed.
func (s *Server) markServed(platform string, spec tiling.Spec) {
	s.served.Add(1)
	if c, ok := s.platServed[platform]; ok {
		c.Add(1)
	}
	if c, ok := s.tilingServed[spec.Normalize().Name]; ok {
		c.Add(1)
	}
}

// JobStats reports the job tier's journal and state counters (zeros
// when the daemon runs without a jobs directory).
func (s *Server) JobStats() jobs.Stats {
	if s.jobsMgr == nil {
		return jobs.Stats{}
	}
	return s.jobsMgr.Stats()
}

// JournalStats reports the response journal's counters (zeros when no
// journal is configured).
func (s *Server) JournalStats() journal.Stats { return s.jrnl.Stats() }

// CASStats reports the persistent content-addressed store's counters
// (zeros when the daemon runs without -cas-dir).
func (s *Server) CASStats() cas.Stats { return s.casStore.Stats() }

// CacheStatsz is one bounded cache's counters.
type CacheStatsz = parallel.MemoStats

// BreakerStatsz is one platform breaker's observable state, including
// the half-open probe counters recovery assertions (smoke gates) read.
type BreakerStatsz struct {
	State                                    string
	Trips, Probes, Rejected, Recovered       int64
	ConsecutiveFailures                      int
	HalfOpens, ProbeSuccesses, ProbeFailures int64
	Applies, Writes, Retries, Failures       int64
	Restores                                 int64
}

// StageStatsz is one pipeline stage's aggregated events: how often it
// ran, how often a memoized snapshot satisfied it, failures, and total
// wall-clock time.
type StageStatsz struct {
	Runs      int64
	CacheHits int64
	Errors    int64
	TotalMS   float64
}

// PlatformStatsz is one served backend's identity and calibration
// provenance: which machine model answered, fitted when, from which
// description, how well the curves fit.
type PlatformStatsz struct {
	CPU   string
	Paper bool
	// Served is this backend's share of Statsz.Served.
	Served      int64
	BackendHash string
	FitDate     string
	FitSeed     int64
	FitTool     string
	Residuals   map[string]float64
	// Sockets and Nodes are the backend's topology shape (1/1 for v1
	// single-socket descriptions); InterconnectGBs the inter-socket link
	// bandwidth, 0 when the backend declares none.
	Sockets         int
	Nodes           int
	InterconnectGBs float64
}

// Statsz is the /statsz payload.
type Statsz struct {
	UptimeSeconds float64
	// Served counts the answers the ladder gave (replayed or computed) to
	// compile, characterize and search requests and to sweep and
	// characterize job units, counted before live state is applied. A
	// job unit replayed from its job journal on resume is not counted
	// again.
	Served   int64
	Rejected int64
	Panics   int64
	Degraded int64
	Gate     parallel.GateStats
	Breakers map[string]BreakerStatsz
	// CompileCache counts the answer memo, the ladder's in-memory rung:
	// a hit is a response served from its stored bytes, a miss one that
	// walked the persistent rungs or computed. It does not count
	// compilations — Stages does (every compile runs or hits preprocess).
	CompileCache CacheStatsz
	ProfileCache CacheStatsz
	// StageCache counts per-stage snapshot reuse; Stages breaks the
	// pipeline down by stage name (core.Stage* constants).
	StageCache CacheStatsz
	Stages     map[string]StageStatsz
	Journal    journal.Stats
	// CAS is the persistent content-addressed store (warm_hits > 0
	// proves a restart reused the previous run's artifacts); Fleet the
	// peer cache protocol client. Both all-zero when the tier is off.
	CAS   cas.Stats
	Fleet fleet.Stats
	// Platforms maps each served backend to its calibration provenance
	// and its share of Served.
	Platforms map[string]PlatformStatsz
	// TilingServed splits Served by tiling strategy (pluto,
	// cacheoblivious, latency, auto).
	TilingServed map[string]int64
	// Drift is the calibration-drift watchdog's per-backend residuals
	// (empty until measured requests feed it); Jobs the async job tier's
	// counters (nil when the tier is disabled).
	Drift map[string]roofline.DriftStats
	Jobs  *jobs.Stats
}

// statsz snapshots the daemon counters.
func (s *Server) statsz() Statsz {
	out := Statsz{
		UptimeSeconds: time.Since(s.start).Seconds(),
		Served:        s.served.Load(),
		Rejected:      s.rejected.Load(),
		Panics:        s.panics.Load(),
		Degraded:      s.degraded.Load(),
		Gate:          s.gate.Stats(),
		Breakers:      map[string]BreakerStatsz{},
		CompileCache:  s.ladder.memory.Counters(),
		ProfileCache:  s.profiles.Counters(),
		StageCache:    s.stages.Counters(),
		Journal:       s.jrnl.Stats(),
		CAS:           s.casStore.Stats(),
		Fleet:         s.fleetCli.Stats(),
	}
	out.Drift = s.drift.Snapshot()
	if s.jobsMgr != nil {
		js := s.jobsMgr.Stats()
		out.Jobs = &js
	}
	out.Stages = map[string]StageStatsz{}
	for name, st := range s.stageStats.Snapshot() {
		out.Stages[name] = StageStatsz{
			Runs: st.Runs, CacheHits: st.CacheHits, Errors: st.Errors,
			TotalMS: float64(st.Total) / float64(time.Millisecond),
		}
	}
	for name, b := range s.breakers {
		bs := b.Stats()
		cs := b.ControllerStats()
		out.Breakers[name] = BreakerStatsz{
			State: b.State().String(),
			Trips: bs.Trips, Probes: bs.Probes, Rejected: bs.Rejected, Recovered: bs.Recovered,
			ConsecutiveFailures: bs.ConsecutiveFailures,
			HalfOpens:           bs.HalfOpens, ProbeSuccesses: bs.ProbeSuccesses, ProbeFailures: bs.ProbeFailures,
			Applies: cs.Applies, Writes: cs.Writes, Retries: cs.Retries,
			Failures: cs.Failures, Restores: cs.Restores,
		}
	}
	out.TilingServed = map[string]int64{}
	for name, c := range s.tilingServed {
		out.TilingServed[name] = c.Load()
	}
	out.Platforms = map[string]PlatformStatsz{}
	s.targetsMu.RLock()
	targets := make(map[string]*roofline.Target, len(s.targets))
	for name, t := range s.targets {
		targets[name] = t
	}
	s.targetsMu.RUnlock()
	for name, t := range targets {
		b, prov := t.Backend, t.Calibration.Provenance
		ps := PlatformStatsz{
			Served: s.platServed[name].Load(), CPU: b.CPU, Paper: b.Paper, BackendHash: b.Hash(),
			Sockets: b.NumSockets(), Nodes: b.NumNodes(),
			FitDate: prov.FitDate, FitSeed: prov.Seed, FitTool: prov.Tool, Residuals: prov.Residuals,
		}
		if b.Interconnect != nil {
			ps.InterconnectGBs = b.Interconnect.BWGBs
		}
		out.Platforms[name] = ps
	}
	return out
}
