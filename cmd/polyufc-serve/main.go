// Command polyufc-serve runs the PolyUFC compilation service: an HTTP
// daemon exposing the compiler pipeline as /v1/compile, /v1/characterize
// and /v1/search, hardened for long-running operation — bounded admission
// queue (429 + Retry-After under load), per-request deadlines, a circuit
// breaker quarantining a sick UFS driver (measured requests degrade to
// model-only answers), LRU-bounded caches, a crash-safe response journal,
// and graceful drain on SIGTERM/SIGINT: the listener stops accepting,
// in-flight requests finish, running jobs checkpoint, and the
// driver-default uncore cap is restored before exit.
//
// With -jobs-dir the daemon also runs the async job tier (POST /v1/jobs):
// journal-backed sweep/characterize/refit jobs that survive
// kill -9 and resume byte-identically, plus the calibration-drift
// watchdog that auto-enqueues a re-fit when measured runs disagree with
// the calibrated model.
//
// With -cas-dir the daemon persists deterministic responses and
// calibration artifacts in a content-addressed store and warm-starts
// from it after a restart; with -peer it also exchanges those entries
// with fleet peers over GET/PUT /v1/cas/{key} — deadline-bounded, hedged,
// checksum-verified, behind per-peer circuit breakers, degrading to local
// compute on any peer failure.
//
// Usage:
//
//	polyufc-serve -addr :8321
//	polyufc-serve -addr :8321 -journal serve.jsonl -resume
//	polyufc-serve -addr :8321 -jobs-dir /var/lib/polyufc/jobs
//	polyufc-serve -addr :8321 -cas-dir /var/lib/polyufc/cas -peer http://10.0.0.2:8321
//	polyufc-serve -fault "ufs.write.ebusy=0.5" -breaker-threshold 2
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"syscall"
	"time"

	"polyufc/internal/core"
	"polyufc/internal/faults"
	"polyufc/internal/platform"
	"polyufc/internal/server"
	"polyufc/internal/tiling"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:8321", "listen address")
		concurrency = flag.Int("concurrency", 0, "requests served at once (0 = GOMAXPROCS)")
		queue       = flag.Int("queue", 64, "admission queue depth before shedding load with 429")
		reqTimeout  = flag.Duration("request-timeout", 30*time.Second, "per-request deadline")
		drain       = flag.Duration("drain-timeout", 10*time.Second, "max wait for in-flight requests on shutdown")
		brkThresh   = flag.Int("breaker-threshold", 3, "consecutive driver failures that trip the cap breaker")
		brkCooldown = flag.Duration("breaker-cooldown", time.Second, "how long a tripped breaker stays open before probing")
		cacheLimit  = flag.Int("cache-limit", 1024, "LRU bound on the answer memo, the stage cache and the profile cache")
		degrade     = flag.String("degrade", "strict", "compilation failure policy: strict or best-effort")
		tilingSpec  = flag.String("tiling", "", `default tiling strategy for requests that omit one: pluto, pluto:size=64, cacheoblivious[:base=N], latency[:probe=N], auto`)
		fault       = flag.String("fault", "", `inject failures, e.g. "ufs.write.ebusy=0.5; core.pluto=@2"`)
		faultSeed   = flag.Int64("fault-seed", 1, "seed for probabilistic fault triggers")
		faultSocket = flag.Int("fault-socket", -1, "scope -fault on multi-socket backends: -1 arms every socket's machine, k >= 0 only socket k's")
		topo        = flag.Bool("topology", false, "print the served backends' topologies (sockets, interconnect, nodes) and exit")
		journalPath = flag.String("journal", "", "checkpoint deterministic responses to this JSONL journal")
		resume      = flag.Bool("resume", false, "replay an existing journal instead of truncating it")
		platFiles   = flag.String("platform-file", "", "comma-separated backend description files (platforms/*.json); the daemon serves every registered backend")
		jobsDir     = flag.String("jobs-dir", "", "enable the async job tier, journaling jobs under this directory")
		jobWorkers  = flag.Int("job-workers", 2, "concurrent job executors (with -jobs-dir)")
		driftThresh = flag.Float64("drift-threshold", 0, "model-vs-measured EWMA residual that marks a backend's calibration degraded (0 = default 0.25)")
		driftMin    = flag.Int64("drift-min-samples", 0, "measured samples before the drift threshold applies (0 = default 3)")
		casDir      = flag.String("cas-dir", "", "enable the persistent content-addressed cache under this directory (responses and calibrations survive restarts)")
		casMaxBytes = flag.Int64("cas-max-bytes", 0, "LRU bound on the persistent cache's payload volume in bytes (0 = unbounded)")
		peerTimeout = flag.Duration("peer-timeout", 0, "per-attempt deadline for fleet peer lookups (0 = default 500ms)")
		peerRetries = flag.Int("peer-retries", 0, "extra backoff rounds over the peer set after an all-error round (0 = default 1)")
	)
	var peers []string
	flag.Func("peer", "fleet peer base URL, e.g. http://10.0.0.2:8321 (repeatable, or comma-separated)", func(v string) error {
		for _, p := range platform.SplitList(v) {
			peers = append(peers, strings.TrimSuffix(p, "/"))
		}
		return nil
	})
	flag.Parse()

	policy, ok := core.ParseDegradePolicy(*degrade)
	if !ok {
		fmt.Fprintf(os.Stderr, "polyufc-serve: unknown degrade policy %q (want strict or best-effort)\n", *degrade)
		os.Exit(1)
	}
	reg, err := faults.Parse(*fault, *faultSeed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "polyufc-serve:", err)
		os.Exit(1)
	}
	tspec, err := tiling.ParseSpec(*tilingSpec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "polyufc-serve:", err)
		os.Exit(1)
	}
	cfg := server.DefaultConfig()
	if *concurrency <= 0 {
		*concurrency = runtime.GOMAXPROCS(0)
	}
	cfg.Concurrency = *concurrency
	cfg.Queue = *queue
	cfg.RequestTimeout = *reqTimeout
	cfg.DrainTimeout = *drain
	cfg.Breaker.Threshold = *brkThresh
	cfg.Breaker.Cooldown = *brkCooldown
	cfg.CacheLimit = *cacheLimit
	cfg.Degrade = policy
	cfg.Tiling = tspec
	cfg.Faults = reg
	cfg.FaultSeed = *faultSeed
	cfg.FaultSocket = *faultSocket
	cfg.JournalPath = *journalPath
	cfg.Resume = *resume
	cfg.JobsDir = *jobsDir
	cfg.JobWorkers = *jobWorkers
	cfg.Drift.Threshold = *driftThresh
	cfg.Drift.MinSamples = *driftMin
	cfg.CASDir = *casDir
	cfg.CASMaxBytes = *casMaxBytes
	cfg.Peers = peers
	cfg.PeerTimeout = *peerTimeout
	cfg.PeerRetries = *peerRetries
	cfg.PlatformFiles = platform.SplitList(*platFiles)
	if *topo {
		if err := platform.LoadFiles(*platFiles); err != nil {
			fmt.Fprintln(os.Stderr, "polyufc-serve:", err)
			os.Exit(1)
		}
		for _, b := range platform.All() {
			fmt.Print(b.TopologySummary())
		}
		return
	}
	if err := run(*addr, cfg); err != nil {
		fmt.Fprintln(os.Stderr, "polyufc-serve:", err)
		os.Exit(1)
	}
}

func run(addr string, cfg server.Config) error {
	srv, err := server.New(cfg)
	if err != nil {
		return err
	}
	if cfg.JournalPath != "" {
		st := srv.JournalStats()
		fmt.Fprintf(os.Stderr, "polyufc-serve: journal %s: %d entries loaded (%d torn dropped)\n",
			cfg.JournalPath, st.Entries, st.Dropped)
	}
	if cfg.JobsDir != "" {
		st := srv.JobStats()
		fmt.Fprintf(os.Stderr, "polyufc-serve: job tier on %s: %d job(s) journaled, %d resumed\n",
			cfg.JobsDir, st.Jobs, st.ByState["queued"])
	}
	if cfg.CASDir != "" {
		st := srv.CASStats()
		fmt.Fprintf(os.Stderr, "polyufc-serve: cas %s: %d entries warm-started (%d quarantined)\n",
			cfg.CASDir, st.WarmEntries, st.Quarantined)
	}
	if len(cfg.Peers) > 0 {
		fmt.Fprintf(os.Stderr, "polyufc-serve: fleet mode: %d peer(s): %s\n",
			len(cfg.Peers), strings.Join(cfg.Peers, ", "))
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fmt.Fprintf(os.Stderr, "polyufc-serve: listening on %s (concurrency %d, queue %d)\n",
		ln.Addr(), cfg.Concurrency, cfg.Queue)
	err = srv.Run(ctx, ln)
	fmt.Fprintln(os.Stderr, "polyufc-serve: drained, jobs checkpointed, caps restored, bye")
	return err
}
