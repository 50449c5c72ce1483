// Command polyufc-bench regenerates the paper's tables and figures on the
// simulated platforms: fig1, fig5, fig6, fig7, fig8, tab1-tab4, overhead,
// dedup, or all.
//
// Usage:
//
//	polyufc-bench -exp fig7 -size bench
//	polyufc-bench -exp all -size test -j 8
//
// Sweeps fan out over a worker pool (-j workers, default GOMAXPROCS) with
// memoized compilations; output is byte-identical to -j 1. Ctrl-C cancels
// in-flight sweeps cleanly.
//
// With -journal the sweep checkpoints each completed unit of work (one
// kernel at one frequency for fig1, one comparison row for fig7) to a
// crash-safe JSONL file; a killed run restarted with -resume replays the
// completed entries instead of re-evaluating them, and the rendered
// figures are byte-identical to an uninterrupted run.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"polyufc/internal/core"
	"polyufc/internal/experiments"
	"polyufc/internal/faults"
	"polyufc/internal/journal"
	"polyufc/internal/platform"
	"polyufc/internal/tiling"
	"polyufc/internal/workloads"
)

func main() {
	var (
		exp       = flag.String("exp", "all", "experiment id: "+fmt.Sprint(experiments.ExperimentIDs()))
		size      = flag.String("size", "bench", "problem size class: test, bench, full")
		jobs      = flag.Int("j", 0, "worker-pool size for sweeps (0 = GOMAXPROCS, 1 = serial)")
		degrade   = flag.String("degrade", "strict", "failure policy: strict (fail fast) or best-effort (drop failing kernels with a summary)")
		tilingStr = flag.String("tiling", "", "tiling strategy for every sweep: pluto (default), cacheoblivious[:base=N], latency[:probe=N], auto")
		fault     = flag.String("fault", "", `inject failures, e.g. "ufs.write.ebusy=0.3; core.cachemodel=@2"`)
		faultSeed = flag.Int64("fault-seed", 1, "seed for probabilistic fault triggers")
		jpath     = flag.String("journal", "", "checkpoint sweep progress to this JSONL file")
		resume    = flag.Bool("resume", false, "replay completed entries from an existing -journal instead of truncating it")
		stageInfo = flag.Bool("stage-stats", false, "print per-stage pipeline aggregates, stage-cache and profile-cache reuse to stderr after the run")
		platSet   = flag.String("platforms", "paper", `backend set to sweep: "paper" (the two Table-III machines) or "all" registered backends`)
		platFiles = flag.String("platform-file", "", "comma-separated backend description files (platforms/*.json) to register before the sweep")
		topo      = flag.Bool("topology", false, "print the swept backends' topologies (sockets, interconnect, nodes) and exit")
	)
	flag.Parse()

	policy, ok := core.ParseDegradePolicy(*degrade)
	if !ok {
		fmt.Fprintf(os.Stderr, "polyufc-bench: unknown degrade policy %q\n", *degrade)
		os.Exit(2)
	}
	reg, err := faults.Parse(*fault, *faultSeed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "polyufc-bench:", err)
		os.Exit(2)
	}
	tspec, err := tiling.ParseSpec(*tilingStr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "polyufc-bench:", err)
		os.Exit(2)
	}

	sz, ok := workloads.ParseSize(*size)
	if !ok {
		fmt.Fprintf(os.Stderr, "polyufc-bench: unknown size %q\n", *size)
		os.Exit(2)
	}

	if err := platform.LoadFiles(*platFiles); err != nil {
		fmt.Fprintln(os.Stderr, "polyufc-bench:", err)
		os.Exit(1)
	}
	var backends []*platform.Backend
	switch *platSet {
	case "paper", "":
		backends = platform.Paper()
	case "all":
		backends = platform.All()
	default:
		fmt.Fprintf(os.Stderr, "polyufc-bench: unknown platform set %q (want paper or all)\n", *platSet)
		os.Exit(2)
	}
	if *topo {
		for _, b := range backends {
			fmt.Print(b.TopologySummary())
		}
		return
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	s, err := experiments.NewBackends(sz, os.Stdout, backends)
	if err != nil {
		fmt.Fprintln(os.Stderr, "polyufc-bench:", err)
		os.Exit(1)
	}
	s.Concurrency = *jobs
	s.Ctx = ctx
	s.Degrade = policy
	s.Faults = reg
	s.Tiling = tspec
	if *jpath != "" {
		j, err := journal.OpenResume(*jpath, *resume)
		if err != nil {
			fmt.Fprintln(os.Stderr, "polyufc-bench:", err)
			os.Exit(1)
		}
		defer j.Close()
		if *resume {
			st := j.Stats()
			fmt.Fprintf(os.Stderr, "polyufc-bench: resuming from %s: %d completed entries (%d torn dropped)\n",
				*jpath, st.Entries, st.Dropped)
		}
		s.Journal = j
	}
	if err := s.Run(*exp); err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintln(os.Stderr, "polyufc-bench: interrupted")
			os.Exit(130)
		}
		fmt.Fprintln(os.Stderr, "polyufc-bench:", err)
		os.Exit(1)
	}
	if *stageInfo {
		printStageStats(s)
	}
}

// printStageStats renders the sweep's per-stage pipeline aggregates and
// cache reuse on stderr (stdout stays byte-identical for figure diffing).
func printStageStats(s *experiments.Suite) {
	sh, sm := s.StageCacheStats()
	fmt.Fprintf(os.Stderr, "polyufc-bench: stage cache: %d hits, %d misses\n", sh, sm)
	ph, pm := s.ProfileStats()
	fmt.Fprintf(os.Stderr, "polyufc-bench: profile cache: %d hits, %d misses\n", ph, pm)
	stats := s.StageStats()
	for _, name := range s.StageNames() {
		st := stats[name]
		fmt.Fprintf(os.Stderr, "  %-16s %4d runs %4d memoized %3d errors %10.2fms\n",
			name, st.Runs, st.CacheHits, st.Errors,
			float64(st.Total)/float64(time.Millisecond))
	}
}
