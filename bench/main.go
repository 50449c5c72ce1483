// Command polyufc-perf is the repo benchmark: it drives the real
// polyufc-serve binary with five seeded workloads from one closed-loop
// client, checks every response, and prints the end-to-end metrics (or,
// with -trace 1, the per-layer metrics) by name and unit. Run it through
// bench/run.sh, which builds both binaries; see bench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"
)

func main() {
	var (
		workloadName = flag.String("workload", "", "run one workload and print the driver's JSON line (default: all five, as a table)")
		seed         = flag.Int64("seed", 1, "seed of the generated request lists")
		seconds      = flag.Float64("seconds", runSeconds, "length of the timed window")
		trace        = flag.Int("trace", 0, "1: traced run — per-layer metrics and bench/out/trace-<workload>.json")
		repeat       = flag.Int("repeat", 1, "run the full set this many times and compare the sets against the bounds")
		out          = flag.String("out", "", "also write the sets as JSON to this file (all-workloads mode)")
		gen          = flag.Bool("gen", false, "regenerate bench/expected/ from a fresh daemon and exit")
		printManif   = flag.Bool("manifest", false, "print BENCHMARK.json as the harness defines it and exit")
	)
	flag.Parse()
	if *printManif {
		os.Stdout.Write(manifest())
		return
	}
	killOnSignal()
	err := func() error {
		defer killLive()
		if _, err := os.Stat(serveBin); err != nil {
			return fmt.Errorf("%s is missing: run the benchmark through bench/run.sh from the repo root", serveBin)
		}
		switch {
		case *gen:
			return genExpected()
		case *workloadName == "":
			return runAll(*seed, *seconds, *trace, *repeat, *out)
		}
		w, ok := workloadByName(*workloadName)
		if !ok {
			return fmt.Errorf("unknown workload %q", *workloadName)
		}
		var res result
		var err error
		if *trace == 0 {
			res, err = runTimed(w, *seed, *seconds, os.Stdout)
		} else {
			res, err = runTraced(w, *seed, os.Stdout)
		}
		if err != nil {
			return err
		}
		line, err := json.Marshal(res)
		if err != nil {
			return err
		}
		fmt.Printf("%s\n", line)
		return nil
	}()
	if err != nil {
		fmt.Fprintln(os.Stderr, "polyufc-perf:", err)
		os.Exit(1)
	}
}

// runTraced measures the per-layer metrics of one workload: a fixed-count
// window on the real binary for the client- and /statsz-sourced counts
// (fixed so they repeat exactly), the in-process traced replay for the
// span-sourced times, and the direct-call passes.
func runTraced(w workload, seed int64, human io.Writer) (result, error) {
	s, err := begin(w, seed)
	if err != nil {
		return result{}, err
	}
	p, c, exp, dir := s.p, s.c, s.exp, s.dir

	d, err := setup(p, dir, c, exp)
	if err != nil {
		return result{}, err
	}
	before, err := c.statsz()
	if err != nil {
		return result{}, err
	}
	win := runWindow(c, p, exp, func(i int, _ time.Duration) bool { return i < p.traceCount })
	after, err := c.statsz()
	if err != nil {
		return result{}, err
	}
	if err := win.checkGrids(c); err != nil {
		return result{}, err
	}
	if err := d.stop(); err != nil {
		return result{}, err
	}
	if win.attempted == 0 {
		return result{}, fmt.Errorf("%s: empty window", w.name)
	}

	got := statszMetrics(before, after, win.attempted)
	got["server.latency_p95_ms"] = ms(percentile(win.lats, 0.95))
	got["server.latency_p99_ms"] = ms(percentile(win.lats, 0.99))
	got["server.latency_max_ms"] = ms(percentile(win.lats, 1))
	got["server.requests_ok"] = float64(win.attempted - win.failed)
	got["server.requests_failed"] = float64(win.failed)
	got["server.resp_bytes"] = float64(win.respBytes) / float64(win.attempted)

	tr := newTracer()
	rp, err := replayInProcess(p, dir, tr)
	if err != nil {
		return result{}, err
	}
	for k, v := range replayMetrics(rp) {
		got[k] = v
	}
	layers, err := layerPasses(tr, rp.payloads, dir)
	if err != nil {
		return result{}, err
	}
	for k, v := range layers {
		got[k] = v
	}
	if err := tr.write(traceFile(w.name)); err != nil {
		return result{}, err
	}

	metrics, err := report(perLayer, got)
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(human, "%s seed=%d traced: %d attempted, %d failed on the real binary (classes %s); %d requests replayed in process, %d spans in %s\n",
		w.name, seed, win.attempted, win.failed, classCounts(win.classes), p.replayCount, len(tr.spans), traceFile(w.name))
	if win.firstFailure != "" {
		fmt.Fprintf(human, "  first failure: %s\n", win.firstFailure)
	}
	printMetrics(human, perLayer, metrics)
	stageShare(human, rp.spans)
	return result{Correct: win.failed == 0, Attempted: win.attempted, Failed: win.failed, Metrics: metrics}, nil
}

// classCounts renders the persist-mixed traffic classes of a window
// ("A=880 B=20 C=100"); other workloads have the single unnamed class.
func classCounts(classes map[byte]int) string {
	var parts []string
	for cl, n := range classes {
		if cl != 0 {
			parts = append(parts, fmt.Sprintf("%c=%d", cl, n))
		}
	}
	if len(parts) == 0 {
		return "-"
	}
	sort.Strings(parts)
	return strings.Join(parts, " ")
}

// stageShare prints which share of core.compile each stage's spans cover —
// the Tab. IV breakdown of the replayed requests.
func stageShare(w io.Writer, spans []span) {
	total := map[string]time.Duration{}
	for _, s := range spans {
		if s.Name == "core.compile" || strings.HasPrefix(s.Name, "stage.") {
			total[s.Name] += s.dur()
		}
	}
	compile := total["core.compile"]
	if compile == 0 {
		return
	}
	var names []string
	for name := range total {
		if name != "core.compile" {
			names = append(names, name)
		}
	}
	sort.Slice(names, func(i, j int) bool { return total[names[i]] > total[names[j]] })
	fmt.Fprintf(w, "  share of core.compile (%.1f ms over the replay):", ms(compile))
	for _, name := range names {
		fmt.Fprintf(w, " %s %.1f%%", strings.TrimPrefix(name, "stage."), 100*float64(total[name])/float64(compile))
	}
	fmt.Fprintln(w)
}
