// Command polyufc is the PolyUFC compiler driver: it builds a kernel from
// the workload registry (or all of them), runs the full compilation flow —
// lowering, Pluto tiling, PolyUFC-CM cache analysis, roofline
// characterization, PolyUFC-SEARCH — and reports the selected uncore
// frequency caps together with the model's predictions.
//
// Usage:
//
//	polyufc -kernel gemm -platform rpl -objective edp
//	polyufc -kernel sdpa-bert -platform bdw -cap-level torch -print-ir
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"polyufc/internal/core"
	"polyufc/internal/faults"
	"polyufc/internal/frontend"
	"polyufc/internal/hw"
	"polyufc/internal/ir"
	"polyufc/internal/journal"
	"polyufc/internal/platform"
	"polyufc/internal/roofline"
	"polyufc/internal/search"
	"polyufc/internal/tiling"
	"polyufc/internal/workloads"
)

func main() {
	var (
		kernel    = flag.String("kernel", "", "kernel name from the registry (see -list)")
		file      = flag.String("file", "", "compile an affine kernel source file instead of a registry kernel")
		platName  = flag.String("platform", "rpl", "platform backend name or alias from the registry (see -list-platforms)")
		platFiles = flag.String("platform-file", "", "comma-separated backend description files (platforms/*.json) to register before lookup")
		calPath   = flag.String("calibration", "", "load a persisted calibration artifact instead of re-running the roofline fit")
		saveCal   = flag.String("save-calibration", "", "write the calibration artifact (constants + fit provenance) to this file")
		listPlats = flag.Bool("list-platforms", false, "list registered platform backends and exit")
		topo      = flag.Bool("topology", false, "print the resolved platform's topology (sockets, interconnect, nodes) and exit")
		objective = flag.String("objective", "edp", "objective: edp, energy, performance")
		size      = flag.String("size", "bench", "problem size class: test, bench, full")
		capLevel  = flag.String("cap-level", "linalg", "cap granularity: torch, linalg, affine")
		tilingStr = flag.String("tiling", "", "tiling strategy: pluto (default), pluto:size=N, cacheoblivious[:base=N], latency[:probe=N], auto")
		epsilon   = flag.Float64("epsilon", 1e-3, "search threshold epsilon (Sec. VI-C)")
		printIR   = flag.Bool("print-ir", false, "print the transformed module")
		measure   = flag.Bool("measure", false, "execute baseline and capped program on the simulated machine")
		degrade   = flag.String("degrade", "strict", "failure policy: strict (fail fast) or best-effort (degrade per nest)")
		fault     = flag.String("fault", "", `inject failures, e.g. "ufs.write.ebusy=0.3; core.pluto=@2"`)
		faultSeed = flag.Int64("fault-seed", 1, "seed for probabilistic fault triggers")
		jpath     = flag.String("journal", "", "checkpoint the compile report to this JSONL file")
		resume    = flag.Bool("resume", false, "replay a completed report from an existing -journal")
		list      = flag.Bool("list", false, "list available kernels and exit")
	)
	flag.Parse()

	if *list {
		fmt.Printf("%-18s %-10s %-12s %s\n", "kernel", "suite", "category", "paper size")
		for _, k := range workloads.All() {
			fmt.Printf("%-18s %-10s %-12s %s\n", k.Name, k.Suite, k.Category, k.PaperSize)
		}
		return
	}
	if err := platform.LoadFiles(*platFiles); err != nil {
		fmt.Fprintln(os.Stderr, "polyufc:", err)
		os.Exit(1)
	}
	if *listPlats {
		fmt.Printf("%-10s %-34s %-7s %s\n", "platform", "cpu", "paper", "aliases")
		for _, b := range platform.All() {
			fmt.Printf("%-10s %-34s %-7v %s\n", b.Name, b.CPU, b.Paper, strings.Join(b.Aliases, ", "))
		}
		return
	}
	name := *platName
	if *topo {
		b, err := platform.Lookup(name)
		if err != nil {
			fmt.Fprintln(os.Stderr, "polyufc:", err)
			os.Exit(1)
		}
		fmt.Print(b.TopologySummary())
		return
	}
	tspec, err := tiling.ParseSpec(*tilingStr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "polyufc:", err)
		os.Exit(1)
	}
	if *kernel == "" && *file == "" {
		fmt.Fprintln(os.Stderr, "polyufc: -kernel or -file is required (use -list to see registry kernels)")
		os.Exit(2)
	}
	if err := run(*kernel, *file, name, *objective, *size, *capLevel, *degrade, *fault, *jpath, *calPath, *saveCal, *faultSeed, *epsilon, *printIR, *measure, *resume, tspec); err != nil {
		fmt.Fprintln(os.Stderr, "polyufc:", err)
		os.Exit(1)
	}
}

// reportRow is the journaled, printable form of one nest report.
type reportRow struct {
	Label    string  `json:"label"`
	OI       float64 `json:"oi"`
	Class    string  `json:"class"`
	Tiled    bool    `json:"tiled"`
	Tiling   string  `json:"tiling,omitempty"`
	TileSize int64   `json:"tile_size,omitempty"`
	CapGHz   float64 `json:"cap_ghz"`
	DT       float64 `json:"dt"`
	DE       float64 `json:"de"`
	DEDP     float64 `json:"dedp"`
	Degraded bool    `json:"degraded,omitempty"`
	Err      string  `json:"err,omitempty"`
	NoCM     bool    `json:"no_cm,omitempty"`
}

// stageRow is one journaled pipeline stage event: which stage ran, for
// how long, and whether a memoized snapshot satisfied it.
type stageRow struct {
	Name     string  `json:"name"`
	MS       float64 `json:"ms"`
	CacheHit bool    `json:"cache_hit,omitempty"`
}

// reportRecord is one journaled compile outcome.
type reportRecord struct {
	Rows         []reportRow `json:"rows"`
	CapsInserted int         `json:"caps_inserted"`
	CapsRemoved  int         `json:"caps_removed"`
	FinalCaps    int         `json:"final_caps"`
	Stages       []stageRow  `json:"stages,omitempty"`
}

// printRows renders the per-nest report table from journaled rows.
func printRows(rec reportRecord) {
	fmt.Printf("%-28s %8s %4s %6s %7s | predicted vs default-f\n",
		"nest", "OI(FpB)", "cls", "tiled", "cap")
	for _, r := range rec.Rows {
		if r.NoCM {
			fmt.Printf("%-28s %8s %4s %6v %5.1fG | degraded: %s\n",
				r.Label, "-", "-", r.Tiled, r.CapGHz, r.Err)
			continue
		}
		suffix := ""
		if r.Degraded {
			suffix = fmt.Sprintf("  [degraded: %s]", r.Err)
		}
		fmt.Printf("%-28s %8.2f %4s %6v %5.1fG | time %+5.1f%% energy %+5.1f%% EDP %+5.1f%%%s\n",
			r.Label, r.OI, r.Class, r.Tiled, r.CapGHz, r.DT, r.DE, r.DEDP, suffix)
	}
	fmt.Printf("caps in module: %d (inserted %d, removed/merged %d)\n",
		rec.FinalCaps, rec.CapsInserted, rec.CapsRemoved)
	if len(rec.Stages) > 0 {
		memoized := false
		fmt.Printf("stages:")
		for _, st := range rec.Stages {
			mark := ""
			if st.CacheHit {
				mark = "*"
				memoized = true
			}
			fmt.Printf(" %s%s %.2fms", st.Name, mark, st.MS)
		}
		if memoized {
			fmt.Printf(" (* = memoized)")
		}
		fmt.Println()
	}
}

// buildModule parses the -file kernel source, or builds the registry
// kernel at the size class.
func buildModule(kernel, file string, sz workloads.SizeClass) (*ir.Module, error) {
	if file != "" {
		src, err := os.ReadFile(file)
		if err != nil {
			return nil, err
		}
		return frontend.Parse(strings.TrimSuffix(filepath.Base(file), filepath.Ext(file)), string(src))
	}
	k, err := workloads.ByName(kernel)
	if err != nil {
		return nil, err
	}
	return k.Build(sz)
}

// recordOf reduces a compile result to its journaled, printable report.
func recordOf(res *core.Result) reportRecord {
	finalCaps := 0
	for _, op := range res.Module.Funcs[0].Ops {
		if _, ok := op.(*ir.SetUncoreCap); ok {
			finalCaps++
		}
	}
	rec := reportRecord{CapsInserted: res.CapsInserted, CapsRemoved: res.CapsRemoved, FinalCaps: finalCaps}
	for _, st := range res.Timings.Stages {
		rec.Stages = append(rec.Stages, stageRow{
			Name:     st.Stage,
			MS:       float64(st.Duration) / float64(time.Millisecond),
			CacheHit: st.CacheHit,
		})
	}
	for _, r := range res.Reports {
		row := reportRow{
			Label: r.Label, OI: r.OI, Class: r.Class.String(),
			Tiled: r.Tiled, Tiling: r.Tiling, TileSize: r.TileSize,
			CapGHz: r.CapGHz, Degraded: r.Degraded,
		}
		if r.Err != nil {
			row.Err = r.Err.Error()
		}
		if r.Degraded && r.CM == nil {
			row.NoCM = true
		} else {
			row.DT = 100 * (1 - r.Est.Seconds/r.EstDefault.Seconds)
			row.DE = 100 * (1 - r.Est.Joules/r.EstDefault.Joules)
			row.DEDP = 100 * (1 - r.Est.EDP/r.EstDefault.EDP)
		}
		rec.Rows = append(rec.Rows, row)
	}
	return rec
}

func run(kernel, file, platName, objective, size, capLevel, degrade, fault, jpath, calPath, saveCal string, faultSeed int64, epsilon float64, printIR, measure, resume bool, tspec tiling.Spec) error {
	b, err := platform.Lookup(platName)
	if err != nil {
		return err
	}
	policy, ok := core.ParseDegradePolicy(degrade)
	if !ok {
		return fmt.Errorf("unknown degrade policy %q (want strict or best-effort)", degrade)
	}
	reg, err := faults.Parse(fault, faultSeed)
	if err != nil {
		return err
	}
	obj, ok := search.ParseObjective(objective)
	if !ok {
		return fmt.Errorf("unknown objective %q", objective)
	}
	sz, ok := workloads.ParseSize(size)
	if !ok {
		return fmt.Errorf("unknown size class %q", size)
	}
	lvl, ok := ir.ParseDialect(capLevel)
	if !ok {
		return fmt.Errorf("unknown cap level %q", capLevel)
	}

	if calPath == "" {
		fmt.Printf("calibrating rooflines for %s (one-time microbenchmarks)...\n", b.Name)
	}
	target, err := roofline.ResolveOrLoad(b, calPath)
	if err != nil {
		return err
	}
	if calPath != "" {
		fmt.Printf("loaded calibration for %s (fitted %s by %s)\n",
			b.Name, target.Calibration.Provenance.FitDate, target.Calibration.Provenance.Tool)
	}
	consts, p := target.Constants, target.Platform
	fmt.Printf("  compute roof %.1f GF/s, memory roof %.1f GB/s, balance %.1f FpB\n",
		consts.PeakGFlops, consts.PeakGBs, consts.BtDRAM)
	if saveCal != "" {
		if err := target.Calibration.Save(saveCal); err != nil {
			return err
		}
		fmt.Printf("calibration artifact saved to %s\n", saveCal)
	}

	cfg := core.DefaultConfig(target)
	cfg.Search.Objective = obj
	cfg.Search.Epsilon = epsilon
	cfg.CapLevel = lvl
	cfg.Tiling = tspec
	cfg.Degrade = policy
	cfg.Faults = reg

	// The journal replays a completed compile report without recompiling.
	// It only covers the deterministic registry path: -file kernels,
	// -print-ir, -measure and fault injection all need the live
	// compilation, so they bypass it. The target is resolved first because
	// the report's identity includes the calibration and the description:
	// a resume after either moved recomputes.
	var jrnl *journal.Journal
	if jpath != "" && file == "" && !printIR && !measure && reg == nil {
		if jrnl, err = journal.OpenResume(jpath, resume); err != nil {
			return err
		}
		defer jrnl.Close()
	}
	var res *core.Result
	rec, replayed, err := journal.Step(jrnl, core.KeyOf(kernel, int(sz), cfg).UnitKey("polyufc"),
		func() (reportRecord, error) {
			mod, err := buildModule(kernel, file, sz)
			if err != nil {
				return reportRecord{}, err
			}
			if res, err = core.Compile(mod, cfg); err != nil {
				return reportRecord{}, err
			}
			return recordOf(res), nil
		})
	if err != nil {
		return err
	}
	if file != "" {
		kernel = file
	}
	header := fmt.Sprintf("%s on %s (%s objective, %s-level caps, %s size)", kernel, p.Name, obj, lvl, sz)
	if replayed {
		fmt.Printf("\n%s [replayed from journal]\n", header)
		printRows(rec)
		return nil
	}
	fmt.Printf("\n%s\n", header)
	printRows(rec)
	pre, tile, cm, rest := res.Timings.Tab4()
	fmt.Printf("\ncompile time: preprocess %v, pluto %v, polyufc-cm %v, steps4-6 %v\n",
		pre, tile, cm, rest)

	if printIR {
		fmt.Println("\n--- transformed module ---")
		fmt.Print(res.Module.Print())
	}

	if measure {
		m := hw.NewMachine(p)
		m.SetFaults(reg)
		base, err := m.RunBaseline(res.Module.Funcs[0])
		if err != nil {
			return err
		}
		// The capped run goes through the hardened controller: cap writes
		// retry with backoff under -fault, and the default cap is restored
		// even when the run dies. With nothing armed it reads the same
		// numbers as a raw Machine.RunFunc.
		opts := hw.DefaultCapControllerOptions(p)
		opts.JitterSeed = faultSeed
		opts.BestEffort = policy == core.BestEffort
		ctl := hw.NewCapController(m, opts)
		capped, err := ctl.RunFunc(res.Module.Funcs[0])
		if err != nil {
			return err
		}
		if reg != nil {
			st := ctl.Stats()
			fmt.Printf("\ncap controller: %d applies, %d writes, %d retries, %d failures, %d overrides corrected, %d restores\n",
				st.Applies, st.Writes, st.Retries, st.Failures, st.Overrides, st.Restores)
			if n := m.ThermalOverrides(); n > 0 {
				fmt.Printf("thermal overrides injected: %d\n", n)
			}
		}
		fmt.Printf("\nmeasured on the simulated %s:\n", p.Name)
		fmt.Printf("  baseline (uncore %.1f GHz): %.4f ms, %.4f J, EDP %.4g\n",
			p.UncoreMax, base.Seconds*1e3, base.PkgJoules, base.EDP)
		fmt.Printf("  polyufc capped:            %.4f ms, %.4f J, EDP %.4g (%+.1f%%)\n",
			capped.Seconds*1e3, capped.PkgJoules, capped.EDP,
			100*(1-capped.EDP/base.EDP))
	}
	return nil
}
