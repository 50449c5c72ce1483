// Command polyufc-cm inspects the PolyUFC-CM cache model for one kernel:
// per-level hit/miss breakdown, DRAM traffic, operational intensity and
// CB/BB characterization, optionally validated against the exact
// trace-driven cache simulator.
//
// Usage:
//
//	polyufc-cm -kernel gemm -platform bdw -validate
//	polyufc-cm -kernel mvt -platform rpl -fully-assoc
package main

import (
	"flag"
	"fmt"
	"os"

	"polyufc/internal/cachemodel"
	"polyufc/internal/hw"
	"polyufc/internal/ir"
	"polyufc/internal/platform"
	"polyufc/internal/pluto"
	"polyufc/internal/roofline"
	"polyufc/internal/scop"
	"polyufc/internal/workloads"
)

func main() {
	var (
		kernel     = flag.String("kernel", "", "kernel name (see polyufc -list)")
		platName   = flag.String("platform", "bdw", "platform backend name or alias from the registry")
		platFiles  = flag.String("platform-file", "", "comma-separated backend description files (platforms/*.json) to register before lookup")
		size       = flag.String("size", "test", "size class: test, bench, full")
		fullyAssoc = flag.Bool("fully-assoc", false, "use the fully-associative model (Fig. 8 ablation)")
		noTile     = flag.Bool("no-tile", false, "skip Pluto tiling")
		validate   = flag.Bool("validate", false, "run the exact cache simulator for comparison")
		dumpScop   = flag.Bool("scop", false, "dump each nest's OpenSCoP-style JSON instead of analyzing")
		topo       = flag.Bool("topology", false, "print the resolved platform's topology (sockets, interconnect, nodes) and exit")
	)
	flag.Parse()
	name := *platName
	if *topo {
		if err := printTopology(name, *platFiles); err != nil {
			fmt.Fprintln(os.Stderr, "polyufc-cm:", err)
			os.Exit(1)
		}
		return
	}
	if *kernel == "" {
		fmt.Fprintln(os.Stderr, "polyufc-cm: -kernel is required")
		os.Exit(2)
	}
	if err := run(*kernel, name, *platFiles, *size, *fullyAssoc, *noTile, *validate, *dumpScop); err != nil {
		fmt.Fprintln(os.Stderr, "polyufc-cm:", err)
		os.Exit(1)
	}
}

// printTopology renders the backend's socket/interconnect/node layout.
func printTopology(platName, platFiles string) error {
	if err := platform.LoadFiles(platFiles); err != nil {
		return err
	}
	b, err := platform.Lookup(platName)
	if err != nil {
		return err
	}
	fmt.Print(b.TopologySummary())
	return nil
}

func run(kernel, platName, platFiles, size string, fullyAssoc, noTile, validate, dumpScop bool) error {
	if err := platform.LoadFiles(platFiles); err != nil {
		return err
	}
	p, err := hw.PlatformByName(platName)
	if err != nil {
		return err
	}
	sz, ok := workloads.ParseSize(size)
	if !ok {
		return fmt.Errorf("unknown size %q", size)
	}
	k, err := workloads.ByName(kernel)
	if err != nil {
		return err
	}
	mod, err := k.BuildAffine(sz)
	if err != nil {
		return err
	}
	consts, err := roofline.Calibrate(hw.NewMachine(p))
	if err != nil {
		return err
	}

	opts := cachemodel.DefaultOptions()
	opts.FullyAssoc = fullyAssoc

	for _, f := range mod.Funcs {
		for _, op := range f.Ops {
			nest, ok := op.(*ir.Nest)
			if !ok {
				continue
			}
			if !noTile {
				res, err := pluto.Optimize(nest, pluto.DefaultOptions())
				if err != nil {
					return err
				}
				nest = res.Nest
			}
			if dumpScop {
				sc, err := scop.Export(nest)
				if err != nil {
					return err
				}
				data, err := sc.Marshal()
				if err != nil {
					return err
				}
				fmt.Println(string(data))
				continue
			}
			cmOpts := opts
			cmOpts.Threads = p.Backend.NestThreads(nest.Parallel())
			cm, err := cachemodel.Analyze(nest, p.Cache, cmOpts)
			if err != nil {
				return err
			}
			fmt.Printf("== %s (%s, %s model) ==\n", nest.Label, p.Name,
				assocName(fullyAssoc))
			fmt.Printf("   flops %d, loads %d, stores %d, instances %d\n",
				cm.Flops, cm.Loads, cm.Stores, cm.Instances)
			printRecord(cm, consts)
			if validate {
				sim, err := cachemodel.Simulate(nest, p.Cache)
				if err != nil {
					return err
				}
				fmt.Println("   simulator (serial):")
				printRecord(sim, consts)
			}
		}
	}
	return nil
}

// printRecord prints one traffic record level by level, then its DRAM
// traffic and characterization — the same lines for either producer.
func printRecord(r *cachemodel.Result, consts *roofline.Constants) {
	for _, lv := range r.Levels {
		fmt.Printf("   %-4s accesses %12d  cold %10d  cap/conf %10d  miss-ratio %.4f  fit-window %d\n",
			lv.Name, lv.Accesses, lv.ColdMisses, lv.CapConfMisses, lv.MissRatio, lv.FitWindow)
	}
	fmt.Printf("   Q_DRAM %d B (x%d threads), OI %.3f FpB -> %s (balance %.1f)\n",
		r.QDRAM, r.ThreadsDiv, r.OI, consts.Classify(r.OI), consts.BtDRAM)
}

func assocName(fa bool) string {
	if fa {
		return "fully-associative"
	}
	return "set-associative"
}
