// polybench_sweep runs a PolyBench subset through the full flow on both
// platforms and compares measured time/energy/EDP against the Pluto +
// default-UFS baseline — a compact version of the paper's Fig. 7.
//
//	go run ./examples/polybench_sweep            # bench-size subset
//	go run ./examples/polybench_sweep -size bench -all -j 8
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"polyufc/internal/experiments"
	"polyufc/internal/workloads"
)

func main() {
	var (
		size = flag.String("size", "bench", "problem size class: test, bench, full")
		all  = flag.Bool("all", false, "run the whole PolyBench suite (slow at bench size)")
		jobs = flag.Int("j", 0, "worker-pool size for sweeps (0 = GOMAXPROCS, 1 = serial)")
	)
	flag.Parse()

	sz, ok := workloads.ParseSize(*size)
	if !ok {
		log.Fatalf("unknown size %q", *size)
	}

	s, err := experiments.New(sz, os.Stdout)
	if err != nil {
		log.Fatal(err)
	}
	// Kernels sweep concurrently through the suite's worker pool; rows
	// come back in input order, so the printout below is deterministic.
	s.Concurrency = *jobs
	names := []string{"gemm", "2mm", "mvt", "gemver", "atax", "jacobi-1d"}
	if *all {
		names = names[:0]
		for _, k := range workloads.PolyBench() {
			names = append(names, k.Name)
		}
	}
	for _, p := range s.Platforms() {
		rows, err := s.Fig7(p, names)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("== %s ==\n", p.Name)
		fmt.Printf("%-14s %4s %8s | %7s %8s %7s\n", "kernel", "cls", "cap GHz", "time%", "energy%", "EDP%")
		for _, r := range rows {
			fmt.Printf("%-14s %4s %8.1f | %+6.1f  %+6.1f  %+6.1f\n",
				r.Kernel, r.Class, r.CapGHz,
				100*r.TimeGain, 100*r.EnergyGain, 100*r.EDPGain)
		}
		fmt.Printf("geomean EDP improvement: %+.1f%%\n\n", 100*experiments.GeomeanEDPGain(rows))
	}
}
