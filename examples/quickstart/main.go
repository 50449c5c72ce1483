// Quickstart: build an affine kernel, run the PolyUFC flow against a
// simulated Raptor Lake machine, and execute the capped program.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"polyufc/internal/core"
	"polyufc/internal/hw"
	"polyufc/internal/ir"
	"polyufc/internal/roofline"
)

func main() {
	// 1. Build a kernel: C[i,j] += A[i,k] * B[k,j] over 96^3, expressed as
	// an affine loop nest (what the linalg->affine lowering produces).
	n := int64(96)
	A := ir.NewArray("A", 8, n, n)
	B := ir.NewArray("B", 8, n, n)
	C := ir.NewArray("C", 8, n, n)
	stmt := &ir.Statement{Name: "S0", Flops: 2}
	i, j, k := ir.AffVar("i"), ir.AffVar("j"), ir.AffVar("k")
	stmt.Accesses = []ir.Access{
		{Array: A, Index: []ir.AffExpr{i, k}},
		{Array: B, Index: []ir.AffExpr{k, j}},
		{Array: C, Index: []ir.AffExpr{i, j}},
		{Array: C, Write: true, Index: []ir.AffExpr{i, j}},
	}
	kl := ir.SimpleLoop("k", ir.AffConst(0), ir.AffConst(n-1), stmt)
	jl := ir.SimpleLoop("j", ir.AffConst(0), ir.AffConst(n-1), kl)
	il := ir.SimpleLoop("i", ir.AffConst(0), ir.AffConst(n-1), jl)
	mod, f := ir.NewModule("quickstart")
	f.Ops = []ir.Op{&ir.Nest{Label: "matmul", Root: il}}

	// 2. Pick a platform and calibrate its performance/power rooflines
	// (the one-time microbenchmarking of Tab. I).
	target, err := roofline.ResolveName("rpl")
	if err != nil {
		log.Fatal(err)
	}
	plat, consts := target.Platform, target.Constants
	fmt.Printf("platform %s: compute roof %.0f GF/s, memory roof %.0f GB/s, balance %.1f FpB\n",
		plat.Name, consts.PeakGFlops, consts.PeakGBs, consts.BtDRAM)

	// 3. Compile: Pluto tiling, PolyUFC-CM, characterization, cap search.
	// The kernel will run in a steady-state loop (step 4), so the one-time
	// cap-switch cost amortizes: disable the single-invocation
	// profitability gate.
	cfg := core.DefaultConfig(target)
	cfg.AmortizeFactor = 0
	res, err := core.Compile(mod, cfg)
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range res.Reports {
		fmt.Printf("nest %s: OI %.1f FpB -> %s, uncore cap %.1f GHz (tiled=%v, %d threads)\n",
			r.Label, r.OI, r.Class, r.CapGHz, r.Tiled, r.Threads)
	}

	// 4. Execute on the machine: baseline at the driver default vs the
	// capped program. The kernel is invoked repeatedly (a steady-state
	// inference loop) so the one-time cap-switch latency amortizes, as in
	// the paper's workloads.
	const reps = 200
	steady := &ir.Func{Name: "steady"}
	for _, op := range res.Module.Funcs[0].Ops {
		steady.Ops = append(steady.Ops, op)
	}
	for r := 1; r < reps; r++ {
		for _, op := range res.Module.Funcs[0].Ops {
			if nest, ok := op.(*ir.Nest); ok {
				steady.Ops = append(steady.Ops, nest)
			}
		}
	}

	m := hw.NewMachine(plat)
	base, err := m.RunBaseline(steady)
	if err != nil {
		log.Fatal(err)
	}
	capped, err := m.RunFunc(steady)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("baseline (uncore %.1f GHz): %.3f ms, %.3f J, EDP %.3g\n",
		plat.UncoreMax, base.Seconds*1e3, base.PkgJoules, base.EDP)
	fmt.Printf("polyufc capped:            %.3f ms, %.3f J, EDP %.3g (%+.1f%% EDP)\n",
		capped.Seconds*1e3, capped.PkgJoules, capped.EDP,
		100*(1-capped.EDP/base.EDP))
}
