// custom_kernel compiles an affine kernel written in the PolyUFC source
// language (the cgeist stand-in front end), showing the full path from
// user source to uncore caps: parse -> Pluto (interchange + tiling +
// parallelization) -> PolyUFC-CM -> characterization -> cap search ->
// measured comparison against the driver default.
//
//	go run ./examples/custom_kernel
//	go run ./examples/custom_kernel -f examples/kernels/seidel.puc
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"polyufc/internal/core"
	"polyufc/internal/frontend"
	"polyufc/internal/hw"
	"polyufc/internal/roofline"
)

const defaultSrc = `
# Column-sum then scale: a bandwidth-bound pair of sweeps.
param N = 2000
array A[N][N] : f64
array colsum[N] : f64

for j = 0 to N-1 {
  for i = 0 to N-1 {
    colsum[j] += A[i][j];
  }
}
for i = 0 to N-1 {
  for j = 0 to N-1 {
    A[i][j] = A[i][j] / colsum[j];
  }
}
`

func main() {
	file := flag.String("f", "", "kernel source file (default: a built-in column-normalize kernel)")
	platName := flag.String("platform", "rpl", "platform backend name or alias from the registry")
	flag.Parse()

	src := defaultSrc
	name := "colnorm"
	if *file != "" {
		data, err := os.ReadFile(*file)
		if err != nil {
			log.Fatal(err)
		}
		src = string(data)
		name = *file
	}
	mod, err := frontend.Parse(name, src)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("parsed %s: %d loop nests\n", name, len(mod.Funcs[0].Ops))

	target, err := roofline.ResolveName(*platName)
	if err != nil {
		log.Fatal(err)
	}
	plat := target.Platform
	res, err := core.Compile(mod, core.DefaultConfig(target))
	if err != nil {
		log.Fatal(err)
	}
	for _, r := range res.Reports {
		fmt.Printf("  %-22s OI %8.2f FpB  %s  tiled=%-5v cap %.1f GHz\n",
			r.Label, r.OI, r.Class, r.Tiled, r.CapGHz)
	}

	// Measure against the driver default on one machine (shared profiles).
	m := hw.NewMachine(plat)
	base, err := m.RunBaseline(res.Module.Funcs[0])
	if err != nil {
		log.Fatal(err)
	}
	capped, err := m.RunFunc(res.Module.Funcs[0])
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("baseline: %.3f ms, %.3f J | capped: %.3f ms, %.3f J | EDP %+.1f%%\n",
		base.Seconds*1e3, base.PkgJoules, capped.Seconds*1e3, capped.PkgJoules,
		100*(1-capped.EDP/base.EDP))
}
