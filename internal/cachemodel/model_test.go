package cachemodel

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"polyufc/internal/cachesim"
	"polyufc/internal/interp"
	"polyufc/internal/ir"
	"polyufc/internal/isl"
	"polyufc/internal/pluto"
	"polyufc/internal/workloads"
)

func matmulNest(m, n, k int64) *ir.Nest {
	A := ir.NewArray("A", 8, m, k)
	B := ir.NewArray("B", 8, k, n)
	C := ir.NewArray("C", 8, m, n)
	stmt := &ir.Statement{Name: "S0", Flops: 2}
	i, j, kk := ir.AffVar("i"), ir.AffVar("j"), ir.AffVar("k")
	stmt.Accesses = []ir.Access{
		{Array: A, Index: []ir.AffExpr{i, kk}},
		{Array: B, Index: []ir.AffExpr{kk, j}},
		{Array: C, Index: []ir.AffExpr{i, j}},
		{Array: C, Write: true, Index: []ir.AffExpr{i, j}},
	}
	kl := ir.SimpleLoop("k", ir.AffConst(0), ir.AffConst(k-1), stmt)
	jl := ir.SimpleLoop("j", ir.AffConst(0), ir.AffConst(n-1), kl)
	il := ir.SimpleLoop("i", ir.AffConst(0), ir.AffConst(m-1), jl)
	return &ir.Nest{Label: "matmul", Root: il}
}

func copyNest(n int64) *ir.Nest {
	A := ir.NewArray("A", 8, n)
	B := ir.NewArray("B", 8, n)
	stmt := &ir.Statement{Name: "S0", Flops: 1}
	i := ir.AffVar("i")
	stmt.Accesses = []ir.Access{
		{Array: A, Index: []ir.AffExpr{i}},
		{Array: B, Write: true, Index: []ir.AffExpr{i}},
	}
	return &ir.Nest{Label: "copy", Root: ir.SimpleLoop("i", ir.AffConst(0), ir.AffConst(n-1), stmt)}
}

var testCfg = cachesim.Config{Levels: []cachesim.LevelConfig{
	{Name: "L1", SizeBytes: 32 << 10, LineSize: 64, Assoc: 8},
	{Name: "LLC", SizeBytes: 512 << 10, LineSize: 64, Assoc: 16},
}}

// simulate runs the nest through the exact simulator.
func simulate(t *testing.T, nest *ir.Nest, cfg cachesim.Config) *cachesim.Simulator {
	t.Helper()
	s, err := cachesim.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	_, err = interp.RunNest(nest, interp.TracerFunc(func(a, sz int64, w bool) { s.Access(a, sz, w) }))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func within(t *testing.T, name string, got, want int64, factor float64) {
	t.Helper()
	if want == 0 {
		if got != 0 {
			t.Fatalf("%s: got %d, want 0", name, got)
		}
		return
	}
	r := float64(got) / float64(want)
	if r > factor || r < 1/factor {
		t.Fatalf("%s: model %d vs simulator %d (ratio %.2f, allowed factor %.2f)", name, got, want, r, factor)
	}
}

func TestCopyNestModelMatchesSim(t *testing.T) {
	nest := copyNest(8192) // two 64 KiB arrays: stream through both levels
	res, err := Analyze(nest, testCfg, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	sim := simulate(t, nest, testCfg)
	// Streaming: every line misses exactly once at both levels.
	within(t, "L1 misses", res.Levels[0].Misses, sim.LevelStats(0).Misses, 1.1)
	within(t, "LLC misses", res.Levels[1].Misses, sim.LevelStats(len(testCfg.Levels)-1).Misses, 1.1)
	if res.Flops != 8192 {
		t.Fatalf("flops = %d", res.Flops)
	}
	// OI of a stream copy is low: 1 flop per 16 bytes moved.
	if res.OI > 0.2 {
		t.Fatalf("copy OI = %.3f, expected bandwidth-bound value", res.OI)
	}
}

func TestMatmulUntiledModelVsSim(t *testing.T) {
	nest := matmulNest(96, 96, 96)
	res, err := Analyze(nest, testCfg, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	sim := simulate(t, nest, testCfg)
	within(t, "L1 misses", res.Levels[0].Misses, sim.LevelStats(0).Misses, 1.05)
	// LLC: the 96x96 working set fits; misses should be near cold in both.
	within(t, "LLC misses", res.Levels[1].Misses, sim.LevelStats(len(testCfg.Levels)-1).Misses, 1.05)
}

func TestMatmulTiledModelVsSim(t *testing.T) {
	// Non-power-of-two size: the set-conflict pathology of 2^k strides is
	// exercised separately (Fig. 8 study).
	nest := matmulNest(120, 120, 120)
	tiled, err := pluto.TileNest(nest, 32)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Analyze(tiled, testCfg, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	sim := simulate(t, tiled, testCfg)
	within(t, "L1 misses (tiled)", res.Levels[0].Misses, sim.LevelStats(0).Misses, 1.2)
	within(t, "LLC misses (tiled)", res.Levels[1].Misses, sim.LevelStats(len(testCfg.Levels)-1).Misses, 1.2)
}

func TestTilingReducesModeledMisses(t *testing.T) {
	nest := matmulNest(120, 120, 120)
	tiled, err := pluto.TileNest(nest, 32)
	if err != nil {
		t.Fatal(err)
	}
	ru, err := Analyze(nest, testCfg, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rt, err := Analyze(tiled, testCfg, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if rt.Levels[0].Misses >= ru.Levels[0].Misses {
		t.Fatalf("model misses: tiled %d >= untiled %d", rt.Levels[0].Misses, ru.Levels[0].Misses)
	}
	if rt.QDRAM > ru.QDRAM {
		t.Fatalf("tiled QDRAM %d > untiled %d", rt.QDRAM, ru.QDRAM)
	}
}

func TestPowerOfTwoConflictFlagged(t *testing.T) {
	// At 128^3 (power-of-two strides) tiled matmul conflicts heavily in an
	// 8-way L1: both the model and the simulator must report far more L1
	// misses than the conflict-free 120^3 case.
	t120, err := pluto.TileNest(matmulNest(120, 120, 120), 32)
	if err != nil {
		t.Fatal(err)
	}
	t128, err := pluto.TileNest(matmulNest(128, 128, 128), 32)
	if err != nil {
		t.Fatal(err)
	}
	r120, err := Analyze(t120, testCfg, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	r128, err := Analyze(t128, testCfg, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if r128.Levels[0].Misses < 10*r120.Levels[0].Misses {
		t.Fatalf("model did not flag 2^k conflicts: 128 %d vs 120 %d",
			r128.Levels[0].Misses, r120.Levels[0].Misses)
	}
	s120 := simulate(t, t120, testCfg)
	s128 := simulate(t, t128, testCfg)
	if s128.LevelStats(0).Misses < 10*s120.LevelStats(0).Misses {
		t.Fatalf("simulator disagrees on conflict pathology: %d vs %d",
			s128.LevelStats(0).Misses, s120.LevelStats(0).Misses)
	}
}

func TestColdMissesMatchRelationFormulation(t *testing.T) {
	nest := matmulNest(12, 12, 12)
	layout := interp.NewLayout(nest.Operands())
	cold, err := ExactColdMisses(nest, layout.Base, 64, testCfg.Levels[0].NumSets(), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	sim := simulate(t, nest, testCfg)
	// Every level sees the same distinct lines with an inclusive
	// hierarchy; compare against L1 cold misses.
	if cold != sim.LevelStats(0).ColdMisses {
		t.Fatalf("relation cold misses %d != simulator %d", cold, sim.LevelStats(0).ColdMisses)
	}
	// The analytic model's cold misses should agree too.
	res, err := Analyze(nest, testCfg, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	within(t, "analytic cold", res.Levels[0].ColdMisses, cold, 1.15)
}

func TestThreadSharingHeuristic(t *testing.T) {
	nest := matmulNest(64, 64, 64)
	serial, err := Analyze(nest, testCfg, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Threads = 4
	par, err := Analyze(nest, testCfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	lo := serial.LLC().Misses / 4
	if par.LLC().Misses < lo || par.LLC().Misses > lo+8 {
		t.Fatalf("threaded misses %d, want about %d", par.LLC().Misses, lo)
	}
	if par.OI <= serial.OI {
		t.Fatal("thread sharing must raise modeled OI")
	}
}

func TestSetAssocVsFullyAssocPathology(t *testing.T) {
	// Column walk of a power-of-two-row matrix: every line lands in few
	// sets. Set-associative model must predict more misses than fully
	// associative; the simulator must agree.
	rows, cols := int64(512), int64(512) // row = 4 KiB = 64 lines
	A := ir.NewArray("A", 8, rows, cols)
	stmt := &ir.Statement{Name: "S0", Flops: 1}
	i, j := ir.AffVar("i"), ir.AffVar("j")
	// for j: for i: read A[i][j] (column-major walk of row-major array)
	stmt.Accesses = []ir.Access{{Array: A, Index: []ir.AffExpr{i, j}}}
	il := ir.SimpleLoop("i", ir.AffConst(0), ir.AffConst(rows-1), stmt)
	jl := ir.SimpleLoop("j", ir.AffConst(0), ir.AffConst(cols-1), il)
	nest := &ir.Nest{Label: "colwalk", Root: jl}

	cfg := cachesim.Config{Levels: []cachesim.LevelConfig{
		{Name: "L1", SizeBytes: 32 << 10, LineSize: 64, Assoc: 4},
	}}
	sa, err := Analyze(nest, cfg, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	faOpts := DefaultOptions()
	faOpts.FullyAssoc = true
	fa, err := Analyze(nest, cfg, faOpts)
	if err != nil {
		t.Fatal(err)
	}
	if sa.Levels[0].Misses <= fa.Levels[0].Misses {
		t.Fatalf("set-assoc model %d <= fully-assoc %d for conflict-heavy walk",
			sa.Levels[0].Misses, fa.Levels[0].Misses)
	}
	simSA := simulate(t, nest, cfg)
	simFA := simulate(t, nest, cfg.FullyAssociative())
	if simSA.LevelStats(0).Misses <= simFA.LevelStats(0).Misses {
		t.Fatalf("simulator disagrees: SA %d <= FA %d",
			simSA.LevelStats(0).Misses, simFA.LevelStats(0).Misses)
	}
}

func TestDedupReducesBasicsKeepsPoints(t *testing.T) {
	nest := matmulNest(6, 6, 6)
	layout := interp.NewLayout(nest.Operands())
	si := nest.Statements()[0]
	withDedup, nb1, err := ReusePairUnion(si, layout.Base, 64, 64, true)
	if err != nil {
		t.Fatal(err)
	}
	without, nb2, err := ReusePairUnion(si, layout.Base, 64, 64, false)
	if err != nil {
		t.Fatal(err)
	}
	if nb1 >= nb2 {
		t.Fatalf("dedup basics %d >= non-dedup %d", nb1, nb2)
	}
	c1, err := CountReusePairs(withDedup, 1<<22)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := CountReusePairs(without, 1<<22)
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Fatalf("dedup changed reuse pair count: %d vs %d", c1, c2)
	}
	if c1 == 0 {
		t.Fatal("matmul must have reuse pairs")
	}
}

func TestMissRatiosSane(t *testing.T) {
	nest := matmulNest(64, 64, 64)
	res, err := Analyze(nest, testCfg, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, lv := range res.Levels {
		if lv.MissRatio < 0 || lv.MissRatio > 1 {
			t.Fatalf("%s miss ratio %f", lv.Name, lv.MissRatio)
		}
		if lv.HitRatio+lv.MissRatio > 1.0001 || lv.HitRatio+lv.MissRatio < 0.9999 {
			t.Fatalf("%s ratios do not sum to 1", lv.Name)
		}
		if lv.Misses != lv.ColdMisses+lv.CapConfMisses {
			t.Fatalf("%s miss breakdown inconsistent", lv.Name)
		}
	}
	if res.QDRAM != res.LLC().Misses*64 {
		t.Fatal("QDRAM != Miss_LLC * lineSize")
	}
	if res.OI <= 0 {
		t.Fatal("OI must be positive")
	}
}

func TestHighOIKernelIsComputeHeavy(t *testing.T) {
	// Large tiled matmul has much higher OI than stream copy.
	mm := matmulNest(128, 128, 128)
	tiled, err := pluto.TileNest(mm, 32)
	if err != nil {
		t.Fatal(err)
	}
	rmm, err := Analyze(tiled, testCfg, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	rcp, err := Analyze(copyNest(1<<16), testCfg, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if rmm.OI < 10*rcp.OI {
		t.Fatalf("matmul OI %.2f not clearly above copy OI %.2f", rmm.OI, rcp.OI)
	}
}

func TestAnalyzeStatements(t *testing.T) {
	// Two statements with very different intensity in one nest: a flop-
	// heavy body and a pure copy.
	A := ir.NewArray("A", 8, 64, 64)
	B := ir.NewArray("B", 8, 64, 64)
	hot := &ir.Statement{Name: "S_hot", Flops: 50}
	i, j := ir.AffVar("i"), ir.AffVar("j")
	hot.Accesses = []ir.Access{
		{Array: A, Index: []ir.AffExpr{i, j}},
		{Array: A, Write: true, Index: []ir.AffExpr{i, j}},
	}
	cold := &ir.Statement{Name: "S_copy", Flops: 0}
	cold.Accesses = []ir.Access{
		{Array: A, Index: []ir.AffExpr{i, j}},
		{Array: B, Write: true, Index: []ir.AffExpr{i, j}},
	}
	jl := ir.SimpleLoop("j", ir.AffConst(0), ir.AffConst(63), hot, cold)
	il := ir.SimpleLoop("i", ir.AffConst(0), ir.AffConst(63), jl)
	nest := &ir.Nest{Label: "two", Root: il}
	rows, err := AnalyzeStatements(nest, testCfg, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Name != "S_hot" || rows[1].Name != "S_copy" {
		t.Fatalf("names = %v %v", rows[0].Name, rows[1].Name)
	}
	if rows[0].OI <= 10*rows[1].OI {
		t.Fatalf("per-statement OI not separated: %.2f vs %.2f", rows[0].OI, rows[1].OI)
	}
	if rows[1].Flops != 0 {
		t.Fatalf("copy flops = %d", rows[1].Flops)
	}
}

// TestPrefixCountsHonourInexactProjection is the regression test for the
// dropped exactness flag. In
//
//	for i in [0, 10]: for j in [ceil(i/2), floor((i+4)/3)]
//
// both bounds on j have a non-unit coefficient, so Fourier-Motzkin can only
// say which i admit a rational j: {0..8}, nine values. The loop body runs
// for i in {0..6, 8} — at i = 7 the range [3.5, 3.67] holds no integer — so
// the exact prefix count is eight; nine would shrink the modeled trip count
// of the j loop.
func TestPrefixCountsHonourInexactProjection(t *testing.T) {
	stmt := &ir.Statement{Name: "S"}
	j := &ir.Loop{IV: "j",
		Lo:   []ir.Bound{ir.BDiv(ir.AffVar("i"), 2)},
		Hi:   []ir.Bound{ir.BDiv(ir.AffVar("i").AddConst(4), 3)},
		Body: []ir.Node{stmt}}
	nest := &ir.Nest{Label: "skew", Root: ir.SimpleLoop("i", ir.AffConst(0), ir.AffConst(10), j)}
	dom := nest.Statements()[0].Domain
	if _, exact := dom.ProjectOutVar(1); exact {
		t.Fatal("test domain projects exactly; it no longer exercises the fallback")
	}
	var counts isl.CountMemo
	cnt, err := prefixCounts(dom, 2, &counts, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int64{1, 8, 10}; !reflect.DeepEqual(cnt, want) {
		t.Fatalf("prefix counts = %v, want %v", cnt, want)
	}
	// A budget too small to enumerate the prefix is an error, not a guess.
	if _, err := prefixCounts(dom, 2, new(isl.CountMemo), 3); err == nil {
		t.Fatal("prefix enumeration over budget did not fail")
	}
}

// TestPrefixCountsMatchEnumeration: on every statement domain of every
// workload kernel at test size, Pluto-tiled across the daemon's tile range,
// each prefix count prefixCounts returns — taken block by block wherever a
// tiled domain separates — is the enumerated size of the same projection.
// Kernels and statements share most projections, so each distinct one is
// enumerated once.
func TestPrefixCountsMatchEnumeration(t *testing.T) {
	tiles := []int64{4, 8, 16, 32, 64, 130}
	if testing.Short() {
		tiles = []int64{4, 32}
	}
	const budget = 1 << 24
	type counted struct {
		n     int64
		where string
	}
	seen := map[string]counted{}
	for _, k := range workloads.All() {
		for _, tile := range tiles {
			eachTiledNestAt(t, k.Name, workloads.Test, pluto.Options{TileSize: tile}, func(label string, nest *ir.Nest) {
				var counts isl.CountMemo
				for _, si := range nest.Statements() {
					n := len(si.Loops)
					cnt, err := prefixCounts(si.Domain, n, &counts, budget)
					if err != nil {
						t.Fatalf("%s/%s tile %d %s: %v", k.Name, label, tile, si.Stmt.Name, err)
					}
					for d, proj := range prefixProjections(si.Domain, n)[1:] {
						where := fmt.Sprintf("%s/%s tile %d %s prefix %d", k.Name, label, tile, si.Stmt.Name, d+1)
						key := proj.String()
						if prev, ok := seen[key]; ok {
							if prev.n != cnt[d+1] {
								t.Fatalf("%s: count %d, but %d for the same set at %s", where, cnt[d+1], prev.n, prev.where)
							}
							continue
						}
						want, err := proj.CountEnumerate(budget)
						if err != nil {
							t.Fatalf("%s: enumerate: %v", where, err)
						}
						if cnt[d+1] != want {
							t.Fatalf("%s: count %d, enumerated %d", where, cnt[d+1], want)
						}
						seen[key] = counted{want, where}
					}
				}
			})
		}
	}
	t.Logf("%d distinct prefix projections counted and enumerated", len(seen))
}

// A statement deeper than boundClosure's 64-bit masks is an error, not a
// truncated bound closure.
func TestMeasureRejectsStatementsDeeperThan64Loops(t *testing.T) {
	for _, depth := range []int{maxDepth, maxDepth + 1} {
		var body ir.Node = &ir.Statement{Name: "S"}
		for d := depth - 1; d >= 0; d-- {
			body = ir.SimpleLoop(fmt.Sprintf("i%d", d), ir.AffConst(0), ir.AffConst(0), body)
		}
		_, err := Measure(&ir.Nest{Label: "deep", Root: body.(*ir.Loop)}, 64)
		if depth <= maxDepth && err != nil {
			t.Fatalf("%d loops deep: %v", depth, err)
		}
		if depth > maxDepth && (err == nil || !strings.Contains(err.Error(), "at most 64")) {
			t.Fatalf("%d loops deep: err = %v, want the depth bound", depth, err)
		}
	}
}
