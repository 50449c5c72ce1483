package tiling

import (
	"reflect"
	"strings"
	"testing"

	"polyufc/internal/cachemodel"
	"polyufc/internal/faults"
	"polyufc/internal/hw"
	"polyufc/internal/ir"
	"polyufc/internal/pluto"
	"polyufc/internal/workloads"
)

// ctxFor is the context core's tile stage hands a strategy for nest: its
// dependence analysis from pluto.Analyze (nil outside pluto's class) and a
// scorer that rates every auto candidate the same, so auto's pick among
// them is candidate order.
func ctxFor(nest *ir.Nest) Context {
	deps, err := pluto.Analyze(nest)
	if err != nil {
		deps = nil
	}
	return Context{
		Deps:   deps,
		Cache:  hw.BDW().Cache,
		CapEDP: func(*ir.Nest, *cachemodel.Result) (float64, bool) { return 0, true },
	}
}

// nestFrom builds an affine workload at Test size and returns its idx-th
// nest.
func nestFrom(t *testing.T, kernel string, idx int) *ir.Nest {
	t.Helper()
	k, err := workloads.ByName(kernel)
	if err != nil {
		t.Fatal(err)
	}
	mod, err := k.BuildAffine(workloads.Test)
	if err != nil {
		t.Fatal(err)
	}
	var nests []*ir.Nest
	for _, f := range mod.Funcs {
		for _, op := range f.Ops {
			if n, ok := op.(*ir.Nest); ok {
				nests = append(nests, n)
			}
		}
	}
	if idx >= len(nests) {
		t.Fatalf("%s has %d nests, want index %d", kernel, len(nests), idx)
	}
	return nests[idx]
}

// The pluto strategy must be a pure wrapper: identical output nest and
// metadata to calling pluto.Optimize directly with the same options.
func TestPlutoStrategyWrapsOptimize(t *testing.T) {
	nest := nestFrom(t, "gemm", 1)
	want, err := pluto.Optimize(nest, pluto.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	got, info, err := Apply(Spec{Name: NamePluto}, nest, ctxFor(nest))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want.Nest) {
		t.Fatal("pluto strategy nest differs from pluto.Optimize")
	}
	if info.Tiled != want.Tiled || (info.Tiled && info.TileSize != want.TileSize) {
		t.Fatalf("metadata %+v, want Tiled=%v TileSize=%d", info, want.Tiled, want.TileSize)
	}
	if info.Strategy != NamePluto {
		t.Fatalf("strategy %q, want pluto", info.Strategy)
	}
}

func TestPlutoStrategySizeOverride(t *testing.T) {
	nest := nestFrom(t, "gemm", 1)
	_, info, err := Apply(Spec{Name: NamePluto, Size: 16}, nest, ctxFor(nest))
	if err != nil {
		t.Fatal(err)
	}
	if !info.Tiled || info.TileSize != 16 {
		t.Fatalf("metadata %+v, want tiled at 16", info)
	}
}

// leafTile must pick a power of two in [base, 256], derived from the
// iteration-space extent: gemm's Test-size update nest is 40^3, whose
// geometric-mean extent 40 yields sqrt(40) ~ 6.3, clamped up to base 8 —
// deliberately different from Pluto's fixed 32.
func TestCacheObliviousLeafTile(t *testing.T) {
	nest := nestFrom(t, "gemm", 1)
	if got := leafTile(nest, DefaultBase); got != 8 {
		t.Fatalf("leafTile(gemm@Test) = %d, want 8", got)
	}
	_, info, err := Apply(Spec{Name: NameCacheOblivious}, nest, ctxFor(nest))
	if err != nil {
		t.Fatal(err)
	}
	if !info.Tiled || info.TileSize != 8 {
		t.Fatalf("metadata %+v, want tiled at 8", info)
	}
	if info.TileSize == pluto.DefaultTileSize {
		t.Fatal("cacheoblivious chose the pluto default; no divergence")
	}
}

func TestClampPow2(t *testing.T) {
	cases := []struct{ v, lo, hi, want int64 }{
		{6, 8, 256, 8},
		{8, 8, 256, 8},
		{15, 8, 256, 8},
		{16, 8, 256, 16},
		{1000, 8, 256, 256},
		{3, 2, 256, 2},
		{40, 8, 256, 32},
	}
	for _, tc := range cases {
		if got := clampPow2(tc.v, tc.lo, tc.hi); got != tc.want {
			t.Errorf("clampPow2(%d,%d,%d) = %d, want %d", tc.v, tc.lo, tc.hi, got, tc.want)
		}
	}
}

// The latency strategy must choose deterministically from the probed
// ladder prefix and report the size it chose.
func TestLatencyStrategyDeterministic(t *testing.T) {
	nest := nestFrom(t, "gemm", 1)
	ctx := ctxFor(nest)
	spec := Spec{Name: NameLatency}
	out1, info1, err := Apply(spec, nest, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !info1.Tiled {
		t.Fatalf("latency left gemm untiled: %+v", info1)
	}
	found := false
	for _, sz := range latencyLadder[:DefaultProbe] {
		if info1.TileSize == sz {
			found = true
		}
	}
	if !found {
		t.Fatalf("tile size %d not on probed ladder %v", info1.TileSize, latencyLadder[:DefaultProbe])
	}
	out2, info2, err := Apply(spec, nest, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if info1 != info2 || !reflect.DeepEqual(out1, out2) {
		t.Fatal("latency strategy is not deterministic")
	}
}

// A probe bound of 1 leaves exactly one candidate; the strategy must
// pick it.
func TestLatencyProbeBound(t *testing.T) {
	nest := nestFrom(t, "gemm", 1)
	_, info, err := Apply(Spec{Name: NameLatency, Probe: 1}, nest, ctxFor(nest))
	if err != nil {
		t.Fatal(err)
	}
	if !info.Tiled || info.TileSize != latencyLadder[0] {
		t.Fatalf("metadata %+v, want tiled at %d", info, latencyLadder[0])
	}
}

// Depth-1 nests are outside the tileable class under every strategy:
// all must pass them through untiled without error.
func TestUntileableNestPassesThrough(t *testing.T) {
	A := ir.NewArray("x", 8, 64)
	nest := &ir.Nest{Label: "vec_scale", Root: ir.SimpleLoop("i",
		ir.AffConst(0), ir.AffConst(63),
		&ir.Statement{
			Name:  "S",
			Flops: 1,
			Accesses: []ir.Access{
				{Array: A, Index: []ir.AffExpr{ir.AffVar("i")}},
				{Array: A, Write: true, Index: []ir.AffExpr{ir.AffVar("i")}},
			},
		})}
	for _, name := range Names() {
		out, info, err := Apply(Spec{Name: name}, nest, ctxFor(nest))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if info.Tiled {
			t.Fatalf("%s tiled a depth-1 nest: %+v", name, info)
		}
		if out == nil {
			t.Fatalf("%s returned nil nest", name)
		}
	}
}

// An unknown name is Apply's error too, and it names the strategy.
func TestApplyUnknownStrategy(t *testing.T) {
	nest := nestFrom(t, "gemm", 1)
	_, _, err := Apply(Spec{Name: "bogus"}, nest, ctxFor(nest))
	if err == nil || !strings.Contains(err.Error(), `"bogus"`) {
		t.Fatalf("Apply(bogus): err = %v, want an error naming the strategy", err)
	}
}

// auto must never select a candidate that errored, must report the
// winner's name, and errors only when every candidate failed.
func TestAutoSkipsErroredCandidates(t *testing.T) {
	nest := nestFrom(t, "gemm", 1)
	ctx := ctxFor(nest)
	spec := Spec{Name: NameAuto}

	_, info, err := Apply(spec, nest, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(info.Strategy, "auto:") {
		t.Fatalf("strategy %q, want auto:<winner>", info.Strategy)
	}
	winner := strings.TrimPrefix(info.Strategy, "auto:")

	// Poison the winner; auto must pick someone else.
	ctx.Faults = faults.New(1)
	ctx.Faults.Enable("tiling."+winner, faults.Spec{P: 1})
	_, info2, err := Apply(spec, nest, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if info2.Strategy == "auto:"+winner {
		t.Fatalf("auto selected the poisoned strategy %q", winner)
	}

	// Poison everyone: auto must error rather than pick a failed
	// candidate.
	ctx.Faults = faults.New(1)
	for _, fp := range []string{FaultPluto, FaultCacheOblivious, FaultLatency} {
		ctx.Faults.Enable(fp, faults.Spec{P: 1})
	}
	if _, _, err := Apply(spec, nest, ctx); err == nil {
		t.Fatal("auto succeeded with every candidate poisoned")
	}
}

// Strategies must not mutate their input nest.
func TestApplyDoesNotMutateInput(t *testing.T) {
	for _, name := range Names() {
		nest := nestFrom(t, "gemm", 1)
		before := nest.Clone()
		if _, _, err := Apply(Spec{Name: name}, nest, ctxFor(nest)); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(nest, before) {
			t.Fatalf("%s mutated its input nest", name)
		}
	}
}

// auto keeps the candidate with the lowest CapEDP, and an EDP tie goes to
// the earlier candidate (auto tries pluto, cacheoblivious, latency). The
// stub scorer hands out each case's EDPs in that order.
func TestAutoLowestCapEDPWins(t *testing.T) {
	nest := nestFrom(t, "gemm", 1)
	for _, tc := range []struct {
		edps []float64
		want string
	}{
		{[]float64{3, 2, 1}, NameLatency},
		{[]float64{1, 2, 3}, NamePluto},
		{[]float64{2, 1, 3}, NameCacheOblivious},
		{[]float64{1, 1, 1}, NamePluto},
		{[]float64{2, 1, 1}, NameCacheOblivious},
		{[]float64{2, 2, 1}, NameLatency},
	} {
		ctx := ctxFor(nest)
		calls := 0
		ctx.CapEDP = func(*ir.Nest, *cachemodel.Result) (float64, bool) {
			calls++
			return tc.edps[calls-1], true
		}
		_, info, err := Apply(Spec{Name: NameAuto}, nest, ctx)
		if err != nil {
			t.Fatal(err)
		}
		if calls != 3 {
			t.Fatalf("EDPs %v: CapEDP consulted for %d candidates, want 3", tc.edps, calls)
		}
		if info.Strategy != "auto:"+tc.want {
			t.Fatalf("EDPs %v: auto picked %s, want auto:%s", tc.edps, info.Strategy, tc.want)
		}
	}
}

// A candidate the scorer cannot score (ok = false) is skipped exactly like
// one whose transform failed: it is never selected, auto errors only when
// every candidate was skipped, and auto without a scorer is a programming
// error.
func TestAutoCapEDPFallback(t *testing.T) {
	nest := nestFrom(t, "gemm", 1)
	ctx := ctxFor(nest)
	auto := Spec{Name: NameAuto}

	ctx.CapEDP = func(*ir.Nest, *cachemodel.Result) (float64, bool) { return 0, false }
	if _, _, err := Apply(auto, nest, ctx); err == nil || !strings.Contains(err.Error(), "all candidates failed") {
		t.Fatalf("auto with every candidate unscored: err = %v, want the all-candidates-failed error", err)
	}

	// Unscore only pluto, the first candidate, which wins every tie.
	calls := 0
	ctx.CapEDP = func(*ir.Nest, *cachemodel.Result) (float64, bool) {
		calls++
		if calls == 1 {
			return -1, false
		}
		return 0, true
	}
	_, info, err := Apply(auto, nest, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 3 || info.Strategy != "auto:"+NameCacheOblivious {
		t.Fatalf("auto picked %s after %d scorer calls, want auto:%s past the unscored pluto",
			info.Strategy, calls, NameCacheOblivious)
	}

	ctx.CapEDP = nil
	if _, _, err := Apply(auto, nest, ctx); err == nil || !strings.Contains(err.Error(), "no EDP scorer") {
		t.Fatalf("auto without a scorer: err = %v, want the no-EDP-scorer error", err)
	}
}

// A nest's dependence analysis travels in the Context and is never made
// again inside a strategy: a tileable nest handed a nil Deps passes through
// untiled under every strategy, and the analysis of a structurally
// identical clone tiles the nest as its own analysis does.
func TestDependenceAnalysisTravelsInContext(t *testing.T) {
	lu := nestFrom(t, "lu", 0)
	clone := lu.Clone()
	for _, name := range Names() {
		spec := Spec{Name: name}
		own, ownInfo, err := Apply(spec, lu, ctxFor(lu))
		if err != nil {
			t.Fatal(err)
		}
		if !ownInfo.Tiled {
			t.Fatalf("%s left lu untiled with its analysis: %+v", name, ownInfo)
		}
		shared, sharedInfo, err := Apply(spec, lu, ctxFor(clone))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(own, shared) || ownInfo != sharedInfo {
			t.Fatalf("%s: result with a clone's analysis differs", name)
		}
		ctx := ctxFor(lu)
		ctx.Deps = nil
		out, info, err := Apply(spec, lu, ctx)
		if err != nil {
			t.Fatal(err)
		}
		if info.Tiled || out != lu {
			t.Fatalf("%s tiled lu without an analysis: %+v", name, info)
		}
	}
}
