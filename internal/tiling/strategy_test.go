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

// testCtx scores every auto candidate the same, so what the volume tests
// pin is auto's tie-break order: QDRAM, total misses, candidate order.
func testCtx() Context {
	return Context{
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
	ctx := testCtx()
	want, err := pluto.Optimize(nest, pluto.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	s := MustNew(Spec{Name: NamePluto})
	got, info, err := s.Apply(nest, ctx)
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
	s := MustNew(Spec{Name: NamePluto, Size: 16})
	_, info, err := s.Apply(nest, testCtx())
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
	s := MustNew(Spec{Name: NameCacheOblivious})
	_, info, err := s.Apply(nest, testCtx())
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
	ctx := testCtx()
	s := MustNew(Spec{Name: NameLatency})
	out1, info1, err := s.Apply(nest, ctx)
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
	out2, info2, err := s.Apply(nest, ctx)
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
	s := MustNew(Spec{Name: NameLatency, Probe: 1})
	_, info, err := s.Apply(nest, testCtx())
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
	for _, name := range []string{NamePluto, NameCacheOblivious, NameLatency, NameAuto} {
		s := MustNew(Spec{Name: name})
		out, info, err := s.Apply(nest, testCtx())
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

// auto must break EDP ties by predicted DRAM volume, never select a
// candidate that errored, and report the winner's name.
func TestAutoSkipsErroredCandidates(t *testing.T) {
	nest := nestFrom(t, "gemm", 1)
	ctx := testCtx()
	s := MustNew(Spec{Name: NameAuto})

	_, info, err := s.Apply(nest, ctx)
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
	_, info2, err := s.Apply(nest, ctx)
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
	if _, _, err := s.Apply(nest, ctx); err == nil {
		t.Fatal("auto succeeded with every candidate poisoned")
	}
}

// Strategies must not mutate their input nest.
func TestApplyDoesNotMutateInput(t *testing.T) {
	for _, name := range []string{NamePluto, NameCacheOblivious, NameLatency, NameAuto} {
		nest := nestFrom(t, "gemm", 1)
		before := nest.Clone()
		s := MustNew(Spec{Name: name})
		if _, _, err := s.Apply(nest, testCtx()); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(nest, before) {
			t.Fatalf("%s mutated its input nest", name)
		}
	}
}

// The CapEDP score outranks the DRAM-volume tie-break. The stub
// scores candidates by arrival order (auto tries pluto, cacheoblivious,
// latency), so the first candidate gets the best EDP and must win even
// though the volume rule prefers a different strategy for this nest.
func TestAutoCapEDPOverridesVolumeScore(t *testing.T) {
	nest := nestFrom(t, "gemm", 1)
	ctx := testCtx()
	auto := MustNew(Spec{Name: NameAuto})
	_, volInfo, err := auto.Apply(nest, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if volInfo.Strategy == "auto:"+NamePluto {
		t.Fatalf("precondition: the volume rule already picks pluto on this nest; choose one where it does not")
	}

	calls := 0
	ctx.CapEDP = func(n *ir.Nest, cm *cachemodel.Result) (float64, bool) {
		calls++
		return float64(calls), true // ascending: first candidate scores best
	}
	_, edpInfo, err := auto.Apply(nest, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 3 {
		t.Fatalf("CapEDP consulted for %d candidates, want 3", calls)
	}
	if edpInfo.Strategy != "auto:"+NamePluto {
		t.Fatalf("CapEDP-scored auto picked %s, want the best-EDP candidate auto:%s", edpInfo.Strategy, NamePluto)
	}
	if edpInfo.Strategy == volInfo.Strategy {
		t.Fatal("CapEDP stub did not flip the selection")
	}
}

// A candidate the scorer cannot score (ok = false) is skipped exactly like
// one whose transform failed: it is never selected, auto errors only when
// every candidate was skipped, and auto without a scorer is a programming
// error.
func TestAutoCapEDPFallback(t *testing.T) {
	nest := nestFrom(t, "gemm", 1)
	ctx := testCtx()
	auto := MustNew(Spec{Name: NameAuto})
	_, volInfo, err := auto.Apply(nest, ctx)
	if err != nil {
		t.Fatal(err)
	}

	ctx.CapEDP = func(*ir.Nest, *cachemodel.Result) (float64, bool) { return 0, false }
	if _, _, err := auto.Apply(nest, ctx); err == nil || !strings.Contains(err.Error(), "all candidates failed") {
		t.Fatalf("auto with every candidate unscored: err = %v, want the all-candidates-failed error", err)
	}

	// Unscore only the tie-break winner, with the best EDP on offer.
	candidates := []string{NamePluto, NameCacheOblivious, NameLatency}
	calls := 0
	ctx.CapEDP = func(*ir.Nest, *cachemodel.Result) (float64, bool) {
		calls++
		if "auto:"+candidates[calls-1] == volInfo.Strategy {
			return -1, false
		}
		return 0, true
	}
	_, oneInfo, err := auto.Apply(nest, ctx)
	if err != nil {
		t.Fatal(err)
	}
	if calls != 3 || oneInfo.Strategy == volInfo.Strategy {
		t.Fatalf("auto picked %s after %d scorer calls, want any candidate but the unscored %s",
			oneInfo.Strategy, calls, volInfo.Strategy)
	}

	ctx.CapEDP = nil
	if _, _, err := auto.Apply(nest, ctx); err == nil || !strings.Contains(err.Error(), "no EDP scorer") {
		t.Fatalf("auto without a scorer: err = %v, want the no-EDP-scorer error", err)
	}
}

// A nest's dependence analysis does not depend on tile size, so it travels
// in the Context: a strategy that tiles one nest several ways (latency's
// ladder, auto's race) analyses once per Apply. The shared analysis must
// not leak to another nest.
func TestDependenceAnalysisTravelsInContext(t *testing.T) {
	gemm, lu := nestFrom(t, "gemm", 1), nestFrom(t, "lu", 0)
	ctx := testCtx().withDeps(gemm)
	if ctx.deps == nil {
		t.Fatal("gemm was not analysed")
	}
	if again := ctx.withDeps(gemm); again.deps != ctx.deps {
		t.Fatal("second withDeps on the same nest re-ran the analysis")
	}
	other := ctx.withDeps(lu)
	want, err := pluto.Analyze(lu)
	if err != nil {
		t.Fatal(err)
	}
	if other.deps == ctx.deps || !reflect.DeepEqual(other.deps, want) {
		t.Fatal("a context carrying gemm's dependences served them for lu")
	}
	// Candidates inside auto see the shared analysis and still produce what
	// each produces alone.
	for _, name := range []string{NamePluto, NameCacheOblivious, NameLatency} {
		s := MustNew(Spec{Name: name})
		alone, infoAlone, err := s.Apply(lu, testCtx())
		if err != nil {
			t.Fatal(err)
		}
		shared, infoShared, err := s.Apply(lu, other)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(alone, shared) || infoAlone != infoShared {
			t.Fatalf("%s: result with a shared analysis differs", name)
		}
	}
}
