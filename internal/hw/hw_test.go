package hw

import (
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"polyufc/internal/cachemodel"
	"polyufc/internal/ir"
)

// levels builds synthetic per-level records from hit and miss counts.
func levels(hits, misses []int64) []cachemodel.LevelResult {
	out := make([]cachemodel.LevelResult, len(hits))
	for i := range hits {
		out[i] = cachemodel.LevelResult{Accesses: hits[i] + misses[i], Misses: misses[i]}
	}
	return out
}

// synthetic profiles for model-shape tests.
func cbProfile() *CacheProfile {
	return &CacheProfile{Result: cachemodel.Result{
		Flops: 2e9, Instances: 1e9, Loads: 3e9, Stores: 1e8,
		Levels: levels([]int64{3e9, 5e7, 4e7}, []int64{1e8, 5e7, 1e6}),
		QDRAM:  64e6,
	}, HasParallel: true}
}

func bbProfile() *CacheProfile {
	return &CacheProfile{Result: cachemodel.Result{
		Flops: 4e7, Instances: 2e7, Loads: 4e7, Stores: 1e7,
		Levels: levels([]int64{3e7, 5e6, 2e6}, []int64{2e7, 1.5e7, 1e7}),
		QDRAM:  640e6,
	}, HasParallel: true}
}

func argminEDP(rs []RunResult) (float64, float64) {
	best := rs[0]
	for _, r := range rs {
		if r.EDP < best.EDP {
			best = r
		}
	}
	return best.UncoreGHz, best.EDP
}

func TestCBKernelPrefersLowUncore(t *testing.T) {
	for _, p := range Platforms() {
		m := NewMachine(p)
		rs := m.SweepUncore(cbProfile())
		fBest, _ := argminEDP(rs)
		mid := (p.UncoreMin + p.UncoreMax) / 2
		if fBest > mid {
			t.Fatalf("%s: CB EDP optimum at %.1f GHz, expected below midpoint %.1f", p.Name, fBest, mid)
		}
		// Time must be nearly flat: within 5% between min and max freq.
		t0, t1 := rs[0].Seconds, rs[len(rs)-1].Seconds
		if math.Abs(t0-t1)/t1 > 0.05 {
			t.Fatalf("%s: CB time varies %.1f%% across uncore range", p.Name, 100*math.Abs(t0-t1)/t1)
		}
		// Energy must increase with frequency.
		if rs[0].PkgJoules >= rs[len(rs)-1].PkgJoules {
			t.Fatalf("%s: CB energy did not grow with uncore frequency", p.Name)
		}
	}
}

func TestBBKernelPrefersHighUncore(t *testing.T) {
	for _, p := range Platforms() {
		m := NewMachine(p)
		rs := m.SweepUncore(bbProfile())
		fBest, _ := argminEDP(rs)
		mid := (p.UncoreMin + p.UncoreMax) / 2
		if fBest <= mid {
			t.Fatalf("%s: BB EDP optimum at %.1f GHz, expected above midpoint %.1f", p.Name, fBest, mid)
		}
		// And strictly below max: saturation makes the top frequencies
		// pure power waste (the paper's gemver/mvt observation).
		if fBest >= p.UncoreMax {
			t.Fatalf("%s: BB EDP optimum at max frequency; saturation missing", p.Name)
		}
		// Time must improve measurably from min to max frequency (the
		// saturating curve leaves ~20-40% on BDW's narrow range).
		t0, t1 := rs[0].Seconds, rs[len(rs)-1].Seconds
		if t0 < 1.15*t1 {
			t.Fatalf("%s: BB time barely improves with uncore frequency (%.3f vs %.3f)", p.Name, t0, t1)
		}
	}
}

func TestUncoreStepsAndClamp(t *testing.T) {
	p := BDW()
	steps := p.UncoreSteps()
	if len(steps) != 17 { // 1.2..2.8 in 0.1 steps
		t.Fatalf("BDW steps = %d, want 17", len(steps))
	}
	r := RPL()
	if n := len(r.UncoreSteps()); n != 39 { // 0.8..4.6: the paper's ~39 steps
		t.Fatalf("RPL steps = %d, want 39", n)
	}
	if got := p.ClampCap(0.5); got != 1.2 {
		t.Fatalf("clamp low = %v", got)
	}
	if got := p.ClampCap(9.9); got != 2.8 {
		t.Fatalf("clamp high = %v", got)
	}
	if got := p.ClampCap(2.04); math.Abs(got-2.0) > 1e-9 {
		t.Fatalf("round = %v", got)
	}
}

func TestCapSwitchOverhead(t *testing.T) {
	m := NewMachine(BDW())
	m.ResetCounters()
	m.SetUncoreCap(2.0)
	m.SetUncoreCap(2.0) // no change: free
	m.SetUncoreCap(1.5)
	if m.CapSwitches() != 2 {
		t.Fatalf("switches = %d", m.CapSwitches())
	}
	_, _, sec := m.RAPL()
	want := 2 * BDW().CapLatency
	if math.Abs(sec-want) > 1e-12 {
		t.Fatalf("overhead = %g, want %g", sec, want)
	}
}

func TestRAPLUncoreZoneAvailability(t *testing.T) {
	b := NewMachine(BDW())
	b.Measure(bbProfile())
	_, u, _ := b.RAPL()
	if !math.IsNaN(u) {
		t.Fatal("BDW must not expose an uncore RAPL zone (fn. 15)")
	}
	r := NewMachine(RPL())
	r.Measure(bbProfile())
	_, u2, _ := r.RAPL()
	if math.IsNaN(u2) || u2 <= 0 {
		t.Fatalf("RPL uncore zone = %v", u2)
	}
}

func TestMeasureAccumulatesRAPL(t *testing.T) {
	m := NewMachine(RPL())
	m.ResetCounters()
	r1 := m.Measure(cbProfile())
	r2 := m.Measure(cbProfile())
	pkg, _, sec := m.RAPL()
	if math.Abs(pkg-(r1.PkgJoules+r2.PkgJoules)) > 1e-9 {
		t.Fatal("package energy does not accumulate")
	}
	if math.Abs(sec-(r1.Seconds+r2.Seconds)) > 1e-12 {
		t.Fatal("busy time does not accumulate")
	}
}

func TestRunFuncWithCaps(t *testing.T) {
	// A function with a cap, a kernel, a different cap, and a kernel.
	A := ir.NewArray("A", 8, 64)
	B := ir.NewArray("B", 8, 64)
	stmt := &ir.Statement{Name: "S", Flops: 1}
	i := ir.AffVar("i")
	stmt.Accesses = []ir.Access{
		{Array: A, Index: []ir.AffExpr{i}},
		{Array: B, Write: true, Index: []ir.AffExpr{i}},
	}
	nest := &ir.Nest{Label: "copy", Root: ir.SimpleLoop("i", ir.AffConst(0), ir.AffConst(63), stmt)}
	f := &ir.Func{Name: "k", Ops: []ir.Op{
		&ir.SetUncoreCap{GHz: 1.5},
		nest,
		&ir.SetUncoreCap{GHz: 2.5},
		nest,
	}}
	m := NewMachine(BDW())
	res, err := m.RunFunc(f)
	if err != nil {
		t.Fatal(err)
	}
	if res.Seconds <= 2*BDW().CapLatency {
		t.Fatalf("run time %g too small", res.Seconds)
	}
	if m.CapSwitches() != 2 {
		t.Fatalf("switches = %d", m.CapSwitches())
	}
	if res.EDP <= 0 || res.PkgJoules <= 0 {
		t.Fatalf("bad result %+v", res)
	}
}

// RunBaseline is the uncapped reference: whatever cap was in force it
// runs every nest at the driver default, skips the cap ops, and sums what
// measuring each nest's profile reports.
func TestRunBaselineIgnoresCapsAndSums(t *testing.T) {
	A := ir.NewArray("A", 8, 64)
	stmt := &ir.Statement{Name: "S", Flops: 1}
	stmt.Accesses = []ir.Access{{Array: A, Write: true, Index: []ir.AffExpr{ir.AffVar("i")}}}
	nest := &ir.Nest{Label: "w", Root: ir.SimpleLoop("i", ir.AffConst(0), ir.AffConst(63), stmt)}
	f := &ir.Func{Name: "k", Ops: []ir.Op{&ir.SetUncoreCap{GHz: 1.5}, nest, nest}}

	ref := NewMachine(BDW())
	prof, err := ref.Profile(nest)
	if err != nil {
		t.Fatal(err)
	}
	one := ref.Measure(prof) // a fresh machine sits at the driver default
	m := NewMachine(BDW())
	m.SetUncoreCap(1.5)
	base, err := m.RunBaseline(f, f)
	if err != nil {
		t.Fatal(err)
	}
	if m.UncoreCap() != BDW().UncoreMax {
		t.Fatalf("baseline ran at cap %.1f, want the driver default %.1f", m.UncoreCap(), BDW().UncoreMax)
	}
	if math.Abs(base.Seconds-4*one.Seconds) > 1e-12 || math.Abs(base.PkgJoules-4*one.PkgJoules) > 1e-9 {
		t.Fatalf("baseline %+v is not four uncapped runs of %+v", base, one)
	}
	if base.EDP != base.PkgJoules*base.Seconds {
		t.Fatalf("EDP %g != J*s", base.EDP)
	}
}

// A function that repeats one nest asks the profile memo once per run,
// not once per op, and measures what a nest-by-nest walk measures.
func TestRepeatedNestLooksUpOneProfile(t *testing.T) {
	A := ir.NewArray("A", 8, 64)
	stmt := &ir.Statement{Name: "S", Flops: 1}
	stmt.Accesses = []ir.Access{{Array: A, Write: true, Index: []ir.AffExpr{ir.AffVar("i")}}}
	nest := &ir.Nest{Label: "w", Root: ir.SimpleLoop("i", ir.AffConst(0), ir.AffConst(63), stmt)}
	f := &ir.Func{Name: "k", Ops: []ir.Op{&ir.SetUncoreCap{GHz: 1.5}}}
	for i := 0; i < 100; i++ {
		f.Ops = append(f.Ops, nest)
	}

	var cache ProfileCache
	m := NewMachine(BDW())
	m.SetProfileCache(&cache)
	got, err := m.RunFunc(f)
	if err != nil {
		t.Fatal(err)
	}
	if hits, misses := cache.Stats(); hits+misses != 1 {
		t.Fatalf("%d profile-cache lookups (%d hits, %d misses), want 1", hits+misses, hits, misses)
	}

	ref := NewMachine(BDW())
	want := RunResult{UncoreGHz: ref.UncoreCap()}
	want.Add(RunResult{Seconds: ref.P.CapLatency, PkgJoules: ref.P.CapLatency * ref.P.truth.PConstW})
	ref.SetUncoreCap(1.5)
	prof, err := ref.Profile(nest)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		want.Add(ref.Measure(prof))
	}
	if got != want {
		t.Fatalf("repeated run %+v, want %+v", got, want)
	}
}

// A multi-part run sums seconds and joules and derives watts and EDP from
// the sums; no seconds means no watts, never a NaN.
func TestRunResultAggregation(t *testing.T) {
	var agg RunResult
	agg.Add(RunResult{})
	if agg.AvgWatts != 0 || agg.EDP != 0 {
		t.Fatalf("empty run derived %+v", agg)
	}
	agg.Add(RunResult{Seconds: 1, PkgJoules: 10, UncoreJoules: 2, AvgWatts: 99, EDP: 99})
	agg.Add(RunResult{Seconds: 3, PkgJoules: 30, UncoreJoules: 4})
	if agg.Seconds != 4 || agg.PkgJoules != 40 || agg.UncoreJoules != 6 || agg.AvgWatts != 10 || agg.EDP != 160 {
		t.Fatalf("sum %+v", agg)
	}
	agg.Scale(2)
	if agg.Seconds != 8 || agg.PkgJoules != 80 || agg.UncoreJoules != 12 || agg.AvgWatts != 10 || agg.EDP != 640 {
		t.Fatalf("scaled %+v", agg)
	}
}

func TestProfileMemoized(t *testing.T) {
	A := ir.NewArray("A", 8, 128)
	stmt := &ir.Statement{Name: "S", Flops: 1}
	stmt.Accesses = []ir.Access{{Array: A, Write: true, Index: []ir.AffExpr{ir.AffVar("i")}}}
	nest := &ir.Nest{Label: "w", Root: ir.SimpleLoop("i", ir.AffConst(0), ir.AffConst(127), stmt)}
	m := NewMachine(RPL())
	p1, err := m.Profile(nest)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := m.Profile(nest)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Fatal("profile not memoized")
	}
	if p1.Stores != 128 {
		t.Fatalf("stores = %d", p1.Stores)
	}
}

func TestParallelSpeedsUp(t *testing.T) {
	p := cbProfile()
	serial := *p
	serial.HasParallel = false
	m := NewMachine(RPL())
	rp := m.MeasureAt(p, m.P.CoreBase, 3.0)
	rs := m.MeasureAt(&serial, m.P.CoreBase, 3.0)
	if rp.Seconds >= rs.Seconds/4 {
		t.Fatalf("parallel %.4fs vs serial %.4fs: insufficient speedup", rp.Seconds, rs.Seconds)
	}
}

func TestPlatformLookup(t *testing.T) {
	for _, name := range []string{"BDW", "bdw", "broadwell", "RPL", "rpl", "Rpl"} {
		if _, err := PlatformByName(name); err != nil {
			t.Fatalf("lookup %q: %v", name, err)
		}
	}
	p, err := PlatformByName("xyz")
	if err == nil {
		t.Fatal("unknown platform should return an error")
	}
	if p != nil {
		t.Fatal("unknown platform should not return a platform")
	}
	if !strings.Contains(err.Error(), "BDW") || !strings.Contains(err.Error(), "RPL") {
		t.Fatalf("lookup error should list registered backends, got %v", err)
	}
}

// Repeated measurements of one profile read the same numbers: the machine
// has no run-to-run noise, so every measured answer is reproducible.
func TestMeasurementNoise(t *testing.T) {
	m := NewMachine(RPL())
	p := cbProfile()
	if a, b := m.Measure(p), m.Measure(p); a.Seconds != b.Seconds || a.PkgJoules != b.PkgJoules {
		t.Fatalf("repeated measurements differ: %+v vs %+v", a, b)
	}
}

// TestSetCoreFreq: the core clock is set per measurement, through
// MeasureAt (Measure pins it at CoreBase), and a throttled compute-bound
// run takes proportionally longer.
func TestSetCoreFreq(t *testing.T) {
	m := NewMachine(BDW())
	p := cbProfile()
	if got := m.Measure(p).CoreGHz; got != BDW().CoreBase {
		t.Fatalf("Measure ran the core at %g GHz, want CoreBase %g", got, BDW().CoreBase)
	}
	fast := m.MeasureAt(p, BDW().CoreMax, 2.0)
	slow := m.MeasureAt(p, BDW().CoreMin, 2.0)
	if slow.Seconds < 2*fast.Seconds {
		t.Fatalf("core throttle barely slowed CB kernel: %g vs %g", slow.Seconds, fast.Seconds)
	}
	if fast.CoreGHz != BDW().CoreMax || slow.CoreGHz != BDW().CoreMin {
		t.Fatal("CoreGHz not recorded")
	}
}

// A machine with a shared profile cache attached retains no profiled nest:
// the daemon's machines live as long as the process, so anything either
// holds of a measured nest pins it — and the compiled module behind it —
// for good. The cache keys profiles by content, so it holds no nest
// either, however many profiles its limit lets it keep.
func TestMachineRetainsNoProfilesBeyondSharedCache(t *testing.T) {
	const limit = 8
	var cache ProfileCache
	cache.SetLimit(limit)
	m := NewMachine(RPL())
	m.SetProfileCache(&cache)

	var collected atomic.Int64
	profileFresh := func(i int) {
		A := ir.NewArray("A", 8, 64)
		stmt := &ir.Statement{Name: "S", Flops: 1}
		stmt.Accesses = []ir.Access{{Array: A, Write: true, Index: []ir.AffExpr{ir.AffVar("i")}}}
		nest := &ir.Nest{Label: fmt.Sprint("n", i), Root: ir.SimpleLoop("i", ir.AffConst(0), ir.AffConst(63), stmt)}
		runtime.SetFinalizer(nest, func(*ir.Nest) { collected.Add(1) })
		if _, err := m.Profile(nest); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4*limit; i++ {
		profileFresh(i)
	}
	if n := cache.Counters().Len; n != limit {
		t.Fatalf("shared cache holds %d profiles, limit %d", n, limit)
	}
	// Finalizers run on their own goroutine after a collection finds the
	// object unreachable: collect until every nest is gone.
	deadline := time.Now().Add(10 * time.Second)
	for collected.Load() < 4*limit && time.Now().Before(deadline) {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if got := collected.Load(); got != 4*limit {
		t.Fatalf("%d of %d profiled nests were collected; the machine or its cache (limit %d) pins the rest",
			got, 4*limit, limit)
	}
	runtime.KeepAlive(m)

	// Re-profiling a resident nest is still one simulation.
	nest := &ir.Nest{Label: "resident", Root: ir.SimpleLoop("i", ir.AffConst(0), ir.AffConst(3),
		&ir.Statement{Name: "S", Flops: 1})}
	_, missesBefore := cache.Stats()
	p1, err := m.Profile(nest)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := m.Profile(nest)
	if err != nil {
		t.Fatal(err)
	}
	if _, misses := cache.Stats(); p1 != p2 || misses != missesBefore+1 {
		t.Fatalf("re-profiling a resident nest simulated again (misses %d -> %d)", missesBefore, misses)
	}
}
