package plantable

import (
	"math"
	"math/rand"
	"testing"

	"polyufc/internal/hw"
	"polyufc/internal/model"
	"polyufc/internal/platform"
	"polyufc/internal/roofline"
	"polyufc/internal/search"
)

// equivBackends are the equivalence-suite targets: both paper machines
// plus the fractional-grid description file.
var equivBackends = []string{"bdw", "rpl", "wide-uncore"}

// randomKernel draws one randomized kernel model against a calibrated
// backend: timed DRAM volume across five orders of magnitude (the "size"
// axis), flop intensity across the whole tabulated OI range, an
// arbitrary cache-hit chain, and serial or fully-parallel threading. It
// is deliberately NOT built through syntheticModel — the property must
// hold for arbitrary KernelStats, not just the sweep's witnesses.
func randomKernel(r *rand.Rand, c *platform.Constants) *model.Model {
	logu := func(lo, hi float64) float64 {
		return math.Exp(math.Log(lo) + r.Float64()*(math.Log(hi)-math.Log(lo)))
	}
	q := int64(logu(1e5, 1e10))
	phi := logu(c.BtDRAM*3e-4, c.BtDRAM*3e3)
	ks := model.KernelStats{
		QDRAM:     q,
		QDRAMTime: q,
		Flops:     int64(math.Round(phi * float64(q))),
		// The classification axis is independent of phi in general
		// kernels (OI counts thread-shared traffic); draw it around the
		// ridge so both surfaces are exercised.
		OI:      c.BtDRAM * math.Exp(3*(2*r.Float64()-1)),
		Threads: 1,
	}
	if r.Intn(2) == 0 && c.CalibThreads > 1 {
		ks.Threads = c.CalibThreads
	}
	if r.Intn(4) > 0 { // three in four kernels carry cache-hit traffic
		ks.QBytes = int64(logu(0.1, 100) * float64(q))
		levels := 1 + r.Intn(len(c.HitLatency))
		for i := 0; i < levels; i++ {
			ks.HitRatio = append(ks.HitRatio, r.Float64())
			ks.MissRatio = append(ks.MissRatio, 0.05+0.95*r.Float64())
		}
	}
	return model.New(c, ks)
}

// gridDistance measures how many cap-grid steps apart two answers are.
func gridDistance(tg *roofline.Target, a, b float64) int {
	p := tg.Platform
	d := hw.GridIndex(p.UncoreMin, p.UncoreMax, p.CapStep, a) -
		hw.GridIndex(p.UncoreMin, p.UncoreMax, p.CapStep, b)
	if d < 0 {
		d = -d
	}
	return d
}

// checkEquivalence runs the table and live bisection over the same
// models and asserts the acceptance bound: among table-answered samples,
// >= 99% within one uncore grid step of the live answer. minHitRate
// additionally bounds how often the table may refuse (fall back).
func checkEquivalence(t *testing.T, tg *roofline.Target, tb *Table, models []*model.Model, minHitRate float64) {
	t.Helper()
	freqs := tg.Platform.UncoreSteps()
	opts := search.DefaultOptions()
	hits, within := 0, 0
	worst := 0
	for _, m := range models {
		fTab, ok := tb.Lookup(m)
		if !ok {
			continue // honest refusal: the caller runs live search
		}
		hits++
		res, err := search.Run(nil, m, freqs, opts)
		if err != nil {
			t.Fatal(err)
		}
		if d := gridDistance(tg, fTab, res.BestGHz); d <= 1 {
			within++
		} else if d > worst {
			worst = d
		}
	}
	if hits < int(minHitRate*float64(len(models))) {
		t.Fatalf("table answered only %d/%d samples (want >= %.0f%%) — the axes or the spread guard are off",
			hits, len(models), 100*minHitRate)
	}
	if rate := float64(within) / float64(hits); rate < 0.99 {
		t.Fatalf("only %.2f%% of %d table answers within one grid step of live search (worst miss: %d steps); want >= 99%%",
			100*rate, hits, worst)
	}
}

// TestTableSearchEquivalence is the headline property: for randomized
// (kernel, size, backend) triples, the precomputed table and live
// PolyUFC-SEARCH agree on f_c within one uncore grid step on >= 99% of
// the points the table answers — on BDW, RPL and the fractional-grid
// wide-uncore description.
func TestTableSearchEquivalence(t *testing.T) {
	for _, name := range equivBackends {
		name := name
		t.Run(name, func(t *testing.T) {
			tg := testTarget(t, name)
			tb := testTable(t, name)
			r := rand.New(rand.NewSource(1))
			models := make([]*model.Model, 400)
			for i := range models {
				models[i] = randomKernel(r, tg.Constants)
			}
			checkEquivalence(t, tg, tb, models, 0.5)
		})
	}
}

// TestRidgeNeighborhoodEquivalence tests the ridge point densely: the
// cap surface moves fastest where the CB/BB characterization flips
// (phi near BtDRAM), which is exactly where the axes are densified. The
// spread guard may refuse cliff cells (those fall back to live search),
// but what the table does answer must still meet the one-step bound.
func TestRidgeNeighborhoodEquivalence(t *testing.T) {
	for _, name := range equivBackends {
		name := name
		t.Run(name, func(t *testing.T) {
			tg := testTarget(t, name)
			tb := testTable(t, name)
			c := tg.Constants
			fRef := tb.refFreq()
			var models []*model.Model
			for i := 0; i <= 60; i++ {
				phi := c.BtDRAM * (0.8 + 0.45*float64(i)/60) // [0.8, 1.25] x ridge
				for _, ratio := range []float64{0.01, 0.1, 0.5, 1, 2, 10, 100} {
					for _, cls := range []roofline.Class{roofline.ComputeBound, roofline.BandwidthBound} {
						m, err := syntheticModel(c, platform.LinkCost{}, shape{class: cls, phi: phi, ratio: ratio}, fRef)
						if err != nil {
							t.Fatal(err)
						}
						models = append(models, m)
					}
				}
			}
			// Ridge witnesses sit on or next to densified axis points, so
			// the hit-rate floor is stricter than for arbitrary kernels.
			checkEquivalence(t, tg, tb, models, 0.7)
		})
	}
}

// TestDecomposeRoundTrip: a synthetic witness decomposes back to the
// shape it was built from — the two halves of the equivalence argument
// (sweep and lookup) agree on what a shape is.
func TestDecomposeRoundTrip(t *testing.T) {
	tg := testTarget(t, "bdw")
	c := tg.Constants
	fRef := testTable(t, "bdw").refFreq()
	for _, phi := range []float64{0.01, 1, c.BtDRAM, 100} {
		for _, ratio := range []float64{0, 0.5, 1, 50} {
			for _, cls := range []roofline.Class{roofline.ComputeBound, roofline.BandwidthBound} {
				m, err := syntheticModel(c, platform.LinkCost{}, shape{class: cls, phi: phi, ratio: ratio}, fRef)
				if err != nil {
					t.Fatal(err)
				}
				sh, ok := decompose(m, fRef)
				if !ok {
					t.Fatalf("witness (phi=%g ratio=%g) does not decompose", phi, ratio)
				}
				if sh.class != cls {
					t.Fatalf("witness (phi=%g ratio=%g): class %v, want %v", phi, ratio, sh.class, cls)
				}
				if math.Abs(sh.phi-phi) > 1e-6*(1+phi) {
					t.Fatalf("witness phi %g decomposed to %g", phi, sh.phi)
				}
				// Infeasible corners saturate at the feasibility boundary
				// a = phi*TFpu; everywhere else the ratio round-trips.
				wantRatio := math.Max(ratio, phi*c.TFpu/c.MissLat(fRef))
				if math.Abs(sh.ratio-wantRatio) > 1e-6*(1+wantRatio) {
					t.Fatalf("witness ratio %g decomposed to %g (want %g)", ratio, sh.ratio, wantRatio)
				}
			}
		}
	}
}

// TestLookupFallsBackOffAxes: kernels outside the tabulated family must
// report !ok, never a fabricated cap.
func TestLookupFallsBackOffAxes(t *testing.T) {
	tg := testTarget(t, "bdw")
	tb := testTable(t, "bdw")
	c := tg.Constants
	noDRAM := model.New(c, model.KernelStats{Flops: 1 << 20, OI: 100, Threads: 1})
	if _, ok := tb.Lookup(noDRAM); ok {
		t.Fatal("table answered a kernel with no DRAM traffic")
	}
	offAxis := model.New(c, model.KernelStats{
		Flops: 1 << 40, QDRAM: 1, QDRAMTime: 1, OI: 1e12, Threads: 1,
	})
	if _, ok := tb.Lookup(offAxis); ok {
		t.Fatal("table answered a kernel beyond the OI axis")
	}
}

// BenchmarkPlanLookup / BenchmarkLiveSearch compare a table lookup with
// a live bisection for the same kernel.
func BenchmarkPlanLookup(b *testing.B) {
	tg := testTarget(b, "bdw")
	tb := testTable(b, "bdw")
	m := benchKernel(tg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := tb.Lookup(m); !ok {
			b.Fatal("lookup fell back")
		}
	}
}

func BenchmarkLiveSearch(b *testing.B) {
	tg := testTarget(b, "bdw")
	freqs := tg.Platform.UncoreSteps()
	m := benchKernel(tg)
	opts := search.DefaultOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := search.Run(nil, m, freqs, opts); err != nil {
			b.Fatal(err)
		}
	}
}

func benchKernel(tg *roofline.Target) *model.Model {
	r := rand.New(rand.NewSource(42))
	return randomKernel(r, tg.Constants)
}
