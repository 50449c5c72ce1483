package plantable

import (
	"math/rand"
	"reflect"
	"testing"

	"polyufc/internal/model"
	"polyufc/internal/platform"
	"polyufc/internal/roofline"
)

// rhoTarget resolves (and caches) a 2-socket topology built from the
// embedded BDW description.
func rhoTarget(t testing.TB) *roofline.Target {
	t.Helper()
	targetMu.Lock()
	defer targetMu.Unlock()
	if tg, ok := targetCache["2s-plan"]; ok {
		return tg
	}
	bdw, err := platform.Lookup("BDW")
	if err != nil {
		t.Fatal(err)
	}
	sock := bdw.Sockets[0]
	b := &platform.Backend{
		Name: "2S-PLAN-TEST", CPU: "test 2S", Released: 2026,
		Sockets:      []platform.Socket{sock, sock},
		Interconnect: &platform.Interconnect{BWGBs: 19.2, LatencyNs: 120, EnergyPJPerByte: 15},
	}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	tg, err := roofline.Resolve(b)
	if err != nil {
		t.Fatal(err)
	}
	targetCache["2s-plan"] = tg
	return tg
}

// rhoTable builds (and caches) the 2-socket target's table; the topology
// gives it its second rho plane.
func rhoTable(t testing.TB) *Table {
	t.Helper()
	tg := rhoTarget(t)
	targetMu.Lock()
	defer targetMu.Unlock()
	if tb, ok := tableCache["2s-plan"]; ok {
		return tb
	}
	tb, err := Build(nil, tg, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	tableCache["2s-plan"] = tb
	return tb
}

// numaModel places a model at remote share rho on the target's declared
// link.
func numaModel(tg *roofline.Target, m *model.Model, rho float64) *model.Model {
	ks := m.KS
	ks.RemoteRatio = rho
	out := model.New(m.C, ks)
	out.Remote = tg.Backend.Link()
	return out
}

// TestRhoLookupSearchEquivalence extends the headline property to NUMA
// placements: for randomized kernels at the shares the topology places
// nests at, the table and live search agree within one grid step on
// >= 99% of the points the table answers.
func TestRhoLookupSearchEquivalence(t *testing.T) {
	tg := rhoTarget(t)
	tb := rhoTable(t)
	// The axis is the topology's: the pinned share and the spanning one.
	if want := []float64{0, 0.5}; !reflect.DeepEqual(tb.rhoAxis, want) {
		t.Fatalf("2-socket rho axis %v, want %v", tb.rhoAxis, want)
	}
	r := rand.New(rand.NewSource(7))
	models := make([]*model.Model, 300)
	for i := range models {
		models[i] = numaModel(tg, randomKernel(r, tg.Constants), tb.rhoAxis[i%len(tb.rhoAxis)])
	}
	checkEquivalence(t, tg, tb, models, 0.3)
}

// TestRhoZeroLookupBitIdentical: a model on the 2-socket link with rho =
// 0 answers identically to the plain model — the topology layer adds
// nothing to pinned lookups.
func TestRhoZeroLookupBitIdentical(t *testing.T) {
	tg := rhoTarget(t)
	tb := rhoTable(t)
	r := rand.New(rand.NewSource(8))
	for i := 0; i < 100; i++ {
		plain := randomKernel(r, tg.Constants)
		fPlain, okPlain := tb.Lookup(plain)
		fNuma, okNuma := tb.Lookup(numaModel(tg, plain, 0))
		if okPlain != okNuma || fPlain != fNuma {
			t.Fatalf("rho=0 NUMA lookup diverged: (%g,%v) vs (%g,%v)", fPlain, okPlain, fNuma, okNuma)
		}
	}
}

// TestRhoLookupFallsBackOn2DTable: a table must refuse a remote share
// its topology does not produce — a single-socket table every rho > 0, a
// 2-socket table everything but 0 and 1/2 — rather than answer while
// ignoring (or guessing along) the remote coordinate.
func TestRhoLookupFallsBackOn2DTable(t *testing.T) {
	tg := rhoTarget(t)
	r := rand.New(rand.NewSource(9))
	for _, tc := range []struct {
		tb   *Table
		c    *platform.Constants
		off  float64
		name string
	}{
		{testTable(t, "bdw"), testTarget(t, "bdw").Constants, 0.5, "single-socket table at rho 0.5"},
		{rhoTable(t), tg.Constants, 0.25, "2-socket table at rho 0.25"},
	} {
		answered := 0
		for i := 0; i < 50; i++ {
			m := randomKernel(r, tc.c)
			if _, ok := tc.tb.Lookup(m); ok {
				answered++
				if _, ok := tc.tb.Lookup(numaModel(tg, m, tc.off)); ok {
					t.Fatalf("%s: answered", tc.name)
				}
			}
		}
		if answered == 0 {
			t.Fatalf("%s: no baseline lookups answered; the fallback check never ran", tc.name)
		}
	}
}
