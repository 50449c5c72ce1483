package plantable

import (
	"bytes"
	"encoding/json"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"polyufc/internal/model"
	"polyufc/internal/platform"
	"polyufc/internal/roofline"
	"polyufc/internal/search"
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
		Schema: platform.SchemaVersion, Name: "2S-PLAN-TEST",
		CPU: "test 2S", Released: 2026,
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

// rhoTable builds (and caches) a small table for the 2-socket target;
// the topology gives it its second rho plane.
func rhoTable(t testing.TB) *Table {
	t.Helper()
	tg := rhoTarget(t)
	targetMu.Lock()
	defer targetMu.Unlock()
	if tb, ok := tableCache["2s-plan"]; ok {
		return tb
	}
	tb, err := Build(nil, tg, BuildOptions{OIPoints: 9, MemPoints: 7})
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

func TestRhoTableRoundTripAndZeroPlane(t *testing.T) {
	tb := rhoTable(t)
	// The axis is the topology's: the pinned share and the spanning one.
	if want := []float64{0, 0.5}; !reflect.DeepEqual(tb.RhoAxis, want) {
		t.Fatalf("2-socket rho axis %v, want %v", tb.RhoAxis, want)
	}
	data, err := tb.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	// On the wire the flat cb/bb repeat the rho = 0 plane of cb_rho/bb_rho.
	var w wireTable
	if err := json.Unmarshal(data, &w); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(w.CB, rhoPlane(w.CBR)) || !reflect.DeepEqual(w.BB, rhoPlane(w.BBR)) {
		t.Fatal("flat cb/bb are not the rho = 0 plane of cb_rho/bb_rho")
	}
	back, err := Parse(data)
	if err != nil {
		t.Fatalf("parse own marshal: %v", err)
	}
	if !reflect.DeepEqual(tb, back) {
		t.Fatal("rho table did not survive a marshal/parse round trip")
	}
	// A document whose two spellings of that plane disagree is refused
	// for that reason.
	if _, err := Parse(contradictingDoc(t, testTable(t, "bdw"))); err == nil || !strings.Contains(err.Error(), "contradict") {
		t.Fatalf("cb contradicting cb_rho[..][..][0]: %v", err)
	}
	// Single-socket tables keep the pre-topology wire format: none of
	// the new keys appear.
	flat, err := testTable(t, "bdw").Marshal()
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"socket", "rho_axis", "cb_rho", "bb_rho"} {
		if bytes.Contains(flat, []byte(`"`+key+`"`)) {
			t.Fatalf("single-socket table marshal contains %q", key)
		}
	}
}

// TestRhoLookupSearchEquivalence extends the headline property to NUMA
// placements: for randomized kernels at the shares the topology places
// nests at, the table and live search agree within one grid step on
// >= 99% of the points the table answers.
func TestRhoLookupSearchEquivalence(t *testing.T) {
	tg := rhoTarget(t)
	tb := rhoTable(t)
	r := rand.New(rand.NewSource(7))
	models := make([]*model.Model, 300)
	for i := range models {
		models[i] = numaModel(tg, randomKernel(r, tg.Constants), tb.RhoAxis[i%len(tb.RhoAxis)])
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

// TestSocketTablesAreDistinctDomains: per-socket tables register and
// resolve under their own key; a socket out of the target's range is
// stale.
func TestSocketTablesAreDistinctDomains(t *testing.T) {
	tg := rhoTarget(t)
	tb0 := rhoTable(t)
	tb1, err := Build(nil, tg, BuildOptions{OIPoints: 9, MemPoints: 7, Socket: 1})
	if err != nil {
		t.Fatal(err)
	}
	if tb1.Socket != 1 {
		t.Fatalf("socket-1 table stamped socket %d", tb1.Socket)
	}
	// Homogeneous sockets share the calibration, so both tables pin the
	// same constants hash — but they are distinct serving domains.
	if tb1.CalHash != tb0.CalHash {
		t.Fatal("homogeneous socket domains pinned different calibrations")
	}
	set := NewSet()
	if err := set.Add(tb0); err != nil {
		t.Fatal(err)
	}
	if err := set.Add(tb1); err != nil {
		t.Fatal(err)
	}
	if set.Len() != 2 {
		t.Fatalf("socket tables collided: %d loaded", set.Len())
	}
	opts := search.DefaultOptions()
	if got := set.For(tg, opts, "", 0); got != tb0 {
		t.Fatal("socket 0 resolved the wrong table")
	}
	if got := set.For(tg, opts, "", 1); got != tb1 {
		t.Fatal("socket 1 resolved the wrong table")
	}
	if got := set.For(tg, opts, "", 2); got != nil {
		t.Fatal("unswept socket 2 resolved a table")
	}
	// A socket table against a shrunken topology is stale, not misread.
	stale := *tb1
	stale.Socket = 5
	if err := stale.Matches(tg); !errors.Is(err, ErrStale) {
		t.Fatalf("out-of-range socket table: %v, want ErrStale", err)
	}
}
