package plantable

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
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

// rhoTable builds (and caches) a small rho-extended table for the
// 2-socket target.
func rhoTable(t testing.TB) *Table {
	t.Helper()
	tg := rhoTarget(t)
	targetMu.Lock()
	defer targetMu.Unlock()
	if tb, ok := tableCache["2s-plan"]; ok {
		return tb
	}
	tb, err := Build(nil, tg, BuildOptions{
		OIPoints: 9, MemPoints: 7,
		Rhos: []float64{0.25, 0.5, 0.75, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	tableCache["2s-plan"] = tb
	return tb
}

// numaModel arms the inter-socket term on a model against the target's
// declared link.
func numaModel(tg *roofline.Target, m *model.Model, rho float64) *model.Model {
	sec, jpb := tg.RemotePenalty()
	ks := m.KS
	ks.RemoteRatio = rho
	return model.NewNUMA(m.C, ks, &model.RemoteCost{SecPerByte: sec, JoulesPerByte: jpb})
}

func TestRhoTableRoundTripAndZeroPlane(t *testing.T) {
	tb := rhoTable(t)
	if len(tb.RhoAxis) < 2 || tb.RhoAxis[0] != 0 {
		t.Fatalf("rho axis %v must start at the 0 anchor", tb.RhoAxis)
	}
	// The rho = 0 plane coincides with the 2D surfaces: the remote term
	// vanishes there, so the sweeps share their cells.
	for i := range tb.OIAxis {
		for j := range tb.MemAxis {
			if tb.CBR[i][j][0] != tb.CB[i][j] || tb.BBR[i][j][0] != tb.BB[i][j] {
				t.Fatalf("rho=0 plane diverges from the 2D surface at cell (%d,%d)", i, j)
			}
		}
	}
	data, err := tb.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Parse(data)
	if err != nil {
		t.Fatalf("parse own marshal: %v", err)
	}
	if !reflect.DeepEqual(tb, back) {
		t.Fatal("rho table did not survive a marshal/parse round trip")
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
// placements: for randomized kernels with randomized remote shares, the
// rho-extended table and live search agree within one grid step on
// >= 99% of the points the table answers.
func TestRhoLookupSearchEquivalence(t *testing.T) {
	tg := rhoTarget(t)
	tb := rhoTable(t)
	r := rand.New(rand.NewSource(7))
	models := make([]*model.Model, 300)
	for i := range models {
		models[i] = numaModel(tg, randomKernel(r, tg.Constants), r.Float64())
	}
	checkEquivalence(t, tg, tb, models, 0.3)
}

// TestRhoZeroLookupBitIdentical: a NUMA model with rho = 0 answers from
// the 2D path, identically to the plain model — the topology layer adds
// nothing to single-socket lookups.
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

// TestRhoLookupFallsBackOn2DTable: a pre-topology table must refuse NUMA
// models rather than answer while ignoring the remote coordinate.
func TestRhoLookupFallsBackOn2DTable(t *testing.T) {
	tg := rhoTarget(t)
	flat := testTable(t, "bdw")
	r := rand.New(rand.NewSource(9))
	answered := 0
	for i := 0; i < 50; i++ {
		m := randomKernel(r, testTarget(t, "bdw").Constants)
		if _, ok := flat.Lookup(m); ok {
			answered++
			if _, ok := flat.Lookup(numaModel(tg, m, 0.5)); ok {
				t.Fatal("2D table answered a rho > 0 lookup")
			}
		}
	}
	if answered == 0 {
		t.Fatal("no baseline lookups answered; the fallback check never ran")
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
	if got := set.ForSocket(tg, opts, "", 0); got != tb0 {
		t.Fatal("socket 0 resolved the wrong table")
	}
	if got := set.ForSocket(tg, opts, "", 1); got != tb1 {
		t.Fatal("socket 1 resolved the wrong table")
	}
	if got := set.ForSocket(tg, opts, "", 2); got != nil {
		t.Fatal("unswept socket 2 resolved a table")
	}
	// A socket table against a shrunken topology is stale, not misread.
	stale := *tb1
	stale.Socket = 5
	if err := stale.Matches(tg); !errors.Is(err, ErrStale) {
		t.Fatalf("out-of-range socket table: %v, want ErrStale", err)
	}
}
