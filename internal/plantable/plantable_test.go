package plantable

import (
	"errors"
	"reflect"
	"strings"
	"sync"
	"testing"

	"polyufc/internal/platform"
	"polyufc/internal/roofline"
	"polyufc/internal/search"
)

// wideUncorePath is the fractional-grid (0.05 GHz step) backend the
// regression tests sweep.
const wideUncorePath = "../../platforms/wide-uncore.json"

var (
	targetMu    sync.Mutex
	targetCache = map[string]*roofline.Target{}
	tableCache  = map[string]*Table{}
	wideOnce    sync.Once
	wideErr     error
)

// registerWide loads the wide-uncore description into the registry once.
func registerWide(t testing.TB) {
	t.Helper()
	wideOnce.Do(func() {
		_, wideErr = platform.LoadFile(wideUncorePath)
	})
	if wideErr != nil {
		t.Fatalf("load %s: %v", wideUncorePath, wideErr)
	}
}

// testTarget resolves (and caches) a calibrated target by registry name.
func testTarget(t testing.TB, name string) *roofline.Target {
	t.Helper()
	if strings.EqualFold(name, "wide-uncore") {
		registerWide(t)
	}
	targetMu.Lock()
	defer targetMu.Unlock()
	if tg, ok := targetCache[name]; ok {
		return tg
	}
	tg, err := roofline.ResolveName(name)
	if err != nil {
		t.Fatalf("resolve %s: %v", name, err)
	}
	targetCache[name] = tg
	return tg
}

// testTable builds (and caches) the default-options plan table for a
// backend — sweeps are deterministic, so every test may share one.
func testTable(t testing.TB, name string) *Table {
	t.Helper()
	tg := testTarget(t, name)
	targetMu.Lock()
	defer targetMu.Unlock()
	if tb, ok := tableCache[name]; ok {
		return tb
	}
	tb, err := Build(nil, tg, BuildOptions{})
	if err != nil {
		t.Fatalf("build table for %s: %v", name, err)
	}
	tableCache[name] = tb
	return tb
}

// TestTableRoundTrip proves the serialized form is lossless: marshal,
// parse, deep-equal.
func TestTableRoundTrip(t *testing.T) {
	tb := testTable(t, "bdw")
	data, err := tb.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Parse(data)
	if err != nil {
		t.Fatalf("parse own marshal: %v", err)
	}
	if !reflect.DeepEqual(tb, back) {
		t.Fatal("table did not survive a marshal/parse round trip")
	}
}

// TestSaveLoad exercises the atomic file persistence.
func TestSaveLoad(t *testing.T) {
	tb := testTable(t, "bdw")
	path := t.TempDir() + "/bdw.plan.json"
	if err := tb.Save(path); err != nil {
		t.Fatal(err)
	}
	back, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tb, back) {
		t.Fatal("table did not survive a save/load round trip")
	}
}

// TestParseRejectsInvalid drives Parse with structurally broken inputs:
// every one must error (never panic, never a half-loaded table).
func TestParseRejectsInvalid(t *testing.T) {
	valid, err := testTable(t, "bdw").Marshal()
	if err != nil {
		t.Fatal(err)
	}
	mut := func(f func(*Table)) []byte {
		tb, err := Parse(valid)
		if err != nil {
			t.Fatal(err)
		}
		f(tb)
		data, err := tb.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	cases := map[string][]byte{
		"empty":          nil,
		"not json":       []byte("not a table"),
		"truncated":      valid[:len(valid)/2],
		"unknown field":  []byte(`{"schema":1,"surprise":true}`),
		"old schema":     mut(func(tb *Table) { tb.Schema = 0 }),
		"future schema":  mut(func(tb *Table) { tb.Schema = SchemaVersion + 1 }),
		"no backend":     mut(func(tb *Table) { tb.Backend = "" }),
		"no hashes":      mut(func(tb *Table) { tb.BackendHash, tb.CalHash = "", "" }),
		"bad objective":  mut(func(tb *Table) { tb.Objective = "fastest" }),
		"bad epsilon":    mut(func(tb *Table) { tb.Epsilon = 0 }),
		"bad grid":       mut(func(tb *Table) { tb.CapStepGHz = -0.1 }),
		"axis disorder":  mut(func(tb *Table) { tb.OIAxis[0], tb.OIAxis[1] = tb.OIAxis[1], tb.OIAxis[0] }),
		"negative mem":   mut(func(tb *Table) { tb.MemAxis[0] = -1 }),
		"index range":    mut(func(tb *Table) { tb.CB[0][0][0] = tb.GridSize() }),
		"negative index": mut(func(tb *Table) { tb.BB[0][0][0] = -1 }),
		"ragged rows":    mut(func(tb *Table) { tb.CB[0] = tb.CB[0][:1] }),
		"short surface":  mut(func(tb *Table) { tb.BB = tb.BB[:1] }),
	}
	for name, data := range cases {
		if _, err := Parse(data); err == nil {
			t.Errorf("%s: Parse accepted invalid input", name)
		}
	}
}

// TestStaleness pins the invalidation contract: a table answers only for
// the exact backend description and calibration it was swept against,
// and every mismatch surfaces as ErrStale — never silent reuse.
func TestStaleness(t *testing.T) {
	registerWide(t)
	tg := testTarget(t, "wide-uncore")
	tb := testTable(t, "wide-uncore")
	if err := tb.Matches(tg); err != nil {
		t.Fatalf("fresh table reported stale: %v", err)
	}

	t.Run("recalibrated constants", func(t *testing.T) {
		consts := *tg.Constants
		consts.TFpu *= 1.01 // a re-fit moved the compute roof
		stale := &roofline.Target{Backend: tg.Backend, Platform: tg.Platform, Constants: &consts}
		err := tb.Matches(stale)
		if !errors.Is(err, ErrStale) {
			t.Fatalf("got %v, want ErrStale", err)
		}
	})

	t.Run("edited backend JSON", func(t *testing.T) {
		// The operator edits the description file (here: a faster cap
		// driver). The edited backend hashes differently, so the table
		// swept against the old description must be rejected.
		b := *tg.Backend
		b.Sockets = append([]platform.Socket(nil), b.Sockets...)
		b.Sockets[0].CapLatencySec /= 2
		data, err := b.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		edited, err := platform.Parse(data)
		if err != nil {
			t.Fatal(err)
		}
		if edited.Hash() == tg.Backend.Hash() {
			t.Fatal("edit did not change the description hash")
		}
		editedTarget, err := roofline.Resolve(edited)
		if err != nil {
			t.Fatal(err)
		}
		err = tb.Matches(editedTarget)
		if !errors.Is(err, ErrStale) {
			t.Fatalf("got %v, want ErrStale after editing the backend JSON", err)
		}
	})

	t.Run("wrong backend", func(t *testing.T) {
		err := tb.Matches(testTarget(t, "bdw"))
		if !errors.Is(err, ErrStale) {
			t.Fatalf("got %v, want ErrStale for a different backend", err)
		}
	})

	t.Run("set counts staleness", func(t *testing.T) {
		set := NewSet()
		if err := set.Add(tb); err != nil {
			t.Fatal(err)
		}
		consts := *tg.Constants
		consts.MissLatB *= 1.5
		stale := &roofline.Target{Backend: tg.Backend, Platform: tg.Platform, Constants: &consts}
		if got := set.For(stale, search.DefaultOptions(), "", 0); got != nil {
			t.Fatal("Set.For served a stale table")
		}
		if st := set.Stats(); st.Stale != 1 {
			t.Fatalf("Stale counter = %d, want 1", st.Stale)
		}
	})
}

// TestMatchesOptions: a table answers only its own search configuration;
// other objectives/epsilons are a fallback, not staleness.
func TestMatchesOptions(t *testing.T) {
	tb := testTable(t, "bdw")
	other := search.DefaultOptions()
	other.Objective = search.ObjectiveEnergy
	set := NewSet()
	if err := set.Add(tb); err != nil {
		t.Fatal(err)
	}
	if got := set.For(testTarget(t, "bdw"), search.DefaultOptions(), "", 0); got != tb {
		t.Fatal("Set.For rejects the options the table was built with")
	}
	if got := set.For(testTarget(t, "bdw"), other, "", 0); got != nil {
		t.Fatal("Set.For served a table for the wrong objective")
	}
	if st := set.Stats(); st.Stale != 0 {
		t.Fatalf("options mismatch counted as staleness: %+v", st)
	}
}

// TestGridConsistency: the table's regenerated cap grid is exactly the
// platform's — same size, same points, bit-equal floats.
func TestGridConsistency(t *testing.T) {
	for _, name := range []string{"bdw", "rpl", "wide-uncore"} {
		tg := testTarget(t, name)
		tb := testTable(t, name)
		steps := tg.Platform.UncoreSteps()
		if tb.GridSize() != len(steps) {
			t.Fatalf("%s: table grid has %d points, platform has %d", name, tb.GridSize(), len(steps))
		}
		for i, want := range steps {
			if got := tb.GridFreq(i); got != want {
				t.Fatalf("%s: grid point %d: table %v != platform %v", name, i, got, want)
			}
		}
	}
}

// TestFractionalGridRoundTrip is the fractional-step regression: a
// 0.05 GHz backend's table must round-trip every stored cap through JSON
// onto exact grid points — no float-format drift, because the format
// stores grid indices and regenerates frequencies through the anchored
// grid math.
func TestFractionalGridRoundTrip(t *testing.T) {
	tg := testTarget(t, "wide-uncore")
	if tg.Platform.CapStep != 0.05 {
		t.Fatalf("wide-uncore cap step = %v, test needs the fractional 0.05 grid", tg.Platform.CapStep)
	}
	tb := testTable(t, "wide-uncore")
	data, err := tb.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	onGrid := map[float64]bool{}
	for _, f := range tg.Platform.UncoreSteps() {
		onGrid[f] = true
	}
	for _, surface := range [][][][]int{back.CB, back.BB} {
		for _, row := range surface {
			for _, cell := range row {
				for _, idx := range cell {
					if f := back.GridFreq(idx); !onGrid[f] {
						t.Fatalf("deserialized cap %v (index %d) is not an exact grid point", f, idx)
					}
				}
			}
		}
	}
}

// TestSetFingerprint: the fingerprint is stable across insertion order
// and changes when a table changes.
func TestSetFingerprint(t *testing.T) {
	a, b := testTable(t, "bdw"), testTable(t, "rpl")
	s1, s2 := NewSet(), NewSet()
	if err := s1.Add(a); err != nil {
		t.Fatal(err)
	}
	if err := s1.Add(b); err != nil {
		t.Fatal(err)
	}
	if err := s2.Add(b); err != nil {
		t.Fatal(err)
	}
	if err := s2.Add(a); err != nil {
		t.Fatal(err)
	}
	if s1.Fingerprint() != s2.Fingerprint() {
		t.Fatal("fingerprint depends on insertion order")
	}
	mod, err := Parse(mustMarshal(t, a))
	if err != nil {
		t.Fatal(err)
	}
	mod.CalHash = "0123456789abcdef"
	s3 := NewSet()
	if err := s3.Add(mod); err != nil {
		t.Fatal(err)
	}
	if err := s3.Add(b); err != nil {
		t.Fatal(err)
	}
	if s3.Fingerprint() == s1.Fingerprint() {
		t.Fatal("fingerprint ignores table content")
	}
}

func mustMarshal(t *testing.T, tb *Table) []byte {
	t.Helper()
	data, err := tb.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestTilingAxis proves the strategy dimension of the table key: a
// pre-axis table (no tiling field) answers as pluto — for both "" and
// the explicit name — while a table built for another strategy is
// served only to requests naming that strategy.
func TestTilingAxis(t *testing.T) {
	tb := testTable(t, "bdw")
	if tb.TilingName() != "pluto" {
		t.Fatalf("default-build TilingName() = %q", tb.TilingName())
	}
	// A pre-axis artifact has no tiling field at all; it must parse and
	// answer as pluto.
	legacy := *tb
	legacy.Tiling = ""
	data, err := legacy.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), `"tiling"`) {
		t.Fatal("empty tiling serialized a field; pre-axis readers would reject it")
	}
	old, err := Parse(data)
	if err != nil {
		t.Fatalf("pre-axis table rejected: %v", err)
	}
	if old.TilingName() != "pluto" {
		t.Fatalf("pre-axis TilingName() = %q", old.TilingName())
	}

	tg := testTarget(t, "bdw")
	set := NewSet()
	if err := set.Add(old); err != nil {
		t.Fatal(err)
	}
	opts := search.DefaultOptions()
	if set.For(tg, opts, "", 0) == nil || set.For(tg, opts, "pluto", 0) == nil {
		t.Fatal("pre-axis table must answer for both \"\" and \"pluto\"")
	}
	for _, other := range []string{"cacheoblivious", "latency", "auto", "pluto:size=64"} {
		if set.For(tg, opts, other, 0) != nil {
			t.Fatalf("pluto table served a %s request", other)
		}
	}

	// A table stamped for another strategy is keyed apart from pluto's.
	co := *old
	co.Tiling = "cacheoblivious"
	if err := set.Add(&co); err != nil {
		t.Fatal(err)
	}
	if set.Len() != 2 {
		t.Fatalf("set holds %d tables; want 2 (pluto + cacheoblivious)", set.Len())
	}
	if got := set.For(tg, opts, "cacheoblivious", 0); got == nil || got.TilingName() != "cacheoblivious" {
		t.Fatalf("cacheoblivious lookup got %v", got)
	}
	if got := set.For(tg, opts, "", 0); got == nil || got.TilingName() != "pluto" {
		t.Fatal("adding a cacheoblivious table displaced the pluto one")
	}

	// A non-canonical fingerprint is rejected at validation.
	bad := *old
	bad.Tiling = "latency:probe=4" // canonical form is bare "latency"
	if err := set.Add(&bad); err == nil {
		t.Fatal("non-canonical tiling fingerprint accepted")
	}
}
