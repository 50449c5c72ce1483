package plantable

import (
	"strings"
	"sync"
	"testing"

	"polyufc/internal/platform"
	"polyufc/internal/roofline"
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

// testTable builds (and caches) the plan table for a backend — sweeps
// are deterministic, so every test may share one.
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

// TestGridConsistency: the table's cap grid is exactly the platform's —
// same size, same points, bit-equal floats, on the 0.05 GHz wide-uncore
// grid too — and every stored index addresses one of those points.
func TestGridConsistency(t *testing.T) {
	for _, name := range []string{"bdw", "rpl", "wide-uncore"} {
		tg := testTarget(t, name)
		tb := testTable(t, name)
		steps := tg.Platform.UncoreSteps()
		if len(tb.grid) != len(steps) {
			t.Fatalf("%s: table grid has %d points, platform has %d", name, len(tb.grid), len(steps))
		}
		for i, want := range steps {
			if got := tb.gridFreq(i); got != want {
				t.Fatalf("%s: grid point %d: table %v != platform %v", name, i, got, want)
			}
		}
		for _, surface := range [][][][]int{tb.cb, tb.bb} {
			for _, row := range surface {
				for _, cell := range row {
					for _, idx := range cell {
						if idx < 0 || idx >= len(steps) {
							t.Fatalf("%s: stored index %d is off the %d-point grid", name, idx, len(steps))
						}
					}
				}
			}
		}
	}
}
