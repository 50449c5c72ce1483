package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"polyufc/internal/plantable"
	"polyufc/internal/roofline"
)

// buildPlanTable sweeps and persists a default-options table for a
// registry backend, returning the file path and the table.
func buildPlanTable(t *testing.T, name, dir string) (string, *plantable.Table) {
	t.Helper()
	tg, err := roofline.ResolveName(name)
	if err != nil {
		t.Fatal(err)
	}
	tb, err := plantable.Build(nil, tg, plantable.BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name+".plan.json")
	if err := tb.Save(path); err != nil {
		t.Fatal(err)
	}
	return path, tb
}

// TestServerServesFromPlanTable boots the daemon with a precomputed
// table and proves the serve path uses it: requests for the table's
// backend count as hits in /statsz, and the answers stay on the cap
// grid.
func TestServerServesFromPlanTable(t *testing.T) {
	path, _ := buildPlanTable(t, "bdw", t.TempDir())
	cfg := testConfig()
	cfg.PlanTables = []string{path}
	s := newServer(t, cfg)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, data := post(t, ts, "/v1/search", Request{Kernel: "gemm", Platform: "bdw", Size: "test"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("search: %d: %s", resp.StatusCode, data)
	}

	st := s.statsz()
	if st.PlanTables.Loaded != 1 {
		t.Fatalf("statsz reports %d tables loaded, want 1", st.PlanTables.Loaded)
	}
	if st.PlanTables.Hits == 0 {
		t.Fatalf("no plan-table hits after a search for the table's backend: %+v", st.PlanTables)
	}
	if st.PlanTables.Stale != 0 {
		t.Fatalf("staleness counted against a fresh table: %+v", st.PlanTables)
	}

	// The /statsz HTTP payload carries the same counters.
	r, err := ts.Client().Get(ts.URL + "/statsz")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	var out Statsz
	if err := json.NewDecoder(r.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.PlanTables.Loaded != 1 || out.PlanTables.Hits == 0 {
		t.Fatalf("/statsz payload lost the plan counters: %+v", out.PlanTables)
	}
}

// TestRuntimeInstalledPlanTableIsNotMaskedByCompileCache: a table the
// plantable job installs at runtime must answer requests the daemon has
// already served. The whole-result cache keys on the plan-table set
// (core.KeyOf), so the repeated request misses it and the plan-lookup
// stage runs — instead of the cache replaying the live-search Result
// under a journal key that says it was table-served.
func TestRuntimeInstalledPlanTableIsNotMaskedByCompileCache(t *testing.T) {
	_, tb := buildPlanTable(t, "bdw", t.TempDir())
	s := newServer(t, testConfig())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := Request{Kernel: "gemm", Platform: "bdw", Size: "test"}
	if resp, data := post(t, ts, "/v1/search", req); resp.StatusCode != http.StatusOK {
		t.Fatalf("search before the table: %d: %s", resp.StatusCode, data)
	}
	if err := s.installPlanTable(tb); err != nil {
		t.Fatal(err)
	}
	if resp, data := post(t, ts, "/v1/search", req); resp.StatusCode != http.StatusOK {
		t.Fatalf("search after the table: %d: %s", resp.StatusCode, data)
	}
	st := s.statsz()
	if st.PlanTables.Hits == 0 {
		t.Fatalf("the installed table answered nothing: %+v", st.PlanTables)
	}
	if st.CompileCache.Hits != 0 || st.CompileCache.Misses != 2 {
		t.Fatalf("compile cache %+v, want 0 hits / 2 misses: the table changes the key", st.CompileCache)
	}
}

// TestServerCountsFallbacks: a table for one backend does not answer
// another backend's requests — those fall back to live search and the
// counter says so.
func TestServerCountsFallbacks(t *testing.T) {
	path, _ := buildPlanTable(t, "bdw", t.TempDir())
	cfg := testConfig()
	cfg.PlanTables = []string{path}
	s := newServer(t, cfg)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, data := post(t, ts, "/v1/search", Request{Kernel: "gemm", Platform: "rpl", Size: "test"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("search: %d: %s", resp.StatusCode, data)
	}
	if st := s.statsz(); st.PlanTables.Fallbacks == 0 {
		t.Fatalf("rpl request against a bdw-only table counted no fallbacks: %+v", st.PlanTables)
	}
}

// TestServerRejectsStaleTableAtBoot is the staleness acceptance test:
// a table whose calibration hash no longer matches the daemon's own
// boot-time calibration must fail boot loudly — never silent reuse.
func TestServerRejectsStaleTableAtBoot(t *testing.T) {
	dir := t.TempDir()
	path, tb := buildPlanTable(t, "bdw", dir)

	stale, err := plantable.Parse(mustMarshalTable(t, tb))
	if err != nil {
		t.Fatal(err)
	}
	stale.CalHash = "feedfacefeedface" // a recalibration happened since the sweep
	stalePath := filepath.Join(dir, "stale.plan.json")
	if err := stale.Save(stalePath); err != nil {
		t.Fatal(err)
	}

	cfg := testConfig()
	cfg.PlanTables = []string{stalePath}
	if _, err := New(cfg); err == nil {
		t.Fatal("server booted with a stale plan table")
	} else if !strings.Contains(err.Error(), "stale") {
		t.Fatalf("boot error does not name staleness: %v", err)
	}

	// The untouched table still boots.
	cfg.PlanTables = []string{path}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
}

// TestServerRejectsUnservedBackendTable: a table for a backend the
// daemon does not serve is a config error at boot.
func TestServerRejectsUnservedBackendTable(t *testing.T) {
	path, tb := buildPlanTable(t, "bdw", t.TempDir())
	foreign, err := plantable.Parse(mustMarshalTable(t, tb))
	if err != nil {
		t.Fatal(err)
	}
	foreign.Backend = "EPYC"
	if err := foreign.Save(path); err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.PlanTables = []string{path}
	if _, err := New(cfg); err == nil {
		t.Fatal("server booted with a table for an unserved backend")
	} else if !strings.Contains(err.Error(), "does not serve") {
		t.Fatalf("boot error does not name the unserved backend: %v", err)
	}
}

func mustMarshalTable(t *testing.T, tb *plantable.Table) []byte {
	t.Helper()
	data, err := tb.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return data
}
