package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"polyufc/internal/core"
)

// The staged-pipeline acceptance scenario: a characterize request
// followed by a search request on the same kernel/config must not redo
// the analysis prefix — statsz shows stage-cache hits for preprocess,
// tile and cachemodel, and the search answer still carries full cap
// selections.
func TestCharacterizeThenSearchReusesPrefixStages(t *testing.T) {
	s := newServer(t, testConfig())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	req := Request{Kernel: "2mm", Size: "test"}
	resp, data := post(t, ts, "/v1/characterize", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("characterize: %d %s", resp.StatusCode, data)
	}
	var ch CharacterizeResponse
	if err := json.Unmarshal(data, &ch); err != nil {
		t.Fatal(err)
	}
	if len(ch.Nests) == 0 {
		t.Fatalf("characterize returned no nests: %s", data)
	}
	withOI := 0
	for _, n := range ch.Nests {
		if n.Class == "" {
			t.Fatalf("characterize nest not classified: %+v", n)
		}
		if n.OI > 0 {
			withOI++ // fill-style nests legitimately have OI 0
		}
		if n.CapGHz != 0 {
			t.Fatalf("characterize nest carries a cap — the prefix must stop before search: %+v", n)
		}
	}
	if withOI == 0 {
		t.Fatal("no characterize nest carries an operational intensity")
	}

	resp, data = post(t, ts, "/v1/search", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("search: %d %s", resp.StatusCode, data)
	}
	var sr SearchResponse
	if err := json.Unmarshal(data, &sr); err != nil {
		t.Fatal(err)
	}
	if len(sr.Nests) != len(ch.Nests) {
		t.Fatalf("search nests = %d, characterize nests = %d", len(sr.Nests), len(ch.Nests))
	}
	for _, n := range sr.Nests {
		if n.CapGHz <= 0 {
			t.Fatalf("search nest not capped: %+v", n)
		}
	}

	st := s.statsz()
	for _, stage := range []string{core.StagePreprocess, core.StageTile, core.StageCacheModel, core.StageCharacterize} {
		agg, ok := st.Stages[stage]
		if !ok {
			t.Fatalf("statsz has no aggregate for stage %q: %+v", stage, st.Stages)
		}
		if agg.CacheHits < 1 {
			t.Fatalf("stage %q recorded %d cache hits, want >= 1 (search must reuse the characterize prefix)", stage, agg.CacheHits)
		}
		if agg.Runs < 2 {
			t.Fatalf("stage %q recorded %d runs, want >= 2", stage, agg.Runs)
		}
	}
	// The search/model-fit tail ran cold — it was never characterized.
	if agg := st.Stages[core.StageSearch]; agg.Runs != 1 || agg.CacheHits != 0 {
		t.Fatalf("search stage aggregate = %+v, want one cold run", agg)
	}
	if st.StageCache.Hits < 4 {
		t.Fatalf("stage cache hits = %d, want >= 4", st.StageCache.Hits)
	}
	if st.StageCache.Len == 0 {
		t.Fatal("stage cache is empty")
	}

	// A repeated search is an answer-memo hit and adds no stage runs.
	before := s.statsz().Stages[core.StageSearch].Runs
	if resp, data := post(t, ts, "/v1/search", req); resp.StatusCode != http.StatusOK {
		t.Fatalf("second search: %d %s", resp.StatusCode, data)
	}
	if after := s.statsz().Stages[core.StageSearch].Runs; after != before {
		t.Fatalf("answer-memo hit still ran the pipeline: runs %d -> %d", before, after)
	}
}

// BenchmarkServeStageReuse is the in-process shape of the repo benchmark's
// stage-reuse workload, through the real Server.Handler: a few kernels at
// the default (bench) size on a 1- and a 2-socket backend are primed with
// /v1/characterize, then every op is a /v1/compile or /v1/search with an
// objective and epsilon no earlier op used, so it misses the answer
// memo and runs search onward over the cached analysis prefix. Unlike
// core's BenchmarkCompileStageReuse, which hands the compile one prebuilt
// module, an op here also pays request decoding, Kernel.Build, the stage
// base key and response encoding, so a request path that rebuilds or
// re-hashes its kernel shows here.
func BenchmarkServeStageReuse(b *testing.B) {
	cfg := DefaultConfig()
	cfg.PlatformFiles = []string{filepath.Join("..", "..", "platforms", "2-socket-bdw.json")}
	s, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()
	serve := func(path, body string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("%s %s: %d %s", path, body, rec.Code, rec.Body.Bytes())
		}
	}
	type pair struct{ kernel, platform string }
	var pairs []pair
	for _, kernel := range []string{"gemm", "2mm", "atax", "jacobi-2d"} {
		for _, platform := range []string{"bdw", "2s-bdw"} {
			pairs = append(pairs, pair{kernel, platform})
			serve("/v1/characterize", fmt.Sprintf(`{"kernel":%q,"platform":%q}`, kernel, platform))
		}
	}
	objectives := []string{"edp", "energy", "performance"}
	endpoints := []string{"/v1/compile", "/v1/search"}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		p := pairs[n%len(pairs)]
		serve(endpoints[n/len(pairs)%len(endpoints)], fmt.Sprintf(`{"kernel":%q,"platform":%q,"objective":%q,"epsilon":%g}`,
			p.kernel, p.platform, objectives[n%len(objectives)], 0.001+float64(n)*1e-9))
	}
}
