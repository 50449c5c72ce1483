package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"polyufc/internal/core"
	"polyufc/internal/faults"
	"polyufc/internal/hw"
)

// compiles counts the compilations a daemon ran: every compile runs (or
// hits in the stage cache) the first stage, preprocess. A response the
// ladder answers compiles nothing.
func compiles(st Statsz) int64 { return st.Stages[core.StagePreprocess].Runs }

// stageRuns counts every stage event, cache hits included.
func stageRuns(st Statsz) (n int64) {
	for _, agg := range st.Stages {
		n += agg.Runs
	}
	return n
}

// serveRec serves one request through h in-process and returns its status
// and body; safe to call from several goroutines.
func serveRec(h http.Handler, path string, req Request) (int, []byte) {
	body, _ := json.Marshal(req)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return rec.Code, rec.Body.Bytes()
}

// encoderBytes is what the daemon wrote before it kept an answer memo:
// json.Encoder with SetIndent("", "  ").
func encoderBytes(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// twoSocketConfig serves the built-in backends plus the 2-socket BDW.
func twoSocketConfig() Config {
	cfg := testConfig()
	cfg.PlatformFiles = []string{filepath.Join("..", "..", "platforms", "2-socket-bdw.json")}
	return cfg
}

// A memory-rung hit runs no stage and writes the bytes a fresh compute
// encoded through json.Encoder writes, on every deterministic endpoint and
// on a 1- and a 2-socket backend.
func TestMemoryRungHitRunsNoStageAndMatchesFreshCompute(t *testing.T) {
	s := newServer(t, twoSocketConfig())
	ref := newServer(t, twoSocketConfig())
	h := s.Handler()
	ctx := context.Background()
	for _, platform := range []string{"bdw", "2s-bdw"} {
		for _, path := range []string{"/v1/compile", "/v1/search", "/v1/characterize"} {
			t.Run(platform+path, func(t *testing.T) {
				req := Request{Kernel: "2mm", Platform: platform, Size: "test"}
				r, err := ref.resolve(req)
				if err != nil {
					t.Fatal(err)
				}
				var fresh any
				switch path {
				case "/v1/compile":
					fresh, err = ref.compileResponse(ctx, r)
				case "/v1/search":
					fresh, _, err = ref.searchResponse(ctx, r)
				case "/v1/characterize":
					fresh, err = ref.characterizeResponse(ctx, r)
				}
				if err != nil {
					t.Fatal(err)
				}
				want := encoderBytes(t, fresh)

				code, first := serveRec(h, path, req)
				if code != http.StatusOK || !bytes.Equal(first, want) {
					t.Fatalf("computed answer: %d\n  got:  %s\n  want: %s", code, first, want)
				}
				before := s.statsz()
				code, hit := serveRec(h, path, req)
				if code != http.StatusOK || !bytes.Equal(hit, want) {
					t.Fatalf("memory-rung hit: %d\n  got:  %s\n  want: %s", code, hit, want)
				}
				after := s.statsz()
				if stageRuns(after) != stageRuns(before) {
					t.Fatalf("memory-rung hit ran %d stages", stageRuns(after)-stageRuns(before))
				}
				if after.CompileCache.Hits != before.CompileCache.Hits+1 || after.CompileCache.Misses != before.CompileCache.Misses {
					t.Fatalf("answer memo %+v -> %+v, want one hit", before.CompileCache, after.CompileCache)
				}
			})
		}
	}
}

// calibration_degraded is live state: a warm answer served while the
// backend is in a drift episode on a best-effort daemon carries it, and
// the next warm answer after the episode ends does not — both from the
// memory rung.
func TestMemoryRungHitAppliesLiveDegradation(t *testing.T) {
	cfg := testConfig()
	cfg.Degrade = core.BestEffort
	s := newServer(t, cfg)
	h := s.Handler()
	for _, path := range []string{"/v1/compile", "/v1/search", "/v1/characterize"} {
		t.Run(path, func(t *testing.T) {
			req := Request{Kernel: "gemm", Platform: "bdw", Size: "test"}
			code, healthy := serveRec(h, path, req)
			if code != http.StatusOK || bytes.Contains(healthy, []byte("calibration_degraded")) {
				t.Fatalf("healthy answer: %d %s", code, healthy)
			}
			if !s.drift.BeginRefit("BDW") {
				t.Fatal("a re-fit is already in flight")
			}
			before := s.statsz()
			code, flagged := serveRec(h, path, req)
			if code != http.StatusOK {
				t.Fatalf("degraded answer: %d %s", code, flagged)
			}
			var live struct {
				CalibrationDegraded bool `json:"calibration_degraded"`
			}
			mustUnmarshal(t, flagged, &live)
			if !live.CalibrationDegraded {
				t.Fatalf("warm answer during a drift episode not flagged: %s", flagged)
			}
			if want := strings.Replace(string(healthy), "\n}\n", ",\n  \"calibration_degraded\": true\n}\n", 1); string(flagged) != want {
				t.Fatalf("flagged answer differs from the healthy one beyond the flag:\n%s", flagged)
			}
			s.drift.CompleteRefit("BDW", true)
			code, recovered := serveRec(h, path, req)
			if code != http.StatusOK || !bytes.Equal(recovered, healthy) {
				t.Fatalf("answer after recovery: %d %s", code, recovered)
			}
			if after := s.statsz(); stageRuns(after) != stageRuns(before) || after.CompileCache.Hits != before.CompileCache.Hits+2 {
				t.Fatalf("warm answers were not memory-rung hits: %+v -> %+v", before.CompileCache, after.CompileCache)
			}
		})
	}
}

// A measured /v1/search whose model half is a memory-rung hit still runs
// the program on the machine: the measured half is never memoized.
func TestMeasuredSearchOnWarmAnswerMeasures(t *testing.T) {
	s := newServer(t, testConfig())
	h := s.Handler()
	req := Request{Kernel: "gemm", Platform: "bdw", Size: "test"}
	code, model := serveRec(h, "/v1/search", req)
	if code != http.StatusOK {
		t.Fatalf("model search: %d %s", code, model)
	}
	var want SearchResponse
	mustUnmarshal(t, model, &want)
	req.Measure = true
	for i := 0; i < 2; i++ {
		before := s.statsz()
		code, data := serveRec(h, "/v1/search", req)
		if code != http.StatusOK {
			t.Fatalf("measured search %d: %d %s", i, code, data)
		}
		var got SearchResponse
		mustUnmarshal(t, data, &got)
		if got.Measured == nil || got.DegradedTo != "" {
			t.Fatalf("measured search %d on a warm answer did not measure: %s", i, data)
		}
		got.Measured = nil
		if !bytes.Equal(encoderBytes(t, got), encoderBytes(t, want)) {
			t.Fatalf("measured search %d: model half differs from the warm answer:\n%s", i, data)
		}
		after := s.statsz()
		if after.CompileCache.Hits != before.CompileCache.Hits+1 {
			t.Fatalf("measured search %d: model half was not a memory-rung hit: %+v -> %+v", i, before.CompileCache, after.CompileCache)
		}
		// Every baseline measurement feeds the drift watchdog one sample.
		if after.Drift["BDW"].Samples != before.Drift["BDW"].Samples+1 {
			t.Fatalf("measured search %d fed the watchdog %d samples, want 1", i, after.Drift["BDW"].Samples-before.Drift["BDW"].Samples)
		}
	}
}

// Concurrent identical cold requests run the pipeline once: the memory
// rung's singleflight holds the others until the one compute lands.
func TestConcurrentIdenticalColdRequestsComputeOnce(t *testing.T) {
	const n = 8
	cfg := testConfig()
	cfg.Concurrency = n
	s := newServer(t, cfg)
	var admitted sync.WaitGroup
	admitted.Add(n)
	s.testHook = func() { admitted.Done(); admitted.Wait() }
	h := s.Handler()
	req := Request{Kernel: "atax", Platform: "bdw", Size: "test"}
	bodies := make([][]byte, n)
	codes := make([]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			codes[i], bodies[i] = serveRec(h, "/v1/compile", req)
		}(i)
	}
	wg.Wait()
	for i := range bodies {
		if codes[i] != http.StatusOK || !bytes.Equal(bodies[i], bodies[0]) {
			t.Fatalf("request %d: %d %s", i, codes[i], bodies[i])
		}
	}
	st := s.statsz()
	if c := compiles(st); c != 1 {
		t.Fatalf("%d concurrent identical requests compiled %d times, want 1", n, c)
	}
	if st.CompileCache.Misses != 1 || st.CompileCache.Hits != n-1 {
		t.Fatalf("answer memo %+v, want 1 miss and %d hits", st.CompileCache, n-1)
	}
}

// Armed ufs.* faults make compute outcomes call-ordered, so no rung —
// the memory rung included — serves or stores an answer.
func TestArmedFaultsBypassMemoryRung(t *testing.T) {
	reg := faults.New(1)
	reg.Enable(hw.FaultCapWriteBusy, faults.Spec{P: 0})
	cfg := testConfig()
	cfg.Faults = reg
	cfg.JournalPath = filepath.Join(t.TempDir(), "serve.jsonl")
	s := newServer(t, cfg)
	h := s.Handler()
	req := Request{Kernel: "gemm", Platform: "bdw", Size: "test"}
	var first []byte
	for i := 0; i < 2; i++ {
		code, data := serveRec(h, "/v1/compile", req)
		if code != http.StatusOK || (first != nil && !bytes.Equal(data, first)) {
			t.Fatalf("request %d: %d %s", i, code, data)
		}
		first = data
	}
	st := s.statsz()
	if c := compiles(st); c != 2 {
		t.Fatalf("fault-armed daemon compiled %d times for 2 requests, want 2", c)
	}
	if st.CompileCache.Hits+st.CompileCache.Misses != 0 || st.CompileCache.Len != 0 || st.Journal.Appended != 0 {
		t.Fatalf("fault-armed daemon used the ladder: memo %+v journal %+v", st.CompileCache, st.Journal)
	}
}

// fuzzGen derives a JSON-marshalable value from fuzz bytes, consuming
// them left to right (zeros once they run out).
type fuzzGen struct{ data []byte }

func (g *fuzzGen) next() byte {
	if len(g.data) == 0 {
		return 0
	}
	b := g.data[0]
	g.data = g.data[1:]
	return b
}

func (g *fuzzGen) float() float64 {
	var raw [8]byte
	for i := range raw {
		raw[i] = g.next()
	}
	f := math.Float64frombits(binary.LittleEndian.Uint64(raw[:]))
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return float64(raw[0]) / 8
	}
	return f
}

// fuzzSpecials are the strings json.Marshal escapes or rewrites.
var fuzzSpecials = []string{"<", ">", "&", "\u2028", "\u2029", `"`, `\`, "\xff", "\xe2\x80", "é", "\n\t", "\x00", "{}", "[],:"}

func (g *fuzzGen) str() string {
	var sb strings.Builder
	for n := g.next() % 12; n > 0; n-- {
		if c := g.next(); c >= 0xf0 {
			sb.WriteString(fuzzSpecials[int(c-0xf0)%len(fuzzSpecials)])
		} else {
			sb.WriteByte(c)
		}
	}
	return sb.String()
}

func (g *fuzzGen) value(depth int) any {
	k := g.next() % 10
	if depth > 5 {
		k %= 4
	}
	switch k {
	case 0:
		return nil
	case 1:
		return g.next()%2 == 1
	case 2:
		return g.float()
	case 3:
		return g.str()
	case 4:
		m := map[string]any{}
		for n := g.next() % 5; n > 0; n-- {
			m[g.str()] = g.value(depth + 1)
		}
		return m
	case 5:
		var a []any
		for n := g.next() % 5; n > 0; n-- {
			a = append(a, g.value(depth+1))
		}
		return a
	case 6:
		return []any{map[string]any{}, []any{}, map[string]any{"": []any{}}}
	case 7:
		return int64(binary.LittleEndian.Uint32([]byte{g.next(), g.next(), g.next(), g.next()})) - 1<<31
	default:
		// A response with nested topology, the shape the daemon serves.
		return CompileResponse{
			Kernel: g.str(),
			Nests: []NestResponse{{
				Label: g.str(), OI: g.float(), CapGHz: g.float(), Socket: -1,
				RemoteRatio: g.float(), SocketCaps: []float64{g.float(), g.float()},
			}},
			Topology: &TopologyResponse{
				Sockets: 2, Nodes: 1, SocketSeconds: []float64{g.float(), g.float()},
				SocketJoules: []float64{}, NodeSeconds: g.float(), ClusterEDP: g.float(),
			},
		}
	}
}

// appendIndent lays json.Marshal output out byte for byte as json.Encoder
// with SetIndent("", "  ") does.
func FuzzIndentMatchesEncoder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{4, 3, 3, 0xf0, 0xf1, 0xf2, 5, 2, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{9, 6, 0xf3, 0xf4, 0xf5, 0xf6, 0xf7, 0xf8, 0x10, 0x20, 0x30, 0x40, 0x50, 0x60, 0x70, 0x80, 0x90})
	f.Add([]byte{5, 4, 6, 4, 2, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xef, 0x7f, 7, 1, 2, 3, 4})
	f.Add([]byte{2, 1, 0, 0, 0, 0, 0, 0xb0, 0x3c, 3, 5, 0xf8, 0xf9, 0xfa, 0xfb, 0xfc})
	f.Fuzz(func(t *testing.T, data []byte) {
		g := &fuzzGen{data: data}
		v := g.value(0)
		compact, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		want := encoderBytes(t, v)
		if got := appendIndent(nil, compact); !bytes.Equal(got, want) {
			t.Fatalf("indent of %s:\n  got:  %q\n  want: %q", compact, got, want)
		}
	})
}

// BenchmarkServeWarmHit is the in-process shape of the repo benchmark's
// warm-hit workload through the real Server.Handler: a 256-key set of
// light kernels x 2 platforms x tile sizes at bench size is computed once,
// then every op re-requests one of its keys, so each op is a memory-rung
// hit and pays request decoding, the ladder and response encoding only.
func BenchmarkServeWarmHit(b *testing.B) {
	s, err := New(DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()
	var set []string
	for _, kernel := range []string{"atax", "bicg", "gemm", "gemver", "gesummv", "mvt", "syrk", "trisolv"} {
		for _, platform := range []string{"bdw", "rpl"} {
			for tile := 4; tile < 36; tile += 2 {
				set = append(set, fmt.Sprintf(`{"kernel":%q,"platform":%q,"tiling":"pluto:size=%d"}`, kernel, platform, tile))
			}
		}
	}
	serve := func(body string) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/compile", strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("%s: %d %s", body, rec.Code, rec.Body.Bytes())
		}
	}
	for _, body := range set {
		serve(body)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		serve(set[(n*97)%len(set)])
	}
}
