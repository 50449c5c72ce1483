package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"polyufc/internal/breaker"
	"polyufc/internal/faults"
	"polyufc/internal/hw"
	"polyufc/internal/platform"
)

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.Concurrency = 2
	cfg.RequestTimeout = 30 * time.Second
	return cfg
}

func newServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func post(t *testing.T, ts *httptest.Server, path string, req Request) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func TestServerEndpoints(t *testing.T) {
	s := newServer(t, testConfig())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, data := post(t, ts, "/v1/compile", Request{Kernel: "gemm", Size: "test"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compile: %d %s", resp.StatusCode, data)
	}
	var comp CompileResponse
	if err := json.Unmarshal(data, &comp); err != nil {
		t.Fatal(err)
	}
	if comp.Kernel != "gemm" || comp.Arch != "RPL" || len(comp.Nests) == 0 {
		t.Fatalf("compile response %+v", comp)
	}
	for _, n := range comp.Nests {
		if n.CapGHz <= 0 || n.Class == "" {
			t.Fatalf("bad nest %+v", n)
		}
	}

	resp, data = post(t, ts, "/v1/characterize", Request{Kernel: "atax", Platform: "bdw", Size: "test"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("characterize: %d %s", resp.StatusCode, data)
	}
	var char CharacterizeResponse
	if err := json.Unmarshal(data, &char); err != nil {
		t.Fatal(err)
	}
	if char.Arch != "BDW" || char.PeakGFlops <= 0 || char.BtDRAM <= 0 {
		t.Fatalf("characterize response %+v", char)
	}

	resp, data = post(t, ts, "/v1/search", Request{Kernel: "gemm", Size: "test", Objective: "energy", Measure: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("search: %d %s", resp.StatusCode, data)
	}
	var sr SearchResponse
	if err := json.Unmarshal(data, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Objective != "energy" || len(sr.Nests) == 0 {
		t.Fatalf("search response %+v", sr)
	}
	if sr.DegradedTo != "" || sr.Measured == nil || sr.Measured.BaselineSeconds <= 0 {
		t.Fatalf("healthy measured search degraded: %+v", sr)
	}

	// Observability endpoints.
	hresp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz HealthzResponse
	if err := json.NewDecoder(hresp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hz.Status != "ok" || hz.Breakers["RPL"] != "closed" {
		t.Fatalf("healthz %+v", hz)
	}
	st := s.statsz()
	if st.Served != 3 || st.Rejected != 0 || st.Panics != 0 {
		t.Fatalf("statsz %+v", st)
	}
}

func TestServerRejectsBadRequests(t *testing.T) {
	s := newServer(t, testConfig())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	for _, tc := range []struct {
		req  Request
		want string
	}{
		{Request{}, "kernel is required"},
		{Request{Kernel: "nope", Size: "test"}, "unknown kernel"},
		{Request{Kernel: "gemm", Platform: "sparc"}, "unknown platform"},
		{Request{Kernel: "gemm", Size: "huge"}, "unknown size"},
		{Request{Kernel: "gemm", Objective: "joules"}, "unknown objective"},
		{Request{Kernel: "gemm", CapLevel: "llvm"}, "unknown cap level"},
	} {
		resp, data := post(t, ts, "/v1/compile", tc.req)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(data), tc.want) {
			t.Fatalf("%+v -> %d %s, want 400 %q", tc.req, resp.StatusCode, data, tc.want)
		}
	}
	// Wrong method and malformed body.
	resp, err := ts.Client().Get(ts.URL + "/v1/compile")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET -> %d", resp.StatusCode)
	}
	resp, err = ts.Client().Post(ts.URL+"/v1/compile", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad body -> %d", resp.StatusCode)
	}
	// Unknown fields are refused, not ignored: a body still carrying the
	// retired "arch" spelling (or any typo) must not fall through to the
	// rpl default — the 400 names the offender and the field to use.
	for _, body := range []string{
		`{"kernel":"gemm","arch":"bdw","size":"test"}`,
		`{"kernel":"gemm","plaform":"bdw","size":"test"}`,
	} {
		resp, err = ts.Client().Post(ts.URL+"/v1/compile", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(data), "unknown field") ||
			!strings.Contains(string(data), "platform") {
			t.Fatalf("%s -> %d %s, want 400 naming the unknown field and platform", body, resp.StatusCode, data)
		}
	}
}

// Admission control: with one slot and a bounded queue, excess load is
// shed with 429 + Retry-After instead of queueing unboundedly.
func TestServerAdmissionShedsLoad(t *testing.T) {
	cfg := testConfig()
	cfg.Concurrency = 1
	cfg.Queue = 1
	s := newServer(t, cfg)
	hold := make(chan struct{})
	holding := make(chan struct{}, 4)
	s.testHook = func() {
		holding <- struct{}{}
		<-hold
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	wg.Add(2)
	codes := make(chan int, 2)
	// First request occupies the slot, second waits in the queue.
	go func() {
		defer wg.Done()
		resp, _ := post(t, ts, "/v1/compile", Request{Kernel: "gemm", Size: "test"})
		codes <- resp.StatusCode
	}()
	<-holding // slot holder is inside the handler
	go func() {
		defer wg.Done()
		resp, _ := post(t, ts, "/v1/compile", Request{Kernel: "gemm", Size: "test"})
		codes <- resp.StatusCode
	}()
	for s.gate.Stats().Waiting == 0 {
		runtime.Gosched()
	}
	// Third: slot busy, queue full -> 429 with Retry-After.
	resp, data := post(t, ts, "/v1/compile", Request{Kernel: "gemm", Size: "test"})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated -> %d %s", resp.StatusCode, data)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	close(hold)
	wg.Wait()
	if a, b := <-codes, <-codes; a != http.StatusOK || b != http.StatusOK {
		t.Fatalf("held requests finished %d, %d", a, b)
	}
	st := s.statsz()
	if st.Rejected != 1 || st.Served != 2 {
		t.Fatalf("stats %+v", st)
	}
}

// A panicking handler answers 500 and leaves the daemon serving.
func TestServerPanicIsolation(t *testing.T) {
	s := newServer(t, testConfig())
	first := true
	s.testHook = func() {
		if first {
			first = false
			panic("request blew up")
		}
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, data := post(t, ts, "/v1/compile", Request{Kernel: "gemm", Size: "test"})
	if resp.StatusCode != http.StatusInternalServerError || !strings.Contains(string(data), "request blew up") {
		t.Fatalf("panic -> %d %s", resp.StatusCode, data)
	}
	resp, _ = post(t, ts, "/v1/compile", Request{Kernel: "gemm", Size: "test"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("request after panic -> %d", resp.StatusCode)
	}
	st := s.statsz()
	if st.Panics != 1 || st.Served != 1 {
		t.Fatalf("stats %+v", st)
	}
	if st.Gate.Active != 0 {
		t.Fatalf("panic leaked an admission slot: %+v", st.Gate)
	}
}

// An open breaker degrades measured requests to model-only answers with
// DegradedTo set — a sick driver never makes the endpoint error.
func TestServerBreakerDegradesToModelOnly(t *testing.T) {
	reg := faults.New(21)
	reg.Enable(hw.FaultCapWriteBusy, faults.Spec{P: 1})
	cfg := testConfig()
	cfg.Faults = reg
	cfg.Breaker.Threshold = 2
	s := newServer(t, cfg)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Trip the RPL breaker within the configured failure budget.
	b := s.breakers["RPL"]
	for i := 0; i < 2; i++ {
		if _, err := b.SetCap(1.5); !errors.Is(err, hw.ErrCapBusy) {
			t.Fatalf("SetCap: %v", err)
		}
	}
	if b.State() != breaker.Open {
		t.Fatalf("breaker state %v after failure budget", b.State())
	}

	resp, data := post(t, ts, "/v1/search", Request{Kernel: "gemm", Size: "test", Measure: true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("measured search under open breaker -> %d %s", resp.StatusCode, data)
	}
	var sr SearchResponse
	if err := json.Unmarshal(data, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.DegradedTo == "" || !strings.Contains(sr.DegradedTo, "model-only") {
		t.Fatalf("no degradation marker: %+v", sr)
	}
	if sr.Measured != nil {
		t.Fatal("degraded response carries measurements")
	}
	if len(sr.Nests) == 0 || sr.Nests[0].CapGHz <= 0 {
		t.Fatalf("model half missing from degraded response: %+v", sr)
	}

	// Health reflects the quarantine; stats count the degradation.
	hresp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz HealthzResponse
	json.NewDecoder(hresp.Body).Decode(&hz)
	hresp.Body.Close()
	if hz.Status != "degraded" {
		t.Fatalf("healthz %+v", hz)
	}
	st := s.statsz()
	if st.Degraded != 1 || st.Breakers["RPL"].Trips == 0 {
		t.Fatalf("stats %+v", st)
	}

	// Close still restores the default cap through the open breaker.
	if err := s.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	b.WithMachine(func(m *hw.Machine) error {
		if m.UncoreCap() != m.P.UncoreMax {
			t.Fatalf("close left cap at %.1f", m.UncoreCap())
		}
		return nil
	})
}

// Responses journal across a daemon restart: the second server replays
// byte-identical bodies without compiling anything.
func TestServerJournalReplayAcrossRestart(t *testing.T) {
	path := filepath.Join(t.TempDir(), "serve.jsonl")
	reqs := []Request{
		{Kernel: "gemm", Size: "test"},
		{Kernel: "atax", Platform: "bdw", Size: "test", Objective: "performance"},
	}

	cfg := testConfig()
	cfg.JournalPath = path
	s1 := newServer(t, cfg)
	ts1 := httptest.NewServer(s1.Handler())
	var want [][]byte
	for _, r := range reqs {
		resp, data := post(t, ts1, "/v1/search", r)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("first run: %d %s", resp.StatusCode, data)
		}
		want = append(want, data)
	}
	ts1.Close()
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	cfg2 := testConfig()
	cfg2.JournalPath = path
	cfg2.Resume = true
	s2 := newServer(t, cfg2)
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	if s2.JournalStats().Entries != len(reqs) {
		t.Fatalf("journal stats %+v", s2.JournalStats())
	}
	for i, r := range reqs {
		resp, data := post(t, ts2, "/v1/search", r)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("replay: %d %s", resp.StatusCode, data)
		}
		if !bytes.Equal(want[i], data) {
			t.Fatalf("replayed body differs:\n%s\nvs\n%s", want[i], data)
		}
	}
	st := s2.statsz()
	if st.Journal.Replayed != int64(len(reqs)) || st.Journal.Appended != 0 {
		t.Fatalf("replay stats %+v", st.Journal)
	}
	if n := compiles(st); n != 0 {
		t.Fatalf("replay compiled %d kernels", n)
	}

	// Without Resume the journal is truncated.
	cfg3 := testConfig()
	cfg3.JournalPath = path
	s3 := newServer(t, cfg3)
	if s3.JournalStats().Entries != 0 {
		t.Fatalf("truncating open kept %d entries", s3.JournalStats().Entries)
	}
}

// An edit to a description outside its calibrated constants moves the
// served answer, so a resumed journal must not replay the answer to the
// old description: the journal key names the description hash. Only
// cap_latency_sec changes (18 µs to 18 ms): the fit stays as it was, and
// adi's one cap is no longer worth inserting.
func TestServerJournalMissesAfterDescriptionEdit(t *testing.T) {
	orig := filepath.Join("..", "..", "platforms", "wide-uncore.json")
	doc, err := os.ReadFile(orig)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		// The registry is process-wide: put the shipped WIDE back.
		if _, err := platform.LoadFile(orig); err != nil {
			t.Error(err)
		}
	})
	desc := filepath.Join(t.TempDir(), "wide-uncore.json")
	write := func(data []byte) {
		if err := os.WriteFile(desc, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	const req = `{"kernel":"adi","platform":"wide","size":"test"}`
	serve := func(journal string, resume bool) (*Server, []byte) {
		cfg := testConfig()
		cfg.PlatformFiles = []string{desc}
		cfg.JournalPath, cfg.Resume = journal, resume
		s := newServer(t, cfg)
		ts := httptest.NewServer(s.Handler())
		defer ts.Close()
		resp, body := postJSONBody(t, ts, "/v1/compile", req)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%d %s", resp.StatusCode, body)
		}
		return s, body
	}
	journal := filepath.Join(t.TempDir(), "serve.jsonl")
	write(doc)
	s1, before := serve(journal, false)
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	edited := bytes.Replace(doc, []byte(`"cap_latency_sec": 18e-6`), []byte(`"cap_latency_sec": 18e-3`), 1)
	if bytes.Equal(edited, doc) {
		t.Fatal("the description no longer spells cap_latency_sec as 18e-6")
	}
	write(edited)
	resumed, got := serve(journal, true)
	if st := resumed.JournalStats(); st.Replayed != 0 || st.Appended != 1 {
		t.Fatalf("journal after the edit: %+v, want 0 replayed and 1 appended", st)
	}
	_, fresh := serve("", false)
	if !bytes.Equal(got, fresh) {
		t.Fatalf("resumed answer differs from a fresh daemon's on the edited description:\n got   %s\n fresh %s", got, fresh)
	}
	if bytes.Equal(before, fresh) {
		t.Fatal("the edit no longer moves adi's answer; the test shows nothing")
	}
}

// A re-fit job swaps a backend's target while the daemon serves:
// /v1/platforms polled across swapTarget calls must read the target map
// under its lock (an unlocked read is a concurrent map read and write —
// a fatal throw no handler can recover; the race detector reports it).
func TestServerPlatformsDuringTargetSwap(t *testing.T) {
	s := newServer(t, testConfig())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	tg, ok := s.target("BDW")
	if !ok {
		t.Fatal("BDW not served")
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 2000; i++ {
			s.swapTarget("BDW", tg)
		}
	}()
	for polling := true; polling; {
		select {
		case <-done:
			polling = false
		default:
		}
		resp, err := ts.Client().Get(ts.URL + "/v1/platforms")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/v1/platforms during a swap: %d", resp.StatusCode)
		}
	}
}

// The /v1/platforms endpoint lists every served backend with calibration
// provenance, a backend loaded purely from a JSON description file is
// served like the built-ins, and statsz carries per-backend counters.
func TestServerPlatformsEndpointAndFileBackend(t *testing.T) {
	cfg := testConfig()
	cfg.PlatformFiles = []string{filepath.Join("..", "..", "platforms", "wide-uncore.json")}
	s := newServer(t, cfg)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, err := ts.Client().Get(ts.URL + "/v1/platforms")
	if err != nil {
		t.Fatal(err)
	}
	var pr PlatformsResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	byName := map[string]PlatformResponse{}
	for _, p := range pr.Platforms {
		byName[p.Name] = p
	}
	for _, name := range []string{"BDW", "RPL", "WIDE"} {
		p, ok := byName[name]
		if !ok {
			t.Fatalf("%s missing from /v1/platforms: %+v", name, pr)
		}
		if p.BackendHash == "" || p.PeakGFlops <= 0 || p.FitDate == "" || p.FitTool == "" {
			t.Fatalf("%s: incomplete calibration provenance: %+v", name, p)
		}
		if len(p.FitResiduals) == 0 {
			t.Fatalf("%s: no fit residuals: %+v", name, p)
		}
	}
	if !byName["BDW"].Paper || !byName["RPL"].Paper || byName["WIDE"].Paper {
		t.Fatalf("paper flags wrong: %+v", pr.Platforms)
	}

	// The file-loaded backend answers compile requests by alias.
	cresp, data := post(t, ts, "/v1/compile", Request{Kernel: "gemm", Size: "test", Platform: "wide-uncore"})
	if cresp.StatusCode != http.StatusOK {
		t.Fatalf("compile on WIDE: %d %s", cresp.StatusCode, data)
	}
	var comp CompileResponse
	if err := json.Unmarshal(data, &comp); err != nil {
		t.Fatal(err)
	}
	if comp.Arch != "WIDE" || len(comp.Nests) == 0 {
		t.Fatalf("compile response %+v", comp)
	}

	st := s.statsz()
	ws, ok := st.Platforms["WIDE"]
	if !ok || ws.BackendHash == "" || ws.FitDate == "" || len(ws.Residuals) == 0 {
		t.Fatalf("statsz WIDE provenance %+v", st.Platforms)
	}
	if ws.Served != 1 || st.Platforms["BDW"].Served != 0 {
		t.Fatalf("per-platform served counts %+v", st.Platforms)
	}
}

// Graceful drain: cancelling Run's context stops the listener, lets the
// in-flight request finish with 200, and restores the default caps.
func TestServerGracefulDrain(t *testing.T) {
	cfg := testConfig()
	s := newServer(t, cfg)
	hold := make(chan struct{})
	holding := make(chan struct{}, 1)
	s.testHook = func() {
		holding <- struct{}{}
		<-hold
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	runErr := make(chan error, 1)
	go func() { runErr <- s.Run(ctx, ln) }()

	url := fmt.Sprintf("http://%s/v1/compile", ln.Addr())
	respErr := make(chan error, 1)
	go func() {
		resp, err := http.Post(url, "application/json",
			strings.NewReader(`{"kernel":"gemm","size":"test"}`))
		if err == nil {
			if resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("in-flight request: %d", resp.StatusCode)
			}
			resp.Body.Close()
		}
		respErr <- err
	}()
	<-holding // request is inside the handler
	cancel()  // SIGTERM
	// Shutdown waits for the in-flight request; release it.
	time.Sleep(50 * time.Millisecond)
	close(hold)
	if err := <-respErr; err != nil {
		t.Fatalf("in-flight request failed across drain: %v", err)
	}
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not drain")
	}
	for _, plat := range []string{"BDW", "RPL"} {
		s.breakers[plat].WithMachine(func(m *hw.Machine) error {
			if m.UncoreCap() != m.P.UncoreMax {
				t.Fatalf("%s cap left at %.1f after drain", plat, m.UncoreCap())
			}
			return nil
		})
	}
}
