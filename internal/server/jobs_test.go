package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"polyufc/internal/core"
	"polyufc/internal/faults"
	"polyufc/internal/hw"
	"polyufc/internal/jobs"
	"polyufc/internal/roofline"
)

// postJSON posts an arbitrary JSON body (the Request-shaped post helper
// in server_test.go does not fit the jobs API).
func postJSON(t *testing.T, ts *httptest.Server, path string, body any) (*http.Response, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader(raw))
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

func get(t *testing.T, ts *httptest.Server, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
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

// waitJob polls GET /v1/jobs/{id} until the job reaches a terminal
// state, returning the final status.
func waitJob(t *testing.T, ts *httptest.Server, id string) JobStatusResponse {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, data := get(t, ts, "/v1/jobs/"+id)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("get job %s: %d: %s", id, resp.StatusCode, data)
		}
		var st JobStatusResponse
		if err := json.Unmarshal(data, &st); err != nil {
			t.Fatalf("bad job status %s: %v", data, err)
		}
		if st.State.Terminal() {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in state %s", id, st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestServerJobsSweepRoundTrip drives the async tier end to end over
// HTTP: submit a sweep, poll to completion, fetch the durable result,
// and replay the full event history over SSE.
func TestServerJobsSweepRoundTrip(t *testing.T) {
	cfg := testConfig()
	cfg.JobsDir = t.TempDir()
	s := newServer(t, cfg)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, data := postJSON(t, ts, "/v1/jobs", JobSubmitRequest{
		Kind:      string(JobSweep),
		JobParams: JobParams{Kernels: []string{"gemm", "atax"}, Platform: "rpl", Size: "test"},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d: %s", resp.StatusCode, data)
	}
	var st jobs.Status
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	if st.ID == "" || st.Kind != JobSweep {
		t.Fatalf("bad submit status: %s", data)
	}

	final := waitJob(t, ts, st.ID)
	if final.State != jobs.StateDone {
		t.Fatalf("job finished %s (%s), want done", final.State, final.Error)
	}
	if final.UnitsDone != 2 || final.UnitsTotal != 2 {
		t.Fatalf("units %d/%d, want 2/2", final.UnitsDone, final.UnitsTotal)
	}

	resp, data = get(t, ts, "/v1/jobs/"+st.ID+"/result")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result: %d: %s", resp.StatusCode, data)
	}
	var sweep SweepJobResult
	if err := json.Unmarshal(data, &sweep); err != nil {
		t.Fatal(err)
	}
	if len(sweep.Kernels) != 2 || sweep.Platform != "RPL" {
		t.Fatalf("bad sweep result: %s", data)
	}
	for _, kr := range sweep.Kernels {
		if len(kr.Nests) == 0 {
			t.Fatalf("kernel %s has no nests", kr.Kernel)
		}
	}

	// The job shows up in the listing.
	resp, data = get(t, ts, "/v1/jobs")
	var list JobListResponse
	if resp.StatusCode != http.StatusOK || json.Unmarshal(data, &list) != nil || len(list.Jobs) != 1 {
		t.Fatalf("list: %d: %s", resp.StatusCode, data)
	}

	// SSE replay of a finished job: the retained backlog streams out and
	// the connection closes at the terminal event.
	resp, data = get(t, ts, "/v1/jobs/"+st.ID+"/events")
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "text/event-stream" {
		t.Fatalf("events: %d %s", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	stream := string(data)
	for _, want := range []string{
		"event: " + jobs.EventSubmitted,
		"event: " + jobs.EventStarted,
		"event: " + jobs.EventUnit,
		"event: " + jobs.EventDone,
	} {
		if !strings.Contains(stream, want+"\n") {
			t.Fatalf("SSE stream missing %q:\n%s", want, stream)
		}
	}
	// A cursor resumes past the events it names; one that is not a
	// sequence number is a 400 naming it, not a replay from the start.
	if _, tail := get(t, ts, "/v1/jobs/"+st.ID+"/events?after=2"); strings.Contains(string(tail), "id: 2\n") || !strings.Contains(string(tail), "id: 3\n") {
		t.Fatalf("after=2 did not resume at event 3:\n%s", tail)
	}
	for _, c := range []struct{ query, header, bad string }{
		{query: "?after=abc", bad: "abc"},
		{query: "?after=1.5", bad: "1.5"},
		{header: "three", bad: "three"},
	} {
		req, err := http.NewRequest(http.MethodGet, ts.URL+"/v1/jobs/"+st.ID+"/events"+c.query, nil)
		if err != nil {
			t.Fatal(err)
		}
		if c.header != "" {
			req.Header.Set("Last-Event-ID", c.header)
		}
		resp, err := ts.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), `\"`+c.bad+`\"`) {
			t.Fatalf("event cursor %q%q: %d %s, want 400 naming it", c.query, c.header, resp.StatusCode, body)
		}
	}

	// Malformed submissions fail synchronously.
	for _, bad := range []JobSubmitRequest{
		{Kind: "mine-bitcoin"},
		{Kind: string(JobSweep), JobParams: JobParams{Kernels: []string{"no-such-kernel"}}},
		{Kind: string(JobSweep), JobParams: JobParams{Suite: "no-such-suite"}},
		{Kind: string(JobRefit)}, // refit requires a platform
		{Kind: string(JobSweep), JobParams: JobParams{Objective: "no-such-objective"}},
	} {
		if resp, data := postJSON(t, ts, "/v1/jobs", bad); resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("submit %+v: %d %s, want 400", bad, resp.StatusCode, data)
		}
	}
	if resp, _ := get(t, ts, "/v1/jobs/j9999"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: %d, want 404", resp.StatusCode)
	}
}

// The plantable job kind is retired: a submission is a 400 naming the
// kinds that remain, and a jobs directory holding an unfinished plantable
// job from an older daemon still boots — that job fails, the jobs queued
// beside it run to completion.
func TestServerJobsRetiredTableKind(t *testing.T) {
	dir := t.TempDir()
	old, err := jobs.Open(jobs.Options{Dir: dir}, func(*jobs.Job) (any, error) {
		t.Error("the older daemon's executor must not run")
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	planJob, err := old.Submit("plantable", json.RawMessage(`{"platform":"bdw","oi_points":2,"mem_points":2}`))
	if err != nil {
		t.Fatal(err)
	}
	sweepJob, err := old.Submit(JobSweep, JobParams{Kernels: []string{"gemm"}, Platform: "bdw", Size: "test"})
	if err != nil {
		t.Fatal(err)
	}
	if err := old.Close(context.Background()); err != nil {
		t.Fatal(err)
	}

	cfg := testConfig()
	cfg.JobsDir = dir
	s := newServer(t, cfg)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if st := waitJob(t, ts, planJob.ID); st.State != jobs.StateFailed || !strings.Contains(st.Error, "plantable") {
		t.Fatalf("resumed plantable job: %s (%s), want failed naming its kind", st.State, st.Error)
	}
	if st := waitJob(t, ts, sweepJob.ID); st.State != jobs.StateDone {
		t.Fatalf("sweep queued beside it: %s (%s), want done", st.State, st.Error)
	}

	resp, data := postJSON(t, ts, "/v1/jobs", JobSubmitRequest{Kind: "plantable", JobParams: JobParams{Platform: "bdw"}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("submit plantable: %d %s, want 400", resp.StatusCode, data)
	}
	for _, kind := range []jobs.Kind{JobSweep, JobCharacterize, JobRefit} {
		if !strings.Contains(string(data), string(kind)) {
			t.Fatalf("plantable rejection does not name %s: %s", kind, data)
		}
	}
}

// A sweep job unit and /v1/search answer the same request with the same
// body — including, on a multi-socket backend, the topology rollup.
func TestServerJobsSweepUnitMatchesSearchEndpoint(t *testing.T) {
	cfg := topologyConfig()
	cfg.JobsDir = t.TempDir()
	s := newServer(t, cfg)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	kernels := []string{"gemm", "mvt"}
	resp, data := postJSON(t, ts, "/v1/jobs", JobSubmitRequest{
		Kind:      string(JobSweep),
		JobParams: JobParams{Kernels: kernels, Platform: "2s-bdw", Size: "test"},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d: %s", resp.StatusCode, data)
	}
	var st struct {
		ID string `json:"id"`
	}
	mustUnmarshal(t, data, &st)
	waitJobDone(t, ts, st.ID)
	resp, data = get(t, ts, "/v1/jobs/"+st.ID+"/result")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result: %d: %s", resp.StatusCode, data)
	}
	var sweep SweepJobResult
	mustUnmarshal(t, data, &sweep)
	if len(sweep.Kernels) != len(kernels) {
		t.Fatalf("sweep result: %s", data)
	}
	before := s.statsz()
	for i, kernel := range kernels {
		if sweep.Kernels[i].Topology == nil {
			t.Fatalf("sweep unit %s on a 2-socket backend has no topology rollup", kernel)
		}
		resp, body := post(t, ts, "/v1/search", Request{Kernel: kernel, Platform: "2s-bdw", Size: "test"})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("search %s: %d %s", kernel, resp.StatusCode, body)
		}
		var sr SearchResponse
		mustUnmarshal(t, body, &sr)
		unit, _ := json.Marshal(sweep.Kernels[i])
		endpoint, _ := json.Marshal(sr)
		if !bytes.Equal(unit, endpoint) {
			t.Fatalf("%s answered two ways:\n  sweep:  %s\n  search: %s", kernel, unit, endpoint)
		}
	}
	// Job first, endpoint second: each search was the unit's memo hit.
	assertMemoHits(t, "searches after the sweep", before, s.statsz(), len(kernels))
	req := func(kernel string) Request { return Request{Kernel: kernel, Platform: "2s-bdw", Size: "test"} }

	// The same on the characterize kind: the endpoint after the job is
	// the unit's memo hit, with the unit's bytes.
	units := jobUnits(t, ts, JobCharacterize, JobParams{Kernels: kernels, Platform: "2s-bdw", Size: "test"})
	before = s.statsz()
	for i, kernel := range kernels {
		assertSameAnswer(t, kernel, units[i], compactAnswer(t, ts, "/v1/characterize", req(kernel)))
	}
	assertMemoHits(t, "characterizes after the characterize job", before, s.statsz(), len(kernels))

	// Endpoints first, jobs second: each unit is the endpoint's memo hit
	// and its bytes.
	answered := []string{"atax", "bicg"}
	want := map[string][][]byte{}
	for _, kernel := range answered {
		for _, path := range []string{"/v1/search", "/v1/characterize"} {
			want[path] = append(want[path], compactAnswer(t, ts, path, req(kernel)))
		}
	}
	for _, c := range []struct {
		kind jobs.Kind
		path string
	}{{JobSweep, "/v1/search"}, {JobCharacterize, "/v1/characterize"}} {
		before := s.statsz()
		units := jobUnits(t, ts, c.kind, JobParams{Kernels: answered, Platform: "2s-bdw", Size: "test"})
		assertMemoHits(t, string(c.kind)+" job after the endpoints", before, s.statsz(), len(answered))
		for i, kernel := range answered {
			assertSameAnswer(t, kernel, units[i], want[c.path][i])
		}
	}
}

// jobUnits submits a job, waits for it to finish and returns its result's
// units, compacted.
func jobUnits(t *testing.T, ts *httptest.Server, kind jobs.Kind, p JobParams) [][]byte {
	t.Helper()
	resp, data := postJSON(t, ts, "/v1/jobs", JobSubmitRequest{Kind: string(kind), JobParams: p})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit %s: %d: %s", kind, resp.StatusCode, data)
	}
	var st jobs.Status
	mustUnmarshal(t, data, &st)
	waitJobDone(t, ts, st.ID)
	_, data = get(t, ts, "/v1/jobs/"+st.ID+"/result")
	var result struct {
		Kernels []json.RawMessage `json:"kernels"`
	}
	mustUnmarshal(t, data, &result)
	var units [][]byte
	for _, raw := range result.Kernels {
		var buf bytes.Buffer
		if err := json.Compact(&buf, raw); err != nil {
			t.Fatal(err)
		}
		units = append(units, buf.Bytes())
	}
	return units
}

// compactAnswer posts req to a compute endpoint and returns its 200
// answer, compacted.
func compactAnswer(t *testing.T, ts *httptest.Server, path string, req Request) []byte {
	t.Helper()
	resp, body := post(t, ts, path, req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s %s: %d %s", path, req.Kernel, resp.StatusCode, body)
	}
	var buf bytes.Buffer
	if err := json.Compact(&buf, body); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func assertSameAnswer(t *testing.T, kernel string, unit, endpoint []byte) {
	t.Helper()
	if !bytes.Equal(unit, endpoint) {
		t.Fatalf("%s answered two ways:\n  job unit: %s\n  endpoint: %s", kernel, unit, endpoint)
	}
}

// assertMemoHits checks that what ran between two snapshots compiled
// nothing and was n answer-memo hits.
func assertMemoHits(t *testing.T, what string, before, after Statsz, n int) {
	t.Helper()
	if c := compiles(after) - compiles(before); c != 0 {
		t.Fatalf("%s compiled %d times, want 0", what, c)
	}
	if h := after.CompileCache.Hits - before.CompileCache.Hits; h != int64(n) {
		t.Fatalf("%s moved the answer memo's hits by %d, want %d", what, h, n)
	}
}

// TestServerJobsDisabledWithoutDir: a daemon started without -jobs-dir
// refuses the job endpoints loudly instead of 404ing.
func TestServerJobsDisabledWithoutDir(t *testing.T) {
	s := newServer(t, testConfig())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, data := postJSON(t, ts, "/v1/jobs", JobSubmitRequest{Kind: string(JobSweep)})
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(data), "-jobs-dir") {
		t.Fatalf("submit on disabled tier: %d: %s", resp.StatusCode, data)
	}
}

// TestServerJobSubmitValidatesLikeComputeEndpoints: a job body is held to
// the compute endpoints' rules at submit time. An unknown field (the
// singular "kernel") would otherwise widen the job to every kernel, and a
// size or cap level the endpoints reject would fail the job at its first
// unit.
func TestServerJobSubmitValidatesLikeComputeEndpoints(t *testing.T) {
	cfg := testConfig()
	cfg.JobsDir = t.TempDir()
	s := newServer(t, cfg)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	for _, body := range []string{
		`{"kind":"sweep","kernel":"gemm"}`,
		`{"kind":"sweep","kernels":["gemm"],"size":"huge"}`,
		`{"kind":"characterize","kernels":["gemm"],"cap_level":"nowhere"}`,
	} {
		if resp, data := postJSON(t, ts, "/v1/jobs", json.RawMessage(body)); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("submit %s: %d %s, want 400", body, resp.StatusCode, data)
		}
	}
	if n := len(s.jobsMgr.List()); n != 0 {
		t.Fatalf("%d malformed jobs accepted", n)
	}
}

// TestServerCharacterizeJobCountsServed: each characterize unit counts in
// /statsz Platforms[*].Served, as each sweep unit does, and in the total:
// after a mix of job units and HTTP answers, Served is the sum over
// Platforms and the sum over TilingServed.
func TestServerCharacterizeJobCountsServed(t *testing.T) {
	cfg := testConfig()
	cfg.JobsDir = t.TempDir()
	s := newServer(t, cfg)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	before := s.statsz()
	resp, data := postJSON(t, ts, "/v1/jobs", JobSubmitRequest{
		Kind:      string(JobCharacterize),
		JobParams: JobParams{Kernels: []string{"gemm", "atax"}, Platform: "rpl", Size: "test"},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d: %s", resp.StatusCode, data)
	}
	var st jobs.Status
	mustUnmarshal(t, data, &st)
	waitJobDone(t, ts, st.ID)
	after := s.statsz()
	if got := after.Platforms["RPL"].Served - before.Platforms["RPL"].Served; got != 2 {
		t.Fatalf("a 2-kernel characterize job moved Served by %d, want 2", got)
	}
	if got := after.Served - before.Served; got != 2 {
		t.Fatalf("a 2-kernel characterize job moved the total Served by %d, want 2", got)
	}
	// One HTTP answer on top: a ladder hit of the job's gemm unit.
	if resp, data := post(t, ts, "/v1/characterize", Request{Kernel: "gemm", Platform: "rpl", Size: "test"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("characterize: %d: %s", resp.StatusCode, data)
	}
	after = s.statsz()
	var platforms, tilings int64
	for _, p := range after.Platforms {
		platforms += p.Served
	}
	for _, n := range after.TilingServed {
		tilings += n
	}
	if after.Served != 3 || platforms != after.Served || tilings != after.Served {
		t.Fatalf("Served %d, sum over Platforms %d, sum over TilingServed %d, want 3 each",
			after.Served, platforms, tilings)
	}
}

// TestServerSweepJobCountsTiling: each sweep unit counts in /statsz
// TilingServed under its strategy, as it counts in Platforms[*].Served.
func TestServerSweepJobCountsTiling(t *testing.T) {
	cfg := testConfig()
	cfg.JobsDir = t.TempDir()
	s := newServer(t, cfg)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	before := s.statsz()
	resp, data := postJSON(t, ts, "/v1/jobs", JobSubmitRequest{
		Kind: string(JobSweep),
		JobParams: JobParams{Kernels: []string{"gemm", "atax"}, Platform: "rpl", Size: "test",
			Tiling: "cacheoblivious"},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d: %s", resp.StatusCode, data)
	}
	var st jobs.Status
	mustUnmarshal(t, data, &st)
	waitJobDone(t, ts, st.ID)
	after := s.statsz()
	if got := after.Platforms["RPL"].Served - before.Platforms["RPL"].Served; got != 2 {
		t.Fatalf("a 2-kernel sweep job moved Served by %d, want 2", got)
	}
	if got := after.TilingServed["cacheoblivious"] - before.TilingServed["cacheoblivious"]; got != 2 {
		t.Fatalf("a 2-kernel cacheoblivious sweep job moved TilingServed by %d, want 2", got)
	}
}

// TestServerJobResultDurableAcrossRestart proves the result a client
// fetches from a restarted daemon is byte-identical to the one the
// original daemon recorded.
func TestServerJobResultDurableAcrossRestart(t *testing.T) {
	jobsDir := t.TempDir()
	cfg := testConfig()
	cfg.JobsDir = jobsDir

	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tsA := httptest.NewServer(a.Handler())
	resp, data := postJSON(t, tsA, "/v1/jobs", JobSubmitRequest{
		Kind:      string(JobSweep),
		JobParams: JobParams{Kernels: []string{"gemm"}, Platform: "bdw", Size: "test"},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d: %s", resp.StatusCode, data)
	}
	var st jobs.Status
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	waitJob(t, tsA, st.ID)
	_, want := get(t, tsA, "/v1/jobs/"+st.ID+"/result")
	tsA.Close()
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}

	b := newServer(t, cfg)
	tsB := httptest.NewServer(b.Handler())
	defer tsB.Close()
	resp, got := get(t, tsB, "/v1/jobs/"+st.ID+"/result")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result after restart: %d: %s", resp.StatusCode, got)
	}
	if !bytes.Equal(want, got) {
		t.Fatalf("result changed across restart:\n before: %s\n after:  %s", want, got)
	}
}

// driftServer builds a server whose machines run with the measurement
// drift fault always on: every measured run takes hw.DriftTimeFactor
// longer than the calibrated model predicts.
func driftServer(t *testing.T, mutate func(*Config)) (*Server, *httptest.Server) {
	t.Helper()
	reg := faults.New(11)
	reg.Enable(hw.FaultMeasureDrift, faults.Spec{P: 1})
	cfg := testConfig()
	cfg.Faults = reg
	cfg.FaultSeed = 11
	if mutate != nil {
		mutate(&cfg)
	}
	s := newServer(t, cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

// measureN sends n measured searches for the backend, asserting each
// one succeeds; every successful baseline feeds the drift watchdog.
func measureN(t *testing.T, ts *httptest.Server, arch string, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		resp, data := post(t, ts, "/v1/search", Request{Kernel: "gemm", Platform: arch, Size: "test", Measure: true})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("measured search %d: %d: %s", i, resp.StatusCode, data)
		}
		var sr SearchResponse
		if err := json.Unmarshal(data, &sr); err != nil {
			t.Fatal(err)
		}
		if sr.DegradedTo != "" {
			t.Fatalf("measured search %d degraded to model-only: %s", i, sr.DegradedTo)
		}
	}
}

// TestServerDriftStrictRefuses: without a job tier the watchdog can only
// refuse — under the default Strict policy a degraded backend 503s until
// an operator intervenes, and /statsz says why.
func TestServerDriftStrictRefuses(t *testing.T) {
	s, ts := driftServer(t, nil)
	measureN(t, ts, "bdw", 3)

	if !s.drift.Degraded("BDW") {
		t.Fatalf("watchdog did not trip after 3 drifted samples: %+v", s.drift.Snapshot())
	}
	resp, data := post(t, ts, "/v1/search", Request{Kernel: "gemm", Platform: "bdw", Size: "test"})
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(data), "degraded") {
		t.Fatalf("degraded backend served under Strict: %d: %s", resp.StatusCode, data)
	}
	// The sibling backend is untouched.
	if resp, data := post(t, ts, "/v1/search", Request{Kernel: "gemm", Platform: "rpl", Size: "test"}); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy backend refused: %d: %s", resp.StatusCode, data)
	}
	st := s.statsz()
	ds, ok := st.Drift["BDW"]
	if !ok || ds.State != roofline.DriftDegraded.String() || ds.MeanAbsRelErr < 0.25 {
		t.Fatalf("statsz drift for BDW: %+v", st.Drift)
	}
}

// TestServerDriftBestEffortFlags: same episode under -degrade
// best-effort — the daemon keeps answering from the stale model but
// marks every response calibration_degraded.
func TestServerDriftBestEffortFlags(t *testing.T) {
	s, ts := driftServer(t, func(cfg *Config) { cfg.Degrade = core.BestEffort })
	measureN(t, ts, "bdw", 3)
	if !s.drift.Degraded("BDW") {
		t.Fatalf("watchdog did not trip: %+v", s.drift.Snapshot())
	}
	resp, data := post(t, ts, "/v1/search", Request{Kernel: "gemm", Platform: "bdw", Size: "test"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("best-effort refused: %d: %s", resp.StatusCode, data)
	}
	var sr SearchResponse
	if err := json.Unmarshal(data, &sr); err != nil {
		t.Fatal(err)
	}
	if !sr.CalibrationDegraded {
		t.Fatalf("best-effort response not flagged: %s", data)
	}
}

// TestServerDriftAutoRefitRecovers is the whole robustness story in one
// test: drifted measurements trip the watchdog, the watchdog enqueues a
// re-fit job, the job re-calibrates against the drifted machine, swaps
// the live target, and the backend serves healthy again — no restart, no
// operator.
func TestServerDriftAutoRefitRecovers(t *testing.T) {
	s, ts := driftServer(t, func(cfg *Config) {
		cfg.JobsDir = filepath.Join(t.TempDir(), "jobs")
	})
	oldT, ok := s.target("BDW")
	if !ok {
		t.Fatal("BDW not served")
	}
	oldHash := oldT.Constants.Hash()

	measureN(t, ts, "bdw", 3) // trips the watchdog; onDrift enqueues the re-fit

	// Wait for the episode to resolve: refit done, new constants live.
	deadline := time.Now().Add(30 * time.Second)
	for {
		snap := s.drift.Snapshot()
		if ds, ok := snap["BDW"]; ok && ds.State == roofline.DriftOK.String() && ds.Refits == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("refit never completed: %+v", snap)
		}
		time.Sleep(5 * time.Millisecond)
	}
	newT, _ := s.target("BDW")
	newHash := newT.Constants.Hash()
	if newHash == oldHash {
		t.Fatalf("refit did not change the calibration (hash %s)", newHash)
	}

	// The refit job recorded the swap.
	var refit RefitJobResult
	found := false
	for _, st := range s.jobsMgr.List() {
		if st.Kind != JobRefit {
			continue
		}
		final := waitJob(t, ts, st.ID)
		if final.State != jobs.StateDone {
			t.Fatalf("refit job %s: %s (%s)", st.ID, final.State, final.Error)
		}
		if err := json.Unmarshal(final.Result, &refit); err != nil {
			t.Fatal(err)
		}
		found = true
	}
	if !found {
		t.Fatal("no refit job was enqueued")
	}
	if refit.OldCalHash != oldHash || refit.NewCalHash != newHash {
		t.Fatalf("bad refit result: %+v", refit)
	}

	// The backend serves healthy again: 200 and unflagged.
	resp, data := post(t, ts, "/v1/search", Request{Kernel: "gemm", Platform: "bdw", Size: "test"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-refit search: %d: %s", resp.StatusCode, data)
	}
	var sr SearchResponse
	if err := json.Unmarshal(data, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.CalibrationDegraded {
		t.Fatalf("post-refit response still flagged: %s", data)
	}
	stz := s.statsz()
	if stz.Jobs == nil || stz.Jobs.Jobs < 1 {
		t.Fatalf("statsz jobs: %+v", stz.Jobs)
	}

	// Post-refit measured runs agree with the new fit: residuals stay
	// well under the threshold and the watchdog stays OK.
	measureN(t, ts, "bdw", 3)
	if ds := s.drift.Snapshot()["BDW"]; ds.State != roofline.DriftOK.String() || ds.MeanAbsRelErr > 0.10 {
		t.Fatalf("post-refit residuals still high: %+v", ds)
	}
}

// A measured sweep's units pass the drift gate, as every request does:
// the units' own baselines trip the watchdog, and the units after the trip
// meet the episode. A Strict daemon fails the job with the gate's message,
// a BestEffort one finishes it and flags each unit computed during the
// episode; either way the re-fit the trip enqueued completes. One job
// worker keeps that re-fit queued behind the sweep, so the episode lasts
// to the sweep's end.
func TestServerSweepJobUnitsPassTheDriftGate(t *testing.T) {
	kernels := []string{"gemm", "atax", "mvt", "bicg", "gesummv"}
	for _, c := range []struct {
		name   string
		policy core.DegradePolicy
	}{{"strict", core.Strict}, {"best-effort", core.BestEffort}} {
		t.Run(c.name, func(t *testing.T) {
			s, ts := driftServer(t, func(cfg *Config) {
				cfg.Degrade = c.policy
				cfg.JobsDir = filepath.Join(t.TempDir(), "jobs")
				cfg.JobWorkers = 1
			})
			resp, data := postJSON(t, ts, "/v1/jobs", JobSubmitRequest{
				Kind:      string(JobSweep),
				JobParams: JobParams{Kernels: kernels, Platform: "bdw", Size: "test", Measure: true},
			})
			if resp.StatusCode != http.StatusAccepted {
				t.Fatalf("submit: %d: %s", resp.StatusCode, data)
			}
			var st jobs.Status
			mustUnmarshal(t, data, &st)
			final := waitJob(t, ts, st.ID)
			if c.policy == core.Strict {
				if final.State != jobs.StateFailed || !strings.Contains(final.Error, `calibration for "BDW" is degraded`) {
					t.Fatalf("sweep over a drifting backend: %s (%s), want failed by the drift gate", final.State, final.Error)
				}
				if final.UnitsDone == 0 || final.UnitsDone >= len(kernels) {
					t.Fatalf("sweep failed after %d/%d units, want a unit past the trip refused", final.UnitsDone, len(kernels))
				}
			} else {
				if final.State != jobs.StateDone {
					t.Fatalf("best-effort sweep: %s (%s), want done", final.State, final.Error)
				}
				var sweep SweepJobResult
				mustUnmarshal(t, final.Result, &sweep)
				if len(sweep.Kernels) != len(kernels) {
					t.Fatalf("sweep result: %s", final.Result)
				}
				flags := make([]bool, len(kernels))
				for i, kr := range sweep.Kernels {
					flags[i] = kr.CalibrationDegraded
					if kr.Measured == nil {
						t.Fatalf("unit %s not measured: %+v", kr.Kernel, kr)
					}
				}
				// Healthy until the trip, flagged from the trip on.
				tripped := 0
				for tripped < len(flags) && !flags[tripped] {
					tripped++
				}
				if tripped == 0 || tripped == len(flags) {
					t.Fatalf("calibration_degraded per unit %v, want the first unit healthy and the last flagged", flags)
				}
				for i := tripped; i < len(flags); i++ {
					if !flags[i] {
						t.Fatalf("calibration_degraded per unit %v: unit %d unflagged during the episode", flags, i)
					}
				}
			}
			refits := 0
			for _, js := range s.jobsMgr.List() {
				if js.Kind != JobRefit {
					continue
				}
				refits++
				if final := waitJob(t, ts, js.ID); final.State != jobs.StateDone {
					t.Fatalf("refit job %s: %s (%s)", js.ID, final.State, final.Error)
				}
			}
			if refits != 1 {
				t.Fatalf("%d refit jobs enqueued, want 1", refits)
			}
		})
	}
}
