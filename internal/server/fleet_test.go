package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"polyufc/internal/cas"
	"polyufc/internal/faults"
	"polyufc/internal/fleet"
)

// The persistence half of the tentpole: deterministic responses survive
// a restart through the content-addressed store and are served as warm
// hits without recompute.
func TestServerCASWarmRestartServesPersistedResponses(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig()
	cfg.CASDir = dir
	s1 := newServer(t, cfg)
	ts1 := httptest.NewServer(s1.Handler())
	resp, want := post(t, ts1, "/v1/compile", Request{Kernel: "gemm", Size: "test"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compile: %d %s", resp.StatusCode, want)
	}
	if st := s1.CASStats(); st.Puts == 0 {
		t.Fatalf("no CAS fills after compile: %+v", st)
	}
	ts1.Close()
	s1.Close()

	// Fresh process, same store: the response must come back from the
	// warm-started entries byte-identically, and the calibration artifacts
	// persisted at first boot must warm-start the backends.
	cfg2 := testConfig()
	cfg2.CASDir = dir
	s2 := newServer(t, cfg2)
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	if st := s2.CASStats(); st.WarmEntries == 0 {
		t.Fatalf("no warm entries after restart: %+v", st)
	}
	resp, got := post(t, ts2, "/v1/compile", Request{Kernel: "gemm", Size: "test"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compile after restart: %d %s", resp.StatusCode, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("restart response differs:\n  got:  %s\n  want: %s", got, want)
	}
	if n := s2.statsz().CAS.WarmHits; n == 0 {
		t.Fatal("restart served zero warm hits")
	}
}

// A corrupt entry on disk is quarantined — at boot or on read — and the
// request is recomputed, never failed.
func TestServerCASCorruptionFallsBackToCompute(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig()
	cfg.CASDir = dir
	s1 := newServer(t, cfg)
	ts1 := httptest.NewServer(s1.Handler())
	resp, want := post(t, ts1, "/v1/compile", Request{Kernel: "atax", Size: "test"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compile: %d %s", resp.StatusCode, want)
	}
	ts1.Close()
	s1.Close()

	// Flip one byte in every persisted entry.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	damaged := 0
	for _, e := range ents {
		if !strings.HasSuffix(e.Name(), ".cas") {
			continue
		}
		p := filepath.Join(dir, e.Name())
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0x40
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		damaged++
	}
	if damaged == 0 {
		t.Fatal("no .cas entries persisted")
	}

	cfg2 := testConfig()
	cfg2.CASDir = dir
	s2 := newServer(t, cfg2)
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	resp, got := post(t, ts2, "/v1/compile", Request{Kernel: "atax", Size: "test"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compile over corrupt store: %d %s", resp.StatusCode, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("recomputed response differs:\n  got:  %s\n  want: %s", got, want)
	}
	if st := s2.CASStats(); st.Quarantined != int64(damaged) {
		t.Fatalf("quarantined %d of %d damaged entries: %+v", st.Quarantined, damaged, st)
	}
}

// The peer half of the tentpole: a cold daemon finds the entry on a warm
// peer, serves it byte-identically, and back-fills its own store.
func TestServerFleetPeerLookupAndBackfill(t *testing.T) {
	cfgA := testConfig()
	cfgA.CASDir = t.TempDir()
	a := newServer(t, cfgA)
	tsA := httptest.NewServer(a.Handler())
	defer tsA.Close()
	resp, want := post(t, tsA, "/v1/compile", Request{Kernel: "gemm", Size: "test"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm peer compile: %d %s", resp.StatusCode, want)
	}

	cfgB := testConfig()
	cfgB.CASDir = t.TempDir()
	cfgB.Peers = []string{tsA.URL}
	b := newServer(t, cfgB)
	tsB := httptest.NewServer(b.Handler())
	defer tsB.Close()
	resp, got := post(t, tsB, "/v1/compile", Request{Kernel: "gemm", Size: "test"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold peer compile: %d %s", resp.StatusCode, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("peer-served response differs:\n  got:  %s\n  want: %s", got, want)
	}
	if st := b.statsz().Fleet; st.PeerHits == 0 {
		t.Fatalf("cold daemon did not hit the peer: %+v", st)
	}
	// Back-filled: the same request again is answered without the peer.
	before := b.statsz().Fleet.Lookups
	resp, got2 := post(t, tsB, "/v1/compile", Request{Kernel: "gemm", Size: "test"})
	if resp.StatusCode != http.StatusOK || !bytes.Equal(got2, want) {
		t.Fatalf("second request: %d %s", resp.StatusCode, got2)
	}
	if after := b.statsz().Fleet.Lookups; after != before {
		t.Fatalf("second request went back to the peer (%d -> %d lookups)", before, after)
	}
}

// Dead peers, and injected peer faults, degrade to local compute — every
// request still succeeds with the same bytes a peerless daemon produces.
func TestServerFleetPeerFailureDegradesToLocalCompute(t *testing.T) {
	ctl := newServer(t, testConfig())
	tsCtl := httptest.NewServer(ctl.Handler())
	defer tsCtl.Close()
	resp, want := post(t, tsCtl, "/v1/search", Request{Kernel: "gemm", Size: "test", Objective: "energy"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("control search: %d %s", resp.StatusCode, want)
	}

	cases := []struct {
		name  string
		fault string
		peers []string
	}{
		{"dead-peer", "", []string{"http://127.0.0.1:9"}},
		{"injected-timeout", fleet.FaultPeerTimeout + "=1", []string{tsCtl.URL}},
		{"injected-corrupt", fleet.FaultPeerCorrupt + "=1", []string{tsCtl.URL}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig()
			cfg.CASDir = t.TempDir()
			cfg.Peers = tc.peers
			cfg.PeerTimeout = 150 * time.Millisecond
			if tc.fault != "" {
				reg, err := faults.Parse(tc.fault, 1)
				if err != nil {
					t.Fatal(err)
				}
				cfg.Faults = reg
			}
			s := newServer(t, cfg)
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()
			resp, got := post(t, ts, "/v1/search", Request{Kernel: "gemm", Size: "test", Objective: "energy"})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("search under %s: %d %s", tc.name, resp.StatusCode, got)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("degraded response differs under %s:\n  got:  %s\n  want: %s", tc.name, got, want)
			}
			// Fleet/cas faults leave caching live: the computed answer was
			// still persisted locally.
			if st := s.CASStats(); st.Puts == 0 {
				t.Fatalf("caching disarmed under %s: %+v", tc.name, st)
			}
		})
	}
}

// Armed fault points outside the fleet/cas namespaces disarm response
// caching entirely — injected compute outcomes must not be replayed.
func TestServerComputeFaultsDisarmCaching(t *testing.T) {
	reg, err := faults.Parse("ufs.write.ebusy=@999999", 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.CASDir = t.TempDir()
	cfg.Faults = reg
	s := newServer(t, cfg)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	// Boot-time calibration artifacts are stored regardless; what must
	// not happen is a *response* fill while a compute fault is armed.
	before := s.CASStats().Puts
	resp, data := post(t, ts, "/v1/compile", Request{Kernel: "gemm", Size: "test"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compile: %d %s", resp.StatusCode, data)
	}
	if after := s.CASStats().Puts; after != before {
		t.Fatalf("caching stayed live with a compute fault armed (%d -> %d puts)", before, after)
	}
}

// The peer protocol surface: GET serves verified entries with the
// checksum header, PUT verifies and stores, and both validate keys.
func TestServerCASEndpoints(t *testing.T) {
	cfg := testConfig()
	cfg.CASDir = t.TempDir()
	s := newServer(t, cfg)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()

	payload := []byte(`{"artifact":"fleet-roundtrip"}`)
	key := cas.Sum(payload)

	// PUT with a matching checksum header.
	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/v1/cas/"+key, bytes.NewReader(payload))
	req.Header.Set(fleet.HeaderSum, cas.Sum(payload))
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("put: %d", resp.StatusCode)
	}

	// GET returns the bytes and the checksum header.
	resp, err = client.Get(ts.URL + "/v1/cas/" + key)
	if err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(payload)+1)
	n, _ := resp.Body.Read(got)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !bytes.Equal(got[:n], payload) {
		t.Fatalf("get: %d %q", resp.StatusCode, got[:n])
	}
	if sum := resp.Header.Get(fleet.HeaderSum); sum != cas.Sum(payload) {
		t.Fatalf("get checksum header %q", sum)
	}

	// Unknown key is a clean 404; an invalid key is a 400 on both verbs.
	if resp, err = client.Get(ts.URL + "/v1/cas/" + cas.Sum([]byte("absent"))); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("get missing: %d", resp.StatusCode)
	}
	if resp, err = client.Get(ts.URL + "/v1/cas/NOT-HEX"); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("get invalid key: %d", resp.StatusCode)
	}

	// A lying checksum header is refused.
	req, _ = http.NewRequest(http.MethodPut, ts.URL+"/v1/cas/"+key, bytes.NewReader(payload))
	req.Header.Set(fleet.HeaderSum, cas.Sum([]byte("other")))
	if resp, err = client.Do(req); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("put bad checksum: %d", resp.StatusCode)
	}
}

// A daemon without a store 404s GETs (the protocol's "compute it
// yourself") and refuses PUTs with 503 + Retry-After so peer breakers
// back off instead of hammering.
func TestServerCASEndpointsWithoutStore(t *testing.T) {
	s := newServer(t, testConfig())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	key := cas.Sum([]byte("anything"))

	resp, err := ts.Client().Get(ts.URL + "/v1/cas/" + key)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("get without store: %d", resp.StatusCode)
	}

	req, _ := http.NewRequest(http.MethodPut, ts.URL+"/v1/cas/"+key, strings.NewReader("x"))
	resp, err = ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("put without store: %d", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
}

// Every 503 path advertises Retry-After, consistent with the 429
// shedding path: here the job tier being disabled.
func TestServerJobSubmit503CarriesRetryAfter(t *testing.T) {
	s := newServer(t, testConfig())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, err := ts.Client().Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"kind":"sweep"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("job submit without jobs dir: %d", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
}

func postJSONBody(t *testing.T, ts *httptest.Server, path, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := ts.Client().Post(ts.URL+path, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp, buf.Bytes()
}

func mustUnmarshal(t *testing.T, data []byte, out any) {
	t.Helper()
	if err := json.Unmarshal(data, out); err != nil {
		t.Fatalf("unmarshal %s: %v", data, err)
	}
}

func waitJobDone(t *testing.T, ts *httptest.Server, id string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var st struct {
			State string `json:"state"`
			Error string `json:"error"`
		}
		var buf bytes.Buffer
		buf.ReadFrom(resp.Body)
		resp.Body.Close()
		mustUnmarshal(t, buf.Bytes(), &st)
		switch st.State {
		case "done":
			return
		case "failed", "canceled":
			t.Fatalf("job %s reached %s: %s", id, st.State, st.Error)
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s never finished", id)
}

// parentState is a snapshot of what daemons, built before the backend
// description codec became sockets-only, wrote to disk
// (testdata/parent-state/README.md has the recipe): a CAS directory
// holding four calibration artifacts, a BDW plan table and three
// responses computed with that table installed; a response journal from
// a table-less daemon; the served bytes of each request; and that
// daemon's /v1/platforms answer. Every address in it was derived from a
// description hash this build no longer derives, so a boot on it is the
// migration case: each old entry is a miss, never a wrong answer, and
// each recomputed answer is the parent's to the byte.
const parentState = "testdata/parent-state"

var parentStatePlatforms = []string{
	filepath.Join("..", "..", "platforms", "2-socket-bdw.json"),
	filepath.Join("..", "..", "platforms", "wide-uncore.json"),
}

// parentCASRequests are the three requests of the parent's CAS case,
// named after their served bytes under <fixture>/responses.
var parentCASRequests = map[string]struct{ path, body string }{
	"cas-gemm-bdw":  {"/v1/compile", `{"kernel":"gemm","platform":"bdw","size":"test"}`},
	"cas-mvt-2s":    {"/v1/compile", `{"kernel":"mvt","platform":"2s-bdw","size":"test"}`},
	"cas-bicg-wide": {"/v1/search", `{"kernel":"bicg","platform":"wide","size":"test"}`},
}

// bootOnParentCAS boots this build on a copy of the parent-written CAS
// directory and checks the calibration half of the migration: every
// persisted fit is at an address this build does not derive, so boot
// reads no warm entry and re-fits every backend — to the parent's
// constants, since each platform entry equals the parent's in every
// field but the description hash and the fit date.
func bootOnParentCAS(t *testing.T) (*Server, *httptest.Server, cas.Stats) {
	t.Helper()
	dir := t.TempDir()
	ents, err := os.ReadDir(filepath.Join(parentState, "cas"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(parentState, "cas", e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cfg := testConfig()
	cfg.CASDir = dir
	cfg.PlatformFiles = parentStatePlatforms
	s := newServer(t, cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	var want, got struct {
		Platforms []map[string]any `json:"platforms"`
	}
	data, err := os.ReadFile(filepath.Join(parentState, "platforms.json"))
	if err != nil {
		t.Fatal(err)
	}
	mustUnmarshal(t, data, &want)
	resp, err := ts.Client().Get(ts.URL + "/v1/platforms")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	served := map[any]map[string]any{}
	for _, p := range got.Platforms {
		served[p["name"]] = p
	}
	for _, w := range want.Platforms {
		g := served[w["name"]]
		if g == nil || g["backend_hash"] == w["backend_hash"] {
			t.Fatalf("%v: served %v, want the parent's entry under a new description hash", w["name"], g)
		}
		for _, moved := range []string{"backend_hash", "fit_date"} {
			delete(g, moved)
			delete(w, moved)
		}
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("%v: the re-fit differs from the parent's platform entry:\n got  %v\n want %v", w["name"], g, w)
		}
	}
	boot := s.CASStats()
	if boot.WarmHits != 0 || boot.Misses < int64(len(want.Platforms)) || boot.Puts < int64(len(want.Platforms)) {
		t.Fatalf("boot answered from a parent-written calibration: %+v, want %d misses and puts", boot, len(want.Platforms))
	}
	return s, ts, boot
}

// The response half of the CAS case: every response address the parent
// wrote is one this build does not derive, so each request misses,
// recomputes to the parent's exact bytes and stores the answer under its
// new address.
func TestServerCASBootsOnParentWrittenState(t *testing.T) {
	s, ts, boot := bootOnParentCAS(t)
	for name, req := range parentCASRequests {
		assertParentResponse(t, ts, name, req.path, req.body)
	}
	st := s.CASStats()
	n := int64(len(parentCASRequests))
	if st.WarmHits != 0 || st.Misses < boot.Misses+n || st.Puts != boot.Puts+n {
		t.Fatalf("the parent's responses were not recomputed: boot %+v, now %+v", boot, st)
	}
}

// The journal half: the parent's journal keys carry no description hash,
// so a resume replays neither entry, recomputes both to the parent's
// bytes and appends them under the new keys.
func TestServerJournalReplaysParentWrittenState(t *testing.T) {
	data, err := os.ReadFile(filepath.Join(parentState, "journal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "journal.jsonl")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.JournalPath, cfg.Resume = path, true
	cfg.PlatformFiles = parentStatePlatforms
	s := newServer(t, cfg)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	assertParentResponse(t, ts, "jrnl-atax-rpl", "/v1/compile", `{"kernel":"atax","platform":"rpl","size":"test"}`)
	assertParentResponse(t, ts, "jrnl-gemm-2s", "/v1/search", `{"kernel":"gemm","platform":"2s-bdw","size":"test"}`)
	if st := s.JournalStats(); st.Replayed != 0 || st.Appended != 2 {
		t.Fatalf("a parent journal entry answered under the moved key layout: %+v", st)
	}
}

// assertParentResponse posts one request and compares the served bytes
// with what the parent daemon served for it, under parentState/responses.
func assertParentResponse(t *testing.T, ts *httptest.Server, name, path, body string) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join(parentState, "responses", name+".json"))
	if err != nil {
		t.Fatal(err)
	}
	resp, got := postJSONBody(t, ts, path, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: %d %s", name, resp.StatusCode, got)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s differs from the parent's bytes:\n  got:  %s\n  want: %s", name, got, want)
	}
}
