package server

import (
	"encoding/json"
	"errors"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"polyufc/internal/breaker"
	"polyufc/internal/faults"
	"polyufc/internal/hw"
)

// topologyConfig serves the 2-socket BDW topology from its JSON
// description alongside the built-ins.
func topologyConfig() Config {
	cfg := testConfig()
	cfg.PlatformFiles = []string{filepath.Join("..", "..", "platforms", "2-socket-bdw.json")}
	return cfg
}

// A 2-socket backend boots one breaker-guarded cap controller per
// socket: the bare platform key for socket 0 and "#s1" for socket 1,
// both visible in healthz and statsz, both restored on Close.
func TestServerTopologyPerSocketBreakers(t *testing.T) {
	s := newServer(t, topologyConfig())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if s.breakers["2S-BDW"] == nil || s.socketBreaker("2S-BDW", 1) == nil {
		t.Fatal("2-socket backend did not boot per-socket breakers")
	}
	if s.socketBreaker("2S-BDW", 0) != s.breakers["2S-BDW"] {
		t.Fatal("socket 0 must keep the bare platform breaker key")
	}
	if s.socketBreaker("2S-BDW", 2) != nil {
		t.Fatal("phantom breaker for a socket the backend does not have")
	}
	// Single-socket backends keep exactly one key — no #sK suffixes.
	if s.socketBreaker("RPL", 1) != nil {
		t.Fatal("single-socket backend grew a socket-1 breaker")
	}

	hresp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz HealthzResponse
	json.NewDecoder(hresp.Body).Decode(&hz)
	hresp.Body.Close()
	if hz.Breakers["2S-BDW"] == "" || hz.Breakers["2S-BDW#s1"] == "" {
		t.Fatalf("healthz misses the socket domains: %+v", hz.Breakers)
	}

	st := s.statsz()
	if _, ok := st.Breakers["2S-BDW#s1"]; !ok {
		t.Fatalf("statsz misses the socket-1 breaker: %v", st.Breakers)
	}
	ps := st.Platforms["2S-BDW"]
	if ps.Sockets != 2 || ps.Nodes != 1 || ps.InterconnectGBs != 19.2 {
		t.Fatalf("statsz topology shape wrong: %+v", ps)
	}
	if rpl := st.Platforms["RPL"]; rpl.Sockets != 1 || rpl.Nodes != 1 || rpl.InterconnectGBs != 0 {
		t.Fatalf("single-socket statsz shape wrong: %+v", rpl)
	}
}

// A UFS fault scoped to socket 1 (FaultSocket) trips only that socket's
// breaker: socket 0 keeps serving and asserting caps, healthz reports
// the quarantine under the "#s1" key, and a measured search still
// answers — with the sick domain recorded in SocketDegraded instead of
// failing the request.
func TestServerTopologySingleSocketFaultDegradesOnlyThatSocket(t *testing.T) {
	reg := faults.New(17)
	reg.Enable(hw.FaultCapWriteBusy, faults.Spec{P: 1})
	cfg := topologyConfig()
	cfg.Faults = reg
	cfg.FaultSocket = 1
	cfg.Breaker.Threshold = 2
	s := newServer(t, cfg)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	b1 := s.socketBreaker("2S-BDW", 1)
	for i := 0; i < 2; i++ {
		if _, err := b1.SetCap(1.5); !errors.Is(err, hw.ErrCapBusy) {
			t.Fatalf("socket-1 SetCap: %v", err)
		}
	}
	if b1.State() != breaker.Open {
		t.Fatalf("socket-1 breaker %v after failure budget", b1.State())
	}
	// Socket 0's domain is healthy: the fault never armed its machine.
	if _, err := s.breakers["2S-BDW"].SetCap(1.5); err != nil {
		t.Fatalf("socket-0 SetCap under socket-1 fault: %v", err)
	}

	hresp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hz HealthzResponse
	json.NewDecoder(hresp.Body).Decode(&hz)
	hresp.Body.Close()
	if hz.Status != "degraded" {
		t.Fatalf("healthz status %q with an open socket breaker", hz.Status)
	}
	if hz.Breakers["2S-BDW#s1"] != breaker.Open.String() {
		t.Fatalf("socket-1 not quarantined: %+v", hz.Breakers)
	}
	if hz.Breakers["2S-BDW"] != breaker.Closed.String() {
		t.Fatalf("socket-0 wrongly quarantined: %+v", hz.Breakers)
	}

	resp, data := post(t, ts, "/v1/search", Request{Kernel: "gemm", Platform: "2s-bdw", Size: "test", Measure: true})
	if resp.StatusCode != 200 {
		t.Fatalf("measured search on 2-socket backend -> %d %s", resp.StatusCode, data)
	}
	var sr SearchResponse
	if err := json.Unmarshal(data, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.DegradedTo != "" {
		t.Fatalf("socket-1 fault degraded the whole answer: %q", sr.DegradedTo)
	}
	if sr.Measured == nil {
		t.Fatal("measured half missing")
	}
	if len(sr.Measured.SocketCaps) != 2 {
		t.Fatalf("per-socket cap vector missing: %+v", sr.Measured)
	}
	if len(sr.Measured.SocketDegraded) != 1 || !strings.HasPrefix(sr.Measured.SocketDegraded[0], "s1:") {
		t.Fatalf("socket-1 degradation not recorded: %+v", sr.Measured.SocketDegraded)
	}
}

// The topology surfaces end to end on the model path: nests carry home
// sockets, remote ratios and cap vectors, the response rolls up to a
// cluster EDP, and /v1/platforms reports the topology shape — all from
// the JSON description alone.
func TestServerTopologyModelSurface(t *testing.T) {
	s := newServer(t, topologyConfig())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, data := post(t, ts, "/v1/search", Request{Kernel: "gemm", Platform: "2s-bdw", Size: "test"})
	if resp.StatusCode != 200 {
		t.Fatalf("search -> %d %s", resp.StatusCode, data)
	}
	var sr SearchResponse
	if err := json.Unmarshal(data, &sr); err != nil {
		t.Fatal(err)
	}
	if sr.Topology == nil {
		t.Fatalf("2-socket answer has no topology rollup: %s", data)
	}
	if sr.Topology.Sockets != 2 || sr.Topology.Nodes != 1 {
		t.Fatalf("rollup shape %+v", sr.Topology)
	}
	if sr.Topology.ClusterEDP <= 0 || len(sr.Topology.SocketSeconds) != 2 {
		t.Fatalf("rollup incomplete: %+v", sr.Topology)
	}
	sawCaps := false
	for _, n := range sr.Nests {
		if n.Degraded {
			continue
		}
		if len(n.SocketCaps) == 2 {
			sawCaps = true
			if n.Socket == -1 && n.RemoteRatio != 0.5 {
				t.Fatalf("spanning nest remote ratio %g, want 0.5: %+v", n.RemoteRatio, n)
			}
		}
	}
	if !sawCaps {
		t.Fatalf("no nest carries a per-socket cap vector: %s", data)
	}

	// Single-socket answers keep the pre-topology wire format.
	resp, data = post(t, ts, "/v1/search", Request{Kernel: "gemm", Platform: "rpl", Size: "test"})
	if resp.StatusCode != 200 {
		t.Fatalf("rpl search -> %d %s", resp.StatusCode, data)
	}
	for _, key := range []string{"topology", "socket_caps", "remote_ratio", `"socket"`} {
		if strings.Contains(string(data), key) {
			t.Fatalf("single-socket answer leaks topology key %q: %s", key, data)
		}
	}

	// /v1/platforms: topology shape on the v2 entry, absent on v1 ones.
	presp, err := ts.Client().Get(ts.URL + "/v1/platforms")
	if err != nil {
		t.Fatal(err)
	}
	var pr PlatformsResponse
	if err := json.NewDecoder(presp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	presp.Body.Close()
	byName := map[string]PlatformResponse{}
	for _, p := range pr.Platforms {
		byName[p.Name] = p
	}
	p2 := byName["2S-BDW"]
	if p2.Sockets != 2 || p2.TotalThreads != 24 || p2.InterconnectGBs != 19.2 {
		t.Fatalf("2S-BDW platform entry: %+v", p2)
	}
	if p1 := byName["BDW"]; p1.Sockets != 0 || p1.Nodes != 0 || p1.TotalThreads != 0 {
		t.Fatalf("v1 platform entry grew topology fields: %+v", p1)
	}
}

// A 2-socket daemon measures where the compiler placed the nest: the
// measured half pays the link the model charged, so the calibration
// watchdog sees the same small residuals it sees on one socket and keeps
// answering. (When the machine measured every nest socket-local, the
// model was off by ~9x on parallel nests and the fourth measured search
// was refused with 503 "calibration ... is degraded".)
func TestServerTopologyMeasuredSearchKeepsCalibration(t *testing.T) {
	s := newServer(t, topologyConfig())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	baseline := map[string]float64{}
	for _, kernel := range []string{"gemm", "mvt", "atax", "gemver"} {
		resp, data := post(t, ts, "/v1/search", Request{Kernel: kernel, Platform: "2s-bdw", Size: "test", Measure: true})
		if resp.StatusCode != 200 {
			t.Fatalf("measured search %s on 2s-bdw -> %d %s", kernel, resp.StatusCode, data)
		}
		var sr SearchResponse
		if err := json.Unmarshal(data, &sr); err != nil {
			t.Fatal(err)
		}
		if sr.Measured == nil {
			t.Fatalf("%s: measured half missing", kernel)
		}
		baseline[kernel] = sr.Measured.BaselineSeconds
	}
	if d := s.statsz().Drift["2S-BDW"]; d.State != "ok" {
		t.Fatalf("2S-BDW calibration watchdog %+v after four measured searches", d)
	}

	// The link costs measured time: gemm's parallel nests run slower on
	// two BDW sockets than on one.
	resp, data := post(t, ts, "/v1/search", Request{Kernel: "gemm", Platform: "bdw", Size: "test", Measure: true})
	if resp.StatusCode != 200 {
		t.Fatalf("measured search gemm on bdw -> %d %s", resp.StatusCode, data)
	}
	var sr SearchResponse
	if err := json.Unmarshal(data, &sr); err != nil {
		t.Fatal(err)
	}
	if !(baseline["gemm"] > sr.Measured.BaselineSeconds) {
		t.Fatalf("gemm measured baseline %g s on 2s-bdw, %g s on bdw: the link was not charged",
			baseline["gemm"], sr.Measured.BaselineSeconds)
	}
}
