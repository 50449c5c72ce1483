package experiments

import (
	"bytes"
	"math"
	"os"
	"strings"
	"testing"

	"polyufc/internal/platform"
	"polyufc/internal/workloads"
)

func TestClusterSweepShapes(t *testing.T) {
	s := suite(t)
	backends, err := clusterBackends()
	if err != nil {
		t.Fatal(err)
	}
	// No topology description is registered in tests: the synthetic
	// 2-socket BDW replica steps in.
	if len(backends) != 1 || backends[0].NumSockets() != 2 {
		t.Fatalf("cluster backends: %+v", backends)
	}
	tg, err := s.calibrate(s.ctx(), backends[0])
	if err != nil {
		t.Fatal(err)
	}
	rows, err := s.ClusterSweep(tg, clusterKernels, clusterNodeCounts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(clusterKernels) {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if r.Sockets != 2 || len(r.SocketCaps) != 2 {
			t.Fatalf("%s: socket shape %+v", r.Kernel, r)
		}
		if r.NodeSeconds <= 0 || r.NodeJoules <= 0 {
			t.Fatalf("%s: node figures %+v", r.Kernel, r)
		}
		if len(r.ClusterEDP) != len(clusterNodeCounts) {
			t.Fatalf("%s: sweep length %d", r.Kernel, len(r.ClusterEDP))
		}
		// Cluster EDP is linear in N; the gain is N-invariant.
		for i, n := range clusterNodeCounts {
			want := float64(n) * r.ClusterEDP[0] / float64(clusterNodeCounts[0])
			if math.Abs(r.ClusterEDP[i]-want) > 1e-12*want {
				t.Fatalf("%s: EDP not linear in N: %v", r.Kernel, r.ClusterEDP)
			}
			if r.ClusterEDPDefault[i] < r.ClusterEDP[i] {
				continue
			}
		}
		if r.GainPct < 0 {
			t.Fatalf("%s: selected caps lose to the default: %+v", r.Kernel, r)
		}
	}
}

// The 8-node JSON description drives the same sweep end to end: its
// rollup at its own node count matches the per-node figures times eight.
func TestClusterSweepFromJSONDescription(t *testing.T) {
	s := suite(t)
	// Parse, don't LoadFile: registering the cluster backend would leak
	// it into every other test's platform.All().
	data, err := os.ReadFile("../../platforms/cluster-2s-bdw.json")
	if err != nil {
		t.Fatal(err)
	}
	b, err := platform.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	if b.NumNodes() != 8 || b.NumSockets() != 2 {
		t.Fatalf("cluster description shape: %d nodes, %d sockets", b.NumNodes(), b.NumSockets())
	}
	tg, err := s.calibrate(s.ctx(), b)
	if err != nil {
		t.Fatal(err)
	}
	rows, err := s.ClusterSweep(tg, []string{"gemm"}, []int{8})
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	want := 8 * r.NodeJoules * r.NodeSeconds
	if math.Abs(r.ClusterEDP[0]-want) > 1e-9*want {
		t.Fatalf("8-node rollup %g, want %g", r.ClusterEDP[0], want)
	}
}

func TestRenderCluster(t *testing.T) {
	s := suite(t)
	var buf bytes.Buffer
	prev := s.Out
	s.Out = &buf
	defer func() { s.Out = prev }()
	if err := s.Run("cluster"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"Cluster sweep", "BDW-2S", "2 sockets", "gemm", "gain"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render misses %q:\n%s", want, out)
		}
	}
}

// RenderCluster and RenderValidate share one fit per multi-socket backend:
// the cluster block calibrates each, the validation block that follows
// hits the suite's calibration memo and fits nothing anew.
func TestClusterAndValidateShareOneCalibration(t *testing.T) {
	s, err := New(workloads.Test, nil)
	if err != nil {
		t.Fatal(err)
	}
	backends, err := clusterBackends()
	if err != nil {
		t.Fatal(err)
	}
	multi := 0
	for _, b := range backends {
		if b.NumSockets() > 1 {
			multi++
		}
	}
	if multi == 0 {
		t.Fatal("no multi-socket backend to validate on")
	}
	_, misses0 := s.calibrations.Stats()
	if err := s.RenderCluster(); err != nil {
		t.Fatal(err)
	}
	hits1, misses1 := s.calibrations.Stats()
	if misses1-misses0 != int64(len(backends)) {
		t.Fatalf("RenderCluster calibrated %d backends, want %d", misses1-misses0, len(backends))
	}
	if err := s.RenderValidate(); err != nil {
		t.Fatal(err)
	}
	hits2, misses2 := s.calibrations.Stats()
	if misses2 != misses1 || hits2-hits1 != int64(multi) {
		t.Fatalf("RenderValidate: %d new fits and %d memo hits, want 0 and %d", misses2-misses1, hits2-hits1, multi)
	}
}
