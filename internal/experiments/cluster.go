package experiments

import (
	"fmt"

	"polyufc/internal/core"
	"polyufc/internal/platform"
	"polyufc/internal/roofline"
)

// ClusterRow is one kernel's topology answer on a multi-socket backend:
// the per-socket cap vector the compiler selected, the node-level
// makespan and energy it predicts, and the cluster EDP rollup swept over
// node counts. Cluster EDP is linear in the node count on both sides of
// the comparison (N replicas spend N times the energy over the same BSP
// step time), so the capped-vs-default gain is N-invariant — the sweep
// shows the absolute scale, the gain column the win.
type ClusterRow struct {
	Kernel  string
	Sockets int
	// SocketCaps is the per-socket uncore cap vector in force when the
	// module finishes (the last nest's vector).
	SocketCaps []float64
	// NodeSeconds / NodeJoules are one node's predicted makespan and
	// energy at the selected caps.
	NodeSeconds float64
	NodeJoules  float64
	// ClusterEDP[i] / ClusterEDPDefault[i] are the rollups at Nodes[i]
	// replicas, at the selected caps and at the driver default.
	Nodes             []int
	ClusterEDP        []float64
	ClusterEDPDefault []float64
	// GainPct is the N-invariant cluster EDP improvement of the selected
	// cap vector over the driver default.
	GainPct float64
}

// clusterNodeCounts is the node-count sweep of the cluster experiment.
var clusterNodeCounts = []int{1, 2, 4, 8, 16}

// clusterKernels are the kernels the cluster experiment compiles: the
// paper's dense/bandwidth/latency mix.
var clusterKernels = []string{"gemm", "mvt", "bicg", "jacobi-1d"}

// clusterBackends returns the topology backends the experiment sweeps:
// every registered multi-socket description (platforms/*.json loaded via
// -platform-file, e.g. platforms/2-socket-bdw.json or the 8-node
// platforms/cluster-2s-bdw.json), or — when none is registered — a
// synthetic 2-socket replica of the paper's BDW machine joined by a
// QPI-shaped link, so the experiment runs out of the box.
func clusterBackends() ([]*platform.Backend, error) {
	var out []*platform.Backend
	for _, b := range platform.All() {
		if b.NumSockets() > 1 || b.NumNodes() > 1 {
			out = append(out, b)
		}
	}
	if len(out) > 0 {
		return out, nil
	}
	bdw, err := platform.Lookup("BDW")
	if err != nil {
		return nil, err
	}
	sock := bdw.Sockets[0]
	b := &platform.Backend{
		Name: "BDW-2S", CPU: "2x " + bdw.CPU, Released: bdw.Released,
		Sockets:      []platform.Socket{sock, sock},
		Interconnect: &platform.Interconnect{BWGBs: 19.2, LatencyNs: 120, EnergyPJPerByte: 15},
	}
	if err := b.Validate(); err != nil {
		return nil, err
	}
	return []*platform.Backend{b}, nil
}

// ClusterSweep compiles the kernels for one topology backend and rolls
// the answers up to cluster EDP over the node counts. The backend
// calibrates once (homogeneous sockets share socket 0's calibration);
// every node count reads the same compile — scaling a cluster never
// re-runs the micro-benchmarks.
func (s *Suite) ClusterSweep(t *roofline.Target, kernels []string, nodes []int) ([]ClusterRow, error) {
	var out []ClusterRow
	for _, name := range kernels {
		res, err := s.compile(name, core.DefaultConfig(t))
		if err != nil {
			if s.bestEffort() {
				s.noteDegraded(name, err)
				continue
			}
			return nil, err
		}
		tp := res.Topology
		if tp == nil {
			return nil, fmt.Errorf("experiments: %s on %s: no topology rollup from a %d-socket backend",
				name, t.Backend.Name, t.NumSockets())
		}
		row := ClusterRow{
			Kernel: name, Sockets: tp.Sockets,
			NodeSeconds: tp.NodeSeconds, NodeJoules: tp.NodeJoules,
			Nodes: nodes, SocketCaps: res.FinalSocketCaps(),
		}
		// The rollup is linear in N: rescale the backend's own node count
		// to each swept one.
		for _, n := range nodes {
			scale := float64(n) / float64(tp.Nodes)
			row.ClusterEDP = append(row.ClusterEDP, tp.ClusterEDP*scale)
			row.ClusterEDPDefault = append(row.ClusterEDPDefault, tp.ClusterEDPDefault*scale)
		}
		if tp.ClusterEDPDefault > 0 {
			row.GainPct = 100 * (1 - tp.ClusterEDP/tp.ClusterEDPDefault)
		}
		out = append(out, row)
	}
	return out, nil
}

// RenderCluster prints the cluster-scale energy sweep: per-socket cap
// vectors and the cluster EDP rollup per node count, one shared
// calibration per topology backend.
func (s *Suite) RenderCluster() error {
	s.printf("== Cluster sweep: per-socket caps and cluster EDP (N data-parallel replicas) ==\n")
	backends, err := clusterBackends()
	if err != nil {
		return err
	}
	for _, b := range backends {
		t, err := s.calibrate(s.ctx(), b)
		if err != nil {
			return err
		}
		link := "no interconnect"
		if ic := b.Interconnect; ic != nil {
			link = fmt.Sprintf("link %g GB/s, %g ns", ic.BWGBs, ic.LatencyNs)
		}
		s.printf("-- %s: %d sockets x %d threads, %s; calibrated once\n",
			b.Name, b.NumSockets(), b.Sockets[0].Threads, link)
		rows, err := s.ClusterSweep(t, clusterKernels, clusterNodeCounts)
		if err != nil {
			return err
		}
		s.printf("   %-10s %-14s %10s %10s | cluster EDP (mJ*s) at N in %v | gain\n",
			"kernel", "caps (GHz)", "node-s", "node-mJ", clusterNodeCounts)
		for _, r := range rows {
			caps := ""
			for i, c := range r.SocketCaps {
				if i > 0 {
					caps += " "
				}
				caps += fmt.Sprintf("%.1f", c)
			}
			edps := ""
			for i, e := range r.ClusterEDP {
				if i > 0 {
					edps += " "
				}
				edps += fmt.Sprintf("%.3f", e*1e3)
			}
			s.printf("   %-10s %-14s %10.6f %10.3f | %s | %+5.1f%%\n",
				r.Kernel, caps, r.NodeSeconds, r.NodeJoules*1e3, edps, r.GainPct)
		}
		s.renderDegraded()
	}
	return nil
}
