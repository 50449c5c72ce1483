package core

import (
	"os"
	"path/filepath"
	"testing"

	"polyufc/internal/hw"
	"polyufc/internal/ir"
	"polyufc/internal/platform"
	"polyufc/internal/roofline"
	"polyufc/internal/workloads"
)

// twoSocketTarget resolves a 2-socket topology built from the embedded
// BDW description (same sockets, a QPI-shaped link), calibrated once
// per test binary.
func twoSocketTarget(t *testing.T, nodes int) *roofline.Target {
	t.Helper()
	name := "2S-CORE-TEST"
	if nodes > 1 {
		name = "2S-CORE-CLUSTER"
	}
	if tg, ok := testTargets[name]; ok {
		return tg
	}
	bdw, err := platform.Lookup("BDW")
	if err != nil {
		t.Fatal(err)
	}
	sock := bdw.Sockets[0]
	b := &platform.Backend{
		Name: name, CPU: "test 2S", Released: 2026,
		Sockets:      []platform.Socket{sock, sock},
		Interconnect: &platform.Interconnect{BWGBs: 19.2, LatencyNs: 120, EnergyPJPerByte: 15},
		Nodes:        nodes,
	}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	tg, err := roofline.Resolve(b)
	if err != nil {
		t.Fatal(err)
	}
	testTargets[name] = tg
	return tg
}

// TestSingleSocketPathUnchanged pins the single-socket surface: a
// one-socket compile has no topology rollup and zero-valued placement fields.
func TestSingleSocketPathUnchanged(t *testing.T) {
	res := compileKernel(t, "gemm", workloads.Test, hw.BDW())
	if res.Topology != nil {
		t.Fatalf("single-socket compile grew a topology rollup: %+v", res.Topology)
	}
	for _, rep := range res.Reports {
		if rep.Socket != 0 || rep.RemoteRatio != 0 || rep.SocketCaps != nil {
			t.Fatalf("%s: topology fields set on a single-socket target: %+v", rep.Label, rep)
		}
	}
}

func TestTwoSocketPlacementAndCapVectors(t *testing.T) {
	tg := twoSocketTarget(t, 0)
	cfg := DefaultConfig(tg)
	cfg.AmortizeFactor = 0
	res := compileKernelCfg(t, "gemm", workloads.Test, cfg)

	if res.Topology == nil {
		t.Fatal("2-socket compile produced no topology rollup")
	}
	tr := res.Topology
	if tr.Sockets != 2 || tr.Nodes != 1 {
		t.Fatalf("rollup shape: %d sockets, %d nodes", tr.Sockets, tr.Nodes)
	}
	if tr.ClusterEDP <= 0 || tr.ClusterEDP != tr.NodeJoules*tr.NodeSeconds {
		t.Fatalf("cluster EDP %g inconsistent with node figures %g x %g",
			tr.ClusterEDP, tr.NodeJoules, tr.NodeSeconds)
	}
	topo := tg.Backend.Sockets
	capped := 0
	for _, rep := range res.Reports {
		if rep.Degraded || rep.Est.Seconds <= 0 {
			continue
		}
		capped++
		switch {
		case rep.Socket == -1: // spans both sockets
			if rep.RemoteRatio != 0.5 {
				t.Fatalf("%s: spanning nest remote ratio %g, want 0.5", rep.Label, rep.RemoteRatio)
			}
			if rep.Threads != tg.Backend.TotalThreads() {
				t.Fatalf("%s: spanning nest threads %d, want %d", rep.Label, rep.Threads, tg.Backend.TotalThreads())
			}
			if len(rep.SocketCaps) != 2 || rep.SocketCaps[0] != rep.CapGHz || rep.SocketCaps[1] != rep.CapGHz {
				t.Fatalf("%s: spanning nest cap vector %v, want both at %g", rep.Label, rep.SocketCaps, rep.CapGHz)
			}
		case rep.Socket >= 0 && rep.Socket < 2: // pinned serial nest
			if rep.RemoteRatio != 0 {
				t.Fatalf("%s: pinned nest has remote traffic %g", rep.Label, rep.RemoteRatio)
			}
			if len(rep.SocketCaps) != 2 {
				t.Fatalf("%s: cap vector %v", rep.Label, rep.SocketCaps)
			}
			for k, c := range rep.SocketCaps {
				want := topo[k].UncoreMinGHz
				if k == rep.Socket {
					want = rep.CapGHz
				}
				if c != want {
					t.Fatalf("%s: socket %d cap %g, want %g", rep.Label, k, c, want)
				}
			}
		default:
			t.Fatalf("%s: placement socket %d out of range", rep.Label, rep.Socket)
		}
	}
	if capped == 0 {
		t.Fatal("no capped reports to check placement on")
	}
	// Both sockets see the spanning nests' time; energy attribution sums
	// back to the node total.
	var joules float64
	for k := range tr.SocketJoules {
		if tr.SocketSeconds[k] <= 0 {
			t.Fatalf("socket %d attributed no time", k)
		}
		joules += tr.SocketJoules[k]
	}
	if diff := joules - tr.NodeJoules; diff > 1e-9*tr.NodeJoules || diff < -1e-9*tr.NodeJoules {
		t.Fatalf("per-socket joules %g do not sum to the node total %g", joules, tr.NodeJoules)
	}
}

// TestSerialNestsRoundRobin compiles every registered kernel on the
// 2-socket target and checks the placement invariants hold across the
// whole suite; serial nests (threads 1) must alternate home sockets.
func TestSerialNestsRoundRobin(t *testing.T) {
	tg := twoSocketTarget(t, 0)
	cfg := DefaultConfig(tg)
	cfg.AmortizeFactor = 0
	nextSerial := -1
	sawSerial := false
	for _, k := range workloads.All() {
		res := compileKernelCfg(t, k.Name, workloads.Test, cfg)
		nextSerial = 0 // placement counter restarts per compilation
		for _, rep := range res.Reports {
			if rep.Threads == 1 && rep.Socket >= 0 {
				sawSerial = true
				if rep.Socket != nextSerial%2 {
					t.Fatalf("%s/%s: serial nest on socket %d, want round-robin %d",
						k.Name, rep.Label, rep.Socket, nextSerial%2)
				}
				nextSerial++
			}
		}
	}
	if !sawSerial {
		t.Skip("no serial nests in the registered kernels at test size")
	}
}

func TestClusterScaling(t *testing.T) {
	tg := twoSocketTarget(t, 4)
	cfg := DefaultConfig(tg)
	cfg.AmortizeFactor = 0
	res := compileKernelCfg(t, "gemm", workloads.Test, cfg)
	tr := res.Topology
	if tr == nil || tr.Nodes != 4 {
		t.Fatalf("cluster rollup: %+v", tr)
	}
	if tr.ClusterJoules != 4*tr.NodeJoules {
		t.Fatalf("cluster energy %g, want 4x node %g", tr.ClusterJoules, tr.NodeJoules)
	}
	if tr.ClusterSeconds != tr.NodeSeconds {
		t.Fatal("data-parallel replicas changed the BSP step time")
	}
	if tr.ClusterEDPDefault <= 0 {
		t.Fatal("no default-driver cluster EDP to compare against")
	}
}

// The compiler and the machine place a nest by the same rule: for every
// kernel on every shipped topology shape, each nest's modeled remote
// share equals the remote share of the profile the target's machine
// builds for it — so a measured answer pays the link the model charged,
// and a socket-local one pays none.
func TestPlacementModelMatchesMachine(t *testing.T) {
	var targets []*roofline.Target
	for _, name := range []string{"BDW", "RPL"} {
		p, err := hw.PlatformByName(name)
		if err != nil {
			t.Fatal(err)
		}
		targets = append(targets, targetFor(t, p))
	}
	// Parse, don't LoadFile: registering would leak the descriptions into
	// other tests' platform.All().
	for _, file := range []string{"2-socket-bdw.json", "wide-uncore.json", "cluster-2s-bdw.json"} {
		data, err := os.ReadFile(filepath.Join("..", "..", "platforms", file))
		if err != nil {
			t.Fatal(err)
		}
		b, err := platform.Parse(data)
		if err != nil {
			t.Fatal(err)
		}
		tg, err := roofline.Resolve(b)
		if err != nil {
			t.Fatal(err)
		}
		targets = append(targets, tg)
	}
	for _, tg := range targets {
		m := hw.NewMachine(tg.Platform)
		spanning := 0
		for _, k := range workloads.All() {
			res := compileKernelCfg(t, k.Name, workloads.Test, DefaultConfig(tg))
			i := 0
			for _, f := range res.Module.Funcs {
				for _, op := range f.Ops {
					nest, ok := op.(*ir.Nest)
					if !ok {
						continue
					}
					rep := res.Reports[i]
					i++
					prof, err := m.Profile(nest)
					if err != nil {
						t.Fatal(err)
					}
					if rep.RemoteRatio != prof.RemoteShare {
						t.Errorf("%s %s/%s: model places remote share %g, machine measures %g",
							tg.Platform.Name, k.Name, rep.Label, rep.RemoteRatio, prof.RemoteShare)
					}
					if prof.RemoteShare > 0 {
						spanning++
					}
				}
			}
		}
		if multi := tg.NumSockets() > 1; multi != (spanning > 0) {
			t.Errorf("%s (%d sockets): %d nests measured across the link", tg.Platform.Name, tg.NumSockets(), spanning)
		}
	}
}
