package hw

import (
	"math"
	"reflect"
	"testing"

	"polyufc/internal/faults"
	"polyufc/internal/platform"
)

// twoSocketBackend builds a 2-socket topology out of the embedded BDW
// description (same sockets, a QPI-shaped link).
func twoSocketBackend(t *testing.T) *platform.Backend {
	t.Helper()
	bdw, err := platform.Lookup("BDW")
	if err != nil {
		t.Fatal(err)
	}
	sock := bdw.Sockets[0]
	b := &platform.Backend{
		Schema: platform.SchemaVersion, Name: "2S-TEST",
		CPU: "test 2S", Released: 2026,
		Sockets:      []platform.Socket{sock, sock},
		Interconnect: &platform.Interconnect{BWGBs: 19.2, LatencyNs: 120, EnergyPJPerByte: 15},
	}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	return b
}

func TestNodeBootAndSocketViews(t *testing.T) {
	b := twoSocketBackend(t)
	n, err := NewNode(b)
	if err != nil {
		t.Fatal(err)
	}
	if n.NumSockets() != 2 {
		t.Fatalf("NumSockets = %d", n.NumSockets())
	}
	if b.TotalThreads() != 2*b.Sockets[0].Threads {
		t.Fatalf("TotalThreads = %d, want %d", b.TotalThreads(), 2*b.Sockets[0].Threads)
	}
	s0, _ := n.Socket(0)
	s1, _ := n.Socket(1)
	if s0.P.Socket != 0 || s1.P.Socket != 1 {
		t.Fatalf("socket indices %d/%d", s0.P.Socket, s1.P.Socket)
	}
	// Identical sockets give identical platform views, index aside.
	p1 := *s1.P
	p1.Socket = 0
	if !reflect.DeepEqual(s0.P, &p1) {
		t.Fatal("identical sockets produced different platform views")
	}
	if _, err := n.Socket(2); err == nil {
		t.Fatal("out-of-range socket resolved")
	}
	// Single-socket backends boot as 1-socket nodes.
	bdw, _ := platform.Lookup("BDW")
	nb, err := NewNode(bdw)
	if err != nil {
		t.Fatal(err)
	}
	if nb.NumSockets() != 1 || nb.B.Interconnect != nil {
		t.Fatalf("BDW node: %d sockets, ic=%v", nb.NumSockets(), nb.B.Interconnect)
	}
}

func TestMeasureNUMARemotePenalty(t *testing.T) {
	b := twoSocketBackend(t)
	n, err := NewNode(b)
	if err != nil {
		t.Fatal(err)
	}
	m, _ := n.Socket(0)
	p := &CacheProfile{
		Flops: 1 << 24, LLCMisses: 1 << 18,
		DRAMReadB: 64 << 18, DRAMWriteB: 32 << 18,
		LevelHits: []int64{1 << 20, 1 << 18, 1 << 16}, HasParallel: true,
	}
	local := m.MeasureAtNUMA(p, m.P.CoreBase, m.P.UncoreMax, 0, b.Interconnect)
	base := m.MeasureAt(p, m.P.CoreBase, m.P.UncoreMax)
	if local != base {
		t.Fatal("zero remote ratio is not bit-identical to MeasureAt")
	}
	prev := local
	for _, rho := range []float64{0.25, 0.5, 1.0} {
		r := m.MeasureAtNUMA(p, m.P.CoreBase, m.P.UncoreMax, rho, b.Interconnect)
		if !(r.Seconds > prev.Seconds) || !(r.PkgJoules > prev.PkgJoules) {
			t.Fatalf("rho=%g: remote traffic did not cost time/energy (%.3g s vs %.3g s)", rho, r.Seconds, prev.Seconds)
		}
		prev = r
	}
	// The ratio clamps at 1: over-unity input costs the same as all-remote.
	over := m.MeasureAtNUMA(p, m.P.CoreBase, m.P.UncoreMax, 2.0, b.Interconnect)
	if math.Abs(over.Seconds-prev.Seconds) > 1e-15 {
		t.Fatal("remote ratio did not clamp at 1")
	}
	// Stateful MeasureNUMA accumulates RAPL.
	m.ResetCounters()
	r := m.MeasureNUMA(p, 0.5, b.Interconnect)
	pkg, _, busy := m.RAPL()
	if pkg != r.PkgJoules || busy != r.Seconds {
		t.Fatal("MeasureNUMA did not accumulate RAPL counters")
	}
}

func TestNodePerSocketFaultIsolation(t *testing.T) {
	b := twoSocketBackend(t)
	n, err := NewNode(b)
	if err != nil {
		t.Fatal(err)
	}
	// Arm a hard EBUSY fault on socket 1 only.
	reg := faults.New(1)
	reg.Enable(FaultCapWriteBusy, faults.Spec{P: 1})
	s1, err := n.Socket(1)
	if err != nil {
		t.Fatal(err)
	}
	s1.SetFaults(reg)
	ctls := n.Controllers(CapControllerOptions{MaxRetries: 2, BestEffort: true})
	target := 1.6
	got0, err0 := ctls[0].Apply(target)
	_, err1 := ctls[1].Apply(target)
	if err0 != nil || got0 != target {
		t.Fatalf("healthy socket 0 degraded: cap=%g err=%v", got0, err0)
	}
	if err1 == nil {
		t.Fatal("faulty socket 1 applied the cap despite a hard EBUSY fault")
	}
	s0, _ := n.Socket(0)
	if s0.UncoreCap() != target {
		t.Fatalf("socket 0 cap = %g, want %g", s0.UncoreCap(), target)
	}
	if s1.UncoreCap() != s1.P.UncoreMax {
		t.Fatalf("socket 1 cap moved to %g despite write failures", s1.UncoreCap())
	}
	// A fresh controller set surfaces the failure on socket 1 but still
	// drives socket 0.
	ctls = n.Controllers(CapControllerOptions{MaxRetries: 1, BestEffort: true})
	applied0, err0 := ctls[0].Apply(1.4)
	if _, err1 := ctls[1].Apply(1.4); err1 == nil {
		t.Fatal("the socket-1 failure was swallowed")
	}
	if err0 != nil || applied0 != 1.4 {
		t.Fatalf("socket 0 cap after the second round = %g (err %v)", applied0, err0)
	}
}
