package hw

import (
	"reflect"
	"testing"

	"polyufc/internal/cachemodel"
	"polyufc/internal/faults"
	"polyufc/internal/ir"
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

// A profile's remote share pays the link: a socket-local profile on a
// 2-socket machine measures bit-identically to the same profile on the
// socket's single-socket machine (and a shared one on a machine without
// a link pays nothing), every extra share costs time and energy, and
// Measure accumulates RAPL like any run.
func TestRemoteShareChargesLink(t *testing.T) {
	b := twoSocketBackend(t)
	n, err := NewNode(b)
	if err != nil {
		t.Fatal(err)
	}
	m, _ := n.Socket(0)
	bdw := NewMachine(BDW())
	p := &CacheProfile{Result: cachemodel.Result{
		Flops:  1 << 24,
		Levels: levels([]int64{1 << 20, 1 << 18, 1 << 16}, []int64{0, 0, 1 << 18}),
		QDRAM:  64 << 18,
	}, HasParallel: true}
	local := m.MeasureAt(p, m.P.CoreBase, m.P.UncoreMax)
	if base := bdw.MeasureAt(p, m.P.CoreBase, m.P.UncoreMax); local != base {
		t.Fatal("a socket-local profile is not bit-identical to its single-socket run")
	}
	prev := local
	for _, rho := range []float64{0.25, 0.5, 1.0} {
		q := *p
		q.RemoteShare = rho
		if r := bdw.MeasureAt(&q, m.P.CoreBase, m.P.UncoreMax); r != local {
			t.Fatalf("rho=%g on a machine without a link changed the measurement", rho)
		}
		r := m.MeasureAt(&q, m.P.CoreBase, m.P.UncoreMax)
		if !(r.Seconds > prev.Seconds) || !(r.PkgJoules > prev.PkgJoules) {
			t.Fatalf("rho=%g: remote traffic did not cost time/energy (%.3g s vs %.3g s)", rho, r.Seconds, prev.Seconds)
		}
		prev = r
	}
	// Stateful Measure charges the link and accumulates RAPL.
	q := *p
	q.RemoteShare = 0.5
	m.ResetCounters()
	r := m.Measure(&q)
	pkg, _, busy := m.RAPL()
	if pkg != r.PkgJoules || busy != r.Seconds {
		t.Fatal("Measure did not accumulate RAPL counters")
	}
	if !(r.Seconds > m.Measure(p).Seconds) {
		t.Fatal("Measure did not charge the profile's remote share")
	}
}

// The machine places a nest by the platform's rule when it profiles it:
// a parallel nest on a 2-socket machine carries the (S-1)/S share, a
// serial one and any nest on one socket carry none.
func TestProfileCarriesPlacement(t *testing.T) {
	n, err := NewNode(twoSocketBackend(t))
	if err != nil {
		t.Fatal(err)
	}
	two, _ := n.Socket(0)
	A := ir.NewArray("A", 8, 128)
	for _, parallel := range []bool{false, true} {
		stmt := &ir.Statement{Name: "S", Flops: 1}
		stmt.Accesses = []ir.Access{{Array: A, Write: true, Index: []ir.AffExpr{ir.AffVar("i")}}}
		root := ir.SimpleLoop("i", ir.AffConst(0), ir.AffConst(127), stmt)
		root.Parallel = parallel
		nest := &ir.Nest{Label: "w", Root: root}
		want := 0.0
		if parallel {
			want = 0.5
		}
		for _, c := range []struct {
			m    *Machine
			want float64
		}{{two, want}, {NewMachine(BDW()), 0}} {
			prof, err := c.m.Profile(nest)
			if err != nil {
				t.Fatal(err)
			}
			if prof.RemoteShare != c.want {
				t.Fatalf("parallel=%v on %s: remote share %g, want %g", parallel, c.m.P.Name, prof.RemoteShare, c.want)
			}
		}
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
