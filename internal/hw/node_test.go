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
		Name: "2S-TEST", CPU: "test 2S", Released: 2026,
		Sockets:      []platform.Socket{sock, sock},
		Interconnect: &platform.Interconnect{BWGBs: 19.2, LatencyNs: 120, EnergyPJPerByte: 15},
	}
	if err := b.Validate(); err != nil {
		t.Fatal(err)
	}
	return b
}

// socketMachines boots a backend's sockets and returns their machines.
func socketMachines(t *testing.T, b *platform.Backend) []*Machine {
	t.Helper()
	ctls, err := SocketControllers(b, CapControllerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	out := make([]*Machine, len(ctls))
	for i, c := range ctls {
		out[i] = c.Machine()
	}
	return out
}

func TestNodeBootAndSocketViews(t *testing.T) {
	b := twoSocketBackend(t)
	ctls, err := SocketControllers(b, CapControllerOptions{JitterSeed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if len(ctls) != 2 {
		t.Fatalf("%d socket controllers, want 2", len(ctls))
	}
	if b.TotalThreads() != 2*b.Sockets[0].Threads {
		t.Fatalf("TotalThreads = %d, want %d", b.TotalThreads(), 2*b.Sockets[0].Threads)
	}
	s0, s1 := ctls[0].Machine(), ctls[1].Machine()
	if s0.P.Socket != 0 || s1.P.Socket != 1 {
		t.Fatalf("socket indices %d/%d", s0.P.Socket, s1.P.Socket)
	}
	// Each socket's controller draws its own backoff jitter.
	if ctls[0].opts.JitterSeed != 7 || ctls[1].opts.JitterSeed != 8 {
		t.Fatalf("jitter seeds %d/%d, want 7/8", ctls[0].opts.JitterSeed, ctls[1].opts.JitterSeed)
	}
	// Identical sockets give identical platform views, index aside.
	p1 := *s1.P
	p1.Socket = 0
	if !reflect.DeepEqual(s0.P, &p1) {
		t.Fatal("identical sockets produced different platform views")
	}
	if _, err := SocketPlatform(b, 2); err == nil {
		t.Fatal("out-of-range socket resolved")
	}
	// Single-socket backends boot one socket.
	bdw, _ := platform.Lookup("BDW")
	if ms := socketMachines(t, bdw); len(ms) != 1 || ms[0].P.Backend.Interconnect != nil {
		t.Fatalf("BDW: %d sockets, ic=%v", len(ms), bdw.Interconnect)
	}
}

// A profile's remote share pays the link: a socket-local profile on a
// 2-socket machine measures bit-identically to the same profile on the
// socket's single-socket machine (and a shared one on a machine without
// a link pays nothing), every extra share costs time and energy, and
// Measure accumulates RAPL like any run.
func TestRemoteShareChargesLink(t *testing.T) {
	m := socketMachines(t, twoSocketBackend(t))[0]
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
	two := socketMachines(t, twoSocketBackend(t))[0]
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
	ctls, err := SocketControllers(b, CapControllerOptions{MaxRetries: 2, BestEffort: true})
	if err != nil {
		t.Fatal(err)
	}
	// Arm a hard EBUSY fault on socket 1 only.
	reg := faults.New(1)
	reg.Enable(FaultCapWriteBusy, faults.Spec{P: 1})
	s0, s1 := ctls[0].Machine(), ctls[1].Machine()
	s1.SetFaults(reg)
	target := 1.6
	got0, err0 := ctls[0].Apply(target)
	_, err1 := ctls[1].Apply(target)
	if err0 != nil || got0 != target {
		t.Fatalf("healthy socket 0 degraded: cap=%g err=%v", got0, err0)
	}
	if err1 == nil {
		t.Fatal("faulty socket 1 applied the cap despite a hard EBUSY fault")
	}
	if s0.UncoreCap() != target {
		t.Fatalf("socket 0 cap = %g, want %g", s0.UncoreCap(), target)
	}
	if s1.UncoreCap() != s1.P.UncoreMax {
		t.Fatalf("socket 1 cap moved to %g despite write failures", s1.UncoreCap())
	}
	// A fresh controller per socket over the same machines surfaces the
	// failure on socket 1 but still drives socket 0.
	opts := CapControllerOptions{MaxRetries: 1, BestEffort: true}
	applied0, err0 := NewCapController(s0, opts).Apply(1.4)
	if _, err1 := NewCapController(s1, opts).Apply(1.4); err1 == nil {
		t.Fatal("the socket-1 failure was swallowed")
	}
	if err0 != nil || applied0 != 1.4 {
		t.Fatalf("socket 0 cap after the second round = %g (err %v)", applied0, err0)
	}
}
