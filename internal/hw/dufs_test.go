package hw

import (
	"math"
	"testing"

	"polyufc/internal/cachemodel"
)

// longCBProfile is a compute-bound kernel long enough for the governor to
// converge (seconds of work).
func longCBProfile() *CacheProfile {
	p := cbProfile()
	p.Flops *= 100
	p.Instances *= 100
	p.Levels = levels([]int64{3e11, 5e9, 4e9}, []int64{1e8, 5e7, 1e8})
	p.QDRAM *= 100
	return p
}

func longBBProfile() *CacheProfile {
	p := bbProfile()
	p.Flops *= 100
	p.Levels = levels([]int64{3e7, 5e6, 2e6}, []int64{2e7, 1.5e7, 1e9})
	p.QDRAM *= 100
	return p
}

func TestDUFSStepsDownForCB(t *testing.T) {
	m := NewMachine(BDW())
	g := DefaultDUFS()
	r := g.RunProfile(m, longCBProfile())
	if r.UncoreGHz >= m.P.UncoreMax {
		t.Fatalf("governor stayed at max (%.1f) for a compute-bound kernel", r.UncoreGHz)
	}
	// Energy must beat running pinned at max.
	pinned := m.MeasureAt(longCBProfile(), m.P.CoreBase, m.P.UncoreMax)
	if r.PkgJoules >= pinned.PkgJoules {
		t.Fatalf("DUFS energy %.3f J >= pinned-max %.3f J", r.PkgJoules, pinned.PkgJoules)
	}
}

func TestDUFSStaysHighForBB(t *testing.T) {
	m := NewMachine(RPL())
	g := DefaultDUFS()
	r := g.RunProfile(m, longBBProfile())
	mid := (m.P.UncoreMin + m.P.UncoreMax) / 2
	if r.UncoreGHz <= mid {
		t.Fatalf("governor dropped to %.1f GHz on a bandwidth-bound kernel", r.UncoreGHz)
	}
}

func TestDUFSConvergencePaysLag(t *testing.T) {
	// For a CB kernel the governor must descend one step per interval:
	// its energy sits between the pinned-max and the oracle-min values.
	m := NewMachine(BDW())
	g := DefaultDUFS()
	prof := longCBProfile()
	r := g.RunProfile(m, prof)
	oracle := m.MeasureAt(prof, m.P.CoreBase, m.P.UncoreMin)
	pinned := m.MeasureAt(prof, m.P.CoreBase, m.P.UncoreMax)
	if !(r.PkgJoules > oracle.PkgJoules && r.PkgJoules < pinned.PkgJoules) {
		t.Fatalf("DUFS energy %.3f not in (oracle %.3f, pinned %.3f)",
			r.PkgJoules, oracle.PkgJoules, pinned.PkgJoules)
	}
}

func TestDUFSShortKernelBarelyAdapts(t *testing.T) {
	// A sub-interval kernel finishes before the first decision: the
	// control-loop latency the paper contrasts with compile-time capping.
	m := NewMachine(BDW())
	g := DefaultDUFS()
	short := &CacheProfile{Result: cachemodel.Result{ // microseconds of work
		Flops: 2e6, Instances: 1e6, Loads: 3e6,
		Levels: levels([]int64{3e6, 5e4, 4e4}, []int64{1e5, 5e4, 1e3}),
		QDRAM:  64e3,
	}, HasParallel: true}
	r := g.RunProfile(m, short)
	if r.UncoreGHz != m.P.UncoreMax {
		t.Fatalf("short kernel should finish at the start frequency, got %.1f", r.UncoreGHz)
	}
}

func TestDUFSSessionCarriesState(t *testing.T) {
	m := NewMachine(BDW())
	g := DefaultDUFS()
	profs := []*CacheProfile{longCBProfile(), longCBProfile()}
	r := g.RunNests(m, profs)
	if r.Seconds <= 0 || r.PkgJoules <= 0 {
		t.Fatalf("bad aggregate %+v", r)
	}
	// After two long CB kernels the carried frequency must be low.
	if r.UncoreGHz > (m.P.UncoreMin+m.P.UncoreMax)/2 {
		t.Fatalf("carried frequency %.1f still high after CB session", r.UncoreGHz)
	}
}

func TestDUFSEnergyConservation(t *testing.T) {
	// Piecewise integration sanity: energy = avg power x time.
	m := NewMachine(RPL())
	g := DefaultDUFS()
	r := g.RunProfile(m, longBBProfile())
	if math.Abs(r.AvgWatts*r.Seconds-r.PkgJoules) > 1e-9*r.PkgJoules+1e-12 {
		t.Fatal("energy integration inconsistent")
	}
}
