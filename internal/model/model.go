// Package model implements the Sec. V parametric performance/power/energy
// model of PolyUFC: execution time decomposed into compute and memory
// components (Eqns. 2-4), performance and bandwidth (Eqns. 5-6), peak and
// average power (Eqns. 8 and 10), energy (Eqn. 11) and EDP, all parametric
// in the uncore frequency cap f_c and the statically computed operational
// intensity.
package model

import (
	"math"

	"polyufc/internal/cachemodel"
	"polyufc/internal/platform"
	"polyufc/internal/roofline"
)

// KernelStats are the per-kernel inputs of the model, produced by
// PolyUFC-CM (Sec. IV): flop count, traffic, and the per-level hit/miss
// ratio chain.
type KernelStats struct {
	Flops  int64
	QBytes int64 // requested bytes (loads+stores x element size)
	QDRAM  int64 // LLC<->DRAM bytes (thread-shared figure, used for OI)
	// QDRAMTime is the total physical DRAM traffic driving the time and
	// bandwidth terms: the thread-sharing heuristic divides QDRAM for
	// characterization, but wall time is governed by the undivided volume
	// over the shared memory system.
	QDRAMTime int64
	OI        float64
	// HitRatio[i], MissRatio[i] per cache level, L1 first.
	HitRatio  []float64
	MissRatio []float64
	// Threads the kernel will run with (OpenMP).
	Threads int
	// RemoteRatio is the fraction of DRAM traffic served from a remote
	// socket across the interconnect (the NUMA intensive coordinate);
	// 0 on single-socket placements.
	RemoteRatio float64
}

// FromCacheModel converts a PolyUFC-CM result into model inputs.
func FromCacheModel(r *cachemodel.Result, threads int) KernelStats {
	div := int64(r.ThreadsDiv)
	if div < 1 {
		div = 1
	}
	ks := KernelStats{
		Flops: r.Flops, QBytes: r.QBytes, QDRAM: r.QDRAM,
		QDRAMTime: r.QDRAM * div, OI: r.OI,
		Threads: threads,
	}
	for _, lv := range r.Levels {
		ks.HitRatio = append(ks.HitRatio, lv.HitRatio)
		ks.MissRatio = append(ks.MissRatio, lv.MissRatio)
	}
	return ks
}

// Estimate is the model's prediction at one uncore frequency.
type Estimate struct {
	FGHz      float64
	Seconds   float64 // T_{f,I} (Eqn. 2)
	TCompute  float64 // T^Omega (Eqn. 3)
	TMemory   float64 // T^Q (Eqn. 4)
	GFlops    float64 // Perf (Eqn. 5), in Gflop/s
	GBs       float64 // BW (Eqn. 6), in GB/s
	Watts     float64 // P_{f,I} (Eqn. 10)
	PeakWatts float64 // P̂ ceiling (Eqn. 8)
	Joules    float64 // E_{f,I} (Eqn. 11)
	EDP       float64 // E x T
	Class     roofline.Class
}

// Model evaluates the Sec. V equations for one kernel on one calibrated
// platform.
type Model struct {
	C  *roofline.Constants
	KS KernelStats
	// Remote is the cost of the link the kernel's RemoteRatio share of
	// DRAM traffic crosses (platform.Backend.Link); zero on a single-socket
	// machine, where the inter-socket term adds 0 to the original
	// equations.
	Remote platform.LinkCost
}

// New builds a model instance. A topology caller sets Remote.
func New(c *roofline.Constants, ks KernelStats) *Model {
	return &Model{C: c, KS: ks}
}

// RemoteShare is the fraction of the kernel's DRAM traffic that crosses
// the inter-socket link: RemoteRatio clamped into [0, 1].
func (m *Model) RemoteShare() float64 {
	if !(m.KS.RemoteRatio > 0) {
		return 0
	}
	return math.Min(m.KS.RemoteRatio, 1)
}

// Class returns the kernel's CB/BB characterization (Sec. IV-D).
func (m *Model) Class() roofline.Class { return m.C.Classify(m.KS.OI) }

// At evaluates the model at uncore frequency f (GHz) with the cores at the
// clock the constants were calibrated at.
func (m *Model) At(f float64) Estimate { return m.at(coreClock{rel: 1}, f) }

// coreClock is the core clock an evaluation assumes, against the one the
// constants were calibrated at: rel is their ratio and dGHz their
// difference; floor is the share of per-flop energy that does not scale
// with the clock. The zero clock with rel 1 is the calibration's own, at
// which every core-clocked term is its calibrated constant exactly — it
// divides by no calibrated clock, so hand-built Constants need none.
type coreClock struct{ rel, dGHz, floor float64 }

// at evaluates the Sec. V equations at one core clock and uncore
// frequency f: the one copy of them, behind At and AtJoint.
func (m *Model) at(cc coreClock, f float64) Estimate {
	c, ks := m.C, m.KS
	th := float64(maxInt(ks.Threads, 1))

	// Eqn. 3: compute time at full machine throughput, which scales with
	// the core clock; a serial kernel only uses one core's share of the
	// peak.
	perThreadTFpu := c.TFpu * float64(maxInt(threadsOfPeak(c), 1)) / cc.rel
	tComp := float64(ks.Flops) * perThreadTFpu / th

	// Eqn. 4: memory time. The requested volume Q is served at level i
	// with probability (prod_{j<i} miss_j) * hit_i, at the core-clocked hit
	// latency H_i; what misses everywhere goes to DRAM at the f-dependent
	// per-byte service time M^t(f).
	q := float64(ks.QBytes)
	tMem := 0.0
	chain := 1.0
	for i := range ks.HitRatio {
		perAccess := c.HitLatency[i] / cc.rel
		// Convert the per-access service time into per-byte by the
		// element granularity implied by QBytes/accesses; the calibrated
		// HitLatency is per access, so scale by accesses = Q/elem. To stay
		// element-size agnostic we fold H_i per byte using 8-byte elements
		// (the calibration bench granularity).
		tMem += chain * ks.HitRatio[i] * (q / 8.0) * perAccess
		chain *= ks.MissRatio[i]
	}
	tMem /= th // hits served concurrently across threads
	qTime := ks.QDRAMTime
	if qTime == 0 {
		qTime = ks.QDRAM
	}
	tDRAM := float64(qTime) * c.MissLat(f)
	tMem += tDRAM

	// Inter-socket traffic term: the remote fraction of DRAM bytes pays
	// the link's per-byte service time serially — the link is a shared
	// resource the uncore cap does not clock, so the term is frequency-
	// independent (it deepens the memory-bound plateau, pushing optimal
	// caps down). Zero bytes or a zero cost add exactly 0.
	remoteBytes := m.RemoteShare() * float64(qTime)
	tMem += remoteBytes * m.Remote.SecPerByte

	t := tComp + tMem
	if t <= 0 {
		t = 1e-12
	}

	perf := float64(ks.Flops) / t
	bw := float64(qTime) / t

	// Eqn. 10: average power, CB/BB specialization. kappa(f) = alpha*f +
	// gamma converts achieved DRAM bandwidth into uncore dynamic power.
	// Per-flop core energy follows the voltage-floor DVFS law, and PCon,
	// which includes the core clock tree at the calibration clock, moves
	// with the clock difference.
	eFlop := c.EFpu * (cc.floor + (1-cc.floor)*cc.rel*cc.rel)
	pUncore := c.UncorePower(f, bw)
	pCore := eFlop * perf
	pCon := c.PCon + c.CoreIdleWPerGHz*cc.dGHz
	watts := pCon + pCore + pUncore

	// Eqn. 8: peak power ceiling; the flop-engine roof scales with the
	// core clock times the per-flop energy law.
	pFpu := c.PFpuHat * cc.rel * (cc.floor + (1-cc.floor)*cc.rel*cc.rel)
	var peak float64
	cls := m.Class()
	if cls == roofline.ComputeBound {
		peak = c.PCon + c.PeakDRAMPower(f)*(c.BtDRAM/math.Max(ks.OI, 1e-9)) + pFpu
	} else {
		peak = c.PCon + c.PeakDRAMPower(f) + pFpu*(ks.OI/c.BtDRAM)
	}

	// Eqn. 11: E = Omega*e_FPU + T^Q * P (compute energy plus
	// time-weighted platform power for the memory phase; the constant and
	// uncore power also burn during compute), plus the link's transfer
	// energy — the platform power of the link's seconds is already in t.
	joules := float64(ks.Flops)*eFlop + t*(pCon+pUncore) +
		remoteBytes*m.Remote.JoulesPerByte

	return Estimate{
		FGHz: f, Seconds: t, TCompute: tComp, TMemory: tMem,
		GFlops: perf / 1e9, GBs: bw / 1e9,
		Watts: watts, PeakWatts: peak,
		Joules: joules, EDP: joules * t,
		Class: cls,
	}
}

// threadsOfPeak reports how many threads the calibrated peak assumed: the
// calibration benches run fully parallel, so TFpu is whole-machine. The
// count is recorded by the calibration from the backend description —
// hand-built Constants without it are treated as single-thread peaks.
func threadsOfPeak(c *roofline.Constants) int {
	if c.CalibThreads > 0 {
		return c.CalibThreads
	}
	return 1
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Deltas are the relative changes PolyUFC-SEARCH steers by (Sec. VI-C).
type Deltas struct {
	Perf, BW, EDP float64
}

// DeltasBetween computes new/old ratios.
func DeltasBetween(old, new Estimate) Deltas {
	return Deltas{
		Perf: safeRatio(new.GFlops, old.GFlops),
		BW:   safeRatio(new.GBs, old.GBs),
		EDP:  safeRatio(new.EDP, old.EDP),
	}
}

func safeRatio(a, b float64) float64 {
	if b == 0 {
		return 1
	}
	return a / b
}
