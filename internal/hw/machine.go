package hw

import (
	"errors"
	"fmt"
	"math"

	"polyufc/internal/cachemodel"
	"polyufc/internal/cachesim"
	"polyufc/internal/faults"
	"polyufc/internal/ir"
)

// CacheProfile is the frequency-independent execution profile of one
// kernel on one platform: the simulator's traffic record of the nest
// (cachemodel.Simulate — the same per-level counts PolyUFC-CM models) plus
// where the machine runs it. Profiles are reused across uncore frequency
// sweeps, since cache behaviour does not depend on the uncore clock.
type CacheProfile struct {
	cachemodel.Result
	HasParallel bool
	// RemoteShare is the fraction of QDRAM served across the link, set by
	// platform.Backend.RemoteShare where a machine profiles a nest;
	// ProfileNest and the calibration micro-benchmarks leave it 0 (local).
	RemoteShare float64
	Label       string
}

// Machine is a platform with driver state and RAPL-style energy counters.
type Machine struct {
	P *Platform
	// uncoreCap is the active cap set through the UFS driver.
	uncoreCap float64
	// capSwitches counts cap changes (each costs CapLatency).
	capSwitches int64
	// RAPL accumulators (joules) and total busy time (seconds).
	pkgEnergy    float64
	uncoreEnergy float64
	busyTime     float64
	// own memoizes Profile on a machine that has no shared cache attached;
	// shared, when set, is the memo instead, across machines.
	own    ProfileCache
	shared *ProfileCache
	// faults, when non-nil, arms the injectable UFS failure modes of the
	// Fault* points below; prevCap backs the stale read-back model and
	// thermalOverrides counts silent firmware cap raises.
	faults           *faults.Registry
	prevCap          float64
	thermalOverrides int64
}

// NewMachine boots a platform with the uncore at its maximum frequency
// (the default UFS driver behaviour under load: no capping, the
// over-provisioning the paper targets).
func NewMachine(p *Platform) *Machine {
	return &Machine{P: p, uncoreCap: p.UncoreMax, prevCap: p.UncoreMax}
}

// UncoreCap returns the active uncore frequency cap in GHz.
func (m *Machine) UncoreCap() float64 { return m.uncoreCap }

// CapSwitches returns how many cap changes the UFS driver performed.
func (m *Machine) CapSwitches() int64 { return m.capSwitches }

// SetUncoreCap emulates the intel_uncore_frequency driver on a healthy
// path: the requested cap is clamped to the platform range and 0.1 GHz
// granularity; changing the cap costs CapLatency of wall-clock time
// (accounted to busyTime and constant power). It never fails, even with
// faults armed — the fallible driver interface is WriteUncoreCap.
func (m *Machine) SetUncoreCap(ghz float64) float64 {
	f := m.P.ClampCap(ghz)
	if f != m.uncoreCap {
		m.prevCap = m.uncoreCap
		m.uncoreCap = f
		m.capSwitches++
		m.busyTime += m.P.CapLatency
		m.pkgEnergy += m.P.CapLatency * m.P.truth.PConstW
	}
	return f
}

// Named fault points of the simulated UFS driver (see internal/faults).
const (
	// FaultCapWriteBusy makes WriteUncoreCap fail with ErrCapBusy, the
	// transient EBUSY a firmware-mediated MSR write returns under
	// contention (Sec. VII-F).
	FaultCapWriteBusy = "ufs.write.ebusy"
	// FaultCapWriteClamp makes the firmware silently apply one CapStep
	// below the requested value (detected only by read-back).
	FaultCapWriteClamp = "ufs.write.clamp"
	// FaultCapReadStale makes ReadUncoreCap return the previous cap value
	// once, modelling a read racing the in-flight firmware update.
	FaultCapReadStale = "ufs.read.stale"
	// FaultThermalOverride makes a measurement end with the firmware
	// silently raising the cap to the platform maximum (a thermal/turbo
	// event); only a watchdog re-read can detect it.
	FaultThermalOverride = "ufs.thermal.override"
	// FaultMeasureDrift makes the hidden hardware model run slower than
	// the calibrated constants predict (DIMM training gone stale, a BIOS
	// update, silent memory-controller throttling): every measurement the
	// fault fires on takes DriftTimeFactor longer at the same power. The
	// model itself is untouched, so model-vs-measured residuals degrade —
	// the signal a calibration-drift watchdog keys on — and a re-fit
	// against the drifted machine recovers them.
	FaultMeasureDrift = "hw.measure.drift"
)

// DriftTimeFactor is the time dilation FaultMeasureDrift applies. It is
// sized well past the model's worst healthy per-kernel residual (~18% on
// memory-bound nests), so drifted and healthy residual populations do
// not overlap and the watchdog threshold can sit between them.
const DriftTimeFactor = 1.5

// ErrCapBusy is the transient UFS driver write failure.
var ErrCapBusy = errors.New("hw: uncore cap write: device busy")

// SetFaults arms (or, with nil, disarms) the machine's injectable UFS
// failure modes.
func (m *Machine) SetFaults(r *faults.Registry) { m.faults = r }

// ThermalOverrides counts silent firmware cap raises so far.
func (m *Machine) ThermalOverrides() int64 { return m.thermalOverrides }

// WriteUncoreCap is the fallible driver write the hardened cap path uses:
// with faults armed it can fail transiently (ErrCapBusy — the attempted
// ioctl still pays the transition latency) or silently apply a
// firmware-clamped value below the request. It returns the value the
// driver claims to have applied; callers that need certainty must verify
// through ReadUncoreCap (see CapController).
func (m *Machine) WriteUncoreCap(ghz float64) (float64, error) {
	if err := m.faults.Hit(FaultCapWriteBusy); err != nil {
		m.busyTime += m.P.CapLatency
		m.pkgEnergy += m.P.CapLatency * m.P.truth.PConstW
		return m.uncoreCap, fmt.Errorf("%w (requested %.1f GHz): %v", ErrCapBusy, ghz, err)
	}
	f := m.P.ClampCap(ghz)
	if m.faults.Hit(FaultCapWriteClamp) != nil {
		f = m.P.ClampCap(f - m.P.CapStep)
	}
	return m.SetUncoreCap(f), nil
}

// ReadUncoreCap reads the active cap back through the driver interface;
// with the stale-read fault armed it can return the previous value.
func (m *Machine) ReadUncoreCap() float64 {
	if m.faults.Hit(FaultCapReadStale) != nil {
		return m.prevCap
	}
	return m.uncoreCap
}

// sleep models a busy backoff wait: wall-clock time at constant power.
func (m *Machine) sleep(sec float64) {
	if sec <= 0 {
		return
	}
	m.busyTime += sec
	m.pkgEnergy += sec * m.P.truth.PConstW
}

// ResetCounters clears the RAPL accumulators and driver statistics.
func (m *Machine) ResetCounters() {
	m.pkgEnergy, m.uncoreEnergy, m.busyTime = 0, 0, 0
	m.capSwitches = 0
}

// RAPL returns the accumulated package energy, uncore-zone energy (NaN on
// platforms without the uncore zone, per footnote 15) and busy time.
func (m *Machine) RAPL() (pkgJ, uncoreJ, seconds float64) {
	u := m.uncoreEnergy
	if !m.P.HasUncoreRAPL {
		u = math.NaN()
	}
	return m.pkgEnergy, u, m.busyTime
}

// SetProfileCache attaches a shared profile memo: Profile is answered from
// it, so machines created per sweep worker reuse each other's simulations
// and a long-lived machine retains only what the cache's limit lets it.
// Pass nil to detach.
func (m *Machine) SetProfileCache(c *ProfileCache) { m.shared = c }

// Profile executes the kernel once through the exact cache simulator and
// returns its frequency-independent profile. Profiles are memoized by the
// nest's content in the attached shared cache — across machines, under
// that cache's limit — or, on a machine without one, in the machine's own
// unbounded memo, which lives as long as the machine.
func (m *Machine) Profile(nest *ir.Nest) (*CacheProfile, error) {
	c := m.shared
	if c == nil {
		c = &m.own
	}
	return c.profile(nest, m.P)
}

// ProfileNest runs a nest through a cache hierarchy and collects counts.
func ProfileNest(nest *ir.Nest, cache cachesim.Config) (*CacheProfile, error) {
	r, err := cachemodel.Simulate(nest, cache)
	if err != nil {
		return nil, err
	}
	return &CacheProfile{Result: *r, HasParallel: nest.Parallel(), Label: nest.Label}, nil
}

// RunResult is one hardware measurement.
type RunResult struct {
	Seconds      float64
	PkgJoules    float64
	UncoreJoules float64
	AvgWatts     float64
	EDP          float64 // joule-seconds
	GFlops       float64
	DRAMGBs      float64 // achieved DRAM bandwidth
	UncoreGHz    float64
	CoreGHz      float64
	Threads      int
}

// Add accumulates another run into r. This is the one aggregation rule of
// a multi-part run: seconds, package joules and uncore joules sum, and
// AvgWatts and EDP derive from the sums.
func (r *RunResult) Add(o RunResult) {
	r.Seconds += o.Seconds
	r.PkgJoules += o.PkgJoules
	r.UncoreJoules += o.UncoreJoules
	r.derive()
}

// Scale stretches r to k back-to-back repetitions of itself: seconds and
// joules scale by k, and AvgWatts and EDP derive from the results.
func (r *RunResult) Scale(k float64) {
	r.Seconds *= k
	r.PkgJoules *= k
	r.UncoreJoules *= k
	r.derive()
}

// derive sets AvgWatts (0 over zero seconds) and EDP = joules x seconds
// from r's seconds and package joules.
func (r *RunResult) derive() {
	r.AvgWatts = 0
	if r.Seconds > 0 {
		r.AvgWatts = r.PkgJoules / r.Seconds
	}
	r.EDP = r.PkgJoules * r.Seconds
}

// Measure converts a profile into time and energy at the machine's current
// uncore cap and the base core clock (the performance governor's pin),
// using the hidden ground-truth model. The RAPL counters accumulate.
func (m *Machine) Measure(p *CacheProfile) RunResult {
	r := m.measureAtJoint(p, m.P.CoreBase, m.uncoreCap)
	m.pkgEnergy += r.PkgJoules
	m.uncoreEnergy += r.UncoreJoules
	m.busyTime += r.Seconds
	// Thermal-override fault: the firmware silently raises the cap back to
	// the maximum during the run. No switch is counted — the driver never
	// saw it; only a watchdog re-read (CapController.Reassert) catches it.
	if m.uncoreCap < m.P.UncoreMax && m.faults.Hit(FaultThermalOverride) != nil {
		m.prevCap = m.uncoreCap
		m.uncoreCap = m.P.UncoreMax
		m.thermalOverrides++
	}
	return r
}

// measureAtJoint is the hidden hardware model, parametric in both
// frequency domains, and the one function every measurement goes
// through. A parallel profile runs on all of the socket's threads, a
// serial one on one. Core-clocked resources (FPU throughput, L1/L2/LLC
// hit latencies) scale with f_core; core dynamic energy per flop follows
// the classic f²-with-voltage-floor DVFS law. The profile's remote share
// pays the interconnect on top (addRemote).
func (m *Machine) measureAtJoint(p *CacheProfile, fC, fU float64) RunResult {
	threads := 1
	if p.HasParallel {
		threads = m.P.Threads
	}
	t := m.P.truth
	th := float64(threads)

	// Compute time: FPU throughput at the core clock.
	flopsPerSec := th * t.FlopsPerCycle * fC * 1e9
	tc := float64(p.Flops) / flopsPerSec

	// Cache hit service time (core-clocked), overlapped by ILP and spread
	// over threads.
	clockScale := m.P.CoreBase / fC
	var tHits float64
	for i, lv := range p.Levels {
		lat := t.HitLatencyNs[minInt(i, len(t.HitLatencyNs)-1)] * 1e-9 * clockScale
		tHits += float64(lv.Hits()) * lat
	}
	tHits /= t.ILP * th

	// DRAM: per-miss latency a/f + b overlapped by MLP, against the
	// saturating bandwidth of the uncore interconnect.
	missLat := (t.DRAMLatCoefNsGHz/fU + t.DRAMLatBaseNs) * 1e-9
	mlp := minF(t.MLP*th, t.MLPSystem)
	tLat := float64(p.LLC().Misses) * missLat / mlp
	bw := m.bandwidth(fU)
	tBW := float64(p.QDRAM) / bw
	tDRAM := math.Max(tLat, tBW)

	tm := tHits + tDRAM
	sec := math.Max(tc, tm) + t.Overlap*math.Min(tc, tm)
	if sec <= 0 {
		sec = 1e-12
	}
	// Calibration drift: the machine got uniformly slower than the truth
	// the constants were fitted against. Applied here — not in Measure —
	// so every measurement path (serving, sweeps, and crucially a
	// re-calibration's micro-benchmarks) sees the same drifted hardware.
	if m.faults.Hit(FaultMeasureDrift) != nil {
		sec *= DriftTimeFactor
	}

	// Power. Core dynamic energy per flop scales as 0.35 + 0.65*(f/base)^2
	// (frequency-proportional with the voltage-squared term above a
	// leakage/voltage floor).
	rel := fC / m.P.CoreBase
	eFlop := t.CoreJPerFlop * (0.35 + 0.65*rel*rel)
	pCore := t.CoreIdleWPerGHz*fC + eFlop*float64(p.Flops)/sec
	util := math.Min(1, (float64(p.QDRAM)/sec)/bw)
	pUncore := t.UncoreIdleWPerGHz*fU + (t.UncoreActWPerGHz*fU+t.UncoreActBaseW)*util
	pTotal := t.PConstW + pCore + pUncore

	energy := pTotal * sec
	r := RunResult{
		Seconds:      sec,
		PkgJoules:    energy,
		UncoreJoules: pUncore * sec,
		AvgWatts:     pTotal,
		EDP:          energy * sec,
		GFlops:       float64(p.Flops) / sec / 1e9,
		DRAMGBs:      float64(p.QDRAM) / sec / 1e9,
		UncoreGHz:    fU,
		CoreGHz:      fC,
		Threads:      threads,
	}
	m.addRemote(p, &r)
	return r
}

// bandwidth is the hidden truth's DRAM bandwidth at uncore clock fU, in
// bytes/s: the uncore interconnect saturates towards its peak.
func (m *Machine) bandwidth(fU float64) float64 {
	t := m.P.truth
	return t.BWPeakGBs * fU / (fU + t.BWKneeGHz) * 1e9
}

// runOps is the one op walk behind Machine.RunFunc, Machine.RunBaseline
// and CapController.RunFunc: the functions' ops run in order, each nest
// measured (Measure) at the cap of the moment, and the runs aggregate by
// RunResult.Add. A nest is profiled (Profile) the first time the walk
// meets it and its profile reused after, so a function that repeats its
// ops asks the profile memo once per distinct nest, not once per op. The
// walk leaves one decision to its caller — what a SetUncoreCap op does
// (setCap) and what watches the cap after each nest (afterNest). Both are
// charged by counter delta: whatever busy time and package energy they
// put on the machine's counters (cap-switch latency, retry backoff) lands
// in the aggregate; one that touches nothing adds exactly zero.
func (m *Machine) runOps(funcs []*ir.Func, setCap func(ghz float64) error, afterNest func() error) (RunResult, error) {
	agg := RunResult{UncoreGHz: m.uncoreCap}
	charge := func(run func() error) error {
		before, beforeE := m.busyTime, m.pkgEnergy
		err := run()
		agg.Add(RunResult{Seconds: m.busyTime - before, PkgJoules: m.pkgEnergy - beforeE})
		return err
	}
	profs := map[*ir.Nest]*CacheProfile{}
	for _, f := range funcs {
		for _, op := range f.Ops {
			switch x := op.(type) {
			case *ir.SetUncoreCap:
				if err := charge(func() error { return setCap(x.GHz) }); err != nil {
					return agg, err
				}
			case *ir.Nest:
				p, ok := profs[x]
				if !ok {
					var err error
					if p, err = m.Profile(x); err != nil {
						return agg, err
					}
					profs[x] = p
				}
				agg.Add(m.Measure(p))
				if err := charge(afterNest); err != nil {
					return agg, err
				}
			default:
				return agg, fmt.Errorf("hw: cannot execute %s", op.OpName())
			}
		}
	}
	return agg, nil
}

// noWatch is the afterNest of the unhardened runs: nothing reasserts.
func noWatch() error { return nil }

// RunFunc executes a function's op sequence: cap ops drive the UFS driver,
// affine nests execute on the machine. It returns the aggregate result.
func (m *Machine) RunFunc(f *ir.Func) (RunResult, error) {
	return m.runOps([]*ir.Func{f}, func(ghz float64) error { m.SetUncoreCap(ghz); return nil }, noWatch)
}

// RunBaseline measures the uncapped baseline every comparison in the
// paper is made against: the cap is raised to the driver default (the
// maximum uncore frequency), every nest of the given functions runs in
// order, cap ops are skipped, and seconds and joules are summed.
func (m *Machine) RunBaseline(funcs ...*ir.Func) (RunResult, error) {
	m.SetUncoreCap(m.P.UncoreMax)
	return m.runOps(funcs, func(float64) error { return nil }, noWatch)
}

// MeasureAt measures a profile at explicit core and uncore frequencies
// without touching driver state or the RAPL counters — the hook the
// roofline micro-benchmarks and frequency-domain studies use.
func (m *Machine) MeasureAt(p *CacheProfile, fCore, fUncore float64) RunResult {
	return m.measureAtJoint(p, fCore, fUncore)
}

// SweepUncore measures a profile at the base core clock (the performance
// governor's pin) and every allowed uncore frequency without touching
// driver state — the instrument behind the Fig. 1 curves.
func (m *Machine) SweepUncore(p *CacheProfile) []RunResult {
	var out []RunResult
	for _, f := range m.P.UncoreSteps() {
		out = append(out, m.measureAtJoint(p, m.P.CoreBase, f))
	}
	return out
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func minF(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
