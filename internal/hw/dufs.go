package hw

import "math"

// DUFSGovernor emulates a reactive dynamic uncore frequency scaling
// runtime (the DUFS family the paper compares against in Sec. VII-F: duf,
// Uncore Power Scavenger, and the kernel driver's own scaling): it samples
// memory-bandwidth utilization on a fixed control interval and steps the
// uncore frequency up or down between watermarks. Unlike PolyUFC's static
// caps it needs no compile-time analysis, but it pays convergence lag,
// oscillation around phase changes, and a transition cost per step.
type DUFSGovernor struct {
	// Interval is the control-loop period (OS governors run at
	// millisecond scale; Sec. VIII: "high control-loop latency").
	Interval float64 // seconds
	// StepGHz is the frequency adjustment per decision.
	StepGHz float64
	// HighWater/LowWater are utilization thresholds: above HighWater the
	// governor steps up, below LowWater it steps down.
	HighWater, LowWater float64
	// StartGHz is the initial frequency (0 = platform maximum, the
	// driver's reset state).
	StartGHz float64
}

// DefaultDUFS returns a governor configured like the runtime DUFS systems
// the paper cites: 10 ms control interval, 0.1 GHz steps, 0.9/0.7
// watermarks.
func DefaultDUFS() DUFSGovernor {
	return DUFSGovernor{Interval: 10e-3, StepGHz: 0.1, HighWater: 0.90, LowWater: 0.70}
}

// RunProfile executes one kernel profile under governor control,
// integrating time and energy piecewise across control intervals. The
// kernel is treated as divisible work: in an interval at frequency f, the
// completed fraction is dt / T(f).
func (g DUFSGovernor) RunProfile(m *Machine, p *CacheProfile) RunResult {
	f := g.StartGHz
	if f == 0 {
		f = m.P.UncoreMax
	}
	f = m.P.ClampCap(f)

	var elapsed, energy, progress float64
	var r RunResult
	steps := 0
	const maxIters = 1 << 20
	for iter := 0; progress < 1 && iter < maxIters; iter++ {
		r = m.measureAtJoint(p, m.P.CoreBase, f)
		dt := g.Interval
		remain := (1 - progress) * r.Seconds
		if remain < dt {
			dt = remain
		}
		elapsed += dt
		energy += r.AvgWatts * dt
		progress += dt / r.Seconds

		if progress >= 1 {
			break
		}
		// Utilization-driven decision.
		util := 0.0
		if r.Seconds > 0 {
			util = (float64(p.QDRAM) / r.Seconds) / m.bandwidth(f)
		}
		next := f
		if util > g.HighWater {
			next = m.P.ClampCap(f + g.StepGHz)
		} else if util < g.LowWater {
			next = m.P.ClampCap(f - g.StepGHz)
		}
		if next != f {
			f = next
			steps++
			elapsed += m.P.CapLatency
			energy += m.P.truth.PConstW * m.P.CapLatency
		}
	}
	res := RunResult{
		Seconds:   elapsed,
		PkgJoules: energy,
		UncoreGHz: f,
		Threads:   r.Threads,
	}
	res.derive()
	res.GFlops = float64(p.Flops) / math.Max(elapsed, 1e-12) / 1e9
	return res
}

// RunNests executes a sequence of profiles under one continuous governor
// session (frequency state carries across kernels, as a runtime daemon
// would behave).
func (g DUFSGovernor) RunNests(m *Machine, profs []*CacheProfile) RunResult {
	var agg RunResult
	cur := g
	for _, p := range profs {
		r := cur.RunProfile(m, p)
		agg.Add(r)
		// Carry the converged frequency into the next kernel.
		cur.StartGHz = r.UncoreGHz
		agg.UncoreGHz = r.UncoreGHz
	}
	return agg
}
