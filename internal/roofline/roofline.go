// Package roofline implements the performance roofline (Williams et al.)
// and energy roofline (Choi et al.) models PolyUFC characterizes kernels
// against, together with the one-time micro-benchmark calibration that
// derives the Table-I constants from a machine (footnote 3: both
// performance and power rooflines are measured, not vendor-supplied).
//
// The constant types live in internal/platform so calibrations persist
// as artifacts next to the backend descriptions; this package re-exports
// them and owns the fitting itself, plus the Target handle that bundles
// one resolved backend (description, simulated platform, constants).
package roofline

import (
	"fmt"
	"math"

	"polyufc/internal/cachemodel"
	"polyufc/internal/fit"
	"polyufc/internal/hw"
	"polyufc/internal/platform"
)

// Constants are the calibrated roofline constants of Table I, plus the
// frequency-parametric fits of Sec. V (alias of the serializable
// platform.Constants).
type Constants = platform.Constants

// Class is the bound-and-bottleneck characterization.
type Class = platform.Class

// Characterization outcomes.
const (
	ComputeBound   = platform.ComputeBound
	BandwidthBound = platform.BandwidthBound
)

// Calibrate runs the one-time micro-benchmark suite on a machine and fits
// the Table-I constants. The machine is exercised only through its public
// measurement interface — the hidden truth constants are recovered, not
// read.
func Calibrate(m *hw.Machine) (*Constants, error) {
	p := m.P
	c := &Constants{Platform: p.Name, CalibThreads: p.Threads}

	// --- compute roof: a flop-only kernel (OI -> infinity). ---
	flopProf := &hw.CacheProfile{Result: cachemodel.Result{
		Flops: 4e10, Instances: 1e10, Loads: 1,
		Levels: []cachemodel.LevelResult{{Accesses: 1}, {}, {}},
	}, HasParallel: true, Label: "ubench-flops"}
	rs := m.SweepUncore(flopProf)
	rTop := rs[len(rs)-1]
	c.PeakGFlops = rTop.GFlops
	c.TFpu = 1 / (rTop.GFlops * 1e9)

	// Constant power: extrapolate the flop bench's power at f -> 0 minus
	// the core's dynamic share. We estimate EFpu from two flop benches of
	// different intensity at the lowest uncore frequency (uncore
	// contribution minimal).
	half := *flopProf
	half.Flops /= 2
	half.Instances /= 2
	r1 := m.SweepUncore(flopProf)[0]
	r2 := m.SweepUncore(&half)[0]
	// P = PCon' + EFpu * flopRate; two points give both.
	rate1 := r1.GFlops * 1e9
	rate2 := r2.GFlops * 1e9
	if math.Abs(rate1-rate2) < 1 {
		// Same rate (throughput-bound): fall back to assuming dynamic
		// share from the frequency slope.
		return nil, fmt.Errorf("roofline: flop benches not separable")
	}
	c.EFpu = (r1.AvgWatts - r2.AvgWatts) / (rate1 - rate2)
	c.PFpuHat = c.EFpu * c.PeakGFlops * 1e9

	// --- memory roof: a streaming kernel (OI -> 0), swept over f. ---
	streamProf := &hw.CacheProfile{Result: cachemodel.Result{
		Flops: 1e6, Instances: 1e8, Loads: 4e8, Stores: 0,
		Levels: []cachemodel.LevelResult{
			{Accesses: 4e8, Misses: 1e8}, {Accesses: 1e8, Misses: 1e8}, {Accesses: 1e8, Misses: 1e8},
		},
		QDRAM: 64e8,
	}, HasParallel: true, Label: "ubench-stream"}
	sweep := m.SweepUncore(streamProf)
	var fs, tPerByte, watts, bws []float64
	for _, r := range sweep {
		fs = append(fs, r.UncoreGHz)
		tPerByte = append(tPerByte, r.Seconds/float64(streamProf.QDRAM))
		watts = append(watts, r.AvgWatts)
		bws = append(bws, r.DRAMGBs*1e9)
	}
	top := sweep[len(sweep)-1]
	c.PeakGBs = top.DRAMGBs
	c.TByteMax = 1 / (c.PeakGBs * 1e9)
	c.BtDRAM = c.PeakGFlops / c.PeakGBs

	// M^t(f) = a/f + b.
	a, b, r2f, err := fit.Hyperbolic(fs, tPerByte)
	if err != nil {
		return nil, fmt.Errorf("roofline: miss latency fit: %w", err)
	}
	c.MissLatA, c.MissLatB, c.MissLatR2 = a, b, r2f

	// Uncore power fits. The stream bench at each f gives
	// P(f) = PCon + idle*f + (alpha*f + gamma)*bw(f) + core share.
	// First, idle slope from the flop bench's frequency sweep (bw ~ 0):
	var fFs, fWs []float64
	for _, r := range rs {
		fFs = append(fFs, r.UncoreGHz)
		fWs = append(fWs, r.AvgWatts)
	}
	idleSlope, idleIntercept, _, err := fit.Linear(fFs, fWs)
	if err != nil {
		return nil, fmt.Errorf("roofline: idle fit: %w", err)
	}
	c.IdleWPerGHz = idleSlope
	c.PCon = idleIntercept - c.EFpu*rate1 // constant power net of core dynamic share

	// Per-bandwidth uncore power kappa(f) = (P_stream - PCon - idle*f -
	// core share) / bw, then a linear fit over f.
	var kys []float64
	for i := range fs {
		coreW := c.EFpu * float64(streamProf.Flops) / sweep[i].Seconds
		pu := watts[i] - c.PCon - c.IdleWPerGHz*fs[i] - coreW
		kys = append(kys, pu/bws[i])
	}
	alpha, gamma, r2p, err := fit.Linear(fs, kys)
	if err != nil {
		return nil, fmt.Errorf("roofline: power fit: %w", err)
	}
	c.AlphaP, c.GammaP, c.PowerR2 = alpha, gamma, r2p

	// Peak DRAM power roof: uncore power at full-stream utilization.
	var phat []float64
	for i := range fs {
		phat = append(phat, c.UncorePower(fs[i], bws[i]))
	}
	pa, pg, _, err := fit.Linear(fs, phat)
	if err != nil {
		return nil, fmt.Errorf("roofline: peak power fit: %w", err)
	}
	c.PhatAlpha, c.PhatGamma = pa, pg

	// Energy per byte, peak memory-path power, and the energy balance at
	// the maximum uncore frequency.
	c.PByteHat = c.UncorePower(p.UncoreMax, c.PeakGBs*1e9)
	c.EByte = c.PByteHat / (c.PeakGBs * 1e9)
	if c.EFpu > 0 {
		c.BeDRAM = c.EByte / c.EFpu
	}

	// --- core-domain fit: the flop bench swept over core frequencies at
	// the minimum uncore clock. Subtracting the known per-flop dynamic
	// share (the standard voltage-floor DVFS law) leaves
	// PCon' + coreIdle*f_core; its slope is the core clock-tree power. ---
	c.CoreBaseGHz = p.CoreBase
	var cFs, cResidual []float64
	for f := p.CoreMin; f <= p.CoreMax+1e-9; f += 0.4 {
		r := m.MeasureAt(flopProf, f, p.UncoreMin)
		relE := 0.35 + 0.65*(f/p.CoreBase)*(f/p.CoreBase)
		dynW := c.EFpu * relE * r.GFlops * 1e9
		cFs = append(cFs, f)
		cResidual = append(cResidual, r.AvgWatts-dynW)
	}
	coreSlope, _, _, err := fit.Linear(cFs, cResidual)
	if err != nil {
		return nil, fmt.Errorf("roofline: core idle fit: %w", err)
	}
	c.CoreIdleWPerGHz = coreSlope

	// --- per-level hit latencies: benches whose hits concentrate at one
	// level. ---
	nLevels := len(p.Cache.Levels)
	c.HitLatency = make([]float64, nLevels)
	for li := 0; li < nLevels; li++ {
		levels := make([]cachemodel.LevelResult, nLevels)
		for j := 0; j < li; j++ {
			levels[j] = cachemodel.LevelResult{Accesses: 4e8, Misses: 4e8}
		}
		levels[li].Accesses = 4e8 // every access hits level li
		prof := &hw.CacheProfile{Result: cachemodel.Result{
			Flops: 1e6, Instances: 1e8, Loads: 4e8, Levels: levels,
		}, Label: fmt.Sprintf("ubench-L%d", li+1)}
		r := m.SweepUncore(prof)[len(m.P.UncoreSteps())-1]
		c.HitLatency[li] = r.Seconds / 4e8
	}
	return c, nil
}
