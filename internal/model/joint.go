package model

// This file implements the coordinated core+uncore extension the paper's
// discussion points to (Sec. VII-F "Core Frequency Selection" and the
// joint-scaling related work [89]): the Sec. V model re-parameterized in
// both frequency domains. The roofline constants are calibrated at the
// base core clock; core-clocked quantities scale by the standard DVFS
// laws — throughput and hit latency linearly with f_core, dynamic energy
// per flop as a voltage-floor quadratic.

// CoreScaling captures the assumed DVFS laws for the core domain.
type CoreScaling struct {
	// BaseGHz is the clock the constants were calibrated at.
	BaseGHz float64
	// EnergyFloor is the fraction of per-flop energy that does not scale
	// with frequency (leakage / minimum-voltage share).
	EnergyFloor float64
}

// DefaultCoreScaling returns the scaling law used by the joint model.
func DefaultCoreScaling(base float64) CoreScaling {
	return CoreScaling{BaseGHz: base, EnergyFloor: 0.35}
}

// AtJoint evaluates the model at a core frequency fc and uncore frequency
// fu. With fc equal to the calibration base, AtJoint(base, fu) == At(fu).
func (m *Model) AtJoint(cs CoreScaling, fc, fu float64) Estimate {
	return m.at(coreClock{rel: fc / cs.BaseGHz, dGHz: fc - m.C.CoreBaseGHz, floor: cs.EnergyFloor}, fu)
}

// JointResult is the outcome of a coordinated core+uncore search.
type JointResult struct {
	CoreGHz, UncoreGHz float64
	Est                Estimate
	Evaluated          int
	Rounds             int
}

// SearchJoint finds (f_core, f_uncore) minimizing the objective by
// coordinate descent over the two frequency grids: each round bisects one
// domain with the other held fixed, until a fixpoint (at most maxRounds
// rounds). Objective values come from AtJoint.
func (m *Model) SearchJoint(cs CoreScaling, coreFreqs, uncoreFreqs []float64,
	objective func(Estimate) float64, maxRounds int) JointResult {
	res := JointResult{}
	if len(coreFreqs) == 0 || len(uncoreFreqs) == 0 {
		return res
	}
	fc := coreFreqs[len(coreFreqs)-1] // the governor default: max
	fu := uncoreFreqs[len(uncoreFreqs)-1]
	eval := func(c, u float64) Estimate {
		res.Evaluated++
		return m.AtJoint(cs, c, u)
	}
	bisect := func(grid []float64, score func(float64) float64) float64 {
		lo, hi := 0, len(grid)-1
		for hi-lo > 1 {
			mid := (lo + hi) / 2
			if score(grid[mid]) <= score(grid[mid+1]) {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		if score(grid[lo]) <= score(grid[hi]) {
			return grid[lo]
		}
		return grid[hi]
	}
	for round := 0; round < maxRounds; round++ {
		res.Rounds = round + 1
		prevC, prevU := fc, fu
		fu = bisect(uncoreFreqs, func(u float64) float64 {
			return objective(eval(fc, u))
		})
		fc = bisect(coreFreqs, func(c float64) float64 {
			return objective(eval(c, fu))
		})
		if fc == prevC && fu == prevU {
			break
		}
	}
	res.CoreGHz, res.UncoreGHz = fc, fu
	res.Est = m.AtJoint(cs, fc, fu)
	return res
}
