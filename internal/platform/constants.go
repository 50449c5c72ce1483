package platform

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
)

// Constants are the calibrated roofline constants of Table I, plus the
// frequency-parametric fits of Sec. V. They are produced by the roofline
// calibration of a Backend and persisted inside a Calibration artifact
// (JSON float64s round-trip bit-exactly: Go marshals the shortest
// representation and parses it back to the identical bits).
type Constants struct {
	Platform string `json:"platform"`

	// TFpu is seconds per flop at full machine throughput (all threads at
	// the base core clock): 1/peak.
	TFpu float64 `json:"t_fpu"`
	// PeakGFlops is the compute roof.
	PeakGFlops float64 `json:"peak_gflops"`
	// TByteMax is seconds per DRAM byte at the maximum uncore frequency.
	TByteMax float64 `json:"t_byte_max"`
	// PeakGBs is the memory roof at the maximum uncore frequency.
	PeakGBs float64 `json:"peak_gbs"`
	// BtDRAM is the time balance: PeakFlops/PeakBW (flop per byte); the
	// CB/BB boundary of Sec. IV-D.
	BtDRAM float64 `json:"bt_dram"`
	// BeDRAM is the energy balance: EByte/EFpu.
	BeDRAM float64 `json:"be_dram"`

	// EFpu is dynamic energy per flop (J); PFpuHat the peak flop-engine
	// power (W).
	EFpu    float64 `json:"e_fpu"`
	PFpuHat float64 `json:"p_fpu_hat"`
	// EByte is energy per DRAM byte at max uncore frequency (J); PByteHat
	// the peak memory-path power (W).
	EByte    float64 `json:"e_byte"`
	PByteHat float64 `json:"p_byte_hat"`
	// PCon is constant power (W).
	PCon float64 `json:"p_con"`

	// HitLatency[i] is the derived per-access service time of cache level
	// i (seconds), used as H_ci in Eqn. 4.
	HitLatency []float64 `json:"hit_latency"`

	// Per-byte DRAM service time M^t(f) = MissLatA/f + MissLatB
	// (seconds per byte, f in GHz) — the hyperbolic fit of Sec. V-A.
	MissLatA  float64 `json:"miss_lat_a"`
	MissLatB  float64 `json:"miss_lat_b"`
	MissLatR2 float64 `json:"miss_lat_r2"`

	// Uncore power model: P_uncore(f, bw) = IdleWPerGHz*f +
	// (AlphaP*f + GammaP) * bw, with bw in bytes/s — the linear fits of
	// Eqn. 10 (alpha_P, gamma_P) plus the idle clock-tree term.
	IdleWPerGHz float64 `json:"idle_w_per_ghz"`
	AlphaP      float64 `json:"alpha_p"` // W per (byte/s), linear in f
	GammaP      float64 `json:"gamma_p"`
	PowerR2     float64 `json:"power_r2"`

	// PhatAlpha/PhatGamma fit the peak DRAM power roof
	// P̂_{f,DRAM} = PhatAlpha*f + PhatGamma (W) of Eqn. 8.
	PhatAlpha float64 `json:"phat_alpha"`
	PhatGamma float64 `json:"phat_gamma"`

	// Core-domain constants for the coordinated core+uncore extension:
	// CoreIdleWPerGHz is the fitted core clock-tree power slope and
	// CoreBaseGHz the clock all other constants were calibrated at. PCon
	// includes CoreIdleWPerGHz*CoreBaseGHz (the share paid at base).
	CoreIdleWPerGHz float64 `json:"core_idle_w_per_ghz"`
	CoreBaseGHz     float64 `json:"core_base_ghz"`

	// CalibThreads is the thread count the compute roof was calibrated
	// at. The Sec. V model scales single-nest estimates by it; it comes
	// from the backend description, not a switch on the platform name.
	CalibThreads int `json:"calib_threads,omitempty"`
}

// Class is the bound-and-bottleneck characterization.
type Class int

// Characterization outcomes.
const (
	ComputeBound Class = iota
	BandwidthBound
)

func (c Class) String() string {
	if c == ComputeBound {
		return "CB"
	}
	return "BB"
}

// Hash is the content hash of the calibrated constants, pinning derived
// artifacts (cached compilations, journaled responses) to the exact fit
// that produced them: a re-fit of the same backend yields a different
// hash even though the description is unchanged. Constants
// marshal deterministically (fixed field order, shortest float
// representation), so the hash is stable across processes.
func (c *Constants) Hash() string {
	data, err := json.Marshal(c)
	if err != nil {
		// Constants has no unmarshalable fields; keep the signature clean.
		panic(fmt.Sprintf("platform: hash constants for %q: %v", c.Platform, err))
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:8])
}

// Classify applies Sec. IV-D: CB iff OI >= B^t_DRAM.
func (c *Constants) Classify(oi float64) Class {
	if oi >= c.BtDRAM {
		return ComputeBound
	}
	return BandwidthBound
}

// MissLat returns M^t(f): seconds per DRAM byte at uncore frequency f.
func (c *Constants) MissLat(f float64) float64 {
	return c.MissLatA/f + c.MissLatB
}

// UncorePower returns the modeled uncore power at frequency f with the
// given achieved DRAM bandwidth (bytes/s).
func (c *Constants) UncorePower(f, bw float64) float64 {
	return c.IdleWPerGHz*f + (c.AlphaP*f+c.GammaP)*bw
}

// PeakDRAMPower returns P̂_{f,DRAM} of Eqn. 8.
func (c *Constants) PeakDRAMPower(f float64) float64 {
	return c.PhatAlpha*f + c.PhatGamma
}
