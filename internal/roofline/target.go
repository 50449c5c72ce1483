package roofline

import (
	"fmt"
	"time"

	"polyufc/internal/faults"
	"polyufc/internal/hw"
	"polyufc/internal/platform"
)

// Target is one resolved backend: the registry description, the
// simulated platform built from it, and the calibrated roofline
// constants — everything a compilation needs to know about its machine,
// as a single handle. Constants points into Calibration so the fit and
// its provenance travel together. Resolve, Refit and FromCalibration are
// its only constructors, so every field is always set: there is no
// target without a description, a calibration or key material.
type Target struct {
	// Backend is the source description.
	Backend   *platform.Backend
	Platform  *hw.Platform
	Constants *Constants
	// Calibration carries the fit provenance.
	Calibration *platform.Calibration
	// Sockets holds per-socket constants: Sockets[i] is socket i's
	// calibration and Sockets[0] is Constants. Homogeneous topologies
	// share the socket-0 fit — one calibration serves the whole node, the
	// cluster-sweep premise — while heterogeneous sockets get their own
	// micro-benchmark pass.
	Sockets []*Constants
	keys    Keys
}

// Keys is what a compilation's cache keys read of its target: the hash
// of the platform's description (Backend.Hash()) and the hash of its
// calibrated constants (Constants.Hash()). Every compile request reads
// them; Resolve, Refit and FromCalibration derive them once per target
// instead of marshalling and hashing on each request. A resolved target's
// description and constants are therefore never edited in place: a new
// fit is a new Target (Refit).
type Keys struct {
	BackendHash string
	CalHash     string
}

// Keys returns the target's key material.
func (t *Target) Keys() Keys { return t.keys }

// newTarget assembles a target around a fitted calibration artifact and
// derives its key material once.
func newTarget(b *platform.Backend, p *hw.Platform, cal *platform.Calibration) (*Target, error) {
	c := &cal.Constants
	sockets, err := resolveSockets(b, c)
	if err != nil {
		return nil, err
	}
	return &Target{
		Backend: b, Platform: p, Constants: c, Calibration: cal, Sockets: sockets,
		keys: Keys{BackendHash: b.Hash(), CalHash: c.Hash()},
	}, nil
}

// NumSockets returns the socket count of the target's topology.
func (t *Target) NumSockets() int { return t.Backend.NumSockets() }

// SocketConstants returns socket i's calibrated constants; a spanning
// nest (i < 0) reads the primary Constants.
func (t *Target) SocketConstants(i int) *Constants {
	if i < 0 {
		return t.Constants
	}
	return t.Sockets[i]
}

// resolveSockets builds the per-socket constants of a backend around the
// already-fitted socket-0 constants: homogeneous sockets share that fit,
// heterogeneous sockets calibrate their own platform views.
func resolveSockets(b *platform.Backend, c0 *Constants) ([]*Constants, error) {
	out := make([]*Constants, b.NumSockets())
	homogeneous := b.Homogeneous()
	for i := range out {
		if i == 0 || homogeneous {
			out[i] = c0
			continue
		}
		p, err := hw.SocketPlatform(b, i)
		if err != nil {
			return nil, err
		}
		ci, err := Calibrate(hw.NewMachine(p))
		if err != nil {
			return nil, fmt.Errorf("roofline: calibrate %s socket %d: %w", b.Name, i, err)
		}
		out[i] = ci
	}
	return out, nil
}

// stamp wraps freshly fitted constants in a calibration artifact with
// provenance: when, by which tool, with what fit residuals, and against
// which description. The calibration machine runs noiseless, so the seed
// is 0.
func stamp(b *platform.Backend, c *Constants, tool string) *platform.Calibration {
	return &platform.Calibration{
		Schema:      platform.CalibrationSchemaVersion,
		Backend:     b.Name,
		BackendHash: b.Hash(),
		Constants:   *c,
		Provenance: platform.Provenance{
			FitDate: time.Now().UTC().Format(time.RFC3339),
			Residuals: map[string]float64{
				"miss_latency": c.MissLatR2,
				"uncore_power": c.PowerR2,
			},
			Tool: tool,
		},
	}
}

// Resolve builds the platform for a backend description and runs the
// one-time roofline calibration, stamping the artifact with provenance.
func Resolve(b *platform.Backend) (*Target, error) {
	p, err := hw.FromBackend(b)
	if err != nil {
		return nil, err
	}
	c, err := Calibrate(hw.NewMachine(p))
	if err != nil {
		return nil, fmt.Errorf("roofline: resolve %s: %w", b.Name, err)
	}
	return newTarget(b, p, stamp(b, c, "polyufc/roofline"))
}

// ResolveOrLoad is the tools' -calibration switch: with a calibration
// file the persisted fit is loaded and checked against the description
// (FromCalibration), without one the micro-benchmarks run (Resolve).
func ResolveOrLoad(b *platform.Backend, calPath string) (*Target, error) {
	if calPath == "" {
		return Resolve(b)
	}
	cal, err := platform.LoadCalibration(calPath)
	if err != nil {
		return nil, err
	}
	return FromCalibration(b, cal)
}

// ResolveName resolves a backend by registry name and calibrates it.
func ResolveName(name string) (*Target, error) {
	b, err := platform.Lookup(name)
	if err != nil {
		return nil, err
	}
	return Resolve(b)
}

// Refit re-runs the calibration micro-benchmarks for an already-resolved
// target and returns a fresh Target sharing the same platform. The fault
// registry — normally the serving daemon's — is armed on the calibration
// machine so the fit measures the same (possibly drifted) hardware the
// live measurement path sees; that is what makes online recalibration
// actually recover residuals instead of reproducing the stale fit.
func Refit(t *Target, reg *faults.Registry) (*Target, error) {
	m := hw.NewMachine(t.Platform)
	m.SetFaults(reg)
	c, err := Calibrate(m)
	if err != nil {
		return nil, fmt.Errorf("roofline: refit %s: %w", t.Platform.Name, err)
	}
	return newTarget(t.Backend, t.Platform, stamp(t.Backend, c, "polyufc/roofline-refit"))
}

// FromCalibration builds a target from a persisted calibration artifact
// instead of re-running the micro-benchmarks. The artifact must match
// the description (name and, when recorded, content hash).
func FromCalibration(b *platform.Backend, cal *platform.Calibration) (*Target, error) {
	if err := cal.Matches(b); err != nil {
		return nil, err
	}
	p, err := hw.FromBackend(b)
	if err != nil {
		return nil, err
	}
	return newTarget(b, p, cal)
}
