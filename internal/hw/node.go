package hw

import (
	"fmt"

	"polyufc/internal/platform"
)

// remoteLineBytes amortizes the interconnect's per-access latency over a
// cache line: remote DRAM traffic crosses the link line by line.
const remoteLineBytes = 64

// RemotePenalty converts an interconnect description into the per-byte
// service time and energy a remote DRAM access pays on top of a local
// one: the line-amortized link latency plus the link's bandwidth share,
// and the transfer energy. A nil interconnect (single-socket topology)
// costs nothing.
func RemotePenalty(ic *platform.Interconnect) (secPerByte, joulesPerByte float64) {
	if ic == nil || ic.BWGBs <= 0 {
		return 0, 0
	}
	secPerByte = 1/(ic.BWGBs*1e9) + ic.LatencyNs*1e-9/remoteLineBytes
	return secPerByte, ic.EnergyPJPerByte * 1e-12
}

// addRemote charges the hidden truth model's interconnect cost to a
// measurement: the remote fraction of DRAM read traffic pays the link's
// per-byte service time serially (the link is a shared, unoverlapped
// resource) at idle clock-tree power, plus transfer energy. remoteRatio
// <= 0 or a nil interconnect leaves the result untouched, so the
// single-socket path is bit-identical to the pre-topology model.
func (m *Machine) addRemote(p *CacheProfile, r *RunResult, remoteRatio float64, ic *platform.Interconnect) {
	if remoteRatio <= 0 || ic == nil {
		return
	}
	if remoteRatio > 1 {
		remoteRatio = 1
	}
	secB, jB := RemotePenalty(ic)
	bytes := remoteRatio * float64(p.DRAMReadB)
	t := m.P.truth
	extra := bytes * secB
	link := bytes * jB
	idleW := t.PConstW + t.CoreIdleWPerGHz*r.CoreGHz + t.UncoreIdleWPerGHz*r.UncoreGHz
	r.Seconds += extra
	r.PkgJoules += link + extra*idleW
	r.UncoreJoules += link + extra*t.UncoreIdleWPerGHz*r.UncoreGHz
	r.AvgWatts = r.PkgJoules / r.Seconds
	r.EDP = r.PkgJoules * r.Seconds
	r.GFlops = float64(p.Flops) / r.Seconds / 1e9
	r.DRAMGBs = float64(p.DRAMReadB) / r.Seconds / 1e9
}

// MeasureNUMA is Measure with a fraction of the profile's DRAM traffic
// served by a remote socket across the interconnect. The RAPL counters
// accumulate as usual; remoteRatio 0 (or a nil interconnect) adds nothing.
func (m *Machine) MeasureNUMA(p *CacheProfile, remoteRatio float64, ic *platform.Interconnect) RunResult {
	threads := 1
	if p.HasParallel {
		threads = m.P.Threads
	}
	r := m.measureAtJoint(p, m.coreFreq, m.uncoreCap, threads)
	m.addRemote(p, &r, remoteRatio, ic)
	m.jitter(&r)
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

// MeasureAtNUMA is the stateless NUMA-aware variant of MeasureAt: explicit
// frequencies, no driver or counter mutation.
func (m *Machine) MeasureAtNUMA(p *CacheProfile, fCore, fUncore, remoteRatio float64, ic *platform.Interconnect) RunResult {
	threads := 1
	if p.HasParallel {
		threads = m.P.Threads
	}
	r := m.measureAtJoint(p, fCore, fUncore, threads)
	m.addRemote(p, &r, remoteRatio, ic)
	return r
}

// Node is a booted multi-socket machine: one Machine per socket of a
// topology description, each with its own uncore domain, driver state,
// RAPL counters and fault registry, joined by the description's
// interconnect. Single-socket backends boot as a 1-socket Node, so Node
// is the uniform handle for topology-aware callers.
type Node struct {
	B       *platform.Backend
	sockets []*Machine
}

// NewNode boots every socket of a backend's topology.
func NewNode(b *platform.Backend) (*Node, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	n := &Node{B: b}
	for i := 0; i < b.NumSockets(); i++ {
		p, err := SocketPlatform(b, i)
		if err != nil {
			return nil, err
		}
		n.sockets = append(n.sockets, NewMachine(p))
	}
	return n, nil
}

// NumSockets returns the socket count.
func (n *Node) NumSockets() int { return len(n.sockets) }

// Socket returns socket i's machine.
func (n *Node) Socket(i int) (*Machine, error) {
	if i < 0 || i >= len(n.sockets) {
		return nil, fmt.Errorf("hw: node %q has %d socket(s), no socket %d", n.B.Name, len(n.sockets), i)
	}
	return n.sockets[i], nil
}

// Controllers builds one independent CapController per socket, each with
// its own verify/retry/backoff state over its socket's driver. Jitter
// seeds are decorrelated per socket so concurrent retries do not stampede
// in lockstep.
func (n *Node) Controllers(opts CapControllerOptions) []*CapController {
	out := make([]*CapController, len(n.sockets))
	for i, m := range n.sockets {
		o := opts
		o.JitterSeed = opts.JitterSeed + int64(i)
		out[i] = NewCapController(m, o)
	}
	return out
}
