package hw

import (
	"fmt"

	"polyufc/internal/platform"
)

// addRemote charges the hidden truth model's interconnect cost to a
// measurement: the profile's remote share of DRAM read traffic pays the
// link's per-byte cost (platform.Backend.Link) serially — the link is a
// shared, unoverlapped resource — at idle clock-tree power, plus transfer
// energy. A socket-local profile or a machine without an interconnect is
// left untouched, so the single-socket path is bit-identical to the
// pre-topology model.
func (m *Machine) addRemote(p *CacheProfile, r *RunResult) {
	link := m.P.Backend.Link()
	if !(p.RemoteShare > 0) || link == (platform.LinkCost{}) {
		return
	}
	bytes := p.RemoteShare * float64(p.QDRAM)
	t := m.P.truth
	extra := bytes * link.SecPerByte
	transfer := bytes * link.JoulesPerByte
	idleW := t.PConstW + t.CoreIdleWPerGHz*r.CoreGHz + t.UncoreIdleWPerGHz*r.UncoreGHz
	r.Seconds += extra
	r.PkgJoules += transfer + extra*idleW
	r.UncoreJoules += transfer + extra*t.UncoreIdleWPerGHz*r.UncoreGHz
	r.derive()
	r.GFlops = float64(p.Flops) / r.Seconds / 1e9
	r.DRAMGBs = float64(p.QDRAM) / r.Seconds / 1e9
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
