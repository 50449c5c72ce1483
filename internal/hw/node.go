package hw

import "polyufc/internal/platform"

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

// SocketControllers boots every socket of a backend's topology as its
// own machine — its own uncore domain, driver state, RAPL counters and
// fault registry — and returns one CapController per socket, in socket
// order, each with its own verify/retry/backoff state over its socket's
// driver. A single-socket backend gets one. Jitter seeds are decorrelated
// per socket (opts.JitterSeed plus the socket index) so concurrent
// retries do not stampede in lockstep.
func SocketControllers(b *platform.Backend, opts CapControllerOptions) ([]*CapController, error) {
	out := make([]*CapController, len(b.Sockets))
	for i := range out {
		p, err := SocketPlatform(b, i)
		if err != nil {
			return nil, err
		}
		o := opts
		o.JitterSeed = opts.JitterSeed + int64(i)
		out[i] = NewCapController(NewMachine(p), o)
	}
	return out, nil
}
