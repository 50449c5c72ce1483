package platform

import (
	"fmt"
	"reflect"
	"strings"

	"polyufc/internal/cachesim"
)

// Socket describes one socket of a backend: its cores, frequency ranges,
// uncore cap grid, cache hierarchy and hidden truth constants.
type Socket struct {
	Cores   int `json:"cores"`
	Threads int `json:"threads"`
	// Core and uncore frequency ranges in GHz.
	CoreMinGHz   float64 `json:"core_min_ghz"`
	CoreMaxGHz   float64 `json:"core_max_ghz"`
	CoreBaseGHz  float64 `json:"core_base_ghz"`
	UncoreMinGHz float64 `json:"uncore_min_ghz"`
	UncoreMaxGHz float64 `json:"uncore_max_ghz"`
	// CapStepGHz is the uncore cap granularity of this socket's domain;
	// the grid is anchored at UncoreMinGHz.
	CapStepGHz float64 `json:"cap_step_ghz"`
	// CapLatencySec is the cost of one cap change on this domain.
	CapLatencySec float64 `json:"cap_latency_sec"`
	// HasUncoreRAPL reports whether this socket's uncore energy zone is
	// readable.
	HasUncoreRAPL bool         `json:"has_uncore_rapl"`
	Cache         []CacheLevel `json:"cache"`
	Truth         Truth        `json:"truth"`
}

// CacheConfig returns the socket's cache hierarchy as the simulator and
// PolyUFC-CM take it: the one place a description becomes a
// cachesim.Config.
func (s *Socket) CacheConfig() cachesim.Config {
	levels := make([]cachesim.LevelConfig, len(s.Cache))
	for i, lv := range s.Cache {
		levels[i] = cachesim.LevelConfig{
			Name: lv.Name, SizeBytes: lv.SizeBytes, LineSize: lv.LineSize, Assoc: lv.Assoc,
		}
	}
	return cachesim.Config{Levels: levels}
}

// validate checks the per-socket constraints of the backend's socket
// index; errors name fields the way the document spells them
// ("sockets[1].cores").
func (s *Socket) validate(backend string, index int) error {
	bad := func(field, format string, args ...interface{}) error {
		return fmt.Errorf("platform: backend %q: sockets[%d].%s: %s", backend, index, field, fmt.Sprintf(format, args...))
	}
	if s.Cores <= 0 {
		return bad("cores", "must be > 0, got %d", s.Cores)
	}
	if s.Threads < s.Cores {
		return bad("threads", "must be >= cores (%d), got %d", s.Cores, s.Threads)
	}
	if s.CoreMinGHz <= 0 || s.CoreMaxGHz < s.CoreMinGHz {
		return bad("core_min_ghz/core_max_ghz", "need 0 < min <= max, got [%g, %g]", s.CoreMinGHz, s.CoreMaxGHz)
	}
	if s.CoreBaseGHz < s.CoreMinGHz || s.CoreBaseGHz > s.CoreMaxGHz {
		return bad("core_base_ghz", "must lie in [%g, %g], got %g", s.CoreMinGHz, s.CoreMaxGHz, s.CoreBaseGHz)
	}
	if s.UncoreMinGHz <= 0 || s.UncoreMaxGHz < s.UncoreMinGHz {
		return bad("uncore_min_ghz/uncore_max_ghz", "need 0 < min <= max, got [%g, %g]", s.UncoreMinGHz, s.UncoreMaxGHz)
	}
	if s.CapStepGHz <= 0 {
		return bad("cap_step_ghz", "must be > 0, got %g", s.CapStepGHz)
	}
	if s.CapLatencySec < 0 {
		return bad("cap_latency_sec", "must be >= 0, got %g", s.CapLatencySec)
	}
	if len(s.Cache) == 0 {
		return bad("cache", "need at least one level")
	}
	for i, lv := range s.Cache {
		if lv.Name == "" {
			return bad("cache", "level %d: name must be non-empty", i)
		}
		if lv.SizeBytes <= 0 || lv.LineSize <= 0 || lv.Assoc <= 0 {
			return bad("cache", "level %s: size_bytes, line_size and assoc must be > 0", lv.Name)
		}
		if lv.SizeBytes%(lv.LineSize*lv.Assoc) != 0 {
			return bad("cache", "level %s: size %d is not a whole number of sets (line %d x assoc %d)",
				lv.Name, lv.SizeBytes, lv.LineSize, lv.Assoc)
		}
		if i > 0 && lv.SizeBytes < s.Cache[i-1].SizeBytes {
			return bad("cache", "level %s: smaller than inner level %s", lv.Name, s.Cache[i-1].Name)
		}
	}
	t := &s.Truth
	if t.FlopsPerCycle <= 0 {
		return bad("truth.flops_per_cycle", "must be > 0, got %g", t.FlopsPerCycle)
	}
	if len(t.HitLatencyNs) != len(s.Cache) {
		return bad("truth.hit_latency_ns", "need one latency per cache level (%d), got %d", len(s.Cache), len(t.HitLatencyNs))
	}
	for i, h := range t.HitLatencyNs {
		if h <= 0 {
			return bad("truth.hit_latency_ns", "level %d: must be > 0, got %g", i, h)
		}
	}
	if t.BWPeakGBs <= 0 || t.BWKneeGHz <= 0 {
		return bad("truth.bw_peak_gbs/bw_knee_ghz", "must be > 0, got %g / %g", t.BWPeakGBs, t.BWKneeGHz)
	}
	if t.MLP < 1 || t.MLPSystem < t.MLP {
		return bad("truth.mlp/mlp_system", "need 1 <= mlp <= mlp_system, got %g / %g", t.MLP, t.MLPSystem)
	}
	if t.ILP < 1 {
		return bad("truth.ilp", "must be >= 1, got %g", t.ILP)
	}
	if t.Overlap < 0 || t.Overlap > 1 {
		return bad("truth.overlap", "must be in [0, 1], got %g", t.Overlap)
	}
	return nil
}

// Interconnect models the inter-socket link of a multi-socket topology
// (QPI/UPI-shaped): every remote DRAM access crosses it, paying extra
// latency, sharing its bandwidth, and spending link energy per byte.
type Interconnect struct {
	// BWGBs is the sustained link bandwidth in GB/s (per direction).
	BWGBs float64 `json:"bw_gbs"`
	// LatencyNs is the extra per-cache-line latency of a remote access
	// over a local one.
	LatencyNs float64 `json:"latency_ns"`
	// EnergyPJPerByte is the link transfer energy in picojoules per byte.
	EnergyPJPerByte float64 `json:"energy_pj_per_byte,omitempty"`
}

func (ic *Interconnect) validate(backend string) error {
	bad := func(field, format string, args ...interface{}) error {
		return fmt.Errorf("platform: backend %q: interconnect.%s: %s", backend, field, fmt.Sprintf(format, args...))
	}
	if ic.BWGBs <= 0 {
		return bad("bw_gbs", "must be > 0, got %g", ic.BWGBs)
	}
	if ic.LatencyNs < 0 {
		return bad("latency_ns", "must be >= 0, got %g", ic.LatencyNs)
	}
	if ic.EnergyPJPerByte < 0 {
		return bad("energy_pj_per_byte", "must be >= 0, got %g", ic.EnergyPJPerByte)
	}
	return nil
}

// LinkCost is the per-byte service time and energy a remote DRAM access
// pays on top of a local one.
type LinkCost struct{ SecPerByte, JoulesPerByte float64 }

// Link is the declared interconnect's per-byte cost, the one both the
// compiler's model and the simulated machine charge: the line-amortized
// link latency plus the bandwidth share, and the transfer energy.
// Without an interconnect (one socket) it is zero.
func (b *Backend) Link() LinkCost {
	const remoteLineBytes = 64 // remote DRAM traffic crosses the link line by line
	if b.Interconnect == nil || b.Interconnect.BWGBs <= 0 {
		return LinkCost{}
	}
	ic := b.Interconnect
	return LinkCost{
		SecPerByte:    1/(ic.BWGBs*1e9) + ic.LatencyNs*1e-9/remoteLineBytes,
		JoulesPerByte: ic.EnergyPJPerByte * 1e-12,
	}
}

// RemoteShare is the placement rule the compiler and the simulated
// machine both apply: a parallel nest spans all S sockets with memory
// interleaved, so (S-1)/S of its DRAM traffic crosses the link; a serial
// nest is pinned with its data local, and one socket shares nothing.
func (b *Backend) RemoteShare(parallel bool) float64 {
	if !parallel || len(b.Sockets) < 2 {
		return 0
	}
	S := float64(len(b.Sockets))
	return (S - 1) / S
}

// NestThreads is the thread count a nest runs (and is modeled) with
// under the same placement: a parallel nest spans every socket's
// threads, a serial one runs on one.
func (b *Backend) NestThreads(parallel bool) int {
	if !parallel {
		return 1
	}
	return b.TotalThreads()
}

// NumSockets returns the socket count.
func (b *Backend) NumSockets() int { return len(b.Sockets) }

// NumNodes returns the cluster node count the description models: the
// nodes field, or 1 when absent. Nodes are identical replicas of the
// socket topology sharing one calibration.
func (b *Backend) NumNodes() int {
	if b.Nodes > 1 {
		return b.Nodes
	}
	return 1
}

// Homogeneous reports whether every socket is identical to socket 0 —
// when true, one calibration (socket 0's) serves all sockets.
func (b *Backend) Homogeneous() bool {
	for i := 1; i < len(b.Sockets); i++ {
		if !reflect.DeepEqual(b.Sockets[i], b.Sockets[0]) {
			return false
		}
	}
	return true
}

// TotalCores and TotalThreads sum over the topology (a parallel nest
// spanning the whole node sees TotalThreads workers).
func (b *Backend) TotalCores() int {
	n := 0
	for _, s := range b.Sockets {
		n += s.Cores
	}
	return n
}

func (b *Backend) TotalThreads() int {
	n := 0
	for _, s := range b.Sockets {
		n += s.Threads
	}
	return n
}

// TopologySummary renders the description's topology for human eyes —
// the CLIs print it under their -topology flag.
func (b *Backend) TopologySummary() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s (%s): %d socket(s), %d node(s), %d cores / %d threads total\n",
		b.Name, b.CPU, b.NumSockets(), b.NumNodes(), b.TotalCores(), b.TotalThreads())
	for i, s := range b.Sockets {
		steps := int((s.UncoreMaxGHz-s.UncoreMinGHz)/s.CapStepGHz+1e-9) + 1
		fmt.Fprintf(&sb, "  socket %d: %dC/%dT, core %.2f-%.2f GHz, uncore %.2f-%.2f GHz (step %.2f, %d cap levels)\n",
			i, s.Cores, s.Threads, s.CoreMinGHz, s.CoreMaxGHz,
			s.UncoreMinGHz, s.UncoreMaxGHz, s.CapStepGHz, steps)
	}
	if ic := b.Interconnect; ic != nil {
		fmt.Fprintf(&sb, "  interconnect: %g GB/s per direction, +%g ns remote latency, %g pJ/B\n",
			ic.BWGBs, ic.LatencyNs, ic.EnergyPJPerByte)
	}
	if n := b.NumNodes(); n > 1 {
		fmt.Fprintf(&sb, "  cluster: %d identical data-parallel replica nodes\n", n)
	}
	return sb.String()
}
