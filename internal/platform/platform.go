// Package platform is the registry of machine descriptions PolyUFC can
// target. A Backend is a declarative, schema-versioned description of one
// machine — topology, cache hierarchy, uncore frequency range and cap
// step, and the hidden truth/simulator parameters — serializable to JSON
// (platforms/*.json) so new machines are added as data, not code
// (Kerncraft-style machine files). A Calibration is the persisted result
// of the one-time roofline micro-benchmark fit over a Backend: the
// Table-I Constants plus Sec. V curve fits, stamped with provenance (fit
// date, seed, fit residuals) so operators can tell which machine model
// served a request.
//
// The package is a leaf: hw constructs Platforms/Machines from a Backend,
// roofline calibrates one and resolves the (Backend, Platform, Constants)
// triple into a Target, and everything above consumes that handle.
package platform

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"
)

// schemaVersion is the one backend-description schema: a sockets array
// plus an optional interconnect section and node count. Parse rejects any
// other "schema" value and any socket field spelled at the top level.
const schemaVersion = 2

// Truth holds the hidden machine constants the hardware simulator uses.
// They are not exported to the analytic model; PolyUFC must recover
// equivalent information through roofline micro-benchmarking. In a
// backend description they play the role of the simulator's silicon.
type Truth struct {
	// FlopsPerCycle is the per-core FPU throughput (AVX FMA lanes).
	FlopsPerCycle float64 `json:"flops_per_cycle"`
	// HitLatencyNs is the load-to-use latency per cache level.
	HitLatencyNs []float64 `json:"hit_latency_ns"`
	// DRAMLatCoefNsGHz and DRAMLatBaseNs give the per-miss DRAM service
	// latency a/f + b (ns, f in GHz): the uncore clock gates the path.
	DRAMLatCoefNsGHz float64 `json:"dram_lat_coef_ns_ghz"`
	DRAMLatBaseNs    float64 `json:"dram_lat_base_ns"`
	// Sustained DRAM bandwidth follows the saturating interconnect curve
	// bw(f) = BWPeakGBs * f / (f + BWKneeGHz): per-byte service time is
	// then exactly hyperbolic in f (a/f + b), the shape the paper observes
	// and fits on real uncore hardware; beyond the knee, extra uncore
	// frequency is over-provisioning (Sec. II-F).
	BWPeakGBs float64 `json:"bw_peak_gbs"`
	BWKneeGHz float64 `json:"bw_knee_ghz"`
	// MLP is the per-core memory-level parallelism (outstanding misses);
	// MLPSystem caps the whole-chip total.
	MLP       float64 `json:"mlp"`
	MLPSystem float64 `json:"mlp_system"`
	// ILP overlaps cache-hit latencies with computation.
	ILP float64 `json:"ilp"`
	// Overlap is the fraction of the smaller of compute/memory time not
	// hidden under the larger.
	Overlap float64 `json:"overlap"`
	// PConstW is constant (static + board) power.
	PConstW float64 `json:"p_const_w"`
	// CoreIdleWPerGHz is core clock-tree power per GHz (paid whenever the
	// cores are clocked, even when stalled on memory).
	CoreIdleWPerGHz float64 `json:"core_idle_w_per_ghz"`
	// CoreJPerFlop is dynamic core energy per arithmetic operation.
	CoreJPerFlop float64 `json:"core_j_per_flop"`
	// UncoreIdleWPerGHz is uncore clock-tree power per GHz, always paid.
	UncoreIdleWPerGHz float64 `json:"uncore_idle_w_per_ghz"`
	// UncoreActWPerGHz and UncoreActBaseW scale with memory utilization:
	// P_uncore_dyn = (act*f + base) * utilization.
	UncoreActWPerGHz float64 `json:"uncore_act_w_per_ghz"`
	UncoreActBaseW   float64 `json:"uncore_act_base_w"`
}

// CacheLevel describes one level of the cache hierarchy.
type CacheLevel struct {
	Name      string `json:"name"`
	SizeBytes int64  `json:"size_bytes"`
	LineSize  int64  `json:"line_size"`
	Assoc     int64  `json:"assoc"`
}

// Backend is the declarative description of one machine: everything the
// constructors in hw hardcoded, as data. Decode with Parse, encode with
// Marshal. The JSON field order and omitempty are load-bearing — Hash is
// taken over these bytes, and it pins calibrations, journals and CAS
// addresses.
type Backend struct {
	// Name is the canonical registry name ("BDW"); Aliases resolve too
	// (lookups are case-insensitive either way).
	Name    string   `json:"name"`
	Aliases []string `json:"aliases,omitempty"`
	CPU     string   `json:"cpu"`
	// Released is the launch year (Table III).
	Released int `json:"released"`
	// Paper marks the two Table-III evaluation machines; golden outputs
	// sweep exactly the paper set.
	Paper bool `json:"paper,omitempty"`
	// Sockets is the topology: one entry per socket, each with its own
	// uncore domain, cap grid and truth constants. Never empty in a valid
	// description; Sockets[0] is the machine of a single-socket one.
	Sockets []Socket `json:"sockets"`
	// Interconnect models the inter-socket link; required when the
	// topology has more than one socket.
	Interconnect *Interconnect `json:"interconnect,omitempty"`
	// Nodes models an N-node cluster of identical replicas of this
	// topology sharing one calibration; 0 (absent) means one node.
	Nodes int `json:"nodes,omitempty"`
}

// wireBackend is the document layout: the schema version, then the
// description's own fields.
type wireBackend struct {
	Schema int `json:"schema"`
	*Backend
}

// Validate checks a description for internal consistency and returns a
// field-level error naming the first violation.
func (b *Backend) Validate() error {
	if b == nil {
		return fmt.Errorf("platform: nil backend")
	}
	if b.Name == "" {
		return fmt.Errorf("platform: backend description: name: must be non-empty")
	}
	if len(b.Sockets) == 0 {
		return fmt.Errorf("platform: backend %q: sockets: need at least one socket", b.Name)
	}
	for i := range b.Sockets {
		if err := b.Sockets[i].validate(b.Name, i); err != nil {
			return err
		}
	}
	if len(b.Sockets) > 1 && b.Interconnect == nil {
		return fmt.Errorf("platform: backend %q: interconnect: required for multi-socket topologies", b.Name)
	}
	if b.Interconnect != nil {
		if err := b.Interconnect.validate(b.Name); err != nil {
			return err
		}
	}
	if b.Nodes < 0 {
		return fmt.Errorf("platform: backend %q: nodes: must be >= 0 (0 means one node), got %d", b.Name, b.Nodes)
	}
	return nil
}

// Parse decodes one backend description, rejecting another schema
// version and unknown fields (typos in hand-written files, and socket
// fields outside "sockets", surface as errors, not silent zeros), and
// validates the result.
func Parse(data []byte) (*Backend, error) {
	var head struct {
		Schema int `json:"schema"`
	}
	if err := json.Unmarshal(data, &head); err != nil {
		return nil, fmt.Errorf("platform: parse backend description: %w", err)
	}
	if head.Schema != schemaVersion {
		return nil, fmt.Errorf("platform: backend description: schema: got version %d, this build reads version %d only (to convert, set \"schema\": %[2]d and move the top-level socket fields into \"sockets\": [{…}])",
			head.Schema, schemaVersion)
	}
	b := new(Backend)
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&wireBackend{Backend: b}); err != nil {
		if strings.HasPrefix(err.Error(), "json: unknown field") {
			return nil, fmt.Errorf("platform: parse backend description: %w (socket fields belong in \"sockets\": [{…}])", err)
		}
		return nil, fmt.Errorf("platform: parse backend description: %w", err)
	}
	if err := b.Validate(); err != nil {
		return nil, err
	}
	return b, nil
}

// Marshal renders the description as indented, field-stable JSON.
func (b *Backend) Marshal() ([]byte, error) {
	out, err := json.MarshalIndent(wireBackend{schemaVersion, b}, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("platform: marshal backend %q: %w", b.Name, err)
	}
	return append(out, '\n'), nil
}

// Hash is a content hash of the canonical (compact JSON) description,
// used to key memoized calibrations and to pin a Calibration artifact to
// the exact description it was fitted against.
func (b *Backend) Hash() string {
	data, err := json.Marshal(wireBackend{schemaVersion, b})
	if err != nil {
		// Backend has no unmarshalable fields; keep the signature clean.
		panic(fmt.Sprintf("platform: hash backend %q: %v", b.Name, err))
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:8])
}
