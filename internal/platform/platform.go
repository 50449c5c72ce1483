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
	"reflect"
)

// SchemaVersion is the current backend-description schema (v2:
// topology-aware — a sockets array plus an interconnect section).
// SchemaVersionV1 single-socket files are still read, load as a
// 1-socket topology and re-serialize as schema 1 (their content hashes
// pin artifacts in the wild); any other "schema" value is rejected at
// parse time.
const (
	SchemaVersionV1 = 1
	SchemaVersion   = 2
)

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
// constructors in hw hardcoded, as data. In memory a machine is always a
// socket list — Sockets[0] is the machine of a single-socket description —
// and only the JSON codec below knows the flat single-socket spelling.
// Decode with Parse, encode with Marshal.
type Backend struct {
	// Schema is the wire layout Marshal emits (SchemaVersionV1: one socket
	// spelled flat at the top level; SchemaVersion: a sockets array).
	Schema int
	// Name is the canonical registry name ("BDW"); Aliases resolve too
	// (lookups are case-insensitive either way).
	Name    string
	Aliases []string
	CPU     string
	// Released is the launch year (Table III).
	Released int
	// Paper marks the two Table-III evaluation machines; golden outputs
	// sweep exactly the paper set.
	Paper bool
	// Sockets is the topology: one entry per socket, each with its own
	// uncore domain, cap grid and truth constants. Never empty in a valid
	// description.
	Sockets []Socket
	// Interconnect models the inter-socket link; required when the
	// topology has more than one socket.
	Interconnect *Interconnect
	// Nodes models an N-node cluster of identical replicas of this
	// topology sharing one calibration; 0 (absent) means one node.
	Nodes int
}

// wireBackend is the JSON layout of both schema versions. The embedded
// Socket is the flat top-level block: the whole machine of a schema-1
// document, a repeat of sockets[0] in a schema-2 one. Field order and
// omitempty are load-bearing — Hash is taken over these bytes, and it
// pins calibrations, journals and CAS addresses.
type wireBackend struct {
	Schema   int      `json:"schema"`
	Name     string   `json:"name"`
	Aliases  []string `json:"aliases,omitempty"`
	CPU      string   `json:"cpu"`
	Released int      `json:"released"`
	Paper    bool     `json:"paper,omitempty"`
	Socket
	Sockets      []Socket      `json:"sockets,omitempty"`
	Interconnect *Interconnect `json:"interconnect,omitempty"`
	Nodes        int           `json:"nodes,omitempty"`
}

// wire lays the description out for encoding: the flat socket-0 block
// first, and the sockets array only for schema-2 descriptions.
func (b *Backend) wire() wireBackend {
	w := wireBackend{
		Schema: b.Schema, Name: b.Name, Aliases: b.Aliases, CPU: b.CPU,
		Released: b.Released, Paper: b.Paper,
		Interconnect: b.Interconnect, Nodes: b.Nodes,
	}
	if len(b.Sockets) > 0 {
		w.Socket = b.Sockets[0]
	}
	if b.Schema != SchemaVersionV1 {
		w.Sockets = b.Sockets
	}
	return w
}

// flatContradiction checks the flat block of a schema-2 document against
// socket 0: it may be omitted or repeat socket 0 exactly; anything else
// is an error naming the first differing field.
func flatContradiction(backend string, flat, s0 Socket) error {
	if reflect.DeepEqual(flat, Socket{}) {
		return nil
	}
	fv, sv := reflect.ValueOf(flat), reflect.ValueOf(s0)
	for i := 0; i < fv.NumField(); i++ {
		if f, s := fv.Field(i).Interface(), sv.Field(i).Interface(); !reflect.DeepEqual(f, s) {
			field := fv.Type().Field(i).Tag.Get("json")
			return fmt.Errorf("platform: backend %q: %s: top-level value %v contradicts sockets[0].%s %v", backend, field, f, field, s)
		}
	}
	return nil
}

// Validate checks a description for internal consistency and returns a
// field-level error naming the first violation.
func (b *Backend) Validate() error {
	if b == nil {
		return fmt.Errorf("platform: nil backend")
	}
	if b.Schema != SchemaVersionV1 && b.Schema != SchemaVersion {
		return fmt.Errorf("platform: backend %q: schema: got version %d, this build reads versions %d and %d (re-export the description or upgrade)",
			b.Name, b.Schema, SchemaVersionV1, SchemaVersion)
	}
	if b.Schema == SchemaVersionV1 && (len(b.Sockets) > 1 || b.Interconnect != nil || b.Nodes != 0) {
		return fmt.Errorf("platform: backend %q: schema: version %d descriptions cannot carry sockets/interconnect/nodes (re-export as schema %d)",
			b.Name, SchemaVersionV1, SchemaVersion)
	}
	if b.Name == "" {
		return fmt.Errorf("platform: backend description: name: must be non-empty")
	}
	if len(b.Sockets) == 0 {
		return fmt.Errorf("platform: backend %q: sockets: need at least one socket", b.Name)
	}
	for i := range b.Sockets {
		// Errors name fields the way the document spells them.
		prefix := ""
		if b.Schema != SchemaVersionV1 {
			prefix = fmt.Sprintf("sockets[%d].", i)
		}
		if err := b.Sockets[i].validate(b.Name, prefix); err != nil {
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

// Parse decodes one backend description, rejecting unknown fields (typos
// in hand-written files surface as errors, not silent zeros) and
// validating the result. A schema-1 document is upgraded to a one-socket
// topology here, once.
func Parse(data []byte) (*Backend, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var w wireBackend
	if err := dec.Decode(&w); err != nil {
		return nil, fmt.Errorf("platform: parse backend description: %w", err)
	}
	b := &Backend{
		Schema: w.Schema, Name: w.Name, Aliases: w.Aliases, CPU: w.CPU,
		Released: w.Released, Paper: w.Paper,
		Sockets: w.Sockets, Interconnect: w.Interconnect, Nodes: w.Nodes,
	}
	if w.Schema == SchemaVersionV1 {
		// Validate rejects the second socket a smuggled sockets array adds.
		b.Sockets = append([]Socket{w.Socket}, w.Sockets...)
	}
	if err := b.Validate(); err != nil {
		return nil, err
	}
	if w.Schema != SchemaVersionV1 {
		if err := flatContradiction(w.Name, w.Socket, w.Sockets[0]); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// Marshal renders the description as indented, field-stable JSON.
func (b *Backend) Marshal() ([]byte, error) {
	out, err := json.MarshalIndent(b.wire(), "", "  ")
	if err != nil {
		return nil, fmt.Errorf("platform: marshal backend %q: %w", b.Name, err)
	}
	return append(out, '\n'), nil
}

// Hash is a content hash of the canonical (compact JSON) description,
// used to key memoized calibrations and to pin a Calibration artifact to
// the exact description it was fitted against.
func (b *Backend) Hash() string {
	data, err := json.Marshal(b.wire())
	if err != nil {
		// Backend has no unmarshalable fields; keep the signature clean.
		panic(fmt.Sprintf("platform: hash backend %q: %v", b.Name, err))
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:8])
}
