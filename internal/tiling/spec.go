// Package tiling is the tile stage of the compile pipeline: Apply tiles
// one nest under a Spec and reports per-nest metadata (which strategy
// ran, whether it tiled, the tile size it chose). The legality machinery —
// dependence analysis, permutable-band detection, rectangular tiling
// math, parallel marking — is internal/pluto's for every strategy; what
// varies is how the tile size is chosen:
//
//   - "pluto" reproduces the paper's baseline exactly: the fixed tile
//     size of pluto.DefaultOptions (32) or the spec's size.
//   - "cacheoblivious" approximates PCOT-style recursive space
//     partitioning: the tile size is a power of two derived from the
//     nest's own iteration-space extent (the leaf a recursive bisection
//     would bottom out at), independent of any cache parameter — its
//     miss curve is size-robust where a fixed 32 is not.
//   - "latency" derives the tile size from miss-ratio scaling: a small
//     ladder of candidate sizes is scored on the target's hierarchy (the
//     exact internal/cachesim trace for small nests, PolyUFC-CM's counts
//     for large ones) and the candidate with the lowest modeled access
//     latency wins.
//   - "auto" runs the three concrete strategies as candidates, scores
//     each transformed nest by the EDP of the uncore cap PolyUFC-SEARCH
//     would select for it (Context.CapEDP), and keeps the lowest; ties go
//     to candidate order. Candidates that error or cannot be scored are
//     skipped, never selected.
//
// A Spec is the parsed CLI/serve form of a strategy choice
// ("-tiling latency:probe=3"); its Fingerprint feeds cache keys and stage
// salts so distinct strategies never share memoized artifacts.
package tiling

import (
	"fmt"
	"strconv"
	"strings"
)

// Strategy names.
const (
	NamePluto          = "pluto"
	NameCacheOblivious = "cacheoblivious"
	NameLatency        = "latency"
	NameAuto           = "auto"
)

// Names lists the registered strategy names in canonical order (the
// order auto probes its candidates in).
func Names() []string {
	return []string{NamePluto, NameCacheOblivious, NameLatency, NameAuto}
}

// Spec is a parsed tiling-strategy choice. The zero value means the
// default pluto strategy (the pre-strategy pipeline), so a zero-value
// core.Config keeps compiling byte-identically.
type Spec struct {
	// Name selects the strategy; empty means "pluto".
	Name string
	// Size overrides the pluto strategy's tile size (0 keeps the
	// Config's pluto.Options value).
	Size int64
	// Probe bounds how many candidate tile sizes the latency strategy
	// models per nest (0 selects DefaultProbe).
	Probe int
	// Base is the cacheoblivious strategy's smallest leaf tile (0
	// selects DefaultBase).
	Base int64
}

// Defaults for the optional Spec knobs.
const (
	DefaultProbe = 4
	DefaultBase  = 8
)

// Normalize resolves the zero value to the canonical pluto spec.
func (s Spec) Normalize() Spec {
	if s.Name == "" {
		s.Name = NamePluto
	}
	return s
}

// Validate reports an unknown strategy name (the empty name is pluto only
// once normalized). core's tile stage checks it before any nest, so a bad
// name fails the compile under every degrade policy instead of degrading
// each nest.
func (s Spec) Validate() error {
	switch s.Name {
	case NamePluto, NameCacheOblivious, NameLatency, NameAuto:
		return nil
	}
	return fmt.Errorf("tiling: unknown strategy %q (want one of %s)", s.Name, strings.Join(Names(), ", "))
}

// ReadsTarget reports whether the strategy consults the target through the
// Context: latency and auto score candidates on its hierarchy (auto also
// by Context.CapEDP). One that does not produces the same nest on every
// platform, and the tile stage's memo key says so by leaving the platform
// out.
func (s Spec) ReadsTarget() bool {
	return s.Name == NameLatency || s.Name == NameAuto
}

// Fingerprint canonicalizes the spec for cache keys and stage salts:
// equal fingerprints select identical transforms, distinct strategies
// (or options) never share memoized artifacts.
func (s Spec) Fingerprint() string {
	s = s.Normalize()
	switch s.Name {
	case NamePluto:
		if s.Size > 0 {
			return fmt.Sprintf("%s:size=%d", NamePluto, s.Size)
		}
	case NameCacheOblivious:
		if s.Base > 0 && s.Base != DefaultBase {
			return fmt.Sprintf("%s:base=%d", NameCacheOblivious, s.Base)
		}
	case NameLatency:
		if s.Probe > 0 && s.Probe != DefaultProbe {
			return fmt.Sprintf("%s:probe=%d", NameLatency, s.Probe)
		}
	}
	return s.Name
}

// String renders the canonical spec form (same as Fingerprint).
func (s Spec) String() string { return s.Fingerprint() }

// ParseSpec parses a CLI tiling spec: a strategy name optionally followed
// by comma-separated key=value options after a colon —
//
//	pluto            pluto:size=64
//	cacheoblivious   cacheoblivious:base=16
//	latency          latency:probe=3
//	auto
//
// An empty spec selects the default pluto strategy.
func ParseSpec(spec string) (Spec, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return Spec{Name: NamePluto}, nil
	}
	name, opts, hasOpts := strings.Cut(spec, ":")
	name = strings.TrimSpace(name)
	s := Spec{Name: name}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	if !hasOpts {
		return s, nil
	}
	if strings.TrimSpace(opts) == "" {
		return Spec{}, fmt.Errorf("tiling: bad spec %q (empty option list after %q)", spec, name)
	}
	for _, opt := range strings.Split(opts, ",") {
		opt = strings.TrimSpace(opt)
		if opt == "" {
			return Spec{}, fmt.Errorf("tiling: bad spec %q (empty option)", spec)
		}
		key, val, ok := strings.Cut(opt, "=")
		if !ok || key == "" || val == "" {
			return Spec{}, fmt.Errorf("tiling: bad option %q in %q (want key=value)", opt, spec)
		}
		switch name + "." + key {
		case NamePluto + ".size":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil || n < 2 || n > 1<<20 {
				return Spec{}, fmt.Errorf("tiling: bad tile size %q in %q (want 2 <= size <= %d)", val, spec, 1<<20)
			}
			s.Size = n
		case NameCacheOblivious + ".base":
			n, err := strconv.ParseInt(val, 10, 64)
			if err != nil || n < 2 || n > 1<<16 {
				return Spec{}, fmt.Errorf("tiling: bad base tile %q in %q (want 2 <= base <= %d)", val, spec, 1<<16)
			}
			s.Base = n
		case NameLatency + ".probe":
			n, err := strconv.Atoi(val)
			if err != nil || n < 1 || n > len(latencyLadder) {
				return Spec{}, fmt.Errorf("tiling: bad probe count %q in %q (want 1 <= probe <= %d)", val, spec, len(latencyLadder))
			}
			s.Probe = n
		default:
			return Spec{}, fmt.Errorf("tiling: strategy %q does not take option %q (in %q)", name, key, spec)
		}
	}
	return s, nil
}
