// Package plantable precomputes PolyUFC-SEARCH answers into versioned,
// serializable capping-plan tables, turning the hottest serve path from
// a multi-compile bisection into a table lookup (Kerncraft-style
// ahead-of-time analytic modeling, PAPERS.md).
//
// The precomputation is sound because the bisection's answer depends
// only on a kernel's *intensive shape*, not its absolute volume: for the
// Sec. V model, t(f) = Q * (a + M(f)) where Q is the timed DRAM traffic,
// a the frequency-independent seconds per DRAM byte (compute + cache
// hits) and M(f) the hyperbolic per-byte miss service time. Scaling a
// kernel uniformly multiplies every estimate's Seconds/Joules by Q (EDP
// by Q^2) and leaves performance and bandwidth untouched, so every score
// comparison and every delta ratio the search steers by is invariant.
// The search outcome is therefore a function of exactly three values:
// the CB/BB class, phi = Flops/Q (flops per timed DRAM byte — the OI
// axis) and a (normalized here by M at the reference frequency — the
// memory-ratio axis). A table sweeps a (phi x ratio) grid per class,
// densified around the backend's ridge point phi = BtDRAM where the
// characterization flips (SNIPPETS.md RooflineSpec), and answers serve
// requests by bilinear interpolation.
//
// On a multi-socket topology a placement adds a fourth value: rho, the
// share of the kernel's DRAM bytes that crosses the inter-socket link
// (the link's time folds into the memory ratio, its per-byte energy does
// not). The topology decides which shares occur — 0 for a pinned nest,
// (S-1)/S for one spanning S sockets — so every table carries one
// (phi x ratio) plane per share it can be asked about: one plane on a
// single socket, two on S > 1.
//
// Tables are pinned to the exact backend description hash and
// calibration-constants hash they were swept against: a table for an
// edited description or a re-fitted calibration is rejected with
// ErrStale, never silently reused. Cap frequencies are stored as grid
// *indices*, not floats, so fractional cap steps (0.05 GHz) round-trip
// through JSON onto exact grid points with no float-format drift.
package plantable

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"

	"polyufc/internal/hw"
	"polyufc/internal/model"
	"polyufc/internal/roofline"
	"polyufc/internal/search"
	"polyufc/internal/tiling"
)

// SchemaVersion is the plan-table format version. Files carrying a
// different "schema" value are rejected at parse time — an old table is
// rebuilt, not misread.
const SchemaVersion = 1

// maxCellSpread bounds how many grid indices the four corners of a cell
// may span before Lookup refuses to interpolate across it. A cell whose
// corners disagree by more than one step sits on a cliff of the cap
// surface (typically the ridge neighborhood); answering from it could
// miss the live bisection by the whole cliff height, so such lookups
// fall back to live search instead.
const maxCellSpread = 1

// ErrStale marks a table whose backend description or calibration no
// longer matches the target it is asked to answer for. Staleness is an
// error, never a silent fallback: the caller decides whether to rebuild.
var ErrStale = errors.New("plantable: stale table")

// Header is everything a table records besides its cap surfaces —
// identity, pins, cap grid and the two interpolated axes — spelled the
// same in memory and on the wire.
type Header struct {
	Schema int `json:"schema"`
	// Backend names the swept backend; BackendHash pins the exact
	// description and CalHash the exact calibration constants
	// (Constants.Hash) the sweep ran against.
	Backend     string `json:"backend"`
	BackendHash string `json:"backend_hash"`
	CalHash     string `json:"calibration_hash"`
	// Objective and Epsilon pin the search configuration the table
	// answers for; requests with different options fall back to live
	// search.
	Objective string  `json:"objective"`
	Epsilon   float64 `json:"epsilon"`
	// Tiling is the tiling-strategy fingerprint (tiling.Spec.Fingerprint)
	// the table answers for. The cap surface itself depends only on the
	// intensive shape, but compilations under different strategies hand
	// the lookup differently-shaped models, so tables are an axis of the
	// serving configuration: a table serves only requests compiled under
	// its strategy. Empty means "pluto" — tables written before the
	// strategy layer existed load unchanged and keep serving the default
	// pipeline.
	Tiling string `json:"tiling,omitempty"`
	// The uncore cap grid the stored indices address, in the anchored
	// (min, max, step) form of hw.GridPoint — indices, not floats, so
	// fractional steps round-trip exactly.
	UncoreMinGHz float64 `json:"uncore_min_ghz"`
	UncoreMaxGHz float64 `json:"uncore_max_ghz"`
	CapStepGHz   float64 `json:"cap_step_ghz"`
	// OIAxis is phi = Flops per timed DRAM byte, ascending, densified
	// around the ridge point BtDRAM. MemAxis is a / M(fRef): the
	// frequency-independent per-byte time over the miss service time at
	// the top grid frequency.
	OIAxis  []float64 `json:"oi_axis"`
	MemAxis []float64 `json:"mem_axis"`
}

// Table is one backend's precomputed capping-plan surface: for each
// (class, OI, memory-ratio, remote-share) cell, the uncore-grid index
// PolyUFC-SEARCH selects. Decode with Parse, encode with Marshal: only
// the JSON codec below knows the flat single-socket spelling.
type Table struct {
	Header
	// Socket is the uncore-domain index the table answers for. A
	// socket whose calibration differs from socket 0's sweeps its own
	// table; 0 answers for every socket sharing socket 0's fit.
	Socket int
	// RhoAxis lists, ascending from 0, the remote shares the target's
	// topology can place a nest at: {0} on a single socket, {0, (S-1)/S}
	// on S sockets. It is matched, never interpolated.
	RhoAxis []float64
	// CB and BB hold the selected grid index per (OIAxis[i], MemAxis[j],
	// RhoAxis[k]) cell for compute-bound and bandwidth-bound kernels.
	CB, BB [][][]int
}

// wireTable is the JSON layout. cb/bb are always the rho = 0 plane, so a
// single-socket table is the pre-topology document byte for byte;
// rho_axis, cb_rho and bb_rho (the whole surfaces) appear only when the
// axis has more than the 0 point.
type wireTable struct {
	Header
	CB      [][]int   `json:"cb"`
	BB      [][]int   `json:"bb"`
	Socket  int       `json:"socket,omitempty"`
	RhoAxis []float64 `json:"rho_axis,omitempty"`
	CBR     [][][]int `json:"cb_rho,omitempty"`
	BBR     [][][]int `json:"bb_rho,omitempty"`
}

// rhoPlane extracts the rho = 0 plane of a surface; liftPlane is its
// inverse for a one-point axis.
func rhoPlane(s [][][]int) [][]int {
	out := make([][]int, len(s))
	for i, row := range s {
		out[i] = make([]int, len(row))
		for j, cell := range row {
			out[i][j] = cell[0]
		}
	}
	return out
}

func liftPlane(p [][]int) [][][]int {
	out := make([][][]int, len(p))
	for i, row := range p {
		out[i] = make([][]int, len(row))
		for j := range row {
			out[i][j] = row[j : j+1 : j+1]
		}
	}
	return out
}

// TilingName returns the tiling-strategy fingerprint the table answers
// for, with the pre-strategy default normalized: tables written before
// the tiling axis existed are pluto tables.
func (tb *Table) TilingName() string {
	if tb.Tiling == "" {
		return tiling.NamePluto
	}
	return tb.Tiling
}

// GridSize returns the number of cap-grid points the table addresses.
func (tb *Table) GridSize() int {
	return hw.GridSize(tb.UncoreMinGHz, tb.UncoreMaxGHz, tb.CapStepGHz)
}

// GridFreq returns the cap frequency of grid index i, clamped into the
// table's grid. It goes through the same anchored index math as
// hw.Platform.UncoreSteps, so a deserialized table reproduces the
// platform's grid points exactly.
func (tb *Table) GridFreq(i int) float64 {
	n := tb.GridSize()
	if i < 0 {
		i = 0
	}
	if i > n-1 {
		i = n - 1
	}
	return hw.GridPoint(tb.UncoreMinGHz, tb.CapStepGHz, i)
}

// Cells returns the total number of swept cells (both class surfaces).
func (tb *Table) Cells() int { return 2 * len(tb.OIAxis) * len(tb.MemAxis) * len(tb.RhoAxis) }

// Validate checks structural invariants: schema, identity, a sane grid,
// strictly ascending finite axes, and index matrices of the declared
// shape with every entry on the grid. Parse enforces it so corrupt or
// hand-edited tables error instead of producing out-of-range caps.
func (tb *Table) Validate() error {
	if tb == nil {
		return fmt.Errorf("plantable: nil table")
	}
	if tb.Schema != SchemaVersion {
		return fmt.Errorf("plantable: table for %q: schema: got version %d, this build reads version %d (rebuild the table)",
			tb.Backend, tb.Schema, SchemaVersion)
	}
	if tb.Backend == "" {
		return fmt.Errorf("plantable: table: backend: must name the swept backend")
	}
	if tb.BackendHash == "" || tb.CalHash == "" {
		return fmt.Errorf("plantable: table for %q: backend_hash and calibration_hash must pin the swept target", tb.Backend)
	}
	if _, ok := search.ParseObjective(tb.Objective); !ok || tb.Objective == "" {
		return fmt.Errorf("plantable: table for %q: objective: unknown %q", tb.Backend, tb.Objective)
	}
	if !(tb.Epsilon > 0) {
		return fmt.Errorf("plantable: table for %q: epsilon: must be > 0, got %g", tb.Backend, tb.Epsilon)
	}
	if tb.Tiling != "" {
		spec, err := tiling.ParseSpec(tb.Tiling)
		if err != nil {
			return fmt.Errorf("plantable: table for %q: tiling: %w", tb.Backend, err)
		}
		if fp := spec.Fingerprint(); fp != tb.Tiling {
			return fmt.Errorf("plantable: table for %q: tiling: %q is not canonical (want %q)",
				tb.Backend, tb.Tiling, fp)
		}
	}
	if !(tb.UncoreMinGHz > 0) || tb.UncoreMaxGHz < tb.UncoreMinGHz || !(tb.CapStepGHz > 0) {
		return fmt.Errorf("plantable: table for %q: uncore grid: need 0 < min <= max and step > 0, got [%g, %g] step %g",
			tb.Backend, tb.UncoreMinGHz, tb.UncoreMaxGHz, tb.CapStepGHz)
	}
	if len(tb.OIAxis) < 2 || len(tb.MemAxis) < 2 {
		return fmt.Errorf("plantable: table for %q: axes need at least 2 points each, got %dx%d",
			tb.Backend, len(tb.OIAxis), len(tb.MemAxis))
	}
	if err := checkAxis("oi_axis", tb.OIAxis, true); err != nil {
		return fmt.Errorf("plantable: table for %q: %w", tb.Backend, err)
	}
	if err := checkAxis("mem_axis", tb.MemAxis, false); err != nil {
		return fmt.Errorf("plantable: table for %q: %w", tb.Backend, err)
	}
	if err := checkAxis("rho_axis", tb.RhoAxis, false); err != nil {
		return fmt.Errorf("plantable: table for %q: %w", tb.Backend, err)
	}
	if len(tb.RhoAxis) == 0 || tb.RhoAxis[0] != 0 || tb.RhoAxis[len(tb.RhoAxis)-1] > 1 {
		return fmt.Errorf("plantable: table for %q: rho_axis must start at 0 and stay within [0, 1], got %v",
			tb.Backend, tb.RhoAxis)
	}
	n := tb.GridSize()
	for name, m := range map[string][][][]int{"cb": tb.CB, "bb": tb.BB} {
		if len(m) != len(tb.OIAxis) {
			return fmt.Errorf("plantable: table for %q: %s: got %d rows, oi_axis has %d points",
				tb.Backend, name, len(m), len(tb.OIAxis))
		}
		for i, row := range m {
			if len(row) != len(tb.MemAxis) {
				return fmt.Errorf("plantable: table for %q: %s row %d: got %d entries, mem_axis has %d points",
					tb.Backend, name, i, len(row), len(tb.MemAxis))
			}
			for j, cell := range row {
				if len(cell) != len(tb.RhoAxis) {
					return fmt.Errorf("plantable: table for %q: %s[%d][%d]: got %d entries, rho_axis has %d points",
						tb.Backend, name, i, j, len(cell), len(tb.RhoAxis))
				}
				for k, idx := range cell {
					if idx < 0 || idx >= n {
						return fmt.Errorf("plantable: table for %q: %s[%d][%d][%d]: grid index %d out of range [0, %d)",
							tb.Backend, name, i, j, k, idx, n)
					}
				}
			}
		}
	}
	if tb.Socket < 0 {
		return fmt.Errorf("plantable: table for %q: socket: must be >= 0, got %d", tb.Backend, tb.Socket)
	}
	return nil
}

// checkAxis verifies an axis is finite, strictly ascending and (when
// positive is set) strictly positive.
func checkAxis(name string, axis []float64, positive bool) error {
	for i, v := range axis {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s[%d]: must be finite, got %g", name, i, v)
		}
		if positive && !(v > 0) {
			return fmt.Errorf("%s[%d]: must be > 0, got %g", name, i, v)
		}
		if !positive && v < 0 {
			return fmt.Errorf("%s[%d]: must be >= 0, got %g", name, i, v)
		}
		if i > 0 && v <= axis[i-1] {
			return fmt.Errorf("%s[%d]: must be strictly ascending, got %g after %g", name, i, v, axis[i-1])
		}
	}
	return nil
}

// Matches reports whether the table was swept against t's exact backend
// description and calibration. A mismatch wraps ErrStale — the table
// must be rebuilt, never silently served.
func (tb *Table) Matches(t *roofline.Target) error {
	if t == nil || t.Backend == nil || t.Constants == nil {
		return fmt.Errorf("plantable: table for %q: target carries no backend description", tb.Backend)
	}
	if tb.Backend != t.Backend.Name {
		return fmt.Errorf("%w: table is for backend %q, not %q", ErrStale, tb.Backend, t.Backend.Name)
	}
	if h := t.Backend.Hash(); tb.BackendHash != h {
		return fmt.Errorf("%w: table for %q was swept against description %s, but the current description is %s (rebuild the table)",
			ErrStale, tb.Backend, tb.BackendHash, h)
	}
	if tb.Socket >= t.NumSockets() {
		return fmt.Errorf("%w: table for %q answers socket %d, but the description has %d sockets",
			ErrStale, tb.Backend, tb.Socket, t.NumSockets())
	}
	// The calibration pin is per socket domain: socket tables check the
	// fit of their own socket (identical to Constants on single-socket
	// and homogeneous targets).
	if h := t.SocketConstants(tb.Socket).Hash(); tb.CalHash != h {
		return fmt.Errorf("%w: table for %q was swept against calibration %s, but the current calibration is %s (rebuild the table)",
			ErrStale, tb.Backend, tb.CalHash, h)
	}
	return nil
}

// Marshal renders the table as indented, field-stable JSON.
func (tb *Table) Marshal() ([]byte, error) {
	w := wireTable{
		Header: tb.Header, Socket: tb.Socket,
		CB: rhoPlane(tb.CB), BB: rhoPlane(tb.BB),
	}
	if len(tb.RhoAxis) > 1 {
		w.RhoAxis, w.CBR, w.BBR = tb.RhoAxis, tb.CB, tb.BB
	}
	out, err := json.MarshalIndent(w, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("plantable: marshal table %q: %w", tb.Backend, err)
	}
	return append(out, '\n'), nil
}

// Parse decodes one plan table, rejecting unknown fields (a typo or a
// future-format file errors instead of silently loading zeros) and
// validating every structural invariant. Corrupt, truncated or
// old-schema inputs return errors — never panic, never a half-loaded
// table. A document without a rho_axis is a one-plane table; one with a
// rho_axis carries its surfaces in cb_rho/bb_rho and may omit cb/bb or
// repeat the rho = 0 plane exactly.
func Parse(data []byte) (*Table, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var w wireTable
	if err := dec.Decode(&w); err != nil {
		return nil, fmt.Errorf("plantable: parse table: %w", err)
	}
	tb := &Table{Header: w.Header, Socket: w.Socket, RhoAxis: w.RhoAxis, CB: w.CBR, BB: w.BBR}
	flat := len(w.RhoAxis) == 0
	if flat {
		if len(w.CBR) != 0 || len(w.BBR) != 0 {
			return nil, fmt.Errorf("plantable: table for %q: cb_rho/bb_rho present without a rho_axis", w.Backend)
		}
		tb.RhoAxis, tb.CB, tb.BB = []float64{0}, liftPlane(w.CB), liftPlane(w.BB)
	}
	if err := tb.Validate(); err != nil {
		return nil, err
	}
	if !flat && (w.CB != nil && !reflect.DeepEqual(w.CB, rhoPlane(tb.CB)) ||
		w.BB != nil && !reflect.DeepEqual(w.BB, rhoPlane(tb.BB))) {
		return nil, fmt.Errorf("plantable: table for %q: cb/bb contradict the rho = 0 plane cb_rho/bb_rho[..][..][0]", w.Backend)
	}
	return tb, nil
}

// Save writes the table atomically (temp file + rename, the journal's
// persistence discipline): a crash mid-write leaves either no table or
// the previous complete one, never a torn file.
func (tb *Table) Save(path string) error {
	data, err := tb.Marshal()
	if err != nil {
		return err
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".plantable-*.json")
	if err != nil {
		return fmt.Errorf("plantable: save table: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("plantable: save table: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("plantable: save table: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("plantable: save table: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("plantable: save table: %w", err)
	}
	return nil
}

// Load reads and validates a plan table file.
func Load(path string) (*Table, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("plantable: load table: %w", err)
	}
	tb, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%w (file %s)", err, path)
	}
	return tb, nil
}

// Shape is the intensive parameterization of one kernel model: the only
// values the search outcome depends on (see the package comment).
type Shape struct {
	Class roofline.Class
	// Phi is Flops per timed DRAM byte (the OI axis).
	Phi float64
	// Ratio is the frequency-independent local per-byte time over M(fRef)
	// (the memory axis).
	Ratio float64
	// Rho is the share of DRAM bytes served across the inter-socket link.
	Rho float64
}

// refFreq returns the table's reference frequency: the top grid point
// (not UncoreMax, which fractional steps may leave off the grid).
func (tb *Table) refFreq() float64 {
	return tb.GridFreq(tb.GridSize() - 1)
}

// Decompose reduces a fitted kernel model to its intensive shape against
// a reference frequency. It reports false for kernels outside the
// model's tabulable family (no DRAM traffic — their time is
// frequency-independent and the search degenerates).
func Decompose(m *model.Model, fRef float64) (Shape, bool) {
	q := m.KS.QDRAMTime
	if q == 0 {
		q = m.KS.QDRAM
	}
	if q <= 0 || fRef <= 0 {
		return Shape{}, false
	}
	mRef := m.C.MissLat(fRef)
	if !(mRef > 0) || math.IsInf(mRef, 0) || math.IsNaN(mRef) {
		return Shape{}, false
	}
	// t(fRef) = Q*(a + M(fRef)): recover a from one model evaluation
	// instead of re-deriving Eqns. 3-4, so the decomposition can never
	// drift from the model.
	a := m.At(fRef).Seconds/float64(q) - mRef
	// The evaluation folds in the remote traffic's frequency-independent
	// per-byte time; subtract it so the shape stays the local one and rho
	// remains an independent coordinate.
	rho := m.RemoteShare()
	if rho > 0 {
		a -= rho * m.Remote.SecPerByte
	}
	if a < 0 {
		a = 0 // float fuzz on pure-streaming kernels
	}
	phi := float64(m.KS.Flops) / float64(q)
	if math.IsNaN(phi) || math.IsInf(phi, 0) || phi < 0 {
		return Shape{}, false
	}
	return Shape{Class: m.Class(), Phi: phi, Ratio: a / mRef, Rho: rho}, true
}

// surface returns the index tensor answering for a class.
func (tb *Table) surface(cls roofline.Class) [][][]int {
	if cls == roofline.ComputeBound {
		return tb.CB
	}
	return tb.BB
}

// locate finds the cell [lo, lo+1] bracketing v on an ascending axis and
// the interpolation weight toward the upper edge. Outside the axis range
// it reports false.
func locate(axis []float64, v float64) (lo int, w float64, ok bool) {
	if math.IsNaN(v) || v < axis[0] || v > axis[len(axis)-1] {
		return 0, 0, false
	}
	hi := sort.SearchFloat64s(axis, v)
	if hi == 0 {
		return 0, 0, true
	}
	if hi == len(axis) {
		return len(axis) - 2, 1, true
	}
	lo = hi - 1
	span := axis[hi] - axis[lo]
	if span <= 0 {
		return lo, 0, true
	}
	return lo, (v - axis[lo]) / span, true
}

// Lookup answers the capping question for a fitted kernel model from the
// table: the selected cap frequency (always an exact grid point) and
// whether the table could answer. It reports false — the caller falls
// back to live search — when the kernel decomposes outside the tabulated
// axes, has no DRAM traffic, sits at a remote share the table's topology
// does not place nests at, or lands in a cell whose corners span more
// than maxCellSpread grid steps (a cliff of the cap surface, where
// interpolation could not honor the one-grid-step equivalence bound).
func (tb *Table) Lookup(m *model.Model) (float64, bool) {
	sh, ok := Decompose(m, tb.refFreq())
	if !ok {
		return 0, false
	}
	i, wi, ok := locate(tb.OIAxis, sh.Phi)
	if !ok {
		return 0, false
	}
	j, wj, ok := locate(tb.MemAxis, sh.Ratio)
	if !ok {
		return 0, false
	}
	k := sort.SearchFloat64s(tb.RhoAxis, sh.Rho)
	if k == len(tb.RhoAxis) || tb.RhoAxis[k] != sh.Rho {
		return 0, false
	}
	s := tb.surface(sh.Class)
	c00 := s[i][j][k]
	c01 := s[i][j+1][k]
	c10 := s[i+1][j][k]
	c11 := s[i+1][j+1][k]
	lo, hi := c00, c00
	for _, c := range [...]int{c01, c10, c11} {
		if c < lo {
			lo = c
		}
		if c > hi {
			hi = c
		}
	}
	if hi-lo > maxCellSpread {
		return 0, false
	}
	// Bilinear interpolation in index space on the placement's rho plane,
	// then snap to the grid: the answer is always one of the cell's corner
	// indices (or between two adjacent ones), so the stored caps bound the
	// error.
	v := (1-wi)*((1-wj)*float64(c00)+wj*float64(c01)) +
		wi*((1-wj)*float64(c10)+wj*float64(c11))
	return tb.GridFreq(int(math.Round(v))), true
}
