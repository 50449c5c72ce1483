package cachemodel

import (
	"fmt"
	"math/bits"
	"slices"

	"polyufc/internal/cachesim"
	"polyufc/internal/ir"
	"polyufc/internal/isl"
)

// Options configures a PolyUFC-CM analysis.
type Options struct {
	// Threads applies the paper's OpenMP sharing heuristic: sequential
	// miss counts are divided by the thread count. 0 or 1 means serial.
	Threads int
	// FullyAssoc switches every level to the fully-associative model (the
	// Fig. 8 ablation): capacity is tested against total lines instead of
	// per-set occupancy.
	FullyAssoc bool
}

// DefaultOptions returns the standard configuration: serial and set-
// associative.
func DefaultOptions() Options {
	return Options{Threads: 1}
}

// countBudget bounds the enumeration fallbacks in the polyhedral counts.
const countBudget = 1 << 22

// LevelResult is the per-cache-level outcome of the analysis.
type LevelResult struct {
	Name          string
	Accesses      int64
	ColdMisses    int64
	CapConfMisses int64
	Misses        int64
	MissRatio     float64
	HitRatio      float64
	// FitWindow is the number of innermost loops whose combined working
	// set fits in this level (diagnostic; -1 when nothing was analyzed).
	FitWindow int
}

// Hits returns the level's hits: every access that did not miss.
func (l LevelResult) Hits() int64 { return l.Accesses - l.Misses }

// settle derives a level's misses from their components, clamped to the
// level's accesses, and its miss and hit ratios.
func (l *LevelResult) settle() {
	l.Misses = l.ColdMisses + l.CapConfMisses
	if l.Misses > l.Accesses && l.Accesses > 0 {
		l.Misses = l.Accesses
		l.CapConfMisses = l.Misses - l.ColdMisses
	}
	if l.Accesses > 0 {
		l.MissRatio = float64(l.Misses) / float64(l.Accesses)
		l.HitRatio = 1 - l.MissRatio
	}
}

// Result is the per-nest, per-level traffic record. It has two producers:
// PolyUFC-CM's counting (Analyze, Evaluate) and the trace-driven simulator
// (Simulate, which the simulated machine profiles through), so a
// model-vs-measurement comparison reads the same fields on both sides.
type Result struct {
	Levels []LevelResult
	// Flops is the paper's Omega: total arithmetic operations.
	Flops int64
	// Instances is the number of statement instances.
	Instances int64
	// Loads and Stores are dynamic access counts.
	Loads, Stores int64
	// QBytes is the total requested data volume (accesses x element size).
	QBytes int64
	// QDRAM is the LLC<->DRAM traffic in bytes: Miss_LLC x line size
	// (Sec. IV-C). When the thread-sharing heuristic is active this is the
	// per-thread-shared (divided) figure the paper uses for OI.
	QDRAM int64
	// ThreadsDiv records the divisor the thread-sharing heuristic applied
	// to the miss counts (1 when serial): total physical DRAM traffic is
	// QDRAM * ThreadsDiv.
	ThreadsDiv int
	// OI is the operational intensity Flops/QDRAM in flop/byte (Eqn. 1).
	OI float64
}

// LLC returns the last-level result.
func (r *Result) LLC() LevelResult { return r.Levels[len(r.Levels)-1] }

// settle settles every level, then QDRAM and OI from the last level's
// misses in lines of lineSize bytes. Settling a settled record again
// changes nothing.
func (r *Result) settle(lineSize int64) {
	for i := range r.Levels {
		r.Levels[i].settle()
	}
	r.QDRAM = r.LLC().Misses * lineSize
	if r.QDRAM > 0 {
		r.OI = float64(r.Flops) / float64(r.QDRAM)
	}
}

// Analyze runs PolyUFC-CM over one affine nest for the given cache
// hierarchy: Measure at the hierarchy's line size, then Evaluate.
func Analyze(nest *ir.Nest, cfg cachesim.Config, opts Options) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g, err := Measure(nest, cfg.Levels[0].LineSize)
	if err != nil {
		return nil, err
	}
	return g.Evaluate(cfg, opts)
}

// Geometry is the hierarchy-free half of a PolyUFC-CM analysis: what the
// polyhedral counting establishes about a nest before any cache size or
// associativity is known. The line size is the one machine parameter it
// depends on — a footprint is a number of lines — so one Geometry serves
// every hierarchy with that line size (Kerncraft's split: analyse the
// kernel once, apply machine descriptions to it afterwards). A Geometry is
// immutable once measured and safe to share across goroutines.
type Geometry struct {
	lineSize int64
	stmts    []stmtGeometry
	// Totals over all statements.
	flops, instances, loads, stores, qbytes int64
}

// stmtGeometry is one statement's share of a Geometry.
type stmtGeometry struct {
	name string
	// full is the statement's instance count and flops its arithmetic
	// operations over all of them.
	full, flops int64
	// tripAt[k] is the average trip count of loop k across the executions
	// of its prefix.
	tripAt []int64
	groups []groupGeometry
}

// groupGeometry is one reference group of a statement: its member count
// and fps[l], the footprint of every member over the suffix window of loops
// l..n-1 (l = n is the empty window: one instance). A footprint never reads
// constant offsets, so one row serves all the members exactly.
type groupGeometry struct {
	members int64
	fps     []Footprint
}

// Measure runs the counting half of PolyUFC-CM over one affine nest:
// prefix cardinalities, average trip counts, per-reference-group
// suffix-window footprints in lines of lineSize bytes, and the flop, access
// and byte totals. Duplicate accesses (same array, same index expressions)
// are counted once, the paper's footnote-17 optimization.
func Measure(nest *ir.Nest, lineSize int64) (*Geometry, error) {
	if lineSize <= 0 {
		return nil, fmt.Errorf("cachemodel: line size %d not positive", lineSize)
	}
	g := &Geometry{lineSize: lineSize}

	// The statements of a nest share their outer loops, so most of the sets
	// they count are the same sets; the memo lives for this call only.
	var counts isl.CountMemo
	for _, si := range nest.Statements() {
		sg, err := measureStatement(si, lineSize, &counts)
		if err != nil {
			return nil, fmt.Errorf("cachemodel: statement %s: %w", si.Stmt.Name, err)
		}
		g.stmts = append(g.stmts, sg)
		g.instances += sg.full
		g.flops += sg.flops
		for _, a := range si.Stmt.Accesses {
			if a.Write {
				g.stores += sg.full
			} else {
				g.loads += sg.full
			}
		}
		g.qbytes += sumAccessBytes(si.Stmt.Accesses, sg.full)
	}
	return g, nil
}

// Evaluate applies a cache hierarchy to the geometry: the per-level fit
// test and miss recursion, the thread-sharing division, the access streams
// between levels, QDRAM and OI. The hierarchy's line size must be the one
// the geometry was measured at. It reads Threads and FullyAssoc from opts.
func (g *Geometry) Evaluate(cfg cachesim.Config, opts Options) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if ls := cfg.Levels[0].LineSize; ls != g.lineSize {
		return nil, fmt.Errorf("cachemodel: geometry measured at line size %d, hierarchy has %d", g.lineSize, ls)
	}
	res := &Result{Levels: newLevels(cfg)}
	res.Flops, res.Instances = g.flops, g.instances
	res.Loads, res.Stores, res.QBytes = g.loads, g.stores, g.qbytes
	for i := range g.stmts {
		g.stmts[i].addMisses(cfg, opts, res.Levels)
	}

	// Thread-sharing heuristic (Sec. IV-B): divide sequential miss counts
	// by the OpenMP thread count.
	res.ThreadsDiv = 1
	if opts.Threads > 1 {
		res.ThreadsDiv = opts.Threads
	}
	shareAcrossThreads(res.Levels, opts.Threads)

	// Access streams: level 0 sees every load and store; level i+1 sees
	// level i's misses plus forwarded writes (write-through).
	res.Levels[0].Accesses = res.Loads + res.Stores
	for i := 0; i+1 < len(res.Levels); i++ {
		res.Levels[i].settle()
		res.Levels[i+1].Accesses = res.Levels[i].Misses + res.Stores
	}
	res.settle(g.lineSize)
	return res, nil
}

// newLevels returns the named, not-yet-analyzed level records of a
// hierarchy.
func newLevels(cfg cachesim.Config) []LevelResult {
	levels := make([]LevelResult, len(cfg.Levels))
	for i, lc := range cfg.Levels {
		levels[i].Name = lc.Name
		levels[i].FitWindow = -1
	}
	return levels
}

// shareAcrossThreads applies the thread-sharing division to the modeled
// miss counts.
func shareAcrossThreads(levels []LevelResult, threads int) {
	if threads <= 1 {
		return
	}
	t := int64(threads)
	for i := range levels {
		levels[i].ColdMisses = ceilI64(levels[i].ColdMisses, t)
		levels[i].CapConfMisses = ceilI64(levels[i].CapConfMisses, t)
	}
}

// measureStatement counts one statement: its instances, the average trip
// count of each enclosing loop, and every reference group's footprint over
// every suffix window of the loop stack.
func measureStatement(si ir.StatementInfo, lineSize int64, counts *isl.CountMemo) (stmtGeometry, error) {
	n := len(si.Loops)
	ivs := si.IVNames()
	sg := stmtGeometry{name: si.Stmt.Name}
	if n > maxDepth {
		return sg, fmt.Errorf("%d loops deep; the model handles at most %d", n, maxDepth)
	}

	cnt, err := prefixCounts(si.Domain, n, counts, countBudget)
	if err != nil {
		return sg, err
	}
	full := cnt[n]
	if full == 0 {
		return sg, nil
	}
	sg.full, sg.flops = full, full*si.Stmt.Flops
	// Average trip count of loop k across the executions of its prefix.
	tripAt := make([]int64, n)
	for k := 0; k < n; k++ {
		tripAt[k] = roundTrip(float64(cnt[k+1]) / float64(maxI64(cnt[k], 1)))
	}
	sg.tripAt = tripAt

	// Bound-dependence closure: deps[d] has bit o set for each outer loop o
	// whose IV (transitively) appears in loop d's bounds. A tile IV never
	// appears in an access function, but it moves the ranges of the intra
	// IVs it bounds; footprints over a window containing both must expand
	// the intra IV's trips accordingly.
	deps := boundClosure(si.Loops, ivs)

	// Global value range per IV: caps the closure expansion for
	// non-rectangular couplings (j <= i sweeps [0, N), not trips_j *
	// trips_i values).
	globalRange := make([]int64, n)
	for d := 0; d < n; d++ {
		if lo, hi, ok := si.Domain.DimRange(d); ok {
			globalRange[d] = hi - lo + 1
		}
	}

	// trips[l][i] is the trip count ivs[l+i] sweeps within the suffix window
	// ivs[l:], l = 0..n. Within a window, an IV whose bounds depend on other
	// IVs *inside* the window covers its full swept range: its trips
	// multiply by the trips of those bounding IVs.
	trips := make([][]int64, n+1)
	for l := 0; l <= n; l++ {
		trips[l] = make([]int64, n-l)
		for d := l; d < n; d++ {
			eff := tripAt[d]
			for m := deps[d] &^ (1<<l - 1) & (1<<d - 1); m != 0; m &= m - 1 {
				eff *= tripAt[bits.TrailingZeros64(m)]
			}
			if globalRange[d] > 0 && eff > globalRange[d] {
				eff = globalRange[d]
			}
			trips[l][d-l] = eff
		}
	}
	for _, g := range referenceGroups(si.Stmt.Accesses) {
		fps := accessFootprint(g[0], ivs, trips, lineSize)
		sg.groups = append(sg.groups, groupGeometry{members: int64(len(g)), fps: fps})
	}
	return sg, nil
}

// addMisses applies the recursive reuse model to one statement and
// accumulates its cold and capacity/conflict misses into levels. For each
// cache level and reference group, each member's misses over the subtree
// rooted at loop l are
//
//	M(l) = footprint(loops l..n-1)        if the body of l fits the level
//	     = trips(l) * M(l+1)              otherwise,
//
// where "the body of l fits" tests the combined footprint of all accesses
// over the loops strictly deeper than l against the level's capacity
// (fully-associative mode) or per-set occupancy against its associativity
// (the paper's per-set model). This realizes the reuse-distance criterion
// RD > k of Sec. IV-B: a reuse carried by loop l has distance equal to one
// body execution's footprint, and survives iff that footprint fits.
func (sg *stmtGeometry) addMisses(cfg cachesim.Config, opts Options, levels []LevelResult) {
	if sg.full == 0 {
		return
	}
	n := len(sg.tripAt)
	lineSize := cfg.Levels[0].LineSize
	for li, lc := range cfg.Levels {
		numSets := lc.NumSets()
		ways := lc.Ways()
		capacityLines := lc.SizeBytes / lc.LineSize

		// bodyFits[l]: does the combined working set of loops deeper than
		// l (window ivs[l+1:]) fit this level?
		bodyFits := make([]bool, n)
		fitWindow := 0
		for l := n - 1; l >= 0; l-- {
			var totalLines, totalOcc int64
			for _, g := range sg.groups {
				fp := g.fps[l+1]
				totalLines += g.members * fp.Lines()
				totalOcc += g.members * fp.PerSetOccupancy(lineSize, numSets)
			}
			if opts.FullyAssoc {
				bodyFits[l] = totalLines <= capacityLines
			} else {
				bodyFits[l] = totalOcc <= ways && totalLines <= capacityLines
			}
			if bodyFits[l] {
				fitWindow = n - l
			} else {
				break // monotone: outer windows are at least as large
			}
		}
		if levels[li].FitWindow < fitWindow {
			levels[li].FitWindow = fitWindow
		}

		var cold, total int64
		for _, g := range sg.groups {
			m := g.fps[n].Lines() // one instance
			for l := n - 1; l >= 0; l-- {
				if bodyFits[l] {
					m = g.fps[l].Lines()
				} else {
					m = sg.tripAt[l] * m
				}
			}
			all := g.fps[0].Lines()
			m = maxI64(m, all)     // at least one miss per distinct line
			m = minI64(m, sg.full) // at most one miss per instance
			cold += g.members * all
			total += g.members * m
		}
		levels[li].ColdMisses += cold
		levels[li].CapConfMisses += maxI64(total-cold, 0)
	}
}

// prefixCounts returns the prefix cardinalities of an n-dimensional domain:
// cnt[k] = |projection of dom onto its k outermost dims|, so cnt[0] = 1 and
// cnt[n] = |dom|.
func prefixCounts(dom isl.Set, n int, counts *isl.CountMemo, budget int) ([]int64, error) {
	cnt := make([]int64, n+1)
	cnt[0] = 1
	proj := prefixProjections(dom, n)
	for k := n; k >= 1; k-- {
		c, err := counts.Count(proj[k], budget)
		if err != nil {
			return nil, err
		}
		cnt[k] = c
	}
	return cnt, nil
}

// prefixProjections returns proj[k], the projection of an n-dimensional
// domain onto its k outermost dims, for k = 1..n (proj[0] is unset).
// Where Fourier-Motzkin would over-approximate (non-unit coefficients on
// both sides of the dim) the prefix count would come out too large: the
// dim is kept as an existential instead, which is exact and which Count
// handles by bounded enumeration.
func prefixProjections(dom isl.Set, n int) []isl.Set {
	proj := make([]isl.Set, n+1)
	if n == 0 {
		return proj
	}
	proj[n] = dom
	for k := n - 1; k >= 1; k-- {
		next, exact := proj[k+1].ProjectOutVar(k)
		if !exact {
			next = proj[k+1].QuantifyVar(k)
		}
		proj[k] = next
	}
	return proj
}

// StatementResult is a per-statement analysis outcome (the granularity
// the affine-dialect phase study of Sec. VI-A inspects).
type StatementResult struct {
	Name  string
	Flops int64
	QDRAM int64
	OI    float64
}

// AnalyzeStatements runs PolyUFC-CM independently per statement of a nest,
// returning each statement's flop count, DRAM traffic and operational
// intensity.
func AnalyzeStatements(nest *ir.Nest, cfg cachesim.Config, opts Options) ([]StatementResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g, err := Measure(nest, cfg.Levels[0].LineSize)
	if err != nil {
		return nil, err
	}
	var out []StatementResult
	for i := range g.stmts {
		sg := &g.stmts[i]
		levels := newLevels(cfg)
		sg.addMisses(cfg, opts, levels)
		shareAcrossThreads(levels, opts.Threads)
		last := levels[len(levels)-1]
		q := (last.ColdMisses + last.CapConfMisses) * g.lineSize
		sr := StatementResult{Name: sg.name, Flops: sg.flops, QDRAM: q}
		if q > 0 {
			sr.OI = float64(sg.flops) / float64(q)
		}
		out = append(out, sr)
	}
	return out, nil
}

// maxDepth is the deepest statement the model handles: boundClosure keeps
// one bit per loop in a uint64.
const maxDepth = 64

// boundClosure computes, for each loop d, the mask of loops (bit o for
// loop o) whose IVs transitively appear in d's bounds. len(loops) is at
// most maxDepth.
func boundClosure(loops []*ir.Loop, ivs []string) []uint64 {
	out := make([]uint64, len(loops))
	for d, l := range loops {
		var direct uint64
		for o, iv := range ivs {
			if o != d && (boundsRead(l.Lo, iv) || boundsRead(l.Hi, iv)) {
				direct |= 1 << o
			}
		}
		// Transitive closure (bounds reference outer loops only, so one
		// pass outer-to-inner suffices).
		out[d] = direct
		for m := direct; m != 0; m &= m - 1 {
			out[d] |= out[bits.TrailingZeros64(m)]
		}
	}
	return out
}

// boundsRead reports whether any of bs reads iv.
func boundsRead(bs []ir.Bound, iv string) bool {
	for _, b := range bs {
		if b.Expr.Coeff(iv) != 0 {
			return true
		}
	}
	return false
}

// referenceGroups partitions a statement's accesses into reference groups:
// the accesses to one array whose index functions differ only in their
// constants. An access identical to a member (same array, same index
// functions, read or write) is not added again — footnote 17's duplicate
// elimination — so a group's members are distinct. Groups and members keep
// their first appearance's order.
func referenceGroups(accs []ir.Access) [][]ir.Access {
	var groups [][]ir.Access
next:
	for _, a := range accs {
		for gi, g := range groups {
			if g[0].Array != a.Array || !slices.EqualFunc(g[0].Index, a.Index, ir.AffExpr.SameTerms) {
				continue
			}
			for _, m := range g {
				if slices.EqualFunc(m.Index, a.Index, func(x, y ir.AffExpr) bool { return x.Const == y.Const }) {
					continue next
				}
			}
			groups[gi] = append(g, a)
			continue next
		}
		groups = append(groups, []ir.Access{a})
	}
	return groups
}

func sumAccessBytes(accs []ir.Access, instances int64) int64 {
	var b int64
	for _, a := range accs {
		b += instances * a.Array.ElemSize
	}
	return b
}

func ceilI64(a, b int64) int64 {
	if b <= 0 {
		return a
	}
	return (a + b - 1) / b
}
