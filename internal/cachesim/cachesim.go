// Package cachesim implements an exact trace-driven, multi-level,
// set-associative LRU cache simulator with the policies PolyUFC-CM models:
// inclusive caches, write-allocate, write-through (Sec. IV-A of the paper).
// It plays two roles in this reproduction: ground truth for validating the
// analytic cache model, and the memory subsystem of the simulated hardware
// platforms (standing in for the real BDW/RPL machines).
package cachesim

import (
	"fmt"
	"math"
	"math/bits"
	"sync"
)

// LevelConfig describes one cache level.
type LevelConfig struct {
	Name      string
	SizeBytes int64
	LineSize  int64
	Assoc     int64 // ways per set; 0 means fully associative
}

// NumSets returns the number of sets in the level.
func (c LevelConfig) NumSets() int64 {
	assoc := c.Assoc
	lines := c.SizeBytes / c.LineSize
	if assoc <= 0 || assoc > lines {
		assoc = lines
	}
	return lines / assoc
}

// Ways returns the effective associativity.
func (c LevelConfig) Ways() int64 {
	lines := c.SizeBytes / c.LineSize
	if c.Assoc <= 0 || c.Assoc > lines {
		return lines
	}
	return c.Assoc
}

// Config is a cache hierarchy, outermost level last (L1 first, LLC last).
type Config struct {
	Levels []LevelConfig
}

// Validate checks structural invariants of the hierarchy.
func (c Config) Validate() error {
	if len(c.Levels) == 0 {
		return fmt.Errorf("cachesim: no cache levels")
	}
	line := c.Levels[0].LineSize
	for _, l := range c.Levels {
		if l.LineSize != line {
			return fmt.Errorf("cachesim: heterogeneous line sizes unsupported (%d vs %d)", l.LineSize, line)
		}
		if l.SizeBytes%(l.LineSize*l.Ways()) != 0 {
			return fmt.Errorf("cachesim: level %s size %d not divisible by way size", l.Name, l.SizeBytes)
		}
		if l.LineSize&(l.LineSize-1) != 0 {
			return fmt.Errorf("cachesim: line size %d not a power of two", l.LineSize)
		}
	}
	return nil
}

// FullyAssociative returns a copy of the config with every level fully
// associative (the Fig. 8 ablation).
func (c Config) FullyAssociative() Config {
	out := Config{Levels: append([]LevelConfig(nil), c.Levels...)}
	for i := range out.Levels {
		out.Levels[i].Assoc = 0
	}
	return out
}

// Stats holds per-level access statistics.
type Stats struct {
	Accesses int64
	Hits     int64
	Misses   int64
	// ColdMisses counts first-touch misses (line never seen before by this
	// level).
	ColdMisses int64
}

// Stream is one reference of a loop body, repeated over the loop's
// iterations: Addr in the first iteration, Stride further in each one
// after. A consumer of streams (Simulator.AccessStreams, interp.Consumer)
// receives a body's references in program order with the trip count. The
// body may be a short nest unrolled: every reference one execution of a
// loop's inner loops makes, each stepping by the outer loop's stride.
type Stream struct {
	Addr, Stride int64
	Size         int32
	Write        bool
}

// empty marks a way no line occupies. It is no line's number: lines are
// addresses shifted right by the line bits, and no layout hands out the
// most negative address.
const empty = math.MinInt64

// pageSets is how many consecutive sets share one lazily allocated page
// of tags: a level's per-set state exists only for pages a run touched.
const (
	pageShift = 6
	pageSets  = 1 << pageShift
)

// level is one cache level's state.
type level struct {
	sets int64
	ways int64
	// mask is sets-1 when sets is a power of two (decided once, here),
	// and -1 when the set index needs a modulo.
	mask int64
	// pages[set>>pageShift] holds the tags of pageSets consecutive sets,
	// ways entries each: the resident lines most recently used first, then
	// empty to full width. A page is nil until one of its sets is touched.
	pages [][]int64
	// dirty lists the sets that hold at least one line, so a reset visits
	// only those.
	dirty []int64
	// front, kept for L1 only (the level mru asks), is every set's first
	// way: its most recently used line, or empty.
	front []int64
	st    Stats
}

func (l *level) init(cfg LevelConfig) {
	l.sets, l.ways, l.mask = cfg.NumSets(), cfg.Ways(), -1
	if l.sets&(l.sets-1) == 0 {
		l.mask = l.sets - 1
	}
	l.pages = make([][]int64, (l.sets+pageSets-1)>>pageShift)
}

// set returns the set a line maps to.
func (l *level) set(line int64) int64 {
	if l.mask >= 0 {
		return line & l.mask
	}
	return line % l.sets
}

// tags returns the full-width way list of a set, allocating its page on
// first touch.
func (l *level) tags(set int64) []int64 {
	pg := l.pages[set>>pageShift]
	if pg == nil {
		pg = l.newPage(set >> pageShift)
	}
	off := (set & (pageSets - 1)) * l.ways
	return pg[off : off+l.ways : off+l.ways]
}

func (l *level) newPage(p int64) []int64 {
	n := l.sets - p<<pageShift
	if n > pageSets {
		n = pageSets
	}
	pg := make([]int64, n*l.ways)
	for i := range pg {
		pg[i] = empty
	}
	l.pages[p] = pg
	return pg
}

// keepFront makes the level keep front, which mru needs.
func (l *level) keepFront() {
	l.front = make([]int64, l.sets)
	for i := range l.front {
		l.front[i] = empty
	}
}

// mru reports whether line is the most recently used line of its set, in
// a level that keeps front. It changes nothing, so the caller must count
// the hit itself.
func (l *level) mru(line int64) bool {
	return l.front[l.set(line)] == line
}

// access looks up a line (by line number) and updates LRU state; reports
// whether it hit. It is the one set lookup behind Simulator and MultiSim.
func (l *level) access(line int64) bool {
	set := l.set(line)
	ways := l.tags(set)
	l.st.Accesses++
	l.toFront(set, line)
	// One pass finds the line and shifts the ways before it back by one,
	// the line going in front: a hit moves it there, a miss allocates it
	// there (write-allocate, reads and writes alike), and a miss in a full
	// set drops the LRU way.
	prev := line
	for i, t := range ways {
		ways[i] = prev
		switch t {
		case line:
			l.st.Hits++
			return true
		case empty:
			if i == 0 {
				l.dirty = append(l.dirty, set)
			}
			l.st.Misses++
			return false
		}
		prev = t
	}
	l.st.Misses++
	return false
}

// toFront records line as the first way of set in front, if kept.
func (l *level) toFront(set, line int64) {
	if l.front != nil {
		l.front[set] = line
	}
}

// reset empties the sets the last run filled and clears the statistics.
func (l *level) reset() {
	for _, set := range l.dirty {
		ways := l.tags(set)
		for i := range ways {
			if ways[i] == empty {
				break
			}
			ways[i] = empty
		}
		l.toFront(set, empty)
	}
	l.dirty = l.dirty[:0]
	l.st = Stats{}
}

// lineSet is the set of lines a run has touched, for cold-miss accounting.
// Lines below denseLines (every address a Layout hands out for many GiB of
// arrays) are bits of one slice that grows to the highest line touched;
// anything else falls back to a map.
type lineSet struct {
	bits []uint64
	// bits[lo:end] are the words that may be non-zero, so a reset clears
	// only those.
	lo, end int
	far     map[int64]struct{}
}

const denseLines = 1 << 28

// add inserts a line and reports whether it was absent.
func (s *lineSet) add(line int64) bool {
	if uint64(line) >= denseLines {
		if _, ok := s.far[line]; ok {
			return false
		}
		if s.far == nil {
			s.far = map[int64]struct{}{}
		}
		s.far[line] = struct{}{}
		return true
	}
	w, bit := int(line>>6), uint64(1)<<(line&63)
	if w >= len(s.bits) {
		s.bits = append(s.bits, make([]uint64, w+1-len(s.bits))...)
	}
	if s.bits[w]&bit != 0 {
		return false
	}
	s.bits[w] |= bit
	if s.end == 0 {
		s.lo, s.end = w, w+1
	} else {
		s.lo, s.end = min(s.lo, w), max(s.end, w+1)
	}
	return true
}

func (s *lineSet) reset() {
	clear(s.bits[s.lo:s.end])
	s.lo, s.end = 0, 0
	clear(s.far)
}

// Simulator is a multi-level cache simulator.
type Simulator struct {
	cfg      Config
	levels   []level
	lineSize int64
	lineBits uint
	// seen and cold are the cold-miss accounting of every level at once. A
	// line's first touch finds it in no level, so it misses them all; a
	// level below L1 is only reached after the one above missed, and a line
	// that missed a level once is in that level's "ever seen" set from then
	// on. The per-level sets are therefore all the set of lines touched,
	// and each level's cold misses the number of distinct lines — counted
	// where a first touch must end, at a miss of the last level.
	seen lineSet
	cold int64

	// DRAMReadBytes counts line fills from memory (LLC read misses).
	DRAMReadBytes int64
	// DRAMWriteBytes counts write-through traffic reaching memory.
	DRAMWriteBytes int64
}

// New constructs a simulator; the config must be valid. Beyond L1's front
// it allocates no per-set state: a level's sets come into being a page at
// a time as the trace touches them.
func New(cfg Config) (*Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Simulator{cfg: cfg, lineSize: cfg.Levels[0].LineSize, levels: make([]level, len(cfg.Levels))}
	for b := s.lineSize; b > 1; b >>= 1 {
		s.lineBits++
	}
	for i, lc := range cfg.Levels {
		s.levels[i].init(lc)
	}
	s.levels[0].keepFront()
	return s, nil
}

// Access simulates one memory access of the given byte size. Accesses
// spanning multiple lines touch each line. Per the modeled write-through
// policy, a write is forwarded through every level to memory; reads walk
// down the hierarchy until they hit.
func (s *Simulator) Access(addr, size int64, write bool) {
	first := addr >> s.lineBits
	last := (addr + size - 1) >> s.lineBits
	for line := first; line <= last; line++ {
		s.accessLine(line, write)
	}
}

// AccessStreams simulates trip iterations of a loop body: iteration t makes
// the references streams[i].Addr + t*streams[i].Stride, in slice order —
// Access for each, with the two common cases decided before any call. The
// slice is scratch and comes back advanced past the last iteration.
//
// A single-line reference to the line that is already most recently used
// in its L1 set is a hit that moves nothing: L1's LRU order is unchanged
// and no lower level is consulted. It is only counted, and telling it
// costs one load: L1 keeps every set's first way in front.
//
// An iteration whose references are all single-line L1 hits, in any way,
// repeats. A hit evicts nothing and reaches no lower level, so the
// iteration's lines are all resident after it, each at the front of its
// set in the order the iteration last touched it. While every stream
// stays on the line it was on, the next iteration touches the same lines
// in the same order: hits again, leaving them at the front in the same
// order — the state the iteration before it left. Those iterations are
// counted without being walked. Whether a stream may stay on its line at
// all (a stride shorter than a line) is fixed for the call, so it is
// decided once, and a single iteration never asks.
func (s *Simulator) AccessStreams(streams []Stream, trip int64) {
	l1 := &s.levels[0]
	canRepeat := trip > 1 && s.staysOnLine(streams)
	var hits, writeHits int64 // counted here, added to L1 at the end
	for ; trip > 0; trip-- {
		// A reference makes one L1 access per line it spans, so the
		// iteration is all single-line L1 hits exactly when it makes one
		// access a reference and misses none: when L1's accesses and
		// misses, with the hits counted here, come to quiet after it.
		quiet := l1.st.Accesses + l1.st.Misses + hits + int64(len(streams))
		for i := range streams {
			st := &streams[i]
			first := st.Addr >> s.lineBits
			last := (st.Addr + int64(st.Size) - 1) >> s.lineBits
			st.Addr += st.Stride
			if first == last && l1.mru(first) {
				hits++
				if st.Write {
					writeHits++
				}
				continue
			}
			for line := first; line <= last; line++ {
				s.accessLine(line, st.Write)
			}
		}
		if !canRepeat || trip == 1 || l1.st.Accesses+l1.st.Misses+hits != quiet {
			continue
		}
		if k := s.sameLines(streams, trip-1); k > 0 {
			for i := range streams {
				st := &streams[i]
				st.Addr += k * st.Stride
				hits += k
				if st.Write {
					writeHits += k
				}
			}
			trip -= k
		}
	}
	l1.st.Accesses += hits
	l1.st.Hits += hits
	s.DRAMWriteBytes += writeHits * s.lineSize
}

// staysOnLine reports whether every stream's stride is shorter than a
// line, so that it may make its next reference on the line it is on.
func (s *Simulator) staysOnLine(streams []Stream) bool {
	for i := range streams {
		if st := streams[i].Stride; st >= s.lineSize || -st >= s.lineSize {
			return false
		}
	}
	return true
}

// sameLines reports how many of the next iterations, at most limit, keep
// every stream on the line of its previous reference (which lay within one
// line). The streams hold the next iteration's addresses, and every
// stride is shorter than a line. The first stream with no room left ends
// the scan.
func (s *Simulator) sameLines(streams []Stream, limit int64) int64 {
	for i := 0; i < len(streams) && limit > 0; i++ {
		st := &streams[i]
		within := (st.Addr - st.Stride) & (s.lineSize - 1)
		switch {
		case st.Stride > 0:
			// Bytes between the reference's end and the line's.
			limit = min(limit, quo(s.lineSize-within-int64(st.Size), st.Stride))
		case st.Stride < 0:
			limit = min(limit, quo(within, -st.Stride))
		}
	}
	return limit
}

// quo is a/b for 0 <= a and 0 < b, both below a line's size: a shift for
// the power-of-two strides nearly every loop has.
func quo(a, b int64) int64 {
	if b&(b-1) == 0 {
		return a >> bits.TrailingZeros64(uint64(b))
	}
	return int64(uint32(a) / uint32(b))
}

func (s *Simulator) accessLine(line int64, write bool) {
	// Write-allocate: a write miss fetches the line like a read (filling
	// every level it missed in); write-through additionally forwards the
	// written bytes to memory.
	if write {
		s.DRAMWriteBytes += s.lineSize
	}
	for i := range s.levels {
		if s.levels[i].access(line) {
			return
		}
	}
	s.DRAMReadBytes += s.lineSize
	if s.seen.add(line) {
		s.cold++
	}
}

// LevelStats returns the statistics of level i (0 = L1).
func (s *Simulator) LevelStats(i int) Stats {
	st := s.levels[i].st
	st.ColdMisses = s.cold
	return st
}

// Reset clears all cache state and statistics, visiting only the sets and
// seen-lines the trace since the last reset dirtied.
func (s *Simulator) Reset() {
	for i := range s.levels {
		s.levels[i].reset()
	}
	s.seen.reset()
	s.cold = 0
	s.DRAMReadBytes = 0
	s.DRAMWriteBytes = 0
}

// Counts is what a finished simulation reports.
type Counts struct {
	Levels         []Stats // L1 first
	DRAMReadBytes  int64
	DRAMWriteBytes int64
}

// Counts snapshots the simulator's statistics.
func (s *Simulator) Counts() Counts {
	c := Counts{Levels: make([]Stats, len(s.levels)), DRAMReadBytes: s.DRAMReadBytes, DRAMWriteBytes: s.DRAMWriteBytes}
	for i := range c.Levels {
		c.Levels[i] = s.LevelStats(i)
	}
	return c
}

// idle holds reset simulators by hierarchy (*sync.Pool by the printed
// levels), so a process that simulates nest after nest on the same few
// hierarchies reuses the pages and seen-bits earlier runs allocated. It
// has one entry per hierarchy ever simulated; what each pool retains is
// the garbage collector's call.
var idle sync.Map

// Run feeds a trace to a clean simulator of the hierarchy and returns what
// it counted. The simulator is recycled: feed must not retain it.
func Run(cfg Config, feed func(*Simulator)) (Counts, error) {
	key := fmt.Sprint(cfg.Levels)
	p, ok := idle.Load(key)
	if !ok {
		p, _ = idle.LoadOrStore(key, new(sync.Pool))
	}
	pool := p.(*sync.Pool)
	s, _ := pool.Get().(*Simulator)
	if s == nil {
		var err error
		if s, err = New(cfg); err != nil {
			return Counts{}, err
		}
	}
	feed(s)
	c := s.Counts()
	s.Reset()
	pool.Put(s)
	return c, nil
}
