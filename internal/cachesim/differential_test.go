package cachesim

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// refSim is the naive reference the simulator is checked against: the
// map-and-append LRU this package used before it allocated what it touches
// — one grown slice per set, one "ever seen" map per level, the write path
// spelled out beside the read path.
type refSim struct {
	levels     []*refLevel
	lineBits   uint
	lineSize   int64
	dramRead   int64
	dramWrites int64
}

type refLevel struct {
	sets, ways int64
	tags       map[int64][]int64 // set -> resident lines, most recent first
	seen       map[int64]bool
	st         Stats
}

func newRefSim(cfg Config) *refSim {
	r := &refSim{lineSize: cfg.Levels[0].LineSize}
	for b := r.lineSize; b > 1; b >>= 1 {
		r.lineBits++
	}
	for _, lc := range cfg.Levels {
		r.levels = append(r.levels, &refLevel{
			sets: lc.NumSets(), ways: lc.Ways(),
			tags: map[int64][]int64{}, seen: map[int64]bool{},
		})
	}
	return r
}

func (l *refLevel) access(line int64) bool {
	set := line % l.sets
	ways := l.tags[set]
	l.st.Accesses++
	for i, t := range ways {
		if t == line {
			copy(ways[1:i+1], ways[:i])
			ways[0] = line
			l.st.Hits++
			return true
		}
	}
	l.st.Misses++
	if !l.seen[line] {
		l.seen[line] = true
		l.st.ColdMisses++
	}
	ways = append([]int64{line}, ways...)
	if int64(len(ways)) > l.ways {
		ways = ways[:l.ways]
	}
	l.tags[set] = ways
	return false
}

func (r *refSim) Access(addr, size int64, write bool) {
	for line := addr >> r.lineBits; line <= (addr+size-1)>>r.lineBits; line++ {
		hit := false
		for _, l := range r.levels {
			if l.access(line) {
				hit = true
				break
			}
		}
		if !hit {
			r.dramRead += r.lineSize
		}
		if write {
			r.dramWrites += r.lineSize
		}
	}
}

func (r *refSim) counts() Counts {
	c := Counts{DRAMReadBytes: r.dramRead, DRAMWriteBytes: r.dramWrites}
	for _, l := range r.levels {
		c.Levels = append(c.Levels, l.st)
	}
	return c
}

// differentialConfigs spans what the lookup branches on: power-of-two and
// other set counts (BDW's LLC has 12 288), one-set fully associative
// levels, a last page shorter than pageSets, and one to three levels.
func differentialConfigs() []Config {
	lv := func(name string, sets, ways int64) LevelConfig {
		return LevelConfig{Name: name, SizeBytes: sets * ways * 64, LineSize: 64, Assoc: ways}
	}
	fa := func(name string, lines int64) LevelConfig {
		return LevelConfig{Name: name, SizeBytes: lines * 64, LineSize: 64}
	}
	return []Config{
		{Levels: []LevelConfig{lv("L1", 4, 2)}},
		{Levels: []LevelConfig{lv("L1", 3, 2)}},
		{Levels: []LevelConfig{fa("L1", 5)}},
		{Levels: []LevelConfig{lv("L1", 8, 2), lv("LLC", 12, 4)}},
		{Levels: []LevelConfig{lv("L1", 2, 1), fa("LLC", 24)}},
		{Levels: []LevelConfig{lv("L1", 4, 2), lv("L2", 16, 2), lv("LLC", 100, 3)}},
		{Levels: []LevelConfig{lv("L1", 64, 8), lv("L2", 1024, 4), lv("LLC", 12288, 20)}},
		{Levels: []LevelConfig{fa("L1", 2), lv("L2", 6, 2), fa("LLC", 40)}},
	}
}

// body is one AccessStreams call: a loop body and its trip count.
type body struct {
	streams []Stream
	trip    int64
}

// randomTrace draws loop bodies whose references sum to about n, over a
// footprint small enough to hit and large enough to evict: element and
// multi-line sizes; strides of zero, an element, a few bytes either way
// (so runs on one line end at both edges of it) and a line or more;
// several streams on one address; address 0 and a few lines beyond the
// dense seen-set range; and single references (trip 1).
func randomTrace(r *rand.Rand, n int) []body {
	footprint := int64(64 << r.Intn(8))
	sizes := []int32{1, 4, 8, 8, 8, 16, 64, 100, 200}
	strides := []int64{0, 0, 8, 8, 4, 1, 3, 24, -8, -8, -5, 64, -64, 136, 4096}
	var out []body
	for n > 0 {
		b := body{trip: 1}
		if r.Intn(3) > 0 {
			b.trip = 1 + r.Int63n(40)
		}
		for k := 1 + r.Intn(4); k > 0; k-- {
			// Far enough from 0 that no stride walks below it.
			st := Stream{Addr: 4096 + r.Int63n(footprint), Size: sizes[r.Intn(len(sizes))], Write: r.Intn(3) == 0}
			if b.trip > 1 {
				st.Stride = strides[r.Intn(len(strides))]
			}
			switch r.Intn(16) {
			case 0:
				st.Addr, st.Stride = 0, max(st.Stride, 0)
			case 1:
				st.Addr += denseLines * 64
			case 2, 3:
				if len(b.streams) > 0 {
					st.Addr = b.streams[r.Intn(len(b.streams))].Addr
				}
			}
			if st.Addr < 4096 {
				st.Stride = max(st.Stride, 0)
			}
			b.streams = append(b.streams, st)
		}
		out = append(out, b)
		n -= len(b.streams) * int(b.trip)
	}
	return out
}

// each expands a body reference by reference.
func (b body) each(access func(addr, size int64, write bool)) {
	for t := int64(0); t < b.trip; t++ {
		for _, st := range b.streams {
			access(st.Addr+t*st.Stride, int64(st.Size), st.Write)
		}
	}
}

// feed hands the bodies to AccessStreams, which may clobber its argument,
// checking after each that L1's front is every set's first way.
func feed(t *testing.T, s *Simulator, trace []body) {
	t.Helper()
	for _, b := range trace {
		s.AccessStreams(append([]Stream(nil), b.streams...), b.trip)
		checkFront(t, s)
	}
}

// checkFront fails unless L1's front holds every set's most recently used
// line, or empty for a set that holds none.
func checkFront(t *testing.T, s *Simulator) {
	t.Helper()
	l1 := &s.levels[0]
	for set := int64(0); set < l1.sets; set++ {
		want := int64(empty)
		if pg := l1.pages[set>>pageShift]; pg != nil {
			want = pg[(set&(pageSets-1))*l1.ways]
		}
		if l1.front[set] != want {
			t.Fatalf("L1 set %d: front %d, first way %d", set, l1.front[set], want)
		}
	}
}

func TestDifferentialAgainstNaiveLRU(t *testing.T) {
	for ci, cfg := range differentialConfigs() {
		for seed := int64(0); seed < 12; seed++ {
			r := rand.New(rand.NewSource(seed*100 + int64(ci)))
			one, streamed := mustNew(t, cfg), mustNew(t, cfg)
			// The reused simulator runs a different trace first.
			reused := mustNew(t, cfg)
			feed(t, reused, randomTrace(r, 500))
			reused.Reset()
			checkFront(t, reused)

			trace := randomTrace(r, 200+r.Intn(1500))
			ref := newRefSim(cfg)
			for _, b := range trace {
				b.each(ref.Access)
				b.each(one.Access)
			}
			feed(t, streamed, trace)
			feed(t, reused, trace)
			pooled, err := Run(cfg, func(s *Simulator) { feed(t, s, trace) })
			if err != nil {
				t.Fatal(err)
			}
			want := ref.counts()
			for name, got := range map[string]Counts{
				"Access":                    one.Counts(),
				"AccessStreams":             streamed.Counts(),
				"AccessStreams after Reset": reused.Counts(),
				"Run":                       pooled,
			} {
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("config %d seed %d, %s:\n got %+v\nwant %+v", ci, seed, name, got, want)
				}
			}
		}
	}
}

// MultiSim shares the set lookup; its cold-miss accounting (one seen-set
// per core, one for the shared level) must equal a per-level map's.
func TestMultiSimDifferentialAgainstNaiveLRU(t *testing.T) {
	for ci, cfg := range differentialConfigs() {
		if len(cfg.Levels) < 2 {
			continue // MultiSim needs a private level above the shared one
		}
		const cores = 3
		r := rand.New(rand.NewSource(int64(ci)))
		m, err := NewMulti(cfg, cores)
		if err != nil {
			t.Fatal(err)
		}
		// The reference: one private refSim per core over the private
		// levels, all missing into one shared refLevel.
		nPriv := len(cfg.Levels) - 1
		private := make([]*refSim, cores)
		for c := range private {
			private[c] = newRefSim(Config{Levels: cfg.Levels[:nPriv+1]})
			private[c].levels = private[c].levels[:nPriv]
		}
		shared := newRefSim(Config{Levels: cfg.Levels[nPriv:]})
		var dramRead, dramWrite int64
		access := func(addr, size int64, write bool) {
			core := r.Intn(cores)
			m.Access(core, addr, size, write)
			p := private[core]
			for line := addr >> p.lineBits; line <= (addr+size-1)>>p.lineBits; line++ {
				hit := false
				for _, l := range p.levels {
					if hit = l.access(line); hit {
						break
					}
				}
				if !hit && !shared.levels[0].access(line) {
					dramRead += 64
				}
				if write {
					dramWrite += 64
				}
			}
		}
		for _, b := range randomTrace(r, 2000) {
			b.each(access)
		}
		if got, want := m.SharedStats(), shared.levels[0].st; got != want {
			t.Fatalf("config %d shared: got %+v want %+v", ci, got, want)
		}
		for c := 0; c < cores; c++ {
			for l := 0; l < nPriv; l++ {
				if got, want := m.PrivateStats(c, l), private[c].levels[l].st; got != want {
					t.Fatalf("config %d core %d level %d: got %+v want %+v", ci, c, l, got, want)
				}
			}
		}
		if m.DRAMReadBytes != dramRead || m.DRAMWriteBytes != dramWrite {
			t.Fatalf("config %d DRAM bytes: got %d/%d want %d/%d", ci, m.DRAMReadBytes, m.DRAMWriteBytes, dramRead, dramWrite)
		}
	}
}

// Building a simulator for a large LLC allocates no per-set state, and a
// run allocates only the pages it touches.
func TestLargeLevelAllocatesWhatItTouches(t *testing.T) {
	cfg := Config{Levels: []LevelConfig{
		{Name: "L1", SizeBytes: 48 << 10, LineSize: 64, Assoc: 12},
		{Name: "LLC", SizeBytes: 32768 * 12 * 64, LineSize: 64, Assoc: 12}, // RPL's 32 768 sets
	}}
	var s *Simulator
	build := testing.AllocsPerRun(10, func() { s = mustNew(t, cfg) })
	if build > 8 {
		t.Fatalf("New allocated %.0f objects; per-set state must wait for a touch", build)
	}
	for i := int64(0); i < 300; i++ {
		s.Access(i*64, 8, false)
	}
	pages := 0
	for _, pg := range s.levels[1].pages {
		if pg != nil {
			pages++
		}
	}
	if want := (300 + pageSets - 1) / pageSets; pages != want {
		t.Fatalf("300 consecutive lines touched %d LLC pages, want %d", pages, want)
	}
	s.Reset()
	if reuse := testing.AllocsPerRun(10, func() {
		for i := int64(0); i < 300; i++ {
			s.Access(i*64, 8, false)
		}
		s.Reset()
	}); reuse != 0 {
		t.Fatalf("a reset simulator allocated %.0f objects re-running the same footprint", reuse)
	}
}

// checkTrace fails unless AccessStreams over the trace counts what the
// naive reference counts reference by reference.
func checkTrace(t *testing.T, cfg Config, trace []body) {
	t.Helper()
	ref, streamed := newRefSim(cfg), mustNew(t, cfg)
	for _, b := range trace {
		b.each(ref.Access)
	}
	feed(t, streamed, trace)
	if got, want := streamed.Counts(), ref.counts(); !reflect.DeepEqual(got, want) {
		t.Fatalf("levels %v:\n got %+v\nwant %+v", cfg.Levels, got, want)
	}
}

// sameSetTrace is lm-head-gpt2's leaf shape: rows 4 KiB apart — one L1 set
// of a 64-set level — walked at unit stride together, so every reference
// after the first iteration hits L1 without being its set's most recently
// used line; then a third row joins them, three lines in one set, which a
// level of fewer than three ways thrashes.
func sameSetTrace(base int64) []body {
	row := func(r int64, write bool) Stream {
		return Stream{Addr: base + r<<12, Stride: 8, Size: 8, Write: write}
	}
	return []body{
		{streams: []Stream{row(0, false), row(1, true)}, trip: 32},
		{streams: []Stream{row(0, false), row(1, true)}, trip: 32},
		{streams: []Stream{row(2, false), row(3, false), row(4, true)}, trip: 32},
		{streams: []Stream{row(2, false), row(3, false), row(4, true)}, trip: 32},
	}
}

// Iterations that hit L1 in any way, not only its front, repeat: the
// lm-head pattern counts what the reference counts on every hierarchy.
func TestSameSetStreamsRepeatExactly(t *testing.T) {
	for _, cfg := range differentialConfigs() {
		checkTrace(t, cfg, sameSetTrace(1<<20))
	}
}

// FuzzAccessStreamsAgainstNaiveLRU checks AccessStreams' shortcuts — the
// MRU hit and the skipped repeats of an iteration that hit L1 throughout —
// against the naive reference: a random trace drawn from the seed, with
// the same-set pattern above spliced in at a random point, on the
// hierarchy the index picks.
func FuzzAccessStreamsAgainstNaiveLRU(f *testing.F) {
	cfgs := differentialConfigs()
	for ci := range cfgs {
		f.Add(int64(ci), uint8(ci))
	}
	f.Fuzz(func(t *testing.T, seed int64, ci uint8) {
		r := rand.New(rand.NewSource(seed))
		trace := randomTrace(r, 200+r.Intn(1500))
		at := r.Intn(len(trace) + 1)
		trace = slices.Insert(trace, at, sameSetTrace(4096+8*r.Int63n(512))...)
		checkTrace(t, cfgs[int(ci)%len(cfgs)], trace)
	})
}
