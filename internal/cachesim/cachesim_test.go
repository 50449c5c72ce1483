package cachesim

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func smallCfg(assoc int64) Config {
	return Config{Levels: []LevelConfig{
		{Name: "L1", SizeBytes: 1024, LineSize: 64, Assoc: assoc},
	}}
}

func TestColdMisses(t *testing.T) {
	s := mustNew(t, smallCfg(2))
	for i := int64(0); i < 8; i++ {
		s.Access(i*64, 8, false)
	}
	st := s.LevelStats(0)
	if st.Misses != 8 || st.ColdMisses != 8 || st.Hits != 0 {
		t.Fatalf("stats = %+v", st)
	}
	// Re-access: all hits (8 lines fit in 1 KiB / 64 B = 16 lines).
	for i := int64(0); i < 8; i++ {
		s.Access(i*64, 8, false)
	}
	st = s.LevelStats(0)
	if st.Hits != 8 || st.Misses != 8 {
		t.Fatalf("stats after reuse = %+v", st)
	}
}

func TestSameLineHits(t *testing.T) {
	s := mustNew(t, smallCfg(2))
	s.Access(0, 8, false)
	s.Access(8, 8, false)
	s.Access(56, 8, false)
	st := s.LevelStats(0)
	if st.Misses != 1 || st.Hits != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestLRUEviction(t *testing.T) {
	// 2-way, 8 sets. Lines 0, 8, 16 all map to set 0.
	s := mustNew(t, smallCfg(2))
	s.Access(0*64, 8, false)  // set 0: [0]
	s.Access(8*64, 8, false)  // set 0: [8 0]
	s.Access(0*64, 8, false)  // hit; set 0: [0 8]
	s.Access(16*64, 8, false) // evicts 8; set 0: [16 0]
	s.Access(0*64, 8, false)  // hit
	s.Access(8*64, 8, false)  // miss (evicted)
	st := s.LevelStats(0)
	if st.Hits != 2 || st.Misses != 4 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestConflictVsFullyAssociative(t *testing.T) {
	// Two lines that conflict in a set-associative cache but not in a
	// fully associative one of the same size: stride = sets*line.
	setAssoc := mustNew(t, Config{Levels: []LevelConfig{{Name: "L1", SizeBytes: 1024, LineSize: 64, Assoc: 1}}})
	fullAssoc := mustNew(t, Config{Levels: []LevelConfig{{Name: "L1", SizeBytes: 1024, LineSize: 64, Assoc: 0}}})
	// 16 direct-mapped sets; lines 0 and 16 collide.
	for rep := 0; rep < 4; rep++ {
		for _, line := range []int64{0, 16} {
			setAssoc.Access(line*64, 8, false)
			fullAssoc.Access(line*64, 8, false)
		}
	}
	sa, fa := setAssoc.LevelStats(0), fullAssoc.LevelStats(0)
	if sa.Misses != 8 {
		t.Fatalf("set-assoc misses = %d, want 8 (ping-pong)", sa.Misses)
	}
	if fa.Misses != 2 {
		t.Fatalf("fully-assoc misses = %d, want 2 (compulsory only)", fa.Misses)
	}
}

func TestWriteThroughDRAMTraffic(t *testing.T) {
	s := mustNew(t, smallCfg(2))
	s.Access(0, 8, true)
	s.Access(0, 8, true)
	if s.DRAMWriteBytes != 128 {
		t.Fatalf("DRAMWriteBytes = %d, want 128 (every write reaches memory)", s.DRAMWriteBytes)
	}
	// Write-allocate fetches the line once on the first write miss.
	if s.DRAMReadBytes != 64 {
		t.Fatalf("DRAMReadBytes = %d, want 64 (one allocate fill)", s.DRAMReadBytes)
	}
	// The written line is resident, so a read hits and causes no new fill.
	s.Access(0, 8, false)
	if s.DRAMReadBytes != 64 {
		t.Fatalf("DRAMReadBytes = %d after read hit, want 64", s.DRAMReadBytes)
	}
}

func TestMultiLevelMissPropagation(t *testing.T) {
	cfg := Config{Levels: []LevelConfig{
		{Name: "L1", SizeBytes: 512, LineSize: 64, Assoc: 2},
		{Name: "L2", SizeBytes: 4096, LineSize: 64, Assoc: 4},
	}}
	s := mustNew(t, cfg)
	// Touch 32 lines: L1 holds 8, L2 holds 64.
	for i := int64(0); i < 32; i++ {
		s.Access(i*64, 8, false)
	}
	l1, l2 := s.LevelStats(0), s.LevelStats(1)
	if l1.Misses != 32 {
		t.Fatalf("L1 misses = %d", l1.Misses)
	}
	if l2.Accesses != 32 || l2.Misses != 32 {
		t.Fatalf("L2 stats = %+v", l2)
	}
	if s.DRAMReadBytes != 32*64 {
		t.Fatalf("DRAM read bytes = %d", s.DRAMReadBytes)
	}
	// Second sweep: L1 misses (working set 32 lines > 8), L2 all hits.
	s.Access(0, 8, false)
	// line 0 was evicted from L1 but resides in L2.
	l2b := s.LevelStats(1)
	if l2b.Hits != 1 {
		t.Fatalf("L2 hits = %d, want 1", l2b.Hits)
	}
	if s.DRAMReadBytes != 32*64 {
		t.Fatalf("unexpected extra DRAM fill: %d", s.DRAMReadBytes)
	}
}

func TestLineSpanningAccess(t *testing.T) {
	s := mustNew(t, smallCfg(2))
	s.Access(60, 8, false) // spans lines 0 and 1
	st := s.LevelStats(0)
	if st.Accesses != 2 || st.Misses != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestNonPowerOfTwoSets(t *testing.T) {
	// 3 sets x 2 ways x 64 B = 384 B: modulo placement path.
	cfg := Config{Levels: []LevelConfig{{Name: "L1", SizeBytes: 384, LineSize: 64, Assoc: 2}}}
	s := mustNew(t, cfg)
	for i := int64(0); i < 12; i++ {
		s.Access(i*64, 8, false)
	}
	st := s.LevelStats(0)
	if st.Accesses != 12 || st.Misses != 12 {
		t.Fatalf("stats = %+v", st)
	}
	// Lines 0, 3, 6 map to set 0 (2 ways): 0 evicted after 3, 6.
	s.Access(0, 8, false)
	if s.LevelStats(0).Hits != 0 {
		t.Fatal("expected conflict miss in mod-3 set")
	}
}

func TestValidateRejectsBadConfigs(t *testing.T) {
	bad := []Config{
		{},
		{Levels: []LevelConfig{{Name: "L1", SizeBytes: 1000, LineSize: 60, Assoc: 2}}},
		{Levels: []LevelConfig{
			{Name: "L1", SizeBytes: 1024, LineSize: 64, Assoc: 2},
			{Name: "L2", SizeBytes: 4096, LineSize: 128, Assoc: 2},
		}},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Fatalf("config %d should be rejected", i)
		}
	}
}

func TestReset(t *testing.T) {
	s := mustNew(t, smallCfg(2))
	s.Access(0, 8, false)
	s.Reset()
	if s.LevelStats(0).Accesses != 0 || s.DRAMReadBytes+s.DRAMWriteBytes != 0 {
		t.Fatal("Reset did not clear state")
	}
	s.Access(0, 8, false)
	if s.LevelStats(0).ColdMisses != 1 {
		t.Fatal("cold-miss tracking not reset")
	}
}

func TestPropertyHitsPlusMissesEqualsAccesses(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		cfg := Config{Levels: []LevelConfig{
			{Name: "L1", SizeBytes: 2048, LineSize: 64, Assoc: 4},
			{Name: "LLC", SizeBytes: 16384, LineSize: 64, Assoc: 8},
		}}
		s := mustNew(t, cfg)
		n := 200 + r.Intn(800)
		for i := 0; i < n; i++ {
			s.Access(int64(r.Intn(1<<14)), 8, r.Intn(4) == 0)
		}
		for l := range cfg.Levels {
			st := s.LevelStats(l)
			if st.Hits+st.Misses != st.Accesses {
				return false
			}
			if st.ColdMisses > st.Misses {
				return false
			}
		}
		// LLC misses never exceed L1 misses for reads+writes combined,
		// since each LLC access stems from an L1 event.
		return s.LevelStats(1).Accesses <= s.LevelStats(0).Accesses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyLRUInclusion(t *testing.T) {
	// LRU is a stack algorithm: for fully associative caches, a larger
	// capacity never incurs more misses on the same trace.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		small := mustNew(t, Config{Levels: []LevelConfig{{Name: "L1", SizeBytes: 512, LineSize: 64, Assoc: 0}}})
		big := mustNew(t, Config{Levels: []LevelConfig{{Name: "L1", SizeBytes: 2048, LineSize: 64, Assoc: 0}}})
		for i := 0; i < 500; i++ {
			addr := int64(r.Intn(64)) * 64
			small.Access(addr, 8, false)
			big.Access(addr, 8, false)
		}
		return big.LevelStats(0).Misses <= small.LevelStats(0).Misses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestAccessorHelpers(t *testing.T) {
	cfg := smallCfg(2)
	s := mustNew(t, cfg)
	s.Access(0, 8, false)
	s.Access(0, 8, false)
	if st := s.LevelStats(len(cfg.Levels) - 1); st.Accesses != 2 || st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("LLC stats = %+v, want 2 accesses, 1 hit, 1 miss", st)
	}
	fa := smallCfg(2).FullyAssociative()
	if fa.Levels[0].Assoc != 0 {
		t.Fatal("FullyAssociative did not clear associativity")
	}
}

func TestMultiCoreSharedLLCInPackage(t *testing.T) {
	cfg := Config{Levels: []LevelConfig{
		{Name: "L1", SizeBytes: 512, LineSize: 64, Assoc: 2},
		{Name: "LLC", SizeBytes: 8192, LineSize: 64, Assoc: 4},
	}}
	m, err := NewMulti(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	if m.Cores() != 2 {
		t.Fatalf("cores = %d", m.Cores())
	}
	// Writes from core 0 fill the shared LLC; reads from core 1 then hit
	// there while missing privately.
	m.Access(0, 0, 8, true)
	m.Access(1, 0, 8, false)
	if m.SharedStats().Hits != 1 {
		t.Fatalf("shared stats = %+v", m.SharedStats())
	}
	if m.TotalPrivateStats(0).Misses != 2 {
		t.Fatalf("private misses = %+v", m.TotalPrivateStats(0))
	}
	if m.DRAMBytes() != 64+64 { // one fill + one write-through line
		t.Fatalf("DRAM bytes = %d", m.DRAMBytes())
	}
	if m.PrivateStats(0, 0).Accesses != 1 {
		t.Fatalf("core0 accesses = %+v", m.PrivateStats(0, 0))
	}
	// A line-spanning access touches two lines.
	m.Access(0, 60, 8, false)
	if m.PrivateStats(0, 0).Accesses != 3 {
		t.Fatalf("spanning access accounting = %+v", m.PrivateStats(0, 0))
	}
}

// mustNew builds a simulator from a config the test knows is valid.
func mustNew(t *testing.T, cfg Config) *Simulator {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}
