package cachesim

import "fmt"

// MultiSim is a multi-core cache simulator: per-core private levels (all
// but the last) and one shared last-level cache. It provides the ground
// truth for the paper's Sec. IV-B thread-sharing approximation ("divide
// sequential miss counts by the thread count"), which ignores inter-thread
// conflict and coherence misses — exactly the error this simulator can
// quantify.
type MultiSim struct {
	cfg      Config
	cores    int
	private  [][]level // [core][level]
	shared   level
	lineSize int64
	lineBits uint
	// Cold-miss accounting, by the argument on Simulator.seen: a core's
	// private levels share the set of lines that core touched, the shared
	// level has the set any core touched.
	coreSeen   []lineSet
	coreCold   []int64
	sharedSeen lineSet
	sharedCold int64

	DRAMReadBytes  int64
	DRAMWriteBytes int64
}

// NewMulti builds a simulator with `cores` private hierarchies sharing the
// final level of cfg.
func NewMulti(cfg Config, cores int) (*MultiSim, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cores < 1 {
		return nil, fmt.Errorf("cachesim: need at least one core")
	}
	if len(cfg.Levels) < 2 {
		return nil, fmt.Errorf("cachesim: multi-core simulation needs private levels plus a shared LLC")
	}
	m := &MultiSim{cfg: cfg, cores: cores, lineSize: cfg.Levels[0].LineSize}
	for b := m.lineSize; b > 1; b >>= 1 {
		m.lineBits++
	}
	nPriv := len(cfg.Levels) - 1
	for c := 0; c < cores; c++ {
		levels := make([]level, nPriv)
		for i, lc := range cfg.Levels[:nPriv] {
			levels[i].init(lc)
		}
		m.private = append(m.private, levels)
	}
	m.shared.init(cfg.Levels[nPriv])
	m.coreSeen = make([]lineSet, cores)
	m.coreCold = make([]int64, cores)
	return m, nil
}

// Access simulates one access by the given core.
func (m *MultiSim) Access(core int, addr, size int64, write bool) {
	first := addr >> m.lineBits
	last := (addr + size - 1) >> m.lineBits
	for line := first; line <= last; line++ {
		m.accessLine(core, line, write)
	}
}

func (m *MultiSim) accessLine(core int, line int64, write bool) {
	if write {
		m.DRAMWriteBytes += m.lineSize
	}
	private := m.private[core]
	for i := range private {
		if private[i].access(line) {
			return
		}
	}
	if m.coreSeen[core].add(line) {
		m.coreCold[core]++
	}
	if m.shared.access(line) {
		return
	}
	m.DRAMReadBytes += m.lineSize
	if m.sharedSeen.add(line) {
		m.sharedCold++
	}
}

// SharedStats returns the shared LLC statistics.
func (m *MultiSim) SharedStats() Stats {
	st := m.shared.st
	st.ColdMisses = m.sharedCold
	return st
}

// PrivateStats returns the statistics of one core's private level.
func (m *MultiSim) PrivateStats(core, lvl int) Stats {
	st := m.private[core][lvl].st
	st.ColdMisses = m.coreCold[core]
	return st
}

// TotalPrivateStats sums one private level's statistics across cores.
func (m *MultiSim) TotalPrivateStats(lvl int) Stats {
	var s Stats
	for c := 0; c < m.cores; c++ {
		st := m.PrivateStats(c, lvl)
		s.Accesses += st.Accesses
		s.Hits += st.Hits
		s.Misses += st.Misses
		s.ColdMisses += st.ColdMisses
	}
	return s
}

// DRAMBytes returns total memory traffic.
func (m *MultiSim) DRAMBytes() int64 { return m.DRAMReadBytes + m.DRAMWriteBytes }

// Cores returns the number of cores.
func (m *MultiSim) Cores() int { return m.cores }
