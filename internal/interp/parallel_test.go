package interp

import (
	"testing"

	"polyufc/internal/cachesim"
	"polyufc/internal/ir"
)

// parallelMatmul builds a matmul nest with the outer loop marked parallel.
func parallelMatmul(m, n, k int64) *ir.Nest {
	nest := matmulNest(m, n, k)
	nest.Root.Parallel = true
	return nest
}

func TestPartitionOuterCoversDomain(t *testing.T) {
	nest := parallelMatmul(37, 16, 16) // odd count: uneven chunks
	parts, err := PartitionOuter(nest, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 4 {
		t.Fatalf("parts = %d", len(parts))
	}
	var total int64
	for _, p := range parts {
		tc, err := p.TripCount()
		if err != nil {
			t.Fatal(err)
		}
		total += tc
	}
	want, _ := nest.TripCount()
	if total != want {
		t.Fatalf("partitioned trips %d != %d", total, want)
	}
}

func TestPartitionMoreThreadsThanIterations(t *testing.T) {
	nest := parallelMatmul(3, 4, 4)
	parts, err := PartitionOuter(nest, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 3 {
		t.Fatalf("parts = %d, want 3 (one per iteration)", len(parts))
	}
}

func TestPartitionRequiresParallel(t *testing.T) {
	nest := matmulNest(8, 8, 8) // not marked parallel
	if _, err := PartitionOuter(nest, 2); err == nil {
		t.Fatal("expected error for non-parallel outer loop")
	}
}

func TestRunPartitionedSameWork(t *testing.T) {
	nest := parallelMatmul(24, 24, 24)
	seq, err := RunNest(nest, NullTracer{})
	if err != nil {
		t.Fatal(err)
	}
	par, err := RunPartitioned(nest, 4, func(core int, a, sz int64, w bool) {})
	if err != nil {
		t.Fatal(err)
	}
	if par.Instances != seq.Instances || par.Flops != seq.Flops ||
		par.Loads != seq.Loads || par.Stores != seq.Stores {
		t.Fatalf("parallel stats %+v != sequential %+v", par, seq)
	}
}

// TestSharingHeuristicAgainstMultiCoreSim quantifies the paper's Sec. IV-B
// approximation: per-thread LLC misses of a shared-LLC multi-core run
// versus the sequential miss count divided by the thread count.
func TestSharingHeuristicAgainstMultiCoreSim(t *testing.T) {
	nest := parallelMatmul(64, 64, 64)
	cfg := cachesim.Config{Levels: []cachesim.LevelConfig{
		{Name: "L1", SizeBytes: 32 << 10, LineSize: 64, Assoc: 8},
		{Name: "LLC", SizeBytes: 1 << 20, LineSize: 64, Assoc: 16},
	}}
	threads := 4

	seqSim := mustSim(t, cfg)
	if _, err := RunNest(nest, TracerFunc(func(a, sz int64, w bool) {
		seqSim.Access(a, sz, w)
	})); err != nil {
		t.Fatal(err)
	}
	seqLLC := seqSim.LevelStats(len(cfg.Levels) - 1).Misses

	multi, err := cachesim.NewMulti(cfg, threads)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunPartitioned(nest, threads, func(core int, a, sz int64, w bool) {
		multi.Access(core, a, sz, w)
	}); err != nil {
		t.Fatal(err)
	}
	parLLC := multi.SharedStats().Misses

	// The working set (three 32 KiB arrays) fits the shared LLC: the
	// parallel run's total LLC misses stay near the sequential count (the
	// B matrix is shared across threads), so the per-thread figure is
	// close to seq/threads — the heuristic's regime.
	heuristic := seqLLC / int64(threads)
	perThread := parLLC / int64(threads)
	lo, hi := heuristic/2, heuristic*3
	if perThread < lo || perThread > hi {
		t.Fatalf("per-thread LLC misses %d outside [%d, %d] around the heuristic %d (seq %d, parallel-total %d)",
			perThread, lo, hi, heuristic, seqLLC, parLLC)
	}
	// Private L1 totals exceed the sequential L1 misses (each core runs a
	// cold private cache): the cost the heuristic ignores.
	seqL1 := seqSim.LevelStats(0).Misses
	parL1 := multi.TotalPrivateStats(0).Misses
	if parL1 < seqL1 {
		t.Fatalf("expected private-cache replication cost: parallel L1 %d < sequential %d", parL1, seqL1)
	}
}

func TestMultiSimValidation(t *testing.T) {
	cfg := cachesim.Config{Levels: []cachesim.LevelConfig{
		{Name: "L1", SizeBytes: 1 << 10, LineSize: 64, Assoc: 2},
		{Name: "LLC", SizeBytes: 16 << 10, LineSize: 64, Assoc: 8},
	}}
	if _, err := cachesim.NewMulti(cfg, 0); err == nil {
		t.Fatal("0 cores accepted")
	}
	one := cachesim.Config{Levels: cfg.Levels[:1]}
	if _, err := cachesim.NewMulti(one, 2); err == nil {
		t.Fatal("single-level config accepted")
	}
	m, err := cachesim.NewMulti(cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Core 0 loads a line; core 1 reading it misses privately but hits in
	// the shared LLC.
	m.Access(0, 0, 8, false)
	m.Access(1, 0, 8, false)
	if m.SharedStats().Hits != 1 || m.SharedStats().Misses != 1 {
		t.Fatalf("shared stats = %+v", m.SharedStats())
	}
	if m.PrivateStats(1, 0).Misses != 1 {
		t.Fatalf("core 1 private stats = %+v", m.PrivateStats(1, 0))
	}
	if m.DRAMReadBytes != 64 {
		t.Fatalf("DRAM reads = %d", m.DRAMReadBytes)
	}
}
