package core

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"polyufc/internal/faults"
	"polyufc/internal/hw"
	"polyufc/internal/ir"
	"polyufc/internal/platform"
	"polyufc/internal/roofline"
	"polyufc/internal/search"
	"polyufc/internal/tiling"
	"polyufc/internal/workloads"
)

// TestKeyOfSeparatesEveryResultChangingField is the property the memo
// rests on: mutating any one Config field that changes the compiled
// artifact yields a key distinct from the base and from every other
// mutation.
func TestKeyOfSeparatesEveryResultChangingField(t *testing.T) {
	tg := targetFor(t, hw.BDW())
	cal := *tg.Calibration
	cal.Constants.PeakGFlops *= 1.01
	refit, err := roofline.FromCalibration(tg.Backend, &cal)
	if err != nil {
		t.Fatal(err)
	}
	// An edit outside the calibrated constants still moves the answer.
	desc := *tg.Backend
	desc.Sockets = append([]platform.Socket(nil), desc.Sockets...)
	desc.Sockets[0].CapLatencySec *= 1000
	edited, err := roofline.Resolve(&desc)
	if err != nil {
		t.Fatal(err)
	}

	base := DefaultConfig(tg)
	mutations := []struct {
		name   string
		mutate func(*Config)
	}{
		{"Tiling", func(c *Config) { c.Tiling = tiling.Spec{Name: tiling.NameCacheOblivious} }},
		{"Tiling.Size", func(c *Config) { c.Tiling = tiling.Spec{Name: tiling.NamePluto, Size: 64} }},
		{"FullyAssoc", func(c *Config) { c.FullyAssoc = true }},
		{"AmortizeFactor==0", func(c *Config) { c.AmortizeFactor = 0 }},
		{"Search.Objective", func(c *Config) { c.Search.Objective = search.ObjectiveEnergy }},
		{"Search.Epsilon", func(c *Config) { c.Search.Epsilon = 5e-3 }},
		{"CapLevel", func(c *Config) { c.CapLevel = ir.DialectTorch }},
		{"Degrade", func(c *Config) { c.Degrade = BestEffort }},
		{"calibration", func(c *Config) { c.Target = refit }},
		{"description", func(c *Config) { c.Target = edited }},
		{"platform", func(c *Config) { c.Target = targetFor(t, hw.RPL()) }},
	}
	seen := map[CacheKey]string{KeyOf("gemm", int(workloads.Test), base): "base"}
	for _, m := range mutations {
		cfg := base
		m.mutate(&cfg)
		key := KeyOf("gemm", int(workloads.Test), cfg)
		if prev, dup := seen[key]; dup {
			t.Errorf("mutating %s yields the same key as %s: %+v", m.name, prev, key)
		}
		seen[key] = m.name
	}
	for _, k := range []CacheKey{KeyOf("mvt", int(workloads.Test), base), KeyOf("gemm", int(workloads.Bench), base)} {
		if _, dup := seen[k]; dup {
			t.Errorf("kernel or size does not separate keys: %+v", k)
		}
	}
}

// The zero tiling spec and an explicit "pluto" are the same artifact and
// must share an entry.
func TestKeyOfDefaultTilingIsPluto(t *testing.T) {
	cfg := DefaultConfig(targetFor(t, hw.BDW()))
	explicit := cfg
	explicit.Tiling = tiling.Spec{Name: tiling.NamePluto}
	if a, b := KeyOf("gemm", 1, cfg), KeyOf("gemm", 1, explicit); a != b {
		t.Fatalf("zero tiling %+v != explicit pluto %+v", a, b)
	}
}

// journalLayout restates the response-journal key layout from the
// target's own description and constants. Journals and CAS entries on
// disk carry these strings, so CacheKey.String must reproduce them byte
// for byte.
func journalLayout(endpoint, kernel string, size int, cfg Config) string {
	return strings.Join([]string{
		endpoint, cfg.Target.Platform.Name, "be" + cfg.Target.Backend.Hash(), "cal" + cfg.Target.Constants.Hash(), kernel,
		fmt.Sprintf("sz%d", size), cfg.Search.Objective.String(),
		fmt.Sprintf("lvl%d", int(cfg.CapLevel)), fmt.Sprintf("eps%g", cfg.Search.Epsilon),
		"tiling=" + cfg.Tiling.Fingerprint(),
	}, "/")
}

func TestCacheKeyStringIsTheJournalLayout(t *testing.T) {
	v1 := DefaultConfig(targetFor(t, hw.RPL()))
	tuned := DefaultConfig(targetFor(t, hw.BDW()))
	tuned.Search = search.Options{Objective: search.ObjectivePerformance, Epsilon: 0.02}
	tuned.CapLevel = ir.DialectAffine
	tuned.Tiling = tiling.Spec{Name: tiling.NameLatency, Probe: 3}
	for _, cfg := range []Config{v1, tuned} {
		got := "v1/compile/" + KeyOf("gemm", int(workloads.Bench), cfg).String()
		if want := journalLayout("v1/compile", "gemm", int(workloads.Bench), cfg); got != want {
			t.Errorf("journal key drifted:\n got %s\nwant %s", got, want)
		}
	}
	// Pin one literal too, so the reference above cannot drift with it.
	got := KeyOf("gemm", int(workloads.Bench), v1).String()
	want := "RPL/bef8b76626d134bf7a/cal" + v1.Target.Constants.Hash() + "/gemm/sz1/edp/lvl1/eps0.001/tiling=pluto"
	if got != want {
		t.Errorf("v1 key = %s, want %s", got, want)
	}
}

// Armed faults and prefix runs bypass the whole-result memo inside
// CompileStaged, so callers need no fork of their own.
func TestCompileStagedBypassesMemo(t *testing.T) {
	cfg := DefaultConfig(targetFor(t, hw.BDW()))
	k, err := workloads.ByName("mvt")
	if err != nil {
		t.Fatal(err)
	}
	build := func() (*ir.Module, error) { return k.Build(workloads.Test) }
	key := KeyOf("mvt", int(workloads.Test), cfg)

	var cache Cache
	ctx := context.Background()
	if _, err := cache.CompileStaged(ctx, key, cfg, PipelineOptions{Until: StageCharacterize}, build); err != nil {
		t.Fatal(err)
	}
	armed := cfg
	armed.Faults = faults.New(1) // armed registry, no point enabled
	if _, err := cache.CompileStaged(ctx, key, armed, PipelineOptions{}, build); err != nil {
		t.Fatal(err)
	}
	if c := cache.Counters(); c.Len != 0 || c.Hits+c.Misses != 0 {
		t.Fatalf("prefix or fault-armed compile touched the memo: %+v", c)
	}
	full, err := cache.CompileStaged(ctx, key, cfg, PipelineOptions{}, build)
	if err != nil {
		t.Fatal(err)
	}
	if again, _ := cache.CompileStaged(ctx, key, cfg, PipelineOptions{}, build); again != full {
		t.Fatal("a plain compile is not memoized")
	}
}
