package experiments

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"polyufc/internal/core"
	"polyufc/internal/hw"
	"polyufc/internal/roofline"
	"polyufc/internal/workloads"
)

// renderAll renders the given experiments into one buffer.
func renderAll(t *testing.T, s *Suite, ids ...string) []byte {
	t.Helper()
	var buf bytes.Buffer
	prev := s.Out
	s.Out = &buf
	defer func() { s.Out = prev }()
	for _, id := range ids {
		if err := s.Run(id); err != nil {
			t.Fatalf("%s: %v", id, err)
		}
	}
	return buf.Bytes()
}

// TestRenderersByteIdenticalAcrossConcurrency is the engine's determinism
// contract: RenderFig1/Fig6/Fig7/Fig8 at concurrency N match the serial
// run byte-for-byte.
func TestRenderersByteIdenticalAcrossConcurrency(t *testing.T) {
	ids := []string{"fig1", "fig6", "fig7", "fig8"}
	s, err := New(workloads.Test, nil)
	if err != nil {
		t.Fatal(err)
	}
	s.Concurrency = 1
	serial := renderAll(t, s, ids...)
	for _, conc := range []int{2, 8, 0} {
		s2, err := New(workloads.Test, nil)
		if err != nil {
			t.Fatal(err)
		}
		s2.Concurrency = conc
		got := renderAll(t, s2, ids...)
		if !bytes.Equal(serial, got) {
			t.Fatalf("concurrency %d output differs from serial (%d vs %d bytes)",
				conc, len(got), len(serial))
		}
	}
	// Warm-cache re-render on the same suite must also be identical.
	s.Concurrency = 4
	warm := renderAll(t, s, ids...)
	if !bytes.Equal(serial, warm) {
		t.Fatal("warm-cache parallel output differs from serial")
	}
}

// TestCalibrationMatchesSerial asserts the concurrently calibrated
// constants in Suite.New are identical to direct serial calibration.
func TestCalibrationMatchesSerial(t *testing.T) {
	s, err := New(workloads.Test, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range hw.Platforms() {
		want, err := roofline.Calibrate(hw.NewMachine(p))
		if err != nil {
			t.Fatal(err)
		}
		if got := s.Constants(p.Name); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: concurrent calibration differs from serial", p.Name)
		}
	}
	// Platform order is the hw.Platforms order, not completion order.
	plats := hw.Platforms()
	for i, p := range s.Platforms() {
		if p.Name != plats[i].Name {
			t.Fatalf("platform %d = %s, want %s", i, p.Name, plats[i].Name)
		}
	}
}

// TestSweepErrorPropagatesLowestIndex: a failing kernel surfaces its own
// error deterministically, at any concurrency.
func TestSweepErrorPropagatesLowestIndex(t *testing.T) {
	s := suite(t)
	kernels := []string{"gemm", "no-such-kernel-a", "mvt", "no-such-kernel-b"}
	for _, conc := range []int{1, 4} {
		s.Concurrency = conc
		_, err := s.Fig7(s.Platforms()[0], kernels)
		if err == nil {
			t.Fatalf("conc %d: expected error", conc)
		}
		if !strings.Contains(err.Error(), "no-such-kernel-a") {
			t.Fatalf("conc %d: want the lowest-index failure, got %v", conc, err)
		}
	}
	s.Concurrency = 0
}

// TestSweepCancellation: a cancelled suite context aborts the sweep with
// ctx.Err instead of running it.
func TestSweepCancellation(t *testing.T) {
	s, err := New(workloads.Test, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s.Ctx = ctx
	if _, err := s.Fig1(s.Platforms()[0]); !errors.Is(err, context.Canceled) {
		t.Fatalf("Fig1 err = %v", err)
	}
	if err := s.Run("fig7"); !errors.Is(err, context.Canceled) {
		t.Fatalf("fig7 err = %v", err)
	}
	// Clearing the context re-enables the suite.
	s.Ctx = nil
	if _, err := s.Fig1(s.Platforms()[0]); err != nil {
		t.Fatalf("after clearing ctx: %v", err)
	}
}

// TestCompileCacheReusedAcrossFigures: Fig. 1/6/7 share kernels, so a full
// render pass compiles a kernel again as a chain of stage hits, and a second
// pass over the same figures adds no stage-cache or profile misses.
func TestCompileCacheReusedAcrossFigures(t *testing.T) {
	s, err := New(workloads.Test, nil)
	if err != nil {
		t.Fatal(err)
	}
	renderAll(t, s, "fig1", "fig6", "fig7")
	pre := s.StageStats()[core.StagePreprocess]
	if pre.Runs == 0 {
		t.Fatal("no compilations recorded")
	}
	if pre.CacheHits == 0 {
		t.Fatalf("no stage reuse across figures (preprocess runs=%d)", pre.Runs)
	}
	// A second pass over the same figures is all hits.
	_, stageMisses := s.StageCacheStats()
	_, profMisses := s.ProfileStats()
	renderAll(t, s, "fig1", "fig6", "fig7")
	if _, m := s.StageCacheStats(); m != stageMisses {
		t.Fatalf("second pass recompiled: stage misses %d -> %d", stageMisses, m)
	}
	if _, m := s.ProfileStats(); m != profMisses {
		t.Fatalf("second pass re-simulated: profile misses %d -> %d", profMisses, m)
	}
	s.ResetCache()
	if h, m := s.StageCacheStats(); h != 0 || m != 0 {
		t.Fatalf("reset stage stats = %d/%d", h, m)
	}
}

// TestProfileCacheSharedAcrossFigures: the figures re-measure the same
// compiled nests, so one render pass reuses exact-simulator profiles
// across its per-worker machines, and a warm second pass simulates
// nothing new.
func TestProfileCacheSharedAcrossFigures(t *testing.T) {
	s, err := New(workloads.Test, nil)
	if err != nil {
		t.Fatal(err)
	}
	renderAll(t, s, "fig1", "fig6", "fig7")
	hits, misses := s.ProfileStats()
	if misses == 0 {
		t.Fatal("no profile simulations recorded")
	}
	if hits == 0 {
		t.Fatalf("no profile reuse across figures (misses=%d)", misses)
	}
	// A warm second pass hits both caches: same Results, same nests.
	_, missesBefore := s.ProfileStats()
	renderAll(t, s, "fig1", "fig6", "fig7")
	_, missesAfter := s.ProfileStats()
	if missesAfter != missesBefore {
		t.Fatalf("second pass re-simulated: misses %d -> %d", missesBefore, missesAfter)
	}
	s.ResetCache()
	if h, m := s.ProfileStats(); h != 0 || m != 0 {
		t.Fatalf("reset profile stats = %d/%d", h, m)
	}
}

// TestFig8CacheSharing: the hardware series runs the set-associative
// compilation itself, so one Fig8 case compiles twice (set-assoc and
// fully-assoc) and no third time.
func TestFig8CacheSharing(t *testing.T) {
	s, err := New(workloads.Test, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Fig8("gemm-pow2", s.Platforms()[0]); err != nil {
		t.Fatal(err)
	}
	// Runs counts every compile, stage-cache hits included.
	if runs := s.StageStats()[core.StagePreprocess].Runs; runs != 2 {
		t.Fatalf("preprocess ran %d times, want 2 (set-assoc + fully-assoc)", runs)
	}
}
