package core

import (
	"context"
	"errors"
	"testing"

	"polyufc/internal/hw"
	"polyufc/internal/workloads"
)

// An already-cancelled context aborts CompilePipeline before any stage runs.
func TestCompileCtxCancelledBeforeStart(t *testing.T) {
	p := hw.RPL()
	cfg := DefaultConfig(targetFor(t, p))
	k, err := workloads.ByName("gemm")
	if err != nil {
		t.Fatal(err)
	}
	mod, err := k.Build(workloads.Test)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := CompilePipeline(ctx, mod, cfg, PipelineOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// Cancellation aborts even under BestEffort: it is a caller decision, not
// a stage fault to degrade around.
func TestCompileCtxCancellationBeatsBestEffort(t *testing.T) {
	p := hw.BDW()
	cfg := DefaultConfig(targetFor(t, p))
	cfg.Degrade = BestEffort
	k, err := workloads.ByName("gemm")
	if err != nil {
		t.Fatal(err)
	}
	mod, err := k.Build(workloads.Test)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := CompilePipeline(ctx, mod, cfg, PipelineOptions{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Fatal("cancelled compile returned a degraded Result")
	}
}

// The Compile wrapper stays uncancellable and identical to CompilePipeline
// with Background.
func TestCompileMatchesCompileCtxBackground(t *testing.T) {
	p := hw.RPL()
	cfg := DefaultConfig(targetFor(t, p))
	k, err := workloads.ByName("atax")
	if err != nil {
		t.Fatal(err)
	}
	mod, err := k.Build(workloads.Test)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Compile(mod, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := CompilePipeline(context.Background(), mod, cfg, PipelineOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Reports) != len(b.Reports) {
		t.Fatalf("report counts differ: %d vs %d", len(a.Reports), len(b.Reports))
	}
	for i := range a.Reports {
		if a.Reports[i].CapGHz != b.Reports[i].CapGHz || a.Reports[i].OI != b.Reports[i].OI {
			t.Fatalf("report %d differs: %+v vs %+v", i, a.Reports[i], b.Reports[i])
		}
	}
}
