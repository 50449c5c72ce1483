package pipeline

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// testState is a minimal pipeline state: an append-only trace plus a
// value the snapshot stages save and load.
type testState struct {
	trace []string
	value int
}

func traceStage(name string) Stage[*testState] {
	return Stage[*testState]{
		Name: name,
		Run: func(_ context.Context, s *testState) error {
			s.trace = append(s.trace, name)
			return nil
		},
	}
}

func TestRunExecutesStagesInOrder(t *testing.T) {
	p := New("t", traceStage("a"), traceStage("b"), traceStage("c"))
	s := &testState{}
	events, err := p.Run(context.Background(), s, RunOptions{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := strings.Join(s.trace, ","); got != "a,b,c" {
		t.Fatalf("trace = %s, want a,b,c", got)
	}
	if len(events) != 3 || events[0].Stage != "a" || events[2].Stage != "c" {
		t.Fatalf("events = %+v", events)
	}
	for _, e := range events {
		if e.CacheHit || e.Err != "" {
			t.Fatalf("unexpected event flags: %+v", e)
		}
	}
}

func TestRunUntilStopsAfterNamedStage(t *testing.T) {
	p := New("t", traceStage("a"), traceStage("b"), traceStage("c"))
	s := &testState{}
	events, err := p.Run(context.Background(), s, RunOptions{Until: "b"})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := strings.Join(s.trace, ","); got != "a,b" {
		t.Fatalf("trace = %s, want a,b", got)
	}
	if len(events) != 2 {
		t.Fatalf("events = %+v", events)
	}
}

func TestRunStageErrorWrapsAndRecordsEvent(t *testing.T) {
	boom := errors.New("boom")
	p := New("t",
		traceStage("a"),
		Stage[*testState]{Name: "bad", Run: func(context.Context, *testState) error { return boom }},
		traceStage("c"),
	)
	s := &testState{}
	events, err := p.Run(context.Background(), s, RunOptions{})
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("err = %v, want wrapped boom", err)
	}
	if !strings.Contains(err.Error(), "t: stage bad") {
		t.Fatalf("err = %v, want pipeline+stage prefix", err)
	}
	if len(events) != 2 || events[1].Stage != "bad" || events[1].Err == "" {
		t.Fatalf("events = %+v, want failing event recorded", events)
	}
	if got := strings.Join(s.trace, ","); got != "a" {
		t.Fatalf("trace = %s: stage after failure must not run", got)
	}
}

func TestRunStagePanicIsRecovered(t *testing.T) {
	p := New("t", Stage[*testState]{
		Name: "volatile",
		Run:  func(context.Context, *testState) error { panic("kaboom") },
	})
	_, err := p.Run(context.Background(), &testState{}, RunOptions{})
	if err == nil || !strings.Contains(err.Error(), "panic: kaboom") ||
		!strings.Contains(err.Error(), "volatile") {
		t.Fatalf("err = %v, want recovered panic naming the stage", err)
	}
}

func TestRunChecksContextBetweenStages(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	p := New("t",
		Stage[*testState]{Name: "a", Run: func(_ context.Context, s *testState) error {
			s.trace = append(s.trace, "a")
			cancel()
			return nil
		}},
		traceStage("b"),
	)
	s := &testState{}
	events, err := p.Run(ctx, s, RunOptions{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(s.trace) != 1 || len(events) != 1 {
		t.Fatalf("trace=%v events=%v: stage b must not run after cancel", s.trace, events)
	}
}

func TestUnitErrorKeepsSingleStagePrefix(t *testing.T) {
	sentinel := errors.New("injected")
	p := New("core", Stage[*testState]{
		Name: "tile",
		Run: func(context.Context, *testState) error {
			return Unit("tile", "S1_gemm", func() error { return sentinel })
		},
	})
	_, err := p.Run(context.Background(), &testState{}, RunOptions{})
	if err == nil {
		t.Fatal("want error")
	}
	if got := err.Error(); got != "core: tile on S1_gemm: injected" {
		t.Fatalf("err = %q, want single stage prefix", got)
	}
	if !errors.Is(err, sentinel) {
		t.Fatalf("errors.Is through UnitError failed: %v", err)
	}
}

func TestUnitRecoversPanics(t *testing.T) {
	err := Unit("search", "S9", func() error { panic("model blew up") })
	var ue *UnitError
	if !errors.As(err, &ue) || ue.Stage != "search" || ue.Label != "S9" {
		t.Fatalf("err = %v, want UnitError{search, S9}", err)
	}
	if !strings.Contains(err.Error(), "panic: model blew up") {
		t.Fatalf("err = %v, want panic text", err)
	}
}

// snapStage saves/loads value so memoized runs can be distinguished from
// cold runs via the ran counter.
func snapStage(name string, ran *int) Stage[*testState] {
	return Stage[*testState]{
		Name: name,
		Run: func(_ context.Context, s *testState) error {
			*ran++
			s.value += 10
			return nil
		},
		Save: func(s *testState) any { return s.value },
		Load: func(s *testState, snap any) { s.value = snap.(int) },
	}
}

func TestMemoizedStageHitsOnSecondRun(t *testing.T) {
	ran := 0
	cache := &Cache{}
	mk := func() *Pipeline[*testState] { return New("t", snapStage("s", &ran)) }

	s1 := &testState{}
	ev1, err := mk().Run(context.Background(), s1, RunOptions{Cache: cache, BaseKey: "k"})
	if err != nil {
		t.Fatalf("run1: %v", err)
	}
	s2 := &testState{}
	ev2, err := mk().Run(context.Background(), s2, RunOptions{Cache: cache, BaseKey: "k"})
	if err != nil {
		t.Fatalf("run2: %v", err)
	}
	if ran != 1 {
		t.Fatalf("stage ran %d times, want 1", ran)
	}
	if s1.value != 10 || s2.value != 10 {
		t.Fatalf("values = %d, %d, want 10, 10", s1.value, s2.value)
	}
	if ev1[0].CacheHit || !ev2[0].CacheHit {
		t.Fatalf("cache-hit flags = %v, %v, want false, true", ev1[0].CacheHit, ev2[0].CacheHit)
	}
	if hits, misses := cache.Stats(); hits != 1 || misses != 1 {
		t.Fatalf("stats = %d/%d, want 1 hit / 1 miss", hits, misses)
	}
}

func TestMemoKeyChainsThroughUpstreamSalts(t *testing.T) {
	ran := 0
	cache := &Cache{}
	salt := "v1"
	mk := func() *Pipeline[*testState] {
		return New("t",
			Stage[*testState]{
				Name: "cfg",
				Run:  func(context.Context, *testState) error { return nil },
				Salt: func(*testState) string { return salt },
			},
			snapStage("s", &ran),
		)
	}
	opts := RunOptions{Cache: cache, BaseKey: "k"}
	if _, err := mk().Run(context.Background(), &testState{}, opts); err != nil {
		t.Fatal(err)
	}
	salt = "v2" // upstream config change must invalidate the downstream key
	if _, err := mk().Run(context.Background(), &testState{}, opts); err != nil {
		t.Fatal(err)
	}
	if ran != 2 {
		t.Fatalf("stage ran %d times, want 2 (salt change must miss)", ran)
	}
	salt = "v1"
	if _, err := mk().Run(context.Background(), &testState{}, opts); err != nil {
		t.Fatal(err)
	}
	if ran != 2 {
		t.Fatalf("stage ran %d times, want 2 (original salt must hit)", ran)
	}
}

func TestEmptyBaseKeyDisablesMemo(t *testing.T) {
	ran := 0
	cache := &Cache{}
	p := New("t", snapStage("s", &ran))
	for i := 0; i < 2; i++ {
		if _, err := p.Run(context.Background(), &testState{}, RunOptions{Cache: cache}); err != nil {
			t.Fatal(err)
		}
	}
	if ran != 2 {
		t.Fatalf("stage ran %d times, want 2 (no base key => no memo)", ran)
	}
	if n := cache.Counters().Len; n != 0 {
		t.Fatalf("cache holds %d entries, want 0", n)
	}
}

func TestFailedStageIsNotMemoized(t *testing.T) {
	calls := 0
	cache := &Cache{}
	p := New("t", Stage[*testState]{
		Name: "flaky",
		Run: func(context.Context, *testState) error {
			calls++
			if calls == 1 {
				return fmt.Errorf("transient")
			}
			return nil
		},
		Save: func(s *testState) any { return s.value },
		Load: func(s *testState, snap any) { s.value = snap.(int) },
	})
	opts := RunOptions{Cache: cache, BaseKey: "k"}
	if _, err := p.Run(context.Background(), &testState{}, opts); err == nil {
		t.Fatal("want first run to fail")
	}
	ev, err := p.Run(context.Background(), &testState{}, opts)
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
	if ev[0].CacheHit {
		t.Fatal("failed computation must not be served as a hit")
	}
	if calls != 2 {
		t.Fatalf("calls = %d, want 2", calls)
	}
}

func TestConcurrentRunsSingleflightSnapshot(t *testing.T) {
	ran := 0
	cache := &Cache{}
	var mu sync.Mutex
	p := New("t", Stage[*testState]{
		Name: "slow",
		Run: func(_ context.Context, s *testState) error {
			mu.Lock()
			ran++
			mu.Unlock()
			s.value = 7
			return nil
		},
		Save: func(s *testState) any { return s.value },
		Load: func(s *testState, snap any) { s.value = snap.(int) },
	})
	var wg sync.WaitGroup
	states := make([]*testState, 8)
	for i := range states {
		states[i] = &testState{}
		wg.Add(1)
		go func(s *testState) {
			defer wg.Done()
			if _, err := p.Run(context.Background(), s, RunOptions{Cache: cache, BaseKey: "k"}); err != nil {
				t.Errorf("run: %v", err)
			}
		}(states[i])
	}
	wg.Wait()
	if ran != 1 {
		t.Fatalf("stage ran %d times across 8 concurrent runs, want 1", ran)
	}
	for _, s := range states {
		if s.value != 7 {
			t.Fatalf("value = %d, want 7", s.value)
		}
	}
}

func TestMetricsAggregateEvents(t *testing.T) {
	var mx Metrics
	mx.Observe(Event{Stage: "tile", Duration: 5})
	mx.Observe(Event{Stage: "tile", Duration: 3, CacheHit: true})
	mx.Observe(Event{Stage: "tile", Duration: 2, Err: "boom"})
	mx.Observe(Event{Stage: "search", Duration: 1})
	snap := mx.Snapshot()
	tile := snap["tile"]
	if tile.Runs != 3 || tile.CacheHits != 1 || tile.Errors != 1 || tile.Total != 10 {
		t.Fatalf("tile stats = %+v", tile)
	}
	if got := mx.StageNames(); len(got) != 2 || got[0] != "search" || got[1] != "tile" {
		t.Fatalf("StageNames = %v", got)
	}
}

func TestChainKeyDeterministicAndSensitive(t *testing.T) {
	a := ChainKey("base", "tile\x00opts1")
	b := ChainKey("base", "tile\x00opts1")
	if a != b {
		t.Fatal("ChainKey not deterministic")
	}
	if a == ChainKey("base", "tile\x00opts2") || a == ChainKey("other", "tile\x00opts1") {
		t.Fatal("ChainKey insensitive to inputs")
	}
}
