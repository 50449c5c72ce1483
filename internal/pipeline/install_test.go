package pipeline

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"
)

// loggedStage is a memoizable stage over testState that counts itself into
// value and logs every run and load in s.trace ("run x", "load x"). The
// snapshot is the value alone, so a load's effect is visible in value and
// its occurrence in trace.
func loggedStage(name string) Stage[*testState] {
	return Stage[*testState]{
		Name: name,
		Run: func(_ context.Context, s *testState) error {
			s.trace = append(s.trace, "run "+name)
			s.value++
			return nil
		},
		Save: func(s *testState) any { return s.value },
		Load: func(s *testState, snap any) {
			s.trace = append(s.trace, "load "+name)
			s.value = snap.(int)
		},
	}
}

// hitFlags renders the events as "name" / "name*" (a cache hit).
func hitFlags(events []Event) string {
	var out []string
	for _, e := range events {
		if e.CacheHit {
			out = append(out, e.Stage+"*")
		} else {
			out = append(out, e.Stage)
		}
	}
	return strings.Join(out, ",")
}

// A chain of hits installs the deepest hit's snapshot once: before the
// next stage that runs, or at the end of the run.
func TestChainOfHitsLoadsOnce(t *testing.T) {
	plain := Stage[*testState]{Name: "p", Run: func(_ context.Context, s *testState) error {
		s.trace = append(s.trace, "run p")
		s.value++
		return nil
	}}
	cases := []struct {
		stages    []Stage[*testState]
		until     string
		wantTrace string
		wantHits  string
	}{
		{[]Stage[*testState]{loggedStage("a"), loggedStage("b"), loggedStage("c"), plain}, "",
			"load c,run p", "a*,b*,c*,p"},
		{[]Stage[*testState]{loggedStage("a"), loggedStage("b"), loggedStage("c"), plain}, "b",
			"load b", "a*,b*"},
		{[]Stage[*testState]{loggedStage("a"), loggedStage("b"), plain, loggedStage("c"), loggedStage("d")}, "",
			"load b,run p,load d", "a*,b*,p,c*,d*"},
	}
	for _, tc := range cases {
		cache := &Cache{}
		p := New("t", tc.stages...)
		want := &testState{}
		if _, err := p.Run(context.Background(), want, RunOptions{Until: tc.until}); err != nil {
			t.Fatal(err)
		}
		if _, err := p.Run(context.Background(), &testState{}, RunOptions{Cache: cache, BaseKey: "k"}); err != nil {
			t.Fatal(err)
		}
		s := &testState{}
		var observed []Event
		events, err := p.Run(context.Background(), s, RunOptions{Cache: cache, BaseKey: "k", Until: tc.until,
			Observe: func(e Event) { observed = append(observed, e) }})
		if err != nil {
			t.Fatal(err)
		}
		if got := strings.Join(s.trace, ","); got != tc.wantTrace {
			t.Errorf("%s: calls = %s, want %s", hitFlags(events), got, tc.wantTrace)
		}
		if got := hitFlags(events); got != tc.wantHits {
			t.Errorf("events = %s, want %s", got, tc.wantHits)
		}
		if !reflect.DeepEqual(observed, events) {
			t.Errorf("%s: observed %+v, returned %+v", tc.wantHits, observed, events)
		}
		if s.value != want.value {
			t.Errorf("%s: value = %d, want %d (the memo-off run's)", tc.wantHits, s.value, want.value)
		}
	}
}

// The deferred load is timed into the event of the stage whose snapshot
// it installed, not into the next stage's, and no event is observed
// before its duration is final: the durations still add up to the run.
func TestDeferredLoadTimedOnInstalledStage(t *testing.T) {
	const loadTime = 100 * time.Millisecond
	slow := loggedStage("b")
	load := slow.Load
	slow.Load = func(s *testState, snap any) {
		time.Sleep(loadTime)
		load(s, snap)
	}
	p := New("t", loggedStage("a"), slow, traceStage("c"))
	cache := &Cache{}
	if _, err := p.Run(context.Background(), &testState{}, RunOptions{Cache: cache, BaseKey: "k"}); err != nil {
		t.Fatal(err)
	}
	var observed []Event
	start := time.Now()
	events, err := p.Run(context.Background(), &testState{}, RunOptions{Cache: cache, BaseKey: "k",
		Observe: func(e Event) { observed = append(observed, e) }})
	wall := time.Since(start)
	if err != nil {
		t.Fatal(err)
	}
	if got := hitFlags(events); got != "a*,b*,c" {
		t.Fatalf("events = %s, want a*,b*,c", got)
	}
	if !reflect.DeepEqual(observed, events) {
		t.Fatalf("observed %+v, returned %+v", observed, events)
	}
	if events[1].Duration < loadTime {
		t.Errorf("b's event took %v, want at least its %v load", events[1].Duration, loadTime)
	}
	if events[0].Duration >= loadTime || events[2].Duration >= loadTime {
		t.Errorf("the load leaked into another event: %+v", events)
	}
	var sum time.Duration
	for _, e := range events {
		sum += e.Duration
	}
	if sum < loadTime || sum > wall {
		t.Errorf("events sum to %v, want between %v and the run's %v", sum, loadTime, wall)
	}
}

// A run cancelled while it waits on another run's computation of the
// stage after a hit installs nothing, and still reports the hit.
func TestCancelledRunInstallsNothing(t *testing.T) {
	started, release := make(chan struct{}), make(chan struct{})
	var onSalt func()
	b := loggedStage("b")
	run := b.Run
	b.Run = func(ctx context.Context, s *testState) error {
		close(started)
		<-release
		return run(ctx, s)
	}
	b.Salt = func(*testState) string {
		if onSalt != nil {
			onSalt()
		}
		return ""
	}
	p := New("t", loggedStage("a"), b)
	cache := &Cache{}
	if _, err := p.Run(context.Background(), &testState{}, RunOptions{Cache: cache, BaseKey: "k", Until: "a"}); err != nil {
		t.Fatal(err)
	}
	computing := &testState{}
	done := make(chan error)
	go func() {
		_, err := p.Run(context.Background(), computing, RunOptions{Cache: cache, BaseKey: "k"})
		done <- err
	}()
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	onSalt = cancel // the run reaches b's lookup with its context cancelled
	s := &testState{}
	var observed []Event
	events, err := p.Run(ctx, s, RunOptions{Cache: cache, BaseKey: "k",
		Observe: func(e Event) { observed = append(observed, e) }})
	close(release)
	if werr := <-done; werr != nil {
		t.Fatal(werr)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(s.trace) != 0 {
		t.Fatalf("cancelled run touched its state: %v", s.trace)
	}
	if len(events) != 2 || !events[0].CacheHit || events[1].Err == "" {
		t.Fatalf("events = %+v, want a's hit and b's cancellation", events)
	}
	if !reflect.DeepEqual(observed, events) {
		t.Fatalf("observed %+v, returned %+v", observed, events)
	}
	if got := strings.Join(computing.trace, ","); got != "load a,run b" {
		t.Fatalf("computing run's calls = %s, want load a,run b", got)
	}
}

// fuzzCall is one state-touching call of a fuzzed run: a stage's Run or
// a snapshot's Load.
type fuzzCall struct {
	load  bool
	stage int
}

// fuzzState is the state of a fuzzed run: the indices of the stages that
// ran, in order, and the calls the run made. Every snapshot holds the
// whole history.
type fuzzState struct {
	hist   []int
	calls  []fuzzCall
	cancel context.CancelFunc
}

// Stage kinds of a fuzzed pipeline.
const (
	fuzzPlain  = iota // no Save/Load: always runs
	fuzzMemo          // memoizable, not in the cache beforehand
	fuzzPrimed        // memoizable, its snapshot primed
)

// Stop modes of a fuzzed run: how it ends at its stop stage.
const (
	stopBefore = iota // its context is cancelled at the check before the stage
	stopCancel        // the stage (a plain one) cancels its context as it runs
	stopFail          // the stage (a plain one) fails
)

var errFuzzStop = errors.New("stop stage failed")

// fuzzPipeline builds stage i of the given kind; in modes stopCancel and
// stopFail, stage stop ends the run as it runs.
func fuzzPipeline(kinds []int, memo func(kind int) bool, stop, mode int) *Pipeline[*fuzzState] {
	stages := make([]Stage[*fuzzState], len(kinds))
	for i, kind := range kinds {
		i := i
		stages[i] = Stage[*fuzzState]{
			Name: fmt.Sprintf("s%d", i),
			Run: func(_ context.Context, s *fuzzState) error {
				s.calls = append(s.calls, fuzzCall{stage: i})
				s.hist = append(s.hist, i)
				switch {
				case i != stop:
				case mode == stopFail:
					return errFuzzStop
				case mode == stopCancel:
					s.cancel()
				}
				return nil
			},
		}
		if memo(kind) {
			stages[i].Save = func(s *fuzzState) any { return append([]int(nil), s.hist...) }
			stages[i].Load = func(s *fuzzState, snap any) {
				s.calls = append(s.calls, fuzzCall{load: true, stage: i})
				s.hist = append([]int(nil), snap.([]int)...)
			}
		}
	}
	return New("fuzz", stages...)
}

// checkCtx is a context that cancels itself at its n-th Err call: Run
// checks the context once before each stage, so n = k+1 cancels the run
// at the check before stage k, whether or not the stages before it hit.
type checkCtx struct {
	context.Context
	cancel context.CancelFunc
	n      int
}

func (c *checkCtx) Err() error {
	if c.n--; c.n == 0 {
		c.cancel()
	}
	return c.Context.Err()
}

// FuzzRunAgainstColdRun draws a stage list of plain and memoizable stages
// (raw, one byte a stage), a primed subset of the memoizable ones, an
// Until (0: none) and a stop stage (0: none) with a stop mode: the run is
// cancelled before the stop stage, or the stop stage (made plain) cancels
// the run or fails as it runs. The run over the primed cache must end like
// the same run with the memo off — same error, same event names, and on
// success the same state — and its loads must be the deferred ones: each
// the deepest hit of its chain of hits, never two without a stage run
// between them, and none after the last stage run of a run that returns
// an error.
func FuzzRunAgainstColdRun(f *testing.F) {
	f.Add([]byte{2, 2, 2, 0}, uint8(0), uint8(0), uint8(0))
	f.Add([]byte{2, 2, 0, 2, 1}, uint8(0), uint8(0), uint8(0))
	f.Add([]byte{2, 1, 2, 2, 0, 2}, uint8(4), uint8(0), uint8(0))
	f.Add([]byte{2, 2, 0, 2, 2, 0}, uint8(0), uint8(3), uint8(stopCancel))
	f.Add([]byte{2, 2, 0, 2, 2, 0}, uint8(0), uint8(6), uint8(stopFail))
	f.Add([]byte{2, 2, 0, 2, 2, 1}, uint8(0), uint8(3), uint8(stopBefore))
	f.Add([]byte{2, 2, 2, 2, 0}, uint8(0), uint8(4), uint8(stopBefore))
	f.Add([]byte{1, 2, 2, 0, 2}, uint8(3), uint8(4), uint8(stopCancel))
	f.Fuzz(func(t *testing.T, raw []byte, until, stop, mode uint8) {
		if len(raw) == 0 || len(raw) > 12 {
			return
		}
		n := len(raw)
		stopAt, stopMode := int(stop)%(n+1)-1, int(mode)%3
		kinds := make([]int, n)
		for i, b := range raw {
			kinds[i] = int(b) % 3
		}
		if stopAt >= 0 && stopMode != stopBefore {
			kinds[stopAt] = fuzzPlain
		}
		opts := RunOptions{}
		if u := int(until) % (n + 1); u > 0 {
			opts.Until = fmt.Sprintf("s%d", u-1)
		}

		cache := &Cache{}
		primer := fuzzPipeline(kinds, func(k int) bool { return k == fuzzPrimed }, -1, 0)
		if _, err := primer.Run(context.Background(), &fuzzState{}, RunOptions{Cache: cache, BaseKey: "k"}); err != nil {
			t.Fatal(err)
		}
		p := fuzzPipeline(kinds, func(k int) bool { return k != fuzzPlain }, stopAt, stopMode)
		run := func(o RunOptions) (*fuzzState, []Event, error) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			checks := 0
			if stopMode == stopBefore {
				checks = stopAt + 1
			}
			s := &fuzzState{cancel: cancel}
			events, err := p.Run(&checkCtx{ctx, cancel, checks}, s, o)
			return s, events, err
		}
		cold, coldEvents, coldErr := run(opts)
		observed := []Event{} // Run returns a non-nil slice
		opts.Cache, opts.BaseKey = cache, "k"
		opts.Observe = func(e Event) { observed = append(observed, e) }
		s, events, err := run(opts)

		if (err == nil) != (coldErr == nil) || errors.Is(err, context.Canceled) != errors.Is(coldErr, context.Canceled) {
			t.Fatalf("err = %v, memo off %v", err, coldErr)
		}
		names := func(evs []Event) []string {
			var out []string
			for _, e := range evs {
				out = append(out, e.Stage)
			}
			return out
		}
		if !reflect.DeepEqual(names(events), names(coldEvents)) {
			t.Fatalf("events %v, memo off %v", names(events), names(coldEvents))
		}
		if err == nil && !reflect.DeepEqual(s.hist, cold.hist) {
			t.Fatalf("state %v, memo off %v", s.hist, cold.hist)
		}
		if !reflect.DeepEqual(observed, events) {
			t.Fatalf("observed %+v, returned %+v", observed, events)
		}
		for i, e := range events {
			if e.CacheHit != (kinds[i] == fuzzPrimed) {
				t.Fatalf("stage %d (kind %d): hit = %v", i, kinds[i], e.CacheHit)
			}
		}
		for i, c := range s.calls {
			if !c.load {
				continue
			}
			if k := c.stage; !events[k].CacheHit || (k+1 < len(events) && events[k+1].CacheHit) {
				t.Fatalf("loaded s%d, not the deepest hit of its chain: %s", k, hitFlags(events))
			}
			if i+1 < len(s.calls) && s.calls[i+1].load {
				t.Fatalf("two loads without a stage run between them: %+v", s.calls)
			}
			if i+1 == len(s.calls) && err != nil {
				t.Fatalf("run ending in %v loaded s%d for nothing", err, c.stage)
			}
		}
	})
}
