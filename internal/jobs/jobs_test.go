package jobs

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"polyufc/internal/journal"
)

// unitKeys returns the journal keys of a job's checkpointed units, with
// the job's unit prefix cut off.
func unitKeys(jb *Job) []string {
	var out []string
	for _, k := range jb.m.jnl.Keys() {
		if s, ok := strings.CutPrefix(k, unitPrefix(jb.spec.ID)); ok {
			out = append(out, s)
		}
	}
	return out
}

// sumExec is the test workload: N units, unit i worth i*i+0.5, summed.
// blockAt >= 0 makes that unit's compute hang until the job context is
// canceled — the stand-in for "the process died mid-unit".
func sumExec(blockAt int, computed *atomic.Int64) Executor {
	return func(jb *Job) (any, error) {
		var p struct{ N int }
		if err := jb.Params(&p); err != nil {
			return nil, err
		}
		jb.Total(p.N)
		jb.Log("sweep", "starting")
		sum := 0.0
		for i := 0; i < p.N; i++ {
			i := i
			v, _, err := Step(jb, fmt.Sprintf("u%02d", i), func() (float64, error) {
				computed.Add(1)
				if i == blockAt {
					<-jb.Context().Done()
					return 0, context.Cause(jb.Context())
				}
				return float64(i*i) + 0.5, nil
			})
			if err != nil {
				return nil, err
			}
			sum += v
		}
		return map[string]any{"kind": string(jb.Spec().Kind), "n": p.N, "sum": sum}, nil
	}
}

func waitState(t *testing.T, m *Manager, id string, want State) Status {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		jb, err := m.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if st := jb.Status(); st.State == want {
			return st
		}
		time.Sleep(2 * time.Millisecond)
	}
	jb, _ := m.Get(id)
	t.Fatalf("job %s never reached %s: %+v", id, want, jb.Status())
	return Status{}
}

func TestJobLifecycleResultAndEvents(t *testing.T) {
	var computed atomic.Int64
	m, err := Open(Options{Dir: t.TempDir(), Workers: 1}, sumExec(-1, &computed))
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	st, err := m.Submit("sweep", map[string]int{"N": 4})
	if err != nil {
		t.Fatal(err)
	}
	if st.ID != "j0001" || st.State != StateQueued {
		t.Fatalf("submit status: %+v", st)
	}
	jb, err := m.Get(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	backlog, live, cancel := jb.Subscribe(0)
	defer cancel()

	final := waitState(t, m, st.ID, StateDone)
	if final.UnitsDone != 4 || final.UnitsTotal != 4 || final.Error != "" {
		t.Fatalf("final status: %+v", final)
	}
	raw, ok := jb.Result()
	if !ok || !bytes.Contains(raw, []byte(`"sum":16`)) {
		t.Fatalf("result = %s (ok=%v)", raw, ok)
	}
	if computed.Load() != 4 {
		t.Fatalf("computed %d units, want 4", computed.Load())
	}

	// Collect the full stream: backlog plus live until close.
	events := backlog
	for ev := range live {
		events = append(events, ev)
	}
	var types []string
	lastSeq := int64(0)
	units := 0
	for _, ev := range events {
		if ev.Seq <= lastSeq {
			t.Fatalf("seq not monotonic: %+v after %d", ev, lastSeq)
		}
		lastSeq = ev.Seq
		if ev.Job != st.ID {
			t.Fatalf("foreign event: %+v", ev)
		}
		types = append(types, ev.Type)
		if ev.Type == EventUnit {
			units++
			if ev.Replayed {
				t.Fatalf("fresh run emitted replayed unit: %+v", ev)
			}
		}
	}
	if units != 4 || types[len(types)-1] != EventDone {
		t.Fatalf("event stream: %v", types)
	}

	// A late subscriber to the finished job gets the backlog and an
	// already-closed channel.
	lateBacklog, lateLive, lateCancel := jb.Subscribe(0)
	defer lateCancel()
	if len(lateBacklog) == 0 {
		t.Fatal("late subscriber got no backlog")
	}
	if _, open := <-lateLive; open {
		t.Fatal("late live channel not closed")
	}
	if err := m.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// The tentpole scenario: a job interrupted mid-unit resumes in a new
// manager, replays its checkpointed units without recomputing them, and
// finishes with result bytes identical to a never-interrupted run.
func TestJobResumeAfterInterruptIsByteIdentical(t *testing.T) {
	// Control: the same job, never interrupted, in a separate dir.
	var ctlComputed atomic.Int64
	ctl, err := Open(Options{Dir: t.TempDir(), Workers: 1}, sumExec(-1, &ctlComputed))
	if err != nil {
		t.Fatal(err)
	}
	ctl.Start()
	cst, err := ctl.Submit("sweep", map[string]int{"N": 6})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, ctl, cst.ID, StateDone)
	cjb, _ := ctl.Get(cst.ID)
	want, _ := cjb.Result()
	ctl.Close(context.Background())

	for _, tc := range []struct {
		name       string
		damage     string // unit whose journaled payload is overwritten with the wrong shape
		recomputed int64
	}{
		{"clean journal", "", 3},
		// A checkpointed unit that is valid JSON of the wrong shape — a
		// foreign or damaged line — is a miss: recomputed, not a failed job.
		{"wrong-shape unit", "u01", 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()

			// Run A: blocks inside unit 3 (units 0-2 checkpointed), then is torn
			// down with an already-expired context — the ErrShutdown interrupt
			// path, the in-process stand-in for kill -9.
			var aComputed atomic.Int64
			a, err := Open(Options{Dir: dir, Workers: 1}, sumExec(3, &aComputed))
			if err != nil {
				t.Fatal(err)
			}
			a.Start()
			ast, err := a.Submit("sweep", map[string]int{"N": 6})
			if err != nil {
				t.Fatal(err)
			}
			deadline := time.Now().Add(5 * time.Second)
			for {
				jb, _ := a.Get(ast.ID)
				if jb.Status().UnitsDone >= 3 && aComputed.Load() >= 4 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("job never reached unit 3: %+v", jb.Status())
				}
				time.Sleep(2 * time.Millisecond)
			}
			expired, cancel := context.WithCancel(context.Background())
			cancel()
			if err := a.Close(expired); err != nil {
				t.Fatal(err)
			}

			if tc.damage != "" {
				jnl, err := journal.Open(JournalPath(dir))
				if err != nil {
					t.Fatal(err)
				}
				if err := jnl.RecordBytes(unitKey(ast.ID, tc.damage), []byte(`["not", "a", "float"]`)); err != nil {
					t.Fatal(err)
				}
				jnl.Close()
			}

			// Run B: reopen the same dir. The job must come back queued with its
			// three units, resume, replay them (no recompute), and finish.
			var bComputed atomic.Int64
			b, err := Open(Options{Dir: dir, Workers: 1}, sumExec(-1, &bComputed))
			if err != nil {
				t.Fatal(err)
			}
			jb, err := b.Get(ast.ID)
			if err != nil {
				t.Fatal(err)
			}
			if st := jb.Status(); st.State != StateQueued || st.Resumed != 1 || st.UnitsDone != 3 {
				t.Fatalf("replayed status before Start: %+v", st)
			}
			b.Start()
			waitState(t, b, ast.ID, StateDone)
			got, ok := jb.Result()
			if !ok {
				t.Fatal("no result after resume")
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("resumed result differs:\n  resumed: %s\n  control: %s", got, want)
			}
			// Units 0-2 replayed from the journal (but for a damaged one); only
			// 3-5 recomputed.
			if bComputed.Load() != tc.recomputed {
				t.Fatalf("resume recomputed %d units, want %d", bComputed.Load(), tc.recomputed)
			}
			if keys := unitKeys(jb); len(keys) != 6 {
				t.Fatalf("unit keys after resume: %v", keys)
			}
			if err := b.Close(context.Background()); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestJobCancelRunningAndQueued(t *testing.T) {
	dir := t.TempDir()
	var computed atomic.Int64
	// One worker: the second job stays queued while the first blocks.
	m, err := Open(Options{Dir: dir, Workers: 1}, sumExec(0, &computed))
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	running, err := m.Submit("sweep", map[string]int{"N": 2})
	if err != nil {
		t.Fatal(err)
	}
	queued, err := m.Submit("sweep", map[string]int{"N": 2})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, running.ID, StateRunning)
	if err := m.Cancel(running.ID); err != nil {
		t.Fatal(err)
	}
	waitState(t, m, running.ID, StateCanceled)
	if err := m.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
	waitState(t, m, queued.ID, StateCanceled)
	if err := m.Close(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Cancellation is durable: both stay canceled across a reopen, and
	// neither re-runs.
	computed.Store(0)
	m2, err := Open(Options{Dir: dir, Workers: 1}, sumExec(-1, &computed))
	if err != nil {
		t.Fatal(err)
	}
	m2.Start()
	for _, id := range []string{running.ID, queued.ID} {
		jb, err := m2.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if st := jb.Status(); st.State != StateCanceled {
			t.Fatalf("%s after reopen: %+v", id, st)
		}
	}
	time.Sleep(10 * time.Millisecond)
	if computed.Load() != 0 {
		t.Fatalf("canceled job recomputed %d units", computed.Load())
	}
	// IDs keep counting past the replayed jobs.
	st, err := m2.Submit("sweep", map[string]int{"N": 1})
	if err != nil {
		t.Fatal(err)
	}
	if st.ID != "j0003" {
		t.Fatalf("post-restart ID = %s, want j0003", st.ID)
	}
	waitState(t, m2, st.ID, StateDone)
	if err := m2.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestJobFailureIsDurable(t *testing.T) {
	dir := t.TempDir()
	failing := func(jb *Job) (any, error) {
		return nil, fmt.Errorf("no such kernel %q", "nope")
	}
	m, err := Open(Options{Dir: dir, Workers: 1}, failing)
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	st, err := m.Submit("characterize", nil)
	if err != nil {
		t.Fatal(err)
	}
	got := waitState(t, m, st.ID, StateFailed)
	if got.Error == "" {
		t.Fatalf("failed without error: %+v", got)
	}
	m.Close(context.Background())

	m2, err := Open(Options{Dir: dir, Workers: 1}, failing)
	if err != nil {
		t.Fatal(err)
	}
	jb, err := m2.Get(st.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st := jb.Status(); st.State != StateFailed || st.Error != got.Error {
		t.Fatalf("failure not durable: %+v", st)
	}
	stats := m2.Stats()
	if stats.Jobs != 1 || stats.ByState[StateFailed] != 1 {
		t.Fatalf("stats: %+v", stats)
	}
	m2.Close(context.Background())
}

// Compaction: once enough terminal jobs accumulate, their unit history
// is pruned from the journal — while a live (interrupted) job in the
// same journal still resumes byte-identically afterwards.
func TestJobCompactionPrunesTerminalHistoryKeepsLiveResume(t *testing.T) {
	dir := t.TempDir()

	// Control result for the job that will be interrupted and resumed.
	var ctlComputed atomic.Int64
	ctl, err := Open(Options{Dir: t.TempDir(), Workers: 1}, sumExec(-1, &ctlComputed))
	if err != nil {
		t.Fatal(err)
	}
	ctl.Start()
	cst, err := ctl.Submit("sweep", map[string]int{"N": 6})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, ctl, cst.ID, StateDone)
	cjb, _ := ctl.Get(cst.ID)
	want, _ := cjb.Result()
	ctl.Close(context.Background())

	// Threshold 1: every terminal job's history is pruned as soon as it
	// finishes. Finish one job (4 units), then interrupt a second inside
	// unit 3.
	var computed atomic.Int64
	m, err := Open(Options{Dir: dir, Workers: 1, CompactThreshold: 1}, sumExec(-1, &computed))
	if err != nil {
		t.Fatal(err)
	}
	m.Start()
	done, err := m.Submit("sweep", map[string]int{"N": 4})
	if err != nil {
		t.Fatal(err)
	}
	waitState(t, m, done.ID, StateDone)
	djb, _ := m.Get(done.ID)
	doneResult, ok := djb.Result()
	if !ok {
		t.Fatal("no result for finished job")
	}
	// The finished job's unit records are gone from the journal...
	if keys := unitKeys(djb); len(keys) != 0 {
		t.Fatalf("terminal job unit keys survived compaction: %v", keys)
	}
	// ...but its spec and outcome are not.
	if st := djb.Status(); st.State != StateDone {
		t.Fatalf("finished job after compaction: %+v", st)
	}
	if m.Stats().Journal.Compactions == 0 {
		t.Fatal("no compaction recorded")
	}
	if err := m.Close(context.Background()); err != nil {
		t.Fatal(err)
	}

	// Second incarnation: interrupt a job mid-run so live records coexist
	// with the already-pruned terminal job.
	var liveComputed atomic.Int64
	m2, err := Open(Options{Dir: dir, Workers: 1, CompactThreshold: 1}, sumExec(3, &liveComputed))
	if err != nil {
		t.Fatal(err)
	}
	m2.Start()
	live, err := m2.Submit("sweep", map[string]int{"N": 6})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		jb, _ := m2.Get(live.ID)
		if jb.Status().UnitsDone >= 3 && liveComputed.Load() >= 4 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never reached unit 3: %+v", jb.Status())
		}
		time.Sleep(2 * time.Millisecond)
	}
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	if err := m2.Close(expired); err != nil {
		t.Fatal(err)
	}

	// Third incarnation: the open-time compaction sees the terminal job
	// and runs again (its ckpt/unit records were already gone; the live
	// job's records must survive). The live job replays its three units
	// without recomputing and finishes byte-identical to the control.
	var resumeComputed atomic.Int64
	m3, err := Open(Options{Dir: dir, Workers: 1, CompactThreshold: 1}, sumExec(-1, &resumeComputed))
	if err != nil {
		t.Fatal(err)
	}
	jb, err := m3.Get(live.ID)
	if err != nil {
		t.Fatal(err)
	}
	if st := jb.Status(); st.State != StateQueued || st.UnitsDone != 3 {
		t.Fatalf("live job before resume: %+v", st)
	}
	m3.Start()
	waitState(t, m3, live.ID, StateDone)
	got, ok := jb.Result()
	if !ok || !bytes.Equal(got, want) {
		t.Fatalf("resumed result differs after compaction:\n  resumed: %s\n  control: %s", got, want)
	}
	if resumeComputed.Load() != 3 {
		t.Fatalf("resume recomputed %d units, want 3", resumeComputed.Load())
	}
	// The first job's terminal outcome is still replayable.
	djb3, err := m3.Get(done.ID)
	if err != nil {
		t.Fatal(err)
	}
	if raw, ok := djb3.Result(); !ok || !bytes.Equal(raw, doneResult) {
		t.Fatalf("terminal result lost across compactions: %s", raw)
	}
	if err := m3.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
}

// A negative threshold disables compaction entirely; the default (0)
// keeps small histories untouched.
func TestJobCompactionDisabledAndBelowThreshold(t *testing.T) {
	for _, tc := range []struct {
		name      string
		threshold int
	}{
		{"disabled", -1},
		{"default-far-above", 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var computed atomic.Int64
			m, err := Open(Options{Dir: t.TempDir(), Workers: 1, CompactThreshold: tc.threshold}, sumExec(-1, &computed))
			if err != nil {
				t.Fatal(err)
			}
			m.Start()
			st, err := m.Submit("sweep", map[string]int{"N": 3})
			if err != nil {
				t.Fatal(err)
			}
			waitState(t, m, st.ID, StateDone)
			jb, _ := m.Get(st.ID)
			if keys := unitKeys(jb); len(keys) != 3 {
				t.Fatalf("unit keys pruned unexpectedly: %v", keys)
			}
			if n := m.Stats().Journal.Compactions; n != 0 {
				t.Fatalf("unexpected compactions: %d", n)
			}
			if err := m.Close(context.Background()); err != nil {
				t.Fatal(err)
			}
		})
	}
}
