// Package jobs is the crash-safe asynchronous job tier behind
// polyufc-serve: submitting a sweep, characterization or re-fit returns
// a durable job ID immediately; the work runs on a worker pool,
// streaming per-stage progress events to subscribers; the result is
// fetched after completion.
//
// Durability rides on internal/journal. The spec is fsynced before
// Submit returns, every completed unit of work checkpoints through
// Step, and the final result is recorded before the job is declared
// done — so a process killed at any point, including kill -9, loses at
// most the unit in flight. Reopening the same directory replays the
// journal: finished jobs come back with their recorded results
// (byte-identical — the stored bytes ARE the result), and unfinished
// jobs re-enqueue, skipping the units already checkpointed.
package jobs

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"polyufc/internal/journal"
)

// Kind names what a job computes. The executor switches on it; the jobs
// tier itself is kind-agnostic.
type Kind string

// State is a job's lifecycle position. The machine is
// queued -> running -> {done, failed, canceled}; a crash mid-running
// returns the job to queued on the next Open.
type State string

// Job lifecycle states.
const (
	StateQueued   State = "queued"
	StateRunning  State = "running"
	StateDone     State = "done"
	StateFailed   State = "failed"
	StateCanceled State = "canceled"
)

// Terminal reports whether no further transitions can happen.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// ErrShutdown is the cancellation cause Close installs on running jobs:
// an executor that returns it (or the context error it caused) leaves
// the job un-finalized in the journal, so the next Open resumes it.
var ErrShutdown = errors.New("jobs: shutting down")

// ErrNotFound is returned for unknown job IDs.
var ErrNotFound = errors.New("jobs: no such job")

// Spec is the durable submission record.
type Spec struct {
	ID   string `json:"id"`
	Kind Kind   `json:"kind"`
	// Params are the kind-specific arguments, stored verbatim.
	Params json.RawMessage `json:"params,omitempty"`
	// Submitted is the wall-clock submission time (RFC3339). It is
	// provenance, not an input: results must not depend on it.
	Submitted string `json:"submitted,omitempty"`
}

// outcome is the journaled terminal record of a job.
type outcome struct {
	State  State           `json:"state"`
	Error  string          `json:"error,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
}

// checkpointRecord is the graceful-shutdown marker for a running job.
type checkpointRecord struct {
	UnitsDone int    `json:"units_done"`
	At        string `json:"at,omitempty"`
}

// Status is one job's externally visible state.
type Status struct {
	ID    string `json:"id"`
	Kind  Kind   `json:"kind"`
	State State  `json:"state"`
	Error string `json:"error,omitempty"`
	// UnitsDone counts checkpointed units; UnitsTotal is the executor's
	// declared total (0 until it calls Total).
	UnitsDone  int `json:"units_done"`
	UnitsTotal int `json:"units_total,omitempty"`
	// Resumed counts how many times the job was re-enqueued by a
	// restart after an interrupted run.
	Resumed   int    `json:"resumed,omitempty"`
	Submitted string `json:"submitted,omitempty"`
}

// Executor runs one job. It is called from a worker goroutine with the
// Job handle for checkpointing (Step), progress (Emit, Total) and
// cancellation (Context). The returned value is marshalled and recorded
// as the job's result; an error fails the job — except ErrShutdown (or
// a context cancellation it caused), which leaves the job resumable.
type Executor func(jb *Job) (any, error)

// Options configures a Manager.
type Options struct {
	// Dir is the durable state directory; the journal lives at
	// Dir/jobs.journal.
	Dir string
	// Workers is the pool size (default 2).
	Workers int
	// CompactThreshold bounds the journal's dead weight: once that many
	// prunable records — the per-unit history and shutdown checkpoints of
	// jobs already in a terminal state — accumulate, the journal is
	// rewritten in place via the same atomic temp+rename the corruption
	// path uses. Specs, terminal outcomes and cancel markers are kept
	// forever, and every record of a live job is retained verbatim, so
	// resume stays byte-identical. 0 selects the default (512); negative
	// disables compaction.
	CompactThreshold int
}

// defaultCompactThreshold is the prunable-record count that triggers a
// jobs-journal compaction when Options.CompactThreshold is zero.
const defaultCompactThreshold = 512

// queueDepth bounds pending submissions: Submit fails when the queue is
// full rather than blocking an HTTP handler.
const queueDepth = 256

// Manager owns the journal, the job table and the worker pool.
type Manager struct {
	opts Options
	exec Executor
	jnl  *journal.Journal

	mu      sync.Mutex
	jobs    map[string]*Job
	order   []string
	seq     int
	started bool
	closed  bool

	queue chan *Job
	wg    sync.WaitGroup
}

// Job is one unit of managed work: the durable spec plus the live
// runtime handle the executor checkpoints through.
type Job struct {
	m    *Manager
	spec Spec

	ctx    context.Context
	cancel context.CancelCauseFunc

	mu         sync.Mutex
	state      State
	err        string
	result     json.RawMessage
	unitsDone  int
	unitsTotal int
	resumed    int

	events *ring
}

// JournalPath returns the journal file inside a jobs directory.
func JournalPath(dir string) string { return filepath.Join(dir, "jobs.journal") }

func specKey(id string) string    { return "job/" + id + "/spec" }
func doneKey(id string) string    { return "job/" + id + "/done" }
func cancelKey(id string) string  { return "job/" + id + "/cancel" }
func ckptKey(id string) string    { return "job/" + id + "/ckpt" }
func unitPrefix(id string) string { return "job/" + id + "/unit/" }
func unitKey(id, k string) string { return unitPrefix(id) + k }

// Open loads (or creates) the job tier rooted at opts.Dir, replaying the
// journal: terminal jobs come back with their recorded outcomes, and
// jobs that were queued or running when the last process died are
// re-enqueued to resume once Start is called.
func Open(opts Options, exec Executor) (*Manager, error) {
	if exec == nil {
		return nil, errors.New("jobs: nil executor")
	}
	if opts.Workers <= 0 {
		opts.Workers = 2
	}
	if opts.CompactThreshold == 0 {
		opts.CompactThreshold = defaultCompactThreshold
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("jobs: %w", err)
	}
	jnl, err := journal.Open(JournalPath(opts.Dir))
	if err != nil {
		return nil, fmt.Errorf("jobs: %w", err)
	}
	m := &Manager{
		opts:  opts,
		exec:  exec,
		jnl:   jnl,
		jobs:  map[string]*Job{},
		queue: make(chan *Job, queueDepth),
	}
	if err := m.replay(); err != nil {
		jnl.Close()
		return nil, err
	}
	// A long-lived directory may carry the unit history of many finished
	// jobs; prune it before appending resumes so the journal does not
	// grow without bound across restarts.
	if err := m.maybeCompact(); err != nil {
		jnl.Close()
		return nil, err
	}
	return m, nil
}

// replay rebuilds the job table from the journal's key order.
func (m *Manager) replay() error {
	units := map[string]int{}
	var canceled, finished []string
	for _, key := range m.jnl.Keys() {
		id, rest, ok := splitJobKey(key)
		if !ok {
			continue
		}
		switch {
		case rest == "spec":
			var spec Spec
			if _, err := m.jnl.Get(key, &spec); err != nil {
				return err
			}
			jb := m.newJob(spec)
			m.jobs[spec.ID] = jb
			m.order = append(m.order, spec.ID)
			if n := seqOf(spec.ID); n > m.seq {
				m.seq = n
			}
		case rest == "done":
			finished = append(finished, id)
		case rest == "cancel":
			canceled = append(canceled, id)
		case strings.HasPrefix(rest, "unit/"):
			units[id]++
		}
	}
	for _, id := range finished {
		jb := m.jobs[id]
		if jb == nil {
			continue
		}
		var out outcome
		if _, err := m.jnl.Get(doneKey(id), &out); err != nil {
			return err
		}
		jb.state, jb.err, jb.result = out.State, out.Error, out.Result
	}
	for _, id := range canceled {
		if jb := m.jobs[id]; jb != nil && !jb.state.Terminal() {
			jb.state = StateCanceled
		}
	}
	for _, id := range m.order {
		jb := m.jobs[id]
		jb.unitsDone = units[id]
		if !jb.state.Terminal() {
			// Interrupted by the crash (or shutdown): resume.
			jb.state = StateQueued
			jb.resumed++
		}
	}
	return nil
}

// prunableKey reports whether a job-key suffix is replay-irrelevant once
// the job is terminal: the per-unit checkpoints and the shutdown marker.
// The spec, the terminal outcome and the cancel marker ARE the job and
// are never pruned.
func prunableKey(rest string) bool {
	return rest == "ckpt" || strings.HasPrefix(rest, "unit/")
}

// maybeCompact prunes the unit history of terminal jobs once it exceeds
// the configured threshold, rewriting the journal through the atomic
// temp+rename path. Every record of a non-terminal job is retained with
// its journaled bytes verbatim, so a live job interrupted before, during
// or after the compaction still resumes byte-identically. Terminal jobs
// keep their spec and outcome (ID, state, error and result all survive);
// only their per-unit progress counts are forgotten by later replays.
func (m *Manager) maybeCompact() error {
	m.mu.Lock()
	threshold := m.opts.CompactThreshold
	terminal := map[string]bool{}
	for id, jb := range m.jobs {
		jb.mu.Lock()
		if jb.state.Terminal() {
			terminal[id] = true
		}
		jb.mu.Unlock()
	}
	m.mu.Unlock()
	if threshold < 0 {
		return nil
	}
	prunable := 0
	for _, key := range m.jnl.Keys() {
		if id, rest, ok := splitJobKey(key); ok && terminal[id] && prunableKey(rest) {
			prunable++
		}
	}
	if prunable < threshold {
		return nil
	}
	// A job finalizing between the snapshot and the rewrite is simply not
	// in the terminal set: its records are kept and pruned by a later
	// pass. The journal's own lock orders this rewrite against concurrent
	// Step records.
	_, err := m.jnl.CompactRetain(func(key string) bool {
		id, rest, ok := splitJobKey(key)
		return !ok || !terminal[id] || !prunableKey(rest)
	})
	return err
}

// splitJobKey parses "job/<id>/<rest>".
func splitJobKey(key string) (id, rest string, ok bool) {
	s, ok := strings.CutPrefix(key, "job/")
	if !ok {
		return "", "", false
	}
	i := strings.IndexByte(s, '/')
	if i < 0 {
		return "", "", false
	}
	return s[:i], s[i+1:], true
}

// seqOf extracts the numeric suffix of a "j<NNNN>" id (0 if foreign).
func seqOf(id string) int {
	s, ok := strings.CutPrefix(id, "j")
	if !ok {
		return 0
	}
	n, err := strconv.Atoi(s)
	if err != nil {
		return 0
	}
	return n
}

func (m *Manager) newJob(spec Spec) *Job {
	jb := &Job{m: m, spec: spec, state: StateQueued, events: newRing(eventRingCap)}
	jb.ctx, jb.cancel = context.WithCancelCause(context.Background())
	return jb
}

// Start launches the worker pool and re-enqueues every resumable job in
// submission order. It is called once, after the caller has finished
// wiring (executors often need the caller fully constructed).
func (m *Manager) Start() {
	m.mu.Lock()
	if m.started || m.closed {
		m.mu.Unlock()
		return
	}
	m.started = true
	var pending []*Job
	for _, id := range m.order {
		if jb := m.jobs[id]; jb.state == StateQueued {
			pending = append(pending, jb)
		}
	}
	m.mu.Unlock()
	for i := 0; i < m.opts.Workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	for _, jb := range pending {
		select {
		case m.queue <- jb:
			jb.emit(Event{Type: EventResumed})
		default:
			// Queue smaller than the backlog: the job stays queued in the
			// table and a later Submit's slot will not pick it up — refuse
			// loudly rather than lose it silently.
			jb.finalize(StateFailed, nil, errors.New("jobs: resume queue overflow"))
		}
	}
}

// Submit records a new job durably and enqueues it. The returned status
// is the moment-of-submission snapshot; the ID is stable across
// restarts.
func (m *Manager) Submit(kind Kind, params any) (Status, error) {
	raw, err := json.Marshal(params)
	if err != nil {
		return Status{}, fmt.Errorf("jobs: marshal params: %w", err)
	}
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return Status{}, ErrShutdown
	}
	m.seq++
	spec := Spec{
		ID:        fmt.Sprintf("j%04d", m.seq),
		Kind:      kind,
		Params:    raw,
		Submitted: time.Now().UTC().Format(time.RFC3339),
	}
	jb := m.newJob(spec)
	m.jobs[spec.ID] = jb
	m.order = append(m.order, spec.ID)
	m.mu.Unlock()

	// Durable before visible: the spec is fsynced before the caller
	// learns the ID, so an ID returned is an ID that survives kill -9.
	if err := m.jnl.Record(specKey(spec.ID), spec); err != nil {
		m.mu.Lock()
		delete(m.jobs, spec.ID)
		m.order = m.order[:len(m.order)-1]
		m.mu.Unlock()
		return Status{}, err
	}
	// Snapshot the status before the hand-off: once queued, a worker may
	// start the job before Submit returns, and the caller is told what it
	// submitted (queued), not how far the job has got since.
	st := jb.Status()
	select {
	case m.queue <- jb:
	default:
		jb.finalize(StateFailed, nil, errors.New("jobs: queue full"))
		return jb.Status(), errors.New("jobs: queue full")
	}
	jb.emit(Event{Type: EventSubmitted})
	return st, nil
}

// Get returns a job by ID.
func (m *Manager) Get(id string) (*Job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	jb := m.jobs[id]
	if jb == nil {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	return jb, nil
}

// List returns every job's status in submission order.
func (m *Manager) List() []Status {
	m.mu.Lock()
	ids := append([]string(nil), m.order...)
	m.mu.Unlock()
	out := make([]Status, 0, len(ids))
	for _, id := range ids {
		if jb, err := m.Get(id); err == nil {
			out = append(out, jb.Status())
		}
	}
	return out
}

// Cancel requests cancellation: durable first (so a crash between the
// request and the worker noticing still cancels on resume), then the
// running executor's context is canceled.
func (m *Manager) Cancel(id string) error {
	jb, err := m.Get(id)
	if err != nil {
		return err
	}
	jb.mu.Lock()
	terminal := jb.state.Terminal()
	jb.mu.Unlock()
	if terminal {
		return nil
	}
	if err := m.jnl.Record(cancelKey(id), struct{}{}); err != nil {
		return err
	}
	jb.cancel(context.Canceled)
	// A queued job has no worker to observe the context; finalize it
	// here. (A running one is finalized by its worker.)
	jb.mu.Lock()
	queued := jb.state == StateQueued
	jb.mu.Unlock()
	if queued {
		jb.finalize(StateCanceled, nil, nil)
		_ = m.maybeCompact()
	}
	return nil
}

// Stats is the tier-level counter snapshot for /statsz.
type Stats struct {
	Jobs    int           `json:"jobs"`
	ByState map[State]int `json:"by_state"`
	Journal journal.Stats `json:"journal"`
}

// Stats snapshots the job table and journal counters.
func (m *Manager) Stats() Stats {
	st := Stats{ByState: map[State]int{}, Journal: m.jnl.Stats()}
	for _, s := range m.List() {
		st.Jobs++
		st.ByState[s.State]++
	}
	return st
}

func (m *Manager) worker() {
	defer m.wg.Done()
	for jb := range m.queue {
		m.run(jb)
	}
}

func (m *Manager) run(jb *Job) {
	jb.mu.Lock()
	if jb.state.Terminal() {
		jb.mu.Unlock()
		return
	}
	jb.state = StateRunning
	jb.mu.Unlock()
	jb.emit(Event{Type: EventStarted})

	// A cancel journaled while we were queued (possibly by a previous
	// process) wins before any work runs.
	if m.jnl.Has(cancelKey(jb.spec.ID)) {
		jb.cancel(context.Canceled)
		jb.finalize(StateCanceled, nil, nil)
		return
	}

	result, err := m.exec(jb)
	switch {
	case err == nil:
		raw, merr := json.Marshal(result)
		if merr != nil {
			jb.finalize(StateFailed, nil, fmt.Errorf("jobs: marshal result: %w", merr))
			return
		}
		jb.finalize(StateDone, raw, nil)
	case errors.Is(err, ErrShutdown) || errors.Is(context.Cause(jb.ctx), ErrShutdown):
		// Interrupted, not failed: no terminal record, so the next Open
		// re-enqueues the job with its checkpointed units intact.
		jb.checkpoint()
		jb.emit(Event{Type: EventCheckpoint, Done: jb.Status().UnitsDone})
	case errors.Is(err, context.Canceled) || errors.Is(context.Cause(jb.ctx), context.Canceled):
		jb.finalize(StateCanceled, nil, nil)
	default:
		jb.finalize(StateFailed, nil, err)
	}
	// Terminal jobs retire their unit history once enough accumulates;
	// failure here is non-fatal (the records are merely kept longer).
	if jb.Status().State.Terminal() {
		_ = m.maybeCompact()
	}
}

// Close drains the tier: no new submissions, running executors are
// interrupted with ErrShutdown once ctx expires (immediately if ctx is
// already done), finished workers checkpoint their jobs, and the
// journal is closed. In-flight jobs that did not finish within the
// grace period resume on the next Open.
func (m *Manager) Close(ctx context.Context) error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	started := m.started
	var running []*Job
	for _, jb := range m.jobs {
		jb.mu.Lock()
		if jb.state == StateRunning {
			running = append(running, jb)
		}
		jb.mu.Unlock()
	}
	m.mu.Unlock()

	close(m.queue)
	if started {
		done := make(chan struct{})
		go func() { m.wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-ctx.Done():
			// Grace period over: interrupt the executors and wait for
			// them to unwind through their current Step.
			for _, jb := range running {
				jb.cancel(ErrShutdown)
			}
			<-done
		}
	}
	// Queued-but-never-run jobs stay queued in the journal (no terminal
	// record) and will resume next Open.
	return m.jnl.Close()
}

// --- Job runtime surface (what executors use) ---

// ID returns the durable job ID.
func (jb *Job) ID() string { return jb.spec.ID }

// Spec returns the durable submission record.
func (jb *Job) Spec() Spec { return jb.spec }

// Context carries the job's cancellation: user Cancel or shutdown.
func (jb *Job) Context() context.Context { return jb.ctx }

// Params unmarshals the spec's parameters into out.
func (jb *Job) Params(out any) error {
	if len(jb.spec.Params) == 0 {
		return nil
	}
	return json.Unmarshal(jb.spec.Params, out)
}

// Step checkpoints one unit of a job's work through journal.Step (a
// function, not a method, because it is generic over the unit's type): a
// unit already in the journal — recorded by this run or a previous
// incarnation of the process — replays without calling compute, even on
// a canceled job; otherwise compute runs, its value is fsynced, and the
// value returned is the one decoded FROM THE JOURNALED BYTES, so fresh
// and replayed runs observe the exact same value. A journaled payload
// that does not decode as T is a miss and is recomputed, never a failed
// job. Reports whether the unit was replayed.
func Step[T any](jb *Job, key string, compute func() (T, error)) (T, bool, error) {
	v, replayed, err := journal.Step(jb.m.jnl, unitKey(jb.spec.ID, key), func() (T, error) {
		if jb.ctx.Err() != nil {
			var zero T
			return zero, context.Cause(jb.ctx)
		}
		return compute()
	})
	if err != nil {
		return v, false, err
	}
	jb.bumpUnits()
	jb.emit(Event{Type: EventUnit, Unit: key, Replayed: replayed})
	return v, replayed, nil
}

// Total declares how many units the job will Step through, for progress
// reporting.
func (jb *Job) Total(n int) {
	jb.mu.Lock()
	jb.unitsTotal = n
	jb.mu.Unlock()
	jb.emit(Event{Type: EventProgress, Done: jb.Status().UnitsDone, Total: n})
}

// Log emits a free-form progress event (stage transitions, notes).
func (jb *Job) Log(stage, msg string) {
	jb.emit(Event{Type: EventStage, Stage: stage, Msg: msg})
}

func (jb *Job) bumpUnits() {
	jb.mu.Lock()
	jb.unitsDone++
	jb.mu.Unlock()
}

// Status snapshots the job.
func (jb *Job) Status() Status {
	jb.mu.Lock()
	defer jb.mu.Unlock()
	return Status{
		ID: jb.spec.ID, Kind: jb.spec.Kind, State: jb.state,
		Error: jb.err, UnitsDone: jb.unitsDone, UnitsTotal: jb.unitsTotal,
		Resumed: jb.resumed, Submitted: jb.spec.Submitted,
	}
}

// Result returns the recorded result bytes; ok reports a finished
// (done) job.
func (jb *Job) Result() (json.RawMessage, bool) {
	jb.mu.Lock()
	defer jb.mu.Unlock()
	return jb.result, jb.state == StateDone
}

// finalize records the terminal outcome durably, updates the table and
// closes the event stream. A journal write failure on a successful job
// downgrades it to failed: claiming "done" without a durable result
// would break the resume contract.
func (jb *Job) finalize(state State, result json.RawMessage, cause error) {
	out := outcome{State: state, Result: result}
	if cause != nil {
		out.Error = cause.Error()
	}
	if err := jb.m.jnl.Record(doneKey(jb.spec.ID), out); err != nil && state == StateDone {
		out = outcome{State: StateFailed, Error: err.Error()}
		// Best effort: the process may be dying with the disk.
		jb.m.jnl.Record(doneKey(jb.spec.ID), out)
	}
	jb.mu.Lock()
	jb.state, jb.err, jb.result = out.State, out.Error, out.Result
	jb.mu.Unlock()
	typ := EventDone
	switch out.State {
	case StateFailed:
		typ = EventFailed
	case StateCanceled:
		typ = EventCanceled
	}
	jb.emit(Event{Type: typ, Msg: out.Error})
	jb.events.close()
}

// checkpoint records the shutdown marker for a still-running job. The
// units themselves are already journaled; this marker is observability
// (how far the interrupted run got, and when).
func (jb *Job) checkpoint() {
	st := jb.Status()
	jb.m.jnl.Record(ckptKey(jb.spec.ID), checkpointRecord{
		UnitsDone: st.UnitsDone,
		At:        time.Now().UTC().Format(time.RFC3339),
	})
}

func (jb *Job) emit(ev Event) {
	ev.Job = jb.spec.ID
	jb.events.emit(ev)
}

// Subscribe returns the backlog of events after seq plus a live channel
// (closed when the job reaches a terminal state). Cancel releases the
// subscription.
func (jb *Job) Subscribe(afterSeq int64) (backlog []Event, live <-chan Event, cancel func()) {
	return jb.events.subscribe(afterSeq)
}
