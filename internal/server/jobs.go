package server

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"polyufc/internal/jobs"
	"polyufc/internal/platform"
	"polyufc/internal/roofline"
	"polyufc/internal/search"
	"polyufc/internal/tiling"
	"polyufc/internal/workloads"
)

// The job kinds the daemon executes. Sweep and characterize fan one
// request shape across many kernels, checkpointing each kernel as one
// journal unit; refit re-runs the roofline calibration against the live
// hardware and atomically swaps the backend's target — the drift
// watchdog enqueues these automatically.
const (
	JobSweep        jobs.Kind = "sweep"
	JobCharacterize jobs.Kind = "characterize"
	JobRefit        jobs.Kind = "refit"
)

// JobParams is the kind-specific parameter block of POST /v1/jobs.
// Sweep/characterize use Kernels (or Suite) plus the usual request
// knobs; refit uses Platform only.
type JobParams struct {
	Kernels   []string `json:"kernels,omitempty"`
	Suite     string   `json:"suite,omitempty"` // "", "all", "polybench", "ml"
	Platform  string   `json:"platform,omitempty"`
	Size      string   `json:"size,omitempty"`
	Objective string   `json:"objective,omitempty"`
	CapLevel  string   `json:"cap_level,omitempty"`
	Epsilon   float64  `json:"epsilon,omitempty"`
	// Measure also runs each swept kernel on the platform's machine
	// through the breaker — the path that feeds the drift watchdog.
	Measure bool `json:"measure,omitempty"`
	// Tiling is the tile-stage strategy spec ("pluto", "auto", ...; see
	// internal/tiling).
	Tiling string `json:"tiling,omitempty"`
}

// JobSubmitRequest is the POST /v1/jobs body.
type JobSubmitRequest struct {
	Kind string `json:"kind"`
	JobParams
}

// JobStatusResponse is the GET /v1/jobs/{id} payload. Result is
// included inline once the job is done; GET /v1/jobs/{id}/result serves
// the same bytes verbatim (no re-encoding) for byte-identity checks.
type JobStatusResponse struct {
	jobs.Status
	Result json.RawMessage `json:"result,omitempty"`
}

// JobListResponse is the GET /v1/jobs payload.
type JobListResponse struct {
	Jobs []jobs.Status `json:"jobs"`
}

// jobsEnabled guards the job endpoints on daemons started without
// -jobs-dir.
func (s *Server) jobsEnabled(w http.ResponseWriter) bool {
	if s.jobsMgr == nil {
		w.Header().Set("Retry-After", "30")
		writeJSON(w, http.StatusServiceUnavailable, errBody{"job tier disabled: start the daemon with -jobs-dir"})
		return false
	}
	return true
}

// expandKernels resolves the explicit kernel list or the named suite.
func expandKernels(p JobParams) ([]string, error) {
	if len(p.Kernels) > 0 {
		for _, k := range p.Kernels {
			if _, err := workloads.ByName(k); err != nil {
				return nil, err
			}
		}
		return p.Kernels, nil
	}
	var ks []workloads.Kernel
	switch p.Suite {
	case "", "all":
		ks = workloads.All()
	case "polybench":
		ks = workloads.PolyBench()
	case "ml":
		ks = workloads.ML()
	default:
		return nil, fmt.Errorf("unknown suite %q (want all, polybench or ml)", p.Suite)
	}
	names := make([]string, len(ks))
	for i, k := range ks {
		names[i] = k.Name
	}
	return names, nil
}

// request is the compute request one sweep or characterize unit resolves.
func (p JobParams) request(kernel string) Request {
	return Request{
		Kernel: kernel, Platform: p.Platform, Size: p.Size,
		Objective: p.Objective, CapLevel: p.CapLevel,
		Epsilon: p.Epsilon, Measure: p.Measure,
		Tiling: p.Tiling,
	}
}

// validateJob rejects malformed submissions synchronously (a 400 at
// submit time beats a failed job five minutes later).
func (s *Server) validateJob(kind jobs.Kind, p JobParams) error {
	switch kind {
	case JobSweep, JobCharacterize:
		kernels, err := expandKernels(p)
		if err != nil {
			return err
		}
		// Every unit resolves a request of the same shape, so one checks
		// them all, through the compute endpoints' own validator.
		_, err = s.resolve(p.request(kernels[0]))
		return err
	case JobRefit:
		if p.Platform == "" {
			return errors.New("refit requires a platform")
		}
	default:
		return fmt.Errorf("unknown job kind %q (want sweep, characterize or refit)", kind)
	}
	if _, err := s.servedTarget(p.Platform); err != nil {
		return err
	}
	if p.Objective != "" {
		if _, ok := search.ParseObjective(p.Objective); !ok {
			return fmt.Errorf("unknown objective %q", p.Objective)
		}
	}
	if _, err := tiling.ParseSpec(p.Tiling); err != nil {
		return err
	}
	return nil
}

func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	if !s.jobsEnabled(w) {
		return
	}
	// Unknown fields are rejected, as on the compute endpoints: a typo
	// ("kernel" for "kernels") must not widen the job to every kernel.
	var req JobSubmitRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, errBody{"bad request body: " + err.Error()})
		return
	}
	kind := jobs.Kind(req.Kind)
	if err := s.validateJob(kind, req.JobParams); err != nil {
		writeJSON(w, http.StatusBadRequest, errBody{err.Error()})
		return
	}
	st, err := s.jobsMgr.Submit(kind, req.JobParams)
	if err != nil {
		w.Header().Set("Retry-After", "5")
		writeJSON(w, http.StatusServiceUnavailable, errBody{err.Error()})
		return
	}
	writeJSON(w, http.StatusAccepted, st)
}

func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	if !s.jobsEnabled(w) {
		return
	}
	writeJSON(w, http.StatusOK, JobListResponse{Jobs: s.jobsMgr.List()})
}

// getJob resolves {id}, writing the 404 itself on a miss.
func (s *Server) getJob(w http.ResponseWriter, r *http.Request) *jobs.Job {
	jb, err := s.jobsMgr.Get(r.PathValue("id"))
	if err != nil {
		writeJSON(w, http.StatusNotFound, errBody{err.Error()})
		return nil
	}
	return jb
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	if !s.jobsEnabled(w) {
		return
	}
	jb := s.getJob(w, r)
	if jb == nil {
		return
	}
	resp := JobStatusResponse{Status: jb.Status()}
	if raw, ok := jb.Result(); ok {
		resp.Result = raw
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleJobResult serves the recorded result bytes VERBATIM — this is
// the byte-identity surface: a job resumed after kill -9 must produce
// exactly these bytes again.
func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	if !s.jobsEnabled(w) {
		return
	}
	jb := s.getJob(w, r)
	if jb == nil {
		return
	}
	raw, ok := jb.Result()
	if !ok {
		writeJSON(w, http.StatusConflict, JobStatusResponse{Status: jb.Status()})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	w.Write(raw)
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	if !s.jobsEnabled(w) {
		return
	}
	jb := s.getJob(w, r)
	if jb == nil {
		return
	}
	if err := s.jobsMgr.Cancel(jb.ID()); err != nil {
		writeJSON(w, http.StatusInternalServerError, errBody{err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, jb.Status())
}

// handleJobEvents streams a job's progress as Server-Sent Events: the
// retained backlog first (resumable via ?after= or Last-Event-ID), then
// live events until the job finishes, the client disconnects, or the
// daemon begins draining.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	if !s.jobsEnabled(w) {
		return
	}
	jb := s.getJob(w, r)
	if jb == nil {
		return
	}
	// The cursor is ?after= or else Last-Event-ID; one that is not a
	// sequence number is a 400, not a silent replay from the start.
	cursor := cmp.Or(r.URL.Query().Get("after"), r.Header.Get("Last-Event-ID"), "0")
	after, err := strconv.ParseInt(cursor, 10, 64)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errBody{fmt.Sprintf("bad event cursor %q (after= or Last-Event-ID): want a sequence number", cursor)})
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeJSON(w, http.StatusNotImplemented, errBody{"streaming unsupported by this connection"})
		return
	}
	backlog, live, cancel := jb.Subscribe(after)
	defer cancel()
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	emit := func(ev jobs.Event) {
		data, _ := json.Marshal(ev)
		fmt.Fprintf(w, "id: %d\nevent: %s\ndata: %s\n\n", ev.Seq, ev.Type, data)
	}
	for _, ev := range backlog {
		emit(ev)
	}
	fl.Flush()
	for {
		select {
		case ev, open := <-live:
			if !open {
				fmt.Fprint(w, ": stream closed\n\n")
				fl.Flush()
				return
			}
			emit(ev)
			fl.Flush()
		case <-r.Context().Done():
			return
		case <-s.shutdown:
			fmt.Fprint(w, ": server draining\n\n")
			fl.Flush()
			return
		}
	}
}

// --- Executors ---

// onDrift is the watchdog's degrade hook: claim the episode and enqueue
// a background re-fit job. Without a job tier the backend simply stays
// degraded (Strict refuses, BestEffort flags) until a restart
// re-calibrates.
func (s *Server) onDrift(backend string) {
	if s.jobsMgr == nil {
		return
	}
	if !s.drift.BeginRefit(backend) {
		return // a re-fit is already in flight
	}
	if _, err := s.jobsMgr.Submit(JobRefit, JobParams{Platform: backend}); err != nil {
		s.drift.CompleteRefit(backend, false)
	}
}

// executeJob dispatches one job to its kind's executor. It runs on a
// jobs worker goroutine.
func (s *Server) executeJob(jb *jobs.Job) (any, error) {
	var p JobParams
	if err := jb.Params(&p); err != nil {
		return nil, err
	}
	switch jb.Spec().Kind {
	case JobSweep:
		units, err := runUnits[SearchResponse](s, jb, p, s.searchAnswer)
		if err != nil {
			return nil, err
		}
		out := SweepJobResult{Kind: string(JobSweep), Objective: p.Objective, Kernels: units}
		if len(units) > 0 {
			out.Platform, out.Objective = units[0].Arch, units[0].Objective
		}
		return out, nil
	case JobCharacterize:
		units, err := runUnits[CharacterizeResponse](s, jb, p, s.characterizeAnswer)
		if err != nil {
			return nil, err
		}
		out := CharacterizeJobResult{Kind: string(JobCharacterize), Kernels: units}
		if len(units) > 0 {
			out.Platform = units[0].Arch
		}
		return out, nil
	case JobRefit:
		return s.runRefitJob(jb, p)
	}
	return nil, fmt.Errorf("server: unknown job kind %q", jb.Spec().Kind)
}

// SweepJobResult is a sweep job's recorded result.
type SweepJobResult struct {
	Kind      string           `json:"kind"`
	Platform  string           `json:"platform"`
	Objective string           `json:"objective"`
	Kernels   []SearchResponse `json:"kernels"`
}

// CharacterizeJobResult is a characterize job's recorded result.
type CharacterizeJobResult struct {
	Kind     string                 `json:"kind"`
	Platform string                 `json:"platform"`
	Kernels  []CharacterizeResponse `json:"kernels"`
}

// runUnits fans the job's request shape across its kernel list, one
// journal unit per kernel. A unit is exactly the answer the endpoint gives
// for p.request(kernel): answer is that endpoint's own path, so a unit
// passes the drift gate, is served from or fills the ladder, and counts as
// served. A resumed job replays finished units byte-identically from the
// job journal — not counted as served again — and answers only the rest.
func runUnits[T any](s *Server, jb *jobs.Job, p JobParams, answer func(context.Context, resolved) ([]byte, error)) ([]T, error) {
	kernels, err := expandKernels(p)
	if err != nil {
		return nil, err
	}
	jb.Total(len(kernels))
	jb.Log("sweep", fmt.Sprintf("%d kernels", len(kernels)))
	var units []T
	for _, kernel := range kernels {
		r, err := s.resolve(p.request(kernel))
		if err != nil {
			return nil, err
		}
		// The unit is keyed by the resolved request's compile identity, so
		// a job resumed by a daemon booted with another -tiling, after a
		// re-fit or over an edited size recomputes instead of replaying.
		u, _, err := jobs.Step(jb, "kernel/"+r.key.String(), func() (u T, err error) {
			body, err := answer(jb.Context(), r)
			if err == nil {
				err = json.Unmarshal(body, &u)
			}
			return u, err
		})
		if err != nil {
			return nil, err
		}
		units = append(units, u)
	}
	return units, nil
}

// RefitJobResult is a refit job's recorded result.
type RefitJobResult struct {
	Kind       string             `json:"kind"`
	Backend    string             `json:"backend"`
	OldCalHash string             `json:"old_cal_hash"`
	NewCalHash string             `json:"new_cal_hash"`
	Residuals  map[string]float64 `json:"residuals,omitempty"`
}

// runRefitJob re-runs the roofline calibration micro-benchmarks against
// the live (possibly drifted) hardware and atomically swaps the backend's
// target to the new fit. Until the swap lands, requests for the backend
// serve under the degrade policy (Strict refuses, BestEffort flags).
func (s *Server) runRefitJob(jb *jobs.Job, p JobParams) (any, error) {
	t, err := s.servedTarget(p.Platform)
	if err != nil {
		return nil, err
	}
	b := t.Backend
	// Claim (or, on a resumed job, re-claim) the refit episode so the
	// degrade gate reports "refitting" and no duplicate enqueues.
	s.drift.BeginRefit(b.Name)
	fail := func(err error) (any, error) {
		// Shutdown interruption is not a failed fit: leave the episode
		// for the resumed job (the in-memory tracker dies with us).
		if jb.Context().Err() == nil {
			s.drift.CompleteRefit(b.Name, false)
		}
		return nil, err
	}
	oldHash := t.Constants.Hash()
	jb.Log("refit", fmt.Sprintf("re-calibrating %s (stale cal %s)", b.Name, oldHash))
	cal, _, err := jobs.Step(jb, "calibrate", func() (platform.Calibration, error) {
		nt, err := roofline.Refit(t, s.cfg.Faults)
		if err != nil {
			return platform.Calibration{}, err
		}
		return *nt.Calibration, nil
	})
	if err != nil {
		return fail(err)
	}
	nt, err := roofline.FromCalibration(t.Backend, &cal)
	if err != nil {
		return fail(err)
	}
	s.swapTarget(b.Name, nt)
	s.storeCalibration(nt)
	s.drift.CompleteRefit(b.Name, true)
	newHash := nt.Constants.Hash()
	jb.Log("refit", fmt.Sprintf("constants swapped: %s -> %s", oldHash, newHash))
	return RefitJobResult{
		Kind: string(JobRefit), Backend: b.Name,
		OldCalHash: oldHash, NewCalHash: newHash,
		Residuals: cal.Provenance.Residuals,
	}, nil
}
