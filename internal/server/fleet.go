package server

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"

	"polyufc/internal/cas"
	"polyufc/internal/fleet"
	"polyufc/internal/platform"
	"polyufc/internal/roofline"
)

// This file is the daemon's side of the fleet cache tier: the warm-start
// path reusing persisted calibration artifacts at boot, and the HTTP
// surface peers fetch and fill entries through. The response ladder and
// every artifact address live in ladder.go.

// warmCalibration tries to boot a backend from a persisted calibration
// artifact instead of re-running the micro-benchmarks. Any failure —
// no entry, undecodable payload, artifact/backend mismatch — is not ok,
// and the caller calibrates from scratch.
func (s *Server) warmCalibration(b *platform.Backend) (*roofline.Target, bool) {
	payload, ok := s.casStore.Get(calibrationAddr(b.Hash()))
	if !ok {
		return nil, false
	}
	var cal platform.Calibration
	if err := json.Unmarshal(payload, &cal); err != nil {
		return nil, false
	}
	t, err := roofline.FromCalibration(b, &cal)
	return t, err == nil
}

// storeCalibration persists a resolved target's calibration artifact so
// the next boot (local or a peer's) warm-starts from it.
func (s *Server) storeCalibration(t *roofline.Target) {
	if s.casStore == nil {
		return
	}
	payload, err := json.Marshal(t.Calibration)
	if err != nil {
		return
	}
	s.persist(calibrationAddr(t.Backend.Hash()), payload)
}

// handleCASGet serves one verified entry to a peer. Like the
// observability endpoints it bypasses the admission gate: cache fills
// must not compete with compute for slots. A miss — or a daemon with no
// store — is a 404, the protocol's clean "compute it yourself".
func (s *Server) handleCASGet(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if !cas.ValidKey(key) {
		writeJSON(w, http.StatusBadRequest, errBody{"invalid cas key"})
		return
	}
	payload, ok := s.casStore.Get(key)
	if !ok {
		writeJSON(w, http.StatusNotFound, errBody{"no such entry"})
		return
	}
	w.Header().Set(fleet.HeaderSum, cas.Sum(payload))
	w.Header().Set("Content-Type", "application/octet-stream")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(payload)
}

// handleCASPut accepts a peer's cache fill: size-bounded, checksum-
// verified against the X-Polyufc-Sum header, stored crash-safely. A
// daemon running without a store refuses with 503 + Retry-After (the
// peer's breaker backs off).
func (s *Server) handleCASPut(w http.ResponseWriter, r *http.Request) {
	key := r.PathValue("key")
	if !cas.ValidKey(key) {
		writeJSON(w, http.StatusBadRequest, errBody{"invalid cas key"})
		return
	}
	if s.casStore == nil {
		w.Header().Set("Retry-After", "30")
		writeJSON(w, http.StatusServiceUnavailable, errBody{"cache tier disabled: start the daemon with -cas-dir"})
		return
	}
	body := http.MaxBytesReader(w, r.Body, fleet.MaxEntryBytes)
	payload, err := io.ReadAll(body)
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeJSON(w, http.StatusRequestEntityTooLarge, errBody{err.Error()})
			return
		}
		writeJSON(w, http.StatusBadRequest, errBody{"read body: " + err.Error()})
		return
	}
	if sum := r.Header.Get(fleet.HeaderSum); sum != "" && cas.Sum(payload) != sum {
		writeJSON(w, http.StatusBadRequest, errBody{"payload checksum mismatch"})
		return
	}
	if err := s.casStore.Put(key, payload); err != nil {
		writeJSON(w, http.StatusInternalServerError, errBody{err.Error()})
		return
	}
	w.WriteHeader(http.StatusNoContent)
}
