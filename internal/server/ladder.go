package server

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"strings"

	"polyufc/internal/core"
)

// This file is the degradation ladder serving deterministic responses —
// the tiers a request tries before it computes — and the one home of
// every address an artifact is stored under: the response journal's keys
// and the content addresses of responses and calibrations in the CAS and
// on peers. The bytes of these addresses are pinned by the
// parent-written fixtures under testdata/parent-state.

// casKey derives the content address of an artifact from its identity
// parts: the full hex SHA-256 of the NUL-joined parts, which is also a
// valid cas key and URL segment. Only the per-kind constructors below
// call it.
func casKey(parts ...string) string {
	sum := sha256.Sum256([]byte(strings.Join(parts, "\x00")))
	return hex.EncodeToString(sum[:])
}

// responseKey is the journal key of one endpoint's answer to a resolved
// request: the endpoint plus core.KeyOf's wire form, so a re-fit
// recomputes instead of replaying.
func responseKey(endpoint string, key core.CacheKey) string {
	return endpoint + "/" + key.String()
}

// responseAddr addresses that answer in the CAS and on peers.
func responseAddr(responseKey string) string { return casKey("response", responseKey) }

// calibrationAddr addresses a backend description's fitted calibration.
func calibrationAddr(backendHash string) string { return casKey("calibration", backendHash) }

// persist stores an artifact in the local CAS and offers it to the fleet,
// both best-effort: the next boot (here or on a peer) warm-starts from it.
func (s *Server) persist(addr string, payload []byte) {
	_ = s.casStore.Put(addr, payload)
	s.fleetCli.Fill(addr, payload)
}

// rung is one tier of the ladder reduced to bytes under a response key.
// strict is the one policy bit that differs between tiers: whether its
// refusing a freshly computed answer fails the request.
type rung struct {
	get    func(ctx context.Context, key string) ([]byte, bool)
	put    func(key string, payload []byte) error
	strict bool
}

// ladder is the configured tiers, top-down.
type ladder []rung

// fill puts the answering bytes into every rung of l, top-down. Every put
// is best-effort — the answer is already in hand — except a strict rung's
// when the bytes were just computed: that failure stops the walk, so an
// answer that will not be served is not published either.
func (l ladder) fill(key string, payload []byte, computed bool) error {
	for _, rg := range l {
		if err := rg.put(key, payload); err != nil && computed && rg.strict {
			return err
		}
	}
	return nil
}

// buildRungs lists the configured tiers top-down, once at boot: the
// response journal, the local CAS, the peer fleet. Only the journal is
// strict — its fsynced append is the kill-9-resume contract, so a
// computed answer that could not be journaled is not served.
func (s *Server) buildRungs() ladder {
	var rungs ladder
	if j := s.jrnl; j != nil {
		rungs = append(rungs, rung{
			get:    func(_ context.Context, key string) ([]byte, bool) { return j.Bytes(key) },
			put:    j.RecordBytes,
			strict: true,
		})
	}
	if st := s.casStore; st != nil {
		rungs = append(rungs, rung{
			get: func(_ context.Context, key string) ([]byte, bool) { return st.Get(responseAddr(key)) },
			put: func(key string, payload []byte) error { return st.Put(responseAddr(key), payload) },
		})
	}
	if fc := s.fleetCli; fc != nil {
		rungs = append(rungs, rung{
			get: func(ctx context.Context, key string) ([]byte, bool) { return fc.Lookup(ctx, responseAddr(key)) },
			put: func(key string, payload []byte) error { fc.Fill(responseAddr(key), payload); return nil },
		})
	}
	return rungs
}

// cacheable reports whether deterministic-response caching is live.
// Armed fault points outside the fleet/cas namespaces disarm it —
// injected compute outcomes are call-ordered, not deterministic, so
// caching one would replay a single injection across requests. Fleet
// and cas faults are exactly what the cache tier exists to absorb, so
// they leave caching on.
func (s *Server) cacheable() bool {
	if s.cfg.Faults == nil {
		return true
	}
	for _, p := range s.cfg.Faults.Points() {
		if !strings.HasPrefix(p, "fleet.") && !strings.HasPrefix(p, "cas.") {
			return false
		}
	}
	return true
}

// cached serves one deterministic response of type T through the ladder.
// Rungs are tried top-down; a rung answers when it holds bytes under key
// that decode as a T — a missing entry, a dead tier and a payload of the
// wrong shape are all the same miss, and every attempt decodes into a
// fresh T so a failed one leaves nothing behind. Below the last rung the
// response is computed and marshalled once. The answering bytes then
// back-fill every rung above the one that answered, top-down, so the next
// request (or boot, or peer) is served higher up and a damaged entry is
// overwritten. Each rung degrades strictly — never a failed request —
// with the one exception rung.strict names.
func cached[T any](ctx context.Context, s *Server, key string, compute func() (T, error)) (T, error) {
	if len(s.rungs) == 0 || !s.cacheable() {
		return compute()
	}
	for i, rg := range s.rungs {
		if payload, ok := rg.get(ctx, key); ok {
			var out T
			if json.Unmarshal(payload, &out) == nil {
				_ = s.rungs[:i].fill(key, payload, false)
				return out, nil
			}
		}
	}
	out, err := compute()
	if err != nil {
		return out, err
	}
	payload, err := json.Marshal(out)
	if err != nil {
		return out, err
	}
	return out, s.rungs.fill(key, payload, true)
}
