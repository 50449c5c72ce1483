package server

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"strings"

	"polyufc/internal/core"
	"polyufc/internal/parallel"
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
// request: the endpoint plus core.KeyOf's wire form, so a re-fit or an
// edited description recomputes instead of replaying.
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

// rung is one persistent tier of the ladder reduced to bytes under a
// response key. strict is the one policy bit that differs between tiers:
// whether its refusing a freshly computed answer fails the request.
type rung struct {
	get    func(ctx context.Context, key string) ([]byte, bool)
	put    func(key string, payload []byte) error
	strict bool
}

// rungs is the persistent tiers, top-down.
type rungs []rung

// fill puts the answering bytes into every rung of l, top-down. Every put
// is best-effort — the answer is already in hand — except a strict rung's
// when the bytes were just computed: that failure stops the walk, so an
// answer that will not be served is not published either.
func (l rungs) fill(key string, payload []byte, computed bool) error {
	for _, rg := range l {
		if err := rg.put(key, payload); err != nil && computed && rg.strict {
			return err
		}
	}
	return nil
}

// ladder is the tiers a deterministic response is looked up in before it
// is computed. The top rung is in memory: a memo of canonical compact
// bytes — json.Marshal of a response this process computed or decoded —
// bounded by Config.CacheLimit, whose singleflight also makes concurrent
// identical requests compute once. The persistent tiers sit below it.
type ladder struct {
	memory parallel.Memo[string, []byte]
	below  rungs
}

// buildRungs bounds the memory rung and lists the configured persistent
// tiers under it top-down, once at boot: the response journal, the local
// CAS, the peer fleet. Only the journal is strict — its fsynced append is
// the kill-9-resume contract, so a computed answer that could not be
// journaled is not served.
func (s *Server) buildRungs() {
	s.ladder.memory.SetLimit(s.cfg.CacheLimit)
	if j := s.jrnl; j != nil {
		s.ladder.below = append(s.ladder.below, rung{
			get:    func(_ context.Context, key string) ([]byte, bool) { return j.Bytes(key) },
			put:    j.RecordBytes,
			strict: true,
		})
	}
	if st := s.casStore; st != nil {
		s.ladder.below = append(s.ladder.below, rung{
			get: func(_ context.Context, key string) ([]byte, bool) { return st.Get(responseAddr(key)) },
			put: func(key string, payload []byte) error { return st.Put(responseAddr(key), payload) },
		})
	}
	if fc := s.fleetCli; fc != nil {
		s.ladder.below = append(s.ladder.below, rung{
			get: func(ctx context.Context, key string) ([]byte, bool) { return fc.Lookup(ctx, responseAddr(key)) },
			put: func(key string, payload []byte) error { fc.Fill(responseAddr(key), payload); return nil },
		})
	}
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

// answer is one deterministic response as the ladder serves it: the
// canonical compact bytes, and the value they encode when this request
// computed or decoded it (nil on a memory-rung hit).
type answer[T any] struct {
	bytes []byte
	val   *T
}

// value returns the response the answer encodes, decoding its bytes only
// when this request did not compute or decode it already.
func (a answer[T]) value() (T, error) {
	if a.val != nil {
		return *a.val, nil
	}
	var out T
	err := json.Unmarshal(a.bytes, &out)
	return out, err
}

// cached serves one deterministic response of type T through the ladder.
// A memory-rung hit is its stored bytes, neither decoded nor marshalled.
// A miss walks the persistent rungs top-down inside the memory rung's
// singleflight (walk); what they answer or the compute returns is stored
// in memory as json.Marshal of the T. Armed faults bypass every rung.
func cached[T any](ctx context.Context, s *Server, key string, compute func() (T, error)) (answer[T], error) {
	var a answer[T]
	if !s.cacheable() {
		v, err := compute()
		if err != nil {
			return a, err
		}
		a.val = &v
		a.bytes, err = json.Marshal(v)
		return a, err
	}
	var err error
	a.bytes, err = s.ladder.memory.Do(ctx, key, func() ([]byte, error) {
		v, payload, err := walk(ctx, s.ladder.below, key, compute)
		if err != nil {
			return nil, err
		}
		a.val = &v
		return payload, nil
	})
	return a, err
}

// walk answers one response from the persistent rungs or the compute and
// returns it with its json.Marshal bytes. A rung answers when it holds
// bytes under key that decode as a T — a missing entry, a dead tier and a
// payload of the wrong shape are all the same miss, and every attempt
// decodes into a fresh T so a failed one leaves nothing behind. Below the
// last rung the response is computed and marshalled once. The answering
// bytes then back-fill every rung above the one that answered, verbatim
// and top-down, so the next boot (or peer) is served higher up and a
// damaged entry is overwritten. Each rung degrades strictly — never a
// failed request — with the one exception rung.strict names.
func walk[T any](ctx context.Context, l rungs, key string, compute func() (T, error)) (T, []byte, error) {
	for i, rg := range l {
		if payload, ok := rg.get(ctx, key); ok {
			var out T
			if json.Unmarshal(payload, &out) == nil {
				_ = l[:i].fill(key, payload, false)
				canonical, err := json.Marshal(out)
				return out, canonical, err
			}
		}
	}
	out, err := compute()
	if err != nil {
		return out, nil, err
	}
	payload, err := json.Marshal(out)
	if err != nil {
		return out, nil, err
	}
	return out, payload, l.fill(key, payload, true)
}
