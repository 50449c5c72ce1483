// Package fleet is the failure-hardened peer protocol of the cache
// tier: a daemon configured with static peers asks them for
// content-addressed entries before recomputing, and offers its own
// freshly computed entries back. The protocol is two HTTP verbs —
// GET /v1/cas/{key} (200 with the payload and its checksum, 404 for a
// clean miss) and PUT /v1/cas/{key} — and every exchange is verified
// end to end with the entry's SHA-256.
//
// The failure envelope is strict graceful degradation: a peer that
// times out, partitions away, returns garbage, or dies mid-transfer
// costs at most one local recompute, never a failed request and never
// a wrong answer. Concretely:
//
//   - every peer sits behind its own circuit breaker (internal/breaker,
//     the same machine that quarantines the UFS driver), so a dead peer
//     is probed occasionally instead of timing out every request;
//   - lookups are deadline-bounded per attempt and hedged — when the
//     first peer has not answered within the hedge delay a second
//     attempt starts in parallel and the first answer wins;
//   - rounds retry with exponential backoff plus seeded jitter, bounded
//     by the caller's context; an authoritative 404 ends the lookup
//     early (the fleet does not have the entry — compute it);
//   - every payload is checksum-verified before use; a corrupt body is
//     a peer error, not a cache hit.
//
// Fills are asynchronous and best-effort: the computing daemon answers
// its client first and offers the entry to peers in the background.
// The injectable fault points "fleet.peer.timeout" and
// "fleet.peer.corrupt" simulate a hung peer and a corrupted transfer.
package fleet

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"polyufc/internal/breaker"
	"polyufc/internal/cas"
	"polyufc/internal/faults"
)

// The injectable fault points: a peer attempt that hangs past its
// deadline, and a transfer whose payload is corrupted on the wire.
const (
	FaultPeerTimeout = "fleet.peer.timeout"
	FaultPeerCorrupt = "fleet.peer.corrupt"
)

// HeaderSum is the HTTP header carrying an entry payload's hex SHA-256
// on both GET responses and PUT requests.
const HeaderSum = "X-Polyufc-Sum"

// MaxEntryBytes bounds a single cache entry on the wire (both accepted
// PUTs and fetched GET bodies).
const MaxEntryBytes = 64 << 20

// Options tunes the peer client.
type Options struct {
	// Peers are the base URLs of the static peer set, e.g.
	// "http://10.0.0.2:8080". An empty list disables the client.
	Peers []string
	// Timeout bounds one attempt against one peer (default 500ms).
	Timeout time.Duration
	// Hedge is how long the first attempt of a round runs alone before a
	// second peer is tried in parallel (default Timeout/4).
	Hedge time.Duration
	// Retries is how many extra rounds over the peer set a lookup makes
	// after the first all-error round (default 1). Rounds are separated
	// by exponential backoff with jitter, starting at Backoff (default
	// 25ms), all bounded by the caller's context.
	Retries int
	Backoff time.Duration
	// Breaker tunes the per-peer circuit breakers. Zero means
	// breaker.DefaultOptions.
	Breaker breaker.Options
	// Seed seeds the backoff jitter and the per-lookup peer rotation.
	Seed int64
	// Faults, when non-nil, arms the fleet fault points.
	Faults *faults.Registry
}

// Stats are the client's counters, shaped for /statsz.
type Stats struct {
	Peers      int   `json:"peers"`
	Lookups    int64 `json:"lookups"`
	PeerHits   int64 `json:"peer_hits"`
	PeerMisses int64 `json:"peer_misses"`
	// PeerErrors counts failed attempts (timeouts, bad status, corrupt
	// payloads); Rejected attempts the breakers fast-failed; Hedges the
	// parallel second attempts; Retries the backoff rounds taken.
	PeerErrors int64 `json:"peer_errors"`
	Rejected   int64 `json:"breaker_rejected"`
	Hedges     int64 `json:"hedges"`
	Retries    int64 `json:"retry_rounds"`
	// Fills counts successful background entry offers to peers.
	Fills      int64 `json:"fills"`
	FillErrors int64 `json:"fill_errors"`
	// BreakerState maps each peer URL to its breaker position.
	BreakerState map[string]string `json:"breaker_state,omitempty"`
}

type peer struct {
	base string
	brk  *breaker.Breaker
}

// Client is the peer-facing side of the cache tier. The zero of *Client
// (nil) is a disabled client: every method is a safe no-op.
type Client struct {
	opts  Options
	hc    *http.Client
	peers []*peer

	rngMu sync.Mutex
	rng   *rand.Rand

	lookups, hits, misses, errors atomic.Int64
	rejected, hedges, retries     atomic.Int64
	fills, fillErrors             atomic.Int64

	wg        sync.WaitGroup
	closeOnce sync.Once
	closed    chan struct{}
}

// New builds a client over a static peer set. An empty peer list
// returns nil — the disabled client.
func New(opts Options) *Client {
	if len(opts.Peers) == 0 {
		return nil
	}
	if opts.Timeout <= 0 {
		opts.Timeout = 500 * time.Millisecond
	}
	if opts.Hedge <= 0 {
		opts.Hedge = opts.Timeout / 4
	}
	if opts.Retries < 0 {
		opts.Retries = 0
	} else if opts.Retries == 0 {
		opts.Retries = 1
	}
	if opts.Backoff <= 0 {
		opts.Backoff = 25 * time.Millisecond
	}
	bopts := opts.Breaker
	if bopts.Threshold == 0 && bopts.Cooldown == 0 {
		bopts = breaker.DefaultOptions()
	}
	c := &Client{
		opts:   opts,
		hc:     &http.Client{},
		rng:    rand.New(rand.NewSource(opts.Seed)),
		closed: make(chan struct{}),
	}
	for _, base := range opts.Peers {
		c.peers = append(c.peers, &peer{base: base, brk: breaker.New(bopts)})
	}
	return c
}

// attemptResult is one peer's terminal answer inside a round.
type attemptResult struct {
	payload []byte
	found   bool
	miss    bool
}

// Lookup asks the fleet for an entry. It returns (payload, true) on a
// verified hit and (nil, false) on any other outcome — miss, timeout,
// partition, corruption, all breakers open — because the caller's
// contract is "recompute on false". It never returns an error.
func (c *Client) Lookup(ctx context.Context, key string) ([]byte, bool) {
	if c == nil || !cas.ValidKey(key) {
		return nil, false
	}
	c.lookups.Add(1)
	backoff := c.opts.Backoff
	for round := 0; round <= c.opts.Retries; round++ {
		if round > 0 {
			c.retries.Add(1)
			// Exponential backoff with jitter, bounded by the caller.
			c.rngMu.Lock()
			d := backoff + time.Duration(c.rng.Int63n(int64(backoff)+1))
			c.rngMu.Unlock()
			backoff *= 2
			t := time.NewTimer(d)
			select {
			case <-ctx.Done():
				t.Stop()
				c.misses.Add(1)
				return nil, false
			case <-t.C:
			}
		}
		payload, found, sawMiss := c.round(ctx, key)
		if found {
			c.hits.Add(1)
			return payload, true
		}
		// A healthy peer answered 404: the fleet does not have the entry.
		// Retrying buys nothing — go compute it.
		if sawMiss || ctx.Err() != nil {
			break
		}
	}
	c.misses.Add(1)
	return nil, false
}

// round tries the breaker-allowed peers once, hedged: the first attempt
// runs alone for the hedge delay, then a second starts in parallel; any
// terminal answer (error or miss) from a launched attempt also advances
// to the next peer immediately. The first verified hit wins.
func (c *Client) round(ctx context.Context, key string) (payload []byte, found, sawMiss bool) {
	var allowed []*peer
	for _, p := range c.rotation() {
		if p.brk.Allow() == nil {
			allowed = append(allowed, p)
		} else {
			c.rejected.Add(1)
		}
	}
	if len(allowed) == 0 {
		return nil, false, false
	}
	resc := make(chan attemptResult, len(allowed))
	next := 0
	launch := func() {
		p := allowed[next]
		next++
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			body, ok, err := c.attempt(ctx, p, key)
			p.brk.Record(err != nil)
			if err != nil {
				c.errors.Add(1)
				resc <- attemptResult{}
				return
			}
			resc <- attemptResult{payload: body, found: ok, miss: !ok}
		}()
	}
	launch()
	pending := 1
	hedge := time.NewTimer(c.opts.Hedge)
	defer hedge.Stop()
	for {
		select {
		case r := <-resc:
			pending--
			if r.found {
				return r.payload, true, sawMiss
			}
			if r.miss {
				sawMiss = true
			}
			if next < len(allowed) {
				launch()
				pending++
			} else if pending == 0 {
				return nil, false, sawMiss
			}
		case <-hedge.C:
			if next < len(allowed) && pending > 0 {
				c.hedges.Add(1)
				launch()
				pending++
			}
		case <-ctx.Done():
			return nil, false, sawMiss
		}
	}
}

// rotation returns the peers starting at a seeded-random offset, so
// lookups spread first-attempt load across the fleet.
func (c *Client) rotation() []*peer {
	if len(c.peers) == 1 {
		return c.peers
	}
	c.rngMu.Lock()
	off := c.rng.Intn(len(c.peers))
	c.rngMu.Unlock()
	out := make([]*peer, 0, len(c.peers))
	out = append(out, c.peers[off:]...)
	return append(out, c.peers[:off]...)
}

// attempt is one deadline-bounded GET against one peer. A 404 is a
// clean miss (nil error); anything else short of a verified payload is
// an error that feeds the peer's breaker.
func (c *Client) attempt(ctx context.Context, p *peer, key string) ([]byte, bool, error) {
	if ferr := c.opts.Faults.Hit(FaultPeerTimeout); ferr != nil {
		return nil, false, fmt.Errorf("fleet: %s: injected hang: %w", p.base, context.DeadlineExceeded)
	}
	actx, cancel := context.WithTimeout(ctx, c.opts.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(actx, http.MethodGet, p.base+"/v1/cas/"+key, nil)
	if err != nil {
		return nil, false, fmt.Errorf("fleet: %s: %w", p.base, err)
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, false, fmt.Errorf("fleet: %s: %w", p.base, err)
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	switch resp.StatusCode {
	case http.StatusNotFound:
		return nil, false, nil
	case http.StatusOK:
	default:
		return nil, false, fmt.Errorf("fleet: %s: status %d", p.base, resp.StatusCode)
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, MaxEntryBytes+1))
	if err != nil {
		return nil, false, fmt.Errorf("fleet: %s: read: %w", p.base, err)
	}
	if len(body) > MaxEntryBytes {
		return nil, false, fmt.Errorf("fleet: %s: entry exceeds %d bytes", p.base, MaxEntryBytes)
	}
	if ferr := c.opts.Faults.Hit(FaultPeerCorrupt); ferr != nil && len(body) > 0 {
		body = bytes.Clone(body)
		body[0] ^= 0xff // corrupted transfer: verification below must catch it
	}
	sum := resp.Header.Get(HeaderSum)
	if sum == "" {
		return nil, false, fmt.Errorf("fleet: %s: response missing %s", p.base, HeaderSum)
	}
	if cas.Sum(body) != sum {
		return nil, false, fmt.Errorf("fleet: %s: payload checksum mismatch", p.base)
	}
	return body, true, nil
}

// Fill offers an entry to every peer, asynchronously and best-effort:
// it returns immediately, the PUTs run in background goroutines (one
// per peer, each deadline-bounded), and failures only feed the peers'
// breakers — the local answer was already served. Fills started before
// Close are waited for by Close.
func (c *Client) Fill(key string, payload []byte) {
	if c == nil || !cas.ValidKey(key) {
		return
	}
	select {
	case <-c.closed:
		return
	default:
	}
	for _, p := range c.peers {
		if p.brk.Allow() != nil {
			c.rejected.Add(1)
			continue
		}
		c.wg.Add(1)
		go func(p *peer) {
			defer c.wg.Done()
			err := c.put(p, key, payload)
			p.brk.Record(err != nil)
			if err != nil {
				c.fillErrors.Add(1)
			} else {
				c.fills.Add(1)
			}
		}(p)
	}
}

// put is one deadline-bounded PUT of an entry to one peer.
func (c *Client) put(p *peer, key string, payload []byte) error {
	ctx, cancel := context.WithTimeout(context.Background(), c.opts.Timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPut, p.base+"/v1/cas/"+key, bytes.NewReader(payload))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	req.Header.Set(HeaderSum, cas.Sum(payload))
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusCreated &&
		resp.StatusCode != http.StatusNoContent {
		return fmt.Errorf("fleet: %s: fill status %d", p.base, resp.StatusCode)
	}
	return nil
}

// Stats snapshots the client's counters.
func (c *Client) Stats() Stats {
	if c == nil {
		return Stats{}
	}
	st := Stats{
		Peers:      len(c.peers),
		Lookups:    c.lookups.Load(),
		PeerHits:   c.hits.Load(),
		PeerMisses: c.misses.Load(),
		PeerErrors: c.errors.Load(),
		Rejected:   c.rejected.Load(),
		Hedges:     c.hedges.Load(),
		Retries:    c.retries.Load(),
		Fills:      c.fills.Load(),
		FillErrors: c.fillErrors.Load(),
	}
	st.BreakerState = map[string]string{}
	for _, p := range c.peers {
		st.BreakerState[p.base] = p.brk.State().String()
	}
	return st
}

// Close stops accepting new fills and waits for every in-flight
// background goroutine (bounded by their per-attempt deadlines), so a
// draining daemon leaks nothing. Idempotent.
func (c *Client) Close() {
	if c == nil {
		return
	}
	c.closeOnce.Do(func() { close(c.closed) })
	c.wg.Wait()
}
