package fleet

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"polyufc/internal/breaker"
	"polyufc/internal/cas"
	"polyufc/internal/faults"
	"polyufc/internal/leakcheck"
)

func TestMain(m *testing.M) { leakcheck.Main(m) }

// fakePeer is an in-memory CAS speaking the peer protocol.
type fakePeer struct {
	mu      sync.Mutex
	entries map[string][]byte
	gets    atomic.Int64
	puts    atomic.Int64
	srv     *httptest.Server
}

func newFakePeer(t *testing.T) *fakePeer {
	t.Helper()
	p := &fakePeer{entries: map[string][]byte{}}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/cas/{key}", func(w http.ResponseWriter, r *http.Request) {
		p.gets.Add(1)
		p.mu.Lock()
		payload, ok := p.entries[r.PathValue("key")]
		p.mu.Unlock()
		if !ok {
			http.NotFound(w, r)
			return
		}
		w.Header().Set(HeaderSum, cas.Sum(payload))
		w.Write(payload)
	})
	mux.HandleFunc("PUT /v1/cas/{key}", func(w http.ResponseWriter, r *http.Request) {
		p.puts.Add(1)
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(r.Body); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		p.mu.Lock()
		p.entries[r.PathValue("key")] = buf.Bytes()
		p.mu.Unlock()
		w.WriteHeader(http.StatusNoContent)
	})
	p.srv = httptest.NewServer(mux)
	t.Cleanup(p.srv.Close)
	return p
}

func (p *fakePeer) set(key string, payload []byte) {
	p.mu.Lock()
	p.entries[key] = payload
	p.mu.Unlock()
}

func testOpts(peers ...*fakePeer) Options {
	urls := make([]string, len(peers))
	for i, p := range peers {
		urls[i] = p.srv.URL
	}
	return Options{
		Peers:   urls,
		Timeout: 2 * time.Second,
		Hedge:   20 * time.Millisecond,
		Backoff: time.Millisecond,
		Seed:    1,
	}
}

func TestLookupHitAndMiss(t *testing.T) {
	p := newFakePeer(t)
	key := cas.Sum([]byte("k"))
	payload := []byte("the cached artifact")
	p.set(key, payload)
	c := New(testOpts(p))
	defer c.Close()

	got, ok := c.Lookup(context.Background(), key)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("Lookup = %q, %v", got, ok)
	}
	if _, ok := c.Lookup(context.Background(), cas.Sum([]byte("absent"))); ok {
		t.Fatal("Lookup of absent key reported a hit")
	}
	st := c.Stats()
	if st.PeerHits != 1 || st.PeerMisses != 1 || st.Retries != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestLookupInvalidKeyAndNilClient(t *testing.T) {
	var nilc *Client
	if _, ok := nilc.Lookup(context.Background(), cas.Sum(nil)); ok {
		t.Fatal("nil client hit")
	}
	nilc.Fill(cas.Sum(nil), nil)
	nilc.Close()
	if New(Options{}) != nil {
		t.Fatal("New with no peers should return the nil (disabled) client")
	}
	p := newFakePeer(t)
	c := New(testOpts(p))
	defer c.Close()
	if _, ok := c.Lookup(context.Background(), "../../etc/passwd"); ok {
		t.Fatal("invalid key hit")
	}
	if p.gets.Load() != 0 {
		t.Fatal("invalid key reached the wire")
	}
}

func TestFillPropagatesToAllPeers(t *testing.T) {
	a, b := newFakePeer(t), newFakePeer(t)
	key := cas.Sum([]byte("fill"))
	payload := []byte("filled entry")
	c := New(testOpts(a, b))
	c.Fill(key, payload)
	c.Close() // waits for the background PUTs

	for i, p := range []*fakePeer{a, b} {
		p.mu.Lock()
		got, ok := p.entries[key]
		p.mu.Unlock()
		if !ok || !bytes.Equal(got, payload) {
			t.Fatalf("peer %d entry = %q, %v", i, got, ok)
		}
	}
	if st := c.Stats(); st.Fills != 2 || st.FillErrors != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestFillAfterCloseIsNoop(t *testing.T) {
	p := newFakePeer(t)
	c := New(testOpts(p))
	c.Close()
	c.Fill(cas.Sum([]byte("late")), []byte("late"))
	time.Sleep(10 * time.Millisecond)
	if n := p.puts.Load(); n != 0 {
		t.Fatalf("%d PUTs after Close", n)
	}
}

func TestLookupFallsThroughDeadPeer(t *testing.T) {
	dead := newFakePeer(t)
	live := newFakePeer(t)
	key := cas.Sum([]byte("k"))
	payload := []byte("survives the partition")
	live.set(key, payload)
	opts := testOpts(dead, live)
	dead.srv.Close() // connection refused from now on
	c := New(opts)
	defer c.Close()

	// Every lookup must succeed regardless of which peer the rotation
	// tries first.
	for i := 0; i < 6; i++ {
		got, ok := c.Lookup(context.Background(), key)
		if !ok || !bytes.Equal(got, payload) {
			t.Fatalf("lookup %d = %q, %v", i, got, ok)
		}
	}
	if st := c.Stats(); st.PeerHits != 6 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestBreakerQuarantinesDeadPeer(t *testing.T) {
	dead := newFakePeer(t)
	opts := testOpts(dead)
	opts.Breaker = breaker.Options{Threshold: 3, Cooldown: time.Hour}
	opts.Retries = 0
	dead.srv.Close()
	c := New(opts)
	defer c.Close()

	key := cas.Sum([]byte("k"))
	for i := 0; i < 5; i++ {
		if _, ok := c.Lookup(context.Background(), key); ok {
			t.Fatal("dead peer hit")
		}
	}
	st := c.Stats()
	if st.BreakerState[dead.srv.URL] != "open" {
		t.Fatalf("breaker = %v, want open", st.BreakerState)
	}
	// Once open, lookups fast-fail without touching the wire.
	if st.PeerErrors != 3 {
		t.Fatalf("PeerErrors = %d, want exactly the trip threshold", st.PeerErrors)
	}
	if st.Rejected == 0 {
		t.Fatalf("stats = %+v, want breaker rejections", st)
	}
}

func TestHedgedLookupWinsOverSlowPeer(t *testing.T) {
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select { // hold the request until the client gives up
		case <-r.Context().Done():
		case <-time.After(5 * time.Second):
		}
		http.NotFound(w, r)
	}))
	defer slow.Close()
	fast := newFakePeer(t)
	key := cas.Sum([]byte("k"))
	payload := []byte("served by the hedge")
	fast.set(key, payload)

	opts := Options{
		Peers:   []string{slow.URL, fast.srv.URL},
		Timeout: 3 * time.Second,
		Hedge:   10 * time.Millisecond,
		Backoff: time.Millisecond,
		Seed:    1,
	}
	c := New(opts)
	defer c.Close()

	// Run enough lookups that the rotation starts on the slow peer at
	// least once; each must still answer quickly via the hedge.
	start := time.Now()
	for i := 0; i < 6; i++ {
		got, ok := c.Lookup(context.Background(), key)
		if !ok || !bytes.Equal(got, payload) {
			t.Fatalf("lookup %d = %q, %v", i, got, ok)
		}
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("hedged lookups took %v — hedge did not fire", d)
	}
	if st := c.Stats(); st.Hedges == 0 {
		t.Fatalf("stats = %+v, want hedged attempts", st)
	}
}

func TestInjectedTimeoutFault(t *testing.T) {
	p := newFakePeer(t)
	key := cas.Sum([]byte("k"))
	p.set(key, []byte("payload"))
	reg := faults.New(1)
	reg.Enable(FaultPeerTimeout, faults.Spec{P: 1})
	opts := testOpts(p)
	opts.Faults = reg
	opts.Retries = 1
	c := New(opts)
	defer c.Close()

	if _, ok := c.Lookup(context.Background(), key); ok {
		t.Fatal("lookup hit through a 100% timeout fault")
	}
	st := c.Stats()
	if st.PeerErrors == 0 || st.Retries == 0 {
		t.Fatalf("stats = %+v, want errors and retry rounds", st)
	}
	if p.gets.Load() != 0 {
		t.Fatal("injected timeout still reached the wire")
	}

	// Disarming the fault (a spec with no trigger never fires) restores
	// service once the breaker reprobes.
	reg.Enable(FaultPeerTimeout, faults.Spec{})
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, ok := c.Lookup(context.Background(), key); ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("client never recovered after fault disarmed")
		}
		time.Sleep(50 * time.Millisecond)
	}
}

func TestInjectedCorruptFault(t *testing.T) {
	p := newFakePeer(t)
	key := cas.Sum([]byte("k"))
	payload := []byte("payload")
	p.set(key, payload)
	reg := faults.New(1)
	reg.Enable(FaultPeerCorrupt, faults.Spec{On: []int64{1}})
	opts := testOpts(p)
	opts.Retries = 1
	opts.Faults = reg
	c := New(opts)
	defer c.Close()

	// First attempt's payload is corrupted in flight: checksum
	// verification must reject it, and the retry round serves clean.
	got, ok := c.Lookup(context.Background(), key)
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("lookup = %q, %v", got, ok)
	}
	if st := c.Stats(); st.PeerErrors != 1 {
		t.Fatalf("stats = %+v, want exactly one corrupt-payload error", st)
	}
}

func TestChecksumMismatchRejected(t *testing.T) {
	lying := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(HeaderSum, cas.Sum([]byte("what I promised")))
		fmt.Fprint(w, "what I actually sent")
	}))
	defer lying.Close()
	opts := Options{Peers: []string{lying.URL}, Timeout: time.Second, Backoff: time.Millisecond, Seed: 1, Retries: 0}
	c := New(opts)
	defer c.Close()
	if _, ok := c.Lookup(context.Background(), cas.Sum([]byte("k"))); ok {
		t.Fatal("mismatched checksum accepted")
	}
	if st := c.Stats(); st.PeerErrors == 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestLookupRespectsContext(t *testing.T) {
	p := newFakePeer(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c := New(testOpts(p))
	defer c.Close()
	if _, ok := c.Lookup(ctx, cas.Sum([]byte("k"))); ok {
		t.Fatal("cancelled lookup hit")
	}
}
