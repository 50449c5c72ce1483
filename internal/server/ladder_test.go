package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"polyufc/internal/cas"
	"polyufc/internal/fleet"
	"polyufc/internal/journal"
)

// ladderReq is the one request the ladder tests serve: single-socket, so
// its body carries neither "topology" nor "calibration_degraded".
var ladderReq = Request{Kernel: "gemm", Size: "test"}

// wrongShape is valid JSON that is not a CompileResponse: "nests" holds a
// string where an object belongs, so the decode fails — after it has
// already stored the omitempty fields a correct single-socket answer
// never overwrites.
const wrongShape = `{"kernel":"gemm","topology":{"sockets":9,"nodes":9,"socket_seconds":[1],"socket_joules":[1],` +
	`"node_seconds":1,"node_joules":1,"cluster_seconds":1,"cluster_joules":1,"cluster_edp":1,"cluster_edp_default":1},` +
	`"calibration_degraded":true,"nests":["x",{"label":"y"}]}`

// ladderFixture computes ladderReq on a daemon with no cache tier: the
// served body every other configuration must reproduce, the bytes the
// rungs hold for it, and its response key.
func ladderFixture(t *testing.T) (want, payload []byte, key string) {
	t.Helper()
	s := newServer(t, testConfig())
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp, want := post(t, ts, "/v1/compile", ladderReq)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reference compile: %d %s", resp.StatusCode, want)
	}
	var cr CompileResponse
	mustUnmarshal(t, want, &cr)
	payload, err := json.Marshal(cr)
	if err != nil {
		t.Fatal(err)
	}
	r, err := s.resolve(ladderReq)
	if err != nil {
		t.Fatal(err)
	}
	return want, payload, responseKey("v1/compile", r.key)
}

// seedJournal writes one entry into the journal file a -resume boot replays.
func seedJournal(t *testing.T, path, key string, data []byte) {
	t.Helper()
	j, err := journal.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.RecordBytes(key, data); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

// seedCAS stores one verified entry into the directory a daemon boots on.
func seedCAS(t *testing.T, dir, addr string, data []byte) {
	t.Helper()
	st, err := cas.Open(dir, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put(addr, data); err != nil {
		t.Fatal(err)
	}
}

// stubPeer speaks the fleet protocol over a map and counts the GETs and
// PUTs per address, so a test reads exactly what the ladder asked of the
// peer tier for one response (boot-time calibration fills land under
// other addresses).
type stubPeer struct {
	mu         sync.Mutex
	entries    map[string][]byte
	gets, puts map[string]int
	srv        *httptest.Server
}

func newStubPeer(t *testing.T) *stubPeer {
	p := &stubPeer{entries: map[string][]byte{}, gets: map[string]int{}, puts: map[string]int{}}
	p.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		addr := strings.TrimPrefix(r.URL.Path, "/v1/cas/")
		p.mu.Lock()
		defer p.mu.Unlock()
		if r.Method == http.MethodPut {
			body, _ := io.ReadAll(r.Body)
			p.entries[addr] = body
			p.puts[addr]++
			w.WriteHeader(http.StatusNoContent)
			return
		}
		p.gets[addr]++
		body, ok := p.entries[addr]
		if !ok {
			http.NotFound(w, r)
			return
		}
		w.Header().Set(fleet.HeaderSum, cas.Sum(body))
		w.Write(body)
	}))
	t.Cleanup(p.srv.Close)
	return p
}

func (p *stubPeer) counts(addr string) (gets, puts int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.gets[addr], p.puts[addr]
}

// A rung entry that is valid JSON of the wrong shape is a miss on that
// rung — the journal by the same rule as the CAS: the request answers 200
// with the computed bytes, the entry is repaired, and the next request is
// served from the repaired rung. (The journal row answered 500 on every
// request until the file was deleted.)
func TestServerWrongShapeEntryIsAMissOnEveryRung(t *testing.T) {
	want, _, key := ladderFixture(t)
	for _, rungName := range []string{"journal", "cas"} {
		t.Run(rungName, func(t *testing.T) {
			cfg := testConfig()
			if rungName == "journal" {
				cfg.JournalPath, cfg.Resume = filepath.Join(t.TempDir(), "serve.jsonl"), true
				seedJournal(t, cfg.JournalPath, key, []byte(wrongShape))
			} else {
				cfg.CASDir = t.TempDir()
				seedCAS(t, cfg.CASDir, responseAddr(key), []byte(wrongShape))
			}
			s := newServer(t, cfg)
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()
			boot := s.statsz()

			resp, got := post(t, ts, "/v1/compile", ladderReq)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("damaged %s entry: %d %s", rungName, resp.StatusCode, got)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("body differs from a fresh compute:\n  got:  %s\n  want: %s", got, want)
			}
			st := s.statsz()
			if repaired := st.Journal.Appended + st.CAS.Puts - boot.CAS.Puts; repaired != 1 {
				t.Fatalf("damaged entry repaired %d times, want 1: journal %+v cas %+v", repaired, st.Journal, st.CAS)
			}

			// The second request on this daemon is answered by the memory
			// rung: no persistent rung is read or written, nothing compiles.
			resp, got = post(t, ts, "/v1/compile", ladderReq)
			if resp.StatusCode != http.StatusOK || !bytes.Equal(got, want) {
				t.Fatalf("second request: %d %s", resp.StatusCode, got)
			}
			again := s.statsz()
			if again.Journal.Appended != st.Journal.Appended || again.CAS.Puts != st.CAS.Puts ||
				again.Journal.Replayed != st.Journal.Replayed || again.CAS.Hits != st.CAS.Hits ||
				compiles(again) != compiles(st) || again.CompileCache.Hits != st.CompileCache.Hits+1 {
				t.Fatalf("second request was not served from memory: %+v -> %+v", st, again)
			}

			// A fresh boot over the same state is served from the repaired
			// rung.
			ts.Close()
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			s2 := newServer(t, cfg)
			ts2 := httptest.NewServer(s2.Handler())
			defer ts2.Close()
			boot2 := s2.statsz()
			resp, got = post(t, ts2, "/v1/compile", ladderReq)
			if resp.StatusCode != http.StatusOK || !bytes.Equal(got, want) {
				t.Fatalf("request after reboot: %d %s", resp.StatusCode, got)
			}
			fresh := s2.statsz()
			if fresh.Journal.Appended != 0 || fresh.CAS.Puts != boot2.CAS.Puts || compiles(fresh) != 0 {
				t.Fatalf("request after reboot was not served from the repaired %s rung: %+v -> %+v", rungName, boot2, fresh)
			}
			if hits := fresh.Journal.Replayed + fresh.CAS.Hits - boot2.CAS.Hits; hits != 1 {
				t.Fatalf("request after reboot hit the %s rung %d times, want 1", rungName, hits)
			}
		})
	}
}

// The ladder as a cross product: every subset of {journal, CAS, peer}
// configured x which rung holds the entry x the entry intact, damaged, or
// damaged above an intact copy on the next rung down. Every cell answers
// 200 with the computed bytes (so no field of a failed decode survives),
// exactly the rungs above the answering one gain the entry, and nothing at
// or below it is touched.
func TestServerLadderCrossProduct(t *testing.T) {
	want, payload, key := ladderFixture(t)
	addr := responseAddr(key)
	const nRungs = 3 // 0 journal, 1 cas, 2 peer
	names := [nRungs]string{"journal", "cas", "peer"}

	for mask := 0; mask < 1<<nRungs; mask++ {
		var on []int
		for r := 0; r < nRungs; r++ {
			if mask&(1<<r) != 0 {
				on = append(on, r)
			}
		}
		// cell: the damaged entry sits on rung bad, the intact one on rung
		// good; -1 means no such entry.
		type cell struct{ bad, good int }
		cells := []cell{{-1, -1}}
		for i, r := range on {
			cells = append(cells, cell{-1, r}, cell{r, -1})
			if i+1 < len(on) {
				cells = append(cells, cell{r, on[i+1]})
			}
		}
		for _, c := range cells {
			name := "rungs="
			for _, r := range on {
				name += names[r][:1]
			}
			if c.bad >= 0 {
				name += "/damaged=" + names[c.bad]
			}
			if c.good >= 0 {
				name += "/intact=" + names[c.good]
			}
			t.Run(name, func(t *testing.T) {
				holds := func(r int) []byte {
					switch r {
					case c.bad:
						return []byte(wrongShape)
					case c.good:
						return payload
					}
					return nil
				}
				cfg := testConfig()
				var peer *stubPeer
				for _, r := range on {
					switch r {
					case 0:
						cfg.JournalPath, cfg.Resume = filepath.Join(t.TempDir(), "serve.jsonl"), true
						if data := holds(r); data != nil {
							seedJournal(t, cfg.JournalPath, key, data)
						}
					case 1:
						cfg.CASDir = t.TempDir()
						if data := holds(r); data != nil {
							seedCAS(t, cfg.CASDir, addr, data)
						}
					case 2:
						peer = newStubPeer(t)
						cfg.Peers = []string{peer.srv.URL}
						if data := holds(r); data != nil {
							peer.entries[addr] = data
						}
					}
				}
				s := newServer(t, cfg)
				ts := httptest.NewServer(s.Handler())
				defer ts.Close()
				boot := s.statsz()

				resp, got := post(t, ts, "/v1/compile", ladderReq)
				if resp.StatusCode != http.StatusOK {
					t.Fatalf("status %d: %s", resp.StatusCode, got)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("body differs from compute:\n  got:  %s\n  want: %s", got, want)
				}
				s.Close() // waits for the background peer fills
				st := s.statsz()

				// The answering rung is the intact copy's, or compute (below
				// every rung) when there is none.
				answered := nRungs
				if c.good >= 0 {
					answered = c.good
				}
				var gained, read [nRungs]int64
				gained[0] = st.Journal.Appended
				read[0] = st.Journal.Replayed
				gained[1] = st.CAS.Puts - boot.CAS.Puts
				read[1] = st.CAS.Hits + st.CAS.Misses - boot.CAS.Hits - boot.CAS.Misses
				read[2] = st.Fleet.Lookups
				if peer != nil {
					_, puts := peer.counts(addr)
					gained[2] = int64(puts)
				}
				for _, r := range on {
					wantGain, wantRead := int64(0), int64(0)
					if r < answered {
						wantGain = 1
					}
					// The journal counts a read only when it holds the key.
					if r <= answered && (r > 0 || holds(r) != nil) {
						wantRead = 1
					}
					if gained[r] != wantGain || read[r] != wantRead {
						t.Errorf("%s rung: gained %d entries and was read %d times, want %d and %d (answered by rung %d)",
							names[r], gained[r], read[r], wantGain, wantRead, answered)
					}
				}
				if computed := compiles(st); (computed == 1) != (answered == nRungs) {
					t.Errorf("compiled %d times with answering rung %d", computed, answered)
				}
				if t.Failed() {
					t.Logf("journal %+v\ncas %+v\nfleet %+v", st.Journal, st.CAS, st.Fleet)
				}
			})
		}
	}
}
