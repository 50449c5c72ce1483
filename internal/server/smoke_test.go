package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"polyufc/internal/faults"
	"polyufc/internal/hw"
)

// The CI smoke scenario end to end: a fault-injected daemon serves a
// concurrent burst of mixed requests, takes a SIGTERM-style cancellation,
// drains cleanly with the default caps restored, and a restarted daemon
// replays the journaled responses byte-identically.
func TestServerConcurrentSmokeWithFaultsAndDrain(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "smoke.jsonl")

	reg := faults.New(31)
	reg.Enable(hw.FaultCapWriteBusy, faults.Spec{P: 0.3})
	reg.Enable(hw.FaultThermalOverride, faults.Spec{P: 0.1})
	cfg := DefaultConfig()
	cfg.Concurrency = 4
	cfg.Queue = 64
	cfg.Faults = reg
	cfg.FaultSeed = 31
	cfg.JournalPath = path
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	runErr := make(chan error, 1)
	go func() { runErr <- s.Run(ctx, ln) }()
	base := fmt.Sprintf("http://%s", ln.Addr())

	kernels := []string{"gemm", "atax", "mvt", "bicg"}
	archs := []string{"rpl", "bdw"}
	const n = 24
	var wg sync.WaitGroup
	var mu sync.Mutex
	codeCount := map[int]int{}
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			req := Request{
				Kernel:   kernels[i%len(kernels)],
				Platform: archs[i%len(archs)],
				Size:     "test",
				Measure:  i%3 == 0, // a third of the burst hits the faulty driver
			}
			body, _ := json.Marshal(req)
			resp, err := http.Post(base+"/v1/search", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			data, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			mu.Lock()
			codeCount[resp.StatusCode]++
			mu.Unlock()
			switch resp.StatusCode {
			case http.StatusOK:
				var sr SearchResponse
				if err := json.Unmarshal(data, &sr); err != nil || len(sr.Nests) == 0 {
					t.Errorf("request %d: bad body %s", i, data)
				}
			case http.StatusTooManyRequests:
				if resp.Header.Get("Retry-After") == "" {
					t.Errorf("request %d: 429 without Retry-After", i)
				}
			default:
				t.Errorf("request %d: unexpected status %d: %s", i, resp.StatusCode, data)
			}
		}(i)
	}
	wg.Wait()
	if codeCount[http.StatusOK] == 0 {
		t.Fatalf("no request succeeded: %v", codeCount)
	}

	// SIGTERM: drain and assert the machines are left uncapped even though
	// driver writes were failing 30% of the time.
	cancel()
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("drain: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not drain")
	}
	for _, plat := range []string{"BDW", "RPL"} {
		s.breakers[plat].WithMachine(func(m *hw.Machine) error {
			if m.UncoreCap() != m.P.UncoreMax {
				t.Fatalf("%s cap left at %.1f after drain", plat, m.UncoreCap())
			}
			return nil
		})
	}

	// Fault-armed daemons bypass the journal (injected outcomes are not
	// deterministic), so a healthy restart starts it fresh and replays.
	cfg2 := DefaultConfig()
	cfg2.Concurrency = 2
	cfg2.JournalPath = path
	cfg2.Resume = true
	s2, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	req := Request{Kernel: "gemm", Size: "test"}
	first := postBody(t, s2, req)
	if s2.JournalStats().Appended != 1 {
		t.Fatalf("journal stats %+v", s2.JournalStats())
	}

	cfg3 := cfg2
	s3, err := New(cfg3)
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	if got := postBody(t, s3, req); !bytes.Equal(first, got) {
		t.Fatalf("journal replay differs across restart:\n%s\nvs\n%s", first, got)
	}
	if st := s3.statsz(); st.Journal.Replayed != 1 || compiles(st) != 0 {
		t.Fatalf("restart did not replay: %+v", st.Journal)
	}
}

// postBody serves one request through the handler directly and returns
// the 200 body.
func postBody(t *testing.T, s *Server, req Request) []byte {
	t.Helper()
	body, _ := json.Marshal(req)
	r, err := http.NewRequest(http.MethodPost, "/v1/search", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, r)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d: %s", w.Code, w.Body.Bytes())
	}
	return w.Body.Bytes()
}
