package parallel

import (
	"context"
	"fmt"
	"sync"
	"testing"
)

func memoGet(t *testing.T, m *Memo[int, string], k int) string {
	t.Helper()
	v, err := m.Do(context.Background(), k, func() (string, error) {
		return fmt.Sprintf("v%d", k), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// SetLimit evicts in least-recently-used order and counts every drop.
func TestMemoLRUEvictionOrder(t *testing.T) {
	var m Memo[int, string]
	m.SetLimit(3)
	for k := 0; k < 3; k++ {
		memoGet(t, &m, k)
	}
	memoGet(t, &m, 0) // 0 becomes most recent: order 0,2,1
	memoGet(t, &m, 3) // evicts 1
	memoGet(t, &m, 1) // miss (recompute), evicts 2
	if got := m.Counters().Len; got != 3 {
		t.Fatalf("len = %d, want 3", got)
	}
	if got := m.Counters().Evictions; got != 2 {
		t.Fatalf("evictions = %d, want 2", got)
	}
	hits, misses := m.Stats()
	if hits != 1 || misses != 5 {
		t.Fatalf("hits/misses = %d/%d, want 1/5", hits, misses)
	}
	// 0, 3, 1 survive as hits; 2 was evicted.
	hitsBefore, _ := m.Stats()
	for _, k := range []int{0, 3, 1} {
		memoGet(t, &m, k)
	}
	if hits, _ := m.Stats(); hits != hitsBefore+3 {
		t.Fatalf("survivors missed: hits %d -> %d", hitsBefore, hits)
	}
}

// Shrinking the limit below the current size evicts immediately, and
// limit <= 0 restores unbounded growth.
func TestMemoSetLimitShrinkAndUnbound(t *testing.T) {
	var m Memo[int, string]
	for k := 0; k < 8; k++ {
		memoGet(t, &m, k)
	}
	m.SetLimit(2)
	if c := m.Counters(); c.Len != 2 || c.Evictions != 6 {
		t.Fatalf("len %d evictions %d after shrink", c.Len, c.Evictions)
	}
	m.SetLimit(0)
	for k := 10; k < 20; k++ {
		memoGet(t, &m, k)
	}
	if n := m.Counters().Len; n != 12 {
		t.Fatalf("unbounded memo evicted: len %d", n)
	}
}

// An in-flight computation is never evicted: waiters hold the entry while
// churn fills and overflows the LRU around it.
func TestMemoLRUInFlightSurvivesEviction(t *testing.T) {
	var m Memo[int, string]
	m.SetLimit(1)
	started := make(chan struct{})
	release := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		v, err := m.Do(context.Background(), 99, func() (string, error) {
			close(started)
			<-release
			return "slow", nil
		})
		if err != nil || v != "slow" {
			t.Errorf("slow Do = %q, %v", v, err)
		}
	}()
	<-started
	for k := 0; k < 5; k++ {
		memoGet(t, &m, k) // churns the one settled slot
	}
	// A waiter arriving now must still join the in-flight computation.
	wg.Add(1)
	var waited string
	go func() {
		defer wg.Done()
		waited, _ = m.Do(context.Background(), 99, func() (string, error) {
			t.Error("in-flight entry was evicted: fn re-ran")
			return "", nil
		})
	}()
	close(release)
	wg.Wait()
	if waited != "slow" {
		t.Fatalf("waiter got %q", waited)
	}
	// Once settled it lands in the LRU and is evictable again.
	memoGet(t, &m, 100)
	if n := m.Counters().Len; n != 1 {
		t.Fatalf("len = %d, want 1", n)
	}
}

// Reset clears entries, statistics and the LRU order but keeps the limit.
func TestMemoResetKeepsLimit(t *testing.T) {
	var m Memo[int, string]
	m.SetLimit(2)
	for k := 0; k < 4; k++ {
		memoGet(t, &m, k)
	}
	m.Reset()
	if c := m.Counters(); c.Len != 0 || c.Evictions != 0 {
		t.Fatalf("reset left len %d evictions %d", c.Len, c.Evictions)
	}
	for k := 0; k < 4; k++ {
		memoGet(t, &m, k)
	}
	if c := m.Counters(); c.Len != 2 || c.Evictions != 2 {
		t.Fatalf("limit lost across Reset: len %d evictions %d", c.Len, c.Evictions)
	}
}

// Concurrent churn against a tiny limit stays race-clean and converges to
// at most limit settled entries.
func TestMemoLRUConcurrentChurn(t *testing.T) {
	var m Memo[int, string]
	m.SetLimit(4)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := (w*7 + i) % 16
				v, err := m.Do(context.Background(), k, func() (string, error) {
					return fmt.Sprintf("v%d", k), nil
				})
				if err != nil || v != fmt.Sprintf("v%d", k) {
					t.Errorf("Do(%d) = %q, %v", k, v, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if n := m.Counters().Len; n > 4 {
		t.Fatalf("len = %d exceeds limit", n)
	}
}
