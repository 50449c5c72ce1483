package parallel

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapOrdersResultsByIndex(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 0} {
		got, err := Map(context.Background(), 100, workers, func(_ context.Context, i int) (int, error) {
			return i * i, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != 100 {
			t.Fatalf("workers=%d: len = %d", workers, len(got))
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: got[%d] = %d", workers, i, v)
			}
		}
	}
}

func TestForEachBoundsConcurrency(t *testing.T) {
	const workers = 3
	var inFlight, peak atomic.Int64
	err := ForEach(context.Background(), 50, workers, func(_ context.Context, i int) error {
		n := inFlight.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		inFlight.Add(-1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Fatalf("peak in-flight %d exceeds %d workers", p, workers)
	}
}

func TestForEachSerialFallbackRunsInline(t *testing.T) {
	order := []int{}
	err := ForEach(context.Background(), 5, 1, func(_ context.Context, i int) error {
		order = append(order, i) // no synchronization: must be inline
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("serial order = %v", order)
		}
	}
}

func TestForEachPropagatesLowestIndexError(t *testing.T) {
	boom := func(i int) error { return fmt.Errorf("item %d failed", i) }
	for _, workers := range []int{1, 4} {
		err := ForEach(context.Background(), 20, workers, func(_ context.Context, i int) error {
			if i == 3 || i == 11 {
				return boom(i)
			}
			return nil
		})
		if err == nil {
			t.Fatalf("workers=%d: no error", workers)
		}
		if got := err.Error(); got != "item 3 failed" && workers > 1 && got != "item 11 failed" {
			t.Fatalf("workers=%d: unexpected error %q", workers, got)
		}
		if workers == 1 && err.Error() != "item 3 failed" {
			t.Fatalf("serial must fail on the first item in order, got %q", err)
		}
	}
}

func TestForEachErrorCancelsRemainingWork(t *testing.T) {
	var ran atomic.Int64
	errBoom := errors.New("boom")
	err := ForEach(context.Background(), 1000, 2, func(ctx context.Context, i int) error {
		ran.Add(1)
		if i == 0 {
			return errBoom
		}
		return nil
	})
	if !errors.Is(err, errBoom) {
		t.Fatalf("err = %v", err)
	}
	if n := ran.Load(); n >= 1000 {
		t.Fatalf("pool did not stop early: ran %d items", n)
	}
}

func TestForEachHonorsCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	err := ForEach(ctx, 10, 4, func(_ context.Context, i int) error {
		ran.Add(1)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v", err)
	}
}

func TestForEachCancelMidFlight(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	started := make(chan struct{})
	var once sync.Once
	errc := make(chan error, 1)
	go func() {
		errc <- ForEach(ctx, 1000, 2, func(ctx context.Context, i int) error {
			once.Do(func() { close(started) })
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(2 * time.Millisecond):
				return nil
			}
		})
	}()
	<-started
	cancel()
	select {
	case err := <-errc:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("pool did not drain after cancellation")
	}
}

func TestWorkersResolution(t *testing.T) {
	if Workers(1) != 1 || Workers(7) != 7 {
		t.Fatal("explicit worker counts must pass through")
	}
	if Workers(0) < 1 || Workers(-3) < 1 {
		t.Fatal("defaulted worker count must be at least 1")
	}
}

func TestMemoComputesOncePerKey(t *testing.T) {
	var m Memo[string, int]
	var calls atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := m.Do(context.Background(), "k", func() (int, error) {
				calls.Add(1)
				time.Sleep(time.Millisecond)
				return 42, nil
			})
			if err != nil || v != 42 {
				t.Errorf("Do = %d, %v", v, err)
			}
		}()
	}
	wg.Wait()
	if c := calls.Load(); c != 1 {
		t.Fatalf("fn ran %d times, want 1 (singleflight)", c)
	}
	hits, misses := m.Stats()
	if misses != 1 || hits != 31 {
		t.Fatalf("stats = %d hits / %d misses", hits, misses)
	}
	if n := m.Counters().Len; n != 1 {
		t.Fatalf("len = %d", n)
	}
}

func TestMemoDoSharedReportsProvenance(t *testing.T) {
	var m Memo[string, int]
	v, shared, err := m.DoShared(context.Background(), "k", func() (int, error) { return 7, nil })
	if err != nil || v != 7 || shared {
		t.Fatalf("cold DoShared = %d, shared=%v, %v; want 7, false, nil", v, shared, err)
	}
	v, shared, err = m.DoShared(context.Background(), "k", func() (int, error) {
		t.Error("fn must not run on a settled entry")
		return 0, nil
	})
	if err != nil || v != 7 || !shared {
		t.Fatalf("warm DoShared = %d, shared=%v, %v; want 7, true, nil", v, shared, err)
	}

	// A waiter on an in-flight computation is shared too.
	block := make(chan struct{})
	started := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, shared, _ := m.DoShared(context.Background(), "slow", func() (int, error) {
			close(started)
			<-block
			return 1, nil
		})
		if shared {
			t.Error("computing call must report shared=false")
		}
	}()
	<-started
	waiter := make(chan bool, 1)
	go func() {
		_, shared, _ := m.DoShared(context.Background(), "slow", func() (int, error) { return 2, nil })
		waiter <- shared
	}()
	close(block)
	if !<-waiter {
		t.Fatal("in-flight waiter must report shared=true")
	}
	<-done
}

func TestMemoDoesNotCacheErrors(t *testing.T) {
	var m Memo[int, string]
	errBoom := errors.New("boom")
	calls := 0
	_, err := m.Do(context.Background(), 1, func() (string, error) {
		calls++
		return "", errBoom
	})
	if !errors.Is(err, errBoom) {
		t.Fatalf("err = %v", err)
	}
	v, err := m.Do(context.Background(), 1, func() (string, error) {
		calls++
		return "ok", nil
	})
	if err != nil || v != "ok" {
		t.Fatalf("retry = %q, %v", v, err)
	}
	if calls != 2 {
		t.Fatalf("calls = %d, want a retry after the error", calls)
	}
}

func TestMemoWaiterHonorsCancellation(t *testing.T) {
	var m Memo[string, int]
	block := make(chan struct{})
	go m.Do(context.Background(), "k", func() (int, error) {
		<-block
		return 7, nil
	})
	for m.Counters().Len == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := m.Do(ctx, "k", func() (int, error) { return 0, nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("waiter err = %v", err)
	}
	close(block)
	// The original computation still settles and is served afterwards.
	v, err := m.Do(context.Background(), "k", func() (int, error) { return 0, errors.New("must not run") })
	if err != nil || v != 7 {
		t.Fatalf("post-cancel Do = %d, %v", v, err)
	}
}

func TestMemoReset(t *testing.T) {
	var m Memo[int, int]
	m.Do(context.Background(), 1, func() (int, error) { return 1, nil })
	m.Reset()
	if n := m.Counters().Len; n != 0 {
		t.Fatalf("len after reset = %d", n)
	}
	calls := 0
	m.Do(context.Background(), 1, func() (int, error) { calls++; return 1, nil })
	if calls != 1 {
		t.Fatal("reset must force recomputation")
	}
	hits, misses := m.Stats()
	if hits != 0 || misses != 1 {
		t.Fatalf("stats after reset = %d/%d", hits, misses)
	}
}

func TestMemoManyKeysUnderContention(t *testing.T) {
	var m Memo[int, int]
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 100; k++ {
				v, err := m.Do(context.Background(), k, func() (int, error) { return 2 * k, nil })
				if err != nil || v != 2*k {
					t.Errorf("key %d = %d, %v", k, v, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := m.Counters().Len; n != 100 {
		t.Fatalf("len = %d", n)
	}
}
