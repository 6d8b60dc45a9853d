package runner

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func TestMapOrderAndCompleteness(t *testing.T) {
	const n = 1000
	got, err := Map(n, func(i int) (int, error) { return i * i, nil })
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("got %d results, want %d", len(got), n)
	}
	for i, v := range got {
		if v != i*i {
			t.Fatalf("result %d = %d, want %d (index order violated)", i, v, i*i)
		}
	}
}

func TestMapDeterministicError(t *testing.T) {
	// Jobs 700 and 13 both fail; the lowest index must win no matter which
	// worker finishes first.
	for trial := 0; trial < 20; trial++ {
		_, err := Map(1000, func(i int) (int, error) {
			if i == 700 || i == 13 {
				return 0, fmt.Errorf("job %d failed", i)
			}
			return i, nil
		})
		if err == nil || err.Error() != "job 13 failed" {
			t.Fatalf("trial %d: got error %v, want job 13's", trial, err)
		}
	}
}

func TestMapAllJobsRunDespiteFailure(t *testing.T) {
	var ran atomic.Int64
	boom := errors.New("boom")
	_, err := Map(100, func(i int) (int, error) {
		ran.Add(1)
		if i == 0 {
			return 0, boom
		}
		return i, nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("error = %v, want boom", err)
	}
	if ran.Load() != 100 {
		t.Fatalf("only %d of 100 jobs ran", ran.Load())
	}
}

func TestMapNWorkerClamping(t *testing.T) {
	for _, workers := range []int{-1, 0, 1, 2, 64} {
		got, err := MapN(workers, 10, func(i int) (int, error) { return i, nil })
		if err != nil || len(got) != 10 {
			t.Fatalf("workers=%d: len=%d err=%v", workers, len(got), err)
		}
	}
}

func TestMapEmpty(t *testing.T) {
	got, err := Map(0, func(i int) (int, error) { return 0, errors.New("never") })
	if err != nil || got != nil {
		t.Fatalf("empty map: %v %v", got, err)
	}
}

func TestForEach(t *testing.T) {
	var sum atomic.Int64
	if err := ForEach(100, func(i int) error { sum.Add(int64(i)); return nil }); err != nil {
		t.Fatal(err)
	}
	if sum.Load() != 4950 {
		t.Fatalf("sum = %d, want 4950", sum.Load())
	}
}

func TestFlightDeduplicatesConcurrentCalls(t *testing.T) {
	var f Flight[string, int]
	var calls atomic.Int64
	release := make(chan struct{})
	started := make(chan struct{})
	var startOnce sync.Once

	var wg sync.WaitGroup
	const n = 8
	results := make([]int, n)
	shareds := make([]bool, n)
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(i int) {
			defer wg.Done()
			v, err, shared := f.Do("k", func() (int, error) {
				// A second flight would run fn again; the count below
				// catches it, so it must not panic here first.
				startOnce.Do(func() { close(started) })
				<-release // hold the flight open so everyone piles up
				calls.Add(1)
				return 42, nil
			})
			if err != nil {
				t.Error(err)
			}
			results[i], shareds[i] = v, shared
		}(i)
	}
	<-started
	// Release the leader only once every other caller waits on its flight.
	for {
		f.mu.Lock()
		waiters := f.inflight["k"].waiters
		f.mu.Unlock()
		if waiters == n-1 {
			break
		}
		runtime.Gosched()
	}
	close(release)
	wg.Wait()

	if got := calls.Load(); got != 1 {
		t.Fatalf("fn ran %d times, want 1", got)
	}
	leaders := 0
	for i := 0; i < n; i++ {
		if results[i] != 42 {
			t.Fatalf("caller %d got %d", i, results[i])
		}
		if !shareds[i] {
			leaders++
		}
	}
	if leaders != 1 {
		t.Fatalf("%d callers claim to have run fn, want 1", leaders)
	}
}

func TestFlightSequentialCallsRunAgain(t *testing.T) {
	var f Flight[int, int]
	var calls int
	for i := 0; i < 3; i++ {
		v, err, shared := f.Do(7, func() (int, error) { calls++; return calls, nil })
		if err != nil || shared {
			t.Fatalf("call %d: err=%v shared=%v", i, err, shared)
		}
		if v != i+1 {
			t.Fatalf("call %d returned %d; flights must not memoize", i, v)
		}
	}
}

func TestFlightPropagatesErrors(t *testing.T) {
	var f Flight[int, int]
	wantErr := errors.New("boom")
	if _, err, _ := f.Do(1, func() (int, error) { return 0, wantErr }); !errors.Is(err, wantErr) {
		t.Fatalf("err = %v, want %v", err, wantErr)
	}
	// A failed flight leaves nothing behind; the next call runs fn again.
	v, err, shared := f.Do(1, func() (int, error) { return 9, nil })
	if v != 9 || err != nil || shared {
		t.Fatalf("post-error call: v=%d err=%v shared=%v", v, err, shared)
	}
}

func TestFlightSurvivesPanic(t *testing.T) {
	var f Flight[int, int]
	// A waiter blocked behind the panicking leader must be released with an
	// error, and the key must be usable again afterwards.
	entered := make(chan struct{})
	waiterDone := make(chan error, 1)
	go func() {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("leader's panic was swallowed")
				}
			}()
			f.Do(1, func() (int, error) {
				close(entered)
				for i := 0; i < 200; i++ {
					runtime.Gosched() // let the waiter enqueue
				}
				panic("boom")
			})
		}()
	}()
	<-entered
	// This call either catches the in-flight panicking leader (must be
	// released with an error, not deadlock) or — if cleanup already ran —
	// becomes a fresh leader and succeeds. Both are fine; hanging is not.
	_, err, shared := f.Do(1, func() (int, error) { return 1, nil })
	waiterDone <- err
	if err := <-waiterDone; shared && err == nil {
		t.Fatal("waiter behind a panicked flight got no error")
	}
	v, err, shared := f.Do(1, func() (int, error) { return 3, nil })
	if v != 3 || err != nil || shared {
		t.Fatalf("post-panic call: v=%d err=%v shared=%v (key leaked?)", v, err, shared)
	}
}

func TestMapNPanicContainment(t *testing.T) {
	// Both pool shapes must contain a panicking job identically: the
	// inline workers==1 path and the goroutine pool. A process-killing
	// panic here would fail the whole test binary, so merely returning
	// is already half the assertion.
	for _, workers := range []int{1, 4} {
		got, err := MapN(workers, 8, func(i int) (int, error) {
			if i == 3 {
				panic(fmt.Sprintf("job %d exploded", i))
			}
			return i, nil
		})
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: err %v, want *PanicError", workers, err)
		}
		if pe.Value != "job 3 exploded" {
			t.Errorf("workers=%d: panic value %v", workers, pe.Value)
		}
		if !strings.Contains(string(pe.Stack), "goroutine") {
			t.Errorf("workers=%d: stack missing: %q", workers, pe.Stack)
		}
		if !strings.Contains(pe.Error(), "job 3 exploded") {
			t.Errorf("workers=%d: Error() lost the value: %q", workers, pe.Error())
		}
		// The other jobs still ran to completion.
		for i, v := range got {
			if i != 3 && v != i {
				t.Errorf("workers=%d: job %d result %d despite unrelated panic", workers, i, v)
			}
		}
	}
}
