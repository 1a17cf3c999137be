package bench

import (
	"context"
	"reflect"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapGridOrderAndCoverage(t *testing.T) {
	var calls atomic.Int64
	for _, workers := range []int{0, 1, 3, 16} {
		calls.Store(0)
		got := MapGrid(context.Background(), workers, 4, 3, func(cell, trial int) [2]int {
			calls.Add(1)
			return [2]int{cell, trial}
		})
		if calls.Load() != 12 {
			t.Fatalf("workers=%d: %d calls, want 12", workers, calls.Load())
		}
		for c := 0; c < 4; c++ {
			for tr := 0; tr < 3; tr++ {
				if got[c][tr] != [2]int{c, tr} {
					t.Fatalf("workers=%d: result[%d][%d] = %v", workers, c, tr, got[c][tr])
				}
			}
		}
	}
}

// TestMapGridContextCancel pins the cancellation contract server jobs abort
// through: a cancelled context stops further dispatch, in-flight calls
// complete, and the executed pairs form a prefix of (cell, trial) order.
func TestMapGridContextCancel(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		var calls atomic.Int64
		got := MapGrid(ctx, workers, 3, 3, func(cell, trial int) bool {
			calls.Add(1)
			return true
		})
		// A context cancelled before dispatch runs nothing (the buffered
		// dispatch channel may admit up to `workers` in-flight pairs after a
		// mid-grid cancel, but never before the first dispatch attempt).
		if workers == 1 && calls.Load() != 0 {
			t.Fatalf("workers=%d: %d calls after pre-cancelled context, want 0", workers, calls.Load())
		}
		executed := 0
		prefixEnded := false
		for c := 0; c < 3; c++ {
			for tr := 0; tr < 3; tr++ {
				if got[c][tr] {
					if prefixEnded {
						t.Fatalf("workers=%d: executed pair (%d,%d) after a gap — not a prefix", workers, c, tr)
					}
					executed++
				} else {
					prefixEnded = true
				}
			}
		}
		if int64(executed) != calls.Load() {
			t.Fatalf("workers=%d: %d executed results vs %d calls", workers, executed, calls.Load())
		}
	}
}

// TestMapGridContextMidCancel cancels mid-grid from inside fn and checks the
// executed set is still a contiguous prefix.
func TestMapGridContextMidCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	got := MapGrid(ctx, 1, 2, 4, func(cell, trial int) bool {
		if cell == 0 && trial == 2 {
			cancel()
		}
		return true
	})
	want := [][]bool{{true, true, true, false}, {false, false, false, false}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("mid-grid cancel executed %v, want %v", got, want)
	}
}

func TestMapGridEmptyGrid(t *testing.T) {
	got := MapGrid(context.Background(), 8, 0, 5, func(cell, trial int) int { t.Fatal("must not be called"); return 0 })
	if len(got) != 0 {
		t.Fatalf("empty grid returned %v", got)
	}
}

// TestParallelTrialsDeterministic is the determinism contract of the worker
// pool: the same configuration must produce bit-identical tables whether the
// (cell × trial) grid runs sequentially or fanned out, because every trial
// derives all randomness from its own seed.
func TestParallelTrialsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("parallel determinism sweep skipped in -short mode")
	}
	cfg := Config{Sizes: []int{6}, Trials: 2, Seed: 11, MaxSteps: 200_000}
	for _, e := range []string{"E1", "E6", "E9", "A2"} {
		exp, err := ExperimentByID(e)
		if err != nil {
			t.Fatal(err)
		}
		sequential := cfg
		sequential.Parallel = 1
		parallel := cfg
		parallel.Parallel = 4
		seqTable, err := exp.Run(sequential)
		if err != nil {
			t.Fatal(err)
		}
		parTable, err := exp.Run(parallel)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(seqTable, parTable) {
			t.Errorf("%s: parallel table differs from sequential table:\n%+v\n%+v", e, parTable, seqTable)
		}
	}
}

// TestMapGridWorkerPanic pins the panic contract server jobs recover
// through: a panic in fn on a pool worker stops the dispatch and reaches the
// calling goroutine with its original value once the workers have returned.
//
// The bound on calls only holds if the panic comes before the grid is
// drained, which the scheduler alone does not promise: the worker holding the
// panicking pair can be descheduled before or after its call while the other
// worker races through trivial calls. So calls dispatched after that pair
// wait until it has panicked and then take a few milliseconds each, which
// leaves the recovery ample time to stop the dispatch.
func TestMapGridWorkerPanic(t *testing.T) {
	var calls, running atomic.Int64
	fired := make(chan struct{})
	got := func() (r any) {
		defer func() { r = recover() }()
		MapGrid(context.Background(), 2, 50, 4, func(cell, trial int) int {
			running.Add(1)
			defer running.Add(-1)
			calls.Add(1)
			if cell == 1 && trial == 2 {
				close(fired)
				panic("trial 1/2 failed")
			}
			if cell*4+trial > 1*4+2 {
				<-fired
				time.Sleep(5 * time.Millisecond)
			}
			return cell
		})
		return nil
	}()
	if got != "trial 1/2 failed" {
		t.Fatalf("recovered %v, want the worker's panic value", got)
	}
	if n := running.Load(); n != 0 {
		t.Fatalf("%d fn calls still running after MapGrid panicked", n)
	}
	if n := calls.Load(); n >= 200 {
		t.Fatalf("%d fn calls: the dispatch did not stop after the panic", n)
	}
}
