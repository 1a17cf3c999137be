package bench

import (
	"context"
	"sync"
)

// The experiment runners fan the (cell × trial) grid out over a bounded
// worker pool, where a cell is one table row in the making (a topology ×
// size × daemon × scenario point) and a trial is one seeded execution.
// Every trial builds its topology, workload, daemon and fault injection from
// its own seed, so the tables are bit-identical regardless of Parallel; the
// workers only change wall-clock time.

// gridJob addresses one (cell, trial) pair.
type gridJob struct{ cell, trial int }

// MapGrid runs fn(cell, trial) for every pair in [0,cells) × [0,trials) and
// returns the results indexed [cell][trial]. With workers ≤ 1 the grid runs
// sequentially in order; otherwise the pairs are fanned out over a bounded
// worker pool. fn must not touch shared mutable state (trials derive
// everything from their seeds). Exported for internal/campaign, which fans
// its per-cell trial waves out over the same pool.
//
// Once ctx is done no further fn calls start (in-flight calls complete), and
// the skipped entries of the result keep their zero value. Because pairs are
// dispatched in (cell, trial) order and in-flight calls finish, the executed
// pairs always form a prefix of that order — callers detect the cut by
// marking executed results (see internal/campaign) and can therefore stop at
// a clean record boundary.
//
// A panic in fn reaches the caller as it would without the pool: a worker
// that recovers one stops the dispatch, and once every worker has returned
// MapGrid panics again with the first recovered value on the calling
// goroutine, where the caller can recover it.
func MapGrid[T any](ctx context.Context, workers, cells, trials int, fn func(cell, trial int) T) [][]T {
	out := make([][]T, cells)
	for c := range out {
		out[c] = make([]T, trials)
	}
	if total := cells * trials; workers > total {
		workers = total
	}
	if workers <= 1 {
		for c := 0; c < cells; c++ {
			for tr := 0; tr < trials; tr++ {
				if ctx.Err() != nil {
					return out
				}
				out[c][tr] = fn(c, tr)
			}
		}
		return out
	}
	jobs := make(chan gridJob, workers)
	stop := make(chan struct{})
	var (
		wg        sync.WaitGroup
		panicOnce sync.Once
		panicked  any
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicOnce.Do(func() {
						panicked = r
						close(stop)
					})
				}
			}()
			for j := range jobs {
				select {
				case <-stop:
					return
				default:
				}
				out[j.cell][j.trial] = fn(j.cell, j.trial)
			}
		}()
	}
dispatch:
	for c := 0; c < cells; c++ {
		for tr := 0; tr < trials; tr++ {
			select {
			case jobs <- gridJob{cell: c, trial: tr}:
			case <-ctx.Done():
				break dispatch
			case <-stop:
				break dispatch
			}
		}
	}
	close(jobs)
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
	return out
}
