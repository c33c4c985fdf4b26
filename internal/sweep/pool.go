// Package sweep is the execution core every Ballista engine shares: a
// work-stealing, panic-isolating worker pool over indexed units, and an
// append-only, fsync'd JSONL journal that makes a sweep resumable.
//
// Every engine — the farm's MuT shards, explore's candidate chains,
// crashsim's workloads and scarce's (environment, MuT) items — has the
// shape of B3's bounded, reproducible enumeration: units are indexed
// 0..n-1, each is evaluated purely, and the engine merges results in
// index order.  Because evaluation is pure, which worker runs a unit,
// in what order, and whether it ran before a kill+resume never changes
// the merged report.
package sweep

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
)

// MaxAttempts bounds re-execution of a panicking unit; a unit that
// panics this many times is handed back to the engine (Pool.GiveUp)
// rather than retried forever.
const MaxAttempts = 3

// Fault records one recovered panic: which unit, on which worker, on
// which attempt (1-based), and the panic value.
type Fault struct {
	Unit    int
	Worker  int
	Attempt int
	Reason  string
}

func (f Fault) Error() string {
	return fmt.Sprintf("unit %d panicked on all %d attempts (last on worker %d): %s",
		f.Unit, f.Attempt, f.Worker, f.Reason)
}

// EvalFunc evaluates one unit on one worker.  stolen reports that the
// worker has taken work off another worker's partition.  A non-nil
// error stops the whole pool.
type EvalFunc func(ctx context.Context, unit int, stolen bool) error

// Pool runs units across workers.  Each worker owns a contiguous
// partition of the units, walks it front to back, and when it runs dry
// steals the back half of the fullest other partition.
type Pool struct {
	// Workers is the pool size; it is clamped to the number of units.
	Workers int
	// Worker builds worker id's evaluation function, with whatever
	// private state (a runner, a machine) it closes over.  It is called
	// once when the worker starts and again after every recovered
	// panic, because the state the panic interrupted is suspect.
	Worker func(id int) EvalFunc
	// OnPanic, when non-nil, is told of every recovered panic, from the
	// panicking worker's goroutine.  The unit is then re-enqueued at
	// that worker's tail until it has panicked MaxAttempts times.
	OnPanic func(Fault)
	// GiveUp receives a unit that panicked MaxAttempts times: the
	// engine either records it and returns nil to let the pool go on,
	// or returns an error (naming the unit) that stops the pool.
	GiveUp func(Fault) error
}

// Run evaluates units (indices into the engine's own unit table) until
// every one is done or one evaluation fails.  It returns how many units
// completed on a worker after that worker had stolen work, and the
// first real error — preferred over the cancellation it caused in the
// other workers.
func (p Pool) Run(ctx context.Context, units []int) (steals uint64, err error) {
	if len(units) == 0 {
		return 0, nil
	}
	workers := min(max(p.Workers, 1), len(units))
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	queues := make([]*deque, workers)
	per := (len(units) + workers - 1) / workers
	for w := range queues {
		queues[w] = &deque{}
		lo := min(w*per, len(units))
		queues[w].push(units[lo:min(lo+per, len(units))]...)
	}

	r := &run{pool: p, queues: queues, attempts: make(map[int]int)}
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if errs[w] = r.worker(ctx, w); errs[w] != nil {
				cancel() // one worker down ends the sweep
			}
		}()
	}
	wg.Wait()

	for _, e := range errs {
		if e != nil && (err == nil || (err == context.Canceled && e != context.Canceled)) {
			err = e
		}
	}
	if err == context.Canceled && ctx.Err() != nil {
		err = ctx.Err()
	}
	return r.steals.Load(), err
}

// run is one Pool.Run's shared scheduling state.
type run struct {
	pool   Pool
	queues []*deque
	steals atomic.Uint64

	amu      sync.Mutex
	attempts map[int]int // panics so far, per unit
}

// worker drains its own queue, then steals until every queue is dry.
func (r *run) worker(ctx context.Context, id int) error {
	eval := r.pool.Worker(id)
	own := r.queues[id]
	stolen := false
	for {
		unit, ok := own.popFront()
		if !ok {
			if !r.steal(id) {
				return nil
			}
			stolen = true
			continue
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		fault, err := r.evalSafe(ctx, eval, id, unit, stolen)
		if err != nil {
			return err
		}
		if fault == nil {
			if stolen {
				r.steals.Add(1)
			}
			continue
		}
		eval = r.pool.Worker(id)
		if fault.Attempt < MaxAttempts {
			own.push(unit)
			continue
		}
		if err := r.pool.GiveUp(*fault); err != nil {
			return err
		}
	}
}

// steal moves the back half of the fullest other queue onto worker id's
// queue, reporting false once every other queue is empty.
func (r *run) steal(id int) bool {
	for {
		victim, best := -1, 0
		for v, q := range r.queues {
			if n := q.size(); v != id && n > best {
				victim, best = v, n
			}
		}
		if victim < 0 {
			return false
		}
		if loot := r.queues[victim].stealHalf(); len(loot) > 0 {
			r.queues[id].push(loot...)
			return true
		}
		// Lost the race to another thief; rescan.
	}
}

// evalSafe runs one evaluation with panic isolation: a recovered panic
// becomes a Fault (reported to OnPanic) instead of killing the process.
func (r *run) evalSafe(ctx context.Context, eval EvalFunc, id, unit int, stolen bool) (fault *Fault, err error) {
	defer func() {
		if v := recover(); v != nil {
			r.amu.Lock()
			r.attempts[unit]++
			f := Fault{Unit: unit, Worker: id, Attempt: r.attempts[unit], Reason: fmt.Sprint(v)}
			r.amu.Unlock()
			if r.pool.OnPanic != nil {
				r.pool.OnPanic(f)
			}
			fault, err = &f, nil
		}
	}()
	return nil, eval(ctx, unit, stolen)
}
