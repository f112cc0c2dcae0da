// Package runner executes fault-injection campaigns on a worker pool.
//
// A campaign (internal/core's sweeps over attack configurations) is a
// list of independent jobs: each job is built from an attack plan, the
// experiment configuration, and a deterministically derived seed, so a
// job's result depends only on its specification — never on wall-clock
// time, scheduling, or which worker happens to run it. The pool
// exploits that independence three ways:
//
//   - Parallelism. Jobs run on Workers goroutines (GOMAXPROCS by
//     default) while results are collected in job order, so output is
//     byte-identical to serial execution regardless of worker count.
//   - Caching. Jobs carry a content-address (see KeyOf) over their full
//     specification; a Cache returns previously computed results and an
//     in-flight singleflight collapses duplicate jobs within a batch,
//     so shared work (e.g. a campaign's attack-free baseline) is
//     computed exactly once.
//   - Streaming. OnResult observes the completed contiguous prefix in
//     job order (feeding JSONL/CSV sinks, see sink.go) and OnProgress
//     observes every completion as it happens.
//
// Error semantics match serial execution: the error returned is the one
// the lowest-indexed failing job produced, and OnResult never sees a
// result at or beyond the first failing index.
package runner

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"snnfi/internal/obs"
)

// Job is one unit of campaign work.
type Job[T any] struct {
	// Label names the job in progress reports and error messages.
	Label string
	// Key is the content-address of the job's specification: a hash of
	// everything the result depends on (experiment config, attack plan,
	// seeds — see KeyOf). Jobs with equal keys must compute equal
	// results. An empty key disables caching and deduplication.
	Key string
	// Run computes the result. It must be safe to call concurrently
	// with other jobs' Run functions.
	Run func() (T, error)
}

// Progress reports one completed job. Callbacks are serialized but may
// arrive in any job order; Done is the number of jobs finished so far.
type Progress struct {
	Done  int
	Total int
	// Index is the completed job's position in the batch (the order
	// results are collected in), as opposed to Done's completion count.
	Index int
	Label string
	// CacheHit is true when the job's result was not computed by its
	// own Run call: it was served by the cache or by another job with
	// the same key (in-flight or already finished in this batch). The
	// accounting is deterministic — for K duplicate keys in a batch,
	// exactly one job computes and K−1 report CacheHit — regardless of
	// scheduling and of whether a Cache is attached.
	CacheHit bool
	// Elapsed is the time since the batch started, so observers can
	// derive rates and ETAs without their own clock.
	Elapsed time.Duration
}

// Pool runs batches of jobs on a fixed number of workers.
type Pool[T any] struct {
	// Workers is the pool width; ≤0 means runtime.GOMAXPROCS(0).
	Workers int
	// Cache, when non-nil, memoizes results by Job.Key.
	Cache Cache[T]
	// OnProgress, when non-nil, observes every job completion.
	OnProgress func(Progress)
	// OnResult, when non-nil, observes results strictly in job order
	// (the completed contiguous prefix, ending before the first failed
	// job). Returning an error aborts the batch.
	OnResult func(index int, v T, cacheHit bool) error
	// Obs, when non-nil, receives the pool's telemetry: per-job queue
	// and run duration histograms ("<name>.wait", "<name>.run"), job
	// and cache-hit counters ("<name>.jobs", "<name>.hits"), the last
	// batch's worker count ("<name>.workers"), and utilization summed
	// over all batches: busy and capacity (workers × wall) counters
	// ("<name>.busy_ns", "<name>.capacity_ns") and their ratio
	// ("<name>.utilization"). Telemetry
	// never affects results (it observes completions the pool already
	// serializes); a nil registry costs nothing.
	Obs *obs.Registry
	// Name prefixes the pool's metric names in Obs; empty means "pool".
	// Subsystems that own a pool set it so their phases stay separate
	// ("core.cells", "snn.eval", "neuron.sweep").
	Name string
	// Executor, when non-nil, computes the jobs the cache and the
	// in-flight table could not serve; nil means LocalExecutor (run the
	// job in the worker goroutine). The cache/singleflight layers sit
	// in front of it either way, so an executor sees each distinct
	// missed key exactly once per batch.
	Executor Executor[T]
}

// Executor is where a cache-missed job's computation happens. The
// pool owns scheduling, caching, in-flight deduplication and ordered
// collection; the executor owns only the compute, so local goroutines
// and remote workers are the same interface. LocalExecutor (the
// default) calls the job's Run in the worker goroutine; a remote
// executor instead dispatches the job — by its content address — to
// another process or host and returns the fetched result. Execute
// must be safe for concurrent use.
type Executor[T any] interface {
	Execute(j Job[T]) (T, error)
}

// LocalExecutor computes jobs in-process — the seam's identity
// element, and the executor every pool uses unless one is injected.
type LocalExecutor[T any] struct{}

// Execute implements Executor.
func (LocalExecutor[T]) Execute(j Job[T]) (T, error) { return j.Run() }

// flight tracks one computation of a cache key within a batch so
// duplicate jobs wait for the leader instead of recomputing. Entries
// are retained for the whole batch (never deleted), which makes
// duplicate-key accounting deterministic even without a Cache: a
// duplicate dispatched after its leader finished still finds the
// flight and reports a hit, instead of silently recomputing.
type flight[T any] struct {
	done chan struct{}
	v    T
	err  error
}

// Run executes the jobs and returns their results in job order. On
// failure it returns a nil slice and the first failing job's error —
// the same error serial execution would have stopped on, because the
// dispatcher hands out indices in order and stops at the first failure,
// so every job below the reported index has run to completion.
func (p *Pool[T]) Run(jobs []Job[T]) ([]T, error) {
	n := len(jobs)
	if n == 0 {
		return nil, nil
	}
	workers := p.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}

	results := make([]T, n)
	errs := make([]error, n)
	hits := make([]bool, n)
	done := make([]bool, n)

	var (
		mu       sync.Mutex // guards results/errs/hits/done and emission state
		nextEmit int
		emitErr  error
		finished int
	)
	flights := make(map[string]*flight[T])
	var flightMu sync.Mutex

	stop := make(chan struct{})
	var stopOnce sync.Once
	abort := func() { stopOnce.Do(func() { close(stop) }) }

	idx := make(chan int)
	go func() {
		defer close(idx)
		for i := 0; i < n; i++ {
			select {
			case idx <- i:
			case <-stop:
				return
			}
		}
	}()

	// Pool telemetry: instruments are resolved once per batch, and
	// every per-job method below is nil-safe, so a pool without a
	// registry pays only the time.Now calls Progress.Elapsed needs
	// anyway.
	batchStart := time.Now()
	var busyNs atomic.Int64
	name := p.Name
	if name == "" {
		name = "pool"
	}
	var (
		waitHist = p.Obs.Histogram(name + ".wait")
		runHist  = p.Obs.Histogram(name + ".run")
		jobsCnt  = p.Obs.Counter(name + ".jobs")
		hitsCnt  = p.Obs.Counter(name + ".hits")
	)

	var exec Executor[T] = p.Executor
	if exec == nil {
		exec = LocalExecutor[T]{}
	}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				jobStart := time.Now()
				waitHist.Observe(jobStart.Sub(batchStart))
				v, hit, err := p.runOne(exec, jobs[i], flights, &flightMu)
				jobDur := time.Since(jobStart)
				busyNs.Add(int64(jobDur))
				runHist.Observe(jobDur)
				jobsCnt.Inc()
				if hit {
					hitsCnt.Inc()
				}

				mu.Lock()
				results[i], errs[i], hits[i], done[i] = v, err, hit, true
				finished++
				if err != nil {
					abort()
				}
				for nextEmit < n && done[nextEmit] && errs[nextEmit] == nil && emitErr == nil {
					if p.OnResult != nil {
						if e := p.OnResult(nextEmit, results[nextEmit], hits[nextEmit]); e != nil {
							emitErr = fmt.Errorf("runner: result sink at job %d (%s): %w",
								nextEmit, jobs[nextEmit].Label, e)
							abort()
							break
						}
					}
					nextEmit++
				}
				if p.OnProgress != nil {
					p.OnProgress(Progress{
						Done: finished, Total: n, Index: i,
						Label: jobs[i].Label, CacheHit: hit,
						Elapsed: time.Since(batchStart),
					})
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if p.Obs != nil {
		// Utilization is cumulative over every batch the registry has
		// seen under this name: running busy and capacity totals, so a
		// report shows the whole campaign rather than its last batch.
		busy, capacity := p.Obs.Counter(name+".busy_ns"), p.Obs.Counter(name+".capacity_ns")
		busy.Add(busyNs.Load())
		capacity.Add(int64(workers) * int64(time.Since(batchStart)))
		p.Obs.Gauge(name + ".workers").Set(float64(workers))
		if c := capacity.Value(); c > 0 {
			p.Obs.Gauge(name + ".utilization").Set(float64(busy.Value()) / float64(c))
		}
	}

	for i := range errs {
		if errs[i] != nil {
			return nil, errs[i]
		}
	}
	if emitErr != nil {
		return nil, emitErr
	}
	return results, nil
}

// runOne executes a single job through the cache and the in-flight
// deduplication table; exec is where the computation itself happens
// (local by default — see Executor).
func (p *Pool[T]) runOne(exec Executor[T], j Job[T], flights map[string]*flight[T], flightMu *sync.Mutex) (T, bool, error) {
	if j.Key == "" {
		v, err := exec.Execute(j)
		return v, false, err
	}
	if p.Cache != nil {
		if v, ok := p.Cache.Get(j.Key); ok {
			return v, true, nil
		}
	}
	flightMu.Lock()
	if f, ok := flights[j.Key]; ok {
		flightMu.Unlock()
		<-f.done
		if f.err != nil {
			var zero T
			return zero, false, f.err
		}
		return f.v, true, nil
	}
	// Recheck the cache before becoming leader: another Put (a previous
	// batch, a concurrent process sharing a disk cache) may have landed
	// between our lock-free Get above and taking flightMu.
	if p.Cache != nil {
		if v, ok := p.Cache.Get(j.Key); ok {
			flightMu.Unlock()
			return v, true, nil
		}
	}
	f := &flight[T]{done: make(chan struct{})}
	flights[j.Key] = f
	flightMu.Unlock()

	f.v, f.err = exec.Execute(j)
	if f.err == nil && p.Cache != nil {
		p.Cache.Put(j.Key, f.v)
	}
	close(f.done)
	return f.v, false, f.err
}
