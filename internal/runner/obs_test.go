package runner

import (
	"errors"
	"math"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"snnfi/internal/obs"
)

// TestDedupHitAccountingWithoutCache pins the singleflight accounting
// contract: for K jobs sharing a key, exactly one computes and K−1
// report CacheHit — with no Cache attached and at worker count 1,
// where every duplicate is dispatched only after its leader finished.
// (Before flights were retained for the batch, this case silently
// recomputed every duplicate and reported zero hits.)
func TestDedupHitAccountingWithoutCache(t *testing.T) {
	const n = 8
	var runs atomic.Int64
	jobs := make([]Job[int], n)
	for i := range jobs {
		jobs[i] = Job[int]{
			Label: "shared",
			Key:   "dup-key",
			Run: func() (int, error) {
				runs.Add(1)
				return 7, nil
			},
		}
	}
	for _, workers := range []int{1, 4} {
		runs.Store(0)
		var mu sync.Mutex
		hits := 0
		p := &Pool[int]{
			Workers: workers,
			OnProgress: func(pr Progress) {
				mu.Lock()
				defer mu.Unlock()
				if pr.CacheHit {
					hits++
				}
			},
		}
		got, err := p.Run(jobs)
		if err != nil {
			t.Fatal(err)
		}
		if r := runs.Load(); r != 1 {
			t.Fatalf("workers=%d: duplicate key computed %d times, want 1", workers, r)
		}
		if hits != n-1 {
			t.Fatalf("workers=%d: %d cache hits reported, want %d", workers, hits, n-1)
		}
		for i, v := range got {
			if v != 7 {
				t.Fatalf("result[%d] = %d, want 7", i, v)
			}
		}
	}
}

// TestDedupLeaderErrorPropagates: waiters on a failed leader get the
// leader's error, not a stale value, and report no hit.
func TestDedupLeaderErrorPropagates(t *testing.T) {
	boom := errors.New("boom")
	jobs := make([]Job[int], 4)
	for i := range jobs {
		jobs[i] = Job[int]{Label: "bad", Key: "bad-key", Run: func() (int, error) { return 0, boom }}
	}
	hits := 0
	var mu sync.Mutex
	p := &Pool[int]{Workers: 1, OnProgress: func(pr Progress) {
		mu.Lock()
		defer mu.Unlock()
		if pr.CacheHit {
			hits++
		}
	}}
	if _, err := p.Run(jobs); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the leader's error", err)
	}
	if hits != 0 {
		t.Fatalf("failed duplicates reported %d hits, want 0", hits)
	}
}

func TestProgressIndexAndElapsed(t *testing.T) {
	var mu sync.Mutex
	seen := map[int]bool{}
	p := &Pool[int]{
		Workers: 3,
		OnProgress: func(pr Progress) {
			mu.Lock()
			defer mu.Unlock()
			if pr.Elapsed < 0 {
				t.Errorf("Elapsed = %v, want ≥ 0", pr.Elapsed)
			}
			if pr.Index < 0 || pr.Index >= pr.Total {
				t.Errorf("Index = %d out of range [0,%d)", pr.Index, pr.Total)
			}
			seen[pr.Index] = true
		},
	}
	jobs := make([]Job[int], 6)
	for i := range jobs {
		i := i
		jobs[i] = Job[int]{Run: func() (int, error) {
			time.Sleep(time.Millisecond)
			return i, nil
		}}
	}
	if _, err := p.Run(jobs); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 6 {
		t.Fatalf("saw %d distinct indices, want 6 (each job reported once)", len(seen))
	}
}

func TestPoolTelemetry(t *testing.T) {
	reg := obs.NewRegistry()
	cache := NewMemoryCache[int]()
	cache.Put("k1", 41)
	jobs := []Job[int]{
		{Label: "hit", Key: "k1", Run: func() (int, error) { t.Error("cached job ran"); return 0, nil }},
		{Label: "miss", Key: "k2", Run: func() (int, error) {
			time.Sleep(2 * time.Millisecond)
			return 42, nil
		}},
	}
	p := &Pool[int]{Workers: 2, Cache: cache, Obs: reg, Name: "test.pool"}
	if _, err := p.Run(jobs); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("test.pool.jobs").Value(); got != 2 {
		t.Fatalf("jobs counter = %d, want 2", got)
	}
	if got := reg.Counter("test.pool.hits").Value(); got != 1 {
		t.Fatalf("hits counter = %d, want 1", got)
	}
	if got := reg.Histogram("test.pool.run").Count(); got != 2 {
		t.Fatalf("run histogram count = %d, want 2", got)
	}
	if got := reg.Histogram("test.pool.wait").Count(); got != 2 {
		t.Fatalf("wait histogram count = %d, want 2", got)
	}
	if got := reg.Gauge("test.pool.workers").Value(); got != 2 {
		t.Fatalf("workers gauge = %g, want 2", got)
	}
	util := reg.Gauge("test.pool.utilization").Value()
	if util <= 0 || util > 1 {
		t.Fatalf("utilization = %g, want (0,1]", util)
	}
	// The run histogram must account for the slow job.
	if s := reg.Histogram("test.pool.run").Summary(); s.MaxMs < 1 {
		t.Fatalf("run max = %gms, want ≥ 1ms", s.MaxMs)
	}
}

// TestPoolUtilizationCumulative: the utilization gauge covers every
// batch run under its name, not just the last one. A saturated batch
// (one worker, always busy) followed by a half-idle one (two workers,
// one job much shorter) must report their combined busy time over
// their combined capacity.
func TestPoolUtilizationCumulative(t *testing.T) {
	reg := obs.NewRegistry()
	sleep := func(d time.Duration) Job[int] {
		return Job[int]{Label: d.String(), Run: func() (int, error) { time.Sleep(d); return 0, nil }}
	}
	var capacity time.Duration
	for _, b := range []struct {
		workers int
		jobs    []Job[int]
	}{
		{1, []Job[int]{sleep(60 * time.Millisecond)}},
		{2, []Job[int]{sleep(60 * time.Millisecond), sleep(0)}},
	} {
		p := &Pool[int]{Workers: b.workers, Obs: reg, Name: "test.pool"}
		start := time.Now()
		if _, err := p.Run(b.jobs); err != nil {
			t.Fatal(err)
		}
		capacity += time.Duration(b.workers) * time.Since(start)
	}
	want := float64(reg.Histogram("test.pool.run").Sum()) / float64(capacity)
	got := reg.Gauge("test.pool.utilization").Value()
	if math.Abs(got-want) > 0.05 {
		t.Fatalf("utilization = %.3f, want the combined ratio %.3f (the last batch alone is ≈0.5)", got, want)
	}
}

// TestTieredPromotionCounts pins the no-double-counting contract: a
// fast-miss/slow-hit lookup counts exactly one slow hit, one fast
// miss and one fast put (the promotion) — and the promoted entry then
// serves from the fast tier without touching the slow one again.
func TestTieredPromotionCounts(t *testing.T) {
	fast := NewMemoryCache[int]()
	slow, err := NewDiskCache[int](t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	tiered := NewTiered[int](fast, slow)
	tiered.Put("k", 9) // 1 fast put, 1 slow put

	// Clear the fast tier to force promotion.
	fast2 := NewMemoryCache[int]()
	tiered = NewTiered[int](fast2, slow)
	if v, ok := tiered.Get("k"); !ok || v != 9 {
		t.Fatalf("get = %d,%v want 9,true", v, ok)
	}
	if h, m := slow.Stats(); h != 1 || m != 0 {
		t.Fatalf("slow stats = %d hits/%d misses, want exactly 1/0", h, m)
	}
	if h, m := fast2.Stats(); h != 0 || m != 1 {
		t.Fatalf("fast stats = %d hits/%d misses, want 0/1", h, m)
	}
	if p := fast2.Puts(); p != 1 {
		t.Fatalf("fast puts = %d, want exactly 1 (the promotion)", p)
	}
	if p := slow.Puts(); p != 1 {
		t.Fatalf("slow puts = %d, want 1 (no write-back on promotion)", p)
	}
	// Second lookup: fast tier serves, slow untouched.
	if _, ok := tiered.Get("k"); !ok {
		t.Fatal("promoted entry must hit")
	}
	if h, _ := slow.Stats(); h != 1 {
		t.Fatalf("slow hits = %d after promoted lookup, want still 1", h)
	}
	if h, _ := fast2.Stats(); h != 1 {
		t.Fatalf("fast hits = %d, want 1", h)
	}
}

// TestTieredRegistryMatchesStats hammers an instrumented tiered cache
// from many goroutines (run under -race in CI) and then requires the
// registry's exported counters to equal what Stats() reports — they
// are the same atomics, so any divergence is a wiring bug.
func TestTieredRegistryMatchesStats(t *testing.T) {
	reg := obs.NewRegistry()
	fast := NewMemoryCache[int]()
	slow, err := NewDiskCache[int](t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	fast.Instrument(reg, "cache.fast")
	slow.Instrument(reg, "cache.slow")
	tiered := NewTiered[int](fast, slow)

	var wg sync.WaitGroup
	keys := []string{"a", "b", "c", "d"}
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := keys[(w+i)%len(keys)]
				if _, ok := tiered.Get(k); !ok {
					tiered.Put(k, i)
				}
			}
		}(w)
	}
	wg.Wait()

	snap := reg.Snapshot()
	fh, fm := fast.Stats()
	sh, sm := slow.Stats()
	checks := []struct {
		name string
		want int64
	}{
		{"cache.fast.hits", fh},
		{"cache.fast.misses", fm},
		{"cache.fast.puts", fast.Puts()},
		{"cache.slow.hits", sh},
		{"cache.slow.misses", sm},
		{"cache.slow.puts", slow.Puts()},
		{"cache.slow.corrupt", slow.Corrupt()},
		{"cache.slow.write_errors", slow.WriteErrors()},
	}
	for _, c := range checks {
		if got := snap.Counters[c.name]; got != c.want {
			t.Errorf("registry %s = %d, Stats says %d", c.name, got, c.want)
		}
	}
	// Sanity: every lookup is either a hit or a miss on each consulted
	// tier; fast sees all 1600 lookups.
	if fh+fm != 1600 {
		t.Fatalf("fast hits+misses = %d, want 1600", fh+fm)
	}
}

func TestDiskCacheCorruptCounter(t *testing.T) {
	dir := t.TempDir()
	c, err := NewDiskCache[int](dir)
	if err != nil {
		t.Fatal(err)
	}
	c.Put("good", 1)
	if err := os.WriteFile(filepath.Join(dir, "bad.json"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Get("good"); !ok {
		t.Fatal("good entry must hit")
	}
	if _, ok := c.Get("bad"); ok {
		t.Fatal("corrupt entry must miss")
	}
	if _, ok := c.Get("absent"); ok {
		t.Fatal("absent entry must miss")
	}
	if got := c.Corrupt(); got != 1 {
		t.Fatalf("corrupt = %d, want 1 (absent entries are plain misses)", got)
	}
	if h, m := c.Stats(); h != 1 || m != 2 {
		t.Fatalf("stats = %d/%d, want 1 hit, 2 misses (corrupt counts as a miss)", h, m)
	}
}

func TestDiskCacheOnFirstWriteError(t *testing.T) {
	dir := t.TempDir()
	c, err := NewDiskCache[int](dir)
	if err != nil {
		t.Fatal(err)
	}
	var warned atomic.Int64
	c.OnFirstWriteError = func(err error) {
		if err == nil {
			t.Error("warning callback got nil error")
		}
		warned.Add(1)
	}
	// Make the directory unwritable so CreateTemp fails. Skip as root,
	// where permission bits don't bind.
	if os.Geteuid() == 0 {
		t.Skip("running as root; cannot provoke a write error via permissions")
	}
	if err := os.Chmod(dir, 0o500); err != nil {
		t.Fatal(err)
	}
	defer os.Chmod(dir, 0o755)
	c.Put("k", 1)
	c.Put("k2", 2)
	if warned.Load() != 1 {
		t.Fatalf("warning fired %d times over 2 failed puts, want exactly 1", warned.Load())
	}
	if c.Err() == nil {
		t.Fatal("Err must report the failure")
	}
	if c.WriteErrors() != 2 {
		t.Fatalf("write errors = %d, want 2", c.WriteErrors())
	}
}

func TestChainProgress(t *testing.T) {
	if ChainProgress(nil, nil) != nil {
		t.Fatal("all-nil chain must collapse to nil")
	}
	var a, b int
	fn := ChainProgress(func(Progress) { a++ }, nil, func(Progress) { b++ })
	fn(Progress{})
	if a != 1 || b != 1 {
		t.Fatalf("chain called a=%d b=%d, want 1/1", a, b)
	}
}

func TestProgressLineNilAndNonTTY(t *testing.T) {
	var l *ProgressLine
	l.Observe(Progress{Done: 1, Total: 2}) // must not panic
	l.Finish()
	f, err := os.CreateTemp(t.TempDir(), "notatty")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if NewProgressLine(f, true) != nil {
		t.Fatal("a regular file is not a terminal")
	}
	if NewProgressLine(nil, true) != nil {
		t.Fatal("nil file must disable the line")
	}
}
