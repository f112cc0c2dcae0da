package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"snnfi/internal/runner"
)

// span is one timed interval of a traced repetition: the run, an entry,
// or one of the driver's calls into a layer. Times are microseconds
// since the repetition started; Parent is 0 for the root.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
	Self   float64 `json:"self_us"`
}

// tracer keeps a repetition's spans in memory until it ends. A nil
// tracer records nothing, so untraced repetitions run the same code.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span

	// current is the span that program callbacks (cache lookups made by
	// pool workers) are attributed to: the entry the driver is running.
	current atomic.Int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() float64 { return float64(time.Since(t.t0).Nanoseconds()) / 1e3 }

// start opens a span under parent and returns its ID.
func (t *tracer) start(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: now})
	return id
}

// end closes the span opened as id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := t.now()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// enter makes id the parent of spans opened from program callbacks.
func (t *tracer) enter(id int) {
	if t != nil {
		t.current.Store(int64(id))
	}
}

// currentSpan is the span set by enter.
func (t *tracer) currentSpan() int {
	if t == nil {
		return 0
	}
	return int(t.current.Load())
}

// finish returns the spans with their self times: a span's duration
// minus the part of it its children cover (children may overlap each
// other when pool workers run them concurrently).
func (t *tracer) finish() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range t.spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	out := append([]span(nil), t.spans...)
	for i := range out {
		out[i].Self = out[i].End - out[i].Start - covered(out[i], children[out[i].ID])
	}
	return out
}

// covered is the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, children []span) float64 {
	sort.Slice(children, func(i, j int) bool { return children[i].Start < children[j].Start })
	total, reach := 0.0, parent.Start
	for _, c := range children {
		lo, hi := max(c.Start, reach), min(c.End, parent.End)
		if hi > lo {
			total += hi - lo
			reach = hi
		}
	}
	return total
}

// cacheStats totals the lookups and stores of every cache the driver
// hands to the program.
type cacheStats struct {
	gets, hits, puts atomic.Int64
	getNs, putNs     atomic.Int64
}

// timedCache times each Get and Put of the cache it wraps and records a
// span per call under the tracer's current span.
type timedCache[T any] struct {
	inner runner.Cache[T]
	stats *cacheStats
	tr    *tracer
}

func (c timedCache[T]) Get(key string) (T, bool) {
	id := c.tr.start("runner.cache.get", c.tr.currentSpan())
	start := time.Now()
	v, ok := c.inner.Get(key)
	c.stats.getNs.Add(int64(time.Since(start)))
	c.tr.end(id)
	c.stats.gets.Add(1)
	if ok {
		c.stats.hits.Add(1)
	}
	return v, ok
}

func (c timedCache[T]) Put(key string, v T) {
	id := c.tr.start("runner.cache.put", c.tr.currentSpan())
	start := time.Now()
	c.inner.Put(key, v)
	c.stats.putNs.Add(int64(time.Since(start)))
	c.tr.end(id)
	c.stats.puts.Add(1)
}

// spikeSink totals the excitatory spikes of the network sweep records
// it receives (one per cell, computed or served).
type spikeSink struct {
	mu      sync.Mutex
	records int64
	spikes  float64
}

func (s *spikeSink) Write(rec runner.Record) error {
	for _, f := range rec {
		if v, ok := f.Value.(float64); ok && f.Name == "total_spikes" {
			s.mu.Lock()
			s.records++
			s.spikes += v
			s.mu.Unlock()
		}
	}
	return nil
}

func (s *spikeSink) Close() error { return nil }
