package runner

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"snnfi/internal/obs"
)

// DiskCache is a Cache backed by one JSON file per key, so results
// survive the process that computed them: a killed campaign resumed
// against the same directory recomputes only the missing entries.
//
// Values round-trip through encoding/json, which preserves float64
// exactly (shortest round-trip rendering), so a resumed campaign
// streams byte-identical records. The value type must therefore be
// JSON-codable: exported fields, no cycles.
//
// Writes are safe for concurrent writers — in one process and across
// processes — because Put writes to a private temp file and renames it
// into place (atomic on POSIX), so readers never observe a partial
// entry. A corrupt or unreadable entry degrades to a miss, never an
// error: the worst a damaged cache can do is cost a recomputation.
type DiskCache[T any] struct {
	dir string

	// OnFirstWriteError, when non-nil, is called exactly once — on the
	// first persistence failure — so a long campaign can warn the user
	// the moment resumability degrades instead of at exit. Set it
	// before the cache is used concurrently; Err still reports the
	// error at the end either way.
	OnFirstWriteError func(error)

	// Accounting lives in obs counters (see MemoryCache): Instrument
	// publishes these same atomics, Stats reads them.
	hits      obs.Counter
	misses    obs.Counter
	puts      obs.Counter
	corrupt   obs.Counter
	writeErrs obs.Counter

	mu  sync.Mutex
	err error
}

// NewDiskCache opens (creating if needed) a cache directory.
func NewDiskCache[T any](dir string) (*DiskCache[T], error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &DiskCache[T]{dir: dir}, nil
}

// Dir returns the cache directory.
func (c *DiskCache[T]) Dir() string { return c.dir }

// path maps a key to its entry file. KeyOf digests are already safe
// filenames; anything else (uppercase, separators, overlong) is
// re-hashed so arbitrary keys can never escape the directory.
func (c *DiskCache[T]) path(key string) string {
	safe := key != "" && len(key) <= 128
	for i := 0; safe && i < len(key); i++ {
		ch := key[i]
		safe = ch == '-' || ch == '_' ||
			(ch >= '0' && ch <= '9') || (ch >= 'a' && ch <= 'z')
	}
	if !safe {
		sum := sha256.Sum256([]byte(key))
		key = hex.EncodeToString(sum[:])
	}
	return filepath.Join(c.dir, key+".json")
}

// Get loads the entry for key, if a well-formed one exists. A corrupt
// entry (the file read fine but did not decode, or decoded from a JSON
// null, which holds no value) counts as both a corruption and a miss —
// hits+misses stays the lookup count while the corrupt counter flags
// the damage.
func (c *DiskCache[T]) Get(key string) (T, bool) {
	var v T
	if c == nil {
		return v, false
	}
	data, err := os.ReadFile(c.path(key))
	if err != nil {
		var zero T
		c.misses.Inc()
		return zero, false
	}
	if json.Unmarshal(data, &v) != nil || isNull(data) {
		var zero T
		c.corrupt.Inc()
		c.misses.Inc()
		return zero, false
	}
	c.hits.Inc()
	return v, true
}

// Put persists v under key via temp-file + rename, replacing any
// previous entry. Failures are remembered (see Err) but do not stop
// the campaign — a result that fails to persist is recomputed on
// resume, never lost silently mid-run.
func (c *DiskCache[T]) Put(key string, v T) {
	if c == nil {
		return
	}
	c.puts.Inc()
	data, err := json.Marshal(v)
	if err != nil {
		c.setErr(err)
		return
	}
	tmp, err := os.CreateTemp(c.dir, ".put-*")
	if err != nil {
		c.setErr(err)
		return
	}
	_, werr := tmp.Write(data)
	cerr := tmp.Close()
	if werr == nil {
		werr = cerr
	}
	if werr == nil {
		werr = os.Rename(tmp.Name(), c.path(key))
	}
	if werr != nil {
		os.Remove(tmp.Name())
		c.setErr(werr)
	}
}

// Err reports the first persistence failure, if any. Lookups never
// error (they degrade to misses); this surfaces write problems — a
// full or read-only disk — that would otherwise silently disable
// resumability.
func (c *DiskCache[T]) Err() error {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// Manifest returns the keys of every entry currently held, sorted —
// the campaign-audit view of a cache directory. It lists entry files
// without decoding them, so a corrupt entry may appear here yet still
// degrade to a miss on Get; the manifest answers "what has been
// persisted", not "what is guaranteed well-formed". Keys that were
// re-hashed into safe filenames (see path) appear as their digest.
func (c *DiskCache[T]) Manifest() ([]string, error) {
	if c == nil {
		return nil, nil
	}
	entries, err := os.ReadDir(c.dir)
	if err != nil {
		return nil, err
	}
	var keys []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".json") || strings.HasPrefix(name, ".") {
			continue
		}
		keys = append(keys, strings.TrimSuffix(name, ".json"))
	}
	sort.Strings(keys)
	return keys, nil
}

// Stats reports lookup hits and misses since creation.
func (c *DiskCache[T]) Stats() (hits, misses int64) {
	if c == nil {
		return 0, 0
	}
	return c.hits.Value(), c.misses.Value()
}

// Corrupt reports how many lookups found an entry file that failed to
// decode (each also counted as a miss).
func (c *DiskCache[T]) Corrupt() int64 {
	if c == nil {
		return 0
	}
	return c.corrupt.Value()
}

// WriteErrors reports how many Puts failed to persist.
func (c *DiskCache[T]) WriteErrors() int64 {
	if c == nil {
		return 0
	}
	return c.writeErrs.Value()
}

// Puts reports how many values have been stored (attempted) since
// creation.
func (c *DiskCache[T]) Puts() int64 {
	if c == nil {
		return 0
	}
	return c.puts.Value()
}

// Instrument publishes the cache's counters into r under
// "<name>.hits", "<name>.misses", "<name>.puts", "<name>.corrupt" and
// "<name>.write_errors" — the same atomics Stats/Corrupt/WriteErrors
// read. Nil receiver or registry is a no-op.
func (c *DiskCache[T]) Instrument(r *obs.Registry, name string) {
	if c == nil {
		return
	}
	r.RegisterCounter(name+".hits", &c.hits)
	r.RegisterCounter(name+".misses", &c.misses)
	r.RegisterCounter(name+".puts", &c.puts)
	r.RegisterCounter(name+".corrupt", &c.corrupt)
	r.RegisterCounter(name+".write_errors", &c.writeErrs)
}

func (c *DiskCache[T]) setErr(err error) {
	c.writeErrs.Inc()
	c.mu.Lock()
	first := c.err == nil
	if first {
		c.err = err
	}
	warn := c.OnFirstWriteError
	c.mu.Unlock()
	if first && warn != nil {
		warn(err)
	}
}

// isNull reports whether a JSON document is the literal null. It
// decodes without error into any T, leaving a nil pointer or a zero
// value that would pass for a computed result.
func isNull(data []byte) bool {
	return string(bytes.TrimSpace(data)) == "null"
}
