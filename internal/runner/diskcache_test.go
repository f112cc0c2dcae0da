package runner

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
)

// cachedResult mimics a campaign result: nested pointer, floats that
// must round-trip exactly.
type cachedResult struct {
	Name  string
	Acc   float64
	Inner *cachedResult
}

func TestDiskCacheRoundTrip(t *testing.T) {
	dir := t.TempDir()
	c, err := NewDiskCache[*cachedResult](dir)
	if err != nil {
		t.Fatal(err)
	}
	want := &cachedResult{Name: "attack", Acc: 0.1 + 0.2, Inner: &cachedResult{Name: "base", Acc: 1.0 / 3.0}}
	key := KeyOf("round-trip")
	if _, ok := c.Get(key); ok {
		t.Fatal("empty cache must miss")
	}
	c.Put(key, want)
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	got, ok := c.Get(key)
	if !ok {
		t.Fatal("warm cache must hit")
	}
	if got.Name != want.Name || got.Acc != want.Acc || got.Inner.Acc != want.Inner.Acc {
		t.Fatalf("round trip mutated the value: %+v vs %+v", got, want)
	}

	// A second cache over the same directory is a fresh process: the
	// entry must still be there, bit-exact floats included.
	c2, err := NewDiskCache[*cachedResult](dir)
	if err != nil {
		t.Fatal(err)
	}
	got2, ok := c2.Get(key)
	if !ok {
		t.Fatal("cold-process open must hit the persisted entry")
	}
	if got2.Acc != want.Acc || got2.Inner.Acc != want.Inner.Acc {
		t.Fatalf("cross-process float drift: %v vs %v", got2, want)
	}
	hits, misses := c2.Stats()
	if hits != 1 || misses != 0 {
		t.Fatalf("stats = %d/%d, want 1 hit 0 misses", hits, misses)
	}
}

func TestDiskCacheCorruptEntryIsMiss(t *testing.T) {
	dir := t.TempDir()
	c, err := NewDiskCache[*cachedResult](dir)
	if err != nil {
		t.Fatal(err)
	}
	key := KeyOf("corrupt")
	c.Put(key, &cachedResult{Name: "x"})
	entries, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil || len(entries) != 1 {
		t.Fatalf("want one entry file, got %v (%v)", entries, err)
	}
	// An entry truncated mid-JSON (a crash mid-write outside the rename
	// protocol), and a JSON null, which decodes without error into a
	// nil pointer a campaign would score against.
	for i, body := range []string{`{"Name":"x`, "null\n"} {
		if err := os.WriteFile(entries[0], []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if v, ok := c.Get(key); ok {
			t.Fatalf("corrupt entry %q must degrade to a miss, got hit %v", body, v)
		}
		if got := c.Corrupt(); got != int64(i+1) {
			t.Fatalf("after %q: corrupt = %d, want %d", body, got, i+1)
		}
	}
}

// FuzzDiskCacheGet: whatever bytes a cell file holds — truncated,
// corrupt, hostile — Get either misses or returns a non-nil value.
func FuzzDiskCacheGet(f *testing.F) {
	for _, seed := range []string{
		`{"Name":"attack","Acc":0.30000000000000004,"Inner":{"Name":"base","Acc":0.3333333333333333,"Inner":null}}`,
		`{"Name":"x`, `null`, " null\n", `{}`, `[]`, `0`, `"s"`, ``,
	} {
		f.Add([]byte(seed))
	}
	c, err := NewDiskCache[*cachedResult](f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	key := KeyOf("fuzz")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(c.path(key), data, 0o644); err != nil {
			t.Fatal(err)
		}
		if v, ok := c.Get(key); ok && v == nil {
			t.Fatalf("Get hit with a nil value for file %q", data)
		}
	})
}

// TestDiskCacheUnsafeKey: keys that are not well-formed digests are
// re-hashed rather than used as paths.
func TestDiskCacheUnsafeKey(t *testing.T) {
	dir := t.TempDir()
	c, err := NewDiskCache[string](dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"../escape", "a/b", "UPPER", "", "dot.dot"} {
		c.Put(key, "v-"+key)
		if got, ok := c.Get(key); !ok || got != "v-"+key {
			t.Fatalf("key %q did not round-trip (got %q, %v)", key, got, ok)
		}
	}
	// Nothing may have been written outside the cache directory.
	if _, err := os.Stat(filepath.Join(filepath.Dir(dir), "escape.json")); !os.IsNotExist(err) {
		t.Fatalf("unsafe key escaped the cache directory: %v", err)
	}
}

// TestDiskCacheConcurrentPut exercises the temp-file/rename protocol
// under -race: concurrent writers to the same and different keys, with
// readers interleaved, must never observe a partial entry.
func TestDiskCacheConcurrentPut(t *testing.T) {
	c, err := NewDiskCache[*cachedResult](t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const writers = 16
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				shared := KeyOf("shared", i)
				own := KeyOf("own", w, i)
				c.Put(shared, &cachedResult{Name: "shared", Acc: float64(i)})
				c.Put(own, &cachedResult{Name: fmt.Sprintf("w%d", w), Acc: float64(i)})
				if v, ok := c.Get(shared); ok && v.Name != "shared" {
					t.Errorf("partial entry observed: %+v", v)
				}
			}
		}(w)
	}
	wg.Wait()
	if err := c.Err(); err != nil {
		t.Fatal(err)
	}
	for w := 0; w < writers; w++ {
		for i := 0; i < 20; i++ {
			if v, ok := c.Get(KeyOf("own", w, i)); !ok || v.Acc != float64(i) {
				t.Fatalf("writer %d entry %d lost (%v, %v)", w, i, v, ok)
			}
		}
	}
}

func TestTieredWriteThroughAndPromotion(t *testing.T) {
	fast := NewMemoryCache[string]()
	slow := NewMemoryCache[string]()
	c := NewTiered[string](fast, slow)

	c.Put("k", "v")
	if _, ok := fast.Get("k"); !ok {
		t.Fatal("Put must write through to the fast tier")
	}
	if _, ok := slow.Get("k"); !ok {
		t.Fatal("Put must write through to the slow tier")
	}

	// A slow-only entry (written by another process) is served and
	// promoted.
	slow.Put("cold", "resume")
	if v, ok := c.Get("cold"); !ok || v != "resume" {
		t.Fatalf("slow-tier entry not served: %q %v", v, ok)
	}
	if v, ok := fast.Get("cold"); !ok || v != "resume" {
		t.Fatalf("slow-tier hit not promoted: %q %v", v, ok)
	}

	if _, ok := c.Get("absent"); ok {
		t.Fatal("miss in both tiers must miss")
	}
}

// TestDeriveSeedAddressFree: the canonical rendering makes seeds
// independent of where discriminators are allocated — two structurally
// equal pointer arguments derive the same seed in any process, which
// %#v (hex pointer addresses) did not guarantee.
func TestDeriveSeedAddressFree(t *testing.T) {
	type spec struct {
		Plan *cachedResult
		X    float64
	}
	a := spec{Plan: &cachedResult{Name: "p", Acc: 0.5}, X: 1}
	b := spec{Plan: &cachedResult{Name: "p", Acc: 0.5}, X: 1}
	if DeriveSeed(7, a) != DeriveSeed(7, b) {
		t.Fatal("structurally equal specs must derive equal seeds")
	}
	c := spec{Plan: &cachedResult{Name: "q", Acc: 0.5}, X: 1}
	if DeriveSeed(7, a) == DeriveSeed(7, c) {
		t.Fatal("distinct nested values must derive distinct seeds")
	}
}

func TestDiskCacheManifest(t *testing.T) {
	dir := t.TempDir()
	c, err := NewDiskCache[*cachedResult](dir)
	if err != nil {
		t.Fatal(err)
	}
	keys, err := c.Manifest()
	if err != nil || len(keys) != 0 {
		t.Fatalf("empty cache manifest = %v, %v", keys, err)
	}
	// KeyOf digests keep their key as the filename stem; arbitrary keys
	// appear re-hashed (Manifest lists what the directory holds — the
	// digest-stable addressing the campaign audit relies on).
	kA, kB := KeyOf("cell-a"), KeyOf("cell-b")
	c.Put(kB, &cachedResult{Name: "b"})
	c.Put(kA, &cachedResult{Name: "a"})
	// Junk the manifest must ignore: a temp file mid-Put, a stray
	// non-entry file, a subdirectory.
	if err := os.WriteFile(filepath.Join(dir, ".put-12345"), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "README"), []byte("not an entry"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(dir, "sub.json"), 0o755); err != nil {
		t.Fatal(err)
	}
	keys, err = c.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	wantKeys := []string{kA, kB}
	sort.Strings(wantKeys)
	if len(keys) != 2 || keys[0] != wantKeys[0] || keys[1] != wantKeys[1] {
		t.Fatalf("manifest = %v, want sorted %v", keys, wantKeys)
	}
	// A nil cache (no -cache-dir) audits as empty, not as an error.
	var nilCache *DiskCache[*cachedResult]
	keys, err = nilCache.Manifest()
	if err != nil || keys != nil {
		t.Fatalf("nil cache manifest = %v, %v", keys, err)
	}
}
