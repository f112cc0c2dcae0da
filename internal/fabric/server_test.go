package fabric

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"snnfi/internal/obs"
	"snnfi/internal/runner"
)

type cell struct {
	Name string  `json:"name"`
	Acc  float64 `json:"acc"`
}

// newTestServer serves a fresh store and returns its directory and URL.
func newTestServer(t *testing.T) (dir, url string) {
	t.Helper()
	dir = t.TempDir()
	s, err := NewServer(dir, obs.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	t.Cleanup(srv.Close)
	return dir, srv.URL
}

func newClient[T any](t *testing.T, url, tier string) *runner.HTTPCache[T] {
	t.Helper()
	c := runner.NewHTTPCache[T](url, tier)
	c.Backoff = time.Millisecond
	return c
}

// TestStoreRoundTrip drives the real client (runner.HTTPCache) against
// the real server: the integration the two in-package unit suites
// stub out.
func TestStoreRoundTrip(t *testing.T) {
	dir, url := newTestServer(t)
	c := newClient[cell](t, url, "network")

	if _, ok := c.Get("k1"); ok {
		t.Fatal("empty store must miss")
	}
	want := cell{Name: "n", Acc: 0.8125}
	c.Put("k1", want)
	got, ok := c.Get("k1")
	if !ok || got != want {
		t.Fatalf("round trip = %+v, %v; want %+v", got, ok, want)
	}
	keys, err := c.Manifest()
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 1 || keys[0] != "k1" {
		t.Fatalf("manifest = %v, want [k1]", keys)
	}
	if c.Err() != nil {
		t.Fatalf("unexpected persistence error: %v", c.Err())
	}

	// The store's layout IS the -cache-dir layout: a plain DiskCache
	// over the same tier subdirectory reads cells the fabric wrote.
	dc, err := runner.NewDiskCache[cell](filepath.Join(dir, "network"))
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := dc.Get("k1"); !ok || v != want {
		t.Fatalf("disk view of the store = %+v, %v; want %+v", v, ok, want)
	}

	// Tiers are independent namespaces.
	if _, ok := newClient[cell](t, url, "circuit").Get("k1"); ok {
		t.Fatal("tier namespaces must not alias")
	}
}

// TestStoreRejectsBadRequests: malformed cells and tier names never
// reach disk; an invalid-JSON or null PUT is a client error, not a
// poisoned entry every future Get trips over.
func TestStoreRejectsBadRequests(t *testing.T) {
	_, url := newTestServer(t)

	// A JSON null parses but is no value: clients would decode it as a
	// nil result.
	for key, body := range map[string]string{"bad": "{not json", "null": " null\n"} {
		req, _ := http.NewRequest(http.MethodPut, url+"/cell/network/"+key, strings.NewReader(body))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("PUT %q: %s, want 400", body, resp.Status)
		}
		if _, ok := newClient[cell](t, url, "network").Get(key); ok {
			t.Fatalf("rejected cell %q must not be stored", body)
		}
	}

	for _, path := range []string{"/cell/..%2Fescape/k", "/manifest/No.Such.Tier"} {
		resp, err := http.Get(url + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest && resp.StatusCode != http.StatusNotFound {
			t.Fatalf("%s: %s, want rejection", path, resp.Status)
		}
	}
}

// TestStoreHealthAndMetrics: the health probe names the protocol both
// sides embed, and /metrics exports the request counters plus the
// per-tier disk counters.
func TestStoreHealthAndMetrics(t *testing.T) {
	_, url := newTestServer(t)
	c := newClient[cell](t, url, "network")
	c.Put("k", cell{Name: "v"})
	c.Get("k")
	c.Get("absent")

	var health struct {
		OK       bool   `json:"ok"`
		Protocol string `json:"protocol"`
	}
	getJSON(t, url+"/healthz", &health)
	if !health.OK || health.Protocol != runner.StoreProtocol {
		t.Fatalf("health = %+v, want ok with protocol %q", health, runner.StoreProtocol)
	}

	var snap obs.Snapshot
	getJSON(t, url+"/metrics", &snap)
	if snap.Counters["store.gets"] != 2 || snap.Counters["store.puts"] != 1 {
		t.Fatalf("request counters = %v, want 2 gets / 1 put", snap.Counters)
	}
	if snap.Counters["store.disk.network.hits"] != 1 || snap.Counters["store.disk.network.misses"] != 1 {
		t.Fatalf("disk counters = %v, want 1 hit / 1 miss", snap.Counters)
	}
	if snap.Histograms["store.get"].Count != 2 {
		t.Fatalf("store.get histogram count = %d, want 2", snap.Histograms["store.get"].Count)
	}
}

// TestConcurrentPutsSameKey: many writers racing one content address
// (every worker that missed it computes the identical value) must end
// with a readable, uncorrupted cell and no write errors.
func TestConcurrentPutsSameKey(t *testing.T) {
	_, url := newTestServer(t)
	done := make(chan *runner.HTTPCache[cell], 8)
	for i := 0; i < 8; i++ {
		go func() {
			c := newClient[cell](t, url, "network")
			for j := 0; j < 10; j++ {
				c.Put("hot", cell{Name: "same", Acc: 0.5})
			}
			done <- c
		}()
	}
	for i := 0; i < 8; i++ {
		if c := <-done; c.Err() != nil {
			t.Fatalf("racing writer failed: %v", c.Err())
		}
	}
	c := newClient[cell](t, url, "network")
	if v, ok := c.Get("hot"); !ok || v != (cell{Name: "same", Acc: 0.5}) {
		t.Fatalf("racing writers left %+v, %v", v, ok)
	}
}

func getJSON(t *testing.T, url string, v any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatal(err)
	}
}
