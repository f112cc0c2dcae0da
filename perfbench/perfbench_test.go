package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

const testSuite = "../suites/paper.json"

// tinySize keeps every workload to about a second.
var tinySize = size{Images: 6, Neurons: 10, Steps: 20, TrainImages: 40, Batch: 4, Density: 1}

// rep runs one in-process repetition at the tiny size.
func rep(t *testing.T, workload string, seed int64, trace bool, cache string) *repResult {
	t.Helper()
	out := t.TempDir()
	if cache == "" {
		cache = t.TempDir()
	}
	res, err := runRep(repConfig{Workload: workload, Seed: seed, Trace: trace, Suite: testSuite, Out: out, Cache: cache, Size: tinySize})
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	for _, e := range res.Entries {
		if e.Err != "" || len(e.Files) == 0 {
			t.Fatalf("%s %s: err %q, %d artifacts", workload, e.ID, e.Err, len(e.Files))
		}
	}
	return res
}

func digests(res *repResult) map[string]map[string]string {
	out := map[string]map[string]string{}
	for _, e := range res.Entries {
		out[e.ID] = e.Files
	}
	return out
}

// sameDigests checks every entry run of b against a's artifacts.
func sameDigests(t *testing.T, what string, a, b *repResult) {
	t.Helper()
	ref, got := digests(a), digests(b)
	if len(ref) != len(got) {
		t.Fatalf("%s: %d vs %d entries", what, len(ref), len(got))
	}
	for _, e := range b.Entries {
		if !sameFiles(ref[e.ID], e.Files) {
			t.Errorf("%s: %s artifacts differ", what, e.ID)
		}
	}
}

// TestWorkloadsTiny runs every workload at a tiny size, untraced and
// traced: the cache-timing wrapper, the spike sink and the registry must
// leave every artifact byte-identical, and every span's self time must
// be non-negative.
func TestWorkloadsTiny(t *testing.T) {
	for _, w := range []string{"campaign", "circuit", "train-one"} {
		t.Run(w, func(t *testing.T) {
			plain := rep(t, w, 5, false, "")
			traced := rep(t, w, 5, true, "")
			sameDigests(t, "traced vs untraced", plain, traced)
			if plain.WallS <= 0 || plain.SetupS <= 0 || plain.PeakRSSMiB <= 0 {
				t.Errorf("timings not measured: %+v", plain)
			}
			checkSpans(t, traced.Spans)
			for _, m := range perLayer() {
				if v, ok := traced.Layers[m.name]; ok && v < 0 {
					t.Errorf("%s = %g", m.name, v)
				}
			}
		})
	}
}

// TestWarmReplayMatchesCold replays the campaign, with a fresh Runner
// and memory cache, against the disk cache a cold pass filled: same
// artifacts, and no network trained, the baseline included.
func TestWarmReplayMatchesCold(t *testing.T) {
	cache := t.TempDir()
	cold := rep(t, "campaign", 5, false, cache)
	if cold.Trained == 0 {
		t.Fatal("the cold pass trained nothing")
	}
	for _, trace := range []bool{false, true} {
		warm := rep(t, "campaign", 5, trace, cache)
		sameDigests(t, "warm vs cold", cold, warm)
		if warm.Trained != 0 {
			t.Errorf("trained %d networks on a warm cache", warm.Trained)
		}
		if warm.Work["cells"] != cold.Work["cells"] {
			t.Errorf("served %g cells, the cold pass completed %g", warm.Work["cells"], cold.Work["cells"])
		}
	}
}

func checkSpans(t *testing.T, spans []span) {
	t.Helper()
	if len(spans) == 0 || spans[0].Name != "run" {
		t.Fatalf("no run span: %v", spans)
	}
	for _, s := range spans {
		if s.Self < 0 || s.End < s.Start {
			t.Errorf("span %s: %+v", s.Name, s)
		}
	}
}

// TestSelfTimeOverlappingChildren: concurrent children are counted once.
func TestSelfTimeOverlappingChildren(t *testing.T) {
	parent := span{ID: 1, Start: 0, End: 100}
	kids := []span{{Start: 10, End: 50}, {Start: 30, End: 70}, {Start: 90, End: 120}}
	if got := covered(parent, kids); got != 70 {
		t.Fatalf("covered = %g, want 70", got)
	}
}

// TestCheckCountsFailures: an entry that errors, mismatches its
// reference or writes nothing is failed.
func TestCheckCountsFailures(t *testing.T) {
	b := &bench{refs: map[string]map[string]string{"A": {"a.csv": "1"}}}
	b.check(&repResult{Entries: []entryResult{
		{ID: "A", Files: map[string]string{"a.csv": "1"}},
		{ID: "A", Files: map[string]string{"a.csv": "2"}},
		{ID: "B", Files: map[string]string{"b.csv": "1"}},
		{ID: "B", Files: map[string]string{"b.csv": "1"}, Err: "boom"},
		{ID: "C"},
	}})
	if b.attempted != 5 || b.failed != 3 {
		t.Fatalf("attempted %d failed %d, want 5 and 3", b.attempted, b.failed)
	}
}

// TestDensifyKeepsReferences: denser axes keep every original point, and
// each delta-pc column still references the same x value.
func TestDensifyKeepsReferences(t *testing.T) {
	w, _ := workloadByName("circuit")
	sparse, err := loadSuite(testSuite, w, 1, size{Density: 1})
	if err != nil {
		t.Fatal(err)
	}
	dense, err := loadSuite(testSuite, w, 1, size{Density: 3})
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range dense.Entries {
		s := sparse.Entries[i]
		for j, ref := range e.Circuit {
			if n := len(s.Circuit[j].Xs); n > 1 && len(ref.Xs) != 3*(n-1)+1 {
				t.Errorf("%s series %d: %d points from %d", e.ID, j, len(ref.Xs), n)
			}
		}
		if e.Output == nil {
			continue
		}
		for k, c := range e.Output.Columns {
			if c.From != "delta-pc" {
				continue
			}
			ref := c.Series
			if c.RefSeries != nil {
				ref = *c.RefSeries
			}
			old := s.Output.Columns[k]
			if got, want := e.Circuit[ref].Xs[c.RefIndex], s.Circuit[ref].Xs[old.RefIndex]; got != want {
				t.Errorf("%s column %d: reference x %g, want %g", e.ID, k, got, want)
			}
		}
	}
}

// TestMetricsMatchBenchmarkJSON: the driver prints exactly the metrics
// BENCHMARK.json declares, under valid names.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	seen := map[string]bool{}
	compare := func(kind string, got []metric, want []struct{ Name, Unit, Better string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: driver has %d metrics, BENCHMARK.json %d", kind, len(got), len(want))
		}
		for i, m := range got {
			if !valid.MatchString(m.name) || seen[m.name] {
				t.Errorf("%s: bad or repeated name %q", kind, m.name)
			}
			seen[m.name] = true
			if w := want[i]; w.Name != m.name || w.Unit != m.unit || w.Better != m.better {
				t.Errorf("%s %d: driver %v, BENCHMARK.json %+v", kind, i, m, w)
			}
		}
	}
	compare("end_to_end", endToEnd, spec.EndToEnd)
	compare("per_layer", perLayer(), spec.PerLayer)
	for _, w := range spec.Workloads {
		if _, err := workloadByName(w.Name); err != nil {
			t.Error(err)
		}
	}
}
