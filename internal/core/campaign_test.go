package core

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"snnfi/internal/runner"
	"snnfi/internal/snn"
)

// tinyExperiment builds a small but non-degenerate campaign: big
// enough that parallel training has real work per cell, small enough
// that a handful of sweeps stays in test budget.
func tinyExperiment(t *testing.T, nImages int) *Experiment {
	t.Helper()
	cfg := snn.DefaultConfig()
	cfg.NExc, cfg.NInh = 16, 16
	cfg.Steps = 60
	e, err := NewExperiment("", nImages, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// layerGrid runs the Fig. 8a/8b grid — threshold change × layer
// coverage — on one neuron layer: Attack2 (excitatory) or Attack3
// (inhibitory).
func layerGrid(e *Experiment, attack AttackID, changesPc, fractionsPc []float64) ([]SweepPoint, error) {
	return e.RunScenario(&Scenario{
		Name:   "layer-grid",
		Attack: attack,
		Axes:   Axes{ChangesPc: changesPc, FractionsPc: fractionsPc},
	})
}

func samePoints(t *testing.T, workers int, got, want []SweepPoint) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("workers=%d: %d points, want %d", workers, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.ScalePc != w.ScalePc || g.FractionPc != w.FractionPc || g.VDD != w.VDD ||
			g.Defense != w.Defense || g.Detected != w.Detected {
			t.Fatalf("workers=%d: point %d coords %+v, want %+v", workers, i, g, w)
		}
		if g.Result.Accuracy != w.Result.Accuracy ||
			g.Result.Baseline != w.Result.Baseline ||
			g.Result.RelChangePc != w.Result.RelChangePc ||
			g.Result.TotalSpikes != w.Result.TotalSpikes {
			t.Fatalf("workers=%d: point %d result %+v, want %+v", workers, i, *g.Result, *w.Result)
		}
		if (g.Result.Plan == nil) != (w.Result.Plan == nil) ||
			(g.Result.Plan != nil && g.Result.Plan.Name != w.Result.Plan.Name) {
			t.Fatalf("workers=%d: point %d plan mismatch", workers, i)
		}
	}
}

// TestSweepDeterministicAcrossWorkers is the runner's core contract:
// the same campaign at 1, 4 and 8 workers yields identical SweepPoint
// sequences and byte-identical streamed JSONL.
func TestSweepDeterministicAcrossWorkers(t *testing.T) {
	e := tinyExperiment(t, 60)
	changes := []float64{-20, 10}
	fractions := []float64{50, 100}

	var ref []SweepPoint
	var refJSONL []byte
	for _, workers := range []int{1, 4, 8} {
		// Fresh cache each round so every width really executes the
		// cells (a warm cache would trivially return equal results).
		e.Cache = runner.NewMemoryCache[*Result]()
		e.Workers = workers
		var buf bytes.Buffer
		sink := runner.NewJSONLSink(&buf)
		e.Sinks = []runner.Sink{sink}

		pts, err := layerGrid(e, Attack3, changes, fractions)
		if err != nil {
			t.Fatal(err)
		}
		if err := sink.Close(); err != nil {
			t.Fatal(err)
		}
		if workers == 1 {
			ref, refJSONL = pts, buf.Bytes()
			continue
		}
		samePoints(t, workers, pts, ref)
		if !bytes.Equal(buf.Bytes(), refJSONL) {
			t.Fatalf("workers=%d: streamed JSONL differs from serial:\n%s\nvs\n%s",
				workers, buf.Bytes(), refJSONL)
		}
	}
	if len(refJSONL) == 0 {
		t.Fatal("sink saw no records")
	}
}

// TestSweepBaselineTrainsOnce asserts the cache contract: across a
// whole sweep the shared attack-free baseline is trained exactly once,
// and re-running the sweep trains nothing at all.
func TestSweepBaselineTrainsOnce(t *testing.T) {
	e := tinyExperiment(t, 40)
	e.Workers = 4
	pts, err := layerGrid(e, Attack2, []float64{-20, 20}, []float64{50, 100})
	if err != nil {
		t.Fatal(err)
	}
	wantTrains := int64(len(pts) + 1) // 4 cells + 1 baseline
	if got := e.TrainCount(); got != wantTrains {
		t.Fatalf("first sweep trained %d networks, want %d (cells + baseline once)", got, wantTrains)
	}
	again, err := layerGrid(e, Attack2, []float64{-20, 20}, []float64{50, 100})
	if err != nil {
		t.Fatal(err)
	}
	if got := e.TrainCount(); got != wantTrains {
		t.Fatalf("repeated sweep trained %d more networks, want 0", got-wantTrains)
	}
	samePoints(t, 4, again, pts)
	if hits, _ := e.Cache.(*runner.MemoryCache[*Result]).Stats(); hits < int64(len(pts)) {
		t.Fatalf("cache hits = %d, want ≥%d", hits, len(pts))
	}
}

// TestRunIsCached: two Runs of one configuration train once.
func TestRunIsCached(t *testing.T) {
	e := tinyExperiment(t, 40)
	r1, err := e.Run(NewAttack4(0.8))
	if err != nil {
		t.Fatal(err)
	}
	before := e.TrainCount()
	r2, err := e.Run(NewAttack4(0.8))
	if err != nil {
		t.Fatal(err)
	}
	if e.TrainCount() != before {
		t.Fatal("identical plan must be served from the cache")
	}
	if r1.Accuracy != r2.Accuracy || r1.RelChangePc != r2.RelChangePc {
		t.Fatal("cached result differs")
	}
	// A different configuration is a different content address.
	if _, err := e.Run(NewAttack4(0.9)); err != nil {
		t.Fatal(err)
	}
	if e.TrainCount() == before {
		t.Fatal("distinct plan must retrain")
	}
}

// TestLayerGridParallelSpeedup is the wall-clock acceptance bar: with
// ≥4 workers a layer-grid sweep runs ≥2× faster than serial while
// producing identical results. Training is CPU-bound, so the test
// needs real cores; on smaller machines the sleep-bound equivalent in
// internal/runner still enforces the pool's concurrency.
func TestLayerGridParallelSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test skipped in -short mode")
	}
	if runtime.GOMAXPROCS(0) < 4 {
		t.Skipf("need ≥4 CPUs for a CPU-bound speedup, have %d", runtime.GOMAXPROCS(0))
	}
	e := tinyExperiment(t, 80)
	changes := []float64{-20, -10, 10, 20}
	fractions := []float64{50, 100}
	if _, err := e.Baseline(); err != nil {
		t.Fatal(err)
	}

	e.Cache = runner.NewMemoryCache[*Result]()
	e.Workers = 1
	start := time.Now()
	serialPts, err := layerGrid(e, Attack3, changes, fractions)
	if err != nil {
		t.Fatal(err)
	}
	serial := time.Since(start)

	e.Cache = runner.NewMemoryCache[*Result]()
	e.Workers = 4
	start = time.Now()
	parallelPts, err := layerGrid(e, Attack3, changes, fractions)
	if err != nil {
		t.Fatal(err)
	}
	parallel := time.Since(start)

	samePoints(t, 4, parallelPts, serialPts)
	if parallel > serial/2 {
		t.Fatalf("4 workers took %v, serial took %v — want ≥2× speedup", parallel, serial)
	}
}
