package snn

// Tests for the intra-cell parallel inference engine: the params/state
// split, the per-image seeding contract, worker-count bit-identity,
// workspace-pool hygiene, and the shared decay table's concurrent
// growth. The worker-determinism and decay-race tests here are the
// ones CI runs under -race.

import (
	"runtime"
	"sync"
	"testing"
	"time"

	"snnfi/internal/encoding"
	"snnfi/internal/mnist"
	"snnfi/internal/tensor"
)

// trainedEngine trains a tiny network and returns its frozen view plus
// the images and base seed the cell used.
func trainedEngine(t *testing.T) (*Params, []mnist.Image, int64) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.NExc, cfg.NInh = 16, 16
	cfg.Steps = 60
	n, err := NewDiehlCook(cfg)
	if err != nil {
		t.Fatal(err)
	}
	images := mnist.Synthetic(40, 7)
	enc := encoding.NewPoissonEncoder(42)
	if _, err := Train(n, images, enc); err != nil {
		t.Fatal(err)
	}
	return n.Params(), images, 42
}

func sameCounts(t *testing.T, label string, got, want []tensor.Vector) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d count vectors, want %d", label, len(got), len(want))
	}
	for i := range want {
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("%s: image %d neuron %d: count %g, want %g", label, i, j, got[i][j], want[i][j])
			}
		}
	}
}

// TestEvaluateParallelBitIdentical is the engine's acceptance
// contract: counts and accuracy are bit-identical at 1, 2 and 4
// workers, and the serial Evaluate entry point agrees exactly.
func TestEvaluateParallelBitIdentical(t *testing.T) {
	p, images, seed := trainedEngine(t)
	assignments := make([]int, p.Exc.N)
	for j := range assignments {
		assignments[j] = j % 10
	}

	refCounts, err := CountsParallel(p, images, EvalOptions{Workers: 1, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	refAcc, err := EvaluateParallel(p, images, assignments, EvalOptions{Workers: 1, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 4} {
		counts, err := CountsParallel(p, images, EvalOptions{Workers: w, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		sameCounts(t, "workers", counts, refCounts)
		acc, err := EvaluateParallel(p, images, assignments, EvalOptions{Workers: w, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if acc != refAcc {
			t.Fatalf("workers=%d: accuracy %v, want %v", w, acc, refAcc)
		}
	}

	// The serial Evaluate entry point is the same kernel at width 1:
	// freezing a network and evaluating in parallel must agree exactly
	// with Evaluate on that network.
	n, err := NewDiehlCook(p.Cfg)
	if err != nil {
		t.Fatal(err)
	}
	acc1, err := Evaluate(n, images, encoding.NewPoissonEncoder(seed), assignments)
	if err != nil {
		t.Fatal(err)
	}
	acc2, err := EvaluateParallel(n.Params(), images, assignments, EvalOptions{Workers: 4, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if acc1 != acc2 {
		t.Fatalf("Evaluate %v != EvaluateParallel %v", acc1, acc2)
	}
}

// TestTrainWorkerCountInvariant: a whole training cell — learning pass
// (serial or minibatch) plus parallel assignment pass — produces
// bit-identical results at any worker count, for every batch size. The
// learning pass is covered through the trained weights and thresholds:
// if any STDP update or merge depended on scheduling, W or Theta would
// differ and so, in general, would every downstream count. Run under
// -race in CI, where the minibatch pool's clone-sync and delta-merge
// paths are exercised concurrently.
func TestTrainWorkerCountInvariant(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NExc, cfg.NInh = 16, 16
	cfg.Steps = 60
	images := mnist.Synthetic(30, 7)

	run := func(workers, batch int) (*TrainResult, *DiehlCook) {
		n, err := NewDiehlCook(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := TrainWith(n, images, encoding.NewPoissonEncoder(42),
			TrainOptions{Workers: workers, Batch: batch})
		if err != nil {
			t.Fatal(err)
		}
		return res, n
	}
	for _, batch := range []int{1, 2, 8} {
		ref, refNet := run(1, batch)
		for _, w := range []int{2, 4} {
			res, net := run(w, batch)
			if res.Accuracy != ref.Accuracy || res.TotalSpikes != ref.TotalSpikes {
				t.Fatalf("workers=%d batch=%d: accuracy/spikes %v/%v, want %v/%v",
					w, batch, res.Accuracy, res.TotalSpikes, ref.Accuracy, ref.TotalSpikes)
			}
			for j := range ref.Assignments {
				if res.Assignments[j] != ref.Assignments[j] {
					t.Fatalf("workers=%d batch=%d: assignment of neuron %d differs", w, batch, j)
				}
			}
			sameCounts(t, "train", res.PerImage, ref.PerImage)
			for e, want := range refNet.W.Data {
				if net.W.Data[e] != want {
					t.Fatalf("workers=%d batch=%d: trained weight %d differs: %g != %g",
						w, batch, e, net.W.Data[e], want)
				}
			}
			for j, want := range refNet.Exc.Theta {
				if net.Exc.Theta[j] != want {
					t.Fatalf("workers=%d batch=%d: trained theta %d differs", w, batch, j)
				}
			}
		}
	}
}

// TestTrainBatchSemantics pins the batch-size contract: Batch ≤ 1 and
// the zero value are the serial protocol (identical results), while a
// larger batch is a genuinely different — but internally deterministic
// — computation (images in one batch see frozen weights rather than
// each other's updates).
func TestTrainBatchSemantics(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NExc, cfg.NInh = 16, 16
	cfg.Steps = 60
	images := mnist.Synthetic(24, 3)

	run := func(batch int) *DiehlCook {
		n, err := NewDiehlCook(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := TrainWith(n, images, encoding.NewPoissonEncoder(7),
			TrainOptions{Workers: 2, Batch: batch}); err != nil {
			t.Fatal(err)
		}
		return n
	}
	serial := run(0)
	one := run(1)
	for e := range serial.W.Data {
		if one.W.Data[e] != serial.W.Data[e] {
			t.Fatalf("Batch=1 diverged from Batch=0 at weight %d", e)
		}
	}
	batched := run(4)
	same := true
	for e := range serial.W.Data {
		if batched.W.Data[e] != serial.W.Data[e] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("Batch=4 produced bitwise-serial weights; frozen-batch semantics not in effect")
	}
}

// TestInferenceMatchesStepKernel anchors the frozen presentation —
// Params.presentImage through the shared network step — against the
// dense reference with theta frozen, on a network trained for a few
// images (so theta is nonzero) with every fault hook set: the frozen
// view must fold theta and the hooks in exactly, and the presentation
// loop must run Steps driven steps then RestSteps quiet ones.
func TestInferenceMatchesStepKernel(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NExc, cfg.NInh = 20, 20
	cfg.Steps = 80
	cfg.RestSteps = 4
	n, err := NewDiehlCook(cfg)
	if err != nil {
		t.Fatal(err)
	}
	images := mnist.Synthetic(8, 3)
	if _, err := Train(n, images[:4], encoding.NewPoissonEncoder(5)); err != nil {
		t.Fatal(err)
	}
	if n.Exc.Theta.Sum() == 0 {
		t.Fatal("training left theta at zero; the comparison would not cover it")
	}
	for j := range n.Exc.ThreshScale {
		n.Exc.ThreshScale[j] = 0.9 + 0.01*float64(j%6)
		n.Exc.InputGain[j] = 1.1 - 0.02*float64(j%4)
		n.Inh.ThreshScale[j] = 1.05
	}
	n.InputDriveScale = 0.9

	const seed = 9
	p := n.Params()
	st := p.NewState()
	ref := newFrozenRefNet(t, n)
	want := tensor.NewVector(cfg.NExc)
	for i := range images {
		ref.reset()
		want.Zero()
		train := encoding.NewPoissonEncoder(ImageSeed(seed, i)).Encode(&images[i], cfg.Steps)
		for _, in := range append(train, make([][]int, cfg.RestSteps)...) {
			for _, j := range ref.step(in, false) {
				want[j]++
			}
		}
		got := p.presentImage(st, &images[i], ImageSeed(seed, i))
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("image %d neuron %d: frozen step %g, dense reference %g", i, j, got[j], want[j])
			}
		}
		if got.Sum() == 0 {
			t.Fatalf("image %d: silent presentation makes the comparison vacuous", i)
		}
	}
}

// TestParamsFreezeSemantics: EffThresh folds theta and the threshold
// hook at freeze time, and later hook mutations do not leak into an
// existing view.
func TestParamsFreezeSemantics(t *testing.T) {
	p, _, _ := trainedEngine(t)
	n, err := NewDiehlCook(p.Cfg)
	if err != nil {
		t.Fatal(err)
	}
	n.Exc.Theta[3] = 7.5
	n.Exc.ThreshScale[3] = 0.8
	view := n.Params()
	if got, want := view.Exc.EffThresh[3], n.Exc.EffectiveThreshold(3); got != want {
		t.Fatalf("EffThresh[3] = %v, want EffectiveThreshold %v", got, want)
	}
	before := view.Exc.EffThresh[3]
	n.Exc.ThreshScale[3] = 1.3
	n.Exc.Theta[3] = 0
	if view.Exc.EffThresh[3] != before {
		t.Fatal("mutating the network after freezing changed the view")
	}
}

// TestStatePoolObservationFree: a reused workspace must behave exactly
// like a fresh one — dirty a state thoroughly, seed the pool with it,
// and demand the pooled pass still matches fresh-state presentations.
func TestStatePoolObservationFree(t *testing.T) {
	p, images, seed := trainedEngine(t)

	// Fresh-state reference, bypassing the pool entirely.
	want := make([]tensor.Vector, len(images))
	for i := range images {
		st := p.NewState()
		want[i] = p.presentImage(st, &images[i], ImageSeed(seed, i)).Copy()
	}

	// Dirty a state against a different configuration and poison every
	// mutable field, then hand it to the pool.
	bigCfg := p.Cfg
	bigCfg.NExc, bigCfg.NInh = 33, 33
	bigNet, err := NewDiehlCook(bigCfg)
	if err != nil {
		t.Fatal(err)
	}
	bigP := bigNet.Params()
	dirty := bigP.NewState()
	bigP.presentImage(dirty, &images[0], 123) // leave real dynamics behind
	dirty.vExc.Fill(1e9)
	dirty.vInh.Fill(-1e9)
	for i := range dirty.refracExc {
		dirty.refracExc[i] = 99
	}
	dirty.prevExc = append(dirty.prevExc[:0], 0, 1, 2)
	dirty.prevInh = append(dirty.prevInh[:0], 3, 4)
	dirty.counts.Fill(5)
	workspacePool.Put(dirty)

	got, err := CountsParallel(p, images, EvalOptions{Workers: 1, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	sameCounts(t, "pooled", got, want)
}

// TestPreDecayTableConcurrentGrowth is the decay-table race
// regression: many goroutines growing and reading the shared table
// concurrently (as parallel campaign cells do) must always observe
// exact iterated-product values. Run under -race in CI.
func TestPreDecayTableConcurrentGrowth(t *testing.T) {
	want := make([]float64, 2048)
	want[0] = 1
	for i := 1; i < len(want); i++ {
		want[i] = want[i-1] * preTraceDecayPerMs
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 1; k < len(want); k += 7 + g {
				tab := preDecayTable(k)
				if len(tab) <= k {
					t.Errorf("table of len %d cannot cover %d", len(tab), k)
					return
				}
				if tab[k] != want[k] {
					t.Errorf("decayPow[%d] = %g, want %g", k, tab[k], want[k])
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestPresentImageAllocationFree: once a workspace is warm, presenting
// an image allocates nothing — what keeps a full matrix's read-only
// phases allocation-flat.
func TestPresentImageAllocationFree(t *testing.T) {
	p, images, seed := trainedEngine(t)
	st := p.NewState()
	seed1 := ImageSeed(seed, 1)
	p.presentImage(st, &images[0], ImageSeed(seed, 0)) // warm buffers
	avg := testing.AllocsPerRun(50, func() {
		p.presentImage(st, &images[1], seed1)
	})
	if avg > 0.5 {
		t.Fatalf("presentImage allocates %.1f objects per image, want 0", avg)
	}
}

// TestImageSeedProperties: presentation seeds are deterministic,
// distinct across images, and independent of worker scheduling by
// construction (pure function of base and index).
func TestImageSeedProperties(t *testing.T) {
	seen := map[int64]int{}
	for i := 0; i < 500; i++ {
		s := ImageSeed(42, i)
		if s != ImageSeed(42, i) {
			t.Fatal("ImageSeed is not deterministic")
		}
		if prev, dup := seen[s]; dup {
			t.Fatalf("images %d and %d share seed %d", prev, i, s)
		}
		seen[s] = i
	}
	if ImageSeed(42, 0) == ImageSeed(43, 0) {
		t.Fatal("base seed does not discriminate")
	}
}

// TestEvaluateParallelSpeedup is the wall-clock bar: at 4 workers the
// evaluation pass must run ≥3× faster than serial on a ≥4-core
// machine (the images are independent, so near-linear scaling is
// expected). Timing tests are skipped in -short and on small hosts.
func TestEvaluateParallelSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test skipped in -short mode")
	}
	if runtime.GOMAXPROCS(0) < 4 {
		t.Skipf("need ≥4 CPUs for a CPU-bound speedup, have %d", runtime.GOMAXPROCS(0))
	}
	cfg := DefaultConfig()
	cfg.NExc, cfg.NInh = 40, 40
	cfg.Steps = 150
	n, err := NewDiehlCook(cfg)
	if err != nil {
		t.Fatal(err)
	}
	p := n.Params()
	images := mnist.Synthetic(256, 3)
	assignments := make([]int, cfg.NExc)
	for j := range assignments {
		assignments[j] = j % 10
	}
	measure := func(workers int) time.Duration {
		start := time.Now()
		if _, err := EvaluateParallel(p, images, assignments, EvalOptions{Workers: workers, Seed: 42}); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	measure(4) // warm the pool and caches
	serial := measure(1)
	parallel := measure(4)
	if float64(serial)/float64(parallel) < 3 {
		t.Fatalf("4 workers took %v, serial took %v — want ≥3× speedup", parallel, serial)
	}
}

// TestTrainMinibatchParallelSpeedup is the learning pass's wall-clock
// bar: with Batch 8 on a ≥4-core machine, 4 workers must train ≥1.5×
// faster than the same minibatch protocol at width 1 (presentations
// within a batch are independent; the serial fraction is the per-batch
// sync + merge). Results are bit-identical either way
// (TestTrainWorkerCountInvariant); this only times them. Skipped in
// -short and on small hosts, like the other tiers' speedup tests.
func TestTrainMinibatchParallelSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("timing test skipped in -short mode")
	}
	if runtime.GOMAXPROCS(0) < 4 {
		t.Skipf("need ≥4 CPUs for a CPU-bound speedup, have %d", runtime.GOMAXPROCS(0))
	}
	cfg := DefaultConfig()
	cfg.NExc, cfg.NInh = 40, 40
	cfg.Steps = 150
	images := mnist.Synthetic(128, 3)
	measure := func(workers int) time.Duration {
		n, err := NewDiehlCook(cfg)
		if err != nil {
			t.Fatal(err)
		}
		enc := encoding.NewPoissonEncoder(42)
		start := time.Now()
		if _, err := TrainWith(n, images, enc, TrainOptions{Batch: 8, Workers: workers}); err != nil {
			t.Fatal(err)
		}
		return time.Since(start)
	}
	measure(4) // warm pools and decay tables
	serial := measure(1)
	parallel := measure(4)
	if float64(serial)/float64(parallel) < 1.5 {
		t.Fatalf("4 workers took %v, width 1 took %v — want ≥1.5× speedup", parallel, serial)
	}
}

// TestReseedReproducesStream: in-place reseeding replays exactly the
// stream a fresh encoder with that seed would produce (the engine
// reseeds one pooled encoder per image), and Seed tracks the reseed
// for the per-image derivation.
func TestReseedReproducesStream(t *testing.T) {
	images := mnist.Synthetic(1, 3)
	fresh := encoding.NewPoissonEncoder(77)
	fresh.Begin(&images[0])
	reused := encoding.NewPoissonEncoder(5)
	reused.Begin(&images[0])
	for step := 0; step < 10; step++ {
		reused.EncodeStep()
	}
	reused.Reseed(77)
	if reused.Seed() != 77 {
		t.Fatalf("Seed() = %d after Reseed(77)", reused.Seed())
	}
	reused.Begin(&images[0])
	for step := 0; step < 50; step++ {
		a, b := fresh.EncodeStep(), reused.EncodeStep()
		if len(a) != len(b) {
			t.Fatalf("step %d: %d vs %d spikes", step, len(a), len(b))
		}
		for k := range a {
			if a[k] != b[k] {
				t.Fatalf("step %d: spike %d differs", step, k)
			}
		}
	}
}
