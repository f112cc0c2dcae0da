package snn

// The network step and the parallel inference engine (see DESIGN.md
// "Intra-cell inference engine"). Params.step advances a State against
// Params. The read-only passes (label assignment, Evaluate) present
// images against one frozen Params — theta and the fault hooks folded
// in; theta neither adapts nor decays, as in BindsNET's learning-gated
// update — with one pooled State per worker. Image i is encoded from
// ImageSeed(base, i) on every path, so results are bit-identical at
// any worker count.

import (
	"fmt"
	"runtime"
	"sync"

	"snnfi/internal/encoding"
	"snnfi/internal/mnist"
	"snnfi/internal/obs"
	"snnfi/internal/runner"
	"snnfi/internal/tensor"
)

// ImageSeed derives the presentation seed of image i from a cell's
// base encoder seed, so a spike train never depends on order.
func ImageSeed(base int64, i int) int64 {
	return runner.DeriveSeed(base, "image", i)
}

// Params is a network's parameters as the step reads them. A frozen
// Params is shared by any number of workers, each with its own State:
// the weights by reference (inference never writes them), thresholds,
// gains and drive scale by copy, so reverting a fault plan after
// training does not change the view.
type Params struct {
	Cfg             DiehlCookConfig
	W               *tensor.Matrix // input→exc weights
	InputDriveScale float64        // global driver corruption knob
	Exc, Inh        GroupParams
}

// Params freezes the network's current parameters into a shareable
// inference view, computing the thresholds from theta here (the
// network's own EffThresh lags a spike's ThetaPlus by one step). The
// caller must not mutate the network's weights while the view is in
// use (layer hooks and theta may change freely — they were copied).
func (n *DiehlCook) Params() *Params {
	return &Params{
		Cfg:             n.Cfg,
		W:               n.W,
		InputDriveScale: n.InputDriveScale,
		Exc:             freezeGroup(n.Exc),
		Inh:             freezeGroup(n.Inh),
	}
}

// State is everything a presentation touches that is not a parameter:
// a few vectors over the layer sizes, fully reset per image.
type State struct {
	vExc, vInh           tensor.Vector
	refracExc, refracInh []int
	driveExc, driveInh   tensor.Vector
	prevExc, prevInh     []int
	spikeExc, spikeInh   []int
	counts               tensor.Vector
	enc                  *encoding.PoissonEncoder
}

// NewState allocates a worker state sized for p, with an encoder (the
// pool's fallback; most callers use acquireState).
func (p *Params) NewState() *State {
	st := &State{enc: encoding.NewPoissonEncoder(0)}
	st.fit(p)
	return st
}

// fit (re)sizes the state for p, reusing slice capacity so pooled
// states migrate between cells without reallocating.
func (st *State) fit(p *Params) {
	st.vExc = resize(st.vExc, p.Exc.N)
	st.vInh = resize(st.vInh, p.Inh.N)
	st.driveExc = resize(st.driveExc, p.Exc.N)
	st.driveInh = resize(st.driveInh, p.Inh.N)
	st.counts = resize(st.counts, p.Exc.N)
	st.refracExc = resize(st.refracExc, p.Exc.N)
	st.refracInh = resize(st.refracInh, p.Inh.N)
}

func resize[S ~[]E, E any](s S, n int) S {
	if cap(s) < n {
		return make(S, n)
	}
	return s[:n]
}

// reset clears all per-image dynamics, leaving no trace of whatever
// presentation — against whatever network — the state last served.
func (st *State) reset(p *Params) {
	st.vExc.Fill(p.Exc.Rest)
	st.vInh.Fill(p.Inh.Rest)
	clear(st.refracExc)
	clear(st.refracInh)
	st.prevExc = st.prevExc[:0]
	st.prevInh = st.prevInh[:0]
}

// workspacePool recycles States and their encoders across evaluation
// passes and campaign cells; only allocation volume depends on a hit.
var workspacePool sync.Pool

// acquireState returns a ready state for p with its encoder configured
// (maxRate/dt of 0 select the encoder defaults, 128 Hz / 1 ms).
func acquireState(p *Params, maxRate, dt float64) *State {
	st, _ := workspacePool.Get().(*State)
	if st == nil {
		st = p.NewState()
	} else {
		st.fit(p)
	}
	if maxRate == 0 {
		maxRate = 128
	}
	if dt == 0 {
		dt = 1
	}
	st.enc.MaxRate, st.enc.Dt = maxRate, dt
	return st
}

func releaseState(st *State) { workspacePool.Put(st) }

// step is the network step: it advances st one timestep given the
// input pixels that spiked and returns the excitatory spike indices
// (valid until the next step). The excitatory layer takes the input
// drive plus lateral inhibition from the previous step's inhibitory
// spikes (one-step synaptic delay, as in BindsNET); the inhibitory
// layer takes the previous step's excitatory spikes one-to-one.
func (p *Params) step(st *State, inputSpikes []int) []int {
	if s := p.InputDriveScale; s != 1 {
		p.W.SumRowsScaled(inputSpikes, s, st.driveExc)
	} else {
		p.W.SumRows(inputSpikes, st.driveExc)
	}
	// Lateral inhibition in O(NExc): subtract WInhExc per inhibitory
	// spike from all, then add the spiker's own partner back (ulp-level
	// reordering; see the calibration record in EXPERIMENTS.md).
	if k := len(st.prevInh); k > 0 {
		sub := float64(k) * p.Cfg.WInhExc
		d := st.driveExc
		for i := range d {
			d[i] -= sub
		}
		for _, j := range st.prevInh {
			d[j] += p.Cfg.WInhExc
		}
	}
	st.spikeExc = p.Exc.step(st.vExc, st.refracExc, st.driveExc, st.spikeExc)

	// With no pending excitatory spikes the inhibitory drive is
	// identically zero and the layer takes the idle path.
	if len(st.prevExc) > 0 {
		st.driveInh.Zero()
		for _, j := range st.prevExc {
			st.driveInh[j] += p.Cfg.WExcInh
		}
		st.spikeInh = p.Inh.step(st.vInh, st.refracInh, st.driveInh, st.spikeInh)
	} else {
		st.spikeInh = p.Inh.step(st.vInh, st.refracInh, nil, st.spikeInh)
	}

	st.prevExc = append(st.prevExc[:0], st.spikeExc...)
	st.prevInh = append(st.prevInh[:0], st.spikeInh...)
	return st.spikeExc
}

// present is the one presentation loop: Cfg.Steps steps driven by
// next, then Cfg.RestSteps quiet ones, each run through step, counting
// excitatory spikes into counts (zeroed first, and returned).
func present(cfg *DiehlCookConfig, counts tensor.Vector, next func() []int, step func(in []int, driven bool) []int) tensor.Vector {
	counts.Zero()
	for t := 0; t < cfg.Steps+cfg.RestSteps; t++ {
		var in []int
		driven := t < cfg.Steps
		if driven {
			in = next()
		}
		for _, j := range step(in, driven) {
			counts[j]++
		}
	}
	return counts
}

// presentImage runs one frozen presentation of img under seed and
// returns st.counts (copy it to retain). It allocates nothing.
func (p *Params) presentImage(st *State, img *mnist.Image, seed int64) tensor.Vector {
	st.reset(p)
	st.enc.Reseed(seed)
	st.enc.Begin(img)
	return present(&p.Cfg, st.counts, st.enc.EncodeStep, func(in []int, _ bool) []int {
		return p.step(st, in)
	})
}

// EvalOptions configures a read-only presentation pass.
type EvalOptions struct {
	Workers int   // pool width; ≤0 uses all CPUs
	Seed    int64 // base encoder seed; image i uses ImageSeed(Seed, i)
	// MaxRate and Dt configure the Poisson encoding; zero values select
	// the experiment defaults (128 Hz, 1 ms).
	MaxRate float64
	Dt      float64
	// Obs, when non-nil, receives the pool's "snn.eval.*" telemetry;
	// results are identical with or without it.
	Obs *obs.Registry
}

// evalShard is how many consecutive images one pool job presents: a
// trade of scheduling overhead against load balance that does not
// affect results.
const evalShard = 8

// evalPass presents every image against p on opt.Workers workers, in
// shards of evalShard images, and returns run's per-image results in
// image order. run gets a ready State, the image index and that
// image's seed; seeds are derived up front, which keeps the per-image
// loop allocation-free.
func evalPass[T any](p *Params, images []mnist.Image, opt EvalOptions, run func(st *State, i int, seed int64) T) ([]T, error) {
	seeds := make([]int64, len(images))
	for i := range seeds {
		seeds[i] = ImageSeed(opt.Seed, i)
	}
	jobs := make([]runner.Job[[]T], 0, (len(images)+evalShard-1)/evalShard)
	for lo := 0; lo < len(images); lo += evalShard {
		lo, hi := lo, min(lo+evalShard, len(images))
		jobs = append(jobs, runner.Job[[]T]{
			Label: fmt.Sprintf("images[%d:%d]", lo, hi),
			Run: func() ([]T, error) {
				st := acquireState(p, opt.MaxRate, opt.Dt)
				defer releaseState(st)
				out := make([]T, hi-lo)
				for i := lo; i < hi; i++ {
					out[i-lo] = run(st, i, seeds[i])
				}
				return out, nil
			},
		})
	}
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	pool := &runner.Pool[[]T]{Workers: workers, Obs: opt.Obs, Name: "snn.eval"}
	shards, err := pool.Run(jobs)
	if err != nil {
		return nil, err
	}
	out := make([]T, 0, len(images))
	for _, s := range shards {
		out = append(out, s...)
	}
	return out, nil
}

// CountsParallel presents every image read-only against p and returns
// the per-image excitatory spike counts, in image order.
func CountsParallel(p *Params, images []mnist.Image, opt EvalOptions) ([]tensor.Vector, error) {
	return evalPass(p, images, opt, func(st *State, i int, seed int64) tensor.Vector {
		return p.presentImage(st, &images[i], seed).Copy()
	})
}

// EvaluateParallel presents every image read-only against p, classifies
// each with the given neuron→class assignments, and returns the
// fraction classified correctly, keeping no per-image counts.
func EvaluateParallel(p *Params, images []mnist.Image, assignments []int, opt EvalOptions) (float64, error) {
	if len(images) == 0 {
		return 0, fmt.Errorf("snn: no evaluation images")
	}
	correct, err := evalPass(p, images, opt, func(st *State, i int, seed int64) int {
		counts := p.presentImage(st, &images[i], seed)
		if Classify(counts, assignments) == int(images[i].Label) {
			return 1
		}
		return 0
	})
	if err != nil {
		return 0, err
	}
	total := 0
	for _, c := range correct {
		total += c
	}
	return float64(total) / float64(len(images)), nil
}
