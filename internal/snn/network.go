package snn

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"

	"snnfi/internal/tensor"
)

// DiehlCookConfig parametrizes the 3-layer Diehl&Cook network the paper
// attacks (Fig. 7a): Poisson input all-to-all onto an excitatory layer
// with STDP, excitatory 1-to-1 onto an inhibitory layer, and inhibitory
// all-to-all-but-self back onto the excitatory layer.
type DiehlCookConfig struct {
	NInput int // input dimensionality (784 for 28×28 digits)
	NExc   int // excitatory neurons (paper: 100)
	NInh   int // inhibitory neurons (paper: 100, equal to NExc)

	WMax    float64 // input→exc weight ceiling (BindsNET: 1.0)
	Norm    float64 // per-column weight normalization target (78.4)
	NuPre   float64 // pre-synaptic STDP rate (paper: 0.0004)
	NuPost  float64 // post-synaptic STDP rate (paper: 0.0002)
	WExcInh float64 // exc→inh one-to-one weight (22.5)
	WInhExc float64 // inh→exc lateral inhibition magnitude (120)

	Steps     int // stimulus presentation steps per image (ms at dt=1)
	RestSteps int // quiet steps after each image

	Seed int64 // weight-initialization seed
}

// DefaultConfig returns the experimental configuration: 100 excitatory
// + 100 inhibitory neurons, 250 ms presentations, BindsNET eth_mnist
// constants for the fixed weights. Learning rates are BindsNET's
// library defaults nu = (1e-4, 1e-2), not the paper's quoted
// 0.0004/0.0002: under our discretization those never imprint, while
// the defaults reproduce the paper's ~76% baseline (EXPERIMENTS.md).
func DefaultConfig() DiehlCookConfig {
	return DiehlCookConfig{
		NInput: 784, NExc: 100, NInh: 100,
		WMax: 1.0, Norm: 78.4,
		NuPre: 0.0001, NuPost: 0.01,
		WExcInh: 22.5, WInhExc: 120,
		Steps: 250, RestSteps: 0,
		Seed: 1,
	}
}

// Validate reports configuration errors.
func (c DiehlCookConfig) Validate() error {
	if c.NInput <= 0 || c.NExc <= 0 || c.NInh <= 0 {
		return fmt.Errorf("snn: layer sizes must be positive: %d/%d/%d", c.NInput, c.NExc, c.NInh)
	}
	if c.NInh != c.NExc {
		return fmt.Errorf("snn: Diehl&Cook needs NInh == NExc (1-to-1 coupling), got %d != %d", c.NInh, c.NExc)
	}
	if c.Steps <= 0 {
		return fmt.Errorf("snn: Steps must be positive, got %d", c.Steps)
	}
	if c.WMax <= 0 || c.Norm <= 0 {
		return fmt.Errorf("snn: WMax and Norm must be positive")
	}
	return nil
}

// DiehlCook is the trainable network with fault-injection hooks exposed
// through its layers and the InputDriveScale knob. It owns a private
// Params+State, runs them with the network step frozen inference uses,
// and runs its plasticity around that step (see Step). Plasticity
// works on sparse supports (see DESIGN.md "Network-tier hot path"), and
// a pixel's pre-synaptic trace is read from its last spike step through
// preDecayTable, bit-identical to a dense per-step decay.
type DiehlCook struct {
	Cfg DiehlCookConfig

	W   *tensor.Matrix // input→exc weights, NInput×NExc, STDP-plastic
	Exc *LIFGroup
	Inh *LIFGroup

	// InputDriveScale multiplies the input→exc drive per input spike:
	// the global driver-corruption knob (Attack 1, the driver part of
	// Attack 5); Exc.InputGain is the per-neuron one.
	InputDriveScale float64

	// p and st are what the step runs on. ResetState loads p from Cfg,
	// W and the hooks (so hook changes apply from the next
	// presentation); Step rewrites p.Exc.EffThresh from theta.
	p  Params
	st State

	thetaDecay, traceDecay float64 // per-step excitatory decays

	// Per-image trace supports, in first-spike order: preActive lists
	// the pixels that spiked (last spike step in preLastSpike),
	// postActive the excitatory neurons with a nonzero postTrace.
	preLastSpike []int
	preSeen      []bool
	preActive    []int
	postTrace    tensor.Vector
	postActive   []int
	postSeen     []bool
	stepT        int // steps since ResetState

	// The weight columns STDP has touched since the last
	// normalization. Direct writes to W.Data (extension fault hooks)
	// are not tracked; those callers must use NormalizeWeights.
	dirtyCols []int
	dirtySeen []bool
}

// NewDiehlCook builds a network with uniform random initial weights.
func NewDiehlCook(cfg DiehlCookConfig) (*DiehlCook, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := newDiehlCook(cfg, newLIFGroup(ExcConfig(cfg.NExc)), newLIFGroup(InhConfig(cfg.NInh)), 1)
	n.W.RandFill(rand.New(rand.NewSource(cfg.Seed)), 0, 0.3)
	n.NormalizeWeights()
	return n, nil
}

// newDiehlCook assembles a network around the given layers with zero
// weights, at rest.
func newDiehlCook(cfg DiehlCookConfig, exc, inh *LIFGroup, driveScale float64) *DiehlCook {
	n := &DiehlCook{
		Cfg:             cfg,
		W:               tensor.NewMatrix(cfg.NInput, cfg.NExc),
		Exc:             exc,
		Inh:             inh,
		InputDriveScale: driveScale,
		p:               Params{Exc: freezeGroup(exc), Inh: freezeGroup(inh)},
		thetaDecay:      decayPer(exc.Cfg.Dt, exc.Cfg.ThetaDecayTC),
		traceDecay:      decayPer(exc.Cfg.Dt, exc.Cfg.TraceTC),
		preLastSpike:    make([]int, cfg.NInput),
		preSeen:         make([]bool, cfg.NInput),
		postTrace:       tensor.NewVector(cfg.NExc),
		postSeen:        make([]bool, cfg.NExc),
		dirtySeen:       make([]bool, cfg.NExc),
	}
	n.st.fit(&n.p)
	preDecayTable(cfg.Steps + cfg.RestSteps) // pre-size for the presentation length
	n.ResetState()
	return n
}

// The pre-synaptic trace decay table is shared by every network in the
// process. Growth is copy-on-grow behind a mutex with atomic
// publication, so concurrent lookups are race-free.
var (
	preDecayMu  sync.Mutex
	preDecayTab atomic.Pointer[[]float64]
)

// preDecayTable returns a decay table covering at least k steps
// (len > k), built by the same iterated multiplication a densely
// stored trace would undergo (decayPow[k] = decayPow[k-1]·decay,
// starting from 1) so values are bit-identical to dense decay.
func preDecayTable(k int) []float64 {
	if t := preDecayTab.Load(); t != nil && len(*t) > k {
		return *t
	}
	preDecayMu.Lock()
	defer preDecayMu.Unlock()
	prev := []float64{1}
	if old := preDecayTab.Load(); old != nil {
		if len(*old) > k {
			return *old
		}
		prev = *old
	}
	next := make([]float64, k+1) // never append in place: readers may hold prev
	copy(next, prev)
	for i := len(prev); i <= k; i++ {
		next[i] = next[i-1] * preTraceDecayPerMs
	}
	preDecayTab.Store(&next)
	return next
}

// NormalizeWeights rescales each excitatory neuron's afferent weights
// to sum to Cfg.Norm (Diehl&Cook homeostasis, applied once per sample),
// whatever modified them.
func (n *DiehlCook) NormalizeWeights() {
	n.W.NormalizeCols(n.Cfg.Norm)
	n.clearDirty()
}

// normalizeDirty renormalizes only the columns STDP has touched since
// the last normalization; the others keep their bits, where a full
// pass would rescale them by a factor within one ulp of 1 (the
// train-protocol-v3 contract).
func (n *DiehlCook) normalizeDirty() {
	n.W.NormalizeColsSubset(n.Cfg.Norm, n.dirtyCols)
	n.clearDirty()
}

func (n *DiehlCook) markDirty(cols []int) {
	for _, j := range cols {
		if !n.dirtySeen[j] {
			n.dirtySeen[j] = true
			n.dirtyCols = append(n.dirtyCols, j)
		}
	}
}

func (n *DiehlCook) clearDirty() {
	for _, j := range n.dirtyCols {
		n.dirtySeen[j] = false
	}
	n.dirtyCols = n.dirtyCols[:0]
}

// ResetState clears per-image dynamic state (membranes, traces,
// pending spikes), keeping weights and theta, and loads the current
// configuration, weights and fault hooks for the step.
func (n *DiehlCook) ResetState() {
	n.p.Cfg, n.p.W, n.p.InputDriveScale = n.Cfg, n.W, n.InputDriveScale
	n.p.Exc.load(n.Exc)
	n.p.Inh.load(n.Inh)
	n.st.reset(&n.p)
	for _, i := range n.preActive {
		n.preSeen[i] = false
	}
	n.preActive = n.preActive[:0]
	for _, j := range n.postActive {
		n.postTrace[j] = 0
		n.postSeen[j] = false
	}
	n.postActive = n.postActive[:0]
	n.stepT = 0
}

const preTraceDecayPerMs = 0.951229424500714 // exp(−dt/20ms), the exc trace constant

// PreTrace returns the current pre-synaptic trace of pixel i (0 if it
// has not spiked since the last ResetState).
func (n *DiehlCook) PreTrace(i int) float64 {
	if !n.preSeen[i] {
		return 0
	}
	d := n.stepT - 1 - n.preLastSpike[i]
	return preDecayTable(d)[d]
}

// Step advances the network one timestep given the input pixels that
// spiked and returns the excitatory spike indices (valid until the
// next call). Around the network step, theta decays and the thresholds
// are rewritten; spikers then gain ThetaPlus and a post trace, and the
// pixels' spike times are recorded. Theta adapts on every step; only
// the STDP weight update is gated by learn.
func (n *DiehlCook) Step(inputSpikes []int, learn bool) []int {
	n.Exc.adapt(n.p.Exc.EffThresh, n.thetaDecay)
	excSpikes := n.p.step(&n.st, inputSpikes)

	// Decay the post traces, then set the spikers' to 1 (so they join
	// the support before STDP reads it).
	theta, trace := n.Exc.Theta, n.postTrace
	trace.ScatterScale(n.postActive, n.traceDecay)
	for _, j := range excSpikes {
		theta[j] += n.Exc.Cfg.ThetaPlus
		trace[j] = 1
		if !n.postSeen[j] {
			n.postSeen[j] = true
			n.postActive = append(n.postActive, j)
		}
	}
	if learn {
		n.stdp(inputSpikes, excSpikes)
	}
	for _, i := range inputSpikes {
		if !n.preSeen[i] {
			n.preSeen[i] = true
			n.preActive = append(n.preActive, i)
		}
		n.preLastSpike[i] = n.stepT
	}
	n.stepT++
	return excSpikes
}

// stdp applies the post-pre rule on input→exc: a pre spike depresses
// by the post trace, a post spike potentiates by the pre trace. Both
// loops walk the sparse supports, the synapses with nonzero traces.
func (n *DiehlCook) stdp(inputSpikes, excSpikes []int) {
	cfg := &n.Cfg
	// Every column the loops below touch belongs to a neuron in
	// postActive, which only grows via excSpikes.
	n.markDirty(excSpikes)
	if len(n.postActive) > 0 {
		nuPre, trace := cfg.NuPre, n.postTrace
		for _, i := range inputSpikes {
			row := n.W.Row(i)
			for _, j := range n.postActive {
				w := row[j] - nuPre*trace[j]
				if w < 0 {
					w = 0
				}
				row[j] = w
			}
		}
	}
	if len(excSpikes) > 0 {
		decayPow := preDecayTable(n.stepT)
		wd, cols := n.W.Data, n.W.Cols
		nuPost, wmax := cfg.NuPost, cfg.WMax
		for _, j := range excSpikes {
			for _, i := range n.preActive {
				tr := decayPow[n.stepT-1-n.preLastSpike[i]]
				w := wd[i*cols+j] + nuPost*tr
				if w > wmax {
					w = wmax
				}
				wd[i*cols+j] = w
			}
		}
	}
}

// present runs one presentation through Step, with STDP on the driven
// steps when learn is set, and returns the excitatory spike counts
// (valid until the next presentation). Normalization is the caller's.
func (n *DiehlCook) present(next func() []int, learn bool) tensor.Vector {
	n.ResetState()
	return present(&n.Cfg, n.st.counts, next, func(in []int, driven bool) []int {
		return n.Step(in, learn && driven)
	})
}

// RunImage presents one materialized spike train of Cfg.Steps steps
// (from encoding.Encode): RunImageStream over its steps.
func (n *DiehlCook) RunImage(train [][]int, learn bool) tensor.Vector {
	return n.RunImageStream(func() []int { s := train[0]; train = train[1:]; return s }, learn)
}

// RunImageStream presents one image drawn from next (called once per
// driven step, e.g. encoding.PoissonEncoder.EncodeStep) and returns
// the excitatory spike counts, valid until the next presentation. When
// learning, NormalizeWeights runs first, as in BindsNET.
func (n *DiehlCook) RunImageStream(next func() []int, learn bool) tensor.Vector {
	if learn {
		n.NormalizeWeights()
	}
	return n.present(next, learn)
}

// TrainImageStream is RunImageStream(next, true) normalizing only the
// columns STDP touched (see normalizeDirty); callers that write W
// directly must use RunImageStream.
func (n *DiehlCook) TrainImageStream(next func() []int) tensor.Vector {
	n.normalizeDirty()
	return n.present(next, true)
}
