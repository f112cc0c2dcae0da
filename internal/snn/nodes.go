// Package snn implements the spiking-network substrate the attack
// experiments run on: leaky integrate-and-fire neuron groups with
// Diehl&Cook adaptive thresholds, trace-based STDP, and the 3-layer
// Diehl&Cook topology (input → excitatory → inhibitory) used for MNIST
// digit classification in the paper.
//
// Dynamics follow BindsNET's discretization (the library the paper
// used): exponential membrane decay toward rest, instantaneous synaptic
// injection with one-step delay, hard reset, per-step refractory
// counters, and exponentially decaying pre/post traces. Every neuron
// carries a threshold scale (power attacks) and an input gain (driver
// corruption).
//
// There is one LIF update (GroupParams.step) and one network step
// (Params.step). Inference runs them against frozen Params; a learning
// DiehlCook runs its plasticity around the same step.
package snn

import (
	"fmt"
	"math"

	"snnfi/internal/tensor"
)

// LIFConfig parametrizes a leaky integrate-and-fire group.
type LIFConfig struct {
	N int // neuron count

	Rest   float64 // resting potential (mV)
	Reset  float64 // post-spike reset potential (mV)
	Thresh float64 // firing threshold (mV)

	TCDecay float64 // membrane decay time constant (ms)
	Refrac  int     // refractory period (steps)

	// Adaptive threshold (Diehl&Cook excitatory neurons): each spike
	// adds ThetaPlus to theta, which decays with time constant
	// ThetaDecayTC (ms; ~1e7, effectively persistent within a run).
	ThetaPlus    float64
	ThetaDecayTC float64

	TraceTC float64 // post-synaptic trace time constant (ms)

	Dt float64 // timestep (ms)
}

// Validate reports configuration errors.
func (c LIFConfig) Validate() error {
	if c.N <= 0 {
		return fmt.Errorf("snn: LIF group needs N > 0, got %d", c.N)
	}
	if c.TCDecay <= 0 {
		return fmt.Errorf("snn: TCDecay must be positive, got %g", c.TCDecay)
	}
	if c.Thresh <= c.Rest {
		return fmt.Errorf("snn: Thresh (%g) must exceed Rest (%g)", c.Thresh, c.Rest)
	}
	if c.Dt <= 0 {
		return fmt.Errorf("snn: Dt must be positive, got %g", c.Dt)
	}
	return nil
}

// ExcConfig returns the Diehl&Cook excitatory-layer configuration
// (BindsNET DiehlAndCookNodes defaults).
func ExcConfig(n int) LIFConfig {
	return LIFConfig{
		N: n, Rest: -65, Reset: -60, Thresh: -52,
		TCDecay: 100, Refrac: 5,
		ThetaPlus: 0.1, ThetaDecayTC: 1e7,
		TraceTC: 20, Dt: 1,
	}
}

// InhConfig returns the Diehl&Cook inhibitory-layer configuration
// (BindsNET LIFNodes defaults for the inhibitory population). Only the
// excitatory layer adapts and keeps traces — STDP runs on input→exc
// alone — so ThetaPlus and TraceTC are 0.
func InhConfig(n int) LIFConfig {
	return LIFConfig{
		N: n, Rest: -60, Reset: -45, Thresh: -40,
		TCDecay: 10, Refrac: 2,
		TraceTC: 0, Dt: 1,
	}
}

// decayPer returns exp(−dt/tc), or 1 (no decay) for tc ≤ 0.
func decayPer(dt, tc float64) float64 {
	if tc <= 0 {
		return 1
	}
	return math.Exp(-dt / tc)
}

// LIFGroup is a population's parameters: its configuration, learned
// adaptive thresholds and fault hooks. Its dynamics run in
// GroupParams.step over a State.
type LIFGroup struct {
	Cfg LIFConfig

	// Theta holds the adaptive threshold increments (mV). A learning
	// DiehlCook adapts the excitatory layer's; inference folds them
	// into GroupParams.EffThresh.
	Theta tensor.Vector

	// ThreshScale multiplies each neuron's threshold value (Thresh +
	// Theta, in mV): the power-attack knob, 1 = nominal, in the paper's
	// BindsNET convention (a "−20%" change multiplies by 0.8). The
	// thresholds are negative voltages, so scaling down *raises* the
	// threshold above rest: the paper's −20% silences the inhibitory
	// layer and winner-take-all learning collapses.
	ThreshScale tensor.Vector
	// InputGain multiplies each neuron's synaptic drive: the
	// driver-corruption knob. 1 = nominal.
	InputGain tensor.Vector
}

// NewLIFGroup allocates an untrained group with nominal fault hooks.
func NewLIFGroup(cfg LIFConfig) (*LIFGroup, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return newLIFGroup(cfg), nil
}

func newLIFGroup(cfg LIFConfig) *LIFGroup {
	g := &LIFGroup{
		Cfg:         cfg,
		Theta:       tensor.NewVector(cfg.N),
		ThreshScale: tensor.NewVector(cfg.N),
		InputGain:   tensor.NewVector(cfg.N),
	}
	g.ThreshScale.Fill(1)
	g.InputGain.Fill(1)
	return g
}

// clone returns a deep copy of g.
func (g *LIFGroup) clone() *LIFGroup {
	c := *g
	c.Theta, c.ThreshScale, c.InputGain = g.Theta.Copy(), g.ThreshScale.Copy(), g.InputGain.Copy()
	return &c
}

// EffectiveThreshold returns the firing threshold of neuron i with the
// fault hook applied: (Thresh + Theta)·ThreshScale.
func (g *LIFGroup) EffectiveThreshold(i int) float64 {
	return (g.Cfg.Thresh + g.Theta[i]) * g.ThreshScale[i]
}

// adapt decays theta one step by decay and writes the effective
// thresholds (Thresh+θ)·ThreshScale into eff, four neurons per
// iteration — the threshold half of a learning step.
func (g *LIFGroup) adapt(eff tensor.Vector, decay float64) {
	theta := g.Theta
	scale, eff := g.ThreshScale[:len(theta)], eff[:len(theta)]
	thresh := g.Cfg.Thresh
	i := 0
	for ; i+3 < len(theta); i += 4 {
		t0, t1, t2, t3 := theta[i]*decay, theta[i+1]*decay, theta[i+2]*decay, theta[i+3]*decay
		theta[i], theta[i+1], theta[i+2], theta[i+3] = t0, t1, t2, t3
		eff[i] = (thresh + t0) * scale[i]
		eff[i+1] = (thresh + t1) * scale[i+1]
		eff[i+2] = (thresh + t2) * scale[i+2]
		eff[i+3] = (thresh + t3) * scale[i+3]
	}
	for ; i < len(theta); i++ {
		t := theta[i] * decay
		theta[i] = t
		eff[i] = (thresh + t) * scale[i]
	}
}

// GroupParams is one layer as the LIF update sees it, with theta and
// the fault hooks folded in.
type GroupParams struct {
	N, Refrac          int
	Rest, Reset, decay float64

	// EffThresh[i] = (Thresh + Theta[i]) · ThreshScale[i]; a learning
	// network rewrites it every step from its decaying theta.
	EffThresh tensor.Vector
	Gain      tensor.Vector // per-neuron drive gain (InputGain)

	// restSafe: no neuron can fire from rest (EffThresh[i] > Rest for
	// all i), enabling the idle skip in the undriven step.
	restSafe bool
}

// freezeGroup snapshots a layer into fresh buffers.
func freezeGroup(g *LIFGroup) GroupParams {
	gp := GroupParams{EffThresh: tensor.NewVector(g.Cfg.N), Gain: tensor.NewVector(g.Cfg.N)}
	gp.load(g)
	return gp
}

// load writes g's constants, thresholds and gains into gp's buffers.
func (gp *GroupParams) load(g *LIFGroup) {
	c := g.Cfg
	gp.N, gp.Rest, gp.Reset, gp.Refrac = c.N, c.Rest, c.Reset, c.Refrac
	gp.decay = decayPer(c.Dt, c.TCDecay)
	copy(gp.Gain, g.InputGain)
	gp.restSafe = true
	for i := range gp.EffThresh {
		gp.EffThresh[i] = g.EffectiveThreshold(i)
		if gp.EffThresh[i] <= c.Rest {
			gp.restSafe = false
		}
	}
}

// step is the LIF update: it advances one layer one timestep against
// the membranes v and refractory counters refrac, and returns the
// indices of the neurons that spiked (in scratch's storage).
//
// A driven step runs a 4-wide membrane decay pass, then the branchy
// refractory/drive/spike pass. A nil drive (no synaptic input) takes
// the idle path, bit-identical to a zero drive: while restSafe holds,
// neurons exactly at rest with no refractory count cannot fire and
// are skipped. Inhibitory neurons whose partner has not spiked stay at
// rest, so this skips most of that layer; one loop for both cases
// measured ~10% slower.
func (g *GroupParams) step(v tensor.Vector, refrac []int, drive tensor.Vector, scratch []int) []int {
	scratch = scratch[:0]
	rest := g.Rest
	eff := g.EffThresh[:len(v)]

	if drive != nil {
		gain := g.Gain[:len(v)]
		drive = drive[:len(v)]
		v.DecayToward(rest, g.decay)
		for i := range v {
			if refrac[i] > 0 {
				refrac[i]--
				continue
			}
			x := v[i] + drive[i]*gain[i]
			if x >= eff[i] {
				scratch = append(scratch, i)
				x = g.Reset
				refrac[i] = g.Refrac
			}
			v[i] = x
		}
		return scratch
	}

	idleSkip := g.restSafe
	for i := range v {
		x := v[i]
		if idleSkip && x == rest && refrac[i] == 0 {
			continue
		}
		if x != rest {
			x = rest + (x-rest)*g.decay
		}
		if refrac[i] > 0 {
			refrac[i]--
			v[i] = x
			continue
		}
		if x >= eff[i] {
			scratch = append(scratch, i)
			x = g.Reset
			refrac[i] = g.Refrac
		}
		v[i] = x
	}
	return scratch
}
