package main

import (
	"fmt"
	"math/rand"

	"snnfi/internal/mnist"
	"snnfi/internal/runner"
	"snnfi/internal/suite"
)

// Seeds recorded for claims: defaultSeed is the one whose artifacts are
// pinned in digests.json; heldOutSeed is kept out of tuning so a claim
// can be re-checked on inputs nobody optimized against.
const (
	defaultSeed = 1
	heldOutSeed = 1009
)

// workload is one named input set. Suite workloads run the listed
// entries of the paper suite; train-one's single network is reported as
// one pseudo-entry.
type workload struct {
	name    string
	entries []string
	// network marks workloads that build a corpus and train (or serve)
	// Diehl & Cook networks.
	network bool
	// unit is the work work_per_s counts: "images" (presentations in
	// the learning and assignment passes) or "points" (circuit sweep
	// points).
	unit string
}

// The network and circuit entries of suites/paper.json, in suite order.
var (
	networkEntries = []string{"F7b", "F8a", "F8b", "F8c", "F9a", "F9c", "D2", "D3", "D4", "D5", "E1", "E2"}
	circuitEntries = []string{"F3", "F4", "F5b", "F5c", "F6a", "F6b", "F6c", "F9b", "F10a", "F10c", "M1", "D1"}
)

// trainOneEntry names train-one's single unit of work in results and
// digests, like a suite entry ID.
const trainOneEntry = "train-one"

// A warm replay of campaign is checked by TestWarmReplayMatchesCold but
// is not a workload: it could not be made steady (see README.md).
var workloads = []workload{
	{name: "campaign", entries: networkEntries, network: true, unit: "images"},
	{name: "circuit", entries: circuitEntries, unit: "points"},
	{name: "train-one", entries: []string{trainOneEntry}, network: true, unit: "images"},
}

func workloadByName(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// size fixes how much work one repetition does. Zero Neurons/Steps keep
// the paper suite's 100+100 neurons × 250 steps.
type size struct {
	// Images is the corpus of the suite's network entries.
	Images  int
	Neurons int
	Steps   int
	// TrainImages and Batch shape train-one: one network on a large
	// corpus with minibatch STDP.
	TrainImages int
	Batch       int
	// Density is the number of sweep points per interval of each
	// circuit axis (1 keeps the suite's axes).
	Density int
}

// benchSize is what the driver measures.
var benchSize = size{Images: 150, TrainImages: 3000, Batch: 16, Density: 2}

// seedFor derives one input's seed from the workload seed. Seeds the
// suite treats 0 as "default" for are kept nonzero.
func seedFor(seed int64, parts ...any) int64 {
	s := runner.DeriveSeed(seed, parts...)
	if s == 0 {
		s = 1
	}
	return s
}

// makeCorpus is the seed-generated synthetic digit set a workload
// trains on.
func makeCorpus(seed int64, n int) []mnist.Image {
	return mnist.Synthetic(n, seedFor(seed, "corpus"))
}

// loadSuite decodes the paper suite, keeps the workload's entries, and
// re-derives every seeded input from the workload seed: fault-mask
// seeds, weight-fault seeds, the Monte-Carlo sample stream, and the
// positions of the extra circuit sweep points.
func loadSuite(path string, w workload, seed int64, sz size) (*suite.Suite, error) {
	su, err := suite.Load(path)
	if err != nil {
		return nil, err
	}
	byID := map[string]suite.Entry{}
	for _, e := range su.Entries {
		byID[e.ID] = e
	}
	su.Entries = su.Entries[:0:0]
	for _, id := range w.entries {
		e, ok := byID[id]
		if !ok {
			return nil, fmt.Errorf("%s: no entry %s", path, id)
		}
		reseed(&e, seed)
		densifyEntry(&e, sz.Density, rand.New(rand.NewSource(seedFor(seed, "axis", id))))
		su.Entries = append(su.Entries, e)
	}
	if err := su.Validate(); err != nil {
		return nil, err
	}
	return su, nil
}

func reseed(e *suite.Entry, seed int64) {
	if s := e.Scenario; s != nil && len(s.FractionsPc) > 0 {
		s.MaskSeed = seedFor(seed, "mask", e.ID)
	}
	// One seed per entry keeps the suite's shape: every weight-fault
	// spec of an entry corrupts the same synapses.
	for i := range e.WeightFaults {
		e.WeightFaults[i].Seed = seedFor(seed, "weight-fault", e.ID)
	}
	if e.MonteCarlo != nil {
		e.MonteCarlo.Seed = seedFor(seed, "montecarlo", e.ID)
	}
}

// densifyEntry puts density−1 extra points into every interval of each
// circuit axis and of the detector's supply axis. Series that shared an
// axis still share one, and delta-pc columns keep pointing at the same
// reference value, which moves to index i·density. The entry was just
// decoded, so it is edited in place.
func densifyEntry(e *suite.Entry, density int, rng *rand.Rand) {
	if density <= 1 {
		return
	}
	if d := e.Detection; d != nil {
		d.VDDs = densify(d.VDDs, density, rng)
	}
	axes := map[string][]float64{}
	grown := make([]bool, len(e.Circuit))
	for i := range e.Circuit {
		xs := e.Circuit[i].Xs
		if len(xs) < 2 {
			continue // a single reference point, not an axis
		}
		key := fmt.Sprint(xs)
		if _, ok := axes[key]; !ok {
			axes[key] = densify(xs, density, rng)
		}
		e.Circuit[i].Xs = axes[key]
		grown[i] = true
	}
	if e.Output == nil || len(e.Circuit) == 0 {
		return
	}
	for i := range e.Output.Columns {
		c := &e.Output.Columns[i]
		ref := c.Series
		if c.RefSeries != nil {
			ref = *c.RefSeries
		}
		if c.From == "delta-pc" && grown[ref] {
			c.RefIndex *= density
		}
	}
}

// densify returns xs with density−1 points inside each interval, each
// near one of the evenly spaced interior positions and jittered by the
// seed up to 40% of the spacing: the point count is fixed and only the
// positions depend on the seed.
func densify(xs []float64, density int, rng *rand.Rand) []float64 {
	if len(xs) < 2 {
		return xs
	}
	out := make([]float64, 0, (len(xs)-1)*density+1)
	for i := 0; i+1 < len(xs); i++ {
		lo, hi := xs[i], xs[i+1]
		out = append(out, lo)
		for j := 1; j < density; j++ {
			pos := float64(j) + 0.8*(rng.Float64()-0.5)
			out = append(out, lo+(hi-lo)*pos/float64(density))
		}
	}
	return append(out, xs[len(xs)-1])
}
