package snn

// Minibatch STDP (train-protocol-v3, TrainOptions.Batch > 1): each
// group of Batch images is presented against the same frozen snapshot
// of the weights and excitatory theta (normalized once per batch), and
// the per-image updates are merged in image order:
//
//	W      = clamp( W_frozen + Σ_i (W_i − W_frozen), 0, WMax )
//	Theta  = Theta_frozen + Σ_i (Theta_i − Theta_frozen)
//
// Each delta depends only on (snapshot, image, ImageSeed(base, i)), so
// presentations run concurrently on worker clones, bit-identical at
// every worker count. (Batch = 1 stays serial: frozen + (trained −
// frozen) differs from trained in the last ulp.) A weight delta lies
// in the image's final preActive × postActive submatrix; extraction
// records the entries that moved and restores them, returning the
// clone to the snapshot without a full copy. Theta's delta is dense.

import (
	"fmt"
	"runtime"

	"snnfi/internal/encoding"
	"snnfi/internal/mnist"
	"snnfi/internal/runner"
	"snnfi/internal/tensor"
)

// trainDelta is one image's contribution to its minibatch.
type trainDelta struct {
	wIdx   []int32       // flattened W indices whose weight changed
	wDelta []float64     // matching (presented − frozen) differences
	dTheta tensor.Vector // dense excitatory theta delta
	cols   []int         // STDP-touched columns, for dirty normalization
}

// trainClone is one training worker's private network + encoder. sync
// copies the master's snapshot when a batch has been merged since the
// clone last looked; present restores what it touched, so within a
// batch the clone stays on the snapshot without re-copying.
type trainClone struct {
	net     *DiehlCook
	enc     *encoding.PoissonEncoder
	version uint64 // master merge counter the clone's parameters mirror
}

// newTrainClone builds a worker clone of master with the same
// configuration and fault hooks; version 0 forces the first sync.
func newTrainClone(master *DiehlCook, enc *encoding.PoissonEncoder) *trainClone {
	n := newDiehlCook(master.Cfg, master.Exc.clone(), master.Inh.clone(), master.InputDriveScale)
	ce := encoding.NewPoissonEncoder(0)
	ce.MaxRate, ce.Dt, ce.Mode = enc.MaxRate, enc.Dt, enc.Mode
	return &trainClone{net: n, enc: ce}
}

// sync copies the master's weights and theta if a batch was merged
// since the last sync. The master is read-only during a batch.
func (c *trainClone) sync(master *DiehlCook, version uint64) {
	if c.version == version {
		return
	}
	copy(c.net.W.Data, master.W.Data)
	copy(c.net.Exc.Theta, master.Exc.Theta)
	c.version = version
}

// present runs one learning presentation of img on the clone and
// returns its delta against the master's snapshot, restoring the clone
// to the snapshot.
func (c *trainClone) present(master *DiehlCook, img *mnist.Image, seed int64) trainDelta {
	c.enc.Reseed(seed)
	c.enc.Begin(img)
	n := c.net
	n.present(c.enc.EncodeStep, true)

	d := trainDelta{
		dTheta: make(tensor.Vector, len(n.Exc.Theta)),
		cols:   append([]int(nil), n.dirtyCols...),
	}
	mw, cw := master.W.Data, n.W.Data
	cols := n.W.Cols
	for _, i := range n.preActive {
		base := i * cols
		for _, j := range n.postActive {
			e := base + j
			if cw[e] != mw[e] {
				d.wIdx = append(d.wIdx, int32(e))
				d.wDelta = append(d.wDelta, cw[e]-mw[e])
				cw[e] = mw[e]
			}
		}
	}
	mt := master.Exc.Theta
	for j := range d.dTheta {
		d.dTheta[j] = n.Exc.Theta[j] - mt[j]
	}
	copy(n.Exc.Theta, mt)
	n.clearDirty()
	return d
}

// applyDeltas merges a batch's per-image deltas into the master in
// image order, clamps every touched weight to [0, WMax] (individual
// updates respect the bounds but their sum may not), and marks the
// touched columns dirty for the next batch's normalization.
func applyDeltas(n *DiehlCook, deltas []trainDelta) {
	wd := n.W.Data
	for _, d := range deltas {
		for k, e := range d.wIdx {
			wd[e] += d.wDelta[k]
		}
		n.Exc.Theta.Add(d.dTheta)
		n.markDirty(d.cols)
	}
	wmax := n.Cfg.WMax
	for _, d := range deltas {
		for _, e := range d.wIdx {
			if wd[e] < 0 {
				wd[e] = 0
			} else if wd[e] > wmax {
				wd[e] = wmax
			}
		}
	}
}

// trainMinibatch is TrainWith's Batch > 1 learning pass: each batch is
// normalized, presented in parallel, and merged in image order.
func trainMinibatch(n *DiehlCook, images []mnist.Image, enc *encoding.PoissonEncoder, opt TrainOptions) error {
	batch := opt.Batch
	workers := opt.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > batch {
		workers = batch
	}
	clones := make(chan *trainClone, workers)
	for w := 0; w < workers; w++ {
		clones <- newTrainClone(n, enc)
	}

	base := enc.Seed()
	seeds := make([]int64, len(images))
	for i := range seeds {
		seeds[i] = ImageSeed(base, i)
	}

	pool := &runner.Pool[trainDelta]{Workers: workers, Obs: opt.Obs, Name: "snn.stdp"}
	version := uint64(1)
	for lo := 0; lo < len(images); lo += batch {
		lo, hi := lo, min(lo+batch, len(images))
		n.normalizeDirty()
		jobs := make([]runner.Job[trainDelta], 0, hi-lo)
		for i := lo; i < hi; i++ {
			jobs = append(jobs, runner.Job[trainDelta]{
				Label: fmt.Sprintf("train image %d", i),
				Run: func() (trainDelta, error) {
					c := <-clones
					defer func() { clones <- c }()
					c.sync(n, version)
					return c.present(n, &images[i], seeds[i]), nil
				},
			})
		}
		deltas, err := pool.Run(jobs)
		if err != nil {
			return err
		}
		applyDeltas(n, deltas)
		version++
		if opt.OnProgress != nil {
			for i := lo; i < hi; i++ {
				opt.OnProgress(i+1, len(images))
			}
		}
	}
	return nil
}
