package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"snnfi/internal/core"
	"snnfi/internal/encoding"
	"snnfi/internal/mnist"
	"snnfi/internal/neuron"
	"snnfi/internal/obs"
	"snnfi/internal/runner"
	"snnfi/internal/snn"
	"snnfi/internal/spice"
	"snnfi/internal/suite"
)

// repConfig is one repetition of one workload, run in a process of its
// own so that its set-up is cold and its peak memory is its own.
type repConfig struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	// Suite is the paper suite the suite workloads are generated from.
	Suite string `json:"suite"`
	// Out receives the artifacts; it starts empty.
	Out string `json:"out"`
	// Cache holds the disk tiers. The driver gives every repetition a
	// fresh one; TestWarmReplayMatchesCold replays from a filled one.
	Cache string `json:"cache"`
	Size  size   `json:"size"`
	// SetupOnly stops the repetition once set-up is measured.
	SetupOnly bool `json:"setup_only"`
}

// errSetupDone stops a set-up-only repetition before the baseline trains.
var errSetupDone = errors.New("set-up measured")

// entryResult is one entry's outcome: its error and the digests of the
// artifacts it wrote.
type entryResult struct {
	ID    string            `json:"id"`
	Err   string            `json:"err,omitempty"`
	Files map[string]string `json:"files"`
}

// repResult is what a repetition reports to the parent. Work is counted
// three ways: image presentations in the learning and assignment
// passes, network cells completed (computed or served), and circuit
// sweep points completed.
type repResult struct {
	SetupS     float64            `json:"setup_s"`
	WallS      float64            `json:"wall_s"`
	CPUS       float64            `json:"cpu_s"`
	PeakRSSMiB float64            `json:"peak_rss_mib"`
	Work       map[string]float64 `json:"work"`
	// Trained counts the networks trained in the whole repetition, the
	// baseline included.
	Trained int64              `json:"trained"`
	Entries []entryResult      `json:"entries"`
	Layers  map[string]float64 `json:"layers,omitempty"`
	Spans   []span             `json:"spans,omitempty"`
}

// workers sizes every pool: all load comes from this one process.
var workers = runtime.NumCPU()

func runRep(cfg repConfig) (*repResult, error) {
	w, err := workloadByName(cfg.Workload)
	if err != nil {
		return nil, err
	}
	var res *repResult
	switch {
	case w.name == "train-one":
		res, err = runTrainOne(cfg)
	default:
		res, err = runSuite(cfg, w)
	}
	if err != nil {
		return nil, err
	}
	res.PeakRSSMiB, err = peakRSSMiB()
	return res, err
}

// probe is the running totals read around each entry.
type probe struct {
	at        time.Time
	cpu       float64
	cellJobs  int64
	cellBusy  time.Duration
	sweepJobs int64
	sweepBusy time.Duration
	solves    int64
	iters     int64
	trained   int64
}

func takeProbe(reg *obs.Registry, exp *core.Experiment) probe {
	p := probe{
		at:        time.Now(),
		cpu:       cpuSeconds(),
		cellJobs:  reg.Counter("core.cells.jobs").Value(),
		cellBusy:  reg.Histogram("core.cells.run").Sum(),
		sweepJobs: reg.Counter("neuron.sweep.jobs").Value(),
		sweepBusy: reg.Histogram("neuron.sweep.run").Sum(),
	}
	p.solves, p.iters, _ = spice.SolverCounts()
	if exp != nil {
		p.trained = exp.TrainCount()
	}
	return p
}

// entryDelta is what one entry did, from the probes around it.
type entryDelta struct {
	id                   string
	wall, cpu            float64
	cellJobs, sweepJobs  int64
	cellBusy, sweepBusy  float64
	solves, iters, train int64
}

func delta(id string, a, b probe) entryDelta {
	return entryDelta{
		id: id, wall: b.at.Sub(a.at).Seconds(), cpu: b.cpu - a.cpu,
		cellJobs: b.cellJobs - a.cellJobs, cellBusy: (b.cellBusy - a.cellBusy).Seconds(),
		sweepJobs: b.sweepJobs - a.sweepJobs, sweepBusy: (b.sweepBusy - a.sweepBusy).Seconds(),
		solves: b.solves - a.solves, iters: b.iters - a.iters, train: b.trained - a.trained,
	}
}

// suiteRun is one repetition of a suite workload.
type suiteRun struct {
	tr    *tracer
	reg   *obs.Registry
	cache *cacheStats
	sink  *spikeSink

	images   []mnist.Image
	corpusS  float64
	baseline float64
	exp      *core.Experiment
	entries  []entryDelta
}

// tier composes a fresh memory level over a disk level, the -cache-dir
// wiring, and wraps it in the timing wrapper when traced.
func tier[T any](sr *suiteRun, mem runner.Cache[T], dir string) (runner.Cache[T], *runner.DiskCache[T], error) {
	disk, err := runner.NewDiskCache[T](dir)
	if err != nil {
		return nil, nil, err
	}
	var c runner.Cache[T] = runner.NewTiered(mem, disk)
	if sr.tr != nil {
		c = timedCache[T]{inner: c, stats: sr.cache, tr: sr.tr}
	}
	return c, disk, nil
}

// runSuite runs the workload's entries once.
func runSuite(cfg repConfig, w workload) (*repResult, error) {
	sr := &suiteRun{cache: &cacheStats{}, sink: &spikeSink{}}
	if cfg.Trace {
		sr.tr, sr.reg = newTracer(), obs.NewRegistry()
	}
	tr := sr.tr
	t0 := time.Now()
	root := tr.start("run", 0)
	setup := tr.start("setup", root)

	id := tr.start("suite.load", setup)
	su, err := loadSuite(cfg.Suite, w, cfg.Seed, cfg.Size)
	tr.end(id)
	if err != nil {
		return nil, err
	}
	if w.network {
		id = tr.start("mnist.corpus", setup)
		start := time.Now()
		sr.images = makeCorpus(cfg.Seed, cfg.Size.Images)
		mnist.Digest(sr.images)
		sr.corpusS = time.Since(start).Seconds()
		tr.end(id)
	}

	char := neuron.NewCharacterizer()
	char.Workers = workers
	char.Obs = sr.reg
	var points atomic.Int64
	char.OnProgress = func(runner.Progress) { points.Add(1) }
	var circuitDisk *runner.DiskCache[float64]
	if char.Cache, circuitDisk, err = tier(sr, char.Cache, filepath.Join(cfg.Cache, "circuit")); err != nil {
		return nil, err
	}
	r := &suite.Runner{
		Suite: su, Name: "perfbench", OutDir: cfg.Out, Stdout: io.Discard,
		Images: cfg.Size.Images, Neurons: cfg.Size.Neurons, Steps: cfg.Size.Steps,
		Workers: workers, Char: char, Obs: sr.reg,
	}
	if cfg.Trace {
		r.Sinks = []runner.Sink{sr.sink}
	}

	var (
		networkDisk *runner.DiskCache[*core.Result]
		cells       atomic.Int64
		setupEnd    time.Time
		cpu0        float64
		expSpan     int
		baseline    int
	)
	r.OnExperiment = func(e *core.Experiment) error {
		e.Images = sr.images
		e.EncSeed = seedFor(cfg.Seed, "encoder")
		e.Cfg.Seed = seedFor(cfg.Seed, "weights")
		var err error
		if e.Cache, networkDisk, err = tier(sr, e.Cache, filepath.Join(cfg.Cache, "network")); err != nil {
			return err
		}
		e.OnProgress = runner.ChainProgress(e.OnProgress, func(runner.Progress) { cells.Add(1) })
		tr.end(expSpan)
		tr.end(setup)
		setupEnd, cpu0 = time.Now(), cpuSeconds()
		if cfg.SetupOnly {
			return errSetupDone
		}
		baseline = tr.start("core.baseline", root)
		tr.enter(baseline)
		return nil
	}
	if w.network {
		// The explicit baseline: every cell scores against it, so it is a
		// serial step before the first entry.
		expSpan = tr.start("core.experiment", setup)
		sr.exp, err = r.Experiment()
		if errors.Is(err, errSetupDone) {
			return &repResult{SetupS: setupEnd.Sub(t0).Seconds()}, nil
		}
		if err != nil {
			return nil, err
		}
		tr.end(baseline)
		sr.baseline = time.Since(setupEnd).Seconds()
	} else {
		tr.end(setup)
		setupEnd, cpu0 = time.Now(), cpuSeconds()
		if cfg.SetupOnly {
			return &repResult{SetupS: setupEnd.Sub(t0).Seconds()}, nil
		}
	}

	res := &repResult{SetupS: setupEnd.Sub(t0).Seconds()}
	written := make([][]string, len(w.entries))
	seen := map[string]bool{}
	for i, id := range w.entries {
		sp := tr.start("entry."+id, root)
		tr.enter(sp)
		a := takeProbe(sr.reg, sr.exp)
		runErr := r.Run([]string{id})
		b := takeProbe(sr.reg, sr.exp)
		tr.end(sp)
		d := delta(id, a, b)
		sr.entries = append(sr.entries, d)
		er := entryResult{ID: id}
		if runErr != nil {
			er.Err = runErr.Error()
		}
		if written[i], err = newFiles(cfg.Out, seen); err != nil {
			return nil, err
		}
		res.Entries = append(res.Entries, er)
	}
	res.WallS = time.Since(setupEnd).Seconds()
	res.CPUS = cpuSeconds() - cpu0
	tr.enter(root)
	for i := range res.Entries {
		if res.Entries[i].Files, err = digest(cfg.Out, written[i]); err != nil {
			return nil, err
		}
	}
	if err := circuitDisk.Err(); err != nil {
		return nil, err
	}
	if networkDisk != nil {
		if err := networkDisk.Err(); err != nil {
			return nil, err
		}
	}

	res.Work = map[string]float64{"cells": float64(cells.Load()), "points": float64(points.Load())}
	if sr.exp != nil {
		res.Trained = sr.exp.TrainCount()
		res.Work["images"] = float64(2 * res.Trained * int64(len(sr.images)))
	}
	if cfg.Trace {
		res.Layers = sr.layers()
		tr.end(root)
		res.Spans = tr.finish()
	}
	return res, nil
}

// layers computes the per-layer metrics of a traced suite repetition
// from exact histogram sums, counters and the entry probes.
func (sr *suiteRun) layers() map[string]float64 {
	reg, w := sr.reg, float64(workers)
	m := map[string]float64{
		"mnist.corpus_s":  sr.corpusS,
		"core.baseline_s": sr.baseline,
	}
	for _, d := range sr.entries {
		m["suite.entry_s."+d.id] = d.wall
	}

	jobs, hits := reg.Counter("core.cells.jobs").Value(), reg.Counter("core.cells.hits").Value()
	busy := reg.Histogram("core.cells.run").Sum().Seconds()
	m["core.cells"] = float64(jobs)
	m["core.cells_computed"] = float64(jobs - hits)
	m["core.cell_busy_s"] = busy
	m["core.cell_wait_s"] = reg.Histogram("core.cells.wait").Sum().Seconds()
	m["core.cell_mean_s"] = ratio(busy, float64(jobs))
	var netWall, idle, sweepWall, solverCPU float64
	var solverSolves, solves, iters int64
	for _, d := range sr.entries {
		if d.cellJobs > 0 {
			netWall += d.wall
			idle += w*d.wall - d.cellBusy
		}
		if d.sweepJobs > 0 {
			sweepWall += d.wall
		}
		solves += d.solves
		iters += d.iters
		if d.solves > 0 && d.train == 0 {
			solverCPU += d.cpu
			solverSolves += d.solves
		}
	}
	m["runner.utilization"] = ratio(busy, w*netWall)
	m["runner.drain_idle_s"] = idle
	cacheMetrics(m, sr.cache)

	var networks int64
	if sr.exp != nil {
		networks = sr.exp.TrainCount()
	}
	snnMetrics(m, reg, networks, len(sr.images))
	m["snn.exc_spikes_per_image"] = ratio(sr.sink.spikes, float64(sr.sink.records)*float64(len(sr.images)))
	if networks > 0 {
		encodingMetrics(m, sr.tr, sr.images, sr.exp.EncSeed, sr.exp.Cfg.Steps, networks)
	}

	sweepJobs := reg.Counter("neuron.sweep.jobs").Value()
	sweepBusy := reg.Histogram("neuron.sweep.run").Sum().Seconds()
	m["neuron.points"] = float64(sweepJobs)
	m["neuron.sweep_busy_s"] = sweepBusy
	m["neuron.sweep_wait_s"] = reg.Histogram("neuron.sweep.wait").Sum().Seconds()
	m["neuron.hit_ratio"] = ratio(float64(reg.Counter("neuron.sweep.hits").Value()), float64(sweepJobs))
	m["neuron.utilization"] = ratio(sweepBusy, w*sweepWall)

	m["spice.solves"] = float64(solves)
	m["spice.newton_iters"] = float64(iters)
	m["spice.newton_per_solve"] = ratio(float64(iters), float64(solves))
	m["spice.us_per_solve"] = ratio(1e6*solverCPU, float64(solverSolves))
	return m
}

func cacheMetrics(m map[string]float64, c *cacheStats) {
	gets, hits := float64(c.gets.Load()), float64(c.hits.Load())
	m["runner.cache.gets"] = gets
	m["runner.cache.hits"] = hits
	m["runner.cache.hit_ratio"] = ratio(hits, gets)
	m["runner.cache.get_s"] = time.Duration(c.getNs.Load()).Seconds()
	m["runner.cache.puts"] = float64(c.puts.Load())
	m["runner.cache.put_s"] = time.Duration(c.putNs.Load()).Seconds()
}

// snnMetrics reads the training spans and the assignment pool of
// networks trained on images presentations each.
func snnMetrics(m map[string]float64, reg *obs.Registry, networks int64, images int) {
	learn := reg.Histogram("snn.stdp").Sum().Seconds()
	assign := reg.Histogram("snn.assign").Sum().Seconds()
	presentations := float64(networks) * float64(images)
	m["snn.learn_s"] = learn
	m["snn.assign_s"] = assign
	m["snn.eval_busy_s"] = reg.Histogram("snn.eval.run").Sum().Seconds()
	m["snn.eval_wait_s"] = reg.Histogram("snn.eval.wait").Sum().Seconds()
	m["snn.networks"] = float64(networks)
	m["snn.learn_us_per_image"] = ratio(1e6*learn, presentations)
	m["snn.assign_us_per_image"] = ratio(1e6*assign, presentations)
}

// encodingMetrics replays every image's input stream once, outside the
// measured interval, the way each presentation draws it (per-image
// seed, Begin, one EncodeStep per step). encoding.stream_s is computed:
// the replay time scaled by two passes per trained network.
func encodingMetrics(m map[string]float64, tr *tracer, images []mnist.Image, encSeed int64, steps int, networks int64) {
	id := tr.start("encoding.stream", tr.currentSpan())
	enc := encoding.NewPoissonEncoder(encSeed)
	var spikes int64
	start := time.Now()
	for i := range images {
		enc.Reseed(snn.ImageSeed(encSeed, i))
		enc.Begin(&images[i])
		for t := 0; t < steps; t++ {
			spikes += int64(len(enc.EncodeStep()))
		}
	}
	replay := time.Since(start).Seconds()
	tr.end(id)
	stream := replay * 2 * float64(networks)
	m["encoding.stream_s"] = stream
	m["encoding.share"] = ratio(stream, m["snn.learn_s"]+m["snn.assign_s"])
	m["encoding.input_spikes_per_image"] = ratio(float64(spikes), float64(len(images)))
}

// runTrainOne trains one network, with no fault plan and minibatch
// STDP, on a large corpus through snn.TrainWith.
func runTrainOne(cfg repConfig) (*repResult, error) {
	var (
		tr  *tracer
		reg *obs.Registry
	)
	if cfg.Trace {
		tr, reg = newTracer(), obs.NewRegistry()
	}
	t0 := time.Now()
	root := tr.start("run", 0)
	setup := tr.start("setup", root)
	id := tr.start("mnist.corpus", setup)
	images := makeCorpus(cfg.Seed, cfg.Size.TrainImages)
	mnist.Digest(images)
	corpusS := time.Since(t0).Seconds()
	tr.end(id)
	netCfg := snn.DefaultConfig()
	if cfg.Size.Neurons > 0 {
		netCfg.NExc, netCfg.NInh = cfg.Size.Neurons, cfg.Size.Neurons
	}
	if cfg.Size.Steps > 0 {
		netCfg.Steps = cfg.Size.Steps
	}
	netCfg.Seed = seedFor(cfg.Seed, "weights")
	encSeed := seedFor(cfg.Seed, "encoder")
	net, err := snn.NewDiehlCook(netCfg)
	if err != nil {
		return nil, err
	}
	enc := encoding.NewPoissonEncoder(encSeed)
	tr.end(setup)
	setupEnd := time.Now()
	if cfg.SetupOnly {
		return &repResult{SetupS: setupEnd.Sub(t0).Seconds()}, nil
	}
	cpu0 := cpuSeconds()

	sp := tr.start("entry."+trainOneEntry, root)
	tr.enter(sp)
	er := entryResult{ID: trainOneEntry}
	trained, err := snn.TrainWith(net, images, enc, snn.TrainOptions{Workers: workers, Batch: cfg.Size.Batch, Obs: reg})
	if err != nil {
		er.Err = err.Error()
	} else if err := writeTrainResult(filepath.Join(cfg.Out, trainOneCSV), trained); err != nil {
		return nil, err
	}
	tr.end(sp)
	res := &repResult{
		SetupS:  setupEnd.Sub(t0).Seconds(),
		WallS:   time.Since(setupEnd).Seconds(),
		CPUS:    cpuSeconds() - cpu0,
		Work:    map[string]float64{"images": float64(2 * len(images))},
		Trained: 1,
	}
	if er.Err == "" {
		if er.Files, err = digest(cfg.Out, []string{trainOneCSV}); err != nil {
			return nil, err
		}
	}
	res.Entries = []entryResult{er}
	if cfg.Trace {
		m := map[string]float64{"mnist.corpus_s": corpusS}
		snnMetrics(m, reg, 1, len(images))
		if trained != nil {
			m["snn.exc_spikes_per_image"] = ratio(trained.TotalSpikes, float64(len(images)))
		}
		tr.enter(root)
		encodingMetrics(m, tr, images, encSeed, netCfg.Steps, 1)
		res.Layers = m
		tr.end(root)
		res.Spans = tr.finish()
	}
	return res, nil
}

// trainOneCSV is train-one's artifact.
const trainOneCSV = "train_one.csv"

// writeTrainResult renders a trained network's outcome: accuracy and
// spike total, then each excitatory neuron's class and assignment-pass
// spike count.
func writeTrainResult(path string, res *snn.TrainResult) error {
	var b strings.Builder
	fmt.Fprintf(&b, "accuracy,total_spikes\n%g,%g\nneuron,class,spikes\n", res.Accuracy, res.TotalSpikes)
	for j, class := range res.Assignments {
		spikes := 0.0
		for _, counts := range res.PerImage {
			spikes += counts[j]
		}
		fmt.Fprintf(&b, "%d,%d,%g\n", j, class, spikes)
	}
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// newFiles returns the names in dir not yet in seen, and adds them.
func newFiles(dir string, seen map[string]bool) ([]string, error) {
	des, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, de := range des {
		if name := de.Name(); !seen[name] {
			seen[name] = true
			names = append(names, name)
		}
	}
	return names, nil
}

// digest returns the SHA-256 of each named file in dir.
func digest(dir string, names []string) (map[string]string, error) {
	out := map[string]string{}
	for _, name := range names {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, err
		}
		sum := sha256.Sum256(data)
		out[name] = hex.EncodeToString(sum[:])
	}
	return out, nil
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	// RUSAGE_SELF with a valid pointer cannot fail.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMiB reads the process's resident high-water mark (VmHWM), which
// covers only this process image, not the parent it was started from.
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kib, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kib / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}
