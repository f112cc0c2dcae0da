// Command perfbench is the repository's benchmark. It generates one of
// four workloads from a seed, drives it through the entry points users
// reach (suite.Runner, core.Experiment, snn.TrainWith and the runner
// caches), checks every artifact, and prints one JSON result line.
//
// Run it from the repository root:
//
//	sh perfbench/run.sh --workload campaign --seed 1 --seconds 35 --trace 0
//
// Each repetition runs in a child process of its own; repetitions
// repeat until --seconds are spent (at least three), and the end-to-end
// metrics are their medians. --trace 1 adds one traced repetition and
// reports the per-layer metrics instead. See README.md.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"syscall"
	"time"
)

// minReps is the fewest untraced repetitions a run measures.
const minReps = 3

// A suite workload's set-up lasts a few milliseconds, so its
// repetitions alone give too few samples for a steady median. Set-up-only
// repetitions add cold set-ups until the run holds setupSamples, or
// until they have taken setupSpend.
const (
	setupSamples = 25
	setupSpend   = 2 * time.Second
)

//go:embed digests.json
var pinnedJSON []byte

func main() {
	var (
		name    = flag.String("workload", "", "campaign | circuit | train-one")
		seed    = flag.Int64("seed", defaultSeed, "workload seed; every input is derived from it")
		seconds = flag.Int("seconds", 25, "measuring time in seconds")
		trace   = flag.Int("trace", 0, "1 reports per-layer metrics from an added traced repetition")
		repPath = flag.String("rep", "", "run the one repetition described in this file (used by the driver itself)")
	)
	flag.Parse()
	var err error
	if *repPath != "" {
		err = childMain(*repPath)
	} else {
		err = benchMain(*name, *seed, *seconds, *trace)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// childMain runs one repetition and writes its result to path + ".out".
func childMain(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var cfg repConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		return err
	}
	res, err := runRep(cfg)
	if err != nil {
		return err
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	return os.WriteFile(path+".out", out, 0o644)
}

// paperSuite is the suite the suite workloads are generated from,
// relative to the repository root the driver runs in.
const paperSuite = "suites/paper.json"

func benchMain(name string, seed int64, seconds, trace int) error {
	w, err := workloadByName(name)
	if err != nil {
		return err
	}
	if seconds < 1 || (trace != 0 && trace != 1) {
		return fmt.Errorf("need --seconds ≥ 1 and --trace 0 or 1")
	}
	if _, err := os.Stat(paperSuite); err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	work, err := filepath.Abs(filepath.Join(".bench_build", "perfbench", fmt.Sprintf("work-%d", os.Getpid())))
	if err != nil {
		return err
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(work)

	b := &bench{w: w, seed: seed, self: self, dir: work, refs: map[string]map[string]string{}}
	if seed == defaultSeed {
		if err := b.pin(); err != nil {
			return err
		}
	}
	res, err := b.run(time.Duration(seconds)*time.Second, trace == 1)
	if err != nil {
		return err
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// bench is one run of one workload: its repetitions and the reference
// digests every repetition's artifacts are checked against.
type bench struct {
	w    workload
	seed int64
	self string
	dir  string
	n    int

	// refs maps entry → artifact → SHA-256: the pinned digests for the
	// default seed, otherwise the first repetition's.
	refs              map[string]map[string]string
	attempted, failed int
}

// pin loads the default seed's digests.
func (b *bench) pin() error {
	var pinned map[string]map[string]map[string]string
	if err := json.Unmarshal(pinnedJSON, &pinned); err != nil {
		return fmt.Errorf("digests.json: %w", err)
	}
	for id, files := range pinned[b.w.name] {
		b.refs[id] = files
	}
	return nil
}

// rep runs one repetition in a child process, with fresh output and
// cache directories.
func (b *bench) rep(trace, setupOnly bool) (*repResult, time.Duration, error) {
	b.n++
	// Removing a repetition's files as soon as it ends, before they are
	// written back, keeps the run's disk traffic near zero.
	dir := filepath.Join(b.dir, fmt.Sprintf("rep%d", b.n))
	defer os.RemoveAll(dir)
	cfg := repConfig{
		Workload: b.w.name, Seed: b.seed, Trace: trace, Suite: paperSuite,
		Out: filepath.Join(dir, "out"), Cache: filepath.Join(dir, "cache"), Size: benchSize, SetupOnly: setupOnly,
	}
	if err := os.MkdirAll(cfg.Out, 0o755); err != nil {
		return nil, 0, err
	}
	data, err := json.Marshal(cfg)
	if err != nil {
		return nil, 0, err
	}
	path := filepath.Join(dir, "rep.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return nil, 0, err
	}
	cmd := exec.Command(b.self, "-rep", path)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	// The repetition must not outlive a driver that is stopped.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := cmd.Run(); err != nil {
		return nil, 0, fmt.Errorf("%s repetition: %w", b.w.name, err)
	}
	took := time.Since(start)
	out, err := os.ReadFile(path + ".out")
	if err != nil {
		return nil, 0, err
	}
	var res repResult
	if err := json.Unmarshal(out, &res); err != nil {
		return nil, 0, err
	}
	b.check(&res)
	return &res, took, nil
}

// check verifies every entry of a repetition: it must not error and
// must write artifacts identical to the reference. Failures are
// counted, never skipped.
func (b *bench) check(res *repResult) {
	for _, e := range res.Entries {
		b.attempted++
		why := ""
		ref, seen := b.refs[e.ID]
		switch {
		case e.Err != "":
			why = e.Err
		case len(e.Files) == 0:
			why = "wrote no artifact"
		case seen && !sameFiles(ref, e.Files):
			why = "artifacts differ from the reference"
		}
		if !seen && why == "" {
			b.refs[e.ID] = e.Files
		}
		if why != "" {
			b.failed++
			fmt.Fprintf(os.Stderr, "perfbench: %s %s (seed %d) failed: %s\n", b.w.name, e.ID, b.seed, why)
		}
	}
}

func sameFiles(a, b map[string]string) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// run measures the workload for budget, then adds one traced
// repetition when traced is set.
func (b *bench) run(budget time.Duration, traced bool) (*result, error) {
	start := time.Now()
	var reps []*repResult
	var last time.Duration
	for len(reps) < minReps || time.Since(start)+last <= budget {
		res, took, err := b.rep(false, false)
		if err != nil {
			return nil, err
		}
		reps = append(reps, res)
		last = took
		fmt.Fprintf(os.Stderr, "rep %d: setup %.4fs wall %.4fs cpu %.4fs rss %.1fMiB\n",
			len(reps), res.SetupS, res.WallS, res.CPUS, res.PeakRSSMiB)
	}
	setups := make([]float64, len(reps))
	for i, r := range reps {
		setups[i] = r.SetupS
	}
	for spent := time.Duration(0); len(setups) < setupSamples && spent < setupSpend; {
		res, took, err := b.rep(false, true)
		if err != nil {
			return nil, err
		}
		setups = append(setups, res.SetupS)
		spent += took
	}
	med := func(f func(*repResult) float64) float64 {
		xs := make([]float64, len(reps))
		for i, r := range reps {
			xs[i] = f(r)
		}
		return median(xs)
	}
	rate := func(unit string) float64 {
		return med(func(r *repResult) float64 { return r.Work[unit] / r.WallS })
	}
	out := &result{Metrics: map[string]value{}}
	if !traced {
		for _, m := range endToEnd {
			var v float64
			switch m.name {
			case "setup_s":
				v = median(setups)
			case "wall_s":
				v = med(func(r *repResult) float64 { return r.WallS })
			case "cpu_s":
				v = med(func(r *repResult) float64 { return r.CPUS })
			case "peak_rss_mib":
				v = med(func(r *repResult) float64 { return r.PeakRSSMiB })
			case "work_per_s":
				v = rate(b.w.unit)
			}
			out.Metrics[m.name] = value{v, m.unit}
		}
	} else {
		tr, _, err := b.rep(true, false)
		if err != nil {
			return nil, err
		}
		wall := med(func(r *repResult) float64 { return r.WallS })
		layers := tr.Layers
		layers["images_per_s"] = rate("images")
		layers["cells_per_s"] = rate("cells")
		layers["points_per_s"] = rate("points")
		layers["failed_frac"] = float64(b.failed) / float64(b.attempted)
		layers["trace.overhead_pc"] = 100 * (tr.WallS - wall) / wall
		for _, m := range perLayer() {
			out.Metrics[m.name] = value{layers[m.name], m.unit}
		}
		if err := b.writeTrace(tr, out.Metrics); err != nil {
			return nil, err
		}
	}
	out.Attempted, out.Failed = b.attempted, b.failed
	out.Correct = b.failed == 0
	fmt.Printf("%s seed %d: %d repetitions in %.1fs, %d of %d entry runs failed\n",
		b.w.name, b.seed, len(reps), time.Since(start).Seconds(), b.failed, b.attempted)
	return out, nil
}

// writeTrace keeps the traced repetition's spans, with one trace ID per
// run, beside the build output.
func (b *bench) writeTrace(tr *repResult, metrics map[string]value) error {
	dir := filepath.Join(".bench_build", "perfbench", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	doc := struct {
		TraceID  string                       `json:"trace_id"`
		Workload string                       `json:"workload"`
		Seed     int64                        `json:"seed"`
		Spans    []span                       `json:"spans"`
		Metrics  map[string]value             `json:"metrics"`
		Digests  map[string]map[string]string `json:"digests"`
	}{
		TraceID:  fmt.Sprintf("%s-%d-%d", b.w.name, b.seed, time.Now().UnixNano()),
		Workload: b.w.name, Seed: b.seed, Spans: tr.Spans, Metrics: metrics, Digests: b.refs,
	}
	data, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", b.w.name, b.seed))
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("trace: %s (%d spans)\n", path, len(tr.Spans))
	return nil
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
