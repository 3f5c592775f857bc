package main

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"repro/internal/adapt"
	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/workload"
)

// The figure workloads regenerate Figures 10-12 at the scale of the
// repo's bench_test.go: 2 evaluation chips, 6 apps, all 6 adaptive
// environments, static/fuzzy/exh modes, 500 training examples, 20k-
// instruction phase traces — 216 app-run units per regeneration.
const (
	figChips    = 2
	figExamples = 500
	figTraceLen = 20000
	// figSeedBases is how many distinct chip sets the seed selects from;
	// each has a golden Summary digest. Bases step by figChips so no two
	// sets share a chip; seed 1 is bench_test.go's base, 1000.
	figSeedBases = 8
	// figColdSecondsPerOp sizes fig-cold: one cold regeneration per this
	// many seconds of --seconds (one takes about 12 s of host time on 2
	// CPUs at this commit).
	figColdSecondsPerOp = 10
	// figWarmRegensPerSecond sizes fig-warm: regenerations per second of
	// --seconds (one takes about 75 ms of host time at this commit).
	figWarmRegensPerSecond = 11
	// setupRepeats is how many times fig-cold's set-up (about 8 ms) is
	// repeated; setup_s is their median. One set-up moves between 5 and
	// 13 ms with the host's load, in spells of tens of milliseconds, so
	// the repeats span about a second.
	setupRepeats = 101
)

var figApps = []string{"gcc", "crafty", "mcf", "swim", "sixtrack", "art"}

func figSeedBase(k int64) int64 { return 1000 + figChips*k }

// figSeedBaseFor maps a run seed onto one of the golden chip sets.
func figSeedBaseFor(seed int64) int64 {
	k := ((seed-1)%figSeedBases + figSeedBases) % figSeedBases
	return figSeedBase(k)
}

func newFigSim() (*core.Simulator, error) {
	opts := core.DefaultOptions()
	opts.TraceLen = figTraceLen
	return core.NewSimulator(opts)
}

func figConfig(seedBase int64) core.ExperimentConfig {
	cfg := core.DefaultExperimentConfig()
	cfg.Chips = figChips
	cfg.SeedBase = seedBase
	cfg.TrainChips = 1
	cfg.Apps = figApps
	cfg.Training.Examples = figExamples
	return cfg
}

// figUnits is the number of app-run units one regeneration evaluates.
func figUnits() int {
	return figChips * len(core.AdaptiveEnvironments()) * 3 * len(figApps)
}

// figOp is one measured regeneration.
type figOp struct {
	wall, cpu time.Duration
	digest    string
	raw       []byte
	hits      int64
	misses    int64
	reg       *obs.Registry
	// rssMB is this process's peak resident set during the regeneration.
	rssMB float64
}

// regenerate runs Open + NewSimulator + RunSummary + Close against dir.
// With a ledger, the store and simulator report into its registry and
// tracer, and the three calls are timed as layers.
func regenerate(dir string, seedBase int64, led *ledger) (figOp, error) {
	reg := obs.NewRegistry()
	if led != nil {
		reg = led.reg
	}
	before := reg.Counter("artifact.cache.hits").Value()
	missBefore := reg.Counter("artifact.cache.misses").Value()
	resetPeakRSS()
	cpu0 := selfCPU()
	t0 := time.Now()
	var store *artifact.Store
	if err := led.span("artifact.open", func() (e error) {
		store, e = artifact.Open(dir, artifact.Options{Obs: reg})
		return
	}); err != nil {
		return figOp{}, err
	}
	sim, err := newFigSim()
	if err != nil {
		return figOp{}, err
	}
	sim.SetArtifacts(store)
	if led != nil {
		sim.SetObs(reg)
		sim.SetTracer(led.tr)
	}
	var sum *core.Summary
	if err := led.span("core.summary", func() (e error) { sum, e = sim.RunSummary(figConfig(seedBase)); return }); err != nil {
		return figOp{}, err
	}
	led.span("artifact.close", func() error { store.Close(); return nil })
	op := figOp{wall: time.Since(t0), cpu: selfCPU() - cpu0, reg: reg}
	if op.rssMB, err = peakRSSMB(0); err != nil {
		return figOp{}, err
	}
	op.hits = reg.Counter("artifact.cache.hits").Value() - before
	op.misses = reg.Counter("artifact.cache.misses").Value() - missBefore
	op.digest, op.raw, err = summaryDigest(sum)
	return op, err
}

// freshStore returns an empty store directory under work.
func freshStore(work, name string) (string, error) {
	dir := filepath.Join(work, name)
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, nil
}

// figSetup measures the fig-cold set-up — an empty store opened and a
// fresh simulator built — setupRepeats times and returns the median.
func figSetup(work string) (time.Duration, error) {
	var ds []float64
	for i := 0; i < setupRepeats; i++ {
		dir, err := freshStore(work, "setup-store")
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		store, err := artifact.Open(dir, artifact.Options{})
		if err != nil {
			return 0, err
		}
		if _, err := newFigSim(); err != nil {
			return 0, err
		}
		ds = append(ds, float64(time.Since(t0)))
		store.Close()
	}
	return time.Duration(median(ds)), nil
}

// runFigCold is the fig-cold workload: cold regenerations, each into an
// empty store and on the next of the seed's chip sets, each checked
// against its golden digest and against a warm re-read of the store it
// wrote. The traced run measures one.
func runFigCold(r *run) error {
	setup, err := figSetup(r.work)
	if err != nil {
		return err
	}
	r.setup = setup
	n := int(r.seconds/figColdSecondsPerOp + 0.5)
	if n < 1 || r.led != nil {
		n = 1
	}
	units := float64(figUnits())
	var lats []time.Duration
	var rss []float64
	var wall, cpu time.Duration
	var first figOp
	for i := 0; i < n; i++ {
		base := figSeedBaseFor(r.seed + int64(i))
		dir, err := freshStore(r.work, "cold-store")
		if err != nil {
			return err
		}
		op, err := regenerate(dir, base, nil)
		if err != nil {
			return err
		}
		if i == 0 {
			first = op
		}
		lats = append(lats, op.wall)
		rss = append(rss, op.rssMB)
		wall += op.wall
		cpu += op.cpu
		r.attempted += int(units)
		if err := r.golden.checkFigDigest(base, op.digest); err != nil {
			r.failf("%v", err)
			continue
		}
		if op.hits != 0 {
			r.failf("cold regeneration read %d artifacts from an empty store", op.hits)
			continue
		}
		warm, err := regenerate(dir, base, nil)
		if err != nil {
			return err
		}
		if !bytes.Equal(warm.raw, op.raw) || warm.misses != 0 {
			r.failf("warm re-read of the cold store: %d misses, identical=%v", warm.misses, bytes.Equal(warm.raw, op.raw))
			continue
		}
		r.opsDone += int(units)
	}
	r.setFigMetrics(units, lats, wall, cpu, units*float64(n), rss)
	if r.led != nil {
		return traceFigCold(r, figSeedBaseFor(r.seed), first)
	}
	return nil
}

// setFigMetrics fills the end-to-end metrics of a figure workload from
// regenerations of `units` app-run units each: their latencies and
// per-regeneration peak resident sets, total wall and CPU time, and the
// op count CPU time is divided by.
func (r *run) setFigMetrics(units float64, lats []time.Duration, wall, cpu time.Duration, cpuOps float64, rss []float64) {
	nOps := float64(len(lats))
	l := durationsMs(lats)
	r.e2e("units_per_s", units*nOps/wall.Seconds())
	r.e2e("events_per_s", units*nOps/wall.Seconds())
	r.latencies("regenerations", l, len(l))
	r.e2e("cpu_ms_per_op", ms(cpu)/cpuOps)
	r.e2e("peak_rss_mb", median(rss))
}

// populate is the fig-warm set-up child: one cold regeneration whose
// summary JSON it writes to out, printing how many artifacts it built.
func populate(dir string, seedBase int64, out string) error {
	op, err := regenerate(dir, seedBase, nil)
	if err != nil {
		return err
	}
	fmt.Println(op.misses)
	return os.WriteFile(out, op.raw, 0o644)
}

// runFigWarm is the fig-warm workload: a child process populates a store,
// then this process regenerates the figures from it repeatedly. Every
// regeneration must be byte-identical to the child's and hit every
// artifact the child built, missing none.
func runFigWarm(r *run) error {
	base := figSeedBaseFor(r.seed)
	dir, err := freshStore(r.work, "warm-store")
	if err != nil {
		return err
	}
	ref := filepath.Join(r.work, "warm-summary.json")
	t0 := time.Now()
	cmd := exec.Command(r.self, "-child-populate", "-store", dir,
		"-seed-base", strconv.FormatInt(base, 10), "-summary-out", ref)
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("populate child: %w", err)
	}
	r.setup = time.Since(t0)
	built, err := strconv.ParseInt(strings.TrimSpace(string(out)), 10, 64)
	if err != nil {
		return fmt.Errorf("populate child: %w", err)
	}
	want, err := os.ReadFile(ref)
	if err != nil {
		return err
	}
	r.checkf(r.golden.checkFigDigest(base, sha256Hex(want)))

	n := int(r.seconds * figWarmRegensPerSecond)
	measure := func(n int, led *ledger) ([]figOp, error) {
		ops := make([]figOp, 0, n)
		for i := 0; i < n; i++ {
			op, err := regenerate(dir, base, led)
			if err != nil {
				return nil, err
			}
			ops = append(ops, op)
			r.attempted++
			switch {
			case !bytes.Equal(op.raw, want):
				r.failf("regeneration %d differs from the populating run", i)
			case op.hits != built || op.misses != 0:
				r.failf("regeneration %d: %d hits, %d misses; the store holds %d artifacts", i, op.hits, op.misses, built)
			default:
				r.opsDone++
			}
		}
		return ops, nil
	}
	if r.led != nil {
		return traceFigWarm(r, n, measure)
	}
	ops, err := measure(n, nil)
	if err != nil {
		return err
	}
	var lats []time.Duration
	var rss []float64
	var wall, cpu time.Duration
	for _, op := range ops {
		lats = append(lats, op.wall)
		rss = append(rss, op.rssMB)
		wall += op.wall
		cpu += op.cpu
	}
	l := durationsMs(lats)
	third := len(l) / 3
	r.note("fig-warm: %d regenerations of %d artifact hits; p50 by thirds %.2f %.2f %.2f ms",
		n, built, median(l[:third]), median(l[third:2*third]), median(l[2*third:]))
	r.setFigMetrics(float64(figUnits()), lats, wall, cpu, float64(n), rss)
	return nil
}

// traceFigCold is the fig-cold traced run: a traced cold regeneration
// (store, simulator and layers reporting into the ledger) beside the
// untraced one already measured, then a replay of the same cold work
// through the layers' public functions on a fresh simulator and store.
func traceFigCold(r *run, base int64, untraced figOp) error {
	dir, err := freshStore(r.work, "cold-store-traced")
	if err != nil {
		return err
	}
	led := r.led
	op, err := regenerate(dir, base, led)
	if err != nil {
		return err
	}
	if op.digest != untraced.digest {
		r.failf("traced cold regeneration differs from the untraced one")
	}
	r.layer("core.summary_ms", led.meanMs("core.summary"))
	r.layer("artifact.open_ms", led.meanMs("artifact.open"))
	r.layer("artifact.close_ms", led.meanMs("artifact.close"))
	r.artifactLayers(op.reg, 1)
	r.layer("trace.overhead_frac", op.wall.Seconds()/untraced.wall.Seconds()-1)

	rdir, err := freshStore(r.work, "cold-store-replay")
	if err != nil {
		return err
	}
	examples0 := led.reg.Counter("fuzzy.train.examples").Value()
	busy, err := replayFigCold(rdir, base, led)
	if err != nil {
		return err
	}
	r.layer("varius.chip_ms", led.meanMs("varius.chip"))
	r.layer("pipeline.profile_ms", led.meanMs("pipeline.profile"))
	if b := led.busy("pipeline.profile"); b > 0 {
		r.layer("pipeline.minstr_per_s", float64(led.count("pipeline.profile"))*figTraceLen/b.Seconds()/1e6)
	}
	r.layer("core.acquire_chip_ms", led.meanMs("core.acquire_chip"))
	r.layer("core.build_core_ms", led.meanMs("core.build_core"))
	r.layer("core.release_chip_ms", led.meanMs("core.release_chip"))
	r.layer("adapt.train_ms", led.meanMs("adapt.train"))
	r.layer("adapt.train_examples", float64(led.reg.Counter("fuzzy.train.examples").Value()-examples0))
	r.layer("adapt.static_point_ms", led.meanMs("adapt.static_point"))
	r.layer("adapt.unit_ms", led.meanMs("adapt.unit"))
	r.layer("core.unattributed_share", 1-busy.Seconds()/op.cpu.Seconds())
	return nil
}

// replayFigCold re-executes one cold regeneration's work call by call —
// Profile per (app, phase), Chip per chip, then per (chip, environment)
// BuildCore, per-chip fuzzy training, StaticPoint per class, and every
// mode × app unit — on a fresh simulator and empty store, timing each
// call into led. It runs on one goroutine, so each span's wall time is
// that call's CPU time, and returns the summed layer time.
func replayFigCold(dir string, base int64, led *ledger) (time.Duration, error) {
	store, err := artifact.Open(dir, artifact.Options{})
	if err != nil {
		return 0, err
	}
	defer store.Close()
	sim, err := newFigSim()
	if err != nil {
		return 0, err
	}
	sim.SetArtifacts(store)
	cfg := figConfig(base)
	cfg.Training.Obs = led.reg
	var apps, intApps, fpApps []workload.App
	for _, name := range figApps {
		app, err := workload.ByName(name)
		if err != nil {
			return 0, err
		}
		apps = append(apps, app)
		if app.Class == workload.FP {
			fpApps = append(fpApps, app)
		} else {
			intApps = append(intApps, app)
		}
	}
	for _, app := range apps {
		for _, ph := range app.Phases {
			if err := led.span("pipeline.profile", func() error { _, e := sim.Profile(app, ph); return e }); err != nil {
				return 0, err
			}
		}
	}
	for ci := int64(0); ci < figChips; ci++ {
		seed := base + ci
		led.span("varius.chip", func() error { sim.Chip(seed); return nil })
		var h *core.ChipHandle
		if err := led.span("core.acquire_chip", func() (e error) { h, e = sim.AcquireChip(seed); return }); err != nil {
			return 0, err
		}
		for _, env := range core.AdaptiveEnvironments() {
			if err := replayFigUnit(sim, led, cfg, apps, h, env, intApps, fpApps); err != nil {
				return 0, err
			}
		}
		led.span("core.release_chip", func() error { sim.ReleaseChip(h); return nil })
	}
	var busy time.Duration
	for _, name := range []string{"pipeline.profile", "varius.chip", "core.acquire_chip", "core.build_core",
		"adapt.train", "adapt.static_point", "adapt.unit", "core.release_chip"} {
		busy += led.busy(name)
	}
	return busy, nil
}

// replayFigUnit replays one (chip, environment) unit. The chip's state
// comes from AcquireChip and each environment's core from HandleCore —
// the public form of RunSummary's per-chip stage models and shared
// PE-table store (BuildCore would rebuild the stage models per core and
// share no tables, doing work RunSummary does not).
func replayFigUnit(sim *core.Simulator, led *ledger, cfg core.ExperimentConfig, apps []workload.App,
	h *core.ChipHandle, env core.Environment, intApps, fpApps []workload.App) error {
	seed := h.Seed()
	var cpu *adapt.Core
	if err := led.span("core.build_core", func() (e error) { cpu, e = sim.HandleCore(h, env); return }); err != nil {
		return err
	}
	var solver *adapt.FuzzySolver
	if err := led.span("adapt.train", func() (e error) {
		solver, e = sim.TrainFuzzyCached([]*adapt.Core{cpu}, []int64{seed}, cfg.Training)
		return
	}); err != nil {
		return err
	}
	var pInt, pFP adapt.OperatingPoint
	if err := led.span("adapt.static_point", func() (e error) { pInt, e = sim.StaticPoint(cpu, workload.Int, intApps); return }); err != nil {
		return err
	}
	if err := led.span("adapt.static_point", func() (e error) { pFP, e = sim.StaticPoint(cpu, workload.FP, fpApps); return }); err != nil {
		return err
	}
	for _, app := range apps {
		pt := pInt
		if app.Class == workload.FP {
			pt = pFP
		}
		for _, run := range []func() error{
			func() error { _, e := sim.RunStatic(cpu, app, pt); return e },
			func() error { _, e := sim.RunDynamic(cpu, app, core.FuzzyDyn, solver); return e },
			func() error { _, e := sim.RunDynamic(cpu, app, core.ExhDyn, adapt.Exhaustive{}); return e },
		} {
			if err := led.span("adapt.unit", run); err != nil {
				return err
			}
		}
	}
	return nil
}

// traceFigWarm is the fig-warm traced run: half the regenerations
// untraced, half traced, so the overhead compares like with like.
func traceFigWarm(r *run, n int, measure func(int, *ledger) ([]figOp, error)) error {
	plain, err := measure(n/2, nil)
	if err != nil {
		return err
	}
	led := r.led
	traced, err := measure(n-n/2, led)
	if err != nil {
		return err
	}
	p50 := func(ops []figOp) float64 {
		var l []float64
		for _, op := range ops {
			l = append(l, ms(op.wall))
		}
		return median(l)
	}
	var cpu time.Duration
	for _, op := range traced {
		cpu += op.cpu
	}
	r.layer("core.summary_ms", led.meanMs("core.summary"))
	r.layer("artifact.open_ms", led.meanMs("artifact.open"))
	r.layer("artifact.close_ms", led.meanMs("artifact.close"))
	r.artifactLayers(led.reg, float64(len(traced)))
	decode := led.reg.Timer("artifact.cache.decode_ns").Sum()
	r.layer("core.unattributed_share", 1-(led.busy("artifact.open")+led.busy("artifact.close")+decode).Seconds()/cpu.Seconds())
	r.layer("trace.overhead_frac", p50(traced)/p50(plain)-1)
	return nil
}

// artifactLayers reports the store's hit ratio and per-regeneration
// decode time, encode time and bytes written from its obs registry.
func (r *run) artifactLayers(reg *obs.Registry, regens float64) {
	hits := float64(reg.Counter("artifact.cache.hits").Value())
	misses := float64(reg.Counter("artifact.cache.misses").Value())
	if hits+misses > 0 {
		r.layer("artifact.hit_ratio", hits/(hits+misses))
	}
	r.layer("artifact.decode_ms", ms(reg.Timer("artifact.cache.decode_ns").Sum())/regens)
	r.layer("artifact.encode_ms", ms(reg.Timer("artifact.cache.encode_ns").Sum())/regens)
	r.layer("artifact.bytes_written", float64(reg.Counter("artifact.cache.bytes").Value())/regens)
}
