package core

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"

	"repro/internal/adapt"
	"repro/internal/floorplan"
	"repro/internal/mathx"
	"repro/internal/obs"
	"repro/internal/tech"
	"repro/internal/vats"
	"repro/internal/workload"
)

// ExperimentConfig scales the multi-chip experiments. The paper uses 100
// chips and the 26-application SPEC 2000 suite; the defaults here are a
// smaller but shape-preserving budget suitable for iterating (raise Chips
// and use the full suite for paper-scale runs).
type ExperimentConfig struct {
	// Chips is the number of evaluation chips (the paper uses 100).
	Chips int
	// SeedBase offsets the evaluation chip seeds.
	SeedBase int64
	// TrainChips is the number of *distinct* chips used to train the fuzzy
	// controllers (never overlapping the evaluation chips).
	TrainChips int
	// Apps selects proxy-suite applications by name (nil = the full
	// 26-app suite, unless Workloads is set).
	Apps []string
	// Workloads supplies the applications directly — generated clients or
	// trace-replayed apps (see Simulator.GeneratedApps and
	// workload.TraceV1.Lower). Mutually exclusive with Apps.
	Workloads []workload.App
	// Envs selects the adaptive environments (nil = all six of Table 1).
	Envs []Environment
	// Modes selects adaptation modes (nil = Static, Fuzzy-Dyn, Exh-Dyn).
	Modes []Mode
	// Training configures fuzzy-controller training.
	Training adapt.TrainOptions
	// Workers bounds experiment parallelism (0 = GOMAXPROCS).
	Workers int
}

// DefaultExperimentConfig returns a laptop-scale configuration.
func DefaultExperimentConfig() ExperimentConfig {
	return ExperimentConfig{
		Chips:      10,
		SeedBase:   1000,
		TrainChips: 2,
		Training:   adapt.DefaultTrainOptions(),
	}
}

// resolve fills defaults.
func (c ExperimentConfig) resolve() (ExperimentConfig, []workload.App, error) {
	if c.Chips < 1 {
		return c, nil, fmt.Errorf("core: Chips %d must be >= 1", c.Chips)
	}
	if c.TrainChips < 1 {
		c.TrainChips = 1
	}
	if len(c.Envs) == 0 {
		c.Envs = AdaptiveEnvironments()
	}
	for _, e := range c.Envs {
		if !e.Adaptive() {
			return c, nil, fmt.Errorf("core: %v is not an adaptive environment", e)
		}
	}
	if len(c.Modes) == 0 {
		c.Modes = []Mode{Static, FuzzyDyn, ExhDyn}
	}
	if c.Workers < 1 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	var apps []workload.App
	switch {
	case len(c.Workloads) > 0:
		if len(c.Apps) > 0 {
			return c, nil, fmt.Errorf("core: Apps and Workloads are mutually exclusive")
		}
		apps = c.Workloads
	case len(c.Apps) == 0:
		apps = workload.Suite()
	default:
		for _, name := range c.Apps {
			a, err := workload.ByName(name)
			if err != nil {
				return c, nil, err
			}
			apps = append(apps, a)
		}
	}
	return c, apps, nil
}

// Cell is one (environment, mode) aggregate of Figures 10-12.
type Cell struct {
	Env  Environment
	Mode Mode
	// FRel is the mean relative frequency (Figure 10's bar).
	FRel float64
	// PerfR is the mean performance relative to NoVar (Figure 11's bar).
	PerfR float64
	// PowerW is the mean processor power (Figure 12's bar).
	PowerW float64
	// PE is the mean error rate per instruction.
	PE float64
	// Outcome fractions across controller invocations (Figure 13 inputs).
	Outcomes [adapt.NumOutcomes]float64
	// SmallQueueFrac / LowSlopeFrac: how often the techniques engage.
	SmallQueueFrac float64
	LowSlopeFrac   float64
}

// Summary aggregates the headline experiment: every adaptive environment
// and mode, plus the Baseline and NoVar anchors.
type Summary struct {
	Chips int
	Apps  []string
	// BaselineFRel is the mean worst-case-safe frequency (the 0.78 line).
	BaselineFRel   float64
	BaselinePerfR  float64
	BaselinePowerW float64
	NoVarPowerW    float64
	Cells          []Cell
}

// CellFor finds the cell of an (environment, mode) pair.
func (s *Summary) CellFor(env Environment, mode Mode) (Cell, error) {
	for _, c := range s.Cells {
		if c.Env == env && c.Mode == mode {
			return c, nil
		}
	}
	return Cell{}, fmt.Errorf("core: summary has no cell %v/%v", env, mode)
}

// RunSummary executes the Figures 10-12 experiment.
func (s *Simulator) RunSummary(cfg ExperimentConfig) (*Summary, error) {
	cfg, apps, err := cfg.resolve()
	if err != nil {
		return nil, err
	}
	if cfg.Training.Obs == nil {
		cfg.Training.Obs = s.obs
	}
	defer s.obs.Timer("core.run_summary").Start().Stop()
	s.prefetchArtifacts(cfg, apps)

	// NoVar reference per app.
	novarSW := s.obs.Timer("core.novar_refs").Start()
	noVarPerf := make(map[string]float64, len(apps))
	noVarPower := 0.0
	for _, app := range apps {
		r, err := s.RunNoVar(app)
		if err != nil {
			return nil, err
		}
		noVarPerf[app.Name] = r.Perf
		noVarPower += r.PowerW
	}
	noVarPower /= float64(len(apps))
	novarSW.Stop()

	needFuzzy := false
	for _, m := range cfg.Modes {
		if m == FuzzyDyn {
			needFuzzy = true
		}
	}

	// The work queue holds (chip × environment) units: at small chip
	// counts a per-chip fan-out leaves workers idle while the last chip
	// grinds through all six environments, whereas units keep the pool
	// busy to the tail. A chip's handle and Baseline anchors build once,
	// when its first unit arrives, and are then shared read-only by that
	// chip's units.
	nEnvs, nModes := len(cfg.Envs), len(cfg.Modes)
	nUnits := cfg.Chips * nEnvs
	var prog *obs.Progress
	if s.progressW != nil {
		prog = obs.NewProgress(s.progressW, "chip×env", nUnits, min(cfg.Workers, nUnits))
		defer prog.Stop()
	}

	chips := make([]lazyChip, cfg.Chips)
	anchors := make([]baselineAnchors, cfg.Chips)
	type unitResult struct {
		cells []cellAccum // one per cfg.Modes entry
		err   error
	}
	results := make([]unitResult, nUnits)
	obs.RunPool(s.obs, "core.pool", cfg.Workers, nUnits, func(slot, u int) {
		ci, ei := u/nEnvs, u%nEnvs
		seed := cfg.SeedBase + int64(ci)
		env := cfg.Envs[ei]
		prog.SetWorker(slot, fmt.Sprintf("chip %d %v", seed, env))
		h, err := chips[ci].get(s, seed, func(h *ChipHandle) error {
			return anchors[ci].measure(s, h, apps, noVarPerf)
		})
		if err == nil {
			unitSW := s.obs.Timer("core.unit").Start()
			cells, err := s.runChipEnv(cfg, apps, noVarPerf, needFuzzy, h, env)
			unitSW.Stop()
			results[u] = unitResult{cells: cells, err: err}
		}
		prog.SetWorker(slot, "idle")
		prog.Step(1)
	})
	s.releaseChips(chips)

	sum := &Summary{Chips: cfg.Chips, NoVarPowerW: noVarPower}
	for _, a := range apps {
		sum.Apps = append(sum.Apps, a.Name)
	}
	// Index-ordered reduction: baselines fold chips-ascending and cells
	// fold (chip, env)-ascending, so every float accumulates in the same
	// order regardless of how the pool scheduled the units.
	for ci := range chips {
		if chips[ci].err != nil {
			return nil, chips[ci].err
		}
		sum.BaselineFRel += anchors[ci].f / float64(cfg.Chips)
		sum.BaselinePerfR += anchors[ci].perfR / float64(cfg.Chips)
		sum.BaselinePowerW += anchors[ci].powerW / float64(cfg.Chips)
	}
	agg := make([]cellAccum, nEnvs*nModes)
	for u, r := range results {
		if r.err != nil {
			return nil, r.err
		}
		for mi := range r.cells {
			agg[(u%nEnvs)*nModes+mi].fold(&r.cells[mi])
		}
	}
	for ei, env := range cfg.Envs {
		for mi, mode := range cfg.Modes {
			sum.Cells = append(sum.Cells, agg[ei*nModes+mi].cell(env, mode))
		}
	}
	return sum, nil
}

// lazyChip is one chip's handle within an experiment: the first unit to
// reach the chip acquires it, and runs the experiment's per-chip prep,
// under the once; the chip's other units then share it.
type lazyChip struct {
	once sync.Once
	h    *ChipHandle
	err  error
}

func (c *lazyChip) get(s *Simulator, seed int64, prep func(*ChipHandle) error) (*ChipHandle, error) {
	c.once.Do(func() {
		if c.h, c.err = s.AcquireChip(seed); c.err == nil && prep != nil {
			c.err = prep(c.h)
		}
	})
	return c.h, c.err
}

// releaseChips releases every handle an experiment's pool acquired. The
// pool has drained, so each handle is quiescent.
func (s *Simulator) releaseChips(chips []lazyChip) {
	for i := range chips {
		s.ReleaseChip(chips[i].h)
	}
}

// baselineAnchors is one chip's contribution to the Summary's Baseline
// line: its worst-case-safe frequency and the suite-mean Baseline
// performance (relative to NoVar) and power.
type baselineAnchors struct {
	f, perfR, powerW float64
}

func (b *baselineAnchors) measure(s *Simulator, h *ChipHandle, apps []workload.App, noVarPerf map[string]float64) error {
	if s.tracer != nil {
		span := s.tracer.Start(fmt.Sprintf("chip %d baseline", h.seed))
		defer span.End()
	}
	b.f = h.FVar()
	for _, app := range apps {
		r, err := s.RunBaseline(h.chip, app)
		if err != nil {
			return err
		}
		b.perfR += r.Perf / noVarPerf[app.Name] / float64(len(apps))
		b.powerW += r.PowerW / float64(len(apps))
	}
	return nil
}

// TrainSolver trains fuzzy controllers for one environment across
// TrainChips dedicated chips — the *fleet-trained* variant used to study
// how well one controller set generalizes across dies. The paper's system
// (and RunSummary/RunOutcomes/RunTable2) trains per chip instead, on a
// software model of the specific die (§4.3.1).
func (s *Simulator) TrainSolver(env Environment, cfg ExperimentConfig) (*adapt.FuzzySolver, error) {
	if cfg.TrainChips < 1 {
		cfg.TrainChips = 1
	}
	if cfg.Training.Obs == nil {
		cfg.Training.Obs = s.obs
	}
	defer s.obs.Timer("core.fuzzy_train").Start().Stop()
	var cores []*adapt.Core
	var seeds []int64
	for t := 0; t < cfg.TrainChips; t++ {
		seed := cfg.SeedBase + 1_000_000 + int64(t)
		chip := s.Chip(seed)
		core, err := s.BuildCore(chip, env)
		if err != nil {
			return nil, err
		}
		cores = append(cores, core)
		seeds = append(seeds, seed)
	}
	return s.TrainFuzzyCached(cores, seeds, cfg.Training)
}

// cellAccum accumulates app-run metrics.
type cellAccum struct {
	n                   float64
	f, perfR, power, pe float64
	outcomes            [adapt.NumOutcomes]float64
	outcomeTotal        float64
	smallQ, lowFU       float64
}

func (a *cellAccum) add(run AppRun, noVarPerf float64) {
	a.n++
	a.f += run.FRel
	if noVarPerf > 0 {
		a.perfR += run.Perf / noVarPerf
	}
	a.power += run.PowerW
	a.pe += run.PE
	for o, cnt := range run.Outcomes {
		a.outcomes[o] += float64(cnt)
		a.outcomeTotal += float64(cnt)
	}
	a.smallQ += run.SmallQueueFrac
	a.lowFU += run.LowSlopeFrac
}

func (a *cellAccum) fold(b *cellAccum) {
	a.n += b.n
	a.f += b.f
	a.perfR += b.perfR
	a.power += b.power
	a.pe += b.pe
	for o := range a.outcomes {
		a.outcomes[o] += b.outcomes[o]
	}
	a.outcomeTotal += b.outcomeTotal
	a.smallQ += b.smallQ
	a.lowFU += b.lowFU
}

func (a *cellAccum) cell(env Environment, mode Mode) Cell {
	c := Cell{Env: env, Mode: mode}
	if a.n > 0 {
		c.FRel = a.f / a.n
		c.PerfR = a.perfR / a.n
		c.PowerW = a.power / a.n
		c.PE = a.pe / a.n
		c.SmallQueueFrac = a.smallQ / a.n
		c.LowSlopeFrac = a.lowFU / a.n
	}
	if a.outcomeTotal > 0 {
		for o := range c.Outcomes {
			c.Outcomes[o] = a.outcomes[o] / a.outcomeTotal
		}
	}
	return c
}

// runChipEnv executes one (chip × environment) work unit on the chip's
// handle: builds the environment's core, trains this chip's controllers
// if the Fuzzy-Dyn mode needs them, chooses the static points if the
// Static mode does, and runs every mode × app of the cell through
// UnitAppRun, returning one accumulator per cfg.Modes entry. The core's
// thermal solver warm-starts from its previous solve, so this order —
// train, Int point, FP point, then modes in cfg.Modes order — is part of
// the result.
func (s *Simulator) runChipEnv(cfg ExperimentConfig, apps []workload.App,
	noVarPerf map[string]float64, needFuzzy bool, h *ChipHandle, env Environment) ([]cellAccum, error) {
	var envSpan *obs.Span
	if s.tracer != nil {
		envSpan = s.tracer.Start(fmt.Sprintf("chip %d %v", h.seed, env))
		defer envSpan.End()
	}
	core, err := s.HandleCore(h, env)
	if err != nil {
		return nil, err
	}
	// Per-chip fuzzy training: the manufacturer populates this chip's
	// controllers by running the Exhaustive algorithm on a software
	// model of *this* chip (§4.3.1). The solver lives as long as the
	// unit; keeping it on the handle would hold every environment's
	// controllers until the chip is released.
	var fuzzySolver *adapt.FuzzySolver
	if needFuzzy {
		trainSpan := envSpan.Child("train solver")
		trainSW := s.obs.Timer("core.fuzzy_train").Start()
		if fuzzySolver, err = s.TrainFuzzyCached([]*adapt.Core{core}, []int64{h.seed}, cfg.Training); err != nil {
			return nil, err
		}
		trainSW.Stop()
		trainSpan.End()
	}
	// Static points per class — only for classes the app set actually
	// contains, so single-class workload sets (a common shape for
	// generated scenarios) run Static without error.
	static := map[workload.Class]*adapt.OperatingPoint{}
	if slices.Contains(cfg.Modes, Static) {
		for _, class := range []workload.Class{workload.Int, workload.FP} {
			if !slices.ContainsFunc(apps, func(a workload.App) bool { return a.Class == class }) {
				continue
			}
			pt, err := s.HandleStaticPoint(h, core, class, apps)
			if err != nil {
				return nil, err
			}
			static[class] = &pt
		}
	}
	cells := make([]cellAccum, len(cfg.Modes))
	for mi, mode := range cfg.Modes {
		cellSW := s.obs.Timer("core.cell").Start()
		modeSpan := envSpan.Child(mode.String())
		var solver adapt.Solver
		switch mode {
		case FuzzyDyn:
			solver = fuzzySolver
		case ExhDyn:
			solver = adapt.Exhaustive{}
		}
		for _, app := range apps {
			appSpan := modeSpan.Child(app.Name)
			appSW := s.obs.Timer("core.app_run").Start()
			u := FleetUnit{App: app, Phase: -1}
			if mode == Static {
				u.Static = static[app.Class]
			}
			run, err := s.UnitAppRun(h.seed, core, mode, solver, u)
			appSW.Stop()
			appSpan.End()
			if err != nil {
				return nil, fmt.Errorf("chip %d %v/%v: %w", h.seed, env, mode, err)
			}
			cells[mi].add(run, noVarPerf[app.Name])
		}
		modeSpan.End()
		cellSW.Stop()
	}
	return cells, nil
}

// OutcomeCell is one bar of Figure 13: the outcome mix of the fuzzy
// controller system under one base environment and one microarchitecture
// option set.
type OutcomeCell struct {
	Label     string // e.g. "TS+ASV / FU+Queue opt"
	Config    tech.Config
	Fractions [adapt.NumOutcomes]float64
	Samples   int
}

// Figure13Configs enumerates the paper's grid: base environments A:TS,
// B:TS+ABB, C:TS+ASV, D:TS+ABB+ASV crossed with {No opt, FU opt, Queue
// opt, FU+Queue opt}.
func Figure13Configs() []OutcomeCell {
	bases := []struct {
		name string
		cfg  tech.Config
	}{
		{"TS", tech.Config{TimingSpec: true}},
		{"TS+ABB", tech.Config{TimingSpec: true, ABB: true}},
		{"TS+ASV", tech.Config{TimingSpec: true, ASV: true}},
		{"TS+ABB+ASV", tech.Config{TimingSpec: true, ABB: true, ASV: true}},
	}
	opts := []struct {
		name   string
		fu, qu bool
	}{
		{"No opt", false, false},
		{"FU opt", true, false},
		{"Queue opt", false, true},
		{"FU+Queue opt", true, true},
	}
	var out []OutcomeCell
	for _, o := range opts {
		for _, b := range bases {
			cfg := b.cfg
			cfg.FUReplication = o.fu
			cfg.QueueResize = o.qu
			out = append(out, OutcomeCell{
				Label:  b.name + " / " + o.name,
				Config: cfg,
			})
		}
	}
	return out
}

// RunOutcomes executes the Figure 13 experiment: the fuzzy controller's
// outcome mix across configurations.
func (s *Simulator) RunOutcomes(cfg ExperimentConfig) ([]OutcomeCell, error) {
	cfg, apps, err := cfg.resolve()
	if err != nil {
		return nil, err
	}
	if cfg.Training.Obs == nil {
		cfg.Training.Obs = s.obs
	}
	defer s.obs.Timer("core.run_outcomes").Start().Stop()
	s.prefetchArtifacts(cfg, apps)
	cells := Figure13Configs()
	// (config × chip) units over the shared pool. Each unit builds and
	// trains its own core over its chip's handle, so units share only the
	// handle's stage models and concurrency-safe PE tables; per-unit
	// outcome counts reduce config-major, chips-ascending, which keeps
	// every float sum in the serial loop's order.
	nUnits := len(cells) * cfg.Chips
	chips := make([]lazyChip, cfg.Chips)
	var prog *obs.Progress
	if s.progressW != nil {
		prog = obs.NewProgress(s.progressW, "config×chip", nUnits, min(cfg.Workers, nUnits))
		defer prog.Stop()
	}
	type outcomeUnit struct {
		counts [adapt.NumOutcomes]float64
		total  float64
		err    error
	}
	results := make([]outcomeUnit, nUnits)
	obs.RunPool(s.obs, "core.pool", cfg.Workers, nUnits, func(slot, u int) {
		idx, ci := u/cfg.Chips, u%cfg.Chips
		prog.SetWorker(slot, cells[idx].Label)
		defer s.obs.Timer("core.unit").Start().Stop()
		r := &results[u]
		seed := cfg.SeedBase + int64(ci)
		core, solver, err := s.trainedCore(&chips[ci], seed, cells[idx].Config, cfg.Training)
		if err != nil {
			r.err = err
			return
		}
		// The whole unit — one chip's AdaptSteady sweep across every app
		// phase — caches as one outcomes artifact; a warm invocation
		// replays the counts without re-running the controller.
		p, err := s.cachedOutcomeUnit(seed, core, solver.Fingerprint(), apps,
			func() (outcomePayload, error) {
				var p outcomePayload
				for _, app := range apps {
					for _, ph := range app.Phases {
						prof, err := s.Profile(app, ph)
						if err != nil {
							return outcomePayload{}, err
						}
						res, err := core.AdaptSteady(prof, solver)
						if err != nil {
							return outcomePayload{}, err
						}
						p.Counts[res.Outcome]++
						p.Total++
					}
				}
				return p, nil
			})
		if err != nil {
			r.err = err
			return
		}
		r.counts, r.total = p.Counts, p.Total
		prog.SetWorker(slot, "idle")
		prog.Step(1)
	})
	s.releaseChips(chips)
	for idx := range cells {
		var counts [adapt.NumOutcomes]float64
		total := 0.0
		for ci := 0; ci < cfg.Chips; ci++ {
			r := &results[idx*cfg.Chips+ci]
			if r.err != nil {
				return nil, r.err
			}
			for o := range counts {
				counts[o] += r.counts[o]
			}
			total += r.total
		}
		if total > 0 {
			for o := range counts {
				cells[idx].Fractions[o] = counts[o] / total
			}
		}
		cells[idx].Samples = int(total)
	}
	return cells, nil
}

// trainedCore builds cfg's core over the chip's handle (acquiring it on
// the chip's first unit) and trains the chip's controllers on it
// (§4.3.1): the per-unit set-up of Figure 13 and Table 2.
func (s *Simulator) trainedCore(c *lazyChip, seed int64, cfg tech.Config,
	opts adapt.TrainOptions) (*adapt.Core, *adapt.FuzzySolver, error) {
	h, err := c.get(s, seed, nil)
	if err != nil {
		return nil, nil, err
	}
	core, err := s.handleCore(h, cfg)
	if err != nil {
		return nil, nil, err
	}
	solver, err := s.TrainFuzzyCached([]*adapt.Core{core}, []int64{seed}, opts)
	if err != nil {
		return nil, nil, err
	}
	return core, solver, nil
}

// Table2Row is one row of Table 2: the mean |fuzzy - exhaustive| for one
// output parameter under one environment, split by subsystem kind.
type Table2Row struct {
	Param string // "Freq (MHz)", "Vdd (mV)", "Vbb (mV)"
	Env   string
	// AbsErr[kind] is the mean absolute error in the row's units.
	AbsErr map[floorplan.Kind]float64
	// PctErr[kind] is the error as % of nominal (absent for Vbb, whose
	// nominal is zero, as in the paper).
	PctErr map[floorplan.Kind]float64
}

// RunTable2 measures fuzzy-controller accuracy against Exhaustive on fresh
// chips, reproducing Table 2. NomFreqGHz converts relative frequency errors
// to MHz (the paper's 4 GHz nominal).
func (s *Simulator) RunTable2(cfg ExperimentConfig) ([]Table2Row, error) {
	cfg, _, err := cfg.resolve()
	if err != nil {
		return nil, err
	}
	if cfg.Training.Obs == nil {
		cfg.Training.Obs = s.obs
	}
	defer s.obs.Timer("core.run_table2").Start().Stop()
	s.prefetchArtifacts(cfg, nil) // chips only; Table 2 reads no profiles
	const nomFreqMHz = 4000.0
	const nomVddMV = 1000.0
	envs := []struct {
		name string
		cfg  tech.Config
	}{
		{"TS", tech.Config{TimingSpec: true}},
		{"TS+ABB", tech.Config{TimingSpec: true, ABB: true}},
		{"TS+ASV", tech.Config{TimingSpec: true, ASV: true}},
		{"TS+ABB+ASV", tech.Config{TimingSpec: true, ABB: true, ASV: true}},
	}
	// Pre-draw every accuracy query. Each environment's RNG stream spans
	// its chips (a fresh stream per environment, exactly as the serial
	// loop seeded it), and the draws per (subsystem, query) follow the
	// serial order — TH, alpha, the rho multiplier, then the core-
	// frequency backoff, whose value never depended on the solve between
	// them. With the streams drained up front, the (env × chip) units are
	// pure and fan across the pool.
	const queriesPerSub = 6
	nSubs := s.fp.N()
	nUnits := len(envs) * cfg.Chips
	draws := make([][]t2Query, nUnits)
	for ei := range envs {
		rng := mathx.NewRNG(cfg.SeedBase + 77)
		for ci := 0; ci < cfg.Chips; ci++ {
			qs := make([]t2Query, nSubs*queriesPerSub)
			for qi := range qs {
				qs[qi] = t2Query{
					TH:      rng.Uniform(48+273.15, 68+273.15),
					Alpha:   rng.Uniform(0.02, 1.0),
					RhoMult: rng.Uniform(0.8, 4.5),
					FMult:   rng.Uniform(0.8, 1.0),
				}
			}
			draws[ei*cfg.Chips+ci] = qs
		}
	}
	type t2acc struct {
		fErr, vddErr, vbbErr map[floorplan.Kind][]float64
		err                  error
	}
	results := make([]t2acc, nUnits)
	chips := make([]lazyChip, cfg.Chips)
	obs.RunPool(s.obs, "core.pool", cfg.Workers, nUnits, func(slot, u int) {
		ei, ci := u/cfg.Chips, u%cfg.Chips
		defer s.obs.Timer("core.unit").Start().Stop()
		r := &results[u]
		seed := cfg.SeedBase + int64(ci)
		// Accuracy is measured on the chip whose model populated the
		// controllers, at operating situations the training never saw.
		core, solver, err := s.trainedCore(&chips[ci], seed, envs[ei].cfg, cfg.Training)
		if err != nil {
			r.err = err
			return
		}
		// The whole unit — every solve across the pre-drawn query stream —
		// caches as one table2 artifact keyed on the stream itself.
		p, err := s.cachedTable2Unit(seed, core, solver.Fingerprint(), draws[u],
			func() (table2Payload, error) {
				p := table2Payload{
					FErr:   make(map[floorplan.Kind][]float64),
					VddErr: make(map[floorplan.Kind][]float64),
					VbbErr: make(map[floorplan.Kind][]float64),
				}
				for i := 0; i < core.N(); i++ {
					kind := core.Subs[i].Sub.Kind
					for q := 0; q < queriesPerSub; q++ {
						d := draws[u][i*queriesPerSub+q]
						query := adapt.FreqQuery{
							THK:       d.TH,
							AlphaF:    d.Alpha,
							Rho:       d.Alpha * d.RhoMult,
							Variant:   vats.IdentityVariant(),
							PowerMult: 1,
						}
						fx := core.FreqSolve(i, query).FMax
						ff := solver.FreqMax(core, i, query)
						p.FErr[kind] = append(p.FErr[kind], math.Abs(fx-ff)*nomFreqMHz)
						fCore := tech.SnapFRelDown(fx * d.FMult)
						pxV, pxB := (adapt.Exhaustive{}).PowerLevels(core, i, fCore, query)
						pfV, pfB := solver.PowerLevels(core, i, fCore, query)
						p.VddErr[kind] = append(p.VddErr[kind], math.Abs(pxV-pfV)*1000)
						p.VbbErr[kind] = append(p.VbbErr[kind], math.Abs(pxB-pfB)*1000)
					}
				}
				return p, nil
			})
		if err != nil {
			r.err = err
			return
		}
		r.fErr, r.vddErr, r.vbbErr = p.FErr, p.VddErr, p.VbbErr
	})
	s.releaseChips(chips)
	var rows []Table2Row
	for ei, env := range envs {
		type acc struct {
			fErr, vddErr, vbbErr []float64
		}
		byKind := map[floorplan.Kind]*acc{
			floorplan.Memory: {}, floorplan.Mixed: {}, floorplan.Logic: {},
		}
		// Concatenate per-kind error samples chips-ascending, matching the
		// append order of the serial loop, so every mean sums in the same
		// order at any worker count.
		for ci := 0; ci < cfg.Chips; ci++ {
			r := &results[ei*cfg.Chips+ci]
			if r.err != nil {
				return nil, r.err
			}
			for k, a := range byKind {
				a.fErr = append(a.fErr, r.fErr[k]...)
				a.vddErr = append(a.vddErr, r.vddErr[k]...)
				a.vbbErr = append(a.vbbErr, r.vbbErr[k]...)
			}
		}
		freqRow := Table2Row{Param: "Freq (MHz)", Env: env.name,
			AbsErr: map[floorplan.Kind]float64{}, PctErr: map[floorplan.Kind]float64{}}
		for k, a := range byKind {
			freqRow.AbsErr[k] = mathx.Mean(a.fErr)
			freqRow.PctErr[k] = mathx.Mean(a.fErr) / nomFreqMHz * 100
		}
		rows = append(rows, freqRow)
		if env.cfg.ASV {
			r := Table2Row{Param: "Vdd (mV)", Env: env.name,
				AbsErr: map[floorplan.Kind]float64{}, PctErr: map[floorplan.Kind]float64{}}
			for k, a := range byKind {
				r.AbsErr[k] = mathx.Mean(a.vddErr)
				r.PctErr[k] = mathx.Mean(a.vddErr) / nomVddMV * 100
			}
			rows = append(rows, r)
		}
		if env.cfg.ABB {
			r := Table2Row{Param: "Vbb (mV)", Env: env.name,
				AbsErr: map[floorplan.Kind]float64{}}
			for k, a := range byKind {
				r.AbsErr[k] = mathx.Mean(a.vbbErr)
			}
			rows = append(rows, r)
		}
	}
	return rows, nil
}
