package core

import (
	"fmt"
	"strings"
	"sync"

	"repro/internal/adapt"
	"repro/internal/tech"
	"repro/internal/varius"
	"repro/internal/workload"
)

// This file is the Simulator's unit engine: the handle-per-chip API that
// every experiment and the internal/fleet event loop run their units on.
// A ChipHandle owns the expensive per-die state (variation maps, stage
// models, the shared PE-table donor) with an explicit acquire/release
// lifetime: RunSummary, RunOutcomes and RunTable2 acquire one per chip
// and release it when their pool drains, and a long-running service
// admits and retires chips as join/leave events arrive. Cores are built
// per technique configuration over the handle; trained fuzzy controllers
// and static operating points are memoized on it per key.

// ChipHandle is one admitted chip's shared state. The immutable parts
// (maps, stage models, FVar) are built once by AcquireChip and then read
// concurrently; the memo maps are guarded by mu, and each entry builds
// outside it; the donor's PE-table store is concurrency-safe by
// construction (see the adapt package comment).
type ChipHandle struct {
	seed     int64
	chip     *varius.ChipMaps
	subs     []adapt.Subsystem
	donor    *adapt.Core
	imported int
	fvar     float64

	mu      sync.Mutex
	solvers map[tech.Config]*memoCell[*adapt.FuzzySolver]
	statics map[staticKey]*memoCell[adapt.OperatingPoint]
}

type staticKey struct {
	cfg   tech.Config
	class workload.Class
}

// memoCell is one memoized handle entry; done closes once v and err are
// set.
type memoCell[V any] struct {
	done chan struct{}
	v    V
	err  error
}

// memoize returns m[k], building it on first request. mu guards only the
// map: the build runs unlocked, so requests for other keys proceed while
// it does, and concurrent requests for k wait for the one build. A failed
// build is dropped from the map, so a later request retries it.
func memoize[K comparable, V any](mu *sync.Mutex, m map[K]*memoCell[V], k K, build func() (V, error)) (V, error) {
	mu.Lock()
	if c, ok := m[k]; ok {
		mu.Unlock()
		<-c.done
		return c.v, c.err
	}
	c := &memoCell[V]{done: make(chan struct{})}
	m[k] = c
	mu.Unlock()
	c.v, c.err = build()
	if c.err != nil {
		mu.Lock()
		delete(m, k)
		mu.Unlock()
	}
	close(c.done)
	return c.v, c.err
}

// Seed returns the handle's generator seed.
func (h *ChipHandle) Seed() int64 { return h.seed }

// FVar returns the chip's worst-case-safe relative frequency — the
// Baseline environment's clock.
func (h *ChipHandle) FVar() float64 { return h.fvar }

// AcquireChip builds (or loads) one chip's handle: variation maps,
// stage-model assembly, PE-table donor seeded from the artifact cache,
// and the worst-case-safe frequency. Release with ReleaseChip to write
// accumulated PE tables back.
func (s *Simulator) AcquireChip(seed int64) (*ChipHandle, error) {
	defer s.obs.Timer("core.chip_prep").Start().Stop()
	h := &ChipHandle{
		seed:    seed,
		chip:    s.Chip(seed),
		solvers: make(map[tech.Config]*memoCell[*adapt.FuzzySolver]),
		statics: make(map[staticKey]*memoCell[adapt.OperatingPoint]),
	}
	var err error
	if h.subs, err = s.buildSubsystems(h.chip); err != nil {
		return nil, err
	}
	// The donor exists only to hold the chip's shared PE-table store; the
	// tables depend on the stage models alone, so its configuration is
	// irrelevant.
	if h.donor, err = s.coreFromSubsystems(h.subs, tech.Config{TimingSpec: true}); err != nil {
		return nil, err
	}
	h.imported = s.loadPETables(h.donor, seed)
	if h.fvar, err = s.ChipFVar(h.chip); err != nil {
		return nil, err
	}
	return h, nil
}

// ReleaseChip retires a handle, persisting any PE-fmax tables its units
// built beyond what AcquireChip imported. The handle must be quiescent
// (no unit still running on its cores). A nil handle is a no-op.
func (s *Simulator) ReleaseChip(h *ChipHandle) {
	if h == nil {
		return
	}
	s.storePETables(h.donor, h.seed, h.imported)
}

// HandleCore assembles the environment's core over the handle's shared
// stage models and PE-table store. Cores are cheap relative to the
// handle; callers may cache them per worker.
func (s *Simulator) HandleCore(h *ChipHandle, env Environment) (*adapt.Core, error) {
	cfg := env.Config()
	if !cfg.TimingSpec {
		cfg = tech.Config{TimingSpec: true}
	}
	return s.handleCore(h, cfg)
}

// handleCore is HandleCore for any technique configuration, including
// the Figure 13 and Table 2 grids outside Table 1.
func (s *Simulator) handleCore(h *ChipHandle, cfg tech.Config) (*adapt.Core, error) {
	core, err := s.coreFromSubsystems(h.subs, cfg)
	if err != nil {
		return nil, err
	}
	if err := core.SharePETables(h.donor); err != nil {
		return nil, err
	}
	return core, nil
}

// HandleSolver returns the chip's trained fuzzy controllers for cpu's
// technique configuration and their fingerprint, training (through the
// artifact cache) on first use and memoizing per configuration
// afterwards. The memo assumes one TrainOptions per handle lifetime — the
// fleet service trains with one fixed option set.
func (s *Simulator) HandleSolver(h *ChipHandle, cpu *adapt.Core, opts adapt.TrainOptions) (*adapt.FuzzySolver, string, error) {
	sv, err := memoize(&h.mu, h.solvers, cpu.Config, func() (*adapt.FuzzySolver, error) {
		return s.TrainFuzzyCached([]*adapt.Core{cpu}, []int64{h.seed}, opts)
	})
	if err != nil {
		return nil, "", err
	}
	return sv, sv.Fingerprint(), nil
}

// HandleStaticPoint returns the chip's conservative static operating
// point for cpu's configuration and the app's class, choosing it
// (through the artifact cache) on first use.
func (s *Simulator) HandleStaticPoint(h *ChipHandle, cpu *adapt.Core, class workload.Class, apps []workload.App) (adapt.OperatingPoint, error) {
	return memoize(&h.mu, h.statics, staticKey{cfg: cpu.Config, class: class}, func() (adapt.OperatingPoint, error) {
		return s.cachedStaticPoint(cpu, class, apps, h.seed)
	})
}

// FleetUnit is one schedulable simulation unit: an application, and
// either one phase of it (Phase is the position in App.Phases) or the
// whole phase-weighted app (Phase < 0).
type FleetUnit struct {
	App   workload.App
	Phase int
	// Static is the operating point for Static-mode units (nil
	// otherwise).
	Static *adapt.OperatingPoint
}

// UnitAppRun executes one unit on cpu — through the apprun artifact
// cache, at phase granularity when the unit names a phase. For dynamic
// modes solver picks the algorithm (its weight fingerprint keys the
// cache); Static mode requires u.Static.
func (s *Simulator) UnitAppRun(seed int64, cpu *adapt.Core, mode Mode, solver adapt.Solver, u FleetUnit) (AppRun, error) {
	fp := ""
	switch mode {
	case Static:
		if u.Static == nil {
			return AppRun{}, fmt.Errorf("core: static fleet unit %q needs an operating point", u.App.Name)
		}
	case FuzzyDyn, ExhDyn:
		fp = solverFingerprint(solver)
	default:
		return AppRun{}, fmt.Errorf("core: fleet unit mode %v", mode)
	}
	if u.Phase >= len(u.App.Phases) {
		return AppRun{}, fmt.Errorf("core: %q has no phase %d", u.App.Name, u.Phase)
	}
	return s.cachedAppRun(seed, cpu, u.App, mode, fp, u.Static, u.Phase, func() (AppRun, error) {
		return s.runUnit(cpu, u.App, u.Phase, mode, solver, u.Static)
	})
}

// PeekAppRuns probes the artifact store for finished results of a batch
// of fleet units in one indexed pass, without building anything: out[i]
// reports whether unit i would replay from cache. All units share one
// (chip, core, mode, solver) context — the fleet batches exactly that
// shape. Uncacheable units (and a nil store) report false.
func (s *Simulator) PeekAppRuns(seed int64, cpu *adapt.Core, mode Mode, solverFP string, units []FleetUnit) []bool {
	keys := make([]string, len(units))
	for i, u := range units {
		keys[i] = s.appRunKey(seed, cpu.Config, u.App, mode, solverFP, u.Static, u.Phase)
	}
	return s.store.ContainsBatch(apprunKind, keys)
}

// ParseEnvironment resolves a Table 1 environment name ("TS+ASV+Q+FU",
// case-insensitive) to its Environment.
func ParseEnvironment(name string) (Environment, error) {
	for e := Environment(0); e < NumEnvironments; e++ {
		if strings.EqualFold(name, e.String()) {
			return e, nil
		}
	}
	return 0, fmt.Errorf("core: unknown environment %q", name)
}

// ParseMode resolves a mode name: "static", "fuzzy"/"fuzzy-dyn",
// "exh"/"exh-dyn" (case-insensitive).
func ParseMode(name string) (Mode, error) {
	switch strings.ToLower(name) {
	case "static":
		return Static, nil
	case "fuzzy", "fuzzy-dyn":
		return FuzzyDyn, nil
	case "exh", "exh-dyn":
		return ExhDyn, nil
	default:
		return 0, fmt.Errorf("core: unknown mode %q", name)
	}
}
