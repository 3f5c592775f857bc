package core

import (
	"testing"

	"repro/internal/adapt"
	"repro/internal/workload"
)

// TestSharedCoreWorkerPath drives the experiment fan-out with more chips
// than workers so worker goroutines run concurrently, each owning its
// chip's shared-assembly cores (one stage build and one PE-table store per
// chip, shared across environments). Under `go test -race` this exercises
// the adapt package's ownership rule end to end: solver caches are
// per-chip and single-goroutine, concurrency is across chips only.
func TestSharedCoreWorkerPath(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-chip experiment")
	}
	s := newSim(t)
	cfg := DefaultExperimentConfig()
	cfg.Chips = 3
	cfg.Workers = 3
	cfg.Apps = []string{"gcc", "swim"}
	cfg.Envs = []Environment{TSASV, All}
	cfg.Modes = []Mode{Static, ExhDyn}
	sum, err := s.RunSummary(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The same experiment serially must agree exactly: per-chip results
	// cannot depend on worker interleaving.
	s2 := newSim(t)
	cfg.Workers = 1
	sum2, err := s2.RunSummary(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, env := range cfg.Envs {
		for _, mode := range cfg.Modes {
			a, err := sum.CellFor(env, mode)
			if err != nil {
				t.Fatal(err)
			}
			b, err := sum2.CellFor(env, mode)
			if err != nil {
				t.Fatal(err)
			}
			if a.FRel != b.FRel || a.PerfR != b.PerfR || a.PowerW != b.PowerW {
				t.Errorf("%v/%v: parallel %+v != serial %+v", env, mode, a, b)
			}
		}
	}
}

// TestRunDynamicRejectsNonTableConfig: a core built outside the Table 1
// set must be refused by the environment-labeled run paths.
func TestRunDynamicRejectsNonTableConfig(t *testing.T) {
	s := newSim(t)
	h, err := s.AcquireChip(3)
	if err != nil {
		t.Fatal(err)
	}
	core, err := s.handleCore(h, Figure13Configs()[1].Config) // TS+ABB
	if err != nil {
		t.Fatal(err)
	}
	app, err := workload.ByName("gcc")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.RunDynamic(core, app, ExhDyn, adapt.Exhaustive{}); err == nil {
		t.Error("RunDynamic accepted a non-Table-1 config")
	}
	if _, err := s.RunStatic(core, app, adapt.OperatingPoint{FCore: 1}); err == nil {
		t.Error("RunStatic accepted a non-Table-1 config")
	}
}
