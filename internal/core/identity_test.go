package core

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// identityConfig is the reference experiment the checked-in digests
// below were computed at: two chips, both workload classes, two Table 1
// environments, and all three modes, so the summary exercises static
// points, per-chip training, and both dynamic solvers. RunOutcomes and
// RunTable2 take their chips, apps, and training from it and sweep their
// own configuration grids.
func identityConfig() ExperimentConfig {
	_, cfg := cacheTestConfig()
	cfg.Chips = 2
	cfg.Apps = []string{"gcc", "swim", "mcf"}
	cfg.Envs = []Environment{TSASV, TSASVQFU}
	cfg.Modes = []Mode{Static, FuzzyDyn, ExhDyn}
	return cfg
}

// identityDigests are the SHA-256 digests of json.Marshal of each
// experiment's result at identityConfig. Unlike the cold/warm goldens,
// which compare runs of one build with each other, these pin the bytes
// across changes to the engine: a refactor that moves any output bit
// fails here. Regenerate them only with a change that is meant to alter
// results, and say so where the change is recorded.
var identityDigests = map[string]string{
	"summary":  "e8479b90af0572ac25754e871363fe59b60b0f8ebc55e58f6d27127a383cef62",
	"outcomes": "9408d684b41ad6c67ea100a3dd89134c9b783ff904209ab56d86b5d7ef431ab6",
	"table2":   "2a9ab126afbec55f92ec677acf1d4e15d86e652b195c2874ac1d8f912dc02a8b",
}

// TestExperimentIdentity runs each experiment uncached, into an empty
// store, and back out of that store, and requires all three results to
// match the checked-in digest.
func TestExperimentIdentity(t *testing.T) {
	if testing.Short() {
		t.Skip("full-stack experiments")
	}
	cfg := identityConfig()
	experiments := []struct {
		name string
		run  func(*Simulator) (any, error)
	}{
		{"summary", func(s *Simulator) (any, error) { return s.RunSummary(cfg) }},
		{"outcomes", func(s *Simulator) (any, error) { return s.RunOutcomes(cfg) }},
		{"table2", func(s *Simulator) (any, error) { return s.RunTable2(cfg) }},
	}
	for _, e := range experiments {
		t.Run(e.name, func(t *testing.T) {
			dir := t.TempDir()
			for _, pass := range []struct{ label, dir string }{
				{"uncached", ""}, {"cold", dir}, {"warm", dir},
			} {
				blob, _ := runCached(t, pass.dir, e.run)
				sum := sha256.Sum256(blob)
				if got := hex.EncodeToString(sum[:]); got != identityDigests[e.name] {
					t.Errorf("%s %s digest %s, want %s", pass.label, e.name, got, identityDigests[e.name])
				}
			}
		})
	}
}
