package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/adapt"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/workload"
)

// golden holds the reference outputs the benchmark checks every run
// against. They are computed by `perfbench -golden-gen` on the in-process
// core engine with no artifact store — a path that shares no code with
// the fleet's batching, the store, the wire encoder, or HTTP — and
// checked in beside the benchmark.
type golden struct {
	// FigSummary maps a figure workload's SeedBase to the SHA-256 of its
	// Summary's JSON encoding.
	FigSummary map[string]string `json:"fig_summary_sha256"`
	// Chips maps a pool chip seed to the SHA-256 of its serve unit table
	// (see tableDigest).
	Chips map[string]string `json:"serve_chip_sha256"`
}

const goldenFile = "golden.json"

func loadGolden(path string) (*golden, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var g golden
	if err := json.Unmarshal(raw, &g); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(g.FigSummary) == 0 || len(g.Chips) == 0 {
		return nil, fmt.Errorf("%s: empty golden tables", path)
	}
	return &g, nil
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// summaryDigest is the SHA-256 of a figure Summary's JSON encoding.
func summaryDigest(s *core.Summary) (string, []byte, error) {
	raw, err := json.Marshal(s)
	if err != nil {
		return "", nil, err
	}
	return sha256Hex(raw), raw, nil
}

// checkFigDigest fails unless digest is the golden one for seedBase.
func (g *golden) checkFigDigest(seedBase int64, digest string) error {
	want, ok := g.FigSummary[strconv.FormatInt(seedBase, 10)]
	if !ok {
		return fmt.Errorf("no golden summary for seed base %d", seedBase)
	}
	if digest != want {
		return fmt.Errorf("summary digest %s, golden %s (seed base %d)", digest, want, seedBase)
	}
	return nil
}

// The serve workloads run every unit on one environment over a fixed
// app set mixing both classes (Static needs a point per class).
const serveEnv = "TS+ASV+Q+FU"

var serveApps = []string{"gcc", "mcf", "swim", "art"}

// unitKey names one served unit of a chip: mode baseline has no app.
type unitKey struct {
	Chip  int64
	Mode  string
	App   string
	Phase int
}

// unitTable maps each unit to its run payload.
type unitTable map[unitKey]fleet.RunPayload

// chipUnits lists a chip's serve units in canonical order: the baseline
// probe, then exh and static runs over every (app, phase).
func chipUnits(chip int64) []unitKey {
	keys := []unitKey{{Chip: chip, Mode: fleet.ModeBaseline, Phase: -1}}
	for _, mode := range []string{fleet.ModeExh, fleet.ModeStatic} {
		for _, name := range serveApps {
			app, _ := workload.ByName(name)
			for p := range app.Phases {
				keys = append(keys, unitKey{Chip: chip, Mode: mode, App: name, Phase: p})
			}
		}
	}
	return keys
}

// formatPayload renders a payload with exact (shortest round-trip)
// floats, the form the digests hash.
func formatPayload(p fleet.RunPayload) string {
	f := func(x float64) string { return strconv.FormatFloat(x, 'g', -1, 64) }
	return f(p.FRel) + " " + f(p.Perf) + " " + f(p.PowerW) + " " + f(p.PE)
}

// tableDigest hashes one chip's units in canonical order; a missing
// unit is an error, never a silently shorter digest.
func tableDigest(t unitTable, chip int64) (string, error) {
	var b strings.Builder
	for _, k := range chipUnits(chip) {
		p, ok := t[k]
		if !ok {
			return "", fmt.Errorf("chip %d: no result for %s %s phase %d", chip, k.Mode, k.App, k.Phase)
		}
		fmt.Fprintf(&b, "%s %s %d %s\n", k.Mode, k.App, k.Phase, formatPayload(p))
	}
	return sha256Hex([]byte(b.String())), nil
}

// checkChip fails unless the table's units of chip match the golden
// digest.
func (g *golden) checkChip(t unitTable, chip int64) error {
	want, ok := g.Chips[strconv.FormatInt(chip, 10)]
	if !ok {
		return fmt.Errorf("chip %d is outside the golden pool", chip)
	}
	got, err := tableDigest(t, chip)
	if err != nil {
		return err
	}
	if got != want {
		return fmt.Errorf("chip %d: unit table digest %s, golden %s", chip, got, want)
	}
	return nil
}

// checkResult verifies one served result against the verified table:
// status ok, and a Canonical() run payload equal to the table's.
func checkResult(t unitTable, r fleet.Result) error {
	c := r.Canonical()
	if c.Status != fleet.StatusOK {
		return fmt.Errorf("seq %d: status %s: %s", c.Seq, c.Status, c.Err)
	}
	if c.Kind != fleet.KindRun {
		return nil
	}
	if c.Run == nil {
		return fmt.Errorf("seq %d: run result without payload", c.Seq)
	}
	k := unitKey{Chip: c.Chip, Mode: c.Mode, App: c.App, Phase: -1}
	if c.Phase != nil {
		k.Phase = *c.Phase
	}
	want, ok := t[k]
	if !ok {
		return fmt.Errorf("seq %d: no golden payload for chip %d %s %s phase %d", c.Seq, k.Chip, k.Mode, k.App, k.Phase)
	}
	if *c.Run != want {
		return fmt.Errorf("seq %d: chip %d %s %s phase %d payload %s, golden %s",
			c.Seq, k.Chip, k.Mode, k.App, k.Phase, formatPayload(*c.Run), formatPayload(want))
	}
	return nil
}

// replayChip computes one chip's serve units on the core fleet engine
// directly — AcquireChip, HandleCore, HandleStaticPoint, UnitAppRun,
// ReleaseChip — timing each call into led when tracing. It calls them in
// the order a fleet worker does for one batch of the chip's units: the
// exh units, then every static operating point the static units need,
// then the static units. The order matters: a unit's low-order bits
// depend on what its core solved before it (see README.md).
func replayChip(sim *core.Simulator, led *ledger, chip int64) (unitTable, error) {
	env, err := core.ParseEnvironment(serveEnv)
	if err != nil {
		return nil, err
	}
	var h *core.ChipHandle
	if err := led.span("core.acquire_chip", func() (e error) { h, e = sim.AcquireChip(chip); return }); err != nil {
		return nil, err
	}
	var cpu *adapt.Core
	if err := led.span("core.handle_core", func() (e error) { cpu, e = sim.HandleCore(h, env); return }); err != nil {
		return nil, err
	}
	suite := workload.Suite()
	t := make(unitTable)
	points := map[workload.Class]*adapt.OperatingPoint{}
	run := func(k unitKey, mode core.Mode, solver adapt.Solver) error {
		app, err := workload.ByName(k.App)
		if err != nil {
			return err
		}
		u := core.FleetUnit{App: app, Phase: k.Phase, Static: points[app.Class]}
		var r core.AppRun
		if err := led.span("core.unit_app_run", func() (e error) { r, e = sim.UnitAppRun(chip, cpu, mode, solver, u); return }); err != nil {
			return err
		}
		t[k] = fleet.RunPayload{FRel: r.FRel, Perf: r.Perf, PowerW: r.PowerW, PE: r.PE}
		return nil
	}
	units := chipUnits(chip)
	for _, k := range units {
		switch k.Mode {
		case fleet.ModeBaseline:
			t[k] = fleet.RunPayload{FRel: h.FVar()}
		case fleet.ModeExh:
			if err := run(k, core.ExhDyn, adapt.Exhaustive{}); err != nil {
				return nil, err
			}
		}
	}
	for _, k := range units {
		if k.Mode != fleet.ModeStatic {
			continue
		}
		app, err := workload.ByName(k.App)
		if err != nil {
			return nil, err
		}
		if points[app.Class] != nil {
			continue
		}
		var pt adapt.OperatingPoint
		if err := led.span("adapt.static_point", func() (e error) {
			pt, e = sim.HandleStaticPoint(h, cpu, app.Class, suite)
			return
		}); err != nil {
			return nil, err
		}
		points[app.Class] = &pt
	}
	for _, k := range units {
		if k.Mode == fleet.ModeStatic {
			if err := run(k, core.Static, nil); err != nil {
				return nil, err
			}
		}
	}
	led.span("core.release_chip", func() error { sim.ReleaseChip(h); return nil })
	return t, nil
}

// generateGolden recomputes every golden entry and writes the file.
func generateGolden(path string) error {
	g := golden{FigSummary: map[string]string{}, Chips: map[string]string{}}
	for k := 0; k < figSeedBases; k++ {
		base := figSeedBase(int64(k))
		sim, err := newFigSim()
		if err != nil {
			return err
		}
		sum, err := sim.RunSummary(figConfig(base))
		if err != nil {
			return err
		}
		d, _, err := summaryDigest(sum)
		if err != nil {
			return err
		}
		g.FigSummary[strconv.FormatInt(base, 10)] = d
		fmt.Fprintf(os.Stderr, "golden: fig seed base %d %s\n", base, d)
	}
	sim, err := core.NewSimulator(core.DefaultOptions())
	if err != nil {
		return err
	}
	for i := 0; i < chipPoolSize; i++ {
		chip := chipPoolBase + int64(i)
		t, err := replayChip(sim, nil, chip)
		if err != nil {
			return err
		}
		d, err := tableDigest(t, chip)
		if err != nil {
			return err
		}
		g.Chips[strconv.FormatInt(chip, 10)] = d
	}
	fmt.Fprintf(os.Stderr, "golden: %d pool chips\n", chipPoolSize)
	raw, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
