package main

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/fleet"
)

type fleetEvent = fleet.Event

var errTransport = errors.New("connection reset")

func newTestRun(t *testing.T) *run {
	t.Helper()
	return &run{e2eVals: map[string]float64{}, layerVals: map[string]float64{}}
}

// syntheticTable fills every unit of chip with distinct payloads.
func syntheticTable(chip int64) unitTable {
	t := make(unitTable)
	for i, k := range chipUnits(chip) {
		x := float64(i + 1)
		t[k] = fleet.RunPayload{FRel: x / 7, Perf: x / 3, PowerW: x * 1.5, PE: x * 1e-9}
	}
	return t
}

func TestChipDigestDetectsTampering(t *testing.T) {
	const chip = 42
	tab := syntheticTable(chip)
	d, err := tableDigest(tab, chip)
	if err != nil {
		t.Fatal(err)
	}
	g := &golden{Chips: map[string]string{"42": d}}
	if err := g.checkChip(tab, chip); err != nil {
		t.Fatalf("untampered table: %v", err)
	}
	k := chipUnits(chip)[5]
	p := tab[k]
	p.PE = p.PE * (1 + 1e-15) // one ulp-scale change in one field
	tab[k] = p
	if err := g.checkChip(tab, chip); err == nil {
		t.Error("tampered payload passed the golden digest")
	}
	delete(tab, k)
	if err := g.checkChip(tab, chip); err == nil || !strings.Contains(err.Error(), "no result") {
		t.Errorf("missing unit: err = %v, want a missing-result error", err)
	}
	if err := g.checkChip(syntheticTable(43), 43); err == nil {
		t.Error("a chip outside the golden pool passed")
	}
}

func TestCheckResultComparesCanonicalPayload(t *testing.T) {
	const chip = 7
	tab := syntheticTable(chip)
	k := chipUnits(chip)[3]
	phase := k.Phase
	want := tab[k]
	res := fleet.Result{
		Seq: 9, Kind: fleet.KindRun, Chip: chip, Env: serveEnv, Mode: k.Mode, App: k.App,
		Phase: &phase, Status: fleet.StatusOK, Run: &want,
		// Diagnostics are outside the determinism contract and must not
		// affect the check.
		CacheHit: true, Batched: 3, Worker: 1, SchedMs: 0.5, TotalMs: 2,
	}
	if err := checkResult(tab, res); err != nil {
		t.Fatalf("golden payload rejected: %v", err)
	}
	bad := want
	bad.Perf += 1e-12
	res.Run = &bad
	if err := checkResult(tab, res); err == nil {
		t.Error("tampered payload accepted")
	}
	res.Run = &want
	res.Status, res.Err = fleet.StatusError, "boom"
	if err := checkResult(tab, res); err == nil {
		t.Error("error result accepted")
	}
	res.Status = fleet.StatusOK
	other := 99
	res.Phase = &other
	if err := checkResult(tab, res); err == nil {
		t.Error("result for a unit outside the table accepted")
	}
}

func TestFigDigestCheck(t *testing.T) {
	g := &golden{FigSummary: map[string]string{"1000": "abc"}}
	if err := g.checkFigDigest(1000, "abc"); err != nil {
		t.Fatal(err)
	}
	if err := g.checkFigDigest(1000, "abd"); err == nil {
		t.Error("tampered summary digest accepted")
	}
	if err := g.checkFigDigest(1002, "abc"); err == nil {
		t.Error("seed base without a golden digest accepted")
	}
}

// TestGoldenFileCoversEverySeed checks the checked-in golden file has an
// entry for every input any seed can select.
func TestGoldenFileCoversEverySeed(t *testing.T) {
	g, err := loadGolden(goldenFile)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(-20); seed < 40; seed++ {
		if _, ok := g.FigSummary[strconv.FormatInt(figSeedBaseFor(seed), 10)]; !ok {
			t.Fatalf("seed %d: no golden summary for seed base %d", seed, figSeedBaseFor(seed))
		}
		for _, chip := range chipPool(seed) {
			if _, ok := g.Chips[strconv.FormatInt(chip, 10)]; !ok {
				t.Fatalf("seed %d: pool chip %d has no golden digest", seed, chip)
			}
		}
	}
}

// TestBenchmarkJSONMatchesMetricTables keeps BENCHMARK.json and the
// harness's metric tables one list.
func TestBenchmarkJSONMatchesMetricTables(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %s has no implementation", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, harness has %d", len(spec.Workloads), len(workloads))
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, harness %d", what, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), harness %s (%s)", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, e2eMetrics)
	same("per_layer", spec.PerLayer, layerMetrics)
}

func TestChipPoolIsSeededPermutation(t *testing.T) {
	a, b := chipPool(3), chipPool(3)
	seen := map[int64]bool{}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed gave different pools")
		}
		if seen[a[i]] || a[i] < chipPoolBase || a[i] >= chipPoolBase+chipPoolSize {
			t.Fatalf("pool entry %d repeated or out of range", a[i])
		}
		seen[a[i]] = true
	}
	if c := chipPool(4); c[0] == a[0] && c[1] == a[1] && c[2] == a[2] {
		t.Error("different seeds gave the same leading chips")
	}
}
