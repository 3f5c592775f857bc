// Command perfbench is the repository benchmark: four workloads over the
// paper-figure path (core.RunSummary) and the fleet service (evalserve),
// each checked against golden outputs on every run. It is normally run
// through run.py, which builds it and evalserve from source first:
//
//	python3 perfbench/run.py --workload fig-cold --seed 1 --seconds 12 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// --trace 0, the per-layer ledger with --trace 1. Lines before it print
// every metric by name with its unit, and the run's provenance.
// See README.md beside this file for the workloads, metrics and checks.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// e2eMetrics are the untraced run's metrics, reported on every workload.
var e2eMetrics = []metricDef{
	{"setup_s", "s"},
	{"units_per_s", "1/s"},
	{"events_per_s", "1/s"},
	{"lat_p50_ms", "ms"},
	{"lat_tail_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"peak_rss_mb", "MB"},
}

// layerMetrics are the traced run's per-layer metrics; a layer a
// workload never calls reads 0.
var layerMetrics = []metricDef{
	{"varius.chip_ms", "ms"},
	{"pipeline.profile_ms", "ms"},
	{"pipeline.minstr_per_s", "Minstr/s"},
	{"core.build_core_ms", "ms"},
	{"core.handle_core_ms", "ms"},
	{"adapt.train_ms", "ms"},
	{"adapt.train_examples", "count"},
	{"adapt.static_point_ms", "ms"},
	{"adapt.unit_ms", "ms"},
	{"core.acquire_chip_ms", "ms"},
	{"core.unit_app_run_ms", "ms"},
	{"core.release_chip_ms", "ms"},
	{"core.summary_ms", "ms"},
	{"core.unattributed_share", "1"},
	{"artifact.open_ms", "ms"},
	{"artifact.close_ms", "ms"},
	{"artifact.hit_ratio", "1"},
	{"artifact.decode_ms", "ms"},
	{"artifact.encode_ms", "ms"},
	{"artifact.bytes_written", "bytes"},
	{"fleet.submit_p50_ms", "ms"},
	{"fleet.submit_p99_ms", "ms"},
	{"fleet.sched_p50_ms", "ms"},
	{"fleet.sched_p99_ms", "ms"},
	{"fleet.total_p50_ms", "ms"},
	{"fleet.batched_mean", "count"},
	{"fleet.cache_hit_ratio", "1"},
	{"fleet.join_ms", "ms"},
	{"fleet.leave_ms", "ms"},
	{"wire.append_json_us", "us"},
	{"wire.bytes_per_event", "bytes"},
	{"http.hop_p50_ms", "ms"},
	{"http.flushes_per_batch", "count"},
	{"http.lock_wait_ms", "ms"},
	{"gen.late_p99_ms", "ms"},
	{"gen.cpu_ms_per_op", "ms"},
	{"trace.overhead_frac", "1"},
}

var workloads = map[string]func(*run) error{
	"fig-cold":    runFigCold,
	"fig-warm":    runFigWarm,
	"serve-warm":  runServeWarm,
	"serve-churn": runServeChurn,
}

// run is one benchmark invocation's state and results.
type run struct {
	workload  string
	seed      int64
	seconds   float64
	led       *ledger // nil on the untraced run
	work      string  // scratch directory for stores, logs and the trace
	self      string  // this binary, for child processes
	evalserve string
	golden    *golden

	setup     time.Duration
	attempted int
	opsDone   int
	failures  []string
	notes     []string
	e2eVals   map[string]float64
	layerVals map[string]float64
}

func (r *run) e2e(name string, v float64)   { r.e2eVals[name] = v }
func (r *run) layer(name string, v float64) { r.layerVals[name] = v }

// latencies reports the median and the tail of one workload's op
// latencies in milliseconds, given in op order. The run is cut into
// consecutive windows of `window` ops; the tail is the highest of p99/p90
// that keeps at least ten samples beyond it within a window (p50 when
// none does), taken in every window, and its median across windows. With
// many windows a few stall-ridden ones — a neighbour on the host, not
// the program — move it no more than stall-free ones.
func (r *run) latencies(what string, l []float64, window int) {
	if window > len(l) {
		window = len(l)
	}
	p := tailPercentile(window, 10)
	var tails []float64
	for w := 0; w+window <= len(l); w += window {
		tails = append(tails, quantile(l[w:w+window], p))
	}
	r.e2e("lat_p50_ms", quantile(l, 0.5))
	r.e2e("lat_tail_ms", median(tails))
	r.note("%s: lat_tail_ms is the median p%g of %d windows of %d ops", what, p*100, len(tails), window)
}

func (r *run) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// failf records an output-check failure; the run reports correct=false.
func (r *run) failf(format string, args ...any) {
	if len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	} else if len(r.failures) == 20 {
		r.failures = append(r.failures, "further failures elided")
	}
}

func (r *run) checkf(err error) {
	if err != nil {
		r.failf("%v", err)
	}
}

type metricVal struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricVal `json:"metrics"`
}

func main() {
	var (
		wl        = flag.String("workload", "", "workload: fig-cold, fig-warm, serve-warm, serve-churn")
		seed      = flag.Int64("seed", 1, "input seed")
		seconds   = flag.Float64("seconds", 12, "nominal measuring time; sizes the fixed work of a run")
		trace     = flag.Int("trace", 0, "1 = traced run reporting the per-layer ledger")
		root      = flag.String("root", ".", "repository root")
		work      = flag.String("work", ".bench_build/work", "scratch directory")
		evalserve = flag.String("evalserve", "", "evalserve binary")

		goldenGen = flag.Bool("golden-gen", false, "recompute golden.json (slow) and exit")
		child     = flag.Bool("child-populate", false, "internal: fig-warm set-up child")
		store     = flag.String("store", "", "internal: store directory for -child-populate")
		seedBase  = flag.Int64("seed-base", 0, "internal: figure seed base for -child-populate")
		sumOut    = flag.String("summary-out", "", "internal: summary output for -child-populate")
	)
	flag.Parse()
	goldenPath := filepath.Join(*root, "perfbench", goldenFile)
	switch {
	case *child:
		exitOn(populate(*store, *seedBase, *sumOut))
		return
	case *goldenGen:
		exitOn(generateGolden(goldenPath))
		return
	}
	fn, ok := workloads[*wl]
	if !ok {
		exitOn(fmt.Errorf("unknown -workload %q", *wl))
	}
	if *trace != 0 && *trace != 1 {
		exitOn(fmt.Errorf("-trace must be 0 or 1"))
	}
	if *seconds <= 0 {
		exitOn(fmt.Errorf("-seconds must be positive"))
	}
	g, err := loadGolden(goldenPath)
	exitOn(err)
	self, err := os.Executable()
	exitOn(err)
	dir, err := filepath.Abs(filepath.Join(*work, *wl))
	exitOn(err)
	exitOn(os.RemoveAll(dir))
	exitOn(os.MkdirAll(dir, 0o755))
	r := &run{
		workload: *wl, seed: *seed, seconds: *seconds, work: dir,
		self: self, evalserve: *evalserve, golden: g,
		e2eVals: map[string]float64{}, layerVals: map[string]float64{},
	}
	if (*wl == "serve-warm" || *wl == "serve-churn") && r.evalserve == "" {
		exitOn(errors.New("serve workloads need -evalserve"))
	}
	if *trace == 1 {
		r.led = newLedger()
	}
	steal0, total0 := hostSteal()
	exitOn(fn(r))
	if steal1, total1 := hostSteal(); total1 > total0 {
		r.note("host steal %.2f%% of CPU time during the run", 100*float64(steal1-steal0)/float64(total1-total0))
	}
	r.e2e("setup_s", r.setup.Seconds())

	res := r.report(*trace == 1, stamp(*root))
	if r.led != nil {
		path := filepath.Join(dir, "trace.json")
		exitOn(r.led.writeTrace(path))
		fmt.Printf("# trace: %s\n", path)
	}
	line, err := json.Marshal(res)
	exitOn(err)
	os.Stdout.Write(append(line, '\n'))
	if !res.Correct {
		os.Exit(1)
	}
}

// report prints every metric by name and unit, the provenance stamp and
// the check outcome, and builds the result object.
func (r *run) report(traced bool, prov provenance) result {
	for _, d := range e2eMetrics {
		fmt.Printf("e2e   %-24s %14.6g %s\n", d.name, r.e2eVals[d.name], d.unit)
	}
	if traced {
		for _, d := range layerMetrics {
			fmt.Printf("layer %-24s %14.6g %s\n", d.name, r.layerVals[d.name], d.unit)
		}
	}
	for _, n := range unknownMetrics(r.layerVals, layerMetrics) {
		r.failf("layer metric %s is not in the metric table", n)
	}
	for name, v := range r.e2eVals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			r.failf("metric %s is %v", name, v)
			r.e2eVals[name] = 0
		}
	}
	for name, v := range r.layerVals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			r.failf("layer metric %s is %v", name, v)
			r.layerVals[name] = 0
		}
	}
	failed := r.attempted - r.opsDone
	fmt.Printf("# fail_frac %.6g (%d of %d)\n", failFrac(r.attempted, failed), failed, r.attempted)
	for _, n := range r.notes {
		fmt.Printf("# %s\n", n)
	}
	for _, f := range r.failures {
		fmt.Printf("# CHECK FAILED: %s\n", f)
	}
	pj, _ := json.Marshal(prov)
	fmt.Printf("# provenance %s workload=%s seed=%d seconds=%g trace=%v\n", pj, r.workload, r.seed, r.seconds, traced)

	res := result{
		Correct:   len(r.failures) == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    failed,
		Metrics:   map[string]metricVal{},
	}
	defs, vals := e2eMetrics, r.e2eVals
	if traced {
		defs, vals = layerMetrics, r.layerVals
	}
	for _, d := range defs {
		res.Metrics[d.name] = metricVal{Value: vals[d.name], Unit: d.unit}
	}
	return res
}

// unknownMetrics lists recorded names outside the metric tables — a
// misspelt layer name would otherwise vanish from the report.
func unknownMetrics(vals map[string]float64, defs []metricDef) []string {
	known := map[string]bool{}
	for _, d := range defs {
		known[d.name] = true
	}
	var out []string
	for n := range vals {
		if !known[n] {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

func exitOn(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
}
