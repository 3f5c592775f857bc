package main

import (
	"math"
	"testing"
	"time"
)

func TestQuantileMatchesInclusiveDefinition(t *testing.T) {
	xs := []float64{7, 1, 3, 5, 9} // sorted: 1 3 5 7 9
	cases := []struct{ p, want float64 }{
		{0, 1}, {0.25, 3}, {0.5, 5}, {0.75, 7}, {1, 9},
		{0.1, 1.8}, {0.9, 8.2}, {0.99, 8.92},
	}
	for _, c := range cases {
		if got := quantile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("quantile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 7 {
		t.Error("quantile sorted its input in place")
	}
	if got := quantile([]float64{4}, 0.99); got != 4 {
		t.Errorf("single sample p99 = %v, want 4", got)
	}
	if got := quantile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("empty quantile = %v, want NaN", got)
	}
	if got := median([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
}

func TestTailPercentileKeepsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{{1000, 0.99}, {999, 0.9}, {100, 0.9}, {99, 0.5}, {5, 0.5}}
	for _, c := range cases {
		if got := tailPercentile(c.n, 10); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestFailFrac(t *testing.T) {
	cases := []struct {
		attempted, failed int
		want              float64
	}{
		{100, 0, 0},
		{100, 10, 0.1},
		{50, 50, 1},
		{0, 0, 1}, // nothing attempted is never a clean run
	}
	for _, c := range cases {
		if got := failFrac(c.attempted, c.failed); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("failFrac(%+v) = %v, want %v", c, got, c.want)
		}
	}
}

func TestServedCountsEveryFailureKind(t *testing.T) {
	r := newTestRun(t)
	tab := unitTable{{Chip: 1, Mode: "exh", App: "gcc", Phase: 0}: {FRel: 1, Perf: 2, PowerW: 3, PE: 4}}
	ok := `{"seq":1,"at":0,"kind":"run","chip":1,"env":"TS+ASV+Q+FU","mode":"exh","app":"gcc","phase":0,"status":"ok","run":{"f_rel":1,"perf":2,"power_w":3,"pe":4},"cache_hit":true}` + "\n"
	wrong := `{"seq":2,"at":0,"kind":"run","chip":1,"env":"TS+ASV+Q+FU","mode":"exh","app":"gcc","phase":0,"status":"ok","run":{"f_rel":1,"perf":2,"power_w":3,"pe":5}}` + "\n"
	rejected := `{"seq":3,"at":0,"kind":"run","chip":1,"mode":"exh","app":"gcc","phase":0,"status":"rejected","err":"admission"}` + "\n"
	bs := []*batch{
		{events: make([]fleetEvent, 2), resp: []byte(ok + wrong)},
		{events: make([]fleetEvent, 1), resp: []byte(rejected)},
		{events: make([]fleetEvent, 3), shed: true},
		{events: make([]fleetEvent, 4), err: errTransport},
	}
	var s served
	s.add(r, tab, bs, false)
	if s.events != 10 || s.failed != 2 || s.shed != 3 || s.transport != 4 {
		t.Fatalf("served = %+v", s)
	}
	if got := failFrac(s.events, s.bad()); got != 0.9 {
		t.Errorf("fail_frac = %v, want 0.9", got)
	}
	if s.hitRatio() != 1 {
		t.Errorf("hit ratio = %v, want 1 (one adaptive ok result, a hit)", s.hitRatio())
	}
	if len(r.failures) != 2 {
		t.Errorf("recorded %d check failures, want 2: %v", len(r.failures), r.failures)
	}
}

func TestClosedRatesIgnoreAStalledWindow(t *testing.T) {
	t0 := time.Unix(1000, 0)
	var bs []*batch
	for i := 0; i < 3*closedWindow; i++ {
		done := t0.Add(time.Duration(i+1) * time.Millisecond)
		if i >= closedWindow+50 {
			done = done.Add(time.Second) // one stall inside the second window
		}
		evs := []fleetEvent{{Mode: "baseline"}, {Mode: "exh"}}
		bs = append(bs, &batch{events: evs, done: done, lat: time.Millisecond})
	}
	// Completion order, not submission order, defines the windows.
	bs[0], bs[len(bs)-1] = bs[len(bs)-1], bs[0]
	events, units := closedRates(bs)
	if math.Abs(events-2000) > 1e-6 || math.Abs(units-1000) > 1e-6 {
		t.Errorf("closedRates = %v events/s, %v units/s; want the unstalled windows' 2000 and 1000", events, units)
	}
}
