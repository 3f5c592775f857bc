package main

import (
	"os"
	"time"

	"repro/internal/obs"
)

// ledger records the traced run's per-layer time. Every call the
// benchmark makes into a layer's public function opens a span on the
// repo's own obs.Tracer (written as Chrome-trace JSON when the run ends)
// and observes its duration into an obs.Registry timer of the same name,
// so span names and metric names are one vocabulary. A nil *ledger is
// the untraced run: calls execute with no clock read and no record.
type ledger struct {
	tr  *obs.Tracer
	reg *obs.Registry
}

func newLedger() *ledger {
	return &ledger{tr: obs.NewTracer(), reg: obs.NewRegistry()}
}

// span times fn as layer name on its own track.
func (l *ledger) span(name string, fn func() error) error {
	if l == nil {
		return fn()
	}
	sp := l.tr.Start(name)
	sw := l.reg.Timer(name).Start()
	err := fn()
	sw.Stop()
	sp.End()
	return err
}

// observe records an externally timed interval (one the benchmark timed
// itself, such as an HTTP round trip) under name.
func (l *ledger) observe(name string, d time.Duration) {
	if l == nil {
		return
	}
	l.reg.Timer(name).Observe(d)
}

// meanMs is the mean duration of layer name in milliseconds (0 when the
// layer was never called on this workload).
func (l *ledger) meanMs(name string) float64 {
	h := l.reg.Timer(name)
	if h.Count() == 0 {
		return 0
	}
	return ms(h.Sum()) / float64(h.Count())
}

// busy is layer name's total time.
func (l *ledger) busy(name string) time.Duration { return l.reg.Timer(name).Sum() }

// count is the number of calls recorded for layer name.
func (l *ledger) count(name string) int64 { return l.reg.Timer(name).Count() }

// writeTrace writes the spans as Chrome-trace JSON.
func (l *ledger) writeTrace(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := l.tr.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
