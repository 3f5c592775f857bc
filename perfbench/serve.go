package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/artifact"
	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/workload"
)

// The serve workloads drive an evalserve subprocess over HTTP from this
// one process, on at most serveConns connections (the CPU count of the
// 2-CPU machine the constants below were calibrated on).
const (
	serveConns = 2
	// chipPoolBase/chipPoolSize: every served chip is drawn from this
	// pool, each with a golden unit-table digest.
	chipPoolBase = 20000
	chipPoolSize = 256
	// servePopulation is serve-warm's joined, fully primed chip set.
	servePopulation = 16
	serveBatch      = 50
	// openRate is serve-warm's open-loop arrival rate in events/s, and
	// the open loop lasts --seconds. It is about a fifth of the
	// closed-loop capacity measured at this commit (23k events/s on 2
	// CPUs): at 8k and 10k events/s, periods of heavy load from other
	// tenants of the host pushed the open loop into queueing and moved
	// its tail several-fold between runs.
	openRate = 5000
	// openWindow is how many consecutive open-loop batches serve-warm's
	// tail latency takes each p90 over (1 s at openRate); the reported
	// tail is the median of those p90s. A p99 over the whole open loop
	// moved 7-45 ms between runs on a shared 2-CPU host, with host stalls
	// of tens of milliseconds landing in some runs and not others.
	openWindow = 100
	// closedBatchesPerSecond sizes serve-warm's closed loop: batches per
	// second of --seconds (about 6 s of a 20 s run at this commit's
	// capacity).
	closedBatchesPerSecond = 140
	// closedWindow is how many batches each closed-loop throughput window
	// holds (about half a second at this commit's capacity).
	closedWindow = 250
	// maxLate is how far behind its due time the open loop may fall
	// before it sheds a batch (counted as failed) instead of sending it.
	maxLate = 250 * time.Millisecond
	// churnSessionsPerSecond sizes serve-churn from --seconds.
	churnSessionsPerSecond = 8
)

// server is a running evalserve.
type server struct {
	cmd   *exec.Cmd
	base  string
	ready time.Duration
	log   *os.File
	done  bool
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServer launches evalserve on a fresh store and polls /healthz
// every millisecond until it answers; ready is launch-to-first-200.
func startServer(bin, store, logPath string) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	t0 := time.Now()
	cmd := exec.Command(bin, "-addr", addr, "-cache-dir", store)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, err
	}
	s := &server{cmd: cmd, base: "http://" + addr, log: logf}
	probe := &http.Client{Timeout: time.Second}
	for time.Since(t0) < 30*time.Second {
		resp, err := probe.Get(s.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				s.ready = time.Since(t0)
				return s, nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	s.stop()
	return nil, fmt.Errorf("evalserve not ready after 30s (log: %s)", logPath)
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// stop drains the server with SIGTERM (which flushes its store) and
// waits for it, killing it if the drain hangs. Later calls do nothing.
func (s *server) stop() error {
	if s.done {
		return nil
	}
	s.done = true
	defer s.log.Close()
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- s.cmd.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(30 * time.Second):
		_ = s.cmd.Process.Kill()
		<-done
		return fmt.Errorf("evalserve did not drain within 30s")
	}
}

// client posts pre-encoded batches over at most serveConns keep-alive
// connections.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	tr := &http.Transport{
		MaxConnsPerHost:     serveConns,
		MaxIdleConnsPerHost: serveConns,
		DisableCompression:  true,
	}
	return &client{base: base, hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}}
}

// post sends one batch body and returns the NDJSON response. A batch
// whose response does not hold one line per event is a transport failure.
func (c *client) post(body []byte, events int) ([]byte, error) {
	resp, err := c.hc.Post(c.base+"/v1/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(out))
	}
	if n := bytes.Count(out, []byte{'\n'}); n != events {
		return nil, fmt.Errorf("%d result lines for %d events", n, events)
	}
	return out, nil
}

// getJSON fetches a JSON endpoint into v.
func (c *client) getJSON(path string, v any) error {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(v)
}

// metric reads one counter from /v1/metrics.
func (c *client) metric(name string) (float64, error) {
	var rows []struct {
		Name  string  `json:"name"`
		Count int64   `json:"count"`
		Value float64 `json:"value"`
	}
	if err := c.getJSON("/v1/metrics", &rows); err != nil {
		return 0, err
	}
	for _, r := range rows {
		if r.Name == name {
			return float64(r.Count) + r.Value, nil
		}
	}
	return 0, nil
}

// batch is one pre-encoded request.
type batch struct {
	events []fleet.Event
	body   []byte
	// resp is the raw NDJSON response, kept for verification after the
	// timed window so decoding never competes with the server for CPU.
	resp []byte
	err  error
	lat  time.Duration
	late time.Duration
	done time.Time // when the response was read in full
	shed bool
}

func encodeBatch(events []fleet.Event) *batch {
	body, err := json.Marshal(struct {
		Events []fleet.Event `json:"events"`
	}{events})
	if err != nil {
		panic(err) // fleet.Event always encodes
	}
	return &batch{events: events, body: body}
}

// decodeResults parses a batch's NDJSON response.
func decodeResults(raw []byte) ([]fleet.Result, error) {
	var out []fleet.Result
	for _, line := range bytes.Split(bytes.TrimRight(raw, "\n"), []byte{'\n'}) {
		var r fleet.Result
		if err := json.Unmarshal(line, &r); err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// chipPool returns the pool chips in the seed's order.
func chipPool(seed int64) []int64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]int64, chipPoolSize)
	for i, p := range rng.Perm(chipPoolSize) {
		out[i] = chipPoolBase + int64(p)
	}
	return out
}

func runEvent(chip int64, mode, app string, phase int) fleet.Event {
	ev := fleet.Event{Kind: fleet.KindRun, Class: "bench", Chip: chip, Mode: mode}
	if mode != fleet.ModeBaseline {
		p := phase
		ev.Env, ev.App, ev.Phase = serveEnv, app, &p
	}
	return ev
}

// chipEvents is every serve unit of a chip as run events, in canonical
// order.
func chipEvents(chip int64) []fleet.Event {
	var evs []fleet.Event
	for _, k := range chipUnits(chip) {
		evs = append(evs, runEvent(chip, k.Mode, k.App, k.Phase))
	}
	return evs
}

// sessionEvents is one serve-churn session: join, every unit, leave.
func sessionEvents(chip int64) []fleet.Event {
	evs := []fleet.Event{{Kind: fleet.KindJoin, Class: "bench", Chip: chip}}
	evs = append(evs, chipEvents(chip)...)
	return append(evs, fleet.Event{Kind: fleet.KindLeave, Class: "bench", Chip: chip})
}

// warmTraffic draws n batches of serveBatch run events over the primed
// population's units: 20% baseline probes, 40% static, 40% exh.
func warmTraffic(seed int64, chips []int64, n int) []*batch {
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	type unit struct {
		app   string
		phase int
	}
	var units []unit
	for _, name := range serveApps {
		app, _ := workload.ByName(name)
		for p := range app.Phases {
			units = append(units, unit{name, p})
		}
	}
	out := make([]*batch, n)
	for b := range out {
		evs := make([]fleet.Event, serveBatch)
		for i := range evs {
			chip := chips[rng.Intn(len(chips))]
			u := units[rng.Intn(len(units))]
			mode := fleet.ModeExh
			switch x := rng.Intn(10); {
			case x < 2:
				mode = fleet.ModeBaseline
			case x < 6:
				mode = fleet.ModeStatic
			}
			evs[i] = runEvent(chip, mode, u.app, u.phase)
			evs[i].At = int64(b)
		}
		out[b] = encodeBatch(evs)
	}
	return out
}

// closedLoop sends batches back to back on serveConns connections and
// returns the wall time.
func closedLoop(c *client, batches []*batch, led *ledger) time.Duration {
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < serveConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(batches) {
					return
				}
				b := batches[i]
				start := time.Now()
				b.resp, b.err = c.post(b.body, len(b.events))
				b.done = time.Now()
				b.lat = b.done.Sub(start)
				led.observe("http.batch", b.lat)
			}
		}()
	}
	wg.Wait()
	return time.Since(t0)
}

// closedRates is serve-warm's closed-loop throughput: the batches, in
// completion order, are cut into windows of closedWindow, and the median
// window's events/s and static+exh units/s are returned. Like the tail
// latency, a median over windows keeps a host stall in one window from
// moving the run's figure.
func closedRates(bs []*batch) (eventsPerS, unitsPerS float64) {
	done := append([]*batch(nil), bs...)
	sort.Slice(done, func(i, j int) bool { return done[i].done.Before(done[j].done) })
	prev := done[0].done.Add(-done[0].lat)
	var evs, units []float64
	for w := 0; w+closedWindow <= len(done); w += closedWindow {
		e, u := 0, 0
		for _, b := range done[w : w+closedWindow] {
			e += len(b.events)
			for _, ev := range b.events {
				if ev.Mode != fleet.ModeBaseline {
					u++
				}
			}
		}
		end := done[w+closedWindow-1].done
		secs := end.Sub(prev).Seconds()
		evs = append(evs, float64(e)/secs)
		units = append(units, float64(u)/secs)
		prev = end
	}
	return median(evs), median(units)
}

// openLoop offers batches on a fixed schedule, one due every
// serveBatch/rate seconds, on serveConns senders. Each batch's latency
// runs from when it was due, so a stall is charged to every batch it
// delays; a batch more than maxLate behind schedule is shed.
func openLoop(c *client, batches []*batch, rate float64, led *ledger) {
	interval := time.Duration(float64(time.Second) * serveBatch / rate)
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < serveConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(batches) {
					return
				}
				b := batches[i]
				due := t0.Add(time.Duration(i) * interval)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				start := time.Now()
				b.late = start.Sub(due)
				if b.late > maxLate {
					b.shed = true
					continue
				}
				b.resp, b.err = c.post(b.body, len(b.events))
				b.lat = time.Since(due)
				led.observe("http.batch", time.Since(start))
			}
		}()
	}
	wg.Wait()
}

// served tallies a set of batches after the timed window: it decodes
// every response, checks each result against the table, and counts
// outcomes.
type served struct {
	events, failed, shed, transport int
	adaptive, hits                  int
	sched, total, batched           []float64
	results                         []fleet.Result
}

func (s *served) add(r *run, t unitTable, bs []*batch, keep bool) {
	for _, b := range bs {
		s.events += len(b.events)
		switch {
		case b.shed:
			s.shed += len(b.events)
			continue
		case b.err != nil:
			s.transport += len(b.events)
			r.note("transport failure: %v", b.err)
			continue
		}
		res, err := decodeResults(b.resp)
		if err != nil {
			s.transport += len(b.events)
			r.note("undecodable response: %v", err)
			continue
		}
		for _, x := range res {
			if err := checkResult(t, x); err != nil {
				s.failed++
				r.failf("%v", err)
				continue
			}
			if x.Kind != fleet.KindRun {
				continue
			}
			s.sched = append(s.sched, x.SchedMs)
			s.total = append(s.total, x.TotalMs)
			s.batched = append(s.batched, float64(x.Batched))
			if x.Mode != fleet.ModeBaseline {
				s.adaptive++
				if x.CacheHit {
					s.hits++
				}
			}
		}
		if keep {
			s.results = append(s.results, res...)
		}
		b.resp = nil
	}
}

func (s *served) bad() int { return s.failed + s.shed + s.transport }

func (s *served) hitRatio() float64 {
	if s.adaptive == 0 {
		return 0
	}
	return float64(s.hits) / float64(s.adaptive)
}

// lats collects batch latencies in milliseconds.
func lats(bs []*batch, late bool) []float64 {
	var out []float64
	for _, b := range bs {
		if b.shed || b.err != nil {
			continue
		}
		d := b.lat
		if late {
			d = b.late
		}
		out = append(out, ms(d))
	}
	return out
}

// primeServer joins chips and runs every one of their units once,
// verifying each chip against its golden digest. It returns the verified
// unit table.
func primeServer(r *run, c *client, chips []int64) (unitTable, error) {
	var joins []fleet.Event
	for _, chip := range chips {
		joins = append(joins, fleet.Event{Kind: fleet.KindJoin, Class: "bench", Chip: chip})
	}
	jb := encodeBatch(joins)
	t0 := time.Now()
	if jb.resp, jb.err = c.post(jb.body, len(joins)); jb.err != nil {
		return nil, fmt.Errorf("join: %w", jb.err)
	}
	r.led.observe("fleet.join", time.Since(t0))
	var prime []*batch
	for _, chip := range chips {
		prime = append(prime, encodeBatch(chipEvents(chip)))
	}
	closedLoop(c, prime, nil)
	t := make(unitTable)
	for _, b := range append([]*batch{jb}, prime...) {
		if b.err != nil {
			return nil, fmt.Errorf("prime: %w", b.err)
		}
		res, err := decodeResults(b.resp)
		if err != nil {
			return nil, err
		}
		collect(t, res)
	}
	for _, chip := range chips {
		r.checkf(r.golden.checkChip(t, chip))
	}
	return t, nil
}

// collect adds ok run results to a table.
func collect(t unitTable, res []fleet.Result) {
	for _, x := range res {
		if x.Kind != fleet.KindRun || x.Status != fleet.StatusOK || x.Run == nil {
			continue
		}
		k := unitKey{Chip: x.Chip, Mode: x.Mode, App: x.App, Phase: -1}
		if x.Phase != nil {
			k.Phase = *x.Phase
		}
		t[k] = *x.Run
	}
}

// runServeWarm is the serve-warm workload.
func runServeWarm(r *run) error {
	pool := chipPool(r.seed)
	chips := pool[:servePopulation]
	store, err := freshStore(r.work, "serve-warm-store")
	if err != nil {
		return err
	}
	t0 := time.Now()
	srv, err := startServer(r.evalserve, store, filepath.Join(r.work, "serve-warm.log"))
	if err != nil {
		return err
	}
	defer srv.stop()
	c := newClient(srv.base)
	table, err := primeServer(r, c, chips)
	if err != nil {
		return err
	}
	r.setup = time.Since(t0)

	nOpen := int(r.seconds * openRate / serveBatch)
	nClosed := int(r.seconds * closedBatchesPerSecond)
	traffic := warmTraffic(r.seed, chips, nOpen+nClosed)
	open, closed := traffic[:nOpen], traffic[nOpen:]
	if r.led != nil {
		return traceServeWarm(r, srv, c, table, chips, open, closed)
	}

	selfCPU0 := selfCPU()
	cpu0, err := procCPU(srv.pid())
	if err != nil {
		return err
	}
	openLoop(c, open, openRate, nil)
	closedLoop(c, closed, nil)
	cpu1, err := procCPU(srv.pid())
	if err != nil {
		return err
	}
	clientCPU := selfCPU() - selfCPU0
	rss, err := peakRSSMB(srv.pid())
	if err != nil {
		return err
	}
	if err := srv.stop(); err != nil {
		return fmt.Errorf("evalserve: %w", err)
	}

	var so, sc served
	so.add(r, table, open, false)
	sc.add(r, table, closed, false)
	events := so.events + sc.events
	r.attempted += events
	r.opsDone += events - so.bad() - sc.bad()
	if hr := (float64(so.hits + sc.hits)) / float64(so.adaptive+sc.adaptive); hr != 1 {
		r.failf("serve-warm timed window cache hit ratio %.4f, want 1", hr)
	}
	ol := lats(open, false)
	r.latencies("open-loop batches", ol, openWindow)
	r.note("serve-warm: whole open loop p99 %.3f ms (host-stall sensitive, not a metric); generator late p99 %.3f ms",
		quantile(ol, 0.99), quantile(lats(open, true), 0.99))
	eventsPerS, unitsPerS := closedRates(closed)
	r.e2e("events_per_s", eventsPerS)
	r.e2e("units_per_s", unitsPerS)
	r.e2e("cpu_ms_per_op", ms(cpu1-cpu0)/float64(events))
	r.e2e("peak_rss_mb", rss)
	r.note("serve-warm: %d open-loop batches at %d events/s, %d closed-loop batches; client CPU %.4f ms/event",
		len(open), openRate, len(closed), ms(clientCPU)/float64(events))
	return nil
}

// runServeChurn is the serve-churn workload.
func runServeChurn(r *run) error {
	pool := chipPool(r.seed)
	store, err := freshStore(r.work, "serve-churn-store")
	if err != nil {
		return err
	}
	t0 := time.Now()
	srv, err := startServer(r.evalserve, store, filepath.Join(r.work, "serve-churn.log"))
	if err != nil {
		return err
	}
	defer srv.stop()
	c := newClient(srv.base)
	// One session on a chip the timed sessions never use builds the
	// server's shared phase profiles, so every timed session pays only
	// its own chip's cold work.
	if _, err := primeServer(r, c, pool[:1]); err != nil {
		return err
	}
	r.setup = time.Since(t0)

	n := int(r.seconds * churnSessionsPerSecond)
	if n > chipPoolSize-1 {
		n = chipPoolSize - 1
	}
	sessions := make([]*batch, n)
	for i := range sessions {
		sessions[i] = encodeBatch(sessionEvents(pool[1+i]))
	}
	if r.led != nil {
		return traceServeChurn(r, srv, c, pool, sessions)
	}
	cpu0, err := procCPU(srv.pid())
	if err != nil {
		return err
	}
	wall := closedLoop(c, sessions, nil)
	cpu1, err := procCPU(srv.pid())
	if err != nil {
		return err
	}
	rss, err := peakRSSMB(srv.pid())
	if err != nil {
		return err
	}
	if err := srv.stop(); err != nil {
		return fmt.Errorf("evalserve: %w", err)
	}
	s := checkSessions(r, sessions)
	sl := lats(sessions, false)
	r.latencies("sessions", sl, len(sl))
	r.e2e("events_per_s", float64(s.events)/wall.Seconds())
	r.e2e("units_per_s", float64(s.adaptive)/wall.Seconds())
	r.e2e("cpu_ms_per_op", ms(cpu1-cpu0)/float64(s.events))
	r.e2e("peak_rss_mb", rss)
	return nil
}

// checkSessions verifies every session's units against the chip's golden
// digest and tallies the outcomes.
func checkSessions(r *run, sessions []*batch) *served {
	var s served
	t := make(unitTable)
	for _, b := range sessions {
		if b.err == nil {
			res, err := decodeResults(b.resp)
			if err == nil {
				collect(t, res)
				r.checkf(r.golden.checkChip(t, b.events[0].Chip))
			}
		}
	}
	s.add(r, t, sessions, false)
	r.attempted += s.events
	r.opsDone += s.events - s.bad()
	return &s
}

// traceServeWarm is the serve-warm traced run: the timed window runs
// twice, untraced and then traced, the server's own counters are read
// around the traced half, and the same traffic is replayed on an
// in-process fleet over the server's store to split the batch latency
// into ingest+solve (SubmitBatch), wire encoding (AppendJSON), and the
// HTTP hop.
func traceServeWarm(r *run, srv *server, c *client, table unitTable, chips []int64, open, closed []*batch) error {
	led := r.led
	half := func(bs []*batch) ([]*batch, []*batch) { return bs[:len(bs)/2], bs[len(bs)/2:] }
	o1, o2 := half(open)
	c1, c2 := half(closed)
	selfCPU0 := selfCPU()
	openLoop(c, o1, openRate, nil)
	closedLoop(c, c1, nil)
	flush0, err := c.metric("fleet.emit.flushes")
	if err != nil {
		return err
	}
	wait0, err := c.metric("fleet.ingest.lock_wait_ns")
	if err != nil {
		return err
	}
	openLoop(c, o2, openRate, led)
	closedLoop(c, c2, led)
	flush1, err := c.metric("fleet.emit.flushes")
	if err != nil {
		return err
	}
	wait1, err := c.metric("fleet.ingest.lock_wait_ns")
	if err != nil {
		return err
	}
	clientCPU := selfCPU() - selfCPU0
	var s served
	s.add(r, table, open, false)
	s.add(r, table, closed, true)
	r.attempted += s.events
	r.opsDone += s.events - s.bad()
	if s.hitRatio() != 1 {
		r.failf("serve-warm timed window cache hit ratio %.4f, want 1", s.hitRatio())
	}
	untracedP50 := quantile(lats(o1, false), 0.5)
	r.layer("trace.overhead_frac", quantile(lats(o2, false), 0.5)/untracedP50-1)
	r.layer("gen.late_p99_ms", quantile(lats(open, true), 0.99))
	r.layer("gen.cpu_ms_per_op", ms(clientCPU)/float64(s.events))
	r.layer("http.flushes_per_batch", (flush1-flush0)/float64(len(o2)+len(c2)))
	r.layer("http.lock_wait_ms", (wait1-wait0)/1e6)
	r.fleetLayers(&s)
	r.layer("fleet.join_ms", led.meanMs("fleet.join"))
	if err := srv.stop(); err != nil {
		return err
	}

	submit, err := replayInproc(r, chips, open[:min(len(open), inprocReplayBatches)])
	if err != nil {
		return err
	}
	r.layer("fleet.submit_p50_ms", quantile(submit, 0.5))
	r.layer("fleet.submit_p99_ms", quantile(submit, 0.99))
	r.layer("http.hop_p50_ms", untracedP50-quantile(submit, 0.5))
	r.wireLayers(s.results)
	return nil
}

// fleetLayers reports the fleet's per-result diagnostics.
func (r *run) fleetLayers(s *served) {
	r.layer("fleet.sched_p50_ms", quantile(s.sched, 0.5))
	r.layer("fleet.sched_p99_ms", quantile(s.sched, 0.99))
	r.layer("fleet.total_p50_ms", quantile(s.total, 0.5))
	r.layer("fleet.batched_mean", mean(s.batched))
	r.layer("fleet.cache_hit_ratio", s.hitRatio())
}

// wireLayers times Result.AppendJSON over served results.
func (r *run) wireLayers(res []fleet.Result) {
	if len(res) == 0 {
		return
	}
	buf := make([]byte, 0, 1<<10)
	bytesOut := 0
	const reps = 20
	t0 := time.Now()
	for rep := 0; rep < reps; rep++ {
		for i := range res {
			buf = res[i].AppendJSON(buf[:0])
			bytesOut += len(buf) + 1
		}
	}
	n := float64(reps * len(res))
	r.layer("wire.append_json_us", float64(time.Since(t0))/float64(time.Microsecond)/n)
	r.layer("wire.bytes_per_event", float64(bytesOut)/n)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// inprocReplayBatches bounds the in-process replay of the warm traffic.
const inprocReplayBatches = 600

// replayInproc submits the warm traffic to an in-process fleet over the
// server's (now closed) store, one SubmitBatch at a time, and returns
// each batch's latency in milliseconds.
func replayInproc(r *run, chips []int64, bs []*batch) ([]float64, error) {
	fl, closeFleet, err := newInprocFleet(filepath.Join(r.work, "serve-warm-store"))
	if err != nil {
		return nil, err
	}
	defer closeFleet()
	var joins []fleet.Event
	for _, chip := range chips {
		joins = append(joins, fleet.Event{Kind: fleet.KindJoin, Class: "bench", Chip: chip})
	}
	if err := fl.SubmitBatch(joins, func(fleet.Result) {}); err != nil {
		return nil, err
	}
	out := make([]float64, 0, len(bs))
	for _, b := range bs {
		t0 := time.Now()
		err := r.led.span("fleet.submit", func() error { return fl.SubmitBatch(b.events, func(fleet.Result) {}) })
		if err != nil {
			return nil, err
		}
		out = append(out, ms(time.Since(t0)))
	}
	return out, nil
}

// traceServeChurn is the serve-churn traced run: half the sessions
// untraced, half traced; then the sessions' first chips replayed on an
// in-process fleet as separate join, run and leave batches, and on the
// core fleet engine call by call, each on a fresh simulator and store.
func traceServeChurn(r *run, srv *server, c *client, pool []int64, sessions []*batch) error {
	led := r.led
	h1, h2 := sessions[:len(sessions)/2], sessions[len(sessions)/2:]
	closedLoop(c, h1, nil)
	closedLoop(c, h2, led)
	s := checkSessions(r, sessions)
	r.layer("trace.overhead_frac", quantile(lats(h2, false), 0.5)/quantile(lats(h1, false), 0.5)-1)
	r.fleetLayers(s)
	if err := srv.stop(); err != nil {
		return err
	}
	replay := pool[1 : 1+churnReplaySessions]
	if err := replayChurnFleet(r, pool[0], replay); err != nil {
		return err
	}
	return replayChurnCore(r, pool[0], replay)
}

// churnReplaySessions is how many sessions the traced churn replays.
const churnReplaySessions = 12

// replayChurnFleet replays sessions on an in-process fleet with an empty
// store, timing the join, run and leave batches separately.
func replayChurnFleet(r *run, warm int64, chips []int64) error {
	dir, err := freshStore(r.work, "churn-fleet-replay")
	if err != nil {
		return err
	}
	fl, closeFleet, err := newInprocFleet(dir)
	if err != nil {
		return err
	}
	defer closeFleet()
	discard := func(fleet.Result) {}
	if err := fl.SubmitBatch(sessionEvents(warm), discard); err != nil {
		return err
	}
	for _, chip := range chips {
		evs := sessionEvents(chip)
		steps := []struct {
			name string
			evs  []fleet.Event
		}{{"fleet.join", evs[:1]}, {"fleet.submit", evs[1 : len(evs)-1]}, {"fleet.leave", evs[len(evs)-1:]}}
		for _, st := range steps {
			if err := r.led.span(st.name, func() error { return fl.SubmitBatch(st.evs, discard) }); err != nil {
				return err
			}
		}
	}
	r.layer("fleet.join_ms", r.led.meanMs("fleet.join"))
	r.layer("fleet.leave_ms", r.led.meanMs("fleet.leave"))
	return nil
}

// replayChurnCore replays sessions on the core fleet engine — Chip,
// AcquireChip, HandleCore, HandleStaticPoint, UnitAppRun, ReleaseChip —
// on a fresh simulator and empty store, checking each chip's units
// against its golden digest.
func replayChurnCore(r *run, warm int64, chips []int64) error {
	dir, err := freshStore(r.work, "churn-core-replay")
	if err != nil {
		return err
	}
	sim, closeSim, err := newServeSim(dir)
	if err != nil {
		return err
	}
	defer closeSim()
	if _, err := replayChip(sim, nil, warm); err != nil {
		return err
	}
	for _, chip := range chips {
		r.led.span("varius.chip", func() error { sim.Chip(chip); return nil })
		t, err := replayChip(sim, r.led, chip)
		if err != nil {
			return err
		}
		r.checkf(r.golden.checkChip(t, chip))
	}
	led := r.led
	r.layer("varius.chip_ms", led.meanMs("varius.chip"))
	r.layer("core.acquire_chip_ms", led.meanMs("core.acquire_chip"))
	r.layer("core.handle_core_ms", led.meanMs("core.handle_core"))
	r.layer("adapt.static_point_ms", led.meanMs("adapt.static_point"))
	r.layer("core.unit_app_run_ms", led.meanMs("core.unit_app_run"))
	r.layer("core.release_chip_ms", led.meanMs("core.release_chip"))
	r.artifactLayers(sim.Obs(), float64(len(chips)+1))
	return nil
}

// newServeSim builds a simulator configured as evalserve's default flags
// configure it, over a store at dir with an obs registry attached.
func newServeSim(dir string) (*core.Simulator, func(), error) {
	reg := obs.NewRegistry()
	store, err := artifact.Open(dir, artifact.Options{Obs: reg})
	if err != nil {
		return nil, nil, err
	}
	sim, err := core.NewSimulator(core.DefaultOptions())
	if err != nil {
		store.Close()
		return nil, nil, err
	}
	sim.SetObs(reg)
	sim.SetArtifacts(store)
	return sim, store.Close, nil
}

// newInprocFleet starts an in-process fleet configured as evalserve's
// default flags configure it, over the store at dir.
func newInprocFleet(dir string) (*fleet.Fleet, func(), error) {
	sim, closeSim, err := newServeSim(dir)
	if err != nil {
		return nil, nil, err
	}
	cfg := fleet.Config{Obs: sim.Obs()}
	cfg.Training.Examples = evalserveExamples
	fl, err := fleet.New(sim, cfg)
	if err != nil {
		closeSim()
		return nil, nil, err
	}
	return fl, func() { fl.Close(); closeSim() }, nil
}

// evalserveExamples is evalserve's default -examples.
const evalserveExamples = 1500
