package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"rex/internal/event"
	"rex/internal/journal"
)

// defaultRounds is how many fresh rexd processes one run takes through
// its workload. Every metric is a median over, or pooled from, the
// rounds: set-up and recovery happen once per process, so this is also
// how a run gets several samples of them.
const defaultRounds = 3

// timedRestarts is how many cold starts a live round times on the
// journal it wrote, after one untimed start right after the crash.
const timedRestarts = 2

// env is what every round needs: where rexd is and where scratch files
// may go (inside the checkout).
type env struct {
	root   string
	rexd   string
	tmp    string
	rounds int
	traced bool // pass -metrics-addr and scrape it
}

func newEnv() (*env, error) {
	root, err := repoRoot()
	if err != nil {
		return nil, err
	}
	bin, err := buildRexd(root)
	if err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(filepath.Join(root, ".bench_build"), "run-")
	if err != nil {
		return nil, err
	}
	return &env{root: root, rexd: bin, tmp: tmp, rounds: defaultRounds}, nil
}

// roundResult is what one round measured. ops is the workload's unit of
// work (see README: events visible, events accepted, requests answered,
// records replayed) over timedS seconds of the timed phase.
type roundResult struct {
	setupS       float64
	recoverS     []float64 // timed cold starts; the run's recover_s is the median over all rounds'
	crashStartS  float64   // live rounds: the untimed first start after the SIGKILL
	cpuS, rssMiB float64
	timedS       float64
	ops          float64
	opsPerS      float64   // 0: derive from ops/timedS
	latMs        []float64 // the workload's latency samples
	late         []time.Duration
	genCPUS      float64
	attempted    int
	failed       int
	swapped      int // bodies of the wrong kind from the known cache-key collision
	problems     []string
	daemon       map[string]float64 // traced rounds: /metrics.json deltas
}

// workload describes one of the four traffic mixes. A round's timed
// phase lasts about timedS seconds; events and over size its input.
type workload struct {
	name  string
	table string
	// events is how many events one round needs.
	events func(timedS float64) int
	// over is the event-time span sim spreads those events across: the
	// timed phase's own length on the live workloads (rexd stamps
	// arrivals with its own clock; the ladder's pipeline pass ticks on
	// these), the journal's hour on replay.
	over  func(timedS float64) time.Duration
	round func(env *env, in *input, timed time.Duration) (*roundResult, error)
}

func timedSpan(timedS float64) time.Duration { return time.Duration(timedS * float64(time.Second)) }

var workloads = []workload{
	{name: "steady", table: "berkeley", round: steadyRound, over: timedSpan,
		events: func(s float64) int { return int(steadyRate * s) }},
	{name: "storm", table: "isp", round: stormRound,
		over:   func(s float64) time.Duration { return stormPeriod(s) },
		events: func(s float64) int { return int(stormEventsPerSecond*s) / stormChunk * stormChunk }},
	{name: "readers", table: "berkeley", round: readersRound, over: timedSpan,
		events: func(s float64) int { return int(readersRate * s) }},
	{name: "replay", table: "berkeley", round: replayRound,
		over:   func(float64) time.Duration { return time.Hour },
		events: func(s float64) int { return int(replayEventsPerSecond * s) }},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// ---- live rounds: a fresh rexd fed over BGP ----

// liveRound is one fresh rexd taken through set-up (spawn, handshake,
// table load, table visible) and left ready for a timed phase.
type liveRound struct {
	env    *env
	in     *input
	d      *daemon
	s      *session
	w      *watcher
	dir    string
	snap   time.Duration
	res    *roundResult
	before map[string]float64
	closer []func()

	// The timed phase's start, set by begin.
	t0         time.Time
	cpu0, gen0 float64
}

// begin marks the start of the timed phase: from here rexd's CPU, the
// generator's CPU and the wall clock are charged to the workload.
func (r *liveRound) begin() {
	r.cpu0, _ = r.d.cpuSeconds()
	r.gen0, _ = procCPUSeconds(os.Getpid())
	r.t0 = time.Now()
}

func (r *liveRound) close() {
	for i := len(r.closer) - 1; i >= 0; i-- {
		r.closer[i]()
	}
}

// startLive spawns rexd on an empty journal directory, establishes the
// session, starts the reader connection, loads the table and waits for
// a snapshot that counts it. setup_s covers all of that.
func startLive(env *env, in *input, snapEvery time.Duration, reader func(d *daemon) (*watcher, func(), error)) (*liveRound, error) {
	t0 := time.Now()
	r := &liveRound{env: env, in: in, snap: snapEvery, res: &roundResult{}}
	var err error
	if r.dir, err = os.MkdirTemp(env.tmp, "journal-"); err != nil {
		return nil, err
	}
	r.closer = append(r.closer, func() { os.RemoveAll(r.dir) })
	if r.d, err = startDaemon(env.rexd, r.dir, snapEvery, env.traced); err != nil {
		r.close()
		return nil, err
	}
	r.closer = append(r.closer, func() { r.d.kill() })
	conn, _, err := r.d.awaitListening(20 * time.Second)
	if err != nil {
		r.close()
		return nil, err
	}
	r.closer = append(r.closer, func() { conn.Close() })
	if r.s, err = openSession(conn, in.peer); err != nil {
		r.close()
		return nil, err
	}
	w, closeReader, err := reader(r.d)
	if err != nil {
		r.close()
		return nil, err
	}
	r.w = w
	r.closer = append(r.closer, closeReader)
	if err := r.s.write(in.baseline.buf, in.baseline.n(), time.Now()); err != nil {
		r.close()
		return nil, err
	}
	if _, err := awaitCount(r.s, in.sentinel, w, in.baseline.n(), false, sentinelGap, 30*time.Second); err != nil {
		r.close()
		return nil, fmt.Errorf("table never visible: %w", err)
	}
	r.res.setupS = time.Since(t0).Seconds()
	if env.traced {
		r.before = scrapeMetrics(r.d.metrics)
	}
	return r, nil
}

// finish runs the checks every live workload shares once its timed
// phase has written n of the input's events: wait until a snapshot
// counts exactly what was sent (nothing lost, nothing duplicated),
// compare the picture's prefix total with the generator's own, read the
// process counters, then SIGKILL rexd and time cold starts on the
// journal it just wrote. The start that directly follows the crash warms
// up and is not timed: on a two-core host it runs its first second or
// more on one core on a third to two thirds of rounds (same CPU time, up to twice the
// wall time; see README), and the starts after it do not.
func (r *liveRound) finish(n int) error {
	res := r.res
	// A third of a snapshot period between sentinels leaves the
	// snapshot a tick computes time to arrive before the next one is
	// sent, even over storm's half-million-event window.
	if _, err := awaitCount(r.s, r.in.sentinel, r.w, r.s.sent(), true, max(sentinelGap, r.snap/3), 60*time.Second); err != nil {
		res.problems = append(res.problems, "events: "+err.Error())
	}
	res.timedS = time.Since(r.t0).Seconds()
	cpu1, err := r.d.cpuSeconds()
	if err != nil {
		return err
	}
	res.cpuS = cpu1 - r.cpu0
	gen1, _ := procCPUSeconds(os.Getpid())
	res.genCPUS = gen1 - r.gen0
	if res.rssMiB, err = r.d.rssPeakMiB(); err != nil {
		return err
	}
	if r.env.traced {
		res.daemon = metricDeltas(r.before, scrapeMetrics(r.d.metrics))
	}
	// The last snapshot's picture, over a connection of its own (the
	// timed phase is over). /api/picture.json may answer with the
	// snapshot document instead — the cache-key collision — so accept
	// the total from either shape.
	if h, err := dialHTTP(r.d.http); err != nil {
		res.problems = append(res.problems, "picture: "+err.Error())
	} else {
		_, _, body, err := h.get("/api/picture.json", "")
		h.conn.Close()
		var doc struct {
			Total   *int `json:"total"`
			Picture *struct {
				Total int `json:"total"`
			} `json:"picture"`
		}
		total := -1
		if err == nil && json.Unmarshal(body, &doc) == nil {
			if doc.Picture != nil {
				total = doc.Picture.Total
			} else if doc.Total != nil {
				total = *doc.Total
			}
		}
		if want := int(r.in.announced[n]); total != want {
			res.problems = append(res.problems, fmt.Sprintf("picture.total is %d, the generator left %d prefixes announced", total, want))
		}
	}
	// Crash, then cold starts on the same journal, each ended by SIGKILL
	// so that the next finds what this one found.
	r.d.kill()
	for i := 0; i <= timedRestarts; i++ {
		took, err := coldStart(r.env.rexd, r.dir, r.snap)
		if err != nil {
			return fmt.Errorf("restart: %w", err)
		}
		if i == 0 {
			res.crashStartS = took
		} else {
			res.recoverS = append(res.recoverS, took)
		}
	}
	return nil
}

// coldStart execs rexd on an existing journal directory, waits until its
// BGP port accepts a connect, kills it, and returns the seconds from exec
// to accept.
func coldStart(rexd, dir string, snapEvery time.Duration) (float64, error) {
	d, err := startDaemon(rexd, dir, snapEvery, false)
	if err != nil {
		return 0, err
	}
	conn, took, err := d.awaitListening(60 * time.Second)
	if err == nil {
		conn.Close()
	}
	d.kill()
	return took.Seconds(), err
}

func sseReader(d *daemon) (*watcher, func(), error) {
	w, conn, err := subscribeSSE(d.http)
	if err != nil {
		return nil, nil, err
	}
	return w, func() { conn.Close(); <-w.done }, nil
}

// visibility turns the snapshots seen during a round into latency
// samples: a snapshot counting g events makes the g-th event visible,
// and the sample is arrival minus that event's send-side time. One
// sample per snapshot, for the events (lo, hi].
func visibility(s *session, log []seen, lo, hi int) []float64 {
	var out []float64
	for _, sn := range log {
		if sn.events <= lo || sn.events > hi {
			continue
		}
		if due, ok := s.dueOf(sn.events); ok {
			out = append(out, sn.at.Sub(due).Seconds()*1e3)
		}
	}
	return out
}

// ---- steady ----

const steadyRate = 2000 // events/s, open loop

func steadyRound(env *env, in *input, timed time.Duration) (*roundResult, error) {
	r, err := startLive(env, in, 250*time.Millisecond, sseReader)
	if err != nil {
		return nil, err
	}
	defer r.close()
	n := in.events.n()
	base := r.s.sent()
	r.begin()
	late, err := paceOpenLoop(r.s, in, n, steadyRate)
	if err != nil {
		return nil, err
	}
	if err := r.finish(n); err != nil {
		return nil, err
	}
	log := r.w.all()
	res := r.res
	res.late = late
	res.latMs = visibility(r.s, log, base, base+n)
	// Throughput is the rate at which events became visible between
	// the first and the last snapshot of the timed phase.
	var first, last *seen
	for i := range log {
		if log[i].events > base && log[i].events <= base+n {
			if first == nil {
				first = &log[i]
			}
			last = &log[i]
		}
	}
	if first != nil && last.at.After(first.at) {
		res.opsPerS = float64(last.events-first.events) / last.at.Sub(first.at).Seconds()
	}
	res.ops = float64(n)
	res.attempted = n
	return res, nil
}

// paceOpenLoop writes in.events[0:n] at rate events/s on an open-loop
// schedule: event k is due at t0 + k/rate whether or not rexd keeps up,
// and is stamped with that time. It returns how late the first event of
// each wake-up went out.
func paceOpenLoop(s *session, in *input, n int, rate float64) (late []time.Duration, err error) {
	t0 := time.Now()
	gap := time.Duration(float64(time.Second) / rate)
	dueAt := func(k int) time.Time { return t0.Add(time.Duration(k) * gap) }
	for i := 0; i < n; {
		if d := time.Until(dueAt(i)); d > 0 {
			time.Sleep(d)
		}
		now := time.Now()
		late = append(late, now.Sub(dueAt(i)))
		j := i + 1
		for j < n && !dueAt(j).After(now) {
			j++
		}
		if _, err := s.conn.Write(in.events.span(i, j)); err != nil {
			return late, fmt.Errorf("bgp write: %w", err)
		}
		for k := i; k < j; k++ {
			s.cum = append(s.cum, s.sent()+1)
			s.at = append(s.at, dueAt(k))
		}
		i = j
	}
	return late, nil
}

// ---- storm ----

const (
	// stormEventsPerSecond sizes the flood: 540 000 events at the
	// recorded six seconds per round, which rexd on the recording host
	// accepts in about two.
	stormEventsPerSecond = 90_000
	// stormWarmEvents are written before the accept rate is measured:
	// by then the socket buffers, the intake queue (4096) and the
	// pipeline queue (1024 batches of up to 256) are full, so write
	// progress is drain progress.
	stormWarmEvents = 300_000
	stormChunk      = 1000   // events per write
	stormOp         = 10_000 // events per latency sample
)

// stormPeriod is storm's -snapshot-every: half a round's timed phase.
// The flood starts just after the tick that showed the table and, at
// two thirds of a period long on the recording host, is over and
// drained before the next, which then shows all of it.
func stormPeriod(timedS float64) time.Duration {
	return max(timedSpan(timedS/2), 500*time.Millisecond)
}

// stormRound floods rexd closed-loop with the whole input, starting
// just after the tick that made the table visible, so that no snapshot
// falls inside the flood unless rexd needs more than a snapshot period
// to accept it.
func stormRound(env *env, in *input, timed time.Duration) (*roundResult, error) {
	r, err := startLive(env, in, stormPeriod(timed.Seconds()), sseReader)
	if err != nil {
		return nil, err
	}
	defer r.close()
	r.begin()
	var done []time.Time // done[k]: the k-th chunk was accepted
	n := 0
	for ; n+stormChunk <= in.events.n(); n += stormChunk {
		if err := r.s.write(in.events.span(n, n+stormChunk), stormChunk, time.Now()); err != nil {
			return nil, err
		}
		done = append(done, time.Now())
	}
	if err := r.finish(n); err != nil {
		return nil, err
	}
	res := r.res
	// Accept rate and per-op latency over the writes after warm-up.
	warm := stormWarmEvents / stormChunk
	if warm > len(done)/2 {
		warm = len(done) / 2 // small runs (the smoke test) have no steady state; measure what there is
	}
	if last := len(done) - 1; last > warm {
		res.opsPerS = float64((last-warm)*stormChunk) / done[last].Sub(done[warm]).Seconds()
	}
	const per = stormOp / stormChunk
	for k := warm; k+per < len(done); k += per {
		res.latMs = append(res.latMs, done[k+per].Sub(done[k]).Seconds()*1e3)
	}
	res.ops = float64(n)
	res.attempted = n
	return res, nil
}

// ---- readers ----

const readersRate = 200 // events/s trickle, open loop

// rotation is the readers' request mix, ten requests per turn.
var rotation = []struct {
	path        string
	conditional bool
	kind        string
}{
	{"/api/snapshot", true, "snapshot"},
	{"/api/snapshot", false, "snapshot"},
	{"/api/snapshot", true, "snapshot"},
	{"/api/components", false, "components"},
	{"/api/picture.svg", false, "svg"},
	{"/api/snapshot", true, "snapshot"},
	{"/api/picture.dot", false, "dot"},
	{"/api/picture.svg", false, "svg"},
	{"/api/snapshot", true, "snapshot"},
	{"/api/picture.json", false, "picture"},
}

// bodyKind classifies a 200 body by what only that kind of document
// contains. Substring tests, not a parse: the bodies are ~300 KiB and
// the generator must stay cheap.
func bodyKind(b []byte) string {
	has := func(key string) bool { return bytes.Contains(b, []byte(`"`+key+`"`)) }
	switch {
	case bytes.HasPrefix(b, []byte("<svg")):
		return "svg"
	case bytes.HasPrefix(b, []byte("digraph")):
		return "dot"
	case has("seq") && has("events") && has("components") && has("picture"):
		return "snapshot"
	case has("seq") && has("components"):
		return "components"
	case has("nodes") && has("edges") && !has("components"):
		return "picture"
	}
	return "unknown"
}

// eventsOf reads the top-level "events" count of a snapshot document:
// its first occurrence, which precedes the components.
func eventsOf(b []byte) (int, bool) {
	i := bytes.Index(b, []byte(`"events":`))
	if i < 0 {
		return 0, false
	}
	b = bytes.TrimLeft(b[i+len(`"events":`):], " ")
	j := 0
	for j < len(b) && b[j] >= '0' && b[j] <= '9' {
		j++
	}
	n, err := strconv.Atoi(string(b[:j]))
	return n, err == nil
}

// poller is the readers' one keep-alive connection. Idle, it polls
// /api/snapshot conditionally every few milliseconds so the writer can
// wait on visibility; hot, it runs the rotation closed-loop with no
// think time and records every request.
type poller struct {
	h    *httpConn
	w    *watcher
	hot  atomic.Bool
	etag string

	latMs    []float64
	failed   int
	swapped  int
	firstErr string
}

func (p *poller) run() {
	defer close(p.w.done)
	for i := 0; ; i++ {
		hot := p.hot.Load()
		req := rotation[0]
		if hot {
			req = rotation[i%len(rotation)]
		}
		inm := ""
		if req.conditional {
			inm = p.etag
		}
		t0 := time.Now()
		status, hdr, body, err := p.h.get(req.path, inm)
		now := time.Now()
		if err != nil {
			return // connection closed: the round is over
		}
		if req.kind == "snapshot" && status == http.StatusOK {
			p.etag = hdr.Get("ETag")
			if n, ok := eventsOf(body); ok && bodyKind(body) == "snapshot" {
				p.w.add(seen{events: n, at: now})
			}
		}
		if !hot {
			time.Sleep(5 * time.Millisecond)
			continue
		}
		p.latMs = append(p.latMs, now.Sub(t0).Seconds()*1e3)
		switch {
		case status == http.StatusNotModified && inm != "":
		case status != http.StatusOK:
			p.fail(fmt.Sprintf("%s: status %d", req.path, status))
		default:
			got := bodyKind(body)
			if got == req.kind {
				break
			}
			// The known defect: /api/snapshot and /api/picture.json share
			// a render-cache key, so whichever is asked second at a seq
			// gets the other's document. Counted apart from failures.
			if (req.kind == "snapshot" && got == "picture") || (req.kind == "picture" && got == "snapshot") {
				p.swapped++
			} else {
				p.fail(fmt.Sprintf("%s: body is %s, want %s", req.path, got, req.kind))
			}
		}
	}
}

func (p *poller) fail(msg string) {
	p.failed++
	if p.firstErr == "" {
		p.firstErr = msg
	}
}

func readersRound(env *env, in *input, timed time.Duration) (*roundResult, error) {
	var p *poller
	r, err := startLive(env, in, 500*time.Millisecond, func(d *daemon) (*watcher, func(), error) {
		h, err := dialHTTP(d.http)
		if err != nil {
			return nil, nil, err
		}
		p = &poller{h: h, w: newWatcher()}
		go p.run()
		return p.w, func() { h.conn.Close(); <-p.w.done }, nil
	})
	if err != nil {
		return nil, err
	}
	defer r.close()
	n := in.events.n()
	r.begin()
	p.hot.Store(true)
	late, err := paceOpenLoop(r.s, in, n, readersRate)
	p.hot.Store(false)
	hotS := time.Since(r.t0).Seconds()
	if err != nil {
		return nil, err
	}
	if err := r.finish(n); err != nil {
		return nil, err
	}
	// The poller goroutine is idle-polling now; close its connection
	// before reading what it recorded.
	r.close()
	r.closer = nil
	res := r.res
	res.late = late
	res.latMs = p.latMs
	res.ops = float64(len(p.latMs))
	res.opsPerS = res.ops / hotS
	res.attempted = len(p.latMs)
	res.failed = p.failed
	res.swapped = p.swapped
	if p.firstErr != "" {
		res.problems = append(res.problems, "first failed request: "+p.firstErr)
	}
	return res, nil
}

// ---- replay ----

const (
	// replayEventsPerSecond sizes the journal: 300 000 events over one
	// hour of event time at the recorded six seconds per round.
	replayEventsPerSecond = 300_000 / 6.0
	replayWindow          = 15 * time.Minute // rexd's default -window
)

// replayRound writes a journal in-process (set-up), cold-starts rexd on
// it (recovery, no checkpoint to start from), and asks for the state at
// a fixed series of instants, each a cache miss that replays the
// journal from its origin.
func replayRound(env *env, in *input, timed time.Duration) (*roundResult, error) {
	res := &roundResult{}
	t0 := time.Now()
	dir, err := os.MkdirTemp(env.tmp, "journal-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	jw, err := journal.Open(dir, journal.Options{Fsync: journal.FsyncNever})
	if err != nil {
		return nil, err
	}
	for _, s := range []event.Stream{in.baseEvents, in.evs} {
		for i := range s {
			if _, err := jw.Append(&s[i]); err != nil {
				jw.Close()
				return nil, err
			}
		}
	}
	if err := jw.Close(); err != nil {
		return nil, err
	}
	res.setupS = time.Since(t0).Seconds()

	d, err := startDaemon(env.rexd, dir, 5*time.Minute, env.traced)
	if err != nil {
		return nil, err
	}
	defer d.kill()
	conn, took, err := d.awaitListening(120 * time.Second)
	if err != nil {
		return nil, err
	}
	conn.Close()
	res.recoverS = []float64{took.Seconds()}
	var before map[string]float64
	if env.traced {
		before = scrapeMetrics(d.metrics)
	}

	h, err := dialHTTP(d.http)
	if err != nil {
		return nil, err
	}
	defer h.conn.Close()
	cpu0, _ := d.cpuSeconds()
	tq := time.Now()
	// One instant per second of timed phase, spread evenly over the
	// part of the hour where the window is full and sliding.
	for _, t := range replayInstants(in, timed) {
		t1 := time.Now()
		status, hdr, body, err := h.get("/api/at?t="+t.Format(time.RFC3339Nano), "")
		lat := time.Since(t1)
		if err != nil {
			return nil, fmt.Errorf("/api/at: %w", err)
		}
		res.attempted++
		res.latMs = append(res.latMs, lat.Seconds()*1e3)
		recs, _ := strconv.Atoi(hdr.Get("X-Rex-Replay-Records"))
		res.ops += float64(recs)
		var doc struct {
			Events *int `json:"events"`
		}
		want := in.windowCount(t, replayWindow)
		switch {
		case status != http.StatusOK:
			res.failed++
			res.problems = append(res.problems, fmt.Sprintf("/api/at?t=%s: status %d", t.Format(time.RFC3339), status))
		case json.Unmarshal(body, &doc) != nil || doc.Events == nil || *doc.Events != want:
			res.failed++
			res.problems = append(res.problems, fmt.Sprintf("/api/at?t=%s: events %v, the journal holds %d in the window", t.Format(time.RFC3339), doc.Events, want))
		}
	}
	res.timedS = time.Since(tq).Seconds()
	res.opsPerS = res.ops / (sum(res.latMs) / 1e3)
	cpu1, err := d.cpuSeconds()
	if err != nil {
		return nil, err
	}
	res.cpuS = cpu1 - cpu0
	if res.rssMiB, err = d.rssPeakMiB(); err != nil {
		return nil, err
	}
	if env.traced {
		res.daemon = metricDeltas(before, scrapeMetrics(d.metrics))
	}
	return res, nil
}

// windowCount is the generator's own answer to "how many events does
// the window hold at t": rexd's event-time clock stands at the newest
// event not after t, and the window keeps events no older than the
// clock minus the window length.
func (in *input) windowCount(t time.Time, window time.Duration) int {
	if in.times == nil {
		for _, s := range []event.Stream{in.baseEvents, in.evs} {
			for i := range s {
				in.times = append(in.times, s[i].Time.UnixNano())
			}
		}
	}
	hi := sort.Search(len(in.times), func(i int) bool { return in.times[i] > t.UnixNano() })
	if hi == 0 {
		return 0
	}
	cutoff := in.times[hi-1] - int64(window)
	lo := sort.Search(hi, func(i int) bool { return in.times[i] >= cutoff })
	return hi - lo
}
