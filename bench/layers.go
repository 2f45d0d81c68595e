package main

// The per-layer ladder: the workload's own input walked through each
// package's public functions in-process, a span around each batch's
// calls into each layer. This file is the only place the bench calls
// rexd's internals directly, and it keeps to the calls the roadmap's
// "one core" refactor retains: bgp.ReadMessage, rib.AdjRibIn
// Update/Withdraw, event.AppendRecord/ParseRecord, journal.Writer
// Append and journal.Scan, stemming.Window Add/EvictBefore/Snapshot,
// tamp.Graph AddRoute/ReplaceRoute/RemoveRoute and tamp.MergeSnapshot,
// viz.SVG/DOT/JSON, serve.Server Publish/Handler, collector Serve,
// pipeline New/IngestBatch/Close/Snapshots and Intake Offer, relay
// Feed/Receiver.

import (
	"bytes"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"rex/internal/bgp"
	"rex/internal/collector"
	"rex/internal/core/pipeline"
	"rex/internal/core/stemming"
	"rex/internal/core/tamp"
	"rex/internal/event"
	"rex/internal/journal"
	"rex/internal/relay"
	"rex/internal/rib"
	"rex/internal/serve"
	"rex/internal/viz"
)

const (
	ladderBatch = 256 // events per batch: the intake's own hand-off size
	// sideEvents bounds the passes that exist for one number each (the
	// other fsync policies, the relay hop).
	sideEvents = 50_000
	site       = "site" // rexd's default -site
	shards     = 16     // pipeline.DefaultShards
)

// ladder is the analysis state the bench keeps for itself, mirroring
// what rexd's collector and pipeline keep.
type ladder struct {
	t      *tracer
	in     *input
	adj    *rib.AdjRibIn
	jw     *journal.Writer
	win    *stemming.Window
	graphs []*tamp.Graph
	shadow []map[netip.Prefix]tamp.RouteEntry
	router string
	evict  bool
	clock  time.Time

	recBuf   []byte
	recBytes int
	evicted  int

	api     *serve.Server
	handler http.Handler
	sse     *watcher
	pubSeq  int

	snaps                              int
	stemMs, tampMs, svgMs, dotMs, jsMs float64
	pubMs, sseMs, missMs, hitUs, nmUs  float64
	svgBytes, jsonBytes                int
	last                               pipeline.Snapshot
}

// snapshotEvery is how many events pass between a workload's snapshot
// ticks; 0 means one snapshot, at the end.
func snapshotEvery(w *workload) int {
	switch w.name {
	case "steady":
		return steadyRate / 4 // -snapshot-every 250ms
	case "readers":
		return readersRate / 2 // 500ms
	}
	return 0
}

// runLadder walks n events of the input through the layers and fills m
// with the per-layer metrics. It returns n.
func runLadder(t *tracer, w *workload, in *input, timed time.Duration, dir string, m map[string]float64) (int, error) {
	n := in.events.n()
	jdir := filepath.Join(dir, "journal")
	jw, err := journal.Open(jdir, journal.Options{})
	if err != nil {
		return 0, err
	}
	defer jw.Close()
	sdir := filepath.Join(dir, "serve")
	if err := os.MkdirAll(sdir, 0o755); err != nil {
		return 0, err
	}
	l := &ladder{
		t: t, in: in, jw: jw,
		adj:    rib.NewAdjRibIn(in.peer),
		win:    stemming.NewWindow(stemming.Config{}, shards),
		router: in.peer.String(),
		evict:  w.name == "replay",
		api:    serve.New(serve.Config{Dir: sdir}),
	}
	for i := 0; i < shards; i++ {
		l.graphs = append(l.graphs, tamp.New(site))
		l.shadow = append(l.shadow, map[netip.Prefix]tamp.RouteEntry{})
	}
	defer l.api.Close()
	l.handler = l.api.Handler()
	ts := httptest.NewServer(l.handler)
	defer ts.Close()
	sse, conn, err := subscribeSSE(ts.Listener.Addr().String())
	if err != nil {
		return 0, err
	}
	defer conn.Close()
	l.sse = sse

	// The table first, as batches numbered below zero: the same calls,
	// kept out of the per-event numbers.
	for i, b := 0, -1; i < in.baseline.n(); i, b = i+ladderBatch, b-1 {
		j := min(i+ladderBatch, in.baseline.n())
		if err := l.batch(b, in.baseline.span(i, j), in.baseEvents[i:j]); err != nil {
			return 0, err
		}
	}
	// Snapshot points: every tick's worth of events on the paced
	// workloads, the query instants on replay, the end otherwise.
	every := snapshotEvery(w)
	var instants []time.Time
	if w.name == "replay" {
		instants = replayInstants(in, timed)
	}
	for i, b := 0, 0; i < n; b++ {
		j := min(i+ladderBatch, n)
		if every > 0 { // a batch ends where a tick falls
			j = min(j, (i/every+1)*every)
		}
		if err := l.batch(b, in.events.span(i, j), in.evs[i:j]); err != nil {
			return 0, err
		}
		due := every > 0 && j%every == 0
		for len(instants) > 0 && (j == n || in.evs[j].Time.After(instants[0])) {
			instants, due = instants[1:], true
		}
		if due || (j == n && l.snaps == 0) {
			if err := l.snapshot(b); err != nil {
				return 0, err
			}
		}
		i = j
	}
	if err := jw.Close(); err != nil {
		return 0, err
	}

	per := func(name string) float64 { // ns per call over the event batches
		var ns int64
		var calls int
		for _, s := range t.spans {
			if s.Name == name && s.Batch >= 0 {
				ns += s.End - s.Start
				calls += s.Calls
			}
		}
		if calls == 0 {
			return absent
		}
		return float64(ns) / float64(calls)
	}
	m["bgp.decode_ns_per_update"] = per("bgp.decode")
	m["bgp.wire_bytes_per_event"] = float64(in.events.off[n]) / float64(n)
	m["rib.update_ns_per_event"] = per("rib.update")
	m["event.encode_ns_per_event"] = per("event.encode")
	m["event.record_bytes_per_event"] = float64(l.recBytes) / float64(n+in.baseline.n())
	m["journal.append_ns_per_event"] = per("journal.append")
	m["stemming.add_ns_per_event"] = per("stemming.add")
	if l.evicted > 0 {
		m["stemming.evict_ns_per_event"] = per("stemming.evict")
	}
	m["tamp.apply_ns_per_event"] = per("tamp.apply")
	k := float64(l.snaps)
	m["stemming.snapshot_ms"], m["tamp.snapshot_ms"] = l.stemMs/k, l.tampMs/k
	m["stemming.window_events"], m["stemming.components"] = float64(l.last.Events), float64(len(l.last.Components))
	m["tamp.nodes"], m["tamp.edges"] = float64(len(l.last.Picture.Nodes)), float64(len(l.last.Picture.Edges))
	m["viz.svg_ms"], m["viz.dot_ms"], m["viz.json_ms"] = l.svgMs/k, l.dotMs/k, l.jsMs/k
	m["viz.svg_bytes"], m["viz.json_bytes"] = float64(l.svgBytes), float64(l.jsonBytes)
	m["serve.publish_ms"], m["serve.sse_deliver_ms"] = l.pubMs/k, l.sseMs/k
	m["serve.get_miss_ms"], m["serve.get_hit_us"], m["serve.get_304_us"] = l.missMs/k, l.hitUs/k, l.nmUs/k

	if err := journalSide(in, n, jdir, dir, m); err != nil {
		return 0, err
	}
	decodeAllocs(in, n, m)
	if err := relaySide(in, dir, m); err != nil {
		return 0, err
	}
	if err := collectorWhole(in, n, m); err != nil {
		return 0, err
	}
	pipelineWhole(w, in, n, timed, (l.stemMs+l.tampMs)*1e6, m)
	return n, nil
}

// batch walks one batch through the ingest layers, in rexd's order:
// wire decode, Adj-RIB-In (which is where a withdrawal gets the
// attributes it withdraws), record encode, journal append, window add
// (and evict), TAMP apply through the RIB shadow.
func (l *ladder) batch(b int, wireBytes []byte, want event.Stream) error {
	t := l.t
	root := t.begin("batch", -1, b)
	n := len(want)

	sp := t.begin("bgp.decode", root, b)
	ups := make([]*bgp.Update, 0, n)
	rd := bytes.NewReader(wireBytes)
	for rd.Len() > 0 {
		msg, err := bgp.ReadMessage(rd, true)
		if err != nil {
			return err
		}
		ups = append(ups, msg.(*bgp.Update))
	}
	t.end(sp, len(ups))
	if len(ups) != n {
		return fmt.Errorf("batch %d: decoded %d updates, generated %d", b, len(ups), n)
	}

	sp = t.begin("rib.update", root, b)
	evs := make([]event.Event, n)
	for i, u := range ups {
		e := event.Event{Time: want[i].Time, Peer: l.in.peer}
		if len(u.Withdrawn) == 1 {
			e.Type, e.Prefix = event.Withdraw, u.Withdrawn[0]
			if old := l.adj.Withdraw(e.Prefix); old != nil {
				e.Attrs = old.Attrs
			}
		} else {
			e.Type, e.Prefix, e.Attrs = event.Announce, u.NLRI[0], u.Attrs
			l.adj.Update(e.Prefix, u.Attrs, false, l.in.peer, e.Time)
		}
		evs[i] = e
	}
	t.end(sp, n)

	sp = t.begin("event.encode", root, b)
	for i := range evs {
		var err error
		if l.recBuf, err = event.AppendRecord(l.recBuf[:0], &evs[i]); err != nil {
			return err
		}
		l.recBytes += len(l.recBuf)
	}
	t.end(sp, n)

	sp = t.begin("journal.append", root, b)
	for i := range evs {
		if _, err := l.jw.Append(&evs[i]); err != nil {
			return err
		}
	}
	t.end(sp, n)

	sp = t.begin("stemming.add", root, b)
	shard := make([]int, n)
	for i := range evs {
		shard[i] = l.win.Add(evs[i])
	}
	t.end(sp, n)
	if l.evict {
		sp = t.begin("stemming.evict", root, b)
		for i := range evs {
			if evs[i].Time.After(l.clock) {
				l.clock = evs[i].Time
			}
			l.evicted += l.win.EvictBefore(l.clock.Add(-replayWindow))
		}
		t.end(sp, n)
	}

	sp = t.begin("tamp.apply", root, b)
	for i := range evs {
		e, g, rs := &evs[i], l.graphs[shard[i]], l.shadow[shard[i]]
		old, had := rs[e.Prefix]
		if e.Type == event.Withdraw {
			if had {
				g.RemoveRoute(old)
				delete(rs, e.Prefix)
			}
			continue
		}
		entry := tamp.RouteEntry{Router: l.router, Prefix: e.Prefix, Nexthop: e.Attrs.Nexthop, ASPath: e.Attrs.ASPath.ASNs()}
		switch {
		case !had:
			g.AddRoute(entry)
		case old.Nexthop != entry.Nexthop || !equalPath(old.ASPath, entry.ASPath):
			g.ReplaceRoute(old, entry)
		}
		rs[e.Prefix] = entry
	}
	t.end(sp, n)
	t.end(root, 1)
	return nil
}

func equalPath(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// get is one GET through the serve handler, no network.
func (l *ladder) get(path, inm string) (*httptest.ResponseRecorder, time.Duration) {
	req := httptest.NewRequest(http.MethodGet, path, nil)
	if inm != "" {
		req.Header.Set("If-None-Match", inm)
	}
	rec := httptest.NewRecorder()
	t0 := time.Now()
	l.handler.ServeHTTP(rec, req)
	return rec, time.Since(t0)
}

// snapshot does what a tick does: decompose the window, merge and prune
// the shard graphs, render each format, publish to the serve tier and
// read it back — a miss, a hit and a 304 per endpoint.
func (l *ladder) snapshot(b int) error {
	t := l.t
	root := t.begin("snapshot", -1, b)
	timeIt := func(name string, acc *float64, f func()) {
		sp := t.begin(name, root, b)
		f()
		t.end(sp, 1)
		*acc += float64(t.spans[sp].End-t.spans[sp].Start) / 1e6
	}
	s := pipeline.Snapshot{Trigger: pipeline.TriggerTick, Events: l.win.Len()}
	timeIt("stemming.snapshot", &l.stemMs, func() { s.Components = l.win.Snapshot() })
	timeIt("tamp.snapshot", &l.tampMs, func() {
		s.Picture = tamp.MergeSnapshot(site, l.graphs, tamp.PruneOptions{KeepDepth: 3})
	})
	timeIt("viz.svg", &l.svgMs, func() { l.svgBytes = len(viz.SVG(s.Picture)) })
	timeIt("viz.dot", &l.dotMs, func() { _ = viz.DOT(s.Picture, viz.DOTOptions{}) })
	timeIt("viz.json", &l.jsMs, func() { l.jsonBytes = len(viz.JSON(s.Picture)) })
	s.At = l.in.start
	l.last = s

	// Publish is asynchronous: it is done when a read reports the new
	// version, and delivered when the SSE subscriber has its summary.
	l.pubSeq++
	want := strconv.Itoa(l.pubSeq)
	var err error
	var spent float64 // the span's own length; the two metrics are read inside it
	timeIt("serve.publish", &spent, func() {
		t0 := time.Now()
		l.api.Publish(s, nil)
		for {
			rec, _ := l.get("/api/picture.dot", "")
			if rec.Header().Get("X-Rex-Snapshot-Seq") == want {
				l.pubMs += time.Since(t0).Seconds() * 1e3
				break
			}
			if time.Since(t0) > 10*time.Second {
				err = fmt.Errorf("publish %s never became readable", want)
				return
			}
			time.Sleep(50 * time.Microsecond)
		}
		deadline := time.Now().Add(10 * time.Second)
		for {
			if got, ok := l.sse.last(); ok && got.events == s.Events {
				l.sseMs += got.at.Sub(t0).Seconds() * 1e3
				return
			}
			if time.Now().After(deadline) {
				err = fmt.Errorf("publish %s never reached the SSE subscriber", want)
				return
			}
			time.Sleep(50 * time.Microsecond)
		}
	})
	if err != nil {
		return err
	}
	// /api/picture.json goes last and is left out of the miss mean:
	// after /api/snapshot it is answered from the colliding cache key.
	sp := t.begin("serve.get", root, b)
	var miss, hit, nm time.Duration
	paths := []string{"/api/snapshot", "/api/components", "/api/picture.svg", "/api/picture.json"}
	for _, p := range paths {
		rec, d := l.get(p, "")
		if rec.Code != http.StatusOK {
			return fmt.Errorf("GET %s through the handler: status %d", p, rec.Code)
		}
		if p != "/api/picture.json" {
			miss += d
		}
		_, d = l.get(p, "")
		hit += d
		_, d = l.get(p, rec.Header().Get("ETag"))
		nm += d
	}
	t.end(sp, 3*len(paths))
	l.missMs += miss.Seconds() * 1e3 / float64(len(paths)-1)
	l.hitUs += float64(hit.Microseconds()) / float64(len(paths))
	l.nmUs += float64(nm.Microseconds()) / float64(len(paths))
	t.end(root, 1)
	l.snaps++
	return nil
}

// journalSide fills the journal numbers that need passes of their own:
// bytes on disk and scan+decode speed of the ladder's journal, record
// decode alone, and append under the two other fsync policies.
func journalSide(in *input, n int, jdir, dir string, m map[string]float64) error {
	total := n + in.baseline.n()
	var size int64
	ents, err := os.ReadDir(jdir)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if fi, err := e.Info(); err == nil {
			size += fi.Size()
		}
	}
	m["journal.bytes_per_event"] = float64(size) / float64(total)
	scanned := 0
	t0 := time.Now()
	if _, err := journal.Scan(jdir, 0, func(uint64, *event.Event) error { scanned++; return nil }); err != nil {
		return err
	}
	if scanned != total {
		return fmt.Errorf("journal scan returned %d records, %d were appended", scanned, total)
	}
	m["journal.scan_ns_per_event"] = float64(time.Since(t0)) / float64(scanned)

	side := min(n, sideEvents)
	recs := make([][]byte, side)
	for i := range recs {
		if recs[i], err = event.AppendRecord(nil, &in.evs[i]); err != nil {
			return err
		}
	}
	t0 = time.Now()
	for _, r := range recs {
		if _, err := event.ParseRecord(r); err != nil {
			return err
		}
	}
	m["event.decode_ns_per_event"] = float64(time.Since(t0)) / float64(side)

	for _, pol := range []struct {
		name  string
		fsync journal.FsyncPolicy
		n     int
	}{
		{"journal.append_never_ns_per_event", journal.FsyncNever, side},
		{"journal.append_always_ns_per_event", journal.FsyncAlways, min(side, 200)}, // an fsync each: milliseconds apiece
	} {
		jw, err := journal.Open(filepath.Join(dir, pol.name), journal.Options{Fsync: pol.fsync})
		if err != nil {
			return err
		}
		t0 := time.Now()
		for i := 0; i < pol.n; i++ {
			if _, err := jw.Append(&in.evs[i]); err != nil {
				jw.Close()
				return err
			}
		}
		m[pol.name] = float64(time.Since(t0)) / float64(pol.n)
		if err := jw.Close(); err != nil {
			return err
		}
	}
	return nil
}

// decodeAllocs counts heap allocations per decoded UPDATE.
func decodeAllocs(in *input, n int, m map[string]float64) {
	side := min(n, sideEvents)
	rd := bytes.NewReader(in.events.span(0, side))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for rd.Len() > 0 {
		if _, err := bgp.ReadMessage(rd, true); err != nil {
			return
		}
	}
	runtime.ReadMemStats(&after)
	m["bgp.decode_allocs_per_update"] = float64(after.Mallocs-before.Mallocs) / float64(side)
}

// relaySide times the fan-in hop on a journal of its own: records on
// disk → relay.Feed → loopback TCP → relay.Receiver, until the feed has
// the receiver's ack for all of them. None of the four workloads runs
// this hop; it is here so that the durability merge has a number.
func relaySide(in *input, dir string, m map[string]float64) error {
	side := min(len(in.evs), sideEvents)
	jdir := filepath.Join(dir, "relay-journal")
	jw, err := journal.Open(jdir, journal.Options{Fsync: journal.FsyncNever})
	if err != nil {
		return err
	}
	for i := 0; i < side; i++ {
		if _, err := jw.Append(&in.evs[i]); err != nil {
			jw.Close()
			return err
		}
	}
	if err := jw.Close(); err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	p := pipeline.New(pipeline.Config{SpikeK: -1})
	rcv := relay.NewReceiver(relay.ReceiverConfig{Pipeline: p})
	go rcv.Serve(ln)
	drained := make(chan struct{})
	go func() {
		for range rcv.Snapshots() {
		}
		close(drained)
	}()
	feed := relay.NewFeed(relay.FeedConfig{ID: "bench", Dir: jdir, Addr: ln.Addr().String()})
	t0 := time.Now()
	go feed.Run()
	var ferr error
	for feed.Acked() < uint64(side) {
		if time.Since(t0) > 60*time.Second {
			ferr = fmt.Errorf("relay acked %d of %d records in 60s", feed.Acked(), side)
			break
		}
		time.Sleep(200 * time.Microsecond)
	}
	took := time.Since(t0)
	feed.Close()
	rcv.Close()
	<-drained
	if ferr != nil {
		return ferr
	}
	m["relay.transfer_ns_per_event"] = float64(took) / float64(side)
	return nil
}

// collectorWhole times the collector as a whole on the same input — a
// loopback BGP session into collector.Serve with a handler that only
// counts — and takes bgp and rib, measured above, out of it: what is
// left is the session read loop, the socket and the hand-off.
func collectorWhole(in *input, n int, m map[string]float64) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	var seen atomic.Int64
	c := collector.New(collector.Config{LocalAS: 25, LocalID: netip.MustParseAddr("10.255.0.1"), WithdrawOnSessionLoss: true},
		func(event.Event) { seen.Add(1) })
	go c.Serve(ln)
	defer c.Close()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return err
	}
	defer conn.Close()
	s, err := openSession(conn, in.peer)
	if err != nil {
		return err
	}
	if err := s.write(in.baseline.buf, in.baseline.n(), time.Now()); err != nil {
		return err
	}
	for seen.Load() < int64(in.baseline.n()) {
		time.Sleep(100 * time.Microsecond)
	}
	t0 := time.Now()
	if err := s.write(in.events.span(0, n), n, t0); err != nil {
		return err
	}
	want := int64(in.baseline.n() + n)
	for seen.Load() < want {
		if time.Since(t0) > 120*time.Second {
			return fmt.Errorf("collector delivered %d of %d events in 120s", seen.Load(), want)
		}
		time.Sleep(100 * time.Microsecond)
	}
	whole := float64(time.Since(t0)) / float64(n)
	m["collector.ns_per_event"] = whole
	m["collector.self_ns_per_event"] = whole - m["bgp.decode_ns_per_update"] - m["rib.update_ns_per_event"]
	return nil
}

// pipelineWhole times the pipeline as a whole on the same events, twice:
// handed over in batches (IngestBatch, the intake's own call) for cost
// and allocations, and offered one by one through an Intake for the
// price of that hand-off. Whole minus stemming and tamp, measured above,
// is the coordinator and worker-pool hop.
func pipelineWhole(w *workload, in *input, n int, timed time.Duration, snapshotNs float64, m map[string]float64) {
	cfg := pipeline.Config{
		SpikeK: -1, Site: site, Prune: tamp.PruneOptions{KeepDepth: 3},
		Workers: runtime.GOMAXPROCS(0), // rexd's default -workers
	}
	switch w.name {
	case "steady":
		cfg.SnapshotEvery = 250 * time.Millisecond
	case "readers":
		cfg.SnapshotEvery = 500 * time.Millisecond
	case "storm":
		cfg.SnapshotEvery = stormPeriod(timed.Seconds())
	case "replay":
		cfg.SnapshotEvery = 5 * time.Minute
	}
	events := func() event.Stream {
		return append(append(make(event.Stream, 0, len(in.baseEvents)+n), in.baseEvents...), in.evs[:n]...)
	}
	run := func(feed func(p *pipeline.Pipeline, evs event.Stream)) time.Duration {
		p := pipeline.New(cfg)
		drained := make(chan struct{})
		go func() {
			for range p.Snapshots() {
			}
			close(drained)
		}()
		evs := events()
		feed(p, evs[:len(in.baseEvents)])
		t0 := time.Now()
		feed(p, evs[len(in.baseEvents):])
		p.Close()
		<-drained
		return time.Since(t0)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	took := run(func(p *pipeline.Pipeline, evs event.Stream) {
		for i := 0; i < len(evs); i += ladderBatch {
			// IngestBatch takes the slice; give it one of its own.
			p.IngestBatch(append([]event.Event(nil), evs[i:min(i+ladderBatch, len(evs))]...))
		}
	})
	runtime.ReadMemStats(&after)
	whole := float64(took) / float64(n)
	m["pipeline.ingest_ns_per_event"] = whole
	m["pipeline.allocs_per_event"] = float64(after.Mallocs-before.Mallocs) / float64(n)
	m["pipeline.heap_bytes_per_event"] = float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
	// Children: the per-event calls and the snapshots the ticks took.
	self := whole - m["stemming.add_ns_per_event"] - m["tamp.apply_ns_per_event"] - snapshotNs/float64(n)
	if e := m["stemming.evict_ns_per_event"]; e > 0 {
		self -= e
	}
	m["pipeline.self_ns_per_event"] = self

	var offer time.Duration
	run(func(p *pipeline.Pipeline, evs event.Stream) {
		it := pipeline.NewIntake(pipeline.IntakeConfig{}, p)
		t0 := time.Now()
		for i := range evs {
			it.Offer(evs[i])
		}
		offer = time.Since(t0)
		it.Close()
	})
	m["pipeline.offer_ns_per_event"] = float64(offer) / float64(n)
}

// replayInstants are the instants a replay round asks /api/at about.
func replayInstants(in *input, timed time.Duration) []time.Time {
	q := max(int(timed.Seconds()), 2)
	out := make([]time.Time, q)
	for i := range out {
		out[i] = in.start.Add(replayWindow + time.Duration(i+1)*(in.over-replayWindow)/time.Duration(q+1))
	}
	return out
}
