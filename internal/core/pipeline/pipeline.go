// Package pipeline is the streaming analysis engine: it consumes the
// collector's live event stream (or a replayed one), maintains a sliding
// time window of events with an incrementally-updated Stemming count table
// and a TAMP routing graph, and emits analysis snapshots — on a periodic
// event-time tick, whenever the event rate spikes above the robust
// baseline, and once at shutdown. It is the always-on form of the
// paper's workflow: rather than re-scanning a buffered stream on demand,
// the window turns over continuously and every snapshot is a full
// decomposition of exactly the last Window of routing activity plus a
// pruned picture of the routing state at that instant.
//
// The TAMP routing state is sharded by prefix: event i's prefix picks
// its TAMP sub-graph, so the shards partition the prefix space and
// merge deterministically at snapshot time (DESIGN.md §10). The
// Stemming window is not sharded: its sub-sequence counts and its
// per-prefix index are single tables the run loop updates inline.
// Workers controls only how many goroutines execute TAMP shard work —
// the shard layout, and therefore every snapshot byte, is identical at
// any worker count.
package pipeline

import (
	"net/netip"
	"sync"
	"time"

	"rex/internal/core/stemming"
	"rex/internal/core/tamp"
	"rex/internal/event"
)

// Trigger says why a snapshot was emitted.
type Trigger uint8

// Snapshot triggers.
const (
	// TriggerTick: the periodic SnapshotEvery event-time timer.
	TriggerTick Trigger = iota + 1
	// TriggerSpike: the window's event rate crossed median + k·MAD.
	TriggerSpike
	// TriggerFinal: the pipeline was closed; the last word on the window.
	TriggerFinal
)

// String names the trigger.
func (t Trigger) String() string {
	switch t {
	case TriggerTick:
		return "tick"
	case TriggerSpike:
		return "spike"
	case TriggerFinal:
		return "final"
	default:
		return "trigger(?)"
	}
}

// Snapshot is one emitted analysis result.
type Snapshot struct {
	// At is the event-time clock when the snapshot was taken (the newest
	// event time seen so far).
	At      time.Time
	Trigger Trigger
	// WindowStart and WindowEnd bound the events actually in the window.
	WindowStart, WindowEnd time.Time
	// Events is how many events the window held.
	Events int
	// Components is the Stemming decomposition, strongest first.
	Components []stemming.Component
	// Picture is the pruned TAMP picture of the current routing state.
	Picture *tamp.Picture
	// Spike is set on TriggerSpike: the detected rate spike.
	Spike *event.Spike
	// Stream is the window's event slice, only when Config.IncludeEvents
	// is set (it pins every event's attributes in memory).
	Stream event.Stream
}

// DefaultShards is the default prefix-shard count. It is a fixed number
// rather than GOMAXPROCS on purpose: the shard layout is part of the
// analysis semantics (it fixes the per-shard TAMP MaxEver peaks), so a
// fixed default keeps snapshots reproducible across machines, not just
// across runs.
const DefaultShards = 16

// Config tunes the pipeline. The zero value is usable.
type Config struct {
	// Window is the sliding window length in event time (default 15m).
	Window time.Duration
	// SnapshotEvery emits a TriggerTick snapshot each time the event-time
	// clock advances this far (0 disables ticks).
	SnapshotEvery time.Duration
	// SpikeK is the MAD multiplier for the spike trigger (default 8,
	// negative disables spike snapshots).
	SpikeK float64
	// SpikeBucket is the rate-series bucket (default 1 minute).
	SpikeBucket time.Duration
	// Stemming configures the window decomposition.
	Stemming stemming.Config
	// Site names the TAMP graph root (default "site").
	Site string
	// Prune controls Picture pruning.
	Prune tamp.PruneOptions
	// Shards is the prefix-shard parallelism of the TAMP shadow, which
	// is partitioned by a prefix hash modulo Shards (0 = DefaultShards).
	// The Stemming window is not sharded. Results depend on the shard
	// count only through the per-shard MaxEver rule, never on Workers.
	Shards int
	// Workers is how many goroutines execute TAMP shard work. 0 or 1
	// runs everything inline on the run loop (the sequential path);
	// higher values start a worker pool with static shard ownership.
	// Capped at Shards. Snapshots are byte-identical at any Workers
	// value.
	Workers int
	// IncludeEvents copies the window contents into each Snapshot.
	IncludeEvents bool
	// Buffer is the ingest channel depth (default 1024).
	Buffer int
}

func (c Config) withDefaults() Config {
	if c.Window <= 0 {
		c.Window = 15 * time.Minute
	}
	if c.SpikeK == 0 {
		c.SpikeK = 8
	}
	if c.SpikeBucket <= 0 {
		c.SpikeBucket = time.Minute
	}
	if c.Site == "" {
		c.Site = "site"
	}
	if c.Buffer <= 0 {
		c.Buffer = 1024
	}
	if c.Shards <= 0 {
		c.Shards = DefaultShards
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	if c.Workers > c.Shards {
		c.Workers = c.Shards
	}
	return c
}

// Pipeline is the running engine. Ingest may be called from any number
// of goroutines (it is a valid collector.Handler); all analysis state is
// owned by one internal run loop plus, at Workers > 1, a pool of shard
// workers the run loop coordinates.
type Pipeline struct {
	cfg    Config
	events chan msg
	snaps  chan Snapshot
	quit   chan struct{}
	done   chan struct{} // closed when the run loop has exited
	once   sync.Once
}

// Control message kinds, carried in-band through the event channel so
// their position relative to events and seeds is exact.
const (
	ctrlNone uint8 = iota
	ctrlBeginRecovery
	ctrlEndRecovery
)

// msg is one unit of work for the run loop: a live event, a batch of
// them, a seed event that rebuilds table state without touching the
// window, a recovery-span control mark, or a trigger-state
// query/restore.
type msg struct {
	e       event.Event
	batch   []event.Event
	seed    bool
	ctrl    uint8
	query   chan<- TriggerState
	restore *TriggerState
}

// New starts a pipeline. The caller must drain Snapshots() — emission
// blocks on the consumer — and eventually call Close.
func New(cfg Config) *Pipeline {
	cfg = cfg.withDefaults()
	p := &Pipeline{
		cfg:    cfg,
		events: make(chan msg, cfg.Buffer),
		snaps:  make(chan Snapshot),
		quit:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	go p.run()
	return p
}

// Ingest feeds one event, blocking while the buffer is full. That
// block propagates backwards: when the caller is a collector session
// goroutine, a stalled snapshot consumer can wedge the BGP read loop
// until the peer's hold timer expires and the session flaps. Callers
// on a session-critical path must feed through an Intake with the shed
// policy instead. After Close the event is dropped;
// Ingest never blocks forever on a stopped pipeline.
func (p *Pipeline) Ingest(e event.Event) {
	select {
	case p.events <- msg{e: e}:
	case <-p.quit:
	}
}

// IngestBatch feeds a slice of events as one unit of work, blocking like
// Ingest. Ownership of the slice transfers to the pipeline — the caller
// must not reuse it. Batching amortizes the per-message channel cost,
// which is what keeps the intake's hand-off off the hot path when the
// engine runs parallel; the events are processed exactly as if they had
// been Ingested one by one in slice order.
func (p *Pipeline) IngestBatch(batch []event.Event) {
	if len(batch) == 0 {
		return
	}
	select {
	case p.events <- msg{batch: batch}:
	case <-p.quit:
	}
}

// Seed feeds one recovered table entry, blocking like Ingest. Seed
// events rebuild the TAMP shadow RIB (routing state NOW) from a
// checkpoint without entering the sliding window or advancing the
// event-time clock, so a seed never makes a tick or spike trigger fall
// due.
//
// Checkpoint state is by definition older than any event a live session
// delivers while recovery runs — bracket the seed+replay span with
// BeginRecovery/EndRecovery so a seed arriving after a live event for
// the same (router, prefix) cannot resurrect the stale route, and so the
// replay's triggers coalesce into one snapshot.
func (p *Pipeline) Seed(e event.Event) {
	select {
	case p.events <- msg{e: e, seed: true}:
	case <-p.quit:
	}
}

// BeginRecovery marks the start of a recovery span. Until EndRecovery:
//
//   - the engine tracks which (router, prefix) route keys live events
//     have touched, and drops any Seed for a touched key as stale
//     (counted in rex_pipeline_seed_stale_total);
//   - tick and spike triggers advance the trigger state exactly as
//     outside a span, but emit nothing: the engine remembers only the
//     last trigger that fell due, and EndRecovery emits one snapshot
//     for all of them.
//
// The mark travels in-band through the ingest channel, so "before" and
// "after" mean channel order — exactly the order the race between
// journal replay and live intake resolves in.
func (p *Pipeline) BeginRecovery() {
	select {
	case p.events <- msg{ctrl: ctrlBeginRecovery}:
	case <-p.quit:
	}
}

// EndRecovery closes the span opened by BeginRecovery and releases the
// touched-key tracking. A recovery span emits at most one snapshot, of
// the recovered state, carrying the last trigger that fell due inside
// it (its Spike too, if that trigger was a spike); if none fell due —
// the silent replay of TriggerState — it emits nothing. Seeds outside a
// recovery span apply unconditionally.
func (p *Pipeline) EndRecovery() {
	select {
	case p.events <- msg{ctrl: ctrlEndRecovery}:
	case <-p.quit:
	}
}

// TriggerState is the snapshot-trigger clock state: the event-time
// clock, the next tick deadline, the current spike bucket and the last
// reported spike onset. Together with the window contents (rebuildable
// from a journal) and the TAMP tables (checkpointable), it is
// everything a restarted pipeline needs to continue the exact trigger
// cadence of the run that died.
//
// The silent-replay contract: restore a captured state FIRST, then
// re-process the events that originally led up to the capture point
// inside a BeginRecovery/EndRecovery span. None of them advances the
// restored clock (each event's time is at or below it), so no tick or
// spike trigger falls due during the replay — the span emits nothing —
// and the first genuinely new event resumes triggers mid-cadence,
// exactly where the dead run left them. Without a restored state, the
// triggers a replay crosses still advance this state as in the
// uninterrupted run; the span coalesces their snapshots into one.
type TriggerState struct {
	// Clock is the newest event time the pipeline had seen.
	Clock time.Time
	// NextTick is the next TriggerTick deadline (zero before the first
	// event or when ticks are disabled).
	NextTick time.Time
	// CurBucket is the spike trigger's current rate bucket.
	CurBucket time.Time
	// LastSpike is the Start of the newest spike already reported.
	LastSpike time.Time
	// Emitted counts snapshots this pipeline instance has handed to the
	// Snapshots() consumer so far (the TriggerFinal close-out snapshot
	// excluded; a recovery span's coalesced snapshot counts once). It is
	// process-local — a restarted pipeline counts from zero
	// (RestoreTriggers leaves it alone), and a silent replay emits
	// nothing — so a consumer that persists snapshots as they arrive can
	// compare it against its own sink count to know whether everything
	// a TriggerQuery cut covers has already been written out.
	Emitted uint64
}

// TriggerQuery returns the trigger state at the query's exact in-band
// position: after every event, batch and seed ingested before the call,
// before everything after it. It is also a synchronization barrier —
// when it returns, every snapshot those prior events triggered has been
// delivered to the Snapshots() consumer, which must keep draining or
// the query never drains. Returns ok=false if the pipeline stopped
// before answering.
func (p *Pipeline) TriggerQuery() (TriggerState, bool) {
	ch := make(chan TriggerState, 1)
	select {
	case p.events <- msg{query: ch}:
	case <-p.quit:
		return TriggerState{}, false
	}
	select {
	case ts := <-ch:
		return ts, true
	case <-p.done:
		// Closed while we waited; the drain may still have answered.
		select {
		case ts := <-ch:
			return ts, true
		default:
			return TriggerState{}, false
		}
	}
}

// RestoreTriggers sets the trigger state, in-band like Seed: restores
// sent before replayed events are applied before them. Call it once at
// the start of recovery with a state captured by TriggerQuery; see
// TriggerState for the silent-replay contract that makes the subsequent
// rebuild emit no snapshots.
func (p *Pipeline) RestoreTriggers(ts TriggerState) {
	select {
	case p.events <- msg{restore: &ts}:
	case <-p.quit:
	}
}

// Snapshots returns the emission channel. It is closed after the final
// snapshot, once Close has been called.
func (p *Pipeline) Snapshots() <-chan Snapshot { return p.snaps }

// Close stops intake. The run loop drains already-buffered events, emits
// a TriggerFinal snapshot, and closes Snapshots(); keep draining that
// channel until it closes. Close itself returns immediately and is safe
// to call more than once.
func (p *Pipeline) Close() {
	p.once.Do(func() { close(p.quit) })
}

func (p *Pipeline) run() {
	defer close(p.done)
	defer close(p.snaps)
	st := &state{
		p:       p,
		win:     stemming.NewWindow(p.cfg.Stemming, p.cfg.Shards),
		shards:  make([]*analysisShard, p.cfg.Shards),
		routers: make(map[netip.Addr]string),
		graphs:  make([]*tamp.Graph, p.cfg.Shards),
	}
	for i := range st.shards {
		st.shards[i] = &analysisShard{
			g:       tamp.New(p.cfg.Site),
			rib:     make(map[routeKey]tamp.RouteEntry),
			pending: opsPool.Get().(*[]routeOp),
		}
	}
	mShards.Set(int64(p.cfg.Shards))
	mWorkers.Set(int64(p.cfg.Workers))
	if p.cfg.Workers > 1 {
		st.pool = newPool(p.cfg.Workers)
		defer st.pool.close()
	}
	for {
		select {
		case m := <-p.events:
			st.dispatch(m)
		case <-p.quit:
			// Drain what Ingest already buffered, then close out.
			for {
				select {
				case m := <-p.events:
					st.dispatch(m)
				default:
					p.snaps <- st.snapshot(TriggerFinal, nil)
					return
				}
			}
		}
	}
}

type routeKey struct {
	router string
	prefix netip.Prefix
}

// routeOp is one routing change bound for a shard's TAMP shadow. The
// router name is the coordinator's cached string form of e.Peer, so
// workers never re-render addresses.
type routeOp struct {
	e      event.Event
	router string
	seed   bool
}

// tampBatchSize is how many routeOps accumulate per shard before the
// coordinator flushes them to the owning worker as one task.
const tampBatchSize = 64

// opsPool recycles flushed routeOp batches between the coordinator
// (which fills them) and the shard workers (which return them after
// applying). Pooled as pointers so Get/Put do not re-box the slice
// header.
var opsPool = sync.Pool{New: func() any {
	b := make([]routeOp, 0, tampBatchSize)
	return &b
}}

// batchPool recycles IngestBatch slices between the run loop (which
// recycles a batch after processing it — ownership transferred on
// Ingest) and the intake drainer, which refills them.
var batchPool = sync.Pool{New: func() any {
	b := make([]event.Event, 0, intakeBatchMax)
	return &b
}}

// getBatch returns an empty pooled batch slice for IngestBatch filling.
func getBatch() []event.Event {
	return (*batchPool.Get().(*[]event.Event))[:0]
}

// recycleBatch clears a processed batch — dropping its attribute
// references so a pooled buffer never pins event payloads — and returns
// it to the pool.
func recycleBatch(b []event.Event) {
	clear(b)
	b = b[:0]
	batchPool.Put(&b)
}

// analysisShard is one prefix shard's slice of the TAMP state: a
// sub-graph plus the RIB shadow for the prefixes hashed here. Owned by
// exactly one worker (or the run loop at Workers=1); pending is the
// coordinator-side flush buffer and is never touched by workers.
type analysisShard struct {
	g       *tamp.Graph
	rib     map[routeKey]tamp.RouteEntry
	pending *[]routeOp
}

// applyRoute mirrors one routing change into the shard's TAMP sub-graph
// through a RIB shadow keyed (router, prefix), exactly as the animator
// tracks state: a duplicate announcement is silent, a changed one is a
// replace, a withdrawal removes whatever route we believed was
// current. The graph reflects routing state NOW — it does not slide
// with the window. The mapping is idempotent at the state level
// (re-announcing the current route is a no-op, withdrawing an absent
// one is too), which is what lets recovery replay a journal tail on
// top of a checkpoint that already contains part of it.
func (sh *analysisShard) applyRoute(e *event.Event, router string) {
	key := routeKey{router: router, prefix: e.Prefix}
	switch e.Type {
	case event.Announce:
		entry := tamp.EntryFromEventNamed(router, e)
		if old, ok := sh.rib[key]; ok {
			if !routeEqual(old, entry) {
				sh.g.ReplaceRoute(old, entry)
				sh.rib[key] = entry
			}
		} else {
			sh.g.AddRoute(entry)
			sh.rib[key] = entry
		}
	case event.Withdraw:
		if old, ok := sh.rib[key]; ok {
			sh.g.RemoveRoute(old)
			delete(sh.rib, key)
		}
	}
}

// applyBatch replays a flushed op batch in order on the owning worker.
func (sh *analysisShard) applyBatch(ops []routeOp) {
	for i := range ops {
		sh.applyRoute(&ops[i].e, ops[i].router)
	}
}

// state is the run loop's analysis state. The run loop is the
// coordinator: it owns the window ring, the clock and triggers, and the
// shard flush buffers; at Workers > 1 the shard graphs and RIB shadows
// are owned by pool workers between barriers.
type state struct {
	p      *Pipeline
	win    *stemming.Window
	shards []*analysisShard
	pool   *pool // nil at Workers <= 1

	clock     time.Time // newest event time seen (the event-time clock)
	nextTick  time.Time
	curBucket time.Time
	lastSpike time.Time // Start of the last spike already emitted
	emitted   uint64    // snapshots handed to the consumer (sans final)

	// Recovery-span tracking (between BeginRecovery and EndRecovery):
	// route keys live events have touched, which stale seeds must not
	// overwrite. Nil outside a span — zero cost on the steady path.
	liveTouched map[routeKey]struct{}
	// due and dueSpike are the last trigger that fell due inside the
	// open recovery span (due == 0: none yet). The span's triggers
	// coalesce: EndRecovery emits one snapshot carrying this trigger.
	due      Trigger
	dueSpike *event.Spike

	// routers caches the string form of every peer address seen, so the
	// steady path renders each address exactly once instead of per event.
	routers map[netip.Addr]string

	// graphs and rateBuf are per-snapshot / per-spike-check scratch,
	// reused so the triggers allocate only their results.
	graphs  []*tamp.Graph
	rateBuf event.Stream
}

// routerName returns the cached string form of a peer address,
// rendering and caching it on first sight.
func (st *state) routerName(a netip.Addr) string {
	if s, ok := st.routers[a]; ok {
		return s
	}
	s := a.String()
	st.routers[a] = s
	return s
}

// dispatch routes one message: control marks flip recovery tracking,
// seeds rebuild table state only, live events take the full path.
func (st *state) dispatch(m msg) {
	switch {
	case m.ctrl == ctrlBeginRecovery:
		st.liveTouched = make(map[routeKey]struct{})
	case m.ctrl == ctrlEndRecovery:
		st.liveTouched = nil
		if st.due != 0 {
			st.emit(st.snapshot(st.due, st.dueSpike))
			st.due, st.dueSpike = 0, nil
		}
	case m.query != nil:
		m.query <- TriggerState{
			Clock:     st.clock,
			NextTick:  st.nextTick,
			CurBucket: st.curBucket,
			LastSpike: st.lastSpike,
			Emitted:   st.emitted,
		}
	case m.restore != nil:
		st.clock = m.restore.Clock
		st.nextTick = m.restore.NextTick
		st.curBucket = m.restore.CurBucket
		st.lastSpike = m.restore.LastSpike
	case m.batch != nil:
		for i := range m.batch {
			st.process(m.batch[i])
		}
		recycleBatch(m.batch)
	case m.seed:
		st.seed(m.e)
	default:
		st.process(m.e)
	}
}

// seed applies one checkpoint-recovered route to the TAMP shadow without
// touching the window or the clock. Inside a recovery span, a seed for a
// route key some live event already touched is stale — the live event is
// by construction newer than the checkpoint — and is dropped.
func (st *state) seed(e event.Event) {
	router := st.routerName(e.Peer)
	if st.liveTouched != nil {
		if _, touched := st.liveTouched[routeKey{router: router, prefix: e.Prefix}]; touched {
			mSeedStale.Inc()
			return
		}
	}
	mSeeded.Inc()
	st.route(st.win.ShardFor(e.Prefix), routeOp{e: e, router: router, seed: true})
}

// route hands one routing change to its shard: inline at Workers <= 1,
// batched to the owning worker otherwise.
func (st *state) route(shard int, op routeOp) {
	mShardRouteOps.Inc()
	sh := st.shards[shard]
	if st.pool == nil {
		sh.applyRoute(&op.e, op.router)
		return
	}
	*sh.pending = append(*sh.pending, op)
	if len(*sh.pending) >= tampBatchSize {
		st.flush(shard)
	}
}

// flush submits a shard's buffered routeOps to its owning worker. The
// worker index is a pure function of the shard index, so a shard's
// batches land on one FIFO and apply in coordinator order. The batch
// buffer returns to opsPool once the worker has applied it (cleared, so
// a pooled buffer never pins event attributes).
func (st *state) flush(shard int) {
	sh := st.shards[shard]
	if len(*sh.pending) == 0 {
		return
	}
	ops := sh.pending
	sh.pending = opsPool.Get().(*[]routeOp)
	*sh.pending = (*sh.pending)[:0]
	mShardFlushes.Inc()
	st.pool.submit(shard%st.pool.workers, func() {
		sh.applyBatch(*ops)
		clear(*ops)
		*ops = (*ops)[:0]
		opsPool.Put(ops)
	})
}

// barrier makes every shard's TAMP state current: all buffered ops
// flushed and every in-flight worker task finished. No-op at Workers=1.
func (st *state) barrier() {
	if st.pool == nil {
		return
	}
	for i := range st.shards {
		st.flush(i)
	}
	st.pool.barrier()
}

// process applies one event: window add (which also picks the shard),
// RIB shadow → sharded TAMP graph, eviction, then the tick and spike
// triggers against the advanced event clock.
func (st *state) process(e event.Event) {
	cfg := &st.p.cfg
	mEvents.Inc()
	first := st.clock.IsZero()
	if first || e.Time.After(st.clock) {
		st.clock = e.Time
	}

	shard := st.win.Add(e)
	router := st.routerName(e.Peer)
	if st.liveTouched != nil {
		st.liveTouched[routeKey{router: router, prefix: e.Prefix}] = struct{}{}
	}
	st.route(shard, routeOp{e: e, router: router})

	evicted := st.win.EvictBefore(st.clock.Add(-cfg.Window))
	if evicted > 0 {
		mEvicted.Add(uint64(evicted))
	}
	mWindowEvents.Set(int64(st.win.Len()))

	// Spike trigger: on each event-time bucket rollover, rate the window
	// and look for a spike newer than the last one reported.
	if cfg.SpikeK > 0 {
		b := st.clock.Truncate(cfg.SpikeBucket)
		if st.curBucket.IsZero() {
			st.curBucket = b
		} else if b.After(st.curBucket) {
			st.curBucket = b
			st.checkSpikes()
		}
	}

	// Tick trigger, in event time: replay at any speed snapshots at the
	// same stream positions.
	if cfg.SnapshotEvery > 0 {
		if first {
			st.nextTick = e.Time.Add(cfg.SnapshotEvery)
		}
		for !st.clock.Before(st.nextTick) {
			st.fire(TriggerTick, nil)
			st.nextTick = st.nextTick.Add(cfg.SnapshotEvery)
		}
	}
}

// checkSpikes rates the current window and emits one snapshot per spike
// not yet reported. The snapshot lands at spike onset — the first bucket
// rollover at which the run crosses the threshold — so the decomposition
// covers the surge while it is still in the window.
func (st *state) checkSpikes() {
	st.rateBuf = st.win.AppendEvents(st.rateBuf[:0])
	rs := event.Rate(st.rateBuf, st.p.cfg.SpikeBucket)
	for _, sp := range rs.Spikes(st.p.cfg.SpikeK) {
		if !sp.Start.After(st.lastSpike) {
			continue
		}
		st.lastSpike = sp.Start
		spike := sp
		mSpikes.Inc()
		st.fire(TriggerSpike, &spike)
	}
}

// fire emits the snapshot a trigger calls for. Inside a recovery span
// it only records the trigger as due: a replay crossing many trigger
// points would otherwise compute a full snapshot at each one, only for
// the next to replace it, so the span's triggers coalesce into the one
// snapshot of the recovered state that EndRecovery emits.
func (st *state) fire(trig Trigger, sp *event.Spike) {
	if st.liveTouched != nil {
		st.due, st.dueSpike = trig, sp
		return
	}
	st.emit(st.snapshot(trig, sp))
}

// snapshot assembles the full analysis of the current window. The
// barrier first settles all TAMP shard state; the picture is then the
// deterministic merge of the per-shard sub-graphs — a pure function of
// each shard's op sequence, which the coordinator fixed in stream order.
func (st *state) snapshot(trig Trigger, sp *event.Spike) Snapshot {
	start := time.Now()
	st.barrier()
	for i, sh := range st.shards {
		st.graphs[i] = sh.g
	}
	// The window contents are read in place — Len, Snapshot and
	// TimeRange never copy the ring; events are copied out only when the
	// caller asked for them.
	s := Snapshot{
		At:         st.clock,
		Trigger:    trig,
		Events:     st.win.Len(),
		Components: st.win.Snapshot(),
		Picture:    tamp.MergeSnapshot(st.p.cfg.Site, st.graphs, st.p.cfg.Prune),
		Spike:      sp,
	}
	if first, last, ok := st.win.TimeRange(); ok {
		s.WindowStart, s.WindowEnd = first, last
	}
	if st.p.cfg.IncludeEvents {
		s.Stream = st.win.Events()
	}
	mSnapshots.With(trig.String()).Inc()
	mSnapshotSeconds.Observe(time.Since(start).Seconds())
	return s
}

// emit hands a snapshot to the consumer. The send blocks: snapshots are
// never dropped, even ones computed from events buffered before Close —
// which is why the consumer must keep draining Snapshots() until it
// closes.
func (st *state) emit(s Snapshot) {
	st.p.snaps <- s
	st.emitted++
}

func routeEqual(a, b tamp.RouteEntry) bool {
	if a.Router != b.Router || a.Nexthop != b.Nexthop || a.Prefix != b.Prefix || len(a.ASPath) != len(b.ASPath) {
		return false
	}
	for i := range a.ASPath {
		if a.ASPath[i] != b.ASPath[i] {
			return false
		}
	}
	return true
}

// ReplayState is the one-shot replay entry the time-travel serving path
// uses: it runs optional checkpoint seeds plus a streamed event source
// through a fresh pipeline with the tick and spike triggers disabled,
// and returns the single close-out snapshot — the full analysis state
// (window, Stemming decomposition, TAMP picture) as of the last event
// the source delivers. Because the engine is deterministic at a fixed
// shard count, feeding it the exact event sequence a live pipeline had
// processed when its clock stood at some instant reproduces that live
// snapshot byte for byte.
//
// source is called once with an ingest function and feeds events in
// stream order; its error (nil for a clean end, including an early
// stop) is returned alongside the snapshot. The pipeline is always
// closed and drained, so a failing source still cannot leak goroutines.
func ReplayState(cfg Config, seeds []*event.Event, source func(ingest func(e *event.Event)) error) (Snapshot, error) {
	cfg.SnapshotEvery = 0
	cfg.SpikeK = -1
	p := New(cfg)
	var final Snapshot
	done := make(chan struct{})
	go func() {
		defer close(done)
		for snap := range p.Snapshots() {
			final = snap
		}
	}()
	for _, e := range seeds {
		p.Seed(*e)
	}
	err := source(func(e *event.Event) { p.Ingest(*e) })
	p.Close()
	<-done
	return final, err
}

// Replay runs a recorded stream through a pipeline and collects every
// snapshot, the offline form of the engine: identical code path, event
// time only.
func Replay(s event.Stream, cfg Config) []Snapshot {
	p := New(cfg)
	var out []Snapshot
	done := make(chan struct{})
	go func() {
		defer close(done)
		for snap := range p.Snapshots() {
			out = append(out, snap)
		}
	}()
	for _, e := range s {
		p.Ingest(e)
	}
	p.Close()
	<-done
	return out
}
