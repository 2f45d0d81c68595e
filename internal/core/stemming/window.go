package stemming

import (
	"net/netip"
	"runtime"
	"sync"
	"time"

	"rex/internal/event"
)

// Window maintains the Stemming count table over a sliding set of
// events, so a live feed can be decomposed repeatedly without re-counting
// the whole window each time. Events enter with Add and leave in arrival
// (FIFO) order with EvictBefore; both directions reuse the batch
// analysis' count arithmetic — eviction is an add with negative weight.
//
// Sub-sequence counts live in one table indexed by dense sub-sequence
// ID, updated inline in arrival order, so they do not depend on the
// shard count and a snapshot starts from a plain copy of the table. The
// per-prefix live event lists are sharded by a content hash of the
// event's prefix (see ShardFor): every event of one prefix lands in the
// same shard, so each shard owns a disjoint slice of the lists and they
// merge by union at snapshot time. List updates are buffered and
// settled in batches — by default one goroutine per shard, or on the
// caller's worker pool via Runner.
//
// A Window is NOT safe for concurrent use: one goroutine calls Add,
// EvictBefore and Snapshot. The parallelism is internal.
type Window struct {
	cfg    Config
	in     *interner
	shards []*countShard

	// counts is the sub-sequence count table, indexed by the interner's
	// dense key IDs. It grows as new keys are interned.
	counts []float64

	// OnSettle, when set, observes each batch settle: the wall-clock
	// time the shard list apply took and how many buffered ops it
	// drained. Set it before the first Add (the pipeline points it at a
	// latency histogram); nil costs nothing.
	OnSettle func(elapsed time.Duration, ops int)

	// Runner, when set, executes the n shard-settle tasks of a batch:
	// it must call run(i) exactly once for every i in [0, n), in any
	// order or concurrency (distinct tasks touch distinct shards), and
	// return only when all calls have finished. The parallel pipeline
	// points this at its worker pool; a sequential engine sets a plain
	// loop. Nil keeps the default: one goroutine per active shard. Set
	// it before the first Add and do not change it afterwards.
	Runner func(n int, run func(i int))

	// ring holds the live events; live IDs are [headID, nextID) and an
	// event with ID i lives at ring[i % len(ring)].
	ring           []winEvent
	headID, nextID uint64

	pendingOps  int
	settleBatch int

	// snap is the reused Snapshot scratch (slices regrown in place, maps
	// cleared with buckets retained); active is the settle loop's shard
	// scratch. Both exist so steady-state window turnover allocates
	// nothing beyond genuinely new interned sequences.
	snap   *analysis
	active []*countShard
}

// winEvent is one live event with its interned sequence entry.
type winEvent struct {
	ev    event.Event
	ent   *seqEntry
	shard int
	w     float64
}

// defaultSettleBatch is how many buffered ops trigger a parallel settle.
// Large enough to amortize the per-shard goroutine handoff, small enough
// that Snapshot never has more than one batch left to drain.
const defaultSettleBatch = 4096

// NewWindow builds an empty sliding window. shards <= 0 selects
// runtime.GOMAXPROCS(0). cfg is interpreted exactly as Analyze does.
func NewWindow(cfg Config, shards int) *Window {
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	cfg = cfg.withDefaults()
	w := &Window{
		cfg:         cfg,
		in:          newInterner(cfg.MaxSubseqLen),
		shards:      make([]*countShard, shards),
		ring:        make([]winEvent, 1024),
		settleBatch: defaultSettleBatch,
	}
	for i := range w.shards {
		w.shards[i] = newCountShard()
	}
	return w
}

// Len returns the number of live events in the window.
func (w *Window) Len() int { return int(w.nextID - w.headID) }

// NumShards returns the count-shard parallelism the window was built
// with — the modulus of the prefix→shard assignment.
func (w *Window) NumShards() int { return len(w.shards) }

// ShardFor returns the shard index p's events land in. The assignment
// is a pure content hash of the prefix — NOT its intern-order ID — so
// it is identical across runs, machines, and recovery paths (a fresh
// stream and a checkpoint-seeded replay intern prefixes in different
// orders but shard them the same). The parallel pipeline uses the same
// assignment to route TAMP shadow updates, so one prefix's entire
// analysis state lives with one worker.
func (w *Window) ShardFor(p netip.Prefix) int {
	return shardOfPrefix(p, len(w.shards))
}

// shardOfPrefix is FNV-1a over the prefix's 16-byte address form plus
// its bit length, reduced mod n.
func shardOfPrefix(p netip.Prefix, n int) int {
	a := p.Addr().As16()
	h := uint32(2166136261)
	for _, b := range a {
		h ^= uint32(b)
		h *= 16777619
	}
	h ^= uint32(uint8(p.Bits()))
	h *= 16777619
	return int(h % uint32(n))
}

// Add appends one event to the window and returns the index of the
// shard its prefix was routed to.
func (w *Window) Add(e event.Event) int {
	ent := w.in.seqFor(&e)
	weight := 1.0
	if w.cfg.Weight != nil {
		// Hand the callback its own copy: &e flowing into an arbitrary
		// function would force every Add's argument onto the heap, even
		// with Weight unset.
		ec := e
		weight = w.cfg.Weight(&ec)
	}
	if w.nextID-w.headID == uint64(len(w.ring)) {
		w.grow()
	}
	id := w.nextID
	w.nextID++
	shard := shardOfPrefix(e.Prefix, len(w.shards))
	w.ring[id%uint64(len(w.ring))] = winEvent{ev: e, ent: ent, shard: shard, w: weight}
	if n := len(w.in.keyStr); n > len(w.counts) {
		w.counts = append(w.counts, make([]float64, n-len(w.counts))...)
	}
	addCounts(w.counts, ent.kids, weight)
	sh := w.shards[shard]
	sh.pending = append(sh.pending, countOp{id: id, pid: ent.pid})
	w.pendingOps++
	if w.pendingOps >= w.settleBatch {
		w.settle()
	}
	return shard
}

// EvictBefore removes, in arrival order, the leading run of events whose
// time is before cutoff, and returns how many were evicted. An
// out-of-order event timed at or after cutoff stops the run: the window
// is FIFO over a near-time-ordered feed, matching how a collector emits.
// The settle threshold is checked inside the loop, so even a mass
// eviction — a recovery replay crossing a window boundary can evict the
// entire window in one call — never buffers more than one settle batch
// of pending ops.
func (w *Window) EvictBefore(cutoff time.Time) int {
	n := 0
	for w.headID < w.nextID {
		we := &w.ring[w.headID%uint64(len(w.ring))]
		if !we.ev.Time.Before(cutoff) {
			break
		}
		addCounts(w.counts, we.ent.kids, -we.w)
		sh := w.shards[we.shard]
		sh.pending = append(sh.pending, countOp{id: w.headID, pid: we.ent.pid, evict: true})
		w.pendingOps++
		*we = winEvent{} // drop references so evicted attrs can be collected
		w.headID++
		n++
		if w.pendingOps >= w.settleBatch {
			w.settle()
		}
	}
	return n
}

// grow doubles the ring, repositioning live events by ID.
func (w *Window) grow() {
	old := w.ring
	bigger := make([]winEvent, 2*len(old))
	for id := w.headID; id < w.nextID; id++ {
		bigger[id%uint64(len(bigger))] = old[id%uint64(len(old))]
	}
	w.ring = bigger
}

// settle drains every shard's buffered ops into its per-prefix lists,
// in parallel when more than one shard has work.
func (w *Window) settle() {
	if w.pendingOps == 0 {
		return
	}
	ops := w.pendingOps
	w.pendingOps = 0
	var start time.Time
	if w.OnSettle != nil {
		start = time.Now()
	}
	active := w.active[:0]
	for _, sh := range w.shards {
		if len(sh.pending) > 0 {
			active = append(active, sh)
		}
	}
	w.active = active
	switch {
	case len(active) == 1:
		active[0].apply()
	case w.Runner != nil:
		w.Runner(len(active), func(i int) {
			active[i].apply()
		})
	default:
		var wg sync.WaitGroup
		for _, sh := range active {
			wg.Add(1)
			go func(sh *countShard) {
				defer wg.Done()
				sh.apply()
			}(sh)
		}
		wg.Wait()
	}
	if w.OnSettle != nil {
		w.OnSettle(time.Since(start), ops)
	}
}

// Events returns the live window contents in arrival order, freshly
// allocated.
func (w *Window) Events() event.Stream {
	return w.AppendEvents(make(event.Stream, 0, w.Len()))
}

// AppendEvents appends the live window contents in arrival order to dst
// and returns the extended slice — the allocation-free form of Events
// for callers that keep a reusable scratch buffer.
func (w *Window) AppendEvents(dst event.Stream) event.Stream {
	for id := w.headID; id < w.nextID; id++ {
		dst = append(dst, w.ring[id%uint64(len(w.ring))].ev)
	}
	return dst
}

// TimeRange returns the earliest and latest event times among the live
// window contents, scanning in place. ok is false for an empty window.
func (w *Window) TimeRange() (first, last time.Time, ok bool) {
	if w.headID == w.nextID {
		return time.Time{}, time.Time{}, false
	}
	first = w.ring[w.headID%uint64(len(w.ring))].ev.Time
	last = first
	for id := w.headID + 1; id < w.nextID; id++ {
		t := w.ring[id%uint64(len(w.ring))].ev.Time
		if t.Before(first) {
			first = t
		}
		if t.After(last) {
			last = t
		}
	}
	return first, last, true
}

// Snapshot decomposes the current window contents into components,
// strongest first — the same result Analyze would produce on the slice
// Events() returns, computed from the incrementally maintained tables.
// The window itself is not modified; Add/Evict may continue afterwards.
// The analysis scratch (per-event slices, the count table copy and the
// per-prefix index lists) is owned by the window and reused across
// calls, so a steady-state snapshot allocates only its result.
func (w *Window) Snapshot() []Component {
	w.settle()
	n := w.Len()
	if n == 0 {
		return nil
	}
	if w.snap == nil {
		w.snap = &analysis{cfg: w.cfg, in: w.in}
	}
	a := w.snap
	a.reset(n)
	for i := 0; i < n; i++ {
		we := &w.ring[(w.headID+uint64(i))%uint64(len(w.ring))]
		a.stream[i] = we.ev
		a.ents[i] = we.ent
		a.weights[i] = we.w
		a.alive[i] = true
	}
	// The extraction loop decrements its copy of the count table; the
	// window's stays authoritative. Each prefix lives in exactly one
	// shard, so the per-prefix lists never collide.
	a.counts = append(a.counts[:0], w.counts...)
	for _, sh := range w.shards {
		a.idxArena = sh.mergeEvents(a.eventsByPrefix, w.headID, a.idxArena)
	}
	var out []Component
	for len(out) < a.cfg.MaxComponents {
		comp, ok := a.extract()
		if !ok {
			break
		}
		out = append(out, comp)
	}
	return out
}
