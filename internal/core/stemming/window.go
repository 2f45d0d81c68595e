package stemming

import (
	"net/netip"
	"runtime"
	"time"

	"rex/internal/event"
	"rex/internal/fifo"
)

// Window maintains the Stemming count table over a sliding set of
// events, so a live feed can be decomposed repeatedly without re-counting
// the whole window each time. Events enter with Add and leave in arrival
// (FIFO) order with EvictBefore; both directions reuse the batch
// analysis' count arithmetic — eviction is an add with negative weight.
//
// The window keeps the two tables a decomposition starts from, both
// updated inline by Add and EvictBefore: the sub-sequence counts, one
// table indexed by dense sub-sequence ID, and the per-prefix index, each
// prefix's live event IDs in arrival order, indexed by the prefix's
// interned index. A snapshot starts from a plain copy of the first and
// a walk of the second.
//
// A Window is NOT safe for concurrent use: one goroutine calls Add,
// EvictBefore and Snapshot.
type Window struct {
	cfg Config
	in  *interner
	// shards is the modulus of ShardFor's prefix→shard assignment, the
	// layout key of the pipeline's TAMP shards. The window's own tables
	// are not sharded.
	shards int

	// counts is the sub-sequence count table, indexed by the interner's
	// dense key IDs. It grows as new keys are interned.
	counts []float64

	// lists is the per-prefix index: lists[i] holds the live event IDs,
	// in arrival order, of the prefix with interned index i. It grows as
	// new prefixes are interned. Eviction is FIFO over the whole ring, so
	// the event leaving is always the front of its prefix's list. An
	// emptied list keeps its backing array for the prefix's next flap,
	// the same only-grows trade the interner makes.
	lists []fifo.Queue[uint64]

	// ring holds the live events; live IDs are [headID, nextID) and an
	// event with ID i lives at ring[i % len(ring)].
	ring           []winEvent
	headID, nextID uint64

	// snap is the reused Snapshot scratch (slices regrown in place, maps
	// cleared with buckets retained), so steady-state window turnover
	// allocates nothing beyond genuinely new interned sequences.
	snap *analysis
}

// winEvent is one live event with its interned sequence entry.
type winEvent struct {
	ev  event.Event
	ent *seqEntry
	w   float64
}

// NewWindow builds an empty sliding window. shards is the modulus of
// ShardFor and of Add's returned shard index (<= 0 selects
// runtime.GOMAXPROCS(0)); it does not change the analysis. cfg is
// interpreted exactly as Analyze does.
func NewWindow(cfg Config, shards int) *Window {
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	cfg = cfg.withDefaults()
	return &Window{
		cfg:    cfg,
		in:     newInterner(cfg.MaxSubseqLen),
		shards: shards,
		ring:   make([]winEvent, 1024),
	}
}

// Len returns the number of live events in the window.
func (w *Window) Len() int { return int(w.nextID - w.headID) }

// ShardFor returns the shard index of prefix p, the layout key the
// parallel pipeline routes TAMP shadow updates by. The assignment is a
// pure content hash of the prefix — NOT its intern-order ID — so it is
// identical across runs, machines, and recovery paths (a fresh stream
// and a checkpoint-seeded replay intern prefixes in different orders
// but shard them the same).
func (w *Window) ShardFor(p netip.Prefix) int {
	return shardOfPrefix(p, w.shards)
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

// Add appends one event to the window and returns ShardFor(e.Prefix),
// the TAMP shard the caller routes the event's routing change to.
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
	w.ring[id%uint64(len(w.ring))] = winEvent{ev: e, ent: ent, w: weight}
	if n := len(w.in.keyStr); n > len(w.counts) {
		w.counts = append(w.counts, make([]float64, n-len(w.counts))...)
	}
	addCounts(w.counts, ent.kids, weight)
	if n := len(w.in.pfxs); n > len(w.lists) {
		w.lists = append(w.lists, make([]fifo.Queue[uint64], n-len(w.lists))...)
	}
	_, pi := unpackID(ent.pid)
	w.lists[pi].Push(id)
	return shardOfPrefix(e.Prefix, w.shards)
}

// EvictBefore removes, in arrival order, the leading run of events whose
// time is before cutoff, and returns how many were evicted. An
// out-of-order event timed at or after cutoff stops the run: the window
// is FIFO over a near-time-ordered feed, matching how a collector emits.
func (w *Window) EvictBefore(cutoff time.Time) int {
	n := 0
	for w.headID < w.nextID {
		we := &w.ring[w.headID%uint64(len(w.ring))]
		if !we.ev.Time.Before(cutoff) {
			break
		}
		addCounts(w.counts, we.ent.kids, -we.w)
		_, pi := unpackID(we.ent.pid)
		w.lists[pi].Pop() // the oldest live event is its prefix's oldest
		*we = winEvent{}  // drop references so evicted attrs can be collected
		w.headID++
		n++
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
	// window's stays authoritative. The per-prefix index lists are
	// rebased to window positions and carved from the arena, which
	// reset sized to the window: the lists hold exactly its events.
	a.counts = append(a.counts[:0], w.counts...)
	for pi := range w.lists {
		ids := w.lists[pi].Items()
		if len(ids) == 0 {
			continue // a currently-quiet prefix
		}
		start := len(a.idxArena)
		for _, id := range ids {
			a.idxArena = append(a.idxArena, int(id-w.headID))
		}
		end := len(a.idxArena)
		a.eventsByPrefix[packID(KindPrefix, uint32(pi))] = a.idxArena[start:end:end]
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
