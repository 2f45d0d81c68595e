package stemming

// The sliding window's per-shard event lists. Each shard owns the
// per-prefix live event lists for the prefixes hashed to it. Because
// prefixes partition across shards, the lists merge into the combined
// per-prefix index by disjoint union. Sub-sequence counts are not
// sharded: the Window keeps them in one table, updated in arrival order
// (DESIGN.md §10).

// countOp is one buffered shard operation: event id joins (or, on
// evict, leaves) prefix pid's live list. Applying an op allocates
// nothing once the list has reached its high-water mark.
type countOp struct {
	id    uint64
	pid   uint32
	evict bool
}

// idList is one prefix's live event IDs in arrival order, stored as a
// head-trimmed FIFO: ids[head:] is live. Trimming advances head instead
// of re-slicing the front away, so the backing array keeps its spare
// front capacity and is compacted in place (amortized O(1)) — the
// steady-state add/evict churn of a flapping prefix allocates nothing.
// An emptied list keeps its entry and backing array for the prefix's
// next flap, the same only-grows trade the interner makes.
type idList struct {
	ids  []uint64
	head int
}

// countShard owns the live event lists of the prefixes hashed to it.
type countShard struct {
	byPrefix map[uint32]*idList // live event IDs per prefix, arrival order
	pending  []countOp
}

func newCountShard() *countShard {
	return &countShard{byPrefix: make(map[uint32]*idList, 64)}
}

// apply replays the shard's buffered ops in order.
func (sh *countShard) apply() {
	for _, op := range sh.pending {
		l := sh.byPrefix[op.pid]
		if !op.evict {
			if l == nil {
				l = &idList{}
				sh.byPrefix[op.pid] = l
			}
			l.ids = append(l.ids, op.id)
			continue
		}
		if l == nil {
			continue
		}
		live := l.ids[l.head:]
		if len(live) > 0 && live[0] == op.id {
			// FIFO eviction always removes the list head.
			l.head++
		} else {
			for i, id := range live {
				if id == op.id {
					copy(live[i:], live[i+1:])
					l.ids = l.ids[:len(l.ids)-1]
					break
				}
			}
		}
		if l.head == len(l.ids) {
			l.ids, l.head = l.ids[:0], 0
		} else if l.head > 32 && l.head > len(l.ids)/2 {
			n := copy(l.ids, l.ids[l.head:])
			l.ids, l.head = l.ids[:n], 0
		}
	}
	sh.pending = sh.pending[:0]
}

// mergeEvents copies the shard's live event lists into dst, rebasing
// event IDs to indexes relative to head. Prefix keys never collide
// across shards (each prefix lives in exactly one shard). The value
// slices are carved from arena while it has spare capacity (the reused
// snapshot scratch presizes it to the window length), falling back to
// fresh allocations when it runs out; the extended arena is returned.
func (sh *countShard) mergeEvents(dst map[uint32][]int, head uint64, arena []int) []int {
	for pid, l := range sh.byPrefix {
		ids := l.ids[l.head:]
		if len(ids) == 0 {
			continue // retained entry for a currently-quiet prefix
		}
		var idxs []int
		if n := len(arena) + len(ids); n <= cap(arena) {
			idxs = arena[len(arena):n:n]
			arena = arena[:n]
		} else {
			idxs = make([]int, len(ids))
		}
		for i, id := range ids {
			idxs[i] = int(id - head)
		}
		dst[pid] = idxs
	}
	return arena
}
