package stemming

import (
	"encoding/binary"
	"fmt"
	"net/netip"
	"sort"

	"rex/internal/event"
)

// Token IDs pack a kind (top 2 bits) and an intern-table index (low 30
// bits) into a uint32, so sequences are flat []uint32 and sub-sequence
// keys are compact byte strings.
const (
	kindShift        = 30
	idxMask   uint32 = (1 << kindShift) - 1
	idBytes          = 4

	// maxInternEntries bounds each intern table: past 2^30 entries an
	// index would bleed into the kind bits and packID would silently
	// corrupt both fields. The tables fail loudly instead.
	maxInternEntries = 1 << kindShift
)

// internIdx converts an intern-table length to the next index, panicking
// (with context) before the index could overflow into the kind bits.
func internIdx(n int, what string) uint32 {
	if n >= maxInternEntries {
		panic(fmt.Sprintf("stemming: %s intern table full (%d entries): token ID space exhausted", what, n))
	}
	return uint32(n)
}

func packID(k Kind, idx uint32) uint32 { return uint32(k-1)<<kindShift | idx }

func unpackID(id uint32) (Kind, uint32) { return Kind(id>>kindShift) + 1, id & idxMask }

// interner assigns dense IDs to peers, nexthops, ASNs and prefixes, and
// interns whole event sequences (see seqEntry). Intern tables only grow;
// a long-lived Window's interner retains every distinct token and
// sequence it has ever seen, which is the deliberate trade that makes
// the steady-state count path allocation-free.
type interner struct {
	peerIDs map[netip.Addr]uint32
	nhIDs   map[netip.Addr]uint32
	asIDs   map[uint32]uint32
	pfxIDs  map[netip.Prefix]uint32
	peers   []netip.Addr
	nhs     []netip.Addr
	asns    []uint32
	pfxs    []netip.Prefix

	// Sequence interning: one entry per distinct packed sequence, keyed
	// by the big-endian byte form. maxSubseqLen is fixed at construction
	// (it shapes each entry's cached key set).
	seqs         map[string]*seqEntry
	maxSubseqLen int
	scratchSeq   []uint32
	scratchRaw   []byte

	// Sub-sequence interning: every distinct sub-sequence key (the
	// big-endian form of >= 2 packed token IDs) gets a dense ID, its
	// index in a Stemming count table. keyStr[id] is the key. IDs are
	// never recycled: they live as long as the seqEntrys that name them.
	keyIDs map[string]uint32
	keyStr []string
}

// seqEntry is one interned event sequence: the packed token IDs, their
// byte encoding, the prefix ID (always the last token), and the dense
// IDs of its every contiguous sub-sequence of >= 2 tokens, resolved
// once. An entry costs a handful of allocations no matter how often its
// sequence recurs — count-table updates then index by these IDs and
// neither hash nor allocate.
type seqEntry struct {
	seq  []uint32
	raw  []byte
	pid  uint32
	kids []uint32
}

func newInterner(maxSubseqLen int) *interner {
	return &interner{
		peerIDs:      make(map[netip.Addr]uint32),
		nhIDs:        make(map[netip.Addr]uint32),
		asIDs:        make(map[uint32]uint32),
		pfxIDs:       make(map[netip.Prefix]uint32),
		seqs:         make(map[string]*seqEntry),
		maxSubseqLen: maxSubseqLen,
		keyIDs:       make(map[string]uint32),
	}
}

func (in *interner) peer(a netip.Addr) uint32 {
	id, ok := in.peerIDs[a]
	if !ok {
		id = packID(KindPeer, internIdx(len(in.peers), "peer"))
		in.peerIDs[a] = id
		in.peers = append(in.peers, a)
	}
	return id
}

func (in *interner) nexthop(a netip.Addr) uint32 {
	id, ok := in.nhIDs[a]
	if !ok {
		id = packID(KindNexthop, internIdx(len(in.nhs), "nexthop"))
		in.nhIDs[a] = id
		in.nhs = append(in.nhs, a)
	}
	return id
}

func (in *interner) as(asn uint32) uint32 {
	id, ok := in.asIDs[asn]
	if !ok {
		id = packID(KindAS, internIdx(len(in.asns), "AS"))
		in.asIDs[asn] = id
		in.asns = append(in.asns, asn)
	}
	return id
}

func (in *interner) prefix(p netip.Prefix) uint32 {
	id, ok := in.pfxIDs[p]
	if !ok {
		id = packID(KindPrefix, internIdx(len(in.pfxs), "prefix"))
		in.pfxIDs[p] = id
		in.pfxs = append(in.pfxs, p)
	}
	return id
}

// tokenCompare orders two token IDs by decoded content: kind first, then
// the kind's natural value order. Unlike comparing the IDs themselves,
// the result does not depend on the order values were interned in.
func (in *interner) tokenCompare(a, b uint32) int {
	if a == b {
		return 0
	}
	ka, ia := unpackID(a)
	kb, ib := unpackID(b)
	if ka != kb {
		if ka < kb {
			return -1
		}
		return 1
	}
	switch ka {
	case KindPeer:
		return in.peers[ia].Compare(in.peers[ib])
	case KindNexthop:
		return in.nhs[ia].Compare(in.nhs[ib])
	case KindAS:
		switch x, y := in.asns[ia], in.asns[ib]; {
		case x < y:
			return -1
		case x > y:
			return 1
		}
	case KindPrefix:
		pa, pb := in.pfxs[ia], in.pfxs[ib]
		if c := pa.Addr().Compare(pb.Addr()); c != 0 {
			return c
		}
		switch {
		case pa.Bits() < pb.Bits():
			return -1
		case pa.Bits() > pb.Bits():
			return 1
		}
	}
	return 0
}

// keyLess orders two equal-length sub-sequence keys token by token using
// tokenCompare.
func (in *interner) keyLess(a, b string) bool {
	for off := 0; off+idBytes <= len(a) && off+idBytes <= len(b); off += idBytes {
		ida := uint32(a[off])<<24 | uint32(a[off+1])<<16 | uint32(a[off+2])<<8 | uint32(a[off+3])
		idb := uint32(b[off])<<24 | uint32(b[off+1])<<16 | uint32(b[off+2])<<8 | uint32(b[off+3])
		if c := in.tokenCompare(ida, idb); c != 0 {
			return c < 0
		}
	}
	return len(a) < len(b)
}

// token decodes an ID back to display form.
func (in *interner) token(id uint32) Token {
	kind, idx := unpackID(id)
	t := Token{Kind: kind}
	switch kind {
	case KindPeer:
		t.Addr = in.peers[idx]
	case KindNexthop:
		t.Addr = in.nhs[idx]
	case KindAS:
		t.AS = in.asns[idx]
	case KindPrefix:
		t.Prefix = in.pfxs[idx]
	}
	return t
}

type analysis struct {
	cfg    Config
	stream event.Stream
	in     *interner

	ents    []*seqEntry // per-event interned sequence
	weights []float64
	alive   []bool
	liveN   int

	// counts is the sub-sequence count table, indexed by dense key ID
	// (see interner.keyStr) — the same representation a Window keeps.
	counts         []float64
	eventsByPrefix map[uint32][]int
	// idxArena backs eventsByPrefix's value slices when the analysis is
	// a Window's reused snapshot scratch (see Window.Snapshot); the batch
	// path builds the lists by plain append instead.
	idxArena []int
}

func newAnalysis(s event.Stream, cfg Config) *analysis {
	a := &analysis{
		cfg:            cfg,
		stream:         s,
		in:             newInterner(cfg.MaxSubseqLen),
		ents:           make([]*seqEntry, len(s)),
		weights:        make([]float64, len(s)),
		alive:          make([]bool, len(s)),
		liveN:          len(s),
		eventsByPrefix: make(map[uint32][]int, len(s)/2),
	}
	for i := range s {
		e := &s[i]
		ent := a.in.seqFor(e)
		a.ents[i] = ent
		a.alive[i] = true
		w := 1.0
		if cfg.Weight != nil {
			w = cfg.Weight(e)
		}
		a.weights[i] = w
		a.eventsByPrefix[ent.pid] = append(a.eventsByPrefix[ent.pid], i)
	}
	a.counts = make([]float64, len(a.in.keyStr))
	for i, ent := range a.ents {
		addCounts(a.counts, ent.kids, a.weights[i])
	}
	return a
}

// reset prepares a reused analysis for n events: slices are regrown in
// place and the map is cleared with its buckets retained, so a
// steady-state Window snapshot reallocates none of its scratch. The
// count table is not touched; Window.Snapshot overwrites it by copy.
func (a *analysis) reset(n int) {
	if cap(a.ents) < n {
		a.stream = make(event.Stream, n)
		a.ents = make([]*seqEntry, n)
		a.weights = make([]float64, n)
		a.alive = make([]bool, n)
	} else {
		a.stream = a.stream[:n]
		a.ents = a.ents[:n]
		a.weights = a.weights[:n]
		a.alive = a.alive[:n]
	}
	a.liveN = n
	if a.eventsByPrefix == nil {
		a.eventsByPrefix = make(map[uint32][]int, 64)
	} else {
		clear(a.eventsByPrefix)
	}
	if cap(a.idxArena) < n {
		a.idxArena = make([]int, 0, n)
	} else {
		a.idxArena = a.idxArena[:0]
	}
}

// seqFor interns an event's sequence form c = x h a1 … an p. Repeat
// sequences — the common case in BGP churn, where one route flaps many
// times — return the existing entry without allocating: the sequence is
// built in scratch buffers and looked up by its byte form before
// anything is materialized.
func (in *interner) seqFor(e *event.Event) *seqEntry {
	seq := in.scratchSeq[:0]
	seq = append(seq, in.peer(e.Peer))
	if e.Attrs != nil {
		if e.Attrs.Nexthop.IsValid() {
			seq = append(seq, in.nexthop(e.Attrs.Nexthop))
		}
		for _, segment := range e.Attrs.ASPath {
			for _, segASN := range segment.ASNs {
				seq = append(seq, in.as(segASN))
			}
		}
	}
	pid := in.prefix(e.Prefix)
	seq = append(seq, pid)
	in.scratchSeq = seq

	raw := in.scratchRaw[:0]
	for _, id := range seq {
		raw = binary.BigEndian.AppendUint32(raw, id)
	}
	in.scratchRaw = raw

	if ent, ok := in.seqs[string(raw)]; ok {
		return ent
	}
	ent := &seqEntry{
		seq: append([]uint32(nil), seq...),
		raw: append([]byte(nil), raw...),
		pid: pid,
	}
	in.buildKeys(ent)
	in.seqs[string(ent.raw)] = ent
	return ent
}

// buildKeys resolves the dense ID of every contiguous sub-sequence of
// >= 2 tokens (capped at maxSubseqLen when > 1), interning keys not seen
// before. Interned keys are substrings of the first naming entry's raw
// bytes, so a new entry costs one string and one ID slice plus its new
// keys' table slots.
func (in *interner) buildKeys(e *seqEntry) {
	maxLen := len(e.seq)
	if in.maxSubseqLen > 1 && in.maxSubseqLen < maxLen {
		maxLen = in.maxSubseqLen
	}
	n := 0
	for start := 0; start < len(e.seq)-1; start++ {
		end := start + maxLen
		if end > len(e.seq) {
			end = len(e.seq)
		}
		if end >= start+2 {
			n += end - start - 1
		}
	}
	s := string(e.raw)
	kids := make([]uint32, 0, n)
	for start := 0; start < len(e.seq)-1; start++ {
		end := start + maxLen
		if end > len(e.seq) {
			end = len(e.seq)
		}
		for stop := start + 2; stop <= end; stop++ {
			key := s[start*idBytes : stop*idBytes]
			id, ok := in.keyIDs[key]
			if !ok {
				id = internIdx(len(in.keyStr), "sub-sequence")
				in.keyIDs[key] = id
				in.keyStr = append(in.keyStr, key)
			}
			kids = append(kids, id)
		}
	}
	e.kids = kids
}

// addCounts adds (or, with negative w, removes) one interned entry's
// sub-sequences into a dense count table. A count that falls to <= 1e-9
// — the float residue of an add/evict pair — becomes exactly 0. Shared
// between batch analysis, the sliding Window and extraction; the
// negative-w path is what makes windows evictable.
func addCounts(counts []float64, kids []uint32, w float64) {
	for _, k := range kids {
		n := counts[k] + w
		if n <= 1e-9 {
			n = 0
		}
		counts[k] = n
	}
}

// best scans the count table for the top-scoring sub-sequence and
// returns its key ID.
func (a *analysis) best() (kid uint32, score float64, count float64, ok bool) {
	var key string
	for id, c := range a.counts {
		if c < a.cfg.MinCount {
			continue
		}
		k := a.in.keyStr[id]
		length := len(k) / idBytes
		s := a.cfg.Score(c, length)
		switch {
		case !ok || s > score:
			kid, key, score, count, ok = uint32(id), k, s, c, true
		case s == score:
			// Deterministic tie-break: longer wins, then smaller token
			// content. Comparing decoded content instead of key IDs or
			// raw key bytes keeps the choice independent of interning
			// order, so a sliding window (whose interner has seen
			// evicted events) and a batch run over the same events pick
			// the same winner.
			if len(k) > len(key) || (len(k) == len(key) && a.in.keyLess(k, key)) {
				kid, key, count = uint32(id), k, c
			}
		}
	}
	return kid, score, count, ok
}

// extract removes and returns the strongest component of the remaining
// stream.
func (a *analysis) extract() (Component, bool) {
	if a.liveN < a.cfg.MinEvents {
		return Component{}, false
	}
	kid, score, count, ok := a.best()
	if !ok || score < a.cfg.MinScore {
		return Component{}, false
	}
	want := decodeKey(a.in.keyStr[kid])

	// P: prefixes of live events whose sequence contains s', in
	// first-appearance order.
	var prefixIDs []uint32
	seenPfx := make(map[uint32]struct{}, 16)
	for i, ent := range a.ents {
		if !a.alive[i] {
			continue
		}
		if seqContains(ent.seq, want) {
			pid := ent.pid
			if _, dup := seenPfx[pid]; !dup {
				seenPfx[pid] = struct{}{}
				prefixIDs = append(prefixIDs, pid)
			}
		}
	}
	if len(prefixIDs) == 0 {
		return Component{}, false
	}

	// E: every live event touching a prefix in P.
	var eventIdx []int
	for _, pid := range prefixIDs {
		for _, i := range a.eventsByPrefix[pid] {
			if a.alive[i] {
				eventIdx = append(eventIdx, i)
			}
		}
	}
	sort.Ints(eventIdx)
	for _, i := range eventIdx {
		a.alive[i] = false
		a.liveN--
		addCounts(a.counts, a.ents[i].kids, -a.weights[i])
	}

	comp := Component{
		Score:    score,
		Count:    int(count + 0.5),
		Prefixes: make([]netip.Prefix, len(prefixIDs)),
	}
	comp.Subsequence = make([]Token, len(want))
	for i, id := range want {
		comp.Subsequence[i] = a.in.token(id)
	}
	comp.Stem = Stem{
		From: comp.Subsequence[len(want)-2],
		To:   comp.Subsequence[len(want)-1],
	}
	for i, pid := range prefixIDs {
		_, idx := unpackID(pid)
		comp.Prefixes[i] = a.in.pfxs[idx]
	}
	comp.EventIndexes = eventIdx
	comp.First = a.stream[eventIdx[0]].Time
	comp.Last = comp.First
	for _, i := range eventIdx {
		t := a.stream[i].Time
		if t.Before(comp.First) {
			comp.First = t
		}
		if t.After(comp.Last) {
			comp.Last = t
		}
	}
	return comp, true
}

func decodeKey(key string) []uint32 {
	out := make([]uint32, len(key)/idBytes)
	for i := range out {
		out[i] = binary.BigEndian.Uint32([]byte(key[i*idBytes : (i+1)*idBytes]))
	}
	return out
}

// seqContains reports whether want occurs as a contiguous run in seq.
func seqContains(seq, want []uint32) bool {
	if len(want) == 0 || len(want) > len(seq) {
		return false
	}
outer:
	for i := 0; i+len(want) <= len(seq); i++ {
		for j, id := range want {
			if seq[i+j] != id {
				continue outer
			}
		}
		return true
	}
	return false
}
