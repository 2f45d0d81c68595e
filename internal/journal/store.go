package journal

import (
	"fmt"
	"slices"
	"time"

	"rex/internal/event"
	"rex/internal/obs"
	"rex/internal/rib"
)

const (
	// timeIndexStride samples one (seq, time) pair per this many
	// events; replay floors are at worst this many events conservative.
	timeIndexStride = 64
	// keepCheckpoints is how many checkpoint files survive a prune.
	keepCheckpoints = 3
)

// StoreOptions are the knobs on which the two durable roles differ.
type StoreOptions struct {
	// Fsync is the journal writer's sync policy.
	Fsync FsyncPolicy
	// Window is the analysis window replay must rebuild.
	Window time.Duration
	// DropOrphans discards the journal tail above the checkpoint at
	// open (the relay node: feeds resend it). A collector's own tail is
	// authoritative and replays.
	DropOrphans bool
}

// Store is the durability path both daemon roles share: the journal
// Writer, the sequence→time index that turns the analysis window into a
// replay floor, and the checkpoint cycle. Its methods are safe for
// concurrent use; the role guards whatever its own sections read.
type Store struct {
	dir    string
	window time.Duration
	w      *Writer
	ix     *TimeIndex
}

// OpenStore recovers dir and leaves it open for appends. It loads the
// newest checkpoint once, drops the tail above it when DropOrphans is
// set, hands the checkpoint (nil on a cold start) to restore, replays
// every intact record from the checkpoint's ReplayLow through replay in
// sequence order while indexing it, and reopens the writer at the
// recovered end. The caller brackets the call with the pipeline's
// recovery span when it needs one.
func OpenStore(dir string, opts StoreOptions, restore func(*Checkpoint),
	replay func(seq uint64, e *event.Event)) (*Store, *RecoveredState, error) {
	ckpt, err := LoadLatestCheckpoint(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("load checkpoint: %w", err)
	}
	var truncated uint64
	if opts.DropOrphans {
		var floor uint64
		if ckpt != nil {
			floor = ckpt.NextSeq
		}
		if truncated, err = TruncateFrom(dir, floor); err != nil {
			return nil, nil, fmt.Errorf("truncate orphan tail: %w", err)
		}
	}
	restore(ckpt)
	s := &Store{dir: dir, window: opts.Window, ix: NewTimeIndex(timeIndexStride)}
	st, err := Recover(dir, ckpt, func(seq uint64, e *event.Event) error {
		replay(seq, e)
		s.ix.Observe(seq, e.Time)
		return nil
	})
	if err != nil {
		return nil, nil, fmt.Errorf("journal replay: %w", err)
	}
	st.Truncated = truncated
	if s.w, err = Open(dir, Options{Fsync: opts.Fsync, StartSeq: st.EndSeq}); err != nil {
		return nil, nil, fmt.Errorf("journal open: %w", err)
	}
	return s, st, nil
}

// Append journals one event and indexes its time.
func (s *Store) Append(e *event.Event) (uint64, error) {
	seq, err := s.w.Append(e)
	if err == nil {
		s.ix.Observe(seq, e.Time)
	}
	return seq, err
}

// NextSeq is the sequence the next Append will receive.
func (s *Store) NextSeq() uint64 { return s.w.NextSeq() }

// MaxTime is the newest event time journaled or replayed so far.
func (s *Store) MaxTime() time.Time { return s.ix.Max() }

// Checkpoint writes one consistent cut. It reads NextSeq and syncs the
// journal first, so every record the checkpoint covers is durable; then
// fill adds the role's sections to ck and returns the role's event-time
// clock, from which the replay floor of the analysis window follows.
// Once the checkpoint is written it is durable: pruning old checkpoints
// and trimming the journal to min(ReplayLow, trimCap) only log their
// failures. trimCap keeps records a downstream consumer still needs.
func (s *Store) Checkpoint(fill func(ck *Checkpoint) (clock time.Time, err error), trimCap uint64) error {
	nextSeq := s.w.NextSeq()
	if err := s.w.Sync(); err != nil {
		return fmt.Errorf("journal sync: %w", err)
	}
	ck := &Checkpoint{NextSeq: nextSeq, ReplayLow: nextSeq, TakenAt: time.Now()}
	clock, err := fill(ck)
	if err != nil {
		return err
	}
	if !clock.IsZero() {
		ck.WindowStart = clock.Add(-s.window)
		if low := s.ix.LowWater(ck.WindowStart); low < nextSeq {
			ck.ReplayLow = low
		}
	}
	if _, err := WriteCheckpoint(s.dir, ck); err != nil {
		return fmt.Errorf("write checkpoint: %w", err)
	}
	if _, err := PruneCheckpoints(s.dir, keepCheckpoints); err != nil {
		obs.Logf(obs.Warn, "journal", "prune checkpoints: %v", err)
	}
	floor := min(ck.ReplayLow, trimCap)
	if _, err := s.w.TrimTo(floor); err != nil {
		obs.Logf(obs.Warn, "journal", "journal trim: %v", err)
	}
	obs.Logf(obs.Debug, "journal", "checkpoint at seq %d (replay floor %d, trim floor %d, %d routes)",
		nextSeq, ck.ReplayLow, floor, ck.RouteCount())
	return nil
}

// Close syncs and closes the journal writer.
func (s *Store) Close() error { return s.w.Close() }

// PeerTablesOf groups routes into the checkpoint's Peers section,
// sorting them in place by peer and, within a peer, by prefix, so the
// checkpoint bytes are a deterministic function of the route set.
func PeerTablesOf(routes []*rib.Route) []PeerTable {
	slices.SortFunc(routes, func(a, b *rib.Route) int {
		if c := a.Peer.Compare(b.Peer); c != 0 {
			return c
		}
		if c := a.Prefix.Addr().Compare(b.Prefix.Addr()); c != 0 {
			return c
		}
		return a.Prefix.Bits() - b.Prefix.Bits()
	})
	var out []PeerTable
	for i := 0; i < len(routes); {
		j := i + 1
		for j < len(routes) && routes[j].Peer == routes[i].Peer {
			j++
		}
		out = append(out, PeerTable{Peer: routes[i].Peer, Routes: routes[i:j:j]})
		i = j
	}
	return out
}
