package relay

import (
	"fmt"
	"math"
	"net/netip"
	"time"

	"rex/internal/core/pipeline"
	"rex/internal/event"
	"rex/internal/journal"
	"rex/internal/obs"
	"rex/internal/rib"
)

// Analysis-node durability: the receiver's role on a journal.Store.
// With ReceiverConfig.Dir set, the receiver journals the merged stream
// so a restarted node recovers like a collector — from local disk plus
// a bounded resend — instead of refetching every feed from zero:
//
//   - Release path: every released event is appended in release order
//     (the MergeStreams order) before it reaches the pipeline.
//   - Acks: while durability is on, every ack — the handshake resume ack
//     included — carries the feed's durable cursor, the one the last
//     checkpoint recorded. Feeds trim to acks and resume from the
//     handshake ack, so the receiver must not advertise state a crash
//     could forget; a reconnecting feed resends at most one checkpoint
//     interval, which the dedup cursor drops (and still acks).
//   - Recovery: the store drops the journal tail above the checkpoint —
//     merged records carry no feed attribution, so they cannot advance
//     cursors, and the feeds still hold them below their un-acked
//     tails. The restored trigger state keeps the replay below the
//     checkpoint silent: no tick or spike re-fires for a stream
//     position the crashed process already emitted.
//
// The shadow table replays correctly: the checkpoint table is the state
// at NextSeq, replay re-applies [ReplayLow, NextSeq) on top, and the
// last suffix write of every key it touches is that key's state at
// NextSeq. Mid-replay regressions are invisible: replay emits nothing.

// RecoveryStats summarizes what a durable receiver rebuilt at startup.
type RecoveryStats struct {
	// HadCheckpoint is false on a cold start (empty or checkpoint-less
	// directory).
	HadCheckpoint bool
	// Truncated counts orphan journal records dropped above the
	// checkpoint; the feeds resend them from the durable cursors.
	Truncated uint64
	// Replayed counts journal records re-ingested silently to rebuild
	// the analysis window.
	Replayed uint64
	// RestoredRoutes counts routes restored from the checkpoint tables.
	RestoredRoutes int
	// ResumeSeq is the merged-journal sequence the writer resumed at.
	ResumeSeq uint64
}

// routeKey names one route in the shadow table.
type routeKey struct {
	peer   netip.Addr
	prefix netip.Prefix
}

// persister is the receiver's durability sidecar. The receiver holds no
// RIB of its own, so table shadows the released stream's routes: just
// enough state to seed the pipeline's TAMP tables after a restart,
// rendered as the checkpoint's Peers section. table is guarded by
// Receiver.emitMu, which the release path and the checkpoint hold.
type persister struct {
	st    *journal.Store
	table map[routeKey]*rib.Route
	stats RecoveryStats
}

// RecoveryStats reports what startup recovery rebuilt; ok is false for
// a memory-only receiver.
func (r *Receiver) RecoveryStats() (RecoveryStats, bool) {
	if r.pers == nil {
		return RecoveryStats{}, false
	}
	return r.pers.stats, true
}

// openDurability recovers cfg.Dir and leaves the receiver ready to
// journal. Called from OpenReceiver before any goroutine starts, so no
// locking is needed beyond the pipeline's own.
func (r *Receiver) openDurability() error {
	p := r.cfg.Pipeline
	ps := &persister{table: map[routeKey]*rib.Route{}}
	p.BeginRecovery()
	defer p.EndRecovery()
	st, rec, err := journal.OpenStore(r.cfg.Dir,
		journal.StoreOptions{Fsync: r.cfg.Fsync, Window: r.cfg.Window, DropOrphans: true},
		func(ckpt *journal.Checkpoint) {
			if ckpt != nil {
				r.restore(ps, ckpt)
			}
		},
		func(_ uint64, e *event.Event) {
			p.Ingest(*e)
			ps.apply(e)
		})
	if err != nil {
		return err
	}
	ps.st = st
	ps.stats.Truncated, ps.stats.Replayed, ps.stats.ResumeSeq = rec.Truncated, rec.Replayed, st.NextSeq()
	mRecoveredEvents.Add(rec.Replayed)
	r.pers = ps
	return nil
}

// restore brings back what ckpt recorded: per-feed cursors, the shadow
// table (also seeded into the pipeline) and the pipeline's trigger
// state.
func (r *Receiver) restore(ps *persister, ckpt *journal.Checkpoint) {
	now := time.Now()
	for _, fc := range ckpt.Feeds {
		f := r.feeds[fc.ID]
		if f == nil {
			if len(r.cfg.ExpectFeeds) > 0 {
				// Dropped from the roster since the checkpoint. Its
				// released events are merged below NextSeq already;
				// there is nothing to resume.
				continue
			}
			f = r.addFeed(fc.ID, now)
		}
		f.nextSeq, f.released, f.durable = fc.NextSeq, fc.NextSeq, fc.NextSeq
		f.watermark, f.relWM = fc.Watermark, fc.Watermark
		mFeedNextSeq.With(fc.ID).Set(int64(fc.NextSeq))
		mDurableSeq.With(fc.ID).Set(int64(fc.NextSeq))
	}
	for _, pt := range ckpt.Peers {
		for _, rt := range pt.Routes {
			ps.table[routeKey{pt.Peer, rt.Prefix}] = rt
		}
	}
	ps.stats.HadCheckpoint, ps.stats.RestoredRoutes = true, ckpt.RouteCount()
	for _, e := range ckpt.SeedEvents() {
		r.cfg.Pipeline.Seed(*e)
	}
	if pp := ckpt.Pipe; pp != nil {
		r.cfg.Pipeline.RestoreTriggers(pipeline.TriggerState{
			Clock: pp.Clock, NextTick: pp.NextTick, CurBucket: pp.CurBucket, LastSpike: pp.LastSpike,
		})
	}
	obs.Logf(obs.Info, "relay", "checkpoint seq %d: restored %d feed cursors, %d routes (taken %s)",
		ckpt.NextSeq, len(ckpt.Feeds), ckpt.RouteCount(), ckpt.TakenAt.Format(time.RFC3339))
}

// apply folds one released event into the shadow table.
func (ps *persister) apply(e *event.Event) {
	k := routeKey{e.Peer, e.Prefix}
	switch e.Type {
	case event.Announce:
		ps.table[k] = &rib.Route{Prefix: e.Prefix, Peer: e.Peer, Attrs: e.Attrs, LearnedAt: e.Time}
	case event.Withdraw:
		delete(ps.table, k)
	}
}

// journalBatch appends a released batch to the merged journal, in
// release order, before it reaches the pipeline. Caller holds emitMu. A
// write error is loud but not fatal — the receiver keeps analyzing
// (availability over durability) while the failure keeps checkpoints
// from advancing the durable floor past whatever did land.
func (r *Receiver) journalBatch(batch []event.Event) {
	ps := r.pers
	for i := range batch {
		e := &batch[i]
		if _, err := ps.st.Append(e); err != nil {
			mJournalErrors.Inc()
			obs.Logf(obs.Error, "relay", "merged journal append: %v", err)
			continue
		}
		ps.apply(e)
		mJournaled.Inc()
	}
}

// checkpoint captures one consistent durable cut: journal position,
// pipeline trigger state, shadow table, and per-feed released cursors.
// emitMu keeps releases from interleaving, and the store syncs the
// journal at NextSeq before fill runs TriggerQuery, so the trigger
// state captured is the state at exactly NextSeq (every released event
// below it both journaled and ingested, nothing since). Only after the
// checkpoint is durable are the released cursors promoted to the ack
// floor.
func (r *Receiver) checkpoint() error {
	ps := r.pers
	r.emitMu.Lock()
	defer r.emitMu.Unlock()
	err := ps.st.Checkpoint(func(ck *journal.Checkpoint) (time.Time, error) {
		ts, ok := r.cfg.Pipeline.TriggerQuery()
		if !ok {
			return time.Time{}, fmt.Errorf("pipeline closed mid-checkpoint")
		}
		// Sink-durability wait: every snapshot this cut covers must be
		// through the sink before the checkpoint lands, or a crash
		// between emission and sink would lose the snapshot for good
		// (the restart, restored to this cut, would never re-emit it).
		// emitMu is held, so ts.Emitted is final; the drain goroutine
		// advances sunk without needing the Snapshots() consumer
		// (counted before the forward), so this converges.
		for deadline := time.Now().Add(10 * time.Second); r.cfg.SnapshotSink != nil && r.sunk.Load() < ts.Emitted; {
			if time.Now().After(deadline) {
				return time.Time{}, fmt.Errorf("snapshot sink stalled (%d of %d sunk)", r.sunk.Load(), ts.Emitted)
			}
			time.Sleep(time.Millisecond)
		}
		routes := make([]*rib.Route, 0, len(ps.table))
		for _, rt := range ps.table {
			routes = append(routes, rt)
		}
		ck.Peers = journal.PeerTablesOf(routes)
		ck.Pipe = &journal.PipeState{Clock: ts.Clock, NextTick: ts.NextTick, CurBucket: ts.CurBucket, LastSpike: ts.LastSpike}
		r.mu.Lock()
		for _, id := range r.order {
			f := r.feeds[id]
			ck.Feeds = append(ck.Feeds, journal.FeedCursor{ID: id, NextSeq: f.released, Watermark: f.relWM})
		}
		r.mu.Unlock()
		return ts.Clock, nil
	}, math.MaxUint64)
	if err != nil {
		mCheckpointErrors.Inc()
		return err
	}
	r.mu.Lock()
	for _, id := range r.order {
		f := r.feeds[id]
		f.durable = f.released
		mDurableSeq.With(id).Set(int64(f.durable))
	}
	r.mu.Unlock()
	mCheckpoints.Inc()
	return nil
}

// checkpointLoop paces periodic checkpoints until Close/Abort.
func (r *Receiver) checkpointLoop() {
	defer r.wg.Done()
	t := time.NewTicker(r.cfg.CheckpointEvery)
	defer t.Stop()
	for {
		select {
		case <-r.closed:
			return
		case <-t.C:
			if err := r.checkpoint(); err != nil {
				obs.Logf(obs.Error, "relay", "periodic checkpoint: %v", err)
			}
		}
	}
}
