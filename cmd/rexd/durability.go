// The daemon's durability layer: glue between the collector/pipeline
// pair and internal/journal. Startup recovers whatever a previous
// process left behind (checkpoint, then journal tail), the intake's
// journal hook appends every live event, and a periodic checkpoint
// bounds both replay time and journal growth.
package main

import (
	"net/netip"
	"sort"
	"sync"
	"time"

	"rex/internal/collector"
	"rex/internal/core/pipeline"
	"rex/internal/event"
	"rex/internal/journal"
	"rex/internal/obs"
	"rex/internal/rib"
)

// timeIndexStride samples one (seq, time) pair per this many journaled
// events; checkpoint replay floors are at worst this many events
// conservative.
const timeIndexStride = 64

// durability owns the journal writer, the sequence→time index that
// turns the analysis window into a replay floor, and the checkpoint
// cycle.
type durability struct {
	dir    string
	window time.Duration
	w      *journal.Writer
	ix     *journal.TimeIndex

	// restored/replayed describe what startup recovery found; the live
	// test asserts on them and the log line reports them.
	restored int
	replayed uint64

	mu       sync.Mutex
	lastTime time.Time // running max of journaled event times

	// Relay wiring (set by setRelay when -relay-to is active): wakeFeed
	// nudges the feed after every append, ackFloor bounds checkpoint
	// trimming to the receiver's acked cursor so un-relayed events are
	// never trimmed away — a restart resumes relaying from the journal.
	wakeFeed func()
	ackFloor func() uint64
}

// setRelay connects a relay feed to the journal lifecycle. Call before
// live sessions start delivering events.
func (d *durability) setRelay(wake func(), acked func() uint64) {
	d.mu.Lock()
	d.wakeFeed = wake
	d.ackFloor = acked
	d.mu.Unlock()
}

// openDurability runs the recovery path into p and c, then opens the
// writer for live appends. Order matters: the collector's tables and
// the pipeline's seeds must be in place before the journal tail is
// replayed on top of them, and the tail replay must finish before the
// writer resumes numbering at its end.
func openDurability(dir string, fsync journal.FsyncPolicy, window time.Duration,
	p *pipeline.Pipeline, c *collector.Collector) (*durability, error) {
	d := &durability{dir: dir, window: window, ix: journal.NewTimeIndex(timeIndexStride)}

	// Bracket seeding + tail replay: live sessions may already be
	// delivering events concurrently, and a checkpoint seed arriving
	// after a live event for the same route key is by definition stale —
	// the recovery span makes the pipeline drop it instead of letting it
	// resurrect an overwritten or withdrawn route. The span also makes
	// the replay's snapshot triggers coalesce into one snapshot of the
	// recovered state, emitted at EndRecovery.
	p.BeginRecovery()
	defer p.EndRecovery()

	ckpt, err := journal.LoadLatestCheckpoint(dir)
	if err != nil {
		return nil, err
	}
	if ckpt != nil {
		for _, pt := range ckpt.Peers {
			d.restored += c.RestoreTable(pt.Peer, pt.Routes)
		}
		for _, e := range ckpt.SeedEvents() {
			p.Seed(*e)
		}
		obs.Logf(obs.Info, "rexd", "checkpoint seq %d: restored %d routes across %d peers (taken %s)",
			ckpt.NextSeq, d.restored, len(ckpt.Peers), ckpt.TakenAt.Format(time.RFC3339))
	}

	st, err := journal.Recover(dir, func(seq uint64, e *event.Event) error {
		p.Ingest(*e)
		d.observe(seq, e.Time)
		return nil
	})
	if err != nil {
		return nil, err
	}
	d.replayed = st.Replayed
	if st.Replayed > 0 || st.Stats.Skipped > 0 || st.Stats.Abandoned > 0 {
		obs.Logf(obs.Info, "rexd", "journal replayed %d events from seq %d (skipped %d, abandoned %d)",
			st.Replayed, st.ReplayFrom, st.Stats.Skipped, st.Stats.Abandoned)
	}

	w, err := journal.Open(dir, journal.Options{Fsync: fsync, StartSeq: st.EndSeq})
	if err != nil {
		return nil, err
	}
	d.w = w
	obs.Logf(obs.Info, "rexd", "journal open in %s at seq %d (fsync=%v)", dir, w.NextSeq(), fsync)
	return d, nil
}

// journalEvent is the intake's durability hook: append, then feed the
// time index that checkpoint replay floors come from.
func (d *durability) journalEvent(e *event.Event) error {
	seq, err := d.w.Append(e)
	if err != nil {
		return err
	}
	d.observe(seq, e.Time)
	d.mu.Lock()
	wake := d.wakeFeed
	d.mu.Unlock()
	if wake != nil {
		wake()
	}
	return nil
}

func (d *durability) observe(seq uint64, t time.Time) {
	d.ix.Observe(seq, t)
	d.mu.Lock()
	if t.After(d.lastTime) {
		d.lastTime = t
	}
	d.mu.Unlock()
}

// checkpoint captures the collector's tables and trims what the
// checkpoint makes replayable. The sequence-ordered contract: NextSeq
// is read first, the journal is synced so no covered record can be
// torn away, and only then are the tables snapshotted — so every
// record below NextSeq is both durable and reflected in the snapshot.
func (d *durability) checkpoint(c *collector.Collector) error {
	nextSeq := d.w.NextSeq()
	if err := d.w.Sync(); err != nil {
		return err
	}
	d.mu.Lock()
	last := d.lastTime
	d.mu.Unlock()
	ck := &journal.Checkpoint{NextSeq: nextSeq, ReplayLow: nextSeq, TakenAt: time.Now()}
	if !last.IsZero() {
		// Replay must rebuild the analysis window: floor at the oldest
		// event the window still holds, in event time.
		ck.WindowStart = last.Add(-d.window)
		if low := d.ix.LowWater(ck.WindowStart); low < nextSeq {
			ck.ReplayLow = low
		}
	}
	ck.Peers = peerTables(c)
	if _, err := journal.WriteCheckpoint(d.dir, ck); err != nil {
		return err
	}
	if _, err := journal.PruneCheckpoints(d.dir, 3); err != nil {
		return err
	}
	// Trim no further than the relay receiver has acked: records the
	// analysis node has not durably received stay on disk, and a
	// restarted daemon resumes relaying them from the journal.
	floor := ck.ReplayLow
	d.mu.Lock()
	ackFloor := d.ackFloor
	d.mu.Unlock()
	if ackFloor != nil {
		if a := ackFloor(); a < floor {
			floor = a
		}
	}
	if _, err := d.w.TrimTo(floor); err != nil {
		return err
	}
	obs.Logf(obs.Debug, "rexd", "checkpoint at seq %d (replay floor %d, trim floor %d, %d routes)",
		ck.NextSeq, ck.ReplayLow, floor, ck.RouteCount())
	return nil
}

// close takes the final checkpoint — the next start then replays next
// to nothing — and closes the writer. Call only after the collector
// and intake have drained, so the checkpoint covers everything.
func (d *durability) close(c *collector.Collector) error {
	err := d.checkpoint(c)
	if cerr := d.w.Close(); err == nil {
		err = cerr
	}
	return err
}

// peerTables snapshots the collector's routes grouped per peer, sorted
// by peer address as the checkpoint format expects.
func peerTables(c *collector.Collector) []journal.PeerTable {
	byPeer := map[netip.Addr][]*rib.Route{}
	for _, r := range c.Routes() {
		byPeer[r.Peer] = append(byPeer[r.Peer], r)
	}
	out := make([]journal.PeerTable, 0, len(byPeer))
	for peer, routes := range byPeer {
		out = append(out, journal.PeerTable{Peer: peer, Routes: routes})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Peer.Compare(out[j].Peer) < 0 })
	return out
}
