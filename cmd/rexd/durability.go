// The collector role on a journal.Store: startup recovers what a
// previous process left behind, the intake's journal hook appends every
// live event, and periodic checkpoints bound replay time and journal
// growth.
package main

import (
	"math"
	"sync/atomic"
	"time"

	"rex/internal/collector"
	"rex/internal/core/pipeline"
	"rex/internal/event"
	"rex/internal/journal"
	"rex/internal/obs"
	"rex/internal/relay"
)

// durability is the journal store plus the collector role's parts: the
// tables a checkpoint carries and the relay feed wiring.
type durability struct {
	st *journal.Store

	// restored/replayed count what startup recovery rebuilt.
	restored int
	replayed uint64

	// feed, set when -relay-to is active, is woken after every append,
	// and its acked cursor caps checkpoint trimming so un-relayed events
	// stay on disk for a restart to resume relaying from.
	feed atomic.Pointer[relay.Feed]
}

// openDurability recovers into c and p — checkpoint tables and seeds
// first, then the journal tail on top — and opens the journal for live
// appends.
func openDurability(dir string, fsync journal.FsyncPolicy, window time.Duration,
	p *pipeline.Pipeline, c *collector.Collector) (*durability, error) {
	d := &durability{}

	// The recovery span drops a checkpoint seed that arrives after a
	// live event for the same route key (it would resurrect a stale
	// route), and coalesces the replay's snapshot triggers into one
	// snapshot of the recovered state at EndRecovery.
	p.BeginRecovery()
	defer p.EndRecovery()

	st, rec, err := journal.OpenStore(dir, journal.StoreOptions{Fsync: fsync, Window: window},
		func(ckpt *journal.Checkpoint) {
			if ckpt == nil {
				return
			}
			for _, pt := range ckpt.Peers {
				d.restored += c.RestoreTable(pt.Peer, pt.Routes)
			}
			for _, e := range ckpt.SeedEvents() {
				p.Seed(*e)
			}
			obs.Logf(obs.Info, "rexd", "checkpoint seq %d: restored %d routes across %d peers (taken %s)",
				ckpt.NextSeq, d.restored, len(ckpt.Peers), ckpt.TakenAt.Format(time.RFC3339))
		},
		func(_ uint64, e *event.Event) { p.Ingest(*e) })
	if err != nil {
		return nil, err
	}
	d.st, d.replayed = st, rec.Replayed
	if rec.Replayed > 0 || rec.Stats.Skipped > 0 || rec.Stats.Abandoned > 0 {
		obs.Logf(obs.Info, "rexd", "journal replayed %d events from seq %d (skipped %d, abandoned %d)",
			rec.Replayed, rec.ReplayFrom, rec.Stats.Skipped, rec.Stats.Abandoned)
	}
	obs.Logf(obs.Info, "rexd", "journal open in %s at seq %d (fsync=%v)", dir, st.NextSeq(), fsync)
	return d, nil
}

// journalEvent is the intake's durability hook: append, then wake the
// relay feed.
func (d *durability) journalEvent(e *event.Event) error {
	if _, err := d.st.Append(e); err != nil {
		return err
	}
	if f := d.feed.Load(); f != nil {
		f.Wake()
	}
	return nil
}

// checkpoint captures the collector's tables. The collector mutates a
// table before the event reaches the journal, so tables read after the
// store's sync reflect every record below the checkpoint's NextSeq. The
// trim stops at the relay receiver's ack: records the analysis node has
// not durably received stay on disk for a restarted daemon to resend.
func (d *durability) checkpoint(c *collector.Collector) error {
	trimCap := uint64(math.MaxUint64)
	if f := d.feed.Load(); f != nil {
		trimCap = f.Acked()
	}
	return d.st.Checkpoint(func(ck *journal.Checkpoint) (time.Time, error) {
		ck.Peers = journal.PeerTablesOf(c.Routes())
		return d.st.MaxTime(), nil
	}, trimCap)
}

// close takes the final checkpoint — the next start then replays next
// to nothing — and closes the writer. Call only after the collector
// and intake have drained, so the checkpoint covers everything.
func (d *durability) close(c *collector.Collector) error {
	err := d.checkpoint(c)
	if cerr := d.st.Close(); err == nil {
		err = cerr
	}
	return err
}
