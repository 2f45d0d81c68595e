package relay

import (
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"rex/internal/core/pipeline"
	"rex/internal/event"
	"rex/internal/fifo"
	"rex/internal/journal"
	"rex/internal/obs"
)

// ReceiverConfig wires the fan-in point.
type ReceiverConfig struct {
	// Pipeline receives the merged stream. The receiver owns its
	// lifecycle from here: Close flushes buffered events into it and
	// closes it.
	Pipeline *pipeline.Pipeline
	// ExpectFeeds is the fleet roster. Listed feeds gate the merge from
	// startup (no event is released until every listed feed has either
	// connected and reported or gone stale) and connections from
	// unlisted feeds are rejected. Empty means accept anyone, gating
	// only on feeds that have said hello.
	ExpectFeeds []string
	// AckEvery paces progress acks during streaming (default 64
	// events); heartbeats are always acked immediately.
	AckEvery int
	// StaleAfter is the wall-clock silence after which a feed stops
	// gating the merge and is flagged stale (default 10s). A stale
	// feed's routes are left to age out upstream via graceful-restart
	// retention; the receiver never synthesizes withdrawals.
	StaleAfter time.Duration
	// HandshakeTimeout bounds the hello exchange (default 5s).
	HandshakeTimeout time.Duration
	// ReadTimeout is the per-frame read deadline on feed connections
	// (default 4×DefaultHeartbeatEvery); a healthy feed heartbeats well
	// inside it.
	ReadTimeout time.Duration
	// WriteTimeout bounds ack writes (default 10s).
	WriteTimeout time.Duration

	// Dir, when set, makes the receiver durable: released events are
	// journaled in merge order into Dir and the per-feed resume
	// cursors, pipeline trigger state, and route tables are
	// checkpointed there atomically every CheckpointEvery, so a
	// restarted analysis node resumes each feed at its durable cursor
	// instead of zero. While durability is on, every ack the receiver
	// sends — the handshake resume ack included — is the feed's durable
	// cursor, not its in-memory one: feeds trim their journals to acks,
	// so the receiver never advertises state a crash could forget. See
	// the durability comment in persist.go for the full contract.
	Dir string
	// Fsync is the merged journal's sync policy (journal package
	// default when zero).
	Fsync journal.FsyncPolicy
	// CheckpointEvery paces durable checkpoints (default 30s). It also
	// bounds the resend a reconnecting feed performs, and how far the
	// feeds' trim floors lag their send cursors.
	CheckpointEvery time.Duration
	// Window is the analysis window used to compute the journal replay
	// floor; it should match the pipeline's Window (default 15m).
	Window time.Duration
	// SnapshotSink, when set, is called synchronously with every
	// snapshot before it is forwarded to Snapshots(), and checkpoints
	// wait for it: a durable checkpoint is only written once the sink
	// has returned for every snapshot the checkpoint's cut covers.
	// That closes the loss window for consumers that persist snapshots
	// — a crash can only take snapshots no checkpoint ever covered,
	// which a restarted node re-emits.
	//
	// The contract, precisely: the sink runs on the snapshot drain
	// goroutine, so its latency directly gates checkpointing — that
	// blocking is BY DESIGN, it is what makes a checkpoint's cut cover
	// only sink-durable snapshots. Keep it fast, never call back into
	// the receiver from it, and never block it on the receiver's own
	// consumers. The receiver defends itself against a misbehaving
	// sink: a panic is recovered, counted in
	// rex_relay_sink_panics_total, and treated as "sunk" (the snapshot
	// still flows to Snapshots()); a sink wedged past SinkTimeout at
	// shutdown is abandoned (rex_relay_sink_wedged_total) so Close
	// returns instead of deadlocking. A wedged sink still stalls
	// periodic checkpoints — see the sink-durability wait in
	// checkpoint() — which is the designed failure mode: no durable
	// cut may cover an un-sunk snapshot.
	SnapshotSink func(Snapshot)
	// SinkTimeout bounds how long Close/Abort wait for an in-flight
	// SnapshotSink call before abandoning it (default 10s). Snapshots()
	// still closes only after the sink returns; abandonment only
	// unblocks shutdown.
	SinkTimeout time.Duration
}

func (c ReceiverConfig) withDefaults() ReceiverConfig {
	if c.AckEvery <= 0 {
		c.AckEvery = DefaultAckEvery
	}
	if c.StaleAfter <= 0 {
		c.StaleAfter = DefaultStaleAfter
	}
	if c.HandshakeTimeout <= 0 {
		c.HandshakeTimeout = 5 * time.Second
	}
	if c.ReadTimeout <= 0 {
		c.ReadTimeout = 4 * DefaultHeartbeatEvery
	}
	if c.WriteTimeout <= 0 {
		c.WriteTimeout = 10 * time.Second
	}
	if c.SinkTimeout <= 0 {
		c.SinkTimeout = 10 * time.Second
	}
	if c.Dir != "" {
		if c.CheckpointEvery <= 0 {
			c.CheckpointEvery = DefaultCheckpointEvery
		}
		if c.Window <= 0 {
			c.Window = DefaultReplayWindow
		}
	}
	return c
}

// feedState is everything the receiver tracks per feed. Guarded by
// Receiver.mu.
type feedState struct {
	id        string
	conn      net.Conn // live connection, nil when down
	connected bool
	stale     bool
	everHeard bool
	nextSeq   uint64    // resume cursor: next sequence needed
	watermark time.Time // event-time frontier (events + heartbeats)
	// released is the durable-release cursor: the sequence after the
	// last event popped from the queue into the journal and pipeline.
	// durable is released as of the newest checkpoint — the floor every
	// ack advertises while persistence is on. relWM is the event-time
	// watermark of released events, the restart-surviving analog of
	// watermark (which heartbeats advance past anything released).
	released  uint64
	durable   uint64
	relWM     time.Time
	lastHeard time.Time // wall clock of last frame
	queue     fifo.Queue[queuedEvent]
	received  uint64
	dups      uint64
	hbNext    uint64 // feed's reported append head
}

// Receiver accepts feed connections, resumes each feed at its cursor,
// and releases the merged stream into the analysis pipeline in the
// exact MergeStreams order. See the package comment for the contract.
type Receiver struct {
	cfg ReceiverConfig

	mu    sync.Mutex
	feeds map[string]*feedState
	order []string // sorted feed IDs

	// emitMu serializes batch handoff to the pipeline so a blocking
	// Ingest never wedges mu (snapshot wrapping needs mu while the
	// pipeline applies backpressure).
	emitMu sync.Mutex

	// pers is the durability sidecar, nil for a memory-only receiver.
	// Its journal/table state is guarded by emitMu.
	pers *persister

	// sunk counts snapshots the SnapshotSink has fully processed;
	// checkpoint compares it against the pipeline's emitted count so a
	// durable cut never covers a snapshot the sink hasn't written yet.
	sunk atomic.Uint64

	// abandoned is set when shutdown gave up waiting for a wedged
	// SnapshotSink; the drain goroutine stops forwarding to snaps (its
	// consumer is gone) and snaps is closed by the straggler watcher
	// once the sink finally returns.
	abandoned atomic.Bool

	ln        net.Listener
	snaps     chan Snapshot
	closed    chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup // conn handlers + stale ticker + accept loop
	drainWG   sync.WaitGroup
}

// NewReceiver builds a memory-only receiver around cfg.Pipeline; it is
// OpenReceiver minus the error return, and panics if cfg.Dir is set
// and recovery fails — durable callers should use OpenReceiver.
func NewReceiver(cfg ReceiverConfig) *Receiver {
	r, err := OpenReceiver(cfg)
	if err != nil {
		panic("relay: " + err.Error())
	}
	return r
}

// OpenReceiver builds a receiver and, when cfg.Dir is set, recovers
// durable state from it before going live: the newest checkpoint
// restores per-feed cursors, pipeline trigger state, and route tables;
// the journal below the checkpoint replays silently to rebuild the
// analysis window; the orphan tail above it is dropped (feeds resend
// those events from the resumed cursors). Call Serve with a listener
// to go live. Consumers must drain Snapshots until it closes, the same
// contract as the pipeline's.
func OpenReceiver(cfg ReceiverConfig) (*Receiver, error) {
	cfg = cfg.withDefaults()
	r := &Receiver{
		cfg:    cfg,
		feeds:  map[string]*feedState{},
		snaps:  make(chan Snapshot, 16),
		closed: make(chan struct{}),
	}
	now := time.Now()
	for _, id := range cfg.ExpectFeeds {
		// A duplicated roster entry must not duplicate the merge-order
		// list: the gate would check the same feed twice and Statuses
		// would emit duplicate rows.
		if _, dup := r.feeds[id]; !dup {
			r.addFeed(id, now)
		}
	}
	if cfg.Dir != "" {
		if err := r.openDurability(); err != nil {
			return nil, err
		}
	}
	r.drainWG.Add(1)
	go r.drainSnapshots()
	r.wg.Add(1)
	go r.staleLoop()
	if r.pers != nil {
		r.wg.Add(1)
		go r.checkpointLoop()
	}
	return r, nil
}

// addFeed registers a feed not seen before, keeping the merge order
// sorted. Caller holds mu or owns the receiver exclusively.
func (r *Receiver) addFeed(id string, now time.Time) *feedState {
	f := &feedState{id: id, lastHeard: now}
	r.feeds[id] = f
	r.order = append(r.order, id)
	sort.Strings(r.order)
	mFeedStale.With(id).Set(0)
	mFeedConnected.With(id).Set(0)
	return f
}

// Snapshots returns pipeline snapshots wrapped with feed health. The
// channel closes after Close has flushed and closed the pipeline.
func (r *Receiver) Snapshots() <-chan Snapshot { return r.snaps }

// Statuses reports the current health of every known feed, sorted by
// ID — the live view a supervisor polls between snapshots.
func (r *Receiver) Statuses() []FeedStatus {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.statusesLocked()
}

// Serve accepts feed connections on ln until Close. It returns only
// then.
func (r *Receiver) Serve(ln net.Listener) {
	r.mu.Lock()
	r.ln = ln
	r.mu.Unlock()
	r.wg.Add(1)
	defer r.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			select {
			case <-r.closed:
				return
			default:
			}
			// Transient accept errors: keep serving unless closed.
			select {
			case <-r.closed:
				return
			case <-time.After(10 * time.Millisecond):
			}
			continue
		}
		mConns.Inc()
		r.wg.Add(1)
		go r.handle(conn)
	}
}

// Close stops serving, flushes every buffered event into the pipeline
// in merge order, closes the pipeline, and closes Snapshots after the
// final snapshots drain.
func (r *Receiver) Close() {
	r.closeOnce.Do(func() {
		close(r.closed)
		r.mu.Lock()
		if r.ln != nil {
			r.ln.Close()
		}
		for _, f := range r.feeds {
			if f.conn != nil {
				f.conn.Close()
			}
		}
		r.mu.Unlock()
		r.wg.Wait()
		// Final flush: what the gate was still holding goes out in the
		// same deterministic order, so a drained run equals the offline
		// merge end-to-end.
		r.emitMu.Lock()
		r.mu.Lock()
		batch := r.collectLocked(true)
		r.mu.Unlock()
		r.deliver(batch)
		r.emitMu.Unlock()
		if r.pers != nil {
			// Final checkpoint covers the flush, so a clean restart
			// replays nothing and resumes every feed at its head.
			if err := r.checkpoint(); err != nil {
				obs.Logf(obs.Error, "relay", "final checkpoint: %v", err)
			}
		}
		r.cfg.Pipeline.Close()
		r.waitSinkDrain()
		if r.pers != nil {
			if err := r.pers.st.Close(); err != nil {
				obs.Logf(obs.Error, "relay", "merged journal close: %v", err)
			}
		}
	})
}

// Abort tears the receiver down without the graceful-shutdown work —
// no final flush, no final checkpoint — approximating a crash for the
// restart-equivalence tests (a real SIGKILL additionally skips the
// journal close; tests tear the tail by truncating segment files
// afterward). Buffered events are dropped: they sit below the feeds'
// un-acked tails and are resent on the next connect.
func (r *Receiver) Abort() {
	r.closeOnce.Do(func() {
		close(r.closed)
		r.mu.Lock()
		if r.ln != nil {
			r.ln.Close()
		}
		for _, f := range r.feeds {
			if f.conn != nil {
				f.conn.Close()
			}
		}
		r.mu.Unlock()
		r.wg.Wait()
		r.cfg.Pipeline.Close()
		r.waitSinkDrain()
		if r.pers != nil {
			r.pers.st.Close()
		}
	})
}

// waitSinkDrain waits for the snapshot drain goroutine (and therefore
// any in-flight SnapshotSink call) to finish, then closes Snapshots().
// A sink wedged past SinkTimeout is abandoned so shutdown stays
// bounded: the drain goroutine is flagged to stop forwarding, and a
// watcher closes snaps whenever the sink finally returns — the channel
// still never closes with a send in flight.
func (r *Receiver) waitSinkDrain() {
	done := make(chan struct{})
	go func() {
		r.drainWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		close(r.snaps)
	case <-time.After(r.cfg.SinkTimeout):
		r.abandoned.Store(true)
		mSinkWedged.Inc()
		obs.Logf(obs.Error, "relay",
			"snapshot sink wedged for %v at shutdown; abandoning it (snapshots since last durable cut may be lost)",
			r.cfg.SinkTimeout)
		go func() {
			<-done
			close(r.snaps)
		}()
	}
}

func (r *Receiver) drainSnapshots() {
	defer r.drainWG.Done()
	for s := range r.cfg.Pipeline.Snapshots() {
		r.mu.Lock()
		feeds := r.statusesLocked()
		r.mu.Unlock()
		wrapped := Snapshot{Snapshot: s, Feeds: feeds}
		r.safeSink(wrapped)
		// Counted after the sink returns, before the (possibly
		// blocking) forward: checkpoint's sink-durability wait must not
		// depend on the Snapshots() consumer keeping pace.
		r.sunk.Add(1)
		if r.abandoned.Load() {
			// Shutdown gave up on a wedged sink; nobody is draining
			// snaps anymore, so forwarding would block forever.
			continue
		}
		r.snaps <- wrapped
	}
}

// safeSink runs the configured SnapshotSink, converting a panic into a
// counted, logged error: one bad snapshot must not take down the drain
// goroutine and with it the whole receiver shutdown path.
func (r *Receiver) safeSink(s Snapshot) {
	if r.cfg.SnapshotSink == nil {
		return
	}
	defer func() {
		if v := recover(); v != nil {
			mSinkPanics.Inc()
			obs.Logf(obs.Error, "relay", "snapshot sink panicked (snapshot still forwarded): %v", v)
		}
	}()
	r.cfg.SnapshotSink(s)
}

func (r *Receiver) statusesLocked() []FeedStatus {
	out := make([]FeedStatus, 0, len(r.order))
	for _, id := range r.order {
		f := r.feeds[id]
		durable := f.nextSeq
		if r.pers != nil {
			durable = f.durable
		}
		out = append(out, FeedStatus{
			ID: id, Connected: f.connected, Stale: f.stale, EverHeard: f.everHeard,
			NextSeq: f.nextSeq, Durable: durable, Watermark: f.watermark, LastHeard: f.lastHeard,
			Buffered: f.queue.Len(), Received: f.received, Duplicates: f.dups,
		})
	}
	return out
}

// staleLoop flips feeds stale after StaleAfter of wall-clock silence.
// Going stale can unblock the merge, so it pumps.
func (r *Receiver) staleLoop() {
	defer r.wg.Done()
	period := r.cfg.StaleAfter / 4
	if period < 5*time.Millisecond {
		period = 5 * time.Millisecond
	}
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		select {
		case <-r.closed:
			return
		case now := <-t.C:
			changed := false
			r.mu.Lock()
			for _, f := range r.feeds {
				if !f.stale && now.Sub(f.lastHeard) > r.cfg.StaleAfter {
					f.stale = true
					changed = true
					mFeedStale.With(f.id).Set(1)
					mStaleTransitions.With(f.id).Inc()
				}
			}
			r.mu.Unlock()
			if changed {
				r.pump()
			}
		}
	}
}

// handle runs one feed connection: handshake, then frames until error.
func (r *Receiver) handle(conn net.Conn) {
	defer r.wg.Done()
	buf := make([]byte, 0, 4096)
	conn.SetReadDeadline(time.Now().Add(r.cfg.HandshakeTimeout))
	kind, payload, err := readFrame(conn, buf)
	if err != nil || kind != kindHello {
		if err == nil {
			// readFrame counts framing violations itself; a well-formed
			// frame of the wrong kind is rejected here.
			mFramesRejected.Inc()
		}
		conn.Close()
		return
	}
	id, err := parseHello(payload)
	if err != nil {
		mFramesRejected.Inc()
		conn.Close()
		return
	}

	r.mu.Lock()
	f, known := r.feeds[id]
	if !known {
		if len(r.cfg.ExpectFeeds) > 0 {
			r.mu.Unlock()
			conn.Close()
			return
		}
		f = r.addFeed(id, time.Now())
	}
	if f.conn != nil {
		// Session replacement: the feed redialed before we noticed the
		// old connection die. Newest wins, as with BGP sessions.
		f.conn.Close()
	}
	f.conn = conn
	f.connected = true
	f.stale = false
	f.everHeard = true
	f.lastHeard = time.Now()
	resume := r.ackSeqLocked(f, f.nextSeq)
	r.mu.Unlock()
	mFeedConnected.With(id).Set(1)
	mFeedStale.With(id).Set(0)

	conn.SetWriteDeadline(time.Now().Add(r.cfg.WriteTimeout))
	if _, err := conn.Write(appendAck(buf[:0], resume)); err != nil {
		r.dropConn(f, conn)
		return
	}
	r.pump()

	sinceAck := 0
	for {
		conn.SetReadDeadline(time.Now().Add(r.cfg.ReadTimeout))
		kind, payload, err := readFrame(conn, buf)
		if err != nil {
			r.dropConn(f, conn)
			return
		}
		switch kind {
		case kindEvent:
			seq, e, perr := parseEventFrame(payload)
			if perr != nil {
				mFramesRejected.Inc()
				r.dropConn(f, conn)
				return
			}
			r.mu.Lock()
			f.lastHeard = time.Now()
			f.stale = false
			switch {
			case seq < f.nextSeq:
				// Already have it — but the replay still counts toward ack
				// pacing: a reconnecting feed resending a long run below
				// the cursor would otherwise hear nothing until its next
				// heartbeat (it only heartbeats when caught up) and could
				// not advance its trim floor for the whole replay.
				f.dups++
				mDuplicates.With(id).Inc()
				next := r.ackSeqLocked(f, f.nextSeq)
				r.mu.Unlock()
				if sinceAck++; sinceAck >= r.cfg.AckEvery {
					sinceAck = 0
					conn.SetWriteDeadline(time.Now().Add(r.cfg.WriteTimeout))
					if _, err := conn.Write(appendAck(buf[:0], next)); err != nil {
						r.dropConn(f, conn)
						return
					}
				}
				continue
			case seq > f.nextSeq:
				// TCP cannot reorder within a session, so a forward
				// jump is the feed skipping damaged journal records —
				// upstream loss, not a transport gap. Count it and
				// advance.
				mSeqJumps.With(id).Inc()
			}
			f.nextSeq = seq + 1
			f.received++
			if e.Time.After(f.watermark) {
				f.watermark = e.Time
			}
			f.queue.Push(queuedEvent{seq: seq, e: e})
			mEventsAccepted.With(id).Inc()
			mFeedNextSeq.With(id).Set(int64(f.nextSeq))
			mBuffered.Inc()
			r.mu.Unlock()
			mFeedStale.With(id).Set(0)
			r.pump()
			if sinceAck++; sinceAck >= r.cfg.AckEvery {
				sinceAck = 0
				r.mu.Lock()
				ack := r.ackSeqLocked(f, seq+1)
				r.mu.Unlock()
				conn.SetWriteDeadline(time.Now().Add(r.cfg.WriteTimeout))
				if _, err := conn.Write(appendAck(buf[:0], ack)); err != nil {
					r.dropConn(f, conn)
					return
				}
			}
		case kindHeartbeat:
			hbNext, wm, perr := parseHeartbeat(payload)
			if perr != nil {
				mFramesRejected.Inc()
				r.dropConn(f, conn)
				return
			}
			r.mu.Lock()
			f.lastHeard = time.Now()
			f.stale = false
			f.hbNext = hbNext
			if wm.After(f.watermark) {
				f.watermark = wm
			}
			next := r.ackSeqLocked(f, f.nextSeq)
			backlog := int64(0)
			if hbNext > f.nextSeq {
				backlog = int64(hbNext - f.nextSeq)
			}
			r.mu.Unlock()
			mFeedStale.With(id).Set(0)
			mFeedBacklog.With(id).Set(backlog)
			r.pump()
			sinceAck = 0
			conn.SetWriteDeadline(time.Now().Add(r.cfg.WriteTimeout))
			if _, err := conn.Write(appendAck(buf[:0], next)); err != nil {
				r.dropConn(f, conn)
				return
			}
		default:
			mFramesRejected.Inc()
			r.dropConn(f, conn)
			return
		}
	}
}

// ackSeqLocked is the sequence an ack to feed f advertises: the given
// in-memory cursor normally, but the durable cursor while persistence
// is on — feeds treat acks as trim floors and the handshake ack as the
// scan-resume point, so a durable receiver must never ack state a
// crash could forget. Caller holds r.mu.
func (r *Receiver) ackSeqLocked(f *feedState, next uint64) uint64 {
	if r.pers != nil {
		return f.durable
	}
	return next
}

// dropConn closes conn and, if it is still the feed's live connection,
// marks the feed down (a replaced connection changes nothing).
func (r *Receiver) dropConn(f *feedState, conn net.Conn) {
	conn.Close()
	r.mu.Lock()
	mine := f.conn == conn
	if mine {
		f.conn = nil
		f.connected = false
	}
	r.mu.Unlock()
	if mine {
		mFeedConnected.With(f.id).Set(0)
	}
}

// pump moves every releasable event into the pipeline, preserving the
// merge order across concurrent callers: emitMu serializes handoff,
// and the releasable set is computed under mu.
func (r *Receiver) pump() {
	r.emitMu.Lock()
	defer r.emitMu.Unlock()
	r.mu.Lock()
	batch := r.collectLocked(false)
	r.mu.Unlock()
	r.deliver(batch)
}

// deliver journals (when durable) then ingests a released batch.
// Caller holds emitMu, so checkpoints see the journal, the pipeline,
// and the released cursors as one consistent cut.
func (r *Receiver) deliver(batch []event.Event) {
	if r.pers != nil {
		r.journalBatch(batch)
	}
	for i := range batch {
		r.cfg.Pipeline.Ingest(batch[i])
	}
}

// collectLocked pops every event the merge gate allows, in order. With
// flush set the gate is ignored (Close: nothing more will arrive).
//
// The gate: the earliest buffered event e (by merge order) is released
// only when every other non-stale feed can be proven to have nothing
// earlier — a buffered event of its own (the head comparison covers
// it), or a watermark past e's time (with the feed-ID tiebreak at
// exact equality). A disconnected-but-not-yet-stale feed blocks the
// merge, by design: determinism first, then StaleAfter bounds the wait.
func (r *Receiver) collectLocked(flush bool) []event.Event {
	var out []event.Event
	for {
		var best *feedState
		for _, id := range r.order {
			f := r.feeds[id]
			if f.queue.Len() == 0 {
				continue
			}
			if best == nil || mergeBefore(f.queue.Front().e.Time, f.id, best.queue.Front().e.Time, best.id) {
				best = f
			}
		}
		if best == nil {
			break
		}
		if !flush {
			e := &best.queue.Front().e
			blocked := false
			for _, id := range r.order {
				g := r.feeds[id]
				if g == best || g.stale || g.queue.Len() > 0 {
					continue
				}
				if g.watermark.After(e.Time) {
					continue
				}
				if g.watermark.Equal(e.Time) && g.id > best.id {
					continue
				}
				blocked = true
				break
			}
			if blocked {
				break
			}
		}
		qe := best.queue.Pop()
		best.released = qe.seq + 1
		if qe.e.Time.After(best.relWM) {
			best.relWM = qe.e.Time
		}
		out = append(out, qe.e)
		mReleased.Inc()
		mBuffered.Dec()
	}
	return out
}
