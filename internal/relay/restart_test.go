package relay

import (
	"net"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"rex/internal/core/pipeline"
	"rex/internal/event"
	"rex/internal/journal"
)

// The restart differential: an analysis node that is killed mid-stream
// and restarted over the same durability directory must produce, across
// both incarnations stitched together, the exact per-snapshot output of
// an uninterrupted single-process run. The second incarnation re-emits
// whatever the first produced after its last checkpoint (those events
// are refetched and re-processed live); determinism makes the re-emitted
// snapshots byte-identical, so the seam is a suffix/prefix overlap and
// stitching is overlap elimination — no snapshot may be missing, extra,
// or altered.
//
// The feeds are hand-driven over real TCP so the crash point is exact:
// paced acks are disabled (huge AckEvery) and no heartbeats are sent, so
// the only protocol reads are handshake acks.

// renderEach renders snapshots one by one, so renders are comparable
// across incarnations (RenderSnapshots embeds a running index).
func renderEach(snaps []pipeline.Snapshot) []string {
	out := make([]string, len(snaps))
	for i := range snaps {
		out[i] = pipeline.RenderSnapshots(snaps[i : i+1])
	}
	return out
}

// stitch joins two incarnations' render sequences, eliminating the
// largest suffix-of-a / prefix-of-b overlap (the re-emitted span).
func stitch(a, b []string) []string {
	max := len(a)
	if len(b) < max {
		max = len(b)
	}
	for k := max; k > 0; k-- {
		match := true
		for i := 0; i < k; i++ {
			if a[len(a)-k+i] != b[i] {
				match = false
				break
			}
		}
		if match {
			return append(append([]string{}, a[:len(a)-k]...), b...)
		}
	}
	return append(append([]string{}, a...), b...)
}

// dropFinals removes TriggerFinal snapshots: Abort closes the pipeline
// in-process, which emits a final snapshot a real SIGKILL never would.
func dropFinals(snaps []pipeline.Snapshot) []pipeline.Snapshot {
	out := snaps[:0]
	for _, s := range snaps {
		if s.Trigger != pipeline.TriggerFinal {
			out = append(out, s)
		}
	}
	return out
}

// collectPipe drains a receiver's snapshots in the background into a
// slice delivered on the returned channel when the receiver closes.
func collectPipe(r *Receiver) chan []pipeline.Snapshot {
	ch := make(chan []pipeline.Snapshot, 1)
	go func() {
		var out []pipeline.Snapshot
		for s := range r.Snapshots() {
			out = append(out, s.Snapshot)
		}
		ch <- out
	}()
	return ch
}

// sendRange writes event frames [from, to) of part on c.
func sendRange(t *testing.T, c net.Conn, id string, part event.Stream, from, to uint64) {
	t.Helper()
	var buf []byte
	for seq := from; seq < to; seq++ {
		var err error
		buf, err = appendEventFrame(buf[:0], seq, &part[seq])
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Write(buf); err != nil {
			t.Fatalf("feed %s write seq %d: %v", id, seq, err)
		}
	}
}

// waitReceived polls until every feed's accepted cursor reaches want.
func waitReceived(t *testing.T, r *Receiver, want map[string]uint64) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		ok := true
		for _, st := range r.Statuses() {
			if st.NextSeq < want[st.ID] {
				ok = false
				break
			}
		}
		if ok {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("feeds never reached cursors %v: %+v", want, r.Statuses())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// tearTail chops 3 bytes off the newest journal segment, tearing its
// last record — the shape an un-synced tail has after a power cut. The
// caller guarantees the last record sits above the checkpoint floor
// (below it, the pre-checkpoint Sync means a real crash cannot tear).
func tearTail(t *testing.T, dir string) {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "journal-*.rexj"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments to tear: %v", err)
	}
	sort.Strings(segs)
	last := segs[len(segs)-1]
	fi, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(last, fi.Size()-3); err != nil {
		t.Fatal(err)
	}
}

// runRestart drives the full scenario. withCheckpoint also covers the
// torn-tail variant (tear implies withCheckpoint).
func runRestart(t *testing.T, withCheckpoint, tear bool) {
	parts := fleetParts(t, 3, 900)
	ids := make([]string, 0, len(parts))
	total := map[string]uint64{}
	for id, p := range parts {
		ids = append(ids, id)
		total[id] = uint64(len(p))
	}
	sort.Strings(ids)
	dir := filepath.Join(t.TempDir(), "node")

	open := func() (*Receiver, net.Listener) {
		t.Helper()
		r, err := OpenReceiver(ReceiverConfig{
			Pipeline:    pipeline.New(fleetConfig()),
			ExpectFeeds: ids,
			StaleAfter:  time.Hour,
			AckEvery:    1 << 30, // no paced acks: handshake acks only
			ReadTimeout: 10 * time.Second,
			Dir:         dir,
			Fsync:       journal.FsyncNever,
			// Checkpoints are driven by hand for exact crash points.
			CheckpointEvery: time.Hour,
			Window:          fleetConfig().Window,
		})
		if err != nil {
			t.Fatal(err)
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go r.Serve(ln)
		return r, ln
	}

	connect := func(ln net.Listener) (map[string]net.Conn, map[string]uint64) {
		t.Helper()
		conns := map[string]net.Conn{}
		resumes := map[string]uint64{}
		for _, id := range ids {
			c, resume := helloExchange(t, ln.Addr().String(), id)
			conns[id] = c
			resumes[id] = resume
		}
		return conns, resumes
	}

	// --- Incarnation A ---
	rcvA, lnA := open()
	snapsA := collectPipe(rcvA)
	connsA, resumesA := connect(lnA)
	for _, id := range ids {
		if resumesA[id] != 0 {
			t.Fatalf("fresh directory, but feed %s resumed at %d", id, resumesA[id])
		}
	}

	// Phase 1: ~60% of each feed, interleaved in chunks so the merge
	// gate works across feeds.
	phase1 := map[string]uint64{}
	for _, id := range ids {
		phase1[id] = total[id] * 6 / 10
	}
	const chunk = 37
	for off := uint64(0); ; off += chunk {
		sent := false
		for _, id := range ids {
			from, to := off, off+chunk
			if from >= phase1[id] {
				continue
			}
			if to > phase1[id] {
				to = phase1[id]
			}
			sendRange(t, connsA[id], id, parts[id], from, to)
			sent = true
		}
		if !sent {
			break
		}
	}
	waitReceived(t, rcvA, phase1)

	var floor uint64
	if withCheckpoint {
		// Wait for the gate to release something, then cut a durable
		// floor at exactly the released cursors.
		deadline := time.Now().Add(30 * time.Second)
		for rcvA.pers.st.NextSeq() == 0 {
			if time.Now().After(deadline) {
				t.Fatal("gate never released any event")
			}
			time.Sleep(2 * time.Millisecond)
		}
		if err := rcvA.checkpoint(); err != nil {
			t.Fatal(err)
		}
		floor = rcvA.pers.st.NextSeq()
	}

	// Phase 2: ~20% more per feed, so the journal grows an orphan tail
	// above the checkpoint floor that the restart must discard.
	phase2 := map[string]uint64{}
	for _, id := range ids {
		phase2[id] = total[id] * 8 / 10
	}
	for _, id := range ids {
		sendRange(t, connsA[id], id, parts[id], phase1[id], phase2[id])
	}
	waitReceived(t, rcvA, phase2)
	if withCheckpoint {
		// Make sure at least two post-checkpoint events were released
		// (the torn variant destroys one record; at least one intact
		// orphan must remain for Truncated to be observable).
		deadline := time.Now().Add(30 * time.Second)
		for rcvA.pers.st.NextSeq() < floor+2 {
			if time.Now().After(deadline) {
				t.Fatalf("journal stuck at %d, want > %d", rcvA.pers.st.NextSeq(), floor+1)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	// Crash. No flush, no final checkpoint; buffered events vanish.
	for _, c := range connsA {
		c.Close()
	}
	rcvA.Abort()
	pipeA := dropFinals(<-snapsA)

	if tear {
		tearTail(t, dir)
	}

	var ckpt *journal.Checkpoint
	if withCheckpoint {
		var err error
		ckpt, err = journal.LoadLatestCheckpoint(dir)
		if err != nil || ckpt == nil {
			t.Fatalf("checkpoint gone after crash: %v", err)
		}
	}

	// --- Incarnation B ---
	rcvB, lnB := open()
	stats, ok := rcvB.RecoveryStats()
	if !ok {
		t.Fatal("durable receiver reports no recovery stats")
	}
	if stats.HadCheckpoint != withCheckpoint {
		t.Fatalf("HadCheckpoint = %v, want %v", stats.HadCheckpoint, withCheckpoint)
	}
	if withCheckpoint {
		if stats.Truncated == 0 {
			t.Fatal("no orphan records truncated despite a post-checkpoint tail")
		}
		if stats.ResumeSeq != ckpt.NextSeq {
			t.Fatalf("journal resumed at %d, checkpoint covers %d", stats.ResumeSeq, ckpt.NextSeq)
		}
	} else if stats.ResumeSeq != 0 {
		t.Fatalf("cold start resumed journal at %d", stats.ResumeSeq)
	}

	snapsB := collectPipe(rcvB)
	connsB, resumesB := connect(lnB)
	if withCheckpoint {
		byID := map[string]uint64{}
		for _, fc := range ckpt.Feeds {
			byID[fc.ID] = fc.NextSeq
		}
		for _, id := range ids {
			if resumesB[id] != byID[id] {
				t.Fatalf("feed %s resumed at %d, checkpoint cursor is %d", id, resumesB[id], byID[id])
			}
		}
	} else {
		for _, id := range ids {
			if resumesB[id] != 0 {
				t.Fatalf("feed %s resumed at %d after cold start", id, resumesB[id])
			}
		}
	}

	// Resend from each durable cursor to the end — exactly what a real
	// feed's journal scan would do — and drain.
	for _, id := range ids {
		sendRange(t, connsB[id], id, parts[id], resumesB[id], total[id])
	}
	waitReceived(t, rcvB, total)

	// Zero re-ingestion above the durable floor: the resumed feeds sent
	// nothing below their cursors, so the receiver must have counted no
	// duplicates and accepted exactly the tail.
	for _, st := range rcvB.Statuses() {
		if st.Duplicates != 0 {
			t.Errorf("feed %s: %d duplicates after resume at the durable cursor", st.ID, st.Duplicates)
		}
		if want := total[st.ID] - resumesB[st.ID]; st.Received != want {
			t.Errorf("feed %s: received %d after restart, want %d", st.ID, st.Received, want)
		}
	}

	for _, c := range connsB {
		c.Close()
	}
	rcvB.Close()
	pipeB := <-snapsB

	got := stitch(renderEach(pipeA), renderEach(pipeB))
	want := renderEach(pipeline.Replay(MergeStreams(parts), fleetConfig()))
	if len(got) != len(want) {
		t.Fatalf("stitched run has %d snapshots, uninterrupted has %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("snapshot %d diverged after restart: %s", i, firstDiff(got[i], want[i]))
		}
	}
	if len(want) < 3 {
		t.Fatalf("vacuous run: only %d snapshots", len(want))
	}
}

// TestReceiverRestartCheckpointed: kill with a recent checkpoint; the
// restart resumes each feed at its durable cursor, truncates the orphan
// journal tail, replays the window silently, and the stitched output is
// byte-identical to an uninterrupted run.
func TestReceiverRestartCheckpointed(t *testing.T) {
	runRestart(t, true, false)
}

// TestReceiverRestartUncheckpointed: kill before any checkpoint; the
// restart is a cold start — journal wiped, every feed refetched from
// zero — and the stitched output is still byte-identical.
func TestReceiverRestartUncheckpointed(t *testing.T) {
	runRestart(t, false, false)
}

// TestReceiverRestartTornTail: like the checkpointed kill, but the
// journal's last record is torn mid-frame (un-synced tail after a power
// cut). The torn record sits above the checkpoint floor, so discarding
// it costs nothing — the feed resends it.
func TestReceiverRestartTornTail(t *testing.T) {
	runRestart(t, true, true)
}

// TestDurableAcksBoundedByCheckpoint: while durability is on, every ack
// — handshake, paced, heartbeat — advertises the durable cursor, and a
// checkpoint advances it.
func TestDurableAcksBoundedByCheckpoint(t *testing.T) {
	parts := fleetParts(t, 1, 64)
	part := parts["feed-00"]
	dir := filepath.Join(t.TempDir(), "node")
	rcv, err := OpenReceiver(ReceiverConfig{
		Pipeline:        pipeline.New(fleetConfig()),
		ExpectFeeds:     []string{"feed-00"},
		StaleAfter:      time.Hour,
		AckEvery:        4,
		ReadTimeout:     5 * time.Second,
		Dir:             dir,
		Fsync:           journal.FsyncNever,
		CheckpointEvery: time.Hour,
		Window:          fleetConfig().Window,
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go rcv.Serve(ln)
	done := drainReceiver(rcv)

	c, resume := helloExchange(t, ln.Addr().String(), "feed-00")
	if resume != 0 {
		t.Fatalf("fresh resume = %d", resume)
	}
	sendRange(t, c, "feed-00", part, 0, 8)
	readAck := func() uint64 {
		t.Helper()
		c.SetReadDeadline(time.Now().Add(5 * time.Second))
		kind, p, err := readFrame(c, nil)
		if err != nil || kind != kindAck {
			t.Fatalf("ack: kind=%d err=%v", kind, err)
		}
		n, err := parseAck(p)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	// Paced acks are pinned at the durable floor (0: nothing
	// checkpointed), not the live cursor.
	if got := readAck(); got != 0 {
		t.Fatalf("paced ack before any checkpoint = %d, want durable 0", got)
	}
	if got := readAck(); got != 0 {
		t.Fatalf("second paced ack = %d, want durable 0", got)
	}
	waitReceived(t, rcv, map[string]uint64{"feed-00": 8})
	if err := rcv.checkpoint(); err != nil {
		t.Fatal(err)
	}
	// A single feed gates only on itself: everything received was
	// released, so the checkpoint promoted the full prefix.
	sendRange(t, c, "feed-00", part, 8, 12)
	if got := readAck(); got != 8 {
		t.Fatalf("paced ack after checkpoint = %d, want durable 8", got)
	}
	// Heartbeats ack the durable floor too.
	if _, err := c.Write(appendHeartbeat(nil, 12, part[11].Time)); err != nil {
		t.Fatal(err)
	}
	if got := readAck(); got != 8 {
		t.Fatalf("heartbeat ack = %d, want durable 8", got)
	}
	// And the handshake resume after a reconnect is the durable cursor,
	// even though the live cursor is at 12.
	c.Close()
	c2, resume := helloExchange(t, ln.Addr().String(), "feed-00")
	if resume != 8 {
		t.Fatalf("reconnect resume = %d, want durable 8", resume)
	}
	c2.Close()
	rcv.Close()
	<-done

	// The close-time checkpoint covers everything released; a clean
	// restart resumes at the live head with nothing to refetch.
	ckpt, err := journal.LoadLatestCheckpoint(dir)
	if err != nil || ckpt == nil {
		t.Fatalf("no checkpoint after Close: %v", err)
	}
	if len(ckpt.Feeds) != 1 || ckpt.Feeds[0].NextSeq != 12 {
		t.Fatalf("final cursors = %+v, want feed-00 at 12", ckpt.Feeds)
	}
}
