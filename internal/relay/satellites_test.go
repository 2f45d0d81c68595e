package relay

import (
	"net"
	"testing"
	"time"

	"rex/internal/core/pipeline"
	"rex/internal/event"
	"rex/internal/fifo"
)

// drainReceiver discards wrapped snapshots until the channel closes, in
// the background; returns a done channel.
func drainReceiver(r *Receiver) chan struct{} {
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range r.Snapshots() {
		}
	}()
	return done
}

// TestRosterDedupe: a duplicated -expect-feeds entry used to duplicate
// the merge-order list, making the gate check the same feed twice and
// Statuses emit duplicate rows.
func TestRosterDedupe(t *testing.T) {
	rcv := NewReceiver(ReceiverConfig{
		Pipeline:    pipeline.New(fleetConfig()),
		ExpectFeeds: []string{"feed-a", "feed-a", "feed-b", "feed-a"},
		StaleAfter:  time.Hour,
	})
	done := drainReceiver(rcv)
	sts := rcv.Statuses()
	if len(sts) != 2 {
		t.Fatalf("%d status rows for roster {a,a,b,a}, want 2: %+v", len(sts), sts)
	}
	if sts[0].ID != "feed-a" || sts[1].ID != "feed-b" {
		t.Fatalf("status IDs %q,%q", sts[0].ID, sts[1].ID)
	}
	rcv.Close()
	<-done
}

// TestEventQueueRetention pins the head-indexed FIFO's allocation
// behavior on a feed's buffer: a long-lived feed in steady push/pop
// churn must not strand released-event capacity (the old
// `queue = queue[1:]` re-slice walked the backing array forward
// forever, so every refill reallocated).
func TestEventQueueRetention(t *testing.T) {
	events := fleetParts(t, 1, 64)["feed-00"]
	var q fifo.Queue[queuedEvent]
	// Warm up: fill and drain once so the backing array reaches its
	// steady size, then compaction keeps reusing it.
	for i, e := range events {
		q.Push(queuedEvent{seq: uint64(i), e: e})
	}
	for q.Len() > 0 {
		q.Pop()
	}
	allocs := testing.AllocsPerRun(100, func() {
		for i, e := range events {
			q.Push(queuedEvent{seq: uint64(i), e: e})
			q.Pop()
		}
	})
	if allocs > 0 {
		t.Fatalf("steady-state push/pop allocates %.1f/run, want 0", allocs)
	}
	// Drained, the live view starts at the backing array's front, so its
	// capacity is the array's.
	if c := cap(q.Items()); c > 4*len(events) {
		t.Fatalf("backing array grew to %d for %d-event churn", c, len(events))
	}
}

// TestEventQueuePopReleasesReferences: popped slots are zeroed so the
// buffer never pins event attributes past release — both the slots
// Pop frees one by one and those a compaction copies over.
func TestEventQueuePopReleasesReferences(t *testing.T) {
	events := fleetParts(t, 1, 80)["feed-00"]
	var q fifo.Queue[queuedEvent]
	for i, e := range events {
		q.Push(queuedEvent{seq: uint64(i), e: e})
	}
	// Pop past the compaction point (head > 32 and past half), then
	// drain: the emptied queue's live view reaches back over every slot
	// the queue ever used.
	for q.Len() > 0 {
		q.Pop()
	}
	live := q.Items()
	for i, qe := range live[:cap(live)] {
		if qe.e.Attrs != nil || qe.e.Prefix.IsValid() {
			t.Fatalf("released slot %d still holds event data: %+v", i, qe.e)
		}
	}
}

// TestAckDuringDuplicateReplay: a reconnecting feed replaying a long
// run below the cursor must receive progress acks mid-run — the old
// code skipped ack pacing for duplicates, so the feed could not advance
// its trim floor until its next heartbeat, which it only sends once
// caught up.
func TestAckDuringDuplicateReplay(t *testing.T) {
	const ackEvery = 4
	events := fleetParts(t, 1, 16)["feed-00"]
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rcv := NewReceiver(ReceiverConfig{
		Pipeline:    pipeline.New(fleetConfig()),
		ExpectFeeds: []string{"feed-00"},
		StaleAfter:  time.Hour,
		AckEvery:    ackEvery,
		ReadTimeout: 2 * time.Second,
	})
	go rcv.Serve(ln)
	done := drainReceiver(rcv)

	send := func(c net.Conn, seq int, e *event.Event) {
		t.Helper()
		frame, err := appendEventFrame(nil, uint64(seq), e)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.Write(frame); err != nil {
			t.Fatal(err)
		}
	}
	readAck := func(c net.Conn) uint64 {
		t.Helper()
		c.SetReadDeadline(time.Now().Add(2 * time.Second))
		kind, p, err := readFrame(c, nil)
		if err != nil || kind != kindAck {
			t.Fatalf("expected mid-replay ack, got kind=%d err=%v", kind, err)
		}
		next, err := parseAck(p)
		if err != nil {
			t.Fatal(err)
		}
		return next
	}

	// First session establishes the cursor at 8.
	c, _ := helloExchange(t, ln.Addr().String(), "feed-00")
	for i := 0; i < 8; i++ {
		send(c, i, &events[i])
	}
	if got := readAck(c); got != 4 {
		t.Fatalf("first paced ack = %d, want 4", got)
	}
	if got := readAck(c); got != 8 {
		t.Fatalf("second paced ack = %d, want 8", got)
	}
	c.Close()

	// Second session replays the whole run below the cursor: every
	// frame is a duplicate, and acks must still arrive every AckEvery
	// frames, pinned at the cursor.
	c2, next := helloExchange(t, ln.Addr().String(), "feed-00")
	if next != 8 {
		t.Fatalf("resume cursor = %d, want 8", next)
	}
	for i := 0; i < 8; i++ {
		send(c2, i, &events[i])
		if (i+1)%ackEvery == 0 {
			if got := readAck(c2); got != 8 {
				t.Fatalf("mid-replay ack after %d dups = %d, want cursor 8", i+1, got)
			}
		}
	}
	sts := rcv.Statuses()
	if sts[0].Duplicates != 8 || sts[0].Received != 8 {
		t.Fatalf("dups=%d received=%d, want 8/8", sts[0].Duplicates, sts[0].Received)
	}
	c2.Close()
	rcv.Close()
	<-done
}

// TestEverHeardStatus: the roster gate's "never said hello" state is
// observable — false for a rostered feed that never connected, true
// from the first hello onward, surviving disconnect.
func TestEverHeardStatus(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	rcv := NewReceiver(ReceiverConfig{
		Pipeline:    pipeline.New(fleetConfig()),
		ExpectFeeds: []string{"feed-00", "feed-01"},
		StaleAfter:  time.Hour,
		ReadTimeout: 2 * time.Second,
	})
	go rcv.Serve(ln)
	done := drainReceiver(rcv)

	for _, st := range rcv.Statuses() {
		if st.EverHeard {
			t.Fatalf("feed %s EverHeard before any hello", st.ID)
		}
	}
	c, _ := helloExchange(t, ln.Addr().String(), "feed-00")
	sts := rcv.Statuses()
	if !sts[0].EverHeard || sts[1].EverHeard {
		t.Fatalf("after feed-00 hello: %+v", sts)
	}
	c.Close()
	// EverHeard survives the disconnect: "came up and died", not
	// "never came up".
	deadline := time.Now().Add(2 * time.Second)
	for {
		sts = rcv.Statuses()
		if !sts[0].Connected {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("feed-00 never marked disconnected")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !sts[0].EverHeard {
		t.Fatal("EverHeard reset by disconnect")
	}
	rcv.Close()
	<-done
}
