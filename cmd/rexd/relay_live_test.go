package main

// Live relay test: a real BGP speaker feeds a collector wired exactly
// as run() wires -journal-dir with -relay-to — intake journal hook,
// journal append waking the relay feed, checkpoints that never trim
// past the analysis node's ack — while the analysis node itself comes
// up LATE. Events collected before the node exists must survive the
// checkpoint and be relayed on first contact; events collected after
// must flow live via the append wake-up. The node must end with every
// event exactly once.

import (
	"net"
	"net/netip"
	"testing"
	"time"

	"rex/internal/collector"
	"rex/internal/core/pipeline"
	"rex/internal/event"
	"rex/internal/journal"
	"rex/internal/relay"
)

func TestRelayFeedFromLiveCollector(t *testing.T) {
	dir := t.TempDir()
	const firstBatch, secondBatch = 20, 15
	const total = firstBatch + secondBatch

	// The collector stack, wired as run() does for -journal-dir.
	p1 := pipeline.New(pipeline.Config{Window: time.Hour, SpikeK: -1, Site: "t"})
	p1done := make(chan struct{})
	go func() {
		defer close(p1done)
		for range p1.Snapshots() {
		}
	}()
	var in1 *pipeline.Intake
	c1 := collector.New(collector.Config{
		LocalAS: 65002, LocalID: netip.MustParseAddr("10.255.0.1"),
		WithdrawOnSessionLoss: true, RestartTime: time.Minute,
	}, func(e event.Event) { in1.Offer(e) })
	dur1, err := openDurability(dir, journal.FsyncAlways, time.Hour, p1, c1)
	if err != nil {
		t.Fatal(err)
	}
	in1 = pipeline.NewIntake(pipeline.IntakeConfig{
		Policy: pipeline.OverloadBlock, Journal: dur1.journalEvent,
	}, p1)

	// The analysis node's listener exists (so the feed's dials land in
	// the backlog) but nothing accepts yet: the node is "down".
	rln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	feed := relay.NewFeed(relay.FeedConfig{
		ID: "c1", Dir: dir, Addr: rln.Addr().String(),
		MinBackoff: 10 * time.Millisecond, MaxBackoff: 50 * time.Millisecond,
		HeartbeatEvery: 20 * time.Millisecond, AckTimeout: 200 * time.Millisecond,
		IdleWatermark: time.Now,
	})
	dur1.feed.Store(feed)
	go feed.Run()

	// Batch one arrives while the node is down, and a checkpoint runs
	// with nothing acked: the trim floor must hold every un-relayed
	// record in the journal.
	h := newSpeaker(t, c1, 0)
	defer h.close()
	srv := h.waitServer(t, "only")
	h.waitUp(t, "only")
	for i := 0; i < firstBatch; i++ {
		if err := srv.Send(announceUpdate(i)); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 10*time.Second, "first batch journaled", func() bool { return dur1.st.NextSeq() >= firstBatch })
	if err := dur1.checkpoint(c1); err != nil {
		t.Fatal(err)
	}
	if feed.Acked() != 0 {
		t.Fatalf("acked %d with the node down", feed.Acked())
	}

	// The analysis node comes up and the backlog drains: first contact
	// must deliver the checkpoint-surviving batch.
	p2 := pipeline.New(pipeline.Config{Window: time.Hour, SpikeK: -1, Site: "node"})
	rcv := relay.NewReceiver(relay.ReceiverConfig{
		Pipeline: p2, ExpectFeeds: []string{"c1"},
		StaleAfter: time.Hour, AckEvery: 4, ReadTimeout: 500 * time.Millisecond,
	})
	go rcv.Serve(rln)
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for range rcv.Snapshots() {
		}
	}()
	waitFor(t, 15*time.Second, "first batch relayed", func() bool { return feed.Acked() >= firstBatch })

	// Batch two flows live: append → wake → stream, no heartbeat wait.
	for i := firstBatch; i < total; i++ {
		if err := srv.Send(announceUpdate(i)); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 15*time.Second, "second batch relayed", func() bool { return feed.Acked() >= total })

	st := rcv.Statuses()
	if len(st) != 1 || st[0].ID != "c1" {
		t.Fatalf("statuses: %+v", st)
	}
	if st[0].Received != total || st[0].NextSeq != total || st[0].Duplicates != 0 {
		t.Fatalf("node received %d (cursor %d, dups %d), want exactly %d",
			st[0].Received, st[0].NextSeq, st[0].Duplicates, total)
	}

	// Shutdown in run()'s order; the final checkpoint may now trim — the
	// ack floor has caught up.
	h.close()
	if err := c1.Close(); err != nil {
		t.Fatal(err)
	}
	in1.Close()
	if err := dur1.close(c1); err != nil {
		t.Fatal(err)
	}
	feed.Close()
	p1.Close()
	<-p1done
	rcv.Close()
	<-drained
}

// TestRelayFlagValidation covers the new flag plumbing without any
// network activity.
func TestRelayFlagValidation(t *testing.T) {
	if err := run([]string{"-relay-to", "127.0.0.1:1", "-run-for", "50ms", "-log-level", "warn"}); err == nil {
		t.Fatal("-relay-to without -journal-dir accepted")
	}
	if err := run([]string{"-relay-listen", "127.0.0.1:0", "-relay-to", "127.0.0.1:1",
		"-journal-dir", t.TempDir(), "-log-level", "warn"}); err == nil {
		t.Fatal("-relay-listen with -relay-to accepted")
	}
	// The analysis-node role itself: comes up, serves nothing, exits on
	// -run-for.
	if err := run([]string{"-relay-listen", "127.0.0.1:0", "-expect-feeds", "a, b",
		"-run-for", "100ms", "-log-level", "warn"}); err != nil {
		t.Fatalf("analysis-node smoke run: %v", err)
	}
}
