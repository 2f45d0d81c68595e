package main

// Live durability tests: a real BGP speaker over real sockets, a
// faultconn-injected flap, a simulated daemon crash, and the recovery
// path rexd runs at startup. Plus the overload acceptance check: a
// deliberately stalled analysis consumer must not delay the
// collector's read loop past the hold timer.

import (
	"context"
	"net"
	"net/http/httptest"
	"net/netip"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"rex/internal/bgp"
	"rex/internal/bgp/fsm"
	"rex/internal/bgp/fsm/faultconn"
	"rex/internal/collector"
	"rex/internal/core/pipeline"
	"rex/internal/event"
	"rex/internal/journal"
	"rex/internal/obs"
)

// speaker is the remote end: a passive BGP speaker the collector dials
// through faultconn, so tests can announce routes and sever the
// transport mid-session.
type speaker struct {
	ln       net.Listener
	mgr      *fsm.PeerManager
	sessions chan *fsm.Session // server-side session per establish
	conns    chan *faultconn.Conn
	ups      chan *fsm.Session // collector-side session per establish
	wg       sync.WaitGroup
	closeMu  sync.Once
}

func newSpeaker(t *testing.T, c *collector.Collector, hold time.Duration) *speaker {
	t.Helper()
	h := &speaker{
		sessions: make(chan *fsm.Session, 8),
		conns:    make(chan *faultconn.Conn, 8),
		ups:      make(chan *fsm.Session, 8),
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	h.ln = ln
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			h.wg.Add(1)
			go func() {
				defer h.wg.Done()
				s, err := fsm.Establish(conn, fsm.Config{
					LocalAS: 65001, LocalID: netip.MustParseAddr("10.0.0.9"), HoldTime: hold,
				})
				if err != nil {
					return
				}
				h.sessions <- s
			}()
		}
	}()
	h.mgr = fsm.NewPeerManager(fsm.ManagerConfig{
		MinBackoff:      10 * time.Millisecond,
		MaxBackoff:      80 * time.Millisecond,
		IdleHoldTime:    10 * time.Millisecond,
		MaxIdleHoldTime: 80 * time.Millisecond,
		Jitter:          func() float64 { return 0 },
		Dial: func(_ context.Context, network, addr string) (net.Conn, error) {
			raw, err := net.Dial(network, addr)
			if err != nil {
				return nil, err
			}
			fc := faultconn.New(raw, faultconn.Options{})
			h.conns <- fc
			return fc, nil
		},
		OnUp: func(_ string, s *fsm.Session) {
			h.ups <- s
			go c.Run(s)
		},
	})
	if err := h.mgr.Add(ln.Addr().String(), fsm.Config{
		LocalAS: 65002, LocalID: netip.MustParseAddr("10.255.0.1"), HoldTime: hold,
	}); err != nil {
		t.Fatal(err)
	}
	return h
}

func (h *speaker) close() {
	h.closeMu.Do(func() {
		h.mgr.Close()
		h.ln.Close()
		h.wg.Wait()
		close(h.sessions)
		for s := range h.sessions {
			s.Close()
		}
	})
}

func (h *speaker) waitServer(t *testing.T, what string) *fsm.Session {
	t.Helper()
	select {
	case s := <-h.sessions:
		return s
	case <-time.After(10 * time.Second):
		t.Fatalf("%s server-side session never established", what)
		return nil
	}
}

func (h *speaker) waitUp(t *testing.T, what string) {
	t.Helper()
	select {
	case <-h.ups:
	case <-time.After(10 * time.Second):
		t.Fatalf("%s collector-side session never established", what)
	}
}

func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func announceUpdate(i int) *bgp.Update {
	return &bgp.Update{
		Attrs: &bgp.PathAttrs{
			Origin:  bgp.OriginIGP,
			ASPath:  bgp.Sequence(65001, 174),
			Nexthop: netip.MustParseAddr("10.0.0.1"),
		},
		NLRI: []netip.Prefix{netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i >> 8), byte(i), 0}), 24)},
	}
}

// TestJournalRecoveryAcrossRestart is the live recovery test: a
// faultconn-backed session announces routes and is flapped mid-run, a
// checkpoint is taken between the batches, the daemon's pipeline is
// then killed without any graceful final checkpoint — the crash — and
// a restarted collector/pipeline pair recovers from the directory.
// The restored table, the replayed event count, and the rebuilt TAMP
// picture must all match what the dead process had.
func TestJournalRecoveryAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	const firstBatch, secondBatch = 20, 10
	const total = firstBatch + secondBatch

	// --- Phase 1: live collection, exactly as run() wires it. ---
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

	h := newSpeaker(t, c1, 0)
	defer h.close()
	srv := h.waitServer(t, "first")
	h.waitUp(t, "first")
	for i := 0; i < firstBatch; i++ {
		if err := srv.Send(announceUpdate(i)); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 10*time.Second, "first batch installed", func() bool { return c1.NumRoutes() == firstBatch })
	waitFor(t, 10*time.Second, "first batch journaled", func() bool { return dur1.st.NextSeq() >= firstBatch })
	// The periodic checkpoint fires between the batches.
	if err := dur1.checkpoint(c1); err != nil {
		t.Fatal(err)
	}

	// The flap: sever the transport, let the manager redial, announce a
	// second batch over the new session.
	fc := <-h.conns
	fc.Cut()
	srv2 := h.waitServer(t, "second")
	h.waitUp(t, "second")
	for i := firstBatch; i < total; i++ {
		if err := srv2.Send(announceUpdate(i)); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 10*time.Second, "second batch installed", func() bool { return c1.NumRoutes() == total })
	waitFor(t, 10*time.Second, "second batch journaled", func() bool { return dur1.st.NextSeq() >= total })

	// The crash: stop the sessions, drain the intake into the journal,
	// and abandon everything else. Deliberately NO final checkpoint —
	// the journal tail is all the second batch leaves behind. The
	// collector is torn down only after journaling has stopped, so its
	// shutdown sweeps never reach the journal, just like a SIGKILLed
	// process's would not.
	h.close()
	in1.Close()
	if err := dur1.st.Close(); err != nil {
		t.Fatal(err)
	}
	c1.Close()
	p1.Close()
	<-p1done

	// --- Phase 2: the restarted daemon recovers the directory. ---
	p2 := pipeline.New(pipeline.Config{Window: time.Hour, SpikeK: -1, Site: "t"})
	var final pipeline.Snapshot
	p2done := make(chan struct{})
	go func() {
		defer close(p2done)
		for s := range p2.Snapshots() {
			if s.Trigger == pipeline.TriggerFinal {
				final = s
			}
		}
	}()
	c2 := collector.New(collector.Config{
		LocalAS: 65002, LocalID: netip.MustParseAddr("10.255.0.1"),
		WithdrawOnSessionLoss: true, RestartTime: time.Minute,
	}, func(event.Event) {})
	defer c2.Close()
	dur2, err := openDurability(dir, journal.FsyncAlways, time.Hour, p2, c2)
	if err != nil {
		t.Fatal(err)
	}
	defer dur2.st.Close()

	// The checkpoint covered the first batch; the journal tail replays
	// everything the hour-long analysis window still needs.
	if dur2.restored != firstBatch {
		t.Errorf("restored %d routes from the checkpoint, want %d", dur2.restored, firstBatch)
	}
	if got := c2.NumRoutes(); got != firstBatch {
		t.Errorf("restored collector holds %d routes, want %d", got, firstBatch)
	}
	if dur2.replayed != total {
		t.Errorf("replayed %d journaled events, want %d", dur2.replayed, total)
	}
	if dur2.st.NextSeq() != total {
		t.Errorf("resumed journal at seq %d, want %d", dur2.st.NextSeq(), total)
	}
	p2.Close()
	<-p2done
	if final.Picture == nil || final.Picture.Total != total {
		t.Fatalf("recovered TAMP picture holds %v routes, want %d", final.Picture, total)
	}
	if final.Events != total {
		t.Errorf("recovered window holds %d events, want %d", final.Events, total)
	}
}

// TestShedModeKeepsSessionAlive is the overload acceptance check: the
// analysis pipeline is deliberately wedged (unread snapshot, tiny
// buffer) while a peer announces a burst; with shed mode on the
// intake, the collector's read loop must stay undelayed — every route
// installed well inside the 3s hold time, no session-down, and the
// shed counter showing the overload was real.
func TestShedModeKeepsSessionAlive(t *testing.T) {
	ts := httptest.NewServer(obs.Handler(obs.Default))
	defer ts.Close()
	before := scrapeJSON(t, ts.URL)

	// Event-time ticks every millisecond into an unread Snapshots()
	// channel: the run loop wedges almost immediately.
	p := pipeline.New(pipeline.Config{Buffer: 4, SnapshotEvery: time.Millisecond, SpikeK: -1})
	var in *pipeline.Intake
	var downs atomic.Int64
	c := collector.New(collector.Config{
		LocalAS: 65002, LocalID: netip.MustParseAddr("10.255.0.1"),
		HoldTime:              3 * time.Second, // fsm.MinHoldTime: the tightest legal timer
		WithdrawOnSessionLoss: true,
		RestartTime:           collector.RestartDisabled,
		OnSessionEvent: func(e collector.SessionEvent) {
			if e.Kind == collector.SessionDown {
				downs.Add(1)
			}
		},
	}, func(e event.Event) { in.Offer(e) })
	in = pipeline.NewIntake(pipeline.IntakeConfig{Depth: 16, Policy: pipeline.OverloadShed}, p)

	h := newSpeaker(t, c, 3*time.Second)
	defer func() {
		h.close()
		c.Close()
		in.Close()
		done := make(chan struct{})
		go func() {
			defer close(done)
			for range p.Snapshots() {
			}
		}()
		p.Close()
		<-done
	}()
	srv := h.waitServer(t, "only")
	h.waitUp(t, "only")

	const n = 2000
	for i := 0; i < n; i++ {
		if err := srv.Send(announceUpdate(i)); err != nil {
			t.Fatalf("send %d failed — the session died mid-burst: %v", i, err)
		}
	}
	// Every announcement must be read and installed well inside one
	// hold interval; a blocked read loop would stall this far short of
	// n (pipeline buffer + intake queue is ~20 events).
	waitFor(t, 2500*time.Millisecond, "burst absorbed by the read loop", func() bool {
		return c.NumRoutes() == n
	})

	// Cross a full quiet hold interval: keepalives must sustain the
	// session even though the analysis consumer is still wedged.
	time.Sleep(3200 * time.Millisecond)
	if got := downs.Load(); got != 0 {
		t.Fatalf("%d session-down event(s) — hold timer expired behind a stalled consumer", got)
	}
	if peers := c.Peers(); len(peers) != 1 {
		t.Fatalf("peer list %v, want exactly one live peer", peers)
	}

	after := scrapeJSON(t, ts.URL)
	if d := num(after, "rex_intake_shed_total") - num(before, "rex_intake_shed_total"); d <= 0 {
		t.Errorf("intake shed nothing — the consumer was not actually overloaded")
	}
}

// TestRunSmokeWithJournal drives the real entry point through the new
// flags: a journaled run leaves segments and a final checkpoint
// behind, a second run recovers from them, and bad flag values are
// rejected.
func TestRunSmokeWithJournal(t *testing.T) {
	dir := t.TempDir()
	base := []string{
		"-listen", "127.0.0.1:0",
		"-run-for", "200ms",
		"-scan-every", "0",
		"-log-level", "warn",
		"-journal-dir", dir,
		"-checkpoint-every", "50ms",
	}
	if err := run(append(base, "-fsync", "always", "-overload", "block")); err != nil {
		t.Fatalf("journaled run: %v", err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "journal-*.rexj"))
	ckpts, _ := filepath.Glob(filepath.Join(dir, "checkpoint-*.rexc"))
	if len(segs) == 0 || len(ckpts) == 0 {
		t.Fatalf("journaled run left %d segments and %d checkpoints, want both > 0", len(segs), len(ckpts))
	}
	// Second run: the recovery path executes against the directory the
	// first run left behind.
	if err := run(append(base, "-fsync", "interval", "-overload", "shed")); err != nil {
		t.Fatalf("recovering run: %v", err)
	}
	if err := run(append(base, "-fsync", "sometimes")); err == nil {
		t.Fatal("bad -fsync accepted")
	}
	if err := run(append(base, "-overload", "drop")); err == nil {
		t.Fatal("bad -overload accepted")
	}
	// spill is gone: it let the live window hold fewer events than the
	// journal. The error names the policies that remain.
	if err := run(append(base, "-overload", "spill")); err == nil ||
		!strings.Contains(err.Error(), "block") || !strings.Contains(err.Error(), "shed") {
		t.Fatalf("-overload spill: %v, want an error naming block and shed", err)
	}
}
