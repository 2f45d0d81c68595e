package pipeline

import (
	"net/netip"
	"testing"
	"time"

	"rex/internal/bgp"
	"rex/internal/event"
)

func intakeEvent(i int) event.Event {
	return event.Event{
		Time:   time.Date(2003, 8, 14, 20, 0, 0, 0, time.UTC).Add(time.Duration(i) * time.Second),
		Type:   event.Announce,
		Peer:   netip.MustParseAddr("128.32.1.3"),
		Prefix: netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i >> 8), byte(i), 0}), 24),
		Attrs: &bgp.PathAttrs{
			ASPath:  bgp.Sequence(11423, 701),
			Nexthop: netip.MustParseAddr("128.32.0.70"),
		},
	}
}

// stalledPipeline returns a pipeline whose run loop is wedged emitting
// a snapshot nobody reads — the pathological consumer the hold-timer
// bug needs. Ticks every event-second guarantee the wedge happens
// within a few events.
func stalledPipeline() *Pipeline {
	return New(Config{Buffer: 4, SnapshotEvery: time.Second, SpikeK: -1})
}

// drainAndClose unwedges and shuts down a stalled pipeline.
func drainAndClose(p *Pipeline) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range p.Snapshots() {
		}
	}()
	p.Close()
	<-done
}

// TestIngestBlockingBaseline documents the hazard the shed policy
// exists for: a producer using blocking Ingest does NOT finish while
// the consumer is stalled. This is the control for the Intake's shed
// tests — if this starts passing, the pipeline's blocking semantics
// changed and the Intake policies need rethinking.
func TestIngestBlockingBaseline(t *testing.T) {
	p := stalledPipeline()
	defer drainAndClose(p)

	finished := make(chan struct{})
	go func() {
		defer close(finished)
		for i := 0; i < 10000; i++ {
			p.Ingest(intakeEvent(i))
		}
	}()
	select {
	case <-finished:
		t.Fatal("blocking Ingest finished against a stalled consumer; the wedge this PR guards against is gone")
	case <-time.After(300 * time.Millisecond):
		// Wedged, as documented. drainAndClose unwedges it; the producer
		// drains into the closed pipeline and exits.
	}
}

func TestSeedBuildsTablesWithoutWindow(t *testing.T) {
	p := New(Config{SpikeK: -1})
	var final Snapshot
	done := make(chan struct{})
	go func() {
		defer close(done)
		for s := range p.Snapshots() {
			if s.Trigger == TriggerFinal {
				final = s
			}
		}
	}()
	for i := 0; i < 30; i++ {
		p.Seed(intakeEvent(i))
	}
	p.Close()
	<-done
	if final.Events != 0 {
		t.Fatalf("seeds leaked into the window: %d events", final.Events)
	}
	if final.Picture.Total != 30 {
		t.Fatalf("seeded picture holds %d routes, want 30", final.Picture.Total)
	}
	if len(final.Components) != 0 {
		t.Fatalf("seeds produced %d Stemming components, want none", len(final.Components))
	}
}

func TestIntakePolicies(t *testing.T) {
	t.Run("block-lossless", func(t *testing.T) {
		p := New(Config{SpikeK: -1})
		var final Snapshot
		done := make(chan struct{})
		go func() {
			defer close(done)
			for s := range p.Snapshots() {
				if s.Trigger == TriggerFinal {
					final = s
				}
			}
		}()
		var journaled int
		in := NewIntake(IntakeConfig{Depth: 8, Policy: OverloadBlock,
			Journal: func(e *event.Event) error { journaled++; return nil }}, p)
		for i := 0; i < 500; i++ {
			in.Offer(intakeEvent(i))
		}
		in.Close()
		p.Close()
		<-done
		if journaled != 500 {
			t.Fatalf("journaled %d events, want 500", journaled)
		}
		if final.Events != 500 {
			t.Fatalf("window held %d events, want 500", final.Events)
		}
	})

	t.Run("shed-bounded", func(t *testing.T) {
		p := stalledPipeline()
		defer drainAndClose(p)
		in := NewIntake(IntakeConfig{Depth: 8, Policy: OverloadShed}, p)
		finished := make(chan struct{})
		go func() {
			defer close(finished)
			for i := 0; i < 5000; i++ {
				in.Offer(intakeEvent(i))
			}
			in.Close()
		}()
		select {
		case <-finished:
		case <-time.After(5 * time.Second):
			t.Fatal("shed-mode producer blocked")
		}
	})
}

// TestIntakeShedJournalsOnlyDelivered: under the shed policy every
// journaled event reaches the pipeline, even when the intake closes
// behind a stalled consumer — otherwise a shutdown leaves events in the
// journal that the live window never counted, and a restart or /api/at
// would disagree with what was served.
func TestIntakeShedJournalsOnlyDelivered(t *testing.T) {
	p := stalledPipeline()
	journaled := 0 // written by the drainer; read after Close returns
	in := NewIntake(IntakeConfig{Depth: 64, Policy: OverloadShed,
		Journal: func(e *event.Event) error { journaled++; return nil }}, p)
	const offered = 500
	for i := 0; i < offered; i++ {
		in.Offer(intakeEvent(i))
	}
	closed := make(chan struct{})
	go func() {
		defer close(closed)
		in.Close()
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("closing intake wedged behind the stalled pipeline")
	}
	var final Snapshot
	done := make(chan struct{})
	go func() {
		defer close(done)
		for s := range p.Snapshots() {
			if s.Trigger == TriggerFinal {
				final = s
			}
		}
	}()
	p.Close()
	<-done
	if journaled >= offered {
		t.Fatalf("journaled all %d events: the pipeline was never stalled", journaled)
	}
	if final.Events != journaled {
		t.Fatalf("journaled %d events but the window counted %d", journaled, final.Events)
	}
}

func TestParseOverloadPolicy(t *testing.T) {
	for _, s := range []string{"block", "shed"} {
		pol, err := ParseOverloadPolicy(s)
		if err != nil {
			t.Fatal(err)
		}
		if pol.String() != s {
			t.Fatalf("%q parsed to %v", s, pol)
		}
	}
	for _, s := range []string{"drop", "spill"} {
		if _, err := ParseOverloadPolicy(s); err == nil {
			t.Fatalf("bad policy %q accepted", s)
		}
	}
}
