package pipeline

import (
	"net/netip"
	"testing"
	"time"

	"rex/internal/bgp"
	"rex/internal/core/tamp"
	"rex/internal/event"
)

// recoveryRoute builds an announce/withdraw pair for one route key.
func recoveryRoute(i int, asn uint32) (announce, withdraw event.Event) {
	e := event.Event{
		Time:   time.Date(2003, 8, 14, 20, 0, 0, 0, time.UTC).Add(time.Duration(i) * time.Second),
		Type:   event.Announce,
		Peer:   netip.MustParseAddr("128.32.1.3"),
		Prefix: netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i >> 8), byte(i), 0}), 24),
		Attrs: &bgp.PathAttrs{
			ASPath:  bgp.Sequence(asn, 701),
			Nexthop: netip.MustParseAddr("128.32.0.70"),
		},
	}
	w := e
	w.Type = event.Withdraw
	return e, w
}

// finalSnapshot closes p and returns its TriggerFinal snapshot.
func finalSnapshot(t *testing.T, p *Pipeline) Snapshot {
	t.Helper()
	var final Snapshot
	got := false
	done := make(chan struct{})
	go func() {
		defer close(done)
		for s := range p.Snapshots() {
			if s.Trigger == TriggerFinal {
				final, got = s, true
			}
		}
	}()
	p.Close()
	<-done
	if !got {
		t.Fatal("no final snapshot")
	}
	return final
}

// TestSeedAfterLiveEventIsStale is the fail-on-old-behavior regression
// test for the Seed/Ingest ordering hazard: during recovery, journal
// tail replay and live sessions feed the pipeline concurrently with
// checkpoint seeding, so a seed can arrive AFTER a live event for the
// same route key. The checkpoint state is older by construction — under
// the old behavior the late seed re-applied it anyway, resurrecting a
// route the live stream had already withdrawn. Inside a
// BeginRecovery/EndRecovery span the stale seed must be dropped.
func TestSeedAfterLiveEventIsStale(t *testing.T) {
	staleBefore := mSeedStale.Value()
	p := New(Config{SpikeK: -1, Buffer: 1})
	p.BeginRecovery()

	// The live stream has already withdrawn route 1 (the withdrawal was
	// journaled after the checkpoint was cut, and replays first)...
	seed1, withdraw1 := recoveryRoute(1, 11423)
	p.Ingest(withdraw1)
	// ...and then the checkpoint's stale announcement for it arrives.
	p.Seed(seed1)
	// A seed for an untouched key is still good state and must apply.
	seed2, _ := recoveryRoute(2, 11423)
	p.Seed(seed2)
	p.EndRecovery()

	final := finalSnapshot(t, p)
	if got := final.Picture.Total; got != 1 {
		t.Errorf("picture total = %d, want 1: stale seed for a live-touched key must not resurrect the withdrawn route", got)
	}
	if mSeedStale.Value() == staleBefore {
		t.Error("rex_pipeline_seed_stale_total did not count the dropped seed")
	}
	// Buffer=1 forces real interleaving through the channel: the seeds
	// above could not have raced ahead of the withdrawal.
}

// TestSeedLiveReplaceBeatsStaleSeed covers the announce flavor of the
// same hazard: a live path change during recovery must win over the
// checkpoint's older path.
func TestSeedLiveReplaceBeatsStaleSeed(t *testing.T) {
	p := New(Config{SpikeK: -1, Buffer: 1})
	p.BeginRecovery()

	stale, _ := recoveryRoute(1, 11423)
	live := stale
	live.Attrs = &bgp.PathAttrs{
		ASPath:  bgp.Sequence(209, 701), // the path moved providers
		Nexthop: netip.MustParseAddr("128.32.0.71"),
	}
	p.Ingest(live)
	p.Seed(stale)
	p.EndRecovery()

	final := finalSnapshot(t, p)
	edges := final.Picture.Edges
	sawNew, sawOld := false, false
	for _, e := range edges {
		if e.From == tamp.ASNode(209) || e.To == tamp.ASNode(209) {
			sawNew = true
		}
		if e.From == tamp.ASNode(11423) || e.To == tamp.ASNode(11423) {
			sawOld = true
		}
	}
	if !sawNew || sawOld {
		t.Errorf("picture edges = %+v: want the live AS209 path, not the checkpoint's AS11423 path", edges)
	}
}

// TestSeedOutsideRecoveryApplies pins the non-recovery contract: without
// a recovery span, Seed applies unconditionally even after a live event
// touched the key (legacy semantics, used by tests and tools that build
// table state directly).
func TestSeedOutsideRecoveryApplies(t *testing.T) {
	p := New(Config{SpikeK: -1, Buffer: 1})
	seed1, withdraw1 := recoveryRoute(1, 11423)
	p.Ingest(withdraw1)
	p.Seed(seed1)
	final := finalSnapshot(t, p)
	if got := final.Picture.Total; got != 1 {
		t.Errorf("picture total = %d, want 1: outside recovery a seed applies unconditionally", got)
	}
}

// TestRecoverySpanEnds verifies EndRecovery releases the stale tracking:
// a seed for a key touched only before EndRecovery applies again after.
func TestRecoverySpanEnds(t *testing.T) {
	p := New(Config{SpikeK: -1, Buffer: 1})
	seed1, withdraw1 := recoveryRoute(1, 11423)
	p.BeginRecovery()
	p.Ingest(withdraw1)
	p.EndRecovery()
	p.Seed(seed1)
	final := finalSnapshot(t, p)
	if got := final.Picture.Total; got != 1 {
		t.Errorf("picture total = %d, want 1: seeds after EndRecovery must apply", got)
	}
}
