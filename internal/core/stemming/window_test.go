package stemming

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"rex/internal/event"
)

// requireSameComponents asserts streamed and batch decompositions match
// exactly — same stems, scores, prefixes, event indexes, bounds.
func requireSameComponents(t *testing.T, got, want []Component) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("component count: got %d, want %d\n got: %+v\nwant: %+v", len(got), len(want), got, want)
	}
	for i := range got {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Fatalf("component %d diverges:\n got: %+v\nwant: %+v", i, got[i], want[i])
		}
	}
}

// windyStream builds a deterministic mixed stream: background noise over
// a prefix pool plus periodic concentrated incidents, n events one second
// apart.
func windyStream(n int, seed int64) event.Stream {
	rng := rand.New(rand.NewSource(seed))
	peers := []string{"128.32.1.3", "128.32.1.200", "128.32.1.7"}
	nexthops := []string{"128.32.0.66", "128.32.0.70", "128.32.0.90"}
	var s event.Stream
	for i := 0; i < n; i++ {
		typ := event.Announce
		if rng.Intn(3) == 0 {
			typ = event.Withdraw
		}
		var asns []uint32
		prefix := fmt.Sprintf("10.%d.%d.0/24", rng.Intn(40), rng.Intn(4))
		if i%7 < 3 {
			// Incident traffic: a shared 11423-209 trunk, the Figure 4 shape.
			asns = []uint32{11423, 209, uint32(700 + rng.Intn(4)), uint32(1200 + rng.Intn(8))}
		} else {
			asns = []uint32{11423, uint32(11400 + rng.Intn(6)), uint32(4500 + rng.Intn(20))}
		}
		s = append(s, mkEvent(typ, i, peers[rng.Intn(len(peers))], nexthops[rng.Intn(len(nexthops))], prefix, asns...))
	}
	return s
}

// TestWindowMatchesBatchNoEviction: with nothing evicted, the streamed
// window must decompose exactly as a batch Analyze over the same slice.
func TestWindowMatchesBatchNoEviction(t *testing.T) {
	s := figure4Stream()
	w := NewWindow(Config{}, 4)
	for _, e := range s {
		w.Add(e)
	}
	requireSameComponents(t, w.Snapshot(), Analyze(s, Config{}))
	if got := w.Events(); !reflect.DeepEqual(got, s) {
		t.Fatalf("window contents diverge from input:\n got %v\nwant %v", got, s)
	}
}

// TestWindowSlidingEquivalence is the headline acceptance test: slide a
// time window across a long stream — evicting incrementally, snapshotting
// repeatedly — and at every step the snapshot must equal batch Analyze on
// exactly the live window contents. Exercises ring growth (window holds
// more than the initial ring capacity).
func TestWindowSlidingEquivalence(t *testing.T) {
	const n = 3000
	s := windyStream(n, 42)
	window := 2000 * time.Second // up to 2000 live events: forces ring growth
	w := NewWindow(Config{}, 4)

	snapshots := 0
	for i, e := range s {
		w.Add(e)
		w.EvictBefore(e.Time.Add(-window))
		if i > 0 && i%500 == 0 {
			live := w.Events()
			requireSameComponents(t, w.Snapshot(), Analyze(live, Config{}))
			// And the window holds exactly the in-window suffix.
			var want event.Stream
			cutoff := e.Time.Add(-window)
			for _, ev := range s[:i+1] {
				if !ev.Time.Before(cutoff) {
					want = append(want, ev)
				}
			}
			if !reflect.DeepEqual(live, want) {
				t.Fatalf("step %d: window contents wrong: %d live, want %d", i, len(live), len(want))
			}
			snapshots++
		}
	}
	if snapshots < 5 {
		t.Fatalf("test exercised only %d snapshots", snapshots)
	}
	if w.Len() != 2001 {
		t.Errorf("final window = %d events, want 2001", w.Len())
	}
}

// TestWindowCountsMatchBatch: after seeded adds and irregular evictions,
// the window's incrementally maintained count table, decoded to token
// content, equals the table a batch analysis counts from scratch over
// the live events — exactly, key for key. Checked at 1 and 16 shards,
// unweighted and with a non-integer Weight. The weights are multiples
// of 1/4 so every add/evict sum is exact in float64: a mismatch is a
// counting error, not rounding.
func TestWindowCountsMatchBatch(t *testing.T) {
	s := windyStream(1200, 5)
	weights := []struct {
		name string
		fn   func(e *event.Event) float64
	}{
		{"unweighted", nil},
		{"quarter-weights", func(e *event.Event) float64 { return 0.25 * float64(1+e.Prefix.Addr().As4()[1]%7) }},
	}
	for _, wt := range weights {
		for _, shards := range []int{1, 16} {
			t.Run(fmt.Sprintf("%s/shards=%d", wt.name, shards), func(t *testing.T) {
				cfg := Config{Weight: wt.fn}
				w := NewWindow(cfg, shards)
				rng := rand.New(rand.NewSource(int64(shards)))
				for i, e := range s {
					w.Add(e)
					if rng.Intn(8) == 0 {
						w.EvictBefore(e.Time.Add(-time.Duration(100+rng.Intn(400)) * time.Second))
					}
					if i%300 != 299 {
						continue
					}
					batch := newAnalysis(w.Events(), cfg.withDefaults())
					got, want := decodedCounts(w.in, w.counts), decodedCounts(batch.in, batch.counts)
					if len(want) == 0 {
						t.Fatal("batch table is empty: nothing compared")
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("step %d (%d live): window table has %d keys, batch %d, or counts differ", i, w.Len(), len(got), len(want))
					}
				}
			})
		}
	}
}

// TestWindowShardCountInvariance: the decomposition must not depend on
// the window's shard count, which only keys the TAMP layout.
func TestWindowShardCountInvariance(t *testing.T) {
	s := windyStream(800, 7)
	var base []Component
	for i, shards := range []int{1, 3, 8} {
		w := NewWindow(Config{}, shards)
		for _, e := range s {
			w.Add(e)
		}
		w.EvictBefore(s[200].Time)
		got := w.Snapshot()
		if i == 0 {
			base = got
			if len(base) == 0 {
				t.Fatal("no components to compare")
			}
			continue
		}
		requireSameComponents(t, got, base)
	}
}

// TestWindowFullTurnover: evict everything; the window must come back
// empty and accept new events afterwards.
func TestWindowFullTurnover(t *testing.T) {
	w := NewWindow(Config{}, 2)
	s := figure4Stream()
	for _, e := range s {
		w.Add(e)
	}
	if n := w.EvictBefore(s[len(s)-1].Time.Add(time.Second)); n != len(s) {
		t.Fatalf("evicted %d, want %d", n, len(s))
	}
	if w.Len() != 0 || w.Snapshot() != nil || len(w.Events()) != 0 {
		t.Fatalf("window not empty after full turnover: len=%d", w.Len())
	}
	// Count tables must be fully drained, not just masked: a fresh
	// identical stream decomposes as if the first had never happened.
	for _, e := range s {
		w.Add(e)
	}
	requireSameComponents(t, w.Snapshot(), Analyze(s, Config{}))
}

// TestWindowSnapshotNonDestructive: Snapshot twice in a row gives the
// same answer (the extraction mutates a copy, not the window's tables).
func TestWindowSnapshotNonDestructive(t *testing.T) {
	w := NewWindow(Config{}, 4)
	for _, e := range windyStream(300, 3) {
		w.Add(e)
	}
	first := w.Snapshot()
	second := w.Snapshot()
	requireSameComponents(t, second, first)
}

// TestWindowEmpty pins the zero-state behaviour.
func TestWindowEmpty(t *testing.T) {
	w := NewWindow(Config{}, 0)
	if w.Len() != 0 || w.Snapshot() != nil || w.EvictBefore(t0) != 0 {
		t.Fatal("empty window misbehaves")
	}
}
