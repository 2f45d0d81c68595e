package pipeline

import (
	"reflect"
	"testing"
	"time"

	"rex/internal/event"
	"rex/internal/sim"
)

// drainDuring runs fn (which ingests and must end with a synchronizing
// TriggerQuery) while draining the pipeline's snapshots inline, and
// returns the snapshots delivered before fn returned. Because emission
// is an unbuffered rendezvous with this loop and TriggerQuery's answer
// is ordered after every prior emission, the returned slice is exactly
// the emissions caused by fn's events — no race with a background
// collector goroutine.
func drainDuring(p *Pipeline, fn func()) []Snapshot {
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	var out []Snapshot
	for {
		select {
		case s, ok := <-p.Snapshots():
			if !ok {
				return out
			}
			out = append(out, s)
		case <-done:
			return out
		}
	}
}

// drainToClose feeds the remaining events, closes the pipeline, and
// collects everything through the final snapshot.
func drainToClose(p *Pipeline, events []Snapshot, feed func()) []Snapshot {
	go func() {
		feed()
		p.Close()
	}()
	for s := range p.Snapshots() {
		events = append(events, s)
	}
	return events
}

func TestTriggerQueryPosition(t *testing.T) {
	stream := diffStreams(t)[0].events
	p := New(diffConfig(1))
	var ts TriggerState
	var ok bool
	drainDuring(p, func() {
		for _, e := range stream[:100] {
			p.Ingest(e)
		}
		ts, ok = p.TriggerQuery()
	})
	if !ok {
		t.Fatal("query failed on a live pipeline")
	}
	want := stream[0].Time
	for _, e := range stream[:100] {
		if e.Time.After(want) {
			want = e.Time
		}
	}
	if !ts.Clock.Equal(want) {
		t.Fatalf("Clock %v, want newest ingested time %v", ts.Clock, want)
	}
	if ts.NextTick.IsZero() || !ts.NextTick.After(ts.Clock) {
		t.Fatalf("NextTick %v not ahead of Clock %v", ts.NextTick, ts.Clock)
	}
	drainToClose(p, nil, func() {})
}

func TestTriggerQueryAfterClose(t *testing.T) {
	p := New(diffConfig(1))
	drainToClose(p, nil, func() {})
	if _, ok := p.TriggerQuery(); ok {
		t.Fatal("query succeeded on a closed pipeline")
	}
}

// TestRestoreTriggersSilentReplay is the restart contract the
// analysis-node recovery path depends on: capture trigger state at a
// cut point, rebuild a fresh pipeline by restoring the state and
// re-processing the prefix, and (a) the rebuild emits nothing, (b) the
// stitched run (pre-cut emissions + post-cut emissions) is
// byte-identical to the uninterrupted run.
func TestRestoreTriggersSilentReplay(t *testing.T) {
	for _, ds := range diffStreams(t)[:3] {
		ds := ds
		t.Run(ds.name, func(t *testing.T) {
			stream := ds.events
			uninterrupted := Replay(stream, diffConfig(1))

			cut := len(stream) / 2

			// First incarnation: run the prefix, capture, die. The final
			// snapshot its Close emits is discarded — a SIGKILLed node
			// never got to emit one.
			p1 := New(diffConfig(1))
			var ts TriggerState
			var ok bool
			pre := drainDuring(p1, func() {
				for _, e := range stream[:cut] {
					p1.Ingest(e)
				}
				ts, ok = p1.TriggerQuery()
			})
			if !ok {
				t.Fatal("capture failed")
			}
			drainToClose(p1, nil, func() {})

			// Second incarnation: restore, silently replay the prefix,
			// then continue with the suffix.
			p2 := New(diffConfig(1))
			replayed := drainDuring(p2, func() {
				p2.RestoreTriggers(ts)
				p2.BeginRecovery()
				for _, e := range stream[:cut] {
					p2.Ingest(e)
				}
				p2.EndRecovery()
				if _, ok := p2.TriggerQuery(); !ok {
					t.Error("barrier query failed")
				}
			})
			if len(replayed) != 0 {
				t.Fatalf("replay emitted %d snapshots, want 0", len(replayed))
			}
			post := drainToClose(p2, nil, func() {
				for _, e := range stream[cut:] {
					p2.Ingest(e)
				}
			})

			stitched := append(append([]Snapshot(nil), pre...), post...)
			got, want := renderSnapshots(stitched), renderSnapshots(uninterrupted)
			if got != want {
				t.Fatalf("stitched run diverges: %s", firstDiff(got, want))
			}
			if len(uninterrupted) < 3 {
				t.Fatalf("vacuous: only %d snapshots", len(uninterrupted))
			}
		})
	}
}

// TestRecoverySpanCoalesces is the recovery-span contract a cold start
// depends on: a prefix replayed inside BeginRecovery/EndRecovery emits
// at most one snapshot — the recovered state, carrying the last trigger
// that fell due — while the trigger state, and so every snapshot after
// the span, stays exactly that of the uninterrupted run.
func TestRecoverySpanCoalesces(t *testing.T) {
	ds := diffStreams(t)
	scale, mixed := ds[0].events, ds[len(ds)-1].events
	ticks := diffConfig(1)
	ticks.SpikeK = -1
	spikes := diffConfig(1)
	spikes.SnapshotEvery = 0 // rexd's default: spike snapshots only
	cases := []struct {
		name   string
		cfg    Config
		stream event.Stream
		cut    int
		last   Trigger // the last trigger due over the prefix; 0: none
	}{
		{"ticks", ticks, scale, len(scale) / 2, TriggerTick},
		{"spikes", spikes, mixed, len(mixed) / 2, TriggerSpike},
		{"nothing-due", diffConfig(1), scale, 10, 0},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			prefix, suffix := c.stream[:c.cut], c.stream[c.cut:]
			ingest := func(p *Pipeline, s event.Stream) {
				for _, e := range s {
					p.Ingest(e)
				}
			}

			// The uninterrupted run, split at the cut.
			p1 := New(c.cfg)
			var wantTS TriggerState
			pre := drainDuring(p1, func() {
				ingest(p1, prefix)
				wantTS, _ = p1.TriggerQuery()
			})
			wantPost := drainToClose(p1, nil, func() { ingest(p1, suffix) })

			// The same prefix inside a recovery span, then the suffix live.
			p2 := New(c.cfg)
			var gotTS TriggerState
			span := drainDuring(p2, func() {
				p2.BeginRecovery()
				ingest(p2, prefix)
				p2.EndRecovery()
				gotTS, _ = p2.TriggerQuery()
			})
			gotPost := drainToClose(p2, nil, func() { ingest(p2, suffix) })

			if c.last == 0 {
				if len(pre) != 0 || len(span) != 0 {
					t.Fatalf("nothing falls due: uninterrupted emitted %d, span emitted %d; want 0 and 0", len(pre), len(span))
				}
			} else {
				if len(pre) == 0 {
					t.Fatal("vacuous: no trigger fell due over the prefix")
				}
				if len(span) != 1 {
					t.Fatalf("recovery span emitted %d snapshots, want exactly 1", len(span))
				}
				last := pre[len(pre)-1]
				got := span[0]
				if last.Trigger != c.last || got.Trigger != c.last || !reflect.DeepEqual(got.Spike, last.Spike) {
					t.Fatalf("coalesced snapshot carries %v %+v, want the last due trigger %v %+v",
						got.Trigger, got.Spike, last.Trigger, last.Spike)
				}

				// The recovered state is the state a one-shot replay of
				// the prefix reaches.
				want, err := ReplayState(c.cfg, nil, func(fn func(e *event.Event)) error {
					for i := range prefix {
						fn(&prefix[i])
					}
					return nil
				})
				if err != nil {
					t.Fatal(err)
				}
				got.Trigger, got.Spike = want.Trigger, want.Spike
				if g, w := renderSnapshots([]Snapshot{got}), renderSnapshots([]Snapshot{want}); g != w {
					t.Fatalf("coalesced snapshot is not the recovered state: %s", firstDiff(g, w))
				}
			}

			if gotTS.Emitted != uint64(len(span)) {
				t.Errorf("Emitted = %d after the span, want %d", gotTS.Emitted, len(span))
			}
			gotTS.Emitted, wantTS.Emitted = 0, 0
			if gotTS != wantTS {
				t.Fatalf("trigger state after the span %+v, uninterrupted %+v", gotTS, wantTS)
			}
			if g, w := renderSnapshots(gotPost), renderSnapshots(wantPost); g != w {
				t.Fatalf("snapshots after the span diverge: %s", firstDiff(g, w))
			}
		})
	}
}

// BenchmarkRecoverySpan is a cold start in the bench's steady shape,
// without the daemon: the Berkeley-scale table (23 k routes) plus 12 000
// events at about 2 000 events/s, replayed inside one recovery span on
// a 250 ms tick grid, which falls due 33 times over the 8.3 s of event
// time. The timed part ends when the span's snapshots have been
// delivered; snapshots/op is how many there were.
func BenchmarkRecoverySpan(b *testing.B) {
	site := sim.BerkeleyScale(23_000).Site
	routes := site.BaselineRoutes()
	start := time.Date(2003, 8, 14, 20, 0, 0, 0, time.UTC)
	var journal event.Stream
	for _, r := range routes {
		journal = append(journal, r.Event(start, event.Announce))
	}
	journal = append(journal, sim.BenchEvents(site, routes, 12_000, 6*time.Second, start, 1)...)
	cfg := Config{SnapshotEvery: 250 * time.Millisecond, SpikeK: -1, Site: "berkeley"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := New(cfg)
		var ts TriggerState
		drainDuring(p, func() {
			p.BeginRecovery()
			for _, e := range journal {
				p.Ingest(e)
			}
			p.EndRecovery()
			ts, _ = p.TriggerQuery()
		})
		b.StopTimer()
		drainToClose(p, nil, func() {})
		b.StartTimer()
		b.ReportMetric(float64(ts.Emitted), "snapshots/op")
	}
}
