// Benchmarks regenerating the paper's Table I and timing each figure's
// pipeline. Absolute numbers will not match the paper's 3.06 GHz
// Pentium 4; the shape must: TAMP pictures ~linear in routes, animation
// and Stemming ~linear in events, ISP runs slower than Berkeley at equal
// event counts (larger RIB/topology state). cmd/experiments prints the
// tables in the paper's layout; EXPERIMENTS.md records paper-vs-measured.
package rex_test

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"rex/internal/core/pipeline"
	"rex/internal/core/stemming"
	"rex/internal/core/tamp"
	"rex/internal/event"
	"rex/internal/journal"
	"rex/internal/sim"
	"rex/internal/viz"
)

var benchStart = time.Date(2003, 8, 1, 0, 0, 0, 0, time.UTC)

// ---- dataset caches (built once per size, shared across benchmarks) ----

type berkeleyData struct {
	site    *sim.BerkeleySite
	routes  []sim.SiteRoute
	entries []tamp.RouteEntry
}

type ispData struct {
	site    *sim.ISPAnonSite
	routes  []sim.SiteRoute
	entries []tamp.RouteEntry
}

var (
	berkeleyCache = map[int]*berkeleyData{}
	ispCache      = map[int]*ispData{}
	eventCache    = map[string]event.Stream{}
)

func berkeleyAt(b *testing.B, routes int) *berkeleyData {
	b.Helper()
	if d, ok := berkeleyCache[routes]; ok {
		return d
	}
	site := sim.BerkeleyScale(routes)
	rs := site.BaselineRoutes()
	d := &berkeleyData{site: site, routes: rs, entries: toEntries(rs)}
	berkeleyCache[routes] = d
	return d
}

func ispAt(b *testing.B, routes int) *ispData {
	b.Helper()
	if d, ok := ispCache[routes]; ok {
		return d
	}
	site := sim.ISPAnonScale(routes)
	rs := site.BaselineRoutes()
	d := &ispData{site: site, routes: rs, entries: toEntries(rs)}
	ispCache[routes] = d
	return d
}

func toEntries(rs []sim.SiteRoute) []tamp.RouteEntry {
	out := make([]tamp.RouteEntry, len(rs))
	for i, r := range rs {
		out[i] = r.TAMPEntry()
	}
	return out
}

func benchEvents(b *testing.B, key string, site *sim.Site, baseline []sim.SiteRoute, n int, over time.Duration) event.Stream {
	b.Helper()
	if s, ok := eventCache[key]; ok {
		return s
	}
	s := sim.BenchEvents(site, baseline, n, over, benchStart, 42)
	if len(s) != n {
		b.Fatalf("dataset %s: %d events, want %d", key, len(s), n)
	}
	eventCache[key] = s
	return s
}

// ---- Table I(a): Berkeley ----

// BenchmarkTableIA_TAMPPicture times computing and pruning a TAMP picture
// from N routes (paper: 0.5s/1.6s/1.8s for 23k/115k/230k).
func BenchmarkTableIA_TAMPPicture(b *testing.B) {
	for _, routes := range []int{23_000, 115_000, 230_000} {
		d := berkeleyAt(b, routes)
		b.Run(fmt.Sprintf("routes=%dk", routes/1000), func(b *testing.B) {
			b.ReportMetric(float64(len(d.routes)), "routes")
			for i := 0; i < b.N; i++ {
				g := tamp.New("berkeley")
				for _, e := range d.entries {
					g.AddRoute(e)
				}
				pic := g.Snapshot(tamp.PruneOptions{})
				if pic.Total == 0 {
					b.Fatal("empty picture")
				}
			}
		})
	}
}

// BenchmarkTableIA_TAMPAnimation times tracking N events into animation
// frames over the Berkeley table (paper: 0.5s/1.1s/9s/78s for
// 1k/10k/100k/1000k). Baseline ingestion is excluded, matching the
// paper's "we do not include time to rebuild the data structures".
func BenchmarkTableIA_TAMPAnimation(b *testing.B) {
	d := berkeleyAt(b, 23_000)
	for _, n := range []int{1_000, 10_000, 100_000, 1_000_000} {
		over := time.Duration(n/2) * time.Second // paper-like multi-hour ranges
		events := benchEvents(b, fmt.Sprintf("ba%d", n), d.site.Site, d.routes, n, over)
		b.Run(fmt.Sprintf("events=%dk", n/1000), func(b *testing.B) {
			b.ReportMetric(float64(n), "events")
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				an := tamp.NewAnimator("berkeley", d.entries)
				b.StartTimer()
				anim := an.Run(events, tamp.AnimationConfig{})
				if anim.NumFrames == 0 {
					b.Fatal("no frames")
				}
			}
		})
	}
}

// BenchmarkTableIA_Stemming times the full decomposition of real-size
// event spikes (paper: 8.6s/9.5s/17.3s for 12k/57k/330k).
func BenchmarkTableIA_Stemming(b *testing.B) {
	d := berkeleyAt(b, 23_000)
	for _, n := range []int{12_000, 57_000, 330_000} {
		events := benchEvents(b, fmt.Sprintf("bs%d", n), d.site.Site, d.routes, n, 15*time.Minute)
		b.Run(fmt.Sprintf("events=%dk", n/1000), func(b *testing.B) {
			b.ReportMetric(float64(n), "events")
			for i := 0; i < b.N; i++ {
				comps := stemming.Analyze(events, stemming.Config{})
				if len(comps) == 0 {
					b.Fatal("no components")
				}
			}
		})
	}
}

// ---- Table I(b): ISP-Anon ----

// BenchmarkTableIB_TAMPPicture (paper: 1.5s/3.8s/7s for 150k/750k/1500k).
func BenchmarkTableIB_TAMPPicture(b *testing.B) {
	for _, routes := range []int{150_000, 750_000, 1_500_000} {
		d := ispAt(b, routes)
		b.Run(fmt.Sprintf("routes=%dk", routes/1000), func(b *testing.B) {
			b.ReportMetric(float64(len(d.routes)), "routes")
			for i := 0; i < b.N; i++ {
				g := tamp.New("isp-anon")
				for _, e := range d.entries {
					g.AddRoute(e)
				}
				pic := g.Snapshot(tamp.PruneOptions{})
				if pic.Total == 0 {
					b.Fatal("empty picture")
				}
			}
		})
	}
}

// BenchmarkTableIB_TAMPAnimation (paper: 1.0s/1.6s/9.4s/88.5s).
func BenchmarkTableIB_TAMPAnimation(b *testing.B) {
	d := ispAt(b, 150_000)
	for _, n := range []int{1_000, 10_000, 100_000, 1_000_000} {
		over := time.Duration(n/10) * time.Second // chattier: shorter ranges
		events := benchEvents(b, fmt.Sprintf("ia%d", n), d.site.Site, d.routes, n, over)
		b.Run(fmt.Sprintf("events=%dk", n/1000), func(b *testing.B) {
			b.ReportMetric(float64(n), "events")
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				an := tamp.NewAnimator("isp-anon", d.entries)
				b.StartTimer()
				anim := an.Run(events, tamp.AnimationConfig{})
				if anim.NumFrames == 0 {
					b.Fatal("no frames")
				}
			}
		})
	}
}

// BenchmarkTableIB_Stemming (paper: 32.8s/34.1s/35.2s for
// 214k/346k/791k).
func BenchmarkTableIB_Stemming(b *testing.B) {
	d := ispAt(b, 150_000)
	for _, n := range []int{214_000, 346_000, 791_000} {
		events := benchEvents(b, fmt.Sprintf("is%d", n), d.site.Site, d.routes, n, time.Hour)
		b.Run(fmt.Sprintf("events=%dk", n/1000), func(b *testing.B) {
			b.ReportMetric(float64(n), "events")
			for i := 0; i < b.N; i++ {
				comps := stemming.Analyze(events, stemming.Config{})
				if len(comps) == 0 {
					b.Fatal("no components")
				}
			}
		})
	}
}

// ---- Figures ----

// BenchmarkFigure2BerkeleyPicture: the load-balance picture at the
// paper's actual Berkeley size (~23k routes).
func BenchmarkFigure2BerkeleyPicture(b *testing.B) {
	d := berkeleyAt(b, 23_000)
	for i := 0; i < b.N; i++ {
		g := tamp.New("berkeley")
		for _, e := range d.entries {
			g.AddRoute(e)
		}
		pic := g.Snapshot(tamp.PruneOptions{})
		_ = viz.ASCII(pic)
	}
}

// BenchmarkFigure3MEDAnimation: generating and animating one second of
// the §IV-F oscillation.
func BenchmarkFigure3MEDAnimation(b *testing.B) {
	is := sim.ISPAnon(sim.ISPAnonConfig{})
	sc := sim.MEDOscillationScenario(is, time.Second, 0, 0, benchStart)
	entries := toEntries(sc.Baseline)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		an := tamp.NewAnimator(is.Name, entries)
		b.StartTimer()
		anim := an.Run(sc.Events, tamp.AnimationConfig{})
		if anim.NumFrames == 0 {
			b.Fatal("no frames")
		}
	}
}

// BenchmarkFigure4Stem: stemming the 10-withdrawal spike (detection
// latency floor).
func BenchmarkFigure4Stem(b *testing.B) {
	d := berkeleyAt(b, 23_000)
	spike := sim.SessionResetScenario(d.site.Site, d.routes[:100], sim.ASCalREN, time.Minute, benchStart)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := stemming.Top(spike.Events, stemming.Config{}); !ok {
			b.Fatal("no stem")
		}
	}
}

// BenchmarkFigure5HierarchicalPruning vs flat: the ablation for keeping
// the operator's own domain visible.
func BenchmarkFigure5HierarchicalPruning(b *testing.B) {
	d := berkeleyAt(b, 23_000)
	g := tamp.New("berkeley")
	for _, e := range d.entries {
		g.AddRoute(e)
	}
	b.Run("flat", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g.Snapshot(tamp.PruneOptions{})
		}
	})
	b.Run("hierarchical", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g.Snapshot(tamp.PruneOptions{KeepDepth: 3})
		}
	})
}

// BenchmarkFigure6CommunitySubset: building the picture of one
// community's routes out of the full table.
func BenchmarkFigure6CommunitySubset(b *testing.B) {
	d := berkeleyAt(b, 23_000)
	for i := 0; i < b.N; i++ {
		g := tamp.New("berkeley-2152-65297")
		for _, r := range d.routes {
			if r.Attrs.HasCommunity(sim.CommLosNettos) {
				g.AddRoute(r.TAMPEntry())
			}
		}
		g.Snapshot(tamp.PruneOptions{Threshold: -1})
	}
}

// BenchmarkFigure7LeakAnimation: the §IV-D leak incident end to end
// (generation excluded, animation timed).
func BenchmarkFigure7LeakAnimation(b *testing.B) {
	site := sim.Berkeley(sim.BerkeleyConfig{Misconfigured: true})
	sc := sim.PeerLeakScenario(site, 2, benchStart)
	entries := toEntries(sc.Baseline)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		an := tamp.NewAnimator("berkeley", entries)
		b.StartTimer()
		an.Run(sc.Events, tamp.AnimationConfig{})
	}
}

// BenchmarkFigure8EventRate: bucketing a week-scale stream into the event
// rate series and finding spikes.
func BenchmarkFigure8EventRate(b *testing.B) {
	d := ispAt(b, 150_000)
	events := benchEvents(b, "f8", d.site.Site, d.routes, 500_000, 14*24*time.Hour)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rs := event.Rate(events, time.Minute)
		rs.Spikes(8)
	}
}

// BenchmarkFigure9FlapDetection: long-window stemming over grass
// containing the continuous customer flap.
func BenchmarkFigure9FlapDetection(b *testing.B) {
	is := sim.ISPAnon(sim.ISPAnonConfig{})
	baseline := is.BaselineRoutes()
	flap := sim.CustomerFlapScenario(is, 50, time.Minute, benchStart)
	noise := sim.NoiseStream(baseline, 5_000, 50*time.Minute, benchStart, 9)
	all := append(append(event.Stream{}, noise...), flap.Events...)
	all.SortByTime()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := stemming.Top(all, stemming.Config{}); !ok {
			b.Fatal("flap not found")
		}
	}
}

// ---- Streaming pipeline ----

// BenchmarkPipelineWindow compares continuous windowed analysis done the
// batch way (re-running Analyze over the window slice at every snapshot
// point) against the streaming Window (incremental add/evict counting,
// snapshot from the live tables), single-sharded and with one count
// shard per core. Same stream, same window, same snapshot positions —
// the decompositions are identical (see stemming's equivalence tests);
// only the work per snapshot differs.
func BenchmarkPipelineWindow(b *testing.B) {
	d := ispAt(b, 150_000)
	const n = 50_000
	events := benchEvents(b, "pw", d.site.Site, d.routes, n, time.Hour)
	const (
		window    = 30 * time.Minute
		snapEvery = 2 * time.Minute
	)

	b.Run("batch", func(b *testing.B) {
		b.ReportMetric(float64(n), "events")
		for i := 0; i < b.N; i++ {
			comps, start := 0, 0
			next := events[0].Time.Add(snapEvery)
			for idx := range events {
				t := events[idx].Time
				for !t.Before(next) {
					for events[start].Time.Before(t.Add(-window)) {
						start++
					}
					comps += len(stemming.Analyze(events[start:idx+1], stemming.Config{}))
					next = next.Add(snapEvery)
				}
			}
			if comps == 0 {
				b.Fatal("no components")
			}
		}
	})
	shardCounts := []int{1}
	if p := runtime.GOMAXPROCS(0); p > 1 {
		shardCounts = append(shardCounts, p)
	}
	for _, shards := range shardCounts {
		b.Run(fmt.Sprintf("streamed/shards=%d", shards), func(b *testing.B) {
			b.ReportMetric(float64(n), "events")
			for i := 0; i < b.N; i++ {
				w := stemming.NewWindow(stemming.Config{}, shards)
				comps := 0
				next := events[0].Time.Add(snapEvery)
				for idx := range events {
					e := events[idx]
					w.Add(e)
					w.EvictBefore(e.Time.Add(-window))
					for !e.Time.Before(next) {
						comps += len(w.Snapshot())
						next = next.Add(snapEvery)
					}
				}
				if comps == 0 {
					b.Fatal("no components")
				}
			}
		})
	}
}

// BenchmarkParallelWindow runs the full streaming pipeline — sharded
// window counting plus the sharded TAMP RIB-shadow — over the
// Berkeley-scale churn stream at increasing worker counts. The output is
// byte-identical at every worker count (see the pipeline's differential
// equivalence suite); only wall-clock changes. `make bench` distills
// these runs into BENCH_pr6.json (format in EXPERIMENTS.md).
func BenchmarkParallelWindow(b *testing.B) {
	d := berkeleyAt(b, 23_000)
	const n = 100_000
	events := benchEvents(b, "par", d.site.Site, d.routes, n, time.Hour)
	counts := []int{1, 2, 4}
	if p := runtime.GOMAXPROCS(0); p > 4 {
		counts = append(counts, p)
	}
	for _, workers := range counts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportMetric(float64(n), "events")
			for i := 0; i < b.N; i++ {
				snaps := pipeline.Replay(events, pipeline.Config{
					Window:        30 * time.Minute,
					SnapshotEvery: 2 * time.Minute,
					SpikeK:        -1,
					Site:          "berkeley",
					Workers:       workers,
				})
				if len(snaps) == 0 {
					b.Fatal("no snapshots")
				}
			}
		})
	}
}

// BenchmarkWindowSnapshotCadence is ROADMAP measurement B: the same
// pipeline.Replay input as BenchmarkParallelWindow (Berkeley 23k routes,
// 100k events over 1 h, 30 min window, workers=1) at a 2 min and a 15 s
// snapshot cadence, at 1 and 16 prefix shards. At 15 s the ~240
// snapshots of a ~50k-event window dominate, so this times the Stemming
// and TAMP snapshot path rather than ingest.
func BenchmarkWindowSnapshotCadence(b *testing.B) {
	d := berkeleyAt(b, 23_000)
	const n = 100_000
	events := benchEvents(b, "par", d.site.Site, d.routes, n, time.Hour)
	for _, every := range []time.Duration{2 * time.Minute, 15 * time.Second} {
		for _, shards := range []int{1, 16} {
			b.Run(fmt.Sprintf("every=%v/shards=%d", every, shards), func(b *testing.B) {
				var snaps int
				for i := 0; i < b.N; i++ {
					snaps = len(pipeline.Replay(events, pipeline.Config{
						Window:        30 * time.Minute,
						SnapshotEvery: every,
						SpikeK:        -1,
						Site:          "berkeley",
						Shards:        shards,
						Workers:       1,
					}))
				}
				b.ReportMetric(float64(snaps), "snapshots")
			})
		}
	}
}

// ---- Time travel (DESIGN.md §15) ----

// BenchmarkReplayAt measures a cold /api/at answer end to end: scan the
// journal up to the instant, run the one-shot replay pipeline, render
// the picture. The instant is the newest event, so every iteration pays
// the worst case — a full-journal scan and replay; the serving tier's
// instant cache amortizes this to zero for repeat queries. `make bench`
// distills this into BENCH_pr6.json as the replay-latency entry.
func BenchmarkReplayAt(b *testing.B) {
	d := berkeleyAt(b, 23_000)
	const n = 20_000
	events := benchEvents(b, "at", d.site.Site, d.routes, n, time.Hour)
	dir := b.TempDir()
	w, err := journal.Open(dir, journal.Options{})
	if err != nil {
		b.Fatal(err)
	}
	for i := range events {
		if _, err := w.Append(&events[i]); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	cfg := pipeline.Config{
		Window:  30 * time.Minute,
		SpikeK:  -1,
		Site:    "berkeley",
		Workers: runtime.GOMAXPROCS(0),
	}
	at := events[len(events)-1].Time
	b.ReportMetric(float64(n), "events")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap, err := pipeline.ReplayState(cfg, nil, func(ingest func(e *event.Event)) error {
			_, err := journal.Scan(dir, 0, func(seq uint64, e *event.Event) error {
				if e.Time.After(at) {
					return journal.ErrStop
				}
				ingest(e)
				return nil
			})
			return err
		})
		if err != nil {
			b.Fatal(err)
		}
		if len(viz.SVG(snap.Picture)) == 0 {
			b.Fatal("empty render")
		}
	}
}

// ---- Ablations (DESIGN.md §4) ----

// BenchmarkAblationScore compares the score functions on the same stream.
func BenchmarkAblationScore(b *testing.B) {
	d := berkeleyAt(b, 23_000)
	events := benchEvents(b, "abl", d.site.Site, d.routes, 57_000, 15*time.Minute)
	for name, fn := range map[string]stemming.ScoreFunc{
		"count-only":  stemming.ScoreCountOnly,
		"count-edges": stemming.ScoreCountEdges,
		"count-len":   stemming.ScoreCountLen,
	} {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				stemming.Analyze(events, stemming.Config{Score: fn, MaxComponents: 4})
			}
		})
	}
}

// BenchmarkAblationSubseqCap: capping sub-sequence length trades
// localization depth for speed.
func BenchmarkAblationSubseqCap(b *testing.B) {
	d := berkeleyAt(b, 23_000)
	events := benchEvents(b, "abl", d.site.Site, d.routes, 57_000, 15*time.Minute)
	for _, cap := range []int{0, 3, 5} {
		b.Run(fmt.Sprintf("cap=%d", cap), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				stemming.Analyze(events, stemming.Config{MaxSubseqLen: cap, MaxComponents: 4})
			}
		})
	}
}

// BenchmarkAblationFrameConsolidation: the fixed 750-frame consolidation
// versus rendering at finer frame granularity.
func BenchmarkAblationFrameConsolidation(b *testing.B) {
	d := berkeleyAt(b, 23_000)
	events := benchEvents(b, "ba100000", d.site.Site, d.routes, 100_000, 14*time.Hour)
	for _, cfg := range []struct {
		name string
		c    tamp.AnimationConfig
	}{
		{"750-frames", tamp.AnimationConfig{}},
		{"7500-frames", tamp.AnimationConfig{PlayDuration: 300 * time.Second, FPS: 25}},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				an := tamp.NewAnimator("berkeley", d.entries)
				b.StartTimer()
				an.Run(events, cfg.c)
			}
		})
	}
}
