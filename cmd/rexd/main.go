// Command rexd is the collector daemon: the Route Explorer role from the
// paper's §II. It listens for passive IBGP sessions from a site's BGP
// edge routers (or a simulator replay), and can also actively dial peers
// given with -peer, redialing forever with backoff when they fall over.
// It maintains an Adj-RIB-In per peer with graceful-restart retention
// across session flaps (-restart-time), appends the
// withdrawal-augmented event stream to a file, and feeds it through the
// streaming analysis pipeline: a sliding window (-window) whose Stemming
// decomposition and TAMP picture are snapshotted whenever the event rate
// spikes (-spike-k) or on a period (-snapshot-every), printing each
// snapshot. On shutdown (SIGINT/SIGTERM or -run-for) it prints the final
// window decomposition and a TAMP picture of the current routing state.
//
// With -journal-dir the daemon is crash-safe: every event is appended
// to a segmented, checksummed journal (fsync policy from -fsync), the
// collector's tables are checkpointed periodically (-checkpoint-every),
// and a restarted daemon recovers — newest valid checkpoint, journal
// tail replayed through the pipeline, live collection resumed — ending
// up where an uninterrupted run would be. -overload picks what happens
// when ingest outruns analysis: block (lossless) or shed (drop and
// count).
//
// With -metrics-addr the daemon serves its internals over HTTP:
// /metrics (Prometheus text), /metrics.json, /healthz, and
// /debug/pprof — session lifecycle counters, per-peer message/byte
// gauges, window and snapshot-latency metrics, and MRT ingestion skip
// counters (see DESIGN.md, "Observability"). Lifecycle logging is the
// structured key=value form from internal/obs, filtered by -log-level.
//
// Example:
//
//	rexd -listen 127.0.0.1:1790 -as 25 -id 10.255.0.1 \
//	     -metrics-addr 127.0.0.1:9099 -out site.events &
//	bgpsim -scenario leak -replay 127.0.0.1:1790
//	curl -s http://127.0.0.1:9099/metrics | grep rex_collector
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"rex/internal/bgp/fsm"
	"rex/internal/collector"
	"rex/internal/core/pipeline"
	"rex/internal/core/stemming"
	"rex/internal/core/tamp"
	"rex/internal/event"
	"rex/internal/journal"
	"rex/internal/obs"
	"rex/internal/relay"
	"rex/internal/serve"
	"rex/internal/viz"

	"net/netip"
)

// peerList collects repeated -peer flags.
type peerList []string

func (p *peerList) String() string { return strings.Join(*p, ",") }

func (p *peerList) Set(v string) error {
	for _, addr := range strings.Split(v, ",") {
		if addr = strings.TrimSpace(addr); addr != "" {
			*p = append(*p, addr)
		}
	}
	return nil
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "rexd:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("rexd", flag.ContinueOnError)
	var peers peerList
	var (
		listen      = fs.String("listen", "127.0.0.1:1790", "address to accept IBGP sessions on")
		localAS     = fs.Uint("as", 25, "local AS number")
		localID     = fs.String("id", "10.255.0.1", "local BGP identifier")
		out         = fs.String("out", "", "append the augmented event stream to this file (text format)")
		scanEach    = fs.Duration("scan-every", 30*time.Second, "status report interval (0 disables)")
		window      = fs.Duration("window", 15*time.Minute, "sliding analysis window (event time)")
		snapEvery   = fs.Duration("snapshot-every", 0, "emit a periodic analysis snapshot this often in event time (0 = spikes and shutdown only)")
		spikeK      = fs.Float64("spike-k", 8, "MAD multiplier for the spike trigger (negative disables)")
		maxPfx      = fs.Int("max-prefixes", 0, "tear a peer down (CEASE) past this many prefixes (0 = unlimited)")
		runFor      = fs.Duration("run-for", 0, "exit after this long (0 = until signal)")
		site        = fs.String("site", "site", "site name for the final TAMP picture")
		hold        = fs.Duration("hold", 90*time.Second, "proposed BGP hold time")
		restart     = fs.Duration("restart-time", 0, "retain a lost peer's routes this long before the withdrawal sweep (0 = 2x hold, negative = withdraw immediately)")
		minBackoff  = fs.Duration("min-backoff", time.Second, "initial redial backoff for -peer sessions")
		maxBackoff  = fs.Duration("max-backoff", 2*time.Minute, "backoff and idle-hold ceiling for -peer sessions")
		metricsAddr = fs.String("metrics-addr", "", "serve /metrics, /metrics.json, /healthz and /debug/pprof on this address (empty disables)")
		logLevel    = fs.String("log-level", "info", "lowest log level to emit (debug, info, warn, error)")
		journalDir  = fs.String("journal-dir", "", "durable event journal + checkpoint directory; on start, recover state from it; with -relay-listen it holds the merged stream and feed cursors (empty disables)")
		ckptEvery   = fs.Duration("checkpoint-every", 5*time.Minute, "checkpoint the collector tables (or, with -relay-listen, the receiver cursors) this often when -journal-dir is set (0 = final checkpoint only; the analysis node falls back to its 30s default)")
		fsyncFlag   = fs.String("fsync", "interval", "journal fsync policy: always, interval or never")
		overload    = fs.String("overload", "block", "intake overload policy: block (lossless, may stall sessions) or shed (never blocks, drops at a full queue)")
		workers     = fs.Int("workers", 0, "analysis worker goroutines; snapshots are byte-identical at any value (0 = GOMAXPROCS, 1 = sequential)")
		relayTo     = fs.String("relay-to", "", "stream the journal to a central analysis node at this address (requires -journal-dir; resumes from the node's ack after restarts)")
		feedIDFlag  = fs.String("feed-id", "", "stable feed identity for -relay-to (default: the -id address)")
		relayListen = fs.String("relay-listen", "", "run as the central analysis node: accept collector relay feeds on this address instead of BGP sessions")
		expectFeeds = fs.String("expect-feeds", "", "comma-separated feed roster for -relay-listen; listed feeds gate the merge and strangers are rejected (empty accepts any feed)")
		serveAddr   = fs.String("serve-addr", "", "serve the snapshot API (JSON/SVG/DOT, per-prefix drill-down, SSE stream, /readyz) on this address (empty disables)")
		serveStale  = fs.Duration("serve-stale-after", 0, "mark served snapshots stale (and /readyz not ready) once older than this; 0 = only crash-restored snapshots count as stale")
	)
	fs.Var(&peers, "peer", "address to actively dial and maintain a session with (repeatable, comma-separable)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	id, err := netip.ParseAddr(*localID)
	if err != nil {
		return fmt.Errorf("bad -id: %w", err)
	}
	lv, err := obs.ParseLevel(*logLevel)
	if err != nil {
		return fmt.Errorf("bad -log-level: %w", err)
	}
	obs.SetLogLevel(lv)
	fsyncPol, err := journal.ParseFsyncPolicy(*fsyncFlag)
	if err != nil {
		return fmt.Errorf("bad -fsync: %w", err)
	}
	overloadPol, err := pipeline.ParseOverloadPolicy(*overload)
	if err != nil {
		return fmt.Errorf("bad -overload: %w", err)
	}

	if *metricsAddr != "" {
		srv, maddr, err := obs.Serve(*metricsAddr, obs.Default)
		if err != nil {
			return fmt.Errorf("metrics server: %w", err)
		}
		// Graceful: an in-flight scrape finishes before the process
		// exits; only a wedged one is cut after the grace period.
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			if err := srv.Shutdown(ctx); err != nil {
				srv.Close()
			}
		}()
		obs.Logf(obs.Info, "rexd", "metrics on http://%s/metrics (json at /metrics.json, pprof at /debug/pprof)", maddr)
	}

	// The analysis configuration, shared verbatim between the live
	// pipeline and the serve tier's historical replays: /api/at is
	// byte-identical with the live output only because both run the
	// exact same parameters.
	nWorkers := *workers
	if nWorkers <= 0 {
		nWorkers = runtime.GOMAXPROCS(0)
	}
	pcfg := pipeline.Config{
		Window:        *window,
		SnapshotEvery: *snapEvery,
		SpikeK:        *spikeK,
		Site:          *site,
		Prune:         tamp.PruneOptions{KeepDepth: 3},
		Workers:       nWorkers,
	}

	// The serving tier binds before the pipeline exists so a restarted
	// daemon answers reads (from the durable last snapshot, explicitly
	// stale) while recovery is still replaying the journal — and, with a
	// journal, time-travel queries work even before the first live
	// snapshot.
	var api *serve.Server
	if *serveAddr != "" {
		api, err = startServeTier(*serveAddr, *serveStale, *journalDir, pcfg)
		if err != nil {
			return fmt.Errorf("serve tier: %w", err)
		}
	}

	var sink *eventSink
	if *out != "" {
		sink, err = newEventSink(*out)
		if err != nil {
			return err
		}
		defer sink.Close()
	}
	// The streaming engine: a sliding window over the live event stream,
	// snapshotted on rate spikes (and optionally on a period), plus a
	// final decomposition and TAMP picture at shutdown.
	p := pipeline.New(pcfg)
	if *relayListen != "" {
		if *relayTo != "" {
			return fmt.Errorf("-relay-listen and -relay-to are mutually exclusive roles")
		}
		var rcfg relay.ReceiverConfig
		if *journalDir != "" {
			rcfg.Dir = *journalDir
			rcfg.Fsync = fsyncPol
			rcfg.CheckpointEvery = *ckptEvery // <=0 falls back to the relay default
			rcfg.Window = *window
		}
		return runAnalysisNode(*relayListen, splitFeeds(*expectFeeds), p, *runFor, rcfg, api)
	}
	var finalSnap pipeline.Snapshot
	snapDone := make(chan struct{})
	go func() {
		defer close(snapDone)
		for s := range p.Snapshots() {
			if api != nil {
				api.Publish(s, nil)
			}
			if s.Trigger == pipeline.TriggerFinal {
				finalSnap = s
				continue
			}
			printSnapshot(s)
		}
	}()
	// Events flow collector → intake → (journal, pipeline). The intake
	// is created after recovery below — it needs the journal hook — but
	// no session can deliver an event before the listener opens, so the
	// handler closure safely captures the variable.
	var in *pipeline.Intake
	handler := func(e event.Event) {
		in.Offer(e)
		if sink != nil {
			sink.Write(e)
		}
	}

	restartTime := *restart
	if restartTime < 0 {
		restartTime = collector.RestartDisabled
	}
	c := collector.New(collector.Config{
		LocalAS:               uint32(*localAS),
		LocalID:               id,
		HoldTime:              *hold,
		WithdrawOnSessionLoss: true,
		MaxPrefixes:           *maxPfx,
		RestartTime:           restartTime,
		Logf:                  obs.Printer("collector"),
	}, handler)

	// Recover durable state before the first session can speak: restore
	// checkpointed tables into the collector, seed and replay the
	// pipeline, then resume journaling where the last process stopped.
	var dur *durability
	intakeCfg := pipeline.IntakeConfig{Policy: overloadPol}
	if *journalDir != "" {
		dur, err = openDurability(*journalDir, fsyncPol, *window, p, c)
		if err != nil {
			return fmt.Errorf("journal recovery: %w", err)
		}
		intakeCfg.Journal = dur.journalEvent
	}
	in = pipeline.NewIntake(intakeCfg, p)

	// The relay feed streams the journal to a central analysis node,
	// resuming at the node's acked cursor after any interruption. The
	// journal is the source of truth: appends wake the feed, and the
	// checkpoint cycle never trims past the node's ack.
	var feed *relay.Feed
	if *relayTo != "" {
		if dur == nil {
			return fmt.Errorf("-relay-to requires -journal-dir (the journal is the relay's source and resume log)")
		}
		fid := *feedIDFlag
		if fid == "" {
			fid = id.String()
		}
		feed = relay.NewFeed(relay.FeedConfig{
			ID: fid, Dir: *journalDir, Addr: *relayTo,
			// Live events carry the collector's own clock, so while
			// caught up the feed can promise the merge "nothing earlier
			// than now" and keep the analysis node's gate open.
			IdleWatermark: time.Now,
		})
		dur.feed.Store(feed)
		go feed.Run()
		obs.Logf(obs.Info, "rexd", "relaying journal to %s as feed %q", *relayTo, fid)
	}

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		return err
	}
	obs.Logf(obs.Info, "rexd", "listening on %s (AS%d, id %s)", ln.Addr(), *localAS, id)
	serveErr := make(chan error, 1)
	go func() { serveErr <- c.Serve(ln) }()

	// Actively dialed peers: the manager redials forever with backoff and
	// hands each established session to the collector's update loop.
	var mgr *fsm.PeerManager
	if len(peers) > 0 {
		mgr = fsm.NewPeerManager(fsm.ManagerConfig{
			MinBackoff: *minBackoff,
			MaxBackoff: *maxBackoff,
			OnUp:       func(_ string, s *fsm.Session) { go c.Run(s) },
			Logf:       obs.Printer("peermanager"),
		})
		scfg := fsm.Config{
			LocalAS:  uint32(*localAS),
			LocalID:  id,
			HoldTime: *hold,
		}
		for _, addr := range peers {
			if err := mgr.Add(addr, scfg); err != nil {
				return fmt.Errorf("add peer %s: %w", addr, err)
			}
			obs.Logf(obs.Info, "rexd", "dialing peer %s", addr)
		}
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGINT, syscall.SIGTERM)
	var timeout <-chan time.Time
	if *runFor > 0 {
		timer := time.NewTimer(*runFor)
		defer timer.Stop()
		timeout = timer.C
	}
	var ticker *time.Ticker
	var tick <-chan time.Time
	if *scanEach > 0 {
		ticker = time.NewTicker(*scanEach)
		defer ticker.Stop()
		tick = ticker.C
	}
	var ckptTick <-chan time.Time
	if dur != nil && *ckptEvery > 0 {
		ckptTicker := time.NewTicker(*ckptEvery)
		defer ckptTicker.Stop()
		ckptTick = ckptTicker.C
	}

loop:
	for {
		select {
		case <-ckptTick:
			if err := dur.checkpoint(c); err != nil {
				// A failing disk degrades durability, not collection.
				obs.Logf(obs.Error, "rexd", "checkpoint: %v", err)
			}
		case <-tick:
			obs.Logf(obs.Info, "rexd", "%d peers, %d routes", len(c.Peers()), c.NumRoutes())
			for _, pi := range c.PeerInfos() {
				obs.Logf(obs.Info, "rexd", "peer %s", pi)
			}
			if mgr != nil {
				for _, st := range mgr.Statuses() {
					obs.Logf(obs.Info, "rexd", "dial %s", st)
				}
			}
		case <-stop:
			break loop
		case <-timeout:
			break loop
		case err := <-serveErr:
			if err != nil {
				return err
			}
			break loop
		}
	}

	// Drain the serving tier FIRST, before any pipeline teardown:
	// in-flight readers finish against the last published snapshot and
	// SSE clients get a terminal bye while the backend is still whole —
	// draining last would hand them connection resets from a server
	// whose feed is already gone.
	drainServeTier(api)

	// Stop redialing before tearing the collector down, so shutdown is
	// not racing fresh sessions.
	if mgr != nil {
		mgr.Close()
	}

	// Close the collector first so in-flight events still reach the
	// intake, drain the intake into the journal and pipeline, take the
	// final checkpoint over the settled tables, then stop the pipeline
	// and collect its final word.
	closeErr := c.Close()
	in.Close()
	if dur != nil {
		if err := dur.close(c); err != nil {
			obs.Logf(obs.Error, "rexd", "final checkpoint: %v", err)
			if closeErr == nil {
				closeErr = err
			}
		}
	}
	if feed != nil {
		// Best-effort drain: the shutdown sweep above just journaled its
		// last events, so give the feed a bounded window to stream the
		// tail and collect acks before cutting the connection. Anything
		// still unacked stays in the journal (the final checkpoint's
		// trim respected the ack floor); the next start resumes
		// relaying it. Against a durable analysis node acks lag its
		// checkpoint cadence, so hitting the deadline is normal there —
		// the tail is simply resent on the next connect.
		head := dur.st.NextSeq()
		deadline := time.Now().Add(5 * time.Second)
		for feed.Acked() < head && time.Now().Before(deadline) {
			feed.Wake()
			time.Sleep(20 * time.Millisecond)
		}
		if a := feed.Acked(); a < head {
			obs.Logf(obs.Warn, "rexd", "relay drain timed out at seq %d of %d; journal retains the rest", a, head)
		}
		feed.Close()
	}
	p.Close()
	<-snapDone
	printFinal(finalSnap)
	return closeErr
}

// printFinal reports the shutdown snapshot: the final window
// decomposition and TAMP picture, when there is anything to show.
func printFinal(finalSnap pipeline.Snapshot) {
	if len(finalSnap.Components) > 0 {
		fmt.Printf("rexd: final window: %d events\n", finalSnap.Events)
		printComponents(finalSnap.Components)
	}
	if finalSnap.Picture != nil && finalSnap.Picture.Total > 0 {
		fmt.Println("rexd: final TAMP picture:")
		fmt.Print(viz.ASCII(finalSnap.Picture))
	}
}

// printSnapshot reports one pipeline snapshot on stdout.
func printSnapshot(s pipeline.Snapshot) {
	switch s.Trigger {
	case pipeline.TriggerSpike:
		fmt.Printf("rexd: SPIKE %d events (peak %d/bucket) from %s: window of %d events decomposes to %d component(s)\n",
			s.Spike.Total, s.Spike.Peak, s.Spike.Start.Format(time.RFC3339), s.Events, len(s.Components))
	default:
		fmt.Printf("rexd: snapshot at %s: %d events in window, %d component(s)\n",
			s.At.Format(time.RFC3339), s.Events, len(s.Components))
	}
	printComponents(s.Components)
}

// printComponents lists the strongest components, at most three.
func printComponents(comps []stemming.Component) {
	for i, comp := range comps {
		if i == 3 {
			fmt.Printf("rexd:   ... and %d more\n", len(comps)-i)
			break
		}
		fmt.Printf("rexd:   component: stem %v, %d prefixes, %d events\n",
			comp.Stem, len(comp.Prefixes), comp.NumEvents())
	}
}

// eventSink appends events to a text file, serialized across the
// collector's peer goroutines.
type eventSink struct {
	mu  sync.Mutex
	f   *os.File
	bw  *bufio.Writer
	buf []byte
}

func newEventSink(path string) (*eventSink, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	return &eventSink{f: f, bw: bufio.NewWriterSize(f, 1<<16)}, nil
}

func (s *eventSink) Write(e event.Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	buf, err := event.AppendText(s.buf[:0], &e)
	if err != nil {
		return
	}
	s.buf = buf
	_, _ = s.bw.Write(buf)
}

func (s *eventSink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.bw.Flush(); err != nil {
		return err
	}
	return s.f.Close()
}
