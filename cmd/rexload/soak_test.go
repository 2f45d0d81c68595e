package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"syscall"
	"testing"
	"time"
)

// reservePort grabs an ephemeral port and releases it for a child
// process to bind. Small reuse race, irrelevant in CI containers.
func reservePort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// buildChild compiles a package into dir, preferring a -race build so
// the child is under the detector too (falling back when the toolchain
// can't race-instrument, e.g. CGO disabled without a prebuilt runtime).
func buildChild(t *testing.T, dir, name, pkg string) string {
	t.Helper()
	bin := filepath.Join(dir, name)
	cmd := exec.Command("go", "build", "-race", "-o", bin, pkg)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Logf("race build of %s failed (%v), building plain:\n%s", pkg, err, out)
		cmd = exec.Command("go", "build", "-o", bin, pkg)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("build %s: %v\n%s", pkg, err, out)
		}
	}
	return bin
}

func waitHTTP(t *testing.T, url string, wantStatus int, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	var last string
	for time.Now().Before(deadline) {
		resp, err := http.Get(url)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == wantStatus {
				return
			}
			last = fmt.Sprintf("status %d", resp.StatusCode)
		} else {
			last = err.Error()
		}
		time.Sleep(50 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s to return %d (last: %s)", url, wantStatus, last)
}

// waitTCP waits until addr accepts a TCP connection. rexd binds its
// serve tier before journal recovery and its BGP listener after it, so
// a healthy /healthz does not yet mean the BGP port is open.
func waitTCP(t *testing.T, addr string, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		c, err := net.DialTimeout("tcp", addr, time.Second)
		if err == nil {
			c.Close()
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s to accept connections: %v", addr, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// scrape fetches the child's /metrics.json.
func scrape(t *testing.T, base string) map[string]any {
	t.Helper()
	resp, err := http.Get(base + "/metrics.json")
	if err != nil {
		t.Fatalf("scrape: %v", err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("scrape decode: %v", err)
	}
	return m
}

func mNum(m map[string]any, name string) float64 {
	v, _ := m[name].(float64)
	return v
}

func mVec(m map[string]any, name, label string) float64 {
	vec, _ := m[name].(map[string]any)
	v, _ := vec[label].(float64)
	return v
}

// TestServeSoak is the acceptance drill for the serving tier: a real
// rexd subprocess fed by bgpsim, swarmed by pollers and SSE
// subscribers, SIGKILLed mid-swarm and restarted. Requirements proved
// here:
//
//   - single-flight cache: at most one render per snapshot version per
//     format, no matter how many readers (metrics-scrape inequality);
//   - zero 5xx across the whole swarm, including the kill window —
//     reads degrade to explicitly-stale answers, never errors;
//   - at least one successful degraded-mode (stale) read while the
//     restarted node is still recovering, with /readyz at 503 until
//     the pipeline catches up and flips it back;
//   - time-travel reads (/api/at, instants spread behind the live
//     head) keep answering across the kill/restart cycle: 200s for
//     reconstructible instants, explicit 416/422 for the rest, and
//     never a 5xx — even in the window where the journal was wiped;
//   - bounded tail latency under the swarm.
func TestServeSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("builds subprocesses and runs a multi-second chaos soak")
	}
	tmp := t.TempDir()
	rexd := buildChild(t, tmp, "rexd", "rex/cmd/rexd")
	bgpsim := buildChild(t, tmp, "bgpsim", "rex/cmd/bgpsim")
	journal := filepath.Join(tmp, "journal")
	if err := os.MkdirAll(journal, 0o755); err != nil {
		t.Fatal(err)
	}

	bgpAddr := reservePort(t)
	serveAddr := reservePort(t)
	metricsAddr := reservePort(t)
	serveURL := "http://" + serveAddr
	metricsURL := "http://" + metricsAddr

	startRexd := func() *exec.Cmd {
		cmd := exec.Command(rexd,
			"-listen", bgpAddr,
			"-serve-addr", serveAddr,
			"-metrics-addr", metricsAddr,
			"-journal-dir", journal,
			// The pipeline clock is event time, and live BGP events are
			// stamped on arrival — so a paced replay (bgpsim -gap) plus a
			// sub-second cadence yields several snapshot versions per
			// feeding, which is what the single-flight check needs.
			"-snapshot-every", "250ms",
			"-scan-every", "0",
			"-log-level", "warn",
		)
		cmd.Stdout = os.Stderr
		cmd.Stderr = os.Stderr
		if err := cmd.Start(); err != nil {
			t.Fatalf("start rexd: %v", err)
		}
		return cmd
	}
	runSim := func() {
		waitTCP(t, bgpAddr, 30*time.Second)
		cmd := exec.Command(bgpsim, "-scenario", "flap", "-flaps", "3", "-gap", "2ms", "-replay", bgpAddr)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("bgpsim: %v\n%s", err, out)
		}
	}

	// Phase 1: live rexd, fed, swarmed.
	node := startRexd()
	defer func() {
		if node != nil && node.Process != nil {
			node.Process.Kill()
			node.Wait()
		}
	}()
	waitHTTP(t, serveURL+"/healthz", 200, 15*time.Second)
	runSim()
	waitHTTP(t, serveURL+"/readyz", 200, 30*time.Second)

	swarmDone := make(chan *swarmReport, 1)
	go func() {
		swarmDone <- runSwarm(context.Background(), swarmConfig{
			base:      serveURL,
			pollers:   150,
			subs:      15,
			atPollers: 20,
			atSpread:  30 * time.Second,
			duration:  18 * time.Second,
			pollEvery: 2 * time.Millisecond,
			timeout:   10 * time.Second,
		})
	}()

	// Let the swarm hammer the live node, then prove single-flight off
	// its metrics BEFORE the kill erases them: renders per format never
	// exceed the number of snapshot versions, while hits absorb the
	// rest of the read volume.
	time.Sleep(4 * time.Second)
	m := scrape(t, metricsURL)
	seq := mNum(m, "rex_serve_snapshot_seq")
	if seq < 1 {
		t.Fatalf("rex_serve_snapshot_seq = %v, want >= 1 after feeding", seq)
	}
	var hits, renders float64
	for _, format := range []string{"svg", "json", "snapshot", "components"} {
		r := mVec(m, "rex_serve_renders_total", format)
		h := mVec(m, "rex_serve_cache_hits_total", format)
		renders += r
		hits += h
		if r > seq {
			t.Errorf("format %s rendered %v times for %v snapshot versions: single-flight broken", format, r, seq)
		}
	}
	if hits <= renders {
		t.Errorf("cache hits (%v) not dominating renders (%v) under a %d-poller swarm", hits, renders, 150)
	}
	if replays := mNum(m, "rex_serve_replay_total"); replays < 1 {
		t.Errorf("rex_serve_replay_total = %v, want >= 1 with time-travel pollers active", replays)
	}

	// Phase 2: chaos. SIGKILL the node mid-swarm; readers must keep
	// getting answers (degraded), never 5xx.
	if err := node.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatalf("SIGKILL rexd: %v", err)
	}
	node.Wait()
	time.Sleep(1 * time.Second) // swarm sees the outage window

	// Phase 3: restart with the journal intact. Recovery replays the
	// journal through the pipeline, which publishes one coalesced
	// snapshot of the recovered state at the end of the replay — so the
	// node comes back READY on its own, and reads answer 200
	// throughout (possibly stale for the brief replay window, which the
	// swarm may or may not catch — both are correct).
	node = startRexd()
	waitHTTP(t, serveURL+"/healthz", 200, 15*time.Second)
	waitHTTP(t, serveURL+"/readyz", 200, 30*time.Second)
	resp, err := http.Get(serveURL + "/api/snapshot")
	if err != nil {
		t.Fatalf("read after journal recovery: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("read after journal recovery = %d, want 200", resp.StatusCode)
	}

	// Phase 4: the deterministic degraded window. SIGKILL again and
	// wipe the journal segments and checkpoints — the disaster case
	// where local recovery has nothing to replay — keeping only the
	// serve tier's durable last-snapshot file. The restarted node must
	// answer reads from it, explicitly stale, with /readyz at 503,
	// until fresh events catch the pipeline up.
	if err := node.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	node.Wait()
	for _, pat := range []string{"journal-*.rexj", "checkpoint-*.rexc"} {
		files, err := filepath.Glob(filepath.Join(journal, pat))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			if err := os.Remove(f); err != nil {
				t.Fatal(err)
			}
		}
	}
	node = startRexd()
	waitHTTP(t, serveURL+"/healthz", 200, 15*time.Second)
	resp, err = http.Get(serveURL + "/api/snapshot")
	if err != nil {
		t.Fatalf("degraded read: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Errorf("degraded read = %d, want 200 (serve the last durable snapshot, don't fail)", resp.StatusCode)
	}
	if resp.Header.Get("X-Rex-Stale") != "true" || resp.Header.Get("X-Rex-Stale-Reason") != "restored" {
		t.Errorf("degraded read headers: stale=%q reason=%q, want true/restored",
			resp.Header.Get("X-Rex-Stale"), resp.Header.Get("X-Rex-Stale-Reason"))
	}
	resp, err = http.Get(serveURL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 503 {
		t.Errorf("readyz while degraded = %d, want 503", resp.StatusCode)
	}
	// Fresh events catch the pipeline up and flip readiness back.
	runSim()
	waitHTTP(t, serveURL+"/readyz", 200, 30*time.Second)

	var rep *swarmReport
	select {
	case rep = <-swarmDone:
	case <-time.After(60 * time.Second):
		t.Fatal("swarm never finished")
	}
	rep.print(os.Stderr)

	if got := rep.server5xx.Load(); got != 0 {
		t.Errorf("%d server 5xx responses during the soak, want 0 (reads must degrade, not fail)", got)
	}
	if rep.staleReads.Load() == 0 {
		t.Error("no successful degraded-mode (stale) read observed across the kill/restart window")
	}
	if rep.ok200.Load() == 0 {
		t.Fatal("swarm completed no successful reads")
	}
	if rep.atOk.Load() == 0 {
		t.Error("no successful time-travel read across the soak")
	}
	if rep.sseEvents.Load() == 0 {
		t.Error("SSE subscribers received no events")
	}
	if p99 := rep.hist.quantile(0.99); p99 > 5*time.Second {
		t.Errorf("p99 latency %s exceeds the 5s soak bound", p99)
	}

	// Graceful end: SIGTERM drains the serving tier before the pipeline
	// goes down, and the process exits cleanly.
	if err := node.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	waitErr := make(chan error, 1)
	go func() { waitErr <- node.Wait() }()
	select {
	case err := <-waitErr:
		if err != nil {
			t.Errorf("rexd exit after SIGTERM: %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("rexd did not exit after SIGTERM")
	}
	node = nil
}

// TestSwarmUnit exercises the swarm engine itself against a stub
// server, so `go test ./cmd/rexload` stays meaningful without the soak:
// outcome classification (200/stale/429/5xx/net-err) and the histogram.
func TestSwarmUnit(t *testing.T) {
	var mu sync.Mutex
	n := 0
	mux := http.NewServeMux()
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		n++
		k := n
		mu.Unlock()
		switch {
		case k%7 == 0:
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
		case k%5 == 0:
			w.Header().Set("X-Rex-Stale", "true")
			fmt.Fprintln(w, `{"stale":true}`)
		default:
			fmt.Fprintln(w, `{}`)
		}
	})
	var atN int
	mux.HandleFunc("/api/at", func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		atN++
		k := atN
		mu.Unlock()
		if k%3 == 0 {
			w.Header().Set("X-Rex-Replay-Reason", "before-history")
			w.WriteHeader(http.StatusRequestedRangeNotSatisfiable)
			return
		}
		fmt.Fprintln(w, `{}`)
	})
	mux.HandleFunc("/api/stream", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		fmt.Fprintf(w, "event: hello\ndata: {}\n\n")
		w.(http.Flusher).Flush()
		<-r.Context().Done()
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: mux}
	go srv.Serve(ln)
	defer srv.Close()

	rep := runSwarm(context.Background(), swarmConfig{
		base:      "http://" + ln.Addr().String(),
		pollers:   8,
		subs:      2,
		atPollers: 3,
		atSpread:  time.Minute,
		duration:  600 * time.Millisecond,
		pollEvery: 5 * time.Millisecond,
	})
	if rep.requests.Load() == 0 || rep.ok200.Load() == 0 {
		t.Fatalf("swarm made no successful requests: %+d", rep.requests.Load())
	}
	if rep.shed429.Load() == 0 {
		t.Error("stub shed responses not classified as 429")
	}
	if rep.staleReads.Load() == 0 {
		t.Error("stale responses not counted")
	}
	if rep.server5xx.Load() != 0 {
		t.Errorf("stub produced no 5xx but swarm counted %d", rep.server5xx.Load())
	}
	if rep.sseEvents.Load() == 0 {
		t.Error("SSE hello not counted")
	}
	if rep.atOk.Load() == 0 {
		t.Error("time-travel 200s not counted")
	}
	if rep.atDegraded.Load() == 0 {
		t.Error("explicit 416 replay outcomes not classified as degraded")
	}
	if rep.hist.quantile(0.5) == 0 {
		t.Error("histogram empty after successful requests")
	}
}
