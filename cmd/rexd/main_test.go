package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"strings"
	"sync"
	"testing"
	"time"

	"rex/internal/bgp"
	"rex/internal/bgp/fsm"
	"rex/internal/bgp/fsm/faultconn"
	"rex/internal/collector"
	"rex/internal/event"
	"rex/internal/mrt"
	"rex/internal/obs"
)

// scrapeJSON fetches and decodes the /metrics.json snapshot.
func scrapeJSON(t *testing.T, base string) map[string]any {
	t.Helper()
	resp, err := http.Get(base + "/metrics.json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

// num reads a plain counter/gauge from a JSON snapshot (0 if absent).
func num(m map[string]any, name string) float64 {
	v, _ := m[name].(float64)
	return v
}

// vecNum reads one label's value from a vector metric (0 if absent).
func vecNum(m map[string]any, name, label string) float64 {
	vec, _ := m[name].(map[string]any)
	v, _ := vec[label].(float64)
	return v
}

// TestMetricsDuringFaultyRun is the end-to-end observability check: a
// collector fed by a PeerManager whose transport goes through faultconn,
// scraped over HTTP while the session is forced to flap. The flap and
// session-lifecycle counters must move between scrapes.
func TestMetricsDuringFaultyRun(t *testing.T) {
	ts := httptest.NewServer(obs.Handler(obs.Default))
	defer ts.Close()
	before := scrapeJSON(t, ts.URL)

	// A passive BGP speaker standing in for the site's edge router.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	var srvMu sync.Mutex
	var srvSessions []*fsm.Session
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				s, err := fsm.Establish(conn, fsm.Config{
					LocalAS: 65001, LocalID: netip.MustParseAddr("10.0.0.9"),
				})
				if err != nil {
					return
				}
				srvMu.Lock()
				srvSessions = append(srvSessions, s)
				srvMu.Unlock()
			}()
		}
	}()
	defer func() {
		ln.Close()
		wg.Wait()
		srvMu.Lock()
		defer srvMu.Unlock()
		for _, s := range srvSessions {
			s.Close()
		}
	}()

	c := collector.New(collector.Config{
		LocalAS:               65002,
		LocalID:               netip.MustParseAddr("10.255.0.1"),
		WithdrawOnSessionLoss: true,
		RestartTime:           collector.RestartDisabled,
	}, func(event.Event) {})
	defer c.Close()

	// The manager dials through faultconn so the test can sever the
	// transport mid-session, like a TCP reset on a long-lived peering.
	conns := make(chan *faultconn.Conn, 8)
	ups := make(chan *fsm.Session, 8)
	m := fsm.NewPeerManager(fsm.ManagerConfig{
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
			conns <- fc
			return fc, nil
		},
		OnUp: func(_ string, s *fsm.Session) {
			ups <- s
			go c.Run(s)
		},
	})
	defer m.Close()
	if err := m.Add(ln.Addr().String(), fsm.Config{
		LocalAS: 65002, LocalID: netip.MustParseAddr("10.255.0.1"),
	}); err != nil {
		t.Fatal(err)
	}

	waitUp := func(what string) {
		t.Helper()
		select {
		case <-ups:
		case <-time.After(10 * time.Second):
			t.Fatalf("%s session never established", what)
		}
	}
	waitUp("first")
	fc := <-conns
	fc.Cut() // the injected fault: a mid-stream reset
	waitUp("second")

	// The second session-up and the flap count are recorded from other
	// goroutines; poll the endpoint like an external scraper would.
	deadline := time.Now().Add(10 * time.Second)
	for {
		after := scrapeJSON(t, ts.URL)
		upDelta := vecNum(after, "rex_collector_session_events_total", "session-up") -
			vecNum(before, "rex_collector_session_events_total", "session-up")
		flapDelta := num(after, "rex_peermanager_flaps_total") - num(before, "rex_peermanager_flaps_total")
		if upDelta >= 2 && flapDelta >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("counters never moved: session-up delta = %v (want >= 2), flap delta = %v (want >= 1)",
				upDelta, flapDelta)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// The Prometheus endpoint must expose the same families as text.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	prom, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(prom)
	for _, want := range []string{
		`rex_peermanager_flaps_total`,
		`rex_collector_session_events_total{kind="session-up"}`,
		`rex_peermanager_transitions_total{phase="established"}`,
		`# TYPE rex_pipeline_snapshot_seconds histogram`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestMetricsCoverMRTSkips replays a mixed IPv4/IPv6 MRT update stream
// and checks the skip counter moves on the scrape endpoint: the
// ingestion path and the observability path agree about what happened.
func TestMetricsCoverMRTSkips(t *testing.T) {
	ts := httptest.NewServer(obs.Handler(obs.Default))
	defer ts.Close()
	before := scrapeJSON(t, ts.URL)

	t0 := time.Unix(1120190000, 0).UTC()
	var buf bytes.Buffer
	w := mrt.NewWriter(&buf)
	for _, prefix := range []string{"192.96.10.0/24", "12.2.41.0/24"} {
		if err := w.WriteMessage(mrt.Message{
			Time: t0, PeerAS: 65001, LocalAS: 65002,
			PeerAddr: netip.MustParseAddr("128.32.1.3"),
			Msg: &bgp.Update{
				Attrs: &bgp.PathAttrs{
					Origin:  bgp.OriginIGP,
					ASPath:  bgp.Sequence(65001, 174),
					Nexthop: netip.MustParseAddr("10.0.0.1"),
				},
				NLRI: []netip.Prefix{netip.MustParsePrefix(prefix)},
			},
			AS4: true,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	// A raw BGP4MP MESSAGE_AS4 record with AFI 2 (IPv6), the shape a
	// RouteViews file interleaves into an IPv4 replay.
	body := binary.BigEndian.AppendUint32(nil, 65001) // peer AS
	body = binary.BigEndian.AppendUint32(body, 65002) // local AS
	body = binary.BigEndian.AppendUint16(body, 0)     // ifindex
	body = binary.BigEndian.AppendUint16(body, 2)     // AFI IPv6
	body = append(body, make([]byte, 32)...)          // v6 peer + local addrs
	hdr := binary.BigEndian.AppendUint32(nil, uint32(t0.Unix()))
	hdr = binary.BigEndian.AppendUint16(hdr, 16) // BGP4MP
	hdr = binary.BigEndian.AppendUint16(hdr, 4)  // MESSAGE_AS4
	hdr = binary.BigEndian.AppendUint32(hdr, uint32(len(body)))
	buf.Write(hdr)
	buf.Write(body)

	r := mrt.NewReader(&buf)
	records := 0
	for {
		_, err := r.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatalf("mixed stream aborted after %d records: %v", records, err)
		}
		records++
	}
	if records != 2 {
		t.Fatalf("parsed %d records, want 2", records)
	}

	after := scrapeJSON(t, ts.URL)
	if d := vecNum(after, "rex_mrt_records_total", "skipped_afi") -
		vecNum(before, "rex_mrt_records_total", "skipped_afi"); d < 1 {
		t.Errorf("skipped_afi delta = %v, want >= 1", d)
	}
	if d := vecNum(after, "rex_mrt_records_total", "parsed") -
		vecNum(before, "rex_mrt_records_total", "parsed"); d < 2 {
		t.Errorf("parsed delta = %v, want >= 2", d)
	}
}

// TestRunSmoke drives the real daemon entry point: ephemeral listen and
// metrics ports, a short -run-for, and a clean exit.
func TestRunSmoke(t *testing.T) {
	err := run([]string{
		"-listen", "127.0.0.1:0",
		"-metrics-addr", "127.0.0.1:0",
		"-run-for", "150ms",
		"-scan-every", "0",
		"-log-level", "warn",
	})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if err := run([]string{"-log-level", "shouting"}); err == nil {
		t.Fatal("bad -log-level accepted")
	}
}
