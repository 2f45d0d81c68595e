package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/netip"
	"strings"
	"sync"
	"testing"
	"time"

	"rex/internal/core/pipeline"
	"rex/internal/core/stemming"
	"rex/internal/core/tamp"
)

func testPic() *tamp.Picture {
	g := tamp.New("berkeley")
	add := func(router, nexthop, prefix string, asns ...uint32) {
		g.AddRoute(tamp.RouteEntry{
			Router:  router,
			Nexthop: netip.MustParseAddr(nexthop),
			ASPath:  asns,
			Prefix:  netip.MustParsePrefix(prefix),
		})
	}
	for i := 0; i < 8; i++ {
		add("128.32.1.3", "128.32.0.66", fmt.Sprintf("20.%d.0.0/16", i), 11423, 209)
	}
	add("128.32.1.200", "128.32.0.90", "30.0.0.0/16", 11423, 11537)
	return g.Snapshot(tamp.PruneOptions{KeepDepth: 3})
}

func testSnap(events int) pipeline.Snapshot {
	t0 := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	return pipeline.Snapshot{
		At:          t0,
		Trigger:     pipeline.TriggerTick,
		WindowStart: t0.Add(-time.Minute),
		WindowEnd:   t0,
		Events:      events,
		Components: []stemming.Component{{
			Stem: stemming.Stem{
				From: stemming.Token{Kind: stemming.KindAS, AS: 11423},
				To:   stemming.Token{Kind: stemming.KindPrefix, Prefix: netip.MustParsePrefix("20.1.0.0/16")},
			},
			Subsequence: []stemming.Token{
				{Kind: stemming.KindAS, AS: 11423},
				{Kind: stemming.KindPrefix, Prefix: netip.MustParsePrefix("20.1.0.0/16")},
			},
			Score: 12.5, Count: 7,
			Prefixes:     []netip.Prefix{netip.MustParsePrefix("20.1.0.0/16")},
			EventIndexes: []int{0, 1, 2},
			First:        t0.Add(-30 * time.Second), Last: t0,
		}},
		Picture: testPic(),
	}
}

func waitSeq(t *testing.T, s *Server, want uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if s.Seq() >= want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for snapshot seq %d (at %d)", want, s.Seq())
}

// clock is a test clock for StaleAfter scenarios.
type clock struct {
	mu sync.Mutex
	t  time.Time
}

func newClock() *clock { return &clock{t: time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)} }
func (c *clock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}
func (c *clock) advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(d)
}

func get(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return resp, body
}

func TestServeBeforeFirstSnapshot(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp, _ := get(t, ts.URL+"/healthz")
	if resp.StatusCode != 200 {
		t.Fatalf("healthz = %d, want 200", resp.StatusCode)
	}
	resp, body := get(t, ts.URL+"/readyz")
	if resp.StatusCode != 503 || !strings.Contains(string(body), "no-snapshot") {
		t.Fatalf("readyz = %d %q, want 503 no-snapshot", resp.StatusCode, body)
	}
	resp, _ = get(t, ts.URL+"/api/snapshot")
	if resp.StatusCode != 503 {
		t.Fatalf("snapshot with nothing to serve = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 without Retry-After")
	}
}

func TestServeEndpoints(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	s.Publish(testSnap(42), []FeedHealth{{ID: "feed-a", Connected: true}})
	waitSeq(t, s, 1)

	resp, body := get(t, ts.URL+"/api/snapshot")
	if resp.StatusCode != 200 {
		t.Fatalf("snapshot = %d: %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Rex-Stale"); got != "false" {
		t.Errorf("X-Rex-Stale = %q, want false", got)
	}
	if got := resp.Header.Get("X-Rex-Snapshot-Seq"); got != "1" {
		t.Errorf("X-Rex-Snapshot-Seq = %q, want 1", got)
	}
	var v SnapshotView
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatalf("snapshot body: %v", err)
	}
	if v.Seq != 1 || v.Events != 42 || v.Stale || len(v.Components) != 1 || len(v.Feeds) != 1 {
		t.Errorf("snapshot view wrong: %+v", v)
	}

	resp, body = get(t, ts.URL+"/api/picture.svg")
	if resp.StatusCode != 200 || !strings.Contains(string(body), "<svg") {
		t.Errorf("picture.svg = %d, want SVG", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "image/svg+xml" {
		t.Errorf("svg content-type = %q", ct)
	}
	resp, body = get(t, ts.URL+"/api/picture.dot")
	if resp.StatusCode != 200 || !strings.Contains(string(body), "digraph") {
		t.Errorf("picture.dot = %d, want DOT", resp.StatusCode)
	}
	resp, body = get(t, ts.URL+"/api/picture.json")
	if resp.StatusCode != 200 || !strings.Contains(string(body), `"berkeley"`) {
		t.Errorf("picture.json = %d, want graph JSON", resp.StatusCode)
	}
	resp, body = get(t, ts.URL+"/api/components")
	if resp.StatusCode != 200 || !strings.Contains(string(body), "AS11423") {
		t.Errorf("components = %d: %s", resp.StatusCode, body)
	}
	resp, _ = get(t, ts.URL+"/readyz")
	if resp.StatusCode != 200 {
		t.Errorf("readyz after publish = %d, want 200", resp.StatusCode)
	}
	resp, body = get(t, ts.URL+"/")
	if resp.StatusCode != 200 || !strings.Contains(string(body), "/api/snapshot") {
		t.Errorf("index = %d", resp.StatusCode)
	}
	resp, _ = get(t, ts.URL+"/api/nope")
	if resp.StatusCode != 404 {
		t.Errorf("unknown path = %d, want 404", resp.StatusCode)
	}
}

func TestConditionalRequests(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	s.Publish(testSnap(1), nil)
	waitSeq(t, s, 1)

	resp, _ := get(t, ts.URL+"/api/picture.svg")
	etag := resp.Header.Get("ETag")
	if etag == "" {
		t.Fatal("no ETag on picture.svg")
	}
	req, _ := http.NewRequest("GET", ts.URL+"/api/picture.svg", nil)
	req.Header.Set("If-None-Match", etag)
	resp2, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotModified {
		t.Fatalf("conditional GET = %d, want 304", resp2.StatusCode)
	}

	// A new snapshot version changes the ETag.
	s.Publish(testSnap(2), nil)
	waitSeq(t, s, 2)
	resp3, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != 200 {
		t.Fatalf("conditional GET after publish = %d, want 200", resp3.StatusCode)
	}
}

// TestSnapshotAndPictureJSONDistinct pins the render-cache keys of the
// two JSON documents: at one snapshot version, /api/snapshot and
// /api/picture.json must each serve their own body and their own ETag,
// whichever is asked first.
func TestSnapshotAndPictureJSONDistinct(t *testing.T) {
	kind := func(body []byte) string {
		var doc map[string]json.RawMessage
		if err := json.Unmarshal(body, &doc); err != nil {
			return "unparsable"
		}
		_, seq := doc["seq"]
		_, comps := doc["components"]
		_, edges := doc["edges"]
		switch {
		case seq && comps:
			return "snapshot"
		case edges && !seq:
			return "picture"
		}
		return "unknown"
	}
	want := map[string]string{"/api/snapshot": "snapshot", "/api/picture.json": "picture"}
	for _, order := range [][]string{
		{"/api/snapshot", "/api/picture.json"},
		{"/api/picture.json", "/api/snapshot"},
	} {
		s := New(Config{})
		ts := httptest.NewServer(s.Handler())
		s.Publish(testSnap(1), nil)
		waitSeq(t, s, 1)
		etags := map[string]string{}
		for _, path := range order {
			resp, body := get(t, ts.URL+path)
			if resp.StatusCode != 200 {
				t.Fatalf("%s = %d", path, resp.StatusCode)
			}
			if got := kind(body); got != want[path] {
				t.Errorf("%s after %v: body is a %s document, want %s", path, order[0], got, want[path])
			}
			etags[path] = resp.Header.Get("ETag")
		}
		if a, b := etags["/api/snapshot"], etags["/api/picture.json"]; a == "" || a == b {
			t.Errorf("order %v: ETags %q and %q, want two distinct ones", order, a, b)
		}
		ts.Close()
		s.Close()
	}
}

// TestSingleFlightRenders is the cache guarantee: any number of
// concurrent readers of one snapshot version cost exactly one render
// per format.
func TestSingleFlightRenders(t *testing.T) {
	s := New(Config{MaxInFlight: 1024})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	s.Publish(testSnap(1), nil)
	waitSeq(t, s, 1)

	renders0 := mRenders.With("svg").Value()
	hits0 := mCacheHits.With("svg").Value()

	const readers = 64
	var wg sync.WaitGroup
	errs := make(chan error, readers)
	for i := 0; i < readers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(ts.URL + "/api/picture.svg")
			if err != nil {
				errs <- err
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != 200 {
				errs <- fmt.Errorf("status %d", resp.StatusCode)
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if d := mRenders.With("svg").Value() - renders0; d != 1 {
		t.Errorf("renders for one snapshot version = %d, want 1", d)
	}
	if d := mCacheHits.With("svg").Value() - hits0; d != readers-1 {
		t.Errorf("cache hits = %d, want %d", d, readers-1)
	}
}

func TestAdmissionShedding(t *testing.T) {
	s := New(Config{MaxInFlight: 2})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	s.Publish(testSnap(1), nil)
	waitSeq(t, s, 1)

	// Occupy every admission slot, then request: must shed, not queue.
	s.sem <- struct{}{}
	s.sem <- struct{}{}
	resp, body := get(t, ts.URL+"/api/snapshot")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over capacity = %d %s, want 429", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") != "1" {
		t.Errorf("429 Retry-After = %q, want 1", resp.Header.Get("Retry-After"))
	}
	// healthz is exempt from admission: liveness answers under load.
	resp, _ = get(t, ts.URL+"/healthz")
	if resp.StatusCode != 200 {
		t.Errorf("healthz under load = %d, want 200", resp.StatusCode)
	}
	<-s.sem
	<-s.sem
	resp, _ = get(t, ts.URL+"/api/snapshot")
	if resp.StatusCode != 200 {
		t.Errorf("after release = %d, want 200", resp.StatusCode)
	}
}

// TestDegradedRestore is the crash-recovery story: a restarted server
// answers reads from the durable last snapshot, explicitly stale, until
// a live publish arrives — and the version numbering survives the
// restart.
func TestDegradedRestore(t *testing.T) {
	dir := t.TempDir()
	a := New(Config{Dir: dir})
	a.Publish(testSnap(7), nil)
	waitSeq(t, a, 1)
	a.Publish(testSnap(8), nil)
	waitSeq(t, a, 2)
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}

	b := New(Config{Dir: dir})
	defer b.Close()
	ts := httptest.NewServer(b.Handler())
	defer ts.Close()

	resp, body := get(t, ts.URL+"/api/snapshot")
	if resp.StatusCode != 200 {
		t.Fatalf("restored read = %d, want 200 (degraded beats down)", resp.StatusCode)
	}
	if resp.Header.Get("X-Rex-Stale") != "true" || resp.Header.Get("X-Rex-Stale-Reason") != "restored" {
		t.Errorf("restored read headers: stale=%q reason=%q",
			resp.Header.Get("X-Rex-Stale"), resp.Header.Get("X-Rex-Stale-Reason"))
	}
	var v SnapshotView
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatal(err)
	}
	if !v.Stale || v.StaleReason != "restored" || v.Seq != 2 || v.Events != 8 {
		t.Errorf("restored view: %+v", v)
	}
	// Picture renders work on the restored snapshot too.
	resp, body = get(t, ts.URL+"/api/picture.svg")
	if resp.StatusCode != 200 || !strings.Contains(string(body), "<svg") {
		t.Errorf("restored picture.svg = %d", resp.StatusCode)
	}
	resp, _ = get(t, ts.URL+"/readyz")
	if resp.StatusCode != 503 {
		t.Errorf("readyz while restored = %d, want 503", resp.StatusCode)
	}

	// A live publish clears degraded mode and keeps versions monotonic.
	b.Publish(testSnap(9), nil)
	waitSeq(t, b, 3)
	resp, _ = get(t, ts.URL+"/api/snapshot")
	if resp.Header.Get("X-Rex-Stale") != "false" || resp.Header.Get("X-Rex-Snapshot-Seq") != "3" {
		t.Errorf("post-recovery read: stale=%q seq=%q",
			resp.Header.Get("X-Rex-Stale"), resp.Header.Get("X-Rex-Snapshot-Seq"))
	}
	resp, _ = get(t, ts.URL+"/readyz")
	if resp.StatusCode != 200 {
		t.Errorf("readyz after recovery = %d, want 200", resp.StatusCode)
	}
}

func TestStaleAfter(t *testing.T) {
	ck := newClock()
	s := New(Config{StaleAfter: 10 * time.Second, now: ck.now})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	s.Publish(testSnap(1), nil)
	waitSeq(t, s, 1)

	resp, _ := get(t, ts.URL+"/api/snapshot")
	if resp.Header.Get("X-Rex-Stale") != "false" {
		t.Fatalf("fresh read marked stale")
	}
	ck.advance(11 * time.Second)
	resp, body := get(t, ts.URL+"/api/snapshot")
	if resp.StatusCode != 200 {
		t.Fatalf("stale read = %d, want 200", resp.StatusCode)
	}
	if resp.Header.Get("X-Rex-Stale") != "true" || resp.Header.Get("X-Rex-Stale-Reason") != "stale" {
		t.Errorf("stale read headers: %q %q", resp.Header.Get("X-Rex-Stale"), resp.Header.Get("X-Rex-Stale-Reason"))
	}
	var v SnapshotView
	json.Unmarshal(body, &v)
	if !v.Stale || v.StaleReason != "stale" {
		t.Errorf("stale body: stale=%t reason=%q", v.Stale, v.StaleReason)
	}
	resp, _ = get(t, ts.URL+"/readyz")
	if resp.StatusCode != 503 {
		t.Errorf("readyz while stale = %d, want 503", resp.StatusCode)
	}
	// A fresh publish un-degrades.
	s.Publish(testSnap(2), nil)
	waitSeq(t, s, 2)
	resp, _ = get(t, ts.URL+"/readyz")
	if resp.StatusCode != 200 {
		t.Errorf("readyz after fresh publish = %d, want 200", resp.StatusCode)
	}
}

func TestPrefixDrilldown(t *testing.T) {
	s := New(Config{})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	s.Publish(testSnap(1), nil)
	waitSeq(t, s, 1)

	resp, body := get(t, ts.URL+"/api/prefix/20.1.0.0/16")
	if resp.StatusCode != 200 {
		t.Fatalf("prefix = %d: %s", resp.StatusCode, body)
	}
	var pv PrefixView
	if err := json.Unmarshal(body, &pv); err != nil {
		t.Fatal(err)
	}
	if pv.Prefix != "20.1.0.0/16" || len(pv.Components) != 1 {
		t.Errorf("prefix view: %+v", pv)
	}
	resp, body = get(t, ts.URL+"/api/prefix/99.0.0.0/8")
	var empty PrefixView
	json.Unmarshal(body, &empty)
	if resp.StatusCode != 200 || len(empty.Components) != 0 {
		t.Errorf("unmatched prefix = %d with %d components, want 200 empty", resp.StatusCode, len(empty.Components))
	}
	resp, _ = get(t, ts.URL+"/api/prefix/not-a-prefix")
	if resp.StatusCode != 400 {
		t.Errorf("bad prefix = %d, want 400", resp.StatusCode)
	}
}

// sseRead reads one SSE frame (event name, data line) from the stream.
func sseRead(t *testing.T, br *bufio.Reader) (string, string) {
	t.Helper()
	var event, data string
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("SSE read: %v", err)
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = strings.TrimPrefix(line, "data: ")
		case line == "" && event != "":
			return event, data
		}
	}
}

func TestSSEStream(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	s.Publish(testSnap(5), nil)
	waitSeq(t, s, 1)

	resp, err := http.Get(ts.URL + "/api/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream content-type = %q", ct)
	}
	br := bufio.NewReader(resp.Body)
	event, data := sseRead(t, br)
	if event != "hello" || !strings.Contains(data, `"seq":1`) {
		t.Fatalf("first frame = %s %s, want hello seq 1", event, data)
	}

	s.Publish(testSnap(6), nil)
	event, data = sseRead(t, br)
	if event != "snapshot" || !strings.Contains(data, `"seq":2`) {
		t.Fatalf("second frame = %s %s, want snapshot seq 2", event, data)
	}

	// Drain closes the stream with a terminal bye.
	done := make(chan struct{})
	go func() {
		defer close(done)
		event, data = sseRead(t, br)
	}()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("no bye frame after drain")
	}
	if event != "bye" || !strings.Contains(data, "drain") {
		t.Errorf("terminal frame = %s %s, want bye drain", event, data)
	}
}

func TestSSEClientCap(t *testing.T) {
	s := New(Config{MaxSSEClients: 1})
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	resp1, err := http.Get(ts.URL + "/api/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp1.Body.Close()
	br := bufio.NewReader(resp1.Body)
	sseRead(t, br) // hello: subscription is live

	resp2, _ := get(t, ts.URL+"/api/stream")
	if resp2.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over SSE cap = %d, want 429", resp2.StatusCode)
	}
}

// TestBrokerDropOldestResync exercises the slow-consumer policy at the
// unit level: a full queue drops the oldest event and the next
// delivered event is renamed resync.
func TestBrokerDropOldestResync(t *testing.T) {
	b := newBroker(2, 4)
	c, ok := b.add()
	if !ok {
		t.Fatal("add failed")
	}
	defer b.remove(c)
	for i := 0; i < 5; i++ {
		b.broadcast(sseMsg{event: "snapshot", data: []byte(fmt.Sprintf(`{"seq":%d}`, i+1))})
	}
	if len(c.ch) != 2 {
		t.Fatalf("queue depth = %d, want 2 (bounded)", len(c.ch))
	}
	// Oldest were dropped: first delivered is seq 4, renamed resync.
	m := b.nextEvent(c, <-c.ch)
	if m.event != "resync" || !strings.Contains(string(m.data), `"seq":4`) {
		t.Errorf("first delivered = %s %s, want resync seq 4", m.event, m.data)
	}
	// Resync mark is one-shot.
	m = b.nextEvent(c, <-c.ch)
	if m.event != "snapshot" || !strings.Contains(string(m.data), `"seq":5`) {
		t.Errorf("second delivered = %s %s, want snapshot seq 5", m.event, m.data)
	}
}

// TestPublishNeverBlocks pins the decoupling contract: with the serve
// loop wedged, Publish still returns immediately, dropping oldest.
func TestPublishNeverBlocks(t *testing.T) {
	s := &Server{
		cfg:      Config{}.withDefaults(),
		updates:  make(chan update, 2),
		stop:     make(chan struct{}),
		loopDone: make(chan struct{}),
		drain:    make(chan struct{}),
	}
	close(s.loopDone) // no loop running: worst case
	dropped0 := mPublishDropped.Value()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			s.Publish(testSnap(i), nil)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Publish blocked on a wedged serve loop")
	}
	if d := mPublishDropped.Value() - dropped0; d != 98 {
		t.Errorf("dropped = %d, want 98 (buffer 2, latest wins)", d)
	}
}

func TestRenderCachePanicRecovery(t *testing.T) {
	c := newRenderCache()
	c.advance(1)
	_, _, err := c.get(nil, renderKey{seq: 1, format: "svg"}, func() ([]byte, string, error) {
		panic("render exploded")
	})
	if err == nil || !strings.Contains(err.Error(), "panic") {
		t.Fatalf("panicking render: err = %v, want panic error", err)
	}
	// The entry is poisoned for this version but a new version renders.
	c.advance(2)
	data, _, err := c.get(nil, renderKey{seq: 2, format: "svg"}, func() ([]byte, string, error) {
		return []byte("ok"), "text/plain", nil
	})
	if err != nil || string(data) != "ok" {
		t.Fatalf("after advance: %q %v", data, err)
	}
}

func TestCacheAdvanceEvicts(t *testing.T) {
	c := newRenderCache()
	c.advance(1)
	c.get(nil, renderKey{seq: 1, format: "svg"}, func() ([]byte, string, error) {
		return []byte("v1"), "t", nil
	})
	c.advance(2)
	c.mu.Lock()
	n := len(c.entries)
	c.mu.Unlock()
	if n != 0 {
		t.Fatalf("entries after advance = %d, want 0", n)
	}
}

// FuzzServePath throws arbitrary URL paths at the mux: no panic, no
// 500-class status other than the deliberate degraded 503.
func FuzzServePath(f *testing.F) {
	for _, seed := range []string{
		"/", "/api/snapshot", "/api/picture.svg", "/api/picture.dot",
		"/api/picture.json", "/api/components", "/api/prefix/1.2.3.0/24",
		"/api/prefix/", "/api/prefix/::%2f0", "/healthz", "/readyz",
		"/api/prefix/999.999.999.999/99", "/api/../etc/passwd", "//api//snapshot",
		"/api/prefix/20.1.0.0/16?x=1", "/api/snapshot#frag", "/%00", "/api/stream/extra",
		"/api/at", "/api/at?t=2003-08-14T20:00:00Z", "/api/at?t=-1&window=junk",
		"/api/at/components?t=1060891200", "/api/at/picture.svg?t=junk",
		"/api/at/picture.dot?t=", "/api/at/picture.json?t=9999999999999999999",
	} {
		f.Add(seed)
	}
	s := New(Config{})
	defer s.Close()
	s.Publish(testSnap(1), nil)
	deadline := time.Now().Add(5 * time.Second)
	for s.Seq() < 1 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	h := s.Handler()
	f.Fuzz(func(t *testing.T, path string) {
		req, err := http.NewRequest("GET", path, nil)
		if err != nil {
			t.Skip()
		}
		if req.URL.Host != "" || !strings.HasPrefix(path, "/") {
			t.Skip() // absolute-form URLs are not what the mux sees
		}
		if path == "/api/stream" || strings.HasPrefix(path, "/api/stream?") {
			t.Skip() // SSE blocks until drain; covered by TestSSEStream
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code >= 500 && rec.Code != http.StatusServiceUnavailable {
			t.Fatalf("GET %q = %d", path, rec.Code)
		}
	})
}
