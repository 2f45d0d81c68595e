package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/netip"
	"strconv"
	"strings"
	"time"

	"rex/internal/viz"
)

// Handler returns the serving-tier mux. Data endpoints sit behind the
// admission gate; /healthz, /readyz and /api/stream do not (liveness
// must answer under load, and SSE has its own subscriber cap).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/", s.handleIndex)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.Handle("/api/snapshot", s.admit("snapshot", s.handleSnapshot))
	mux.Handle("/api/components", s.admit("components", s.handleComponents))
	mux.Handle("/api/picture.svg", s.admit("picture.svg", s.handlePicture("svg")))
	mux.Handle("/api/picture.dot", s.admit("picture.dot", s.handlePicture("dot")))
	mux.Handle("/api/picture.json", s.admit("picture.json", s.handlePicture("json")))
	mux.Handle("/api/prefix/", s.admit("prefix", s.handlePrefix))
	mux.HandleFunc("/api/stream", s.handleStream)
	// Time-travel endpoints: own admission lane (the replay semaphore,
	// not MaxInFlight), and independent of the live snapshot — they
	// answer from the journal even before the first publish.
	mux.Handle("/api/at", s.atHandler("at", "json"))
	mux.Handle("/api/at/components", s.atHandler("at.components", "components"))
	mux.Handle("/api/at/picture.svg", s.atHandler("at.picture.svg", "svg"))
	mux.Handle("/api/at/picture.dot", s.atHandler("at.picture.dot", "dot"))
	mux.Handle("/api/at/picture.json", s.atHandler("at.picture.json", "pjson"))
	return mux
}

// dataHandler is an endpoint that serves the current snapshot; admit
// resolves admission, deadline and degraded-mode state before calling
// it.
type dataHandler func(w http.ResponseWriter, r *http.Request, cur *published, h healthState)

// admit is the admission gate: bound the in-flight data requests, shed
// the excess with 429 + Retry-After, put a deadline on the rest, and
// resolve the degraded-mode read decision once per request.
func (s *Server) admit(route string, next dataHandler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mRequests.With(route).Inc()
		select {
		case s.sem <- struct{}{}:
		default:
			mShed.Inc()
			w.Header().Set("Retry-After", s.latLive.retryAfter())
			httpError(w, http.StatusTooManyRequests, "server at capacity")
			return
		}
		mInFlight.Inc()
		start := time.Now()
		id := s.latLive.begin()
		defer func() {
			<-s.sem
			mInFlight.Dec()
			s.latLive.end(id)
			mLatency.Observe(time.Since(start).Seconds())
		}()

		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		r = r.WithContext(ctx)

		// Every write gets a deadline: the server-level WriteTimeout is
		// deliberately 0 (it would kill SSE), so slow readers are bounded
		// here instead.
		rc := http.NewResponseController(w)
		rc.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))

		cur, h := s.health(s.cfg.now())
		if cur == nil {
			// Nothing to serve at all — only possible before the first
			// snapshot of a fresh deployment (no durable state). This is
			// the tier's one 503-on-data path; everything after the first
			// snapshot degrades to a stale read instead.
			w.Header().Set("Retry-After", s.latLive.retryAfter())
			httpError(w, http.StatusServiceUnavailable, "no snapshot yet")
			return
		}
		if h.stale {
			mStaleReads.Inc()
		}
		staleHeaders(w, cur, h, s.cfg.now())
		next(w, r, cur, h)
	})
}

// staleHeaders stamps the degraded-mode metadata every data response
// carries, so even opaque bodies (SVG bytes) tell the reader how fresh
// the picture is.
func staleHeaders(w http.ResponseWriter, cur *published, h healthState, now time.Time) {
	hd := w.Header()
	hd.Set("X-Rex-Snapshot-Seq", fmt.Sprintf("%d", cur.seq))
	hd.Set("X-Rex-Snapshot-At", cur.view.At.UTC().Format(time.RFC3339Nano))
	if !cur.recvAt.IsZero() {
		hd.Set("X-Rex-Snapshot-Age", fmt.Sprintf("%.1f", now.Sub(cur.recvAt).Seconds()))
	}
	hd.Set("X-Rex-Stale", fmt.Sprintf("%t", h.stale))
	if h.reason != "" {
		hd.Set("X-Rex-Stale-Reason", h.reason)
	}
	hd.Set("Cache-Control", "no-cache")
}

// etagFor is the snapshot-version ETag: readers polling an unchanged
// snapshot get 304s, which cost no render and almost no bytes.
func etagFor(key renderKey) string {
	return fmt.Sprintf("\"v%d-%s-%t\"", key.seq, key.format, key.stale)
}

// serveCached answers from the single-flight render cache, handling
// conditional requests against the version ETag.
func (s *Server) serveCached(w http.ResponseWriter, r *http.Request, key renderKey, render func() ([]byte, string, error)) {
	etag := etagFor(key)
	w.Header().Set("ETag", etag)
	if match := r.Header.Get("If-None-Match"); match != "" && strings.Contains(match, etag) {
		mNotModified.Inc()
		w.WriteHeader(http.StatusNotModified)
		return
	}
	data, ctype, err := s.cache.get(r.Context(), key, render)
	if err != nil {
		w.Header().Set("Retry-After", s.latLive.retryAfter())
		httpError(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	w.Header().Set("Content-Type", ctype)
	w.Write(data)
}

// handleSnapshot serves the full snapshot JSON. Its format key is
// "snapshot", not "json": that one is /api/picture.json's, and a shared
// key would serve whichever document was rendered first at a seq for
// both. The stale flag is part of the body, so it participates in the
// cache key: a given snapshot version has at most two renderings (fresh
// and degraded), and in practice one.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request, cur *published, h healthState) {
	key := renderKey{seq: cur.seq, format: "snapshot", stale: h.stale}
	s.serveCached(w, r, key, func() ([]byte, string, error) {
		v := cur.stampedView(h)
		b, err := json.MarshalIndent(&v, "", "  ")
		if err != nil {
			return nil, "", err
		}
		return append(b, '\n'), "application/json", nil
	})
}

// handleComponents serves the Stemming components alone — the
// operator's "what is broken right now" list. The body is
// staleness-free (headers carry it), so each version renders once.
func (s *Server) handleComponents(w http.ResponseWriter, r *http.Request, cur *published, h healthState) {
	key := renderKey{seq: cur.seq, format: "components", stale: false}
	s.serveCached(w, r, key, func() ([]byte, string, error) {
		doc := struct {
			Seq        uint64          `json:"seq"`
			At         time.Time       `json:"at"`
			Components []ComponentView `json:"components"`
		}{cur.seq, cur.view.At, cur.view.Components}
		b, err := json.MarshalIndent(&doc, "", "  ")
		if err != nil {
			return nil, "", err
		}
		return append(b, '\n'), "application/json", nil
	})
}

// handlePicture serves the TAMP picture in the requested format. The
// bytes do not embed staleness, so the cache key's stale bit is pinned
// false: a degraded-mode flip cannot double the render count.
func (s *Server) handlePicture(format string) dataHandler {
	return func(w http.ResponseWriter, r *http.Request, cur *published, h healthState) {
		key := renderKey{seq: cur.seq, format: format, stale: false}
		s.serveCached(w, r, key, func() ([]byte, string, error) {
			switch format {
			case "svg":
				return []byte(viz.SVG(cur.pic)), "image/svg+xml", nil
			case "dot":
				return []byte(viz.DOT(cur.pic, viz.DOTOptions{})), "text/vnd.graphviz", nil
			case "json":
				return viz.JSON(cur.pic), "application/json", nil
			}
			return nil, "", fmt.Errorf("unknown picture format %q", format)
		})
	}
}

// handlePrefix is the per-prefix drill-down: every component of the
// current snapshot involving the given prefix. Uncached on purpose —
// the key space is caller-controlled and the scan is linear in the
// component list, which is already bounded by the pipeline.
func (s *Server) handlePrefix(w http.ResponseWriter, r *http.Request, cur *published, h healthState) {
	raw := strings.TrimPrefix(r.URL.Path, "/api/prefix/")
	pfx, err := netip.ParsePrefix(raw)
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Sprintf("bad prefix %q: use CIDR form, e.g. /api/prefix/203.0.113.0/24", raw))
		return
	}
	want := pfx.String()
	out := PrefixView{Prefix: want, Seq: cur.seq, Stale: h.stale, StaleReason: h.reason}
	for _, c := range cur.view.Components {
		for _, p := range c.Prefixes {
			if p == want {
				out.Components = append(out.Components, c)
				break
			}
		}
	}
	w.Header().Set("Content-Type", "application/json")
	b, _ := json.MarshalIndent(&out, "", "  ")
	w.Write(append(b, '\n'))
}

// handleStream is the live SSE snapshot stream. Subscribers past the
// cap get 429; live ones get a "hello" with the current summary, then
// one "snapshot" (or "resync") event per publish, heartbeat comments in
// between, and a terminal "bye" event when the server drains.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	mRequests.With("stream").Inc()
	select {
	case <-s.drain:
		w.Header().Set("Retry-After", s.latLive.retryAfter())
		httpError(w, http.StatusServiceUnavailable, "draining")
		return
	default:
	}
	c, ok := s.broker.add()
	if !ok {
		mSSERejected.Inc()
		w.Header().Set("Retry-After", s.latLive.retryAfter())
		httpError(w, http.StatusTooManyRequests, "subscriber limit reached")
		return
	}
	defer s.broker.remove(c)

	hd := w.Header()
	hd.Set("Content-Type", "text/event-stream")
	hd.Set("Cache-Control", "no-cache")
	hd.Set("Connection", "keep-alive")
	hd.Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)

	rc := http.NewResponseController(w)
	cur, h := s.health(s.cfg.now())
	hello := []byte(`{"seq":0}`)
	if cur != nil {
		hello = summaryJSON(cur, h.stale, h.reason)
	}
	if err := writeSSE(w, rc, s.cfg.WriteTimeout, sseMsg{event: "hello", data: hello}); err != nil {
		mSSEEvicted.Inc()
		return
	}

	hb := time.NewTicker(s.cfg.SSEHeartbeat)
	defer hb.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-s.drain:
			// Terminal event: tell the client this is a planned drain,
			// not a crash, so it can back off before reconnecting.
			writeSSE(w, rc, s.cfg.WriteTimeout, sseMsg{event: "bye", data: []byte(`{"reason":"drain"}`)})
			return
		case m := <-c.ch:
			if err := writeSSE(w, rc, s.cfg.WriteTimeout, s.broker.nextEvent(c, m)); err != nil {
				mSSEEvicted.Inc()
				return
			}
		case <-hb.C:
			if err := writeSSEComment(w, rc, s.cfg.WriteTimeout); err != nil {
				mSSEEvicted.Inc()
				return
			}
		}
	}
}

// atHandler serves one time-travel endpoint: parse the queried instant,
// resolve it through the replayed-instant cache (single-flight replay
// under the dedicated lane), and render the requested format. Degraded
// outcomes are explicit status codes with X-Rex-Replay-* headers — a
// journal that cannot answer is 416/422, never 500; only an I/O failure
// maps to 503.
func (s *Server) atHandler(route, format string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mRequests.With(route).Inc()
		if s.hist == nil {
			httpError(w, http.StatusNotFound, "time travel disabled: the serving tier has no journal directory")
			return
		}
		t, window, perr := s.parseAtQuery(r)
		if perr != "" {
			httpError(w, http.StatusBadRequest, perr)
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
		defer cancel()
		rc := http.NewResponseController(w)
		rc.SetWriteDeadline(time.Now().Add(s.cfg.WriteTimeout))

		key := atKey{at: t.UTC().Format(time.RFC3339Nano), window: window}
		// A replayed instant is immutable, so the ETag needs no version:
		// the key and format identify the bytes forever. Only success
		// responses emit it (a cached 416 near the live head could heal).
		etag := fmt.Sprintf("\"at-%s-%s-%s\"", key.at, key.window, format)
		if match := r.Header.Get("If-None-Match"); match != "" && strings.Contains(match, etag) {
			mNotModified.Inc()
			w.WriteHeader(http.StatusNotModified)
			return
		}

		e, admitted := s.histCache.get(ctx, key,
			func() bool {
				select {
				case s.replaySem <- struct{}{}:
					mReplays.Inc()
					mReplayInFlight.Inc()
					return true
				default:
					mReplayShed.Inc()
					return false
				}
			},
			func() {
				<-s.replaySem
				mReplayInFlight.Dec()
			},
			func() (*atResult, *replayError, error) {
				id := s.latReplay.begin()
				res, rerr, err := s.hist.replayAt(t, window)
				took := s.latReplay.end(id)
				mReplaySeconds.Observe(took.Seconds())
				logReplay(key, res, rerr, err, took)
				return res, rerr, err
			})
		if !admitted {
			w.Header().Set("Retry-After", s.latReplay.retryAfter())
			httpError(w, http.StatusTooManyRequests, "replay lane at capacity")
			return
		}
		if e == nil {
			// ctx expired while waiting on someone else's replay.
			w.Header().Set("Retry-After", s.latReplay.retryAfter())
			httpError(w, http.StatusServiceUnavailable, "timed out waiting for replay")
			return
		}
		if e.err != nil {
			w.Header().Set("Retry-After", s.latReplay.retryAfter())
			httpError(w, http.StatusServiceUnavailable, e.err.Error())
			return
		}
		if e.rerr != nil {
			mReplayDegraded.With(e.rerr.reason).Inc()
			hd := w.Header()
			hd.Set("X-Rex-Replay-Reason", e.rerr.reason)
			if e.rerr.floor > 0 {
				hd.Set("X-Rex-Replay-Floor", fmt.Sprintf("%d", e.rerr.floor))
			}
			if e.rerr.skipped > 0 {
				hd.Set("X-Rex-Replay-Skipped", fmt.Sprintf("%d", e.rerr.skipped))
			}
			httpError(w, e.rerr.code, e.rerr.msg)
			return
		}
		res := e.res
		hd := w.Header()
		hd.Set("ETag", etag)
		hd.Set("X-Rex-Replay-At", res.snap.At.UTC().Format(time.RFC3339Nano))
		hd.Set("X-Rex-Replay-Window", window.String())
		hd.Set("X-Rex-Replay-Records", fmt.Sprintf("%d", res.records))
		hd.Set("Cache-Control", "no-cache")
		data, ctype, err := s.histCache.render(ctx, e, format, func() ([]byte, string, error) {
			return renderAt(res, format)
		})
		if err != nil {
			w.Header().Set("Retry-After", s.latReplay.retryAfter())
			httpError(w, http.StatusServiceUnavailable, err.Error())
			return
		}
		hd.Set("Content-Type", ctype)
		w.Write(data)
	})
}

// parseAtQuery validates the time-travel query: t is required (RFC3339
// or integer unix seconds), window is an optional positive Go duration
// defaulting to the replay pipeline's window and clamped to the
// configured ceiling.
func (s *Server) parseAtQuery(r *http.Request) (time.Time, time.Duration, string) {
	q := r.URL.Query()
	raw := q.Get("t")
	if raw == "" {
		return time.Time{}, 0, "missing t: pass t=<RFC3339 time or unix seconds>, e.g. t=2003-08-14T20:00:00Z"
	}
	var t time.Time
	if n, err := strconv.ParseInt(raw, 10, 64); err == nil {
		t = time.Unix(n, 0).UTC()
	} else if ts, terr := time.Parse(time.RFC3339Nano, raw); terr == nil {
		t = ts
	} else {
		return time.Time{}, 0, fmt.Sprintf("bad t %q: want RFC3339 (2003-08-14T20:00:00Z) or unix seconds", raw)
	}
	window := s.cfg.Replay.Window
	if window <= 0 {
		window = 15 * time.Minute // the pipeline default
	}
	if rawW := q.Get("window"); rawW != "" {
		d, err := time.ParseDuration(rawW)
		if err != nil || d <= 0 {
			return time.Time{}, 0, fmt.Sprintf("bad window %q: want a positive Go duration, e.g. window=15m", rawW)
		}
		window = d
	}
	if window > s.cfg.MaxReplayWindow {
		window = s.cfg.MaxReplayWindow
	}
	return t, window, ""
}

// renderAt renders one format of a completed replay. The picture
// formats go through the same viz renderers as the live endpoints — the
// differential replay suite relies on that to assert byte-identity.
func renderAt(res *atResult, format string) ([]byte, string, error) {
	switch format {
	case "json":
		v := atViewOf(res)
		b, err := json.MarshalIndent(&v, "", "  ")
		if err != nil {
			return nil, "", err
		}
		return append(b, '\n'), "application/json", nil
	case "components":
		doc := struct {
			T          time.Time       `json:"t"`
			At         time.Time       `json:"at"`
			Components []ComponentView `json:"components"`
		}{res.t, res.snap.At, res.comps}
		b, err := json.MarshalIndent(&doc, "", "  ")
		if err != nil {
			return nil, "", err
		}
		return append(b, '\n'), "application/json", nil
	case "svg":
		return []byte(viz.SVG(res.snap.Picture)), "image/svg+xml", nil
	case "dot":
		return []byte(viz.DOT(res.snap.Picture, viz.DOTOptions{})), "text/vnd.graphviz", nil
	case "pjson":
		return viz.JSON(res.snap.Picture), "application/json", nil
	}
	return nil, "", fmt.Errorf("unknown at format %q", format)
}

// handleHealthz is pure liveness: the process is up and the mux
// answers. Deliberately independent of pipeline state — degraded mode
// must not get the process killed by an orchestrator.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	mRequests.With("healthz").Inc()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleReadyz is readiness: 200 only when the served snapshot is live
// and fresh and the server is not draining. Load balancers use this to
// route around a recovering node while its data endpoints keep
// answering stale reads for direct clients.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	mRequests.With("readyz").Inc()
	_, h := s.health(s.cfg.now())
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	switch {
	case h.draining:
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
	case h.stale:
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintf(w, "not ready: %s\n", h.reason)
	default:
		fmt.Fprintln(w, "ready")
	}
}

// handleIndex is a plain-text map of the API for humans with curl.
func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path != "/" {
		mRequests.With("other").Inc()
		httpError(w, http.StatusNotFound, "no such endpoint; GET / lists the API")
		return
	}
	mRequests.With("index").Inc()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, `rex serving tier

  GET /api/snapshot          full snapshot JSON (components + picture + feeds)
  GET /api/components        Stemming components only
  GET /api/picture.svg       TAMP picture, SVG
  GET /api/picture.dot       TAMP picture, Graphviz DOT
  GET /api/picture.json      TAMP picture, JSON graph
  GET /api/prefix/{cidr}     components involving one prefix (e.g. /api/prefix/203.0.113.0/24)
  GET /api/stream            live snapshot stream (SSE)
  GET /api/at?t=...          time travel: state as of t (RFC3339 or unix), optional window=15m
  GET /api/at/components     components as of t
  GET /api/at/picture.{svg,dot,json}?t=...
  GET /healthz               liveness
  GET /readyz                readiness (503 while degraded or draining)

Responses carry X-Rex-Snapshot-Seq / X-Rex-Stale headers; 429 means
back off (Retry-After is set), X-Rex-Stale: true means the pipeline is
recovering and you are reading the last durable snapshot. Time-travel
answers carry X-Rex-Replay-* headers; 416 means t is outside the
journal's reconstructible history, 422 means the range crosses CRC
damage.
`)
}

// httpError writes a small JSON error body with the given status.
func httpError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	b, _ := json.Marshal(struct {
		Error string `json:"error"`
	}{msg})
	w.Write(append(b, '\n'))
}
