package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/netip"
	"sort"
	"sync"
	"time"

	"rex/internal/bgp"
)

// The two connections of the timed phase: one BGP session written by
// the calling goroutine, and one HTTP connection (an SSE stream or a
// keep-alive poller) read by one other goroutine.

// session is the generator's side of the BGP session. It speaks the
// OPEN/KEEPALIVE handshake by hand and then only copies pre-encoded
// UPDATE bytes: fsm.Session.Send per update made the generator, not
// rexd, the bottleneck.
type session struct {
	conn net.Conn
	// cum[i] events had been handed to the socket once the i-th write
	// was issued, and at[i] is when that write was due (open loop) or
	// made (closed loop): the send-side clock visibility is timed from.
	cum []int
	at  []time.Time
}

func openSession(conn net.Conn, id netip.Addr) (*session, error) {
	// A small send buffer keeps the closed-loop flood honest: a write
	// returns when rexd has read about that much, not when the kernel
	// has found room for a few more megabytes, so write progress tracks
	// rexd's progress chunk by chunk.
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetWriteBuffer(64 << 10)
	}
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	open := &bgp.Open{AS: 25, HoldTime: 180, BGPID: id, FourByteAS: true}
	if err := bgp.WriteMessage(conn, open, false); err != nil {
		return nil, fmt.Errorf("send OPEN: %w", err)
	}
	if m, err := bgp.ReadMessage(conn, false); err != nil {
		return nil, fmt.Errorf("read OPEN: %w", err)
	} else if _, ok := m.(*bgp.Open); !ok {
		return nil, fmt.Errorf("expected OPEN, got %v", m.Type())
	}
	if err := bgp.WriteMessage(conn, bgp.Keepalive{}, true); err != nil {
		return nil, fmt.Errorf("send KEEPALIVE: %w", err)
	}
	if m, err := bgp.ReadMessage(conn, true); err != nil {
		return nil, fmt.Errorf("read KEEPALIVE: %w", err)
	} else if _, ok := m.(bgp.Keepalive); !ok {
		return nil, fmt.Errorf("expected KEEPALIVE, got %v", m.Type())
	}
	conn.SetDeadline(time.Time{})
	// rexd's keepalives are the only inbound traffic; drop them. Ends
	// when the connection closes.
	go io.Copy(io.Discard, conn)
	return &session{conn: conn}, nil
}

func (s *session) sent() int {
	if len(s.cum) == 0 {
		return 0
	}
	return s.cum[len(s.cum)-1]
}

// write hands n events' bytes to the socket in chunks of at most
// 64 KiB, stamped due.
func (s *session) write(b []byte, n int, due time.Time) error {
	const chunk = 64 << 10
	for len(b) > 0 {
		c := b
		if len(c) > chunk {
			c = c[:chunk]
		}
		if _, err := s.conn.Write(c); err != nil {
			return fmt.Errorf("bgp write: %w", err)
		}
		b = b[len(c):]
	}
	s.cum = append(s.cum, s.sent()+n)
	s.at = append(s.at, due)
	return nil
}

// dueOf returns the send-side time of the g-th event (1-based count).
func (s *session) dueOf(g int) (time.Time, bool) {
	i := sort.SearchInts(s.cum, g)
	if g < 1 || i == len(s.cum) {
		return time.Time{}, false
	}
	return s.at[i], true
}

const sentinelGap = 200 * time.Millisecond

// seen is one snapshot summary as the reader connection saw it.
type seen struct {
	events int
	at     time.Time
}

// watcher collects what the reader goroutine sees and lets the writer
// wait on it.
type watcher struct {
	mu   sync.Mutex
	log  []seen
	wake chan struct{} // cap 1: a level trigger, not a queue
	done chan struct{}
}

func newWatcher() *watcher {
	return &watcher{wake: make(chan struct{}, 1), done: make(chan struct{})}
}

func (w *watcher) add(s seen) {
	w.mu.Lock()
	w.log = append(w.log, s)
	w.mu.Unlock()
	select {
	case w.wake <- struct{}{}:
	default:
	}
}

func (w *watcher) last() (seen, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(w.log) == 0 {
		return seen{}, false
	}
	return w.log[len(w.log)-1], true
}

// all returns a copy of everything seen so far.
func (w *watcher) all() []seen {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]seen(nil), w.log...)
}

// subscribeSSE opens /api/stream and reads snapshot summaries into a
// watcher until the connection closes. The hello event is recorded
// too: it carries the current count.
func subscribeSSE(addr string) (*watcher, net.Conn, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	fmt.Fprintf(conn, "GET /api/stream HTTP/1.1\r\nHost: %s\r\nAccept: text/event-stream\r\n\r\n", addr)
	br := bufio.NewReaderSize(conn, 64<<10)
	resp, err := http.ReadResponse(br, nil)
	if err != nil {
		conn.Close()
		return nil, nil, fmt.Errorf("sse: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		conn.Close()
		return nil, nil, fmt.Errorf("sse: status %d", resp.StatusCode)
	}
	w := newWatcher()
	go func() {
		defer close(w.done)
		sc := bufio.NewScanner(resp.Body)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		for sc.Scan() {
			data, ok := bytes.CutPrefix(sc.Bytes(), []byte("data: "))
			if !ok {
				continue
			}
			now := time.Now()
			var sum struct {
				Events *int `json:"events"`
			}
			if json.Unmarshal(data, &sum) == nil && sum.Events != nil {
				w.add(seen{events: *sum.Events, at: now})
			}
		}
	}()
	return w, conn, nil
}

// awaitCount keeps a sentinel trickle on the session until the reader
// has seen a snapshot counting at least want events — or, with exact,
// counting every event sent so far and not one more. rexd's snapshot
// clock is event time: without the trickle a feed that has gone quiet
// is never snapshotted again.
//
// The trickle runs at 5/s (sentinelGap) or slower, as the caller says,
// and slows to the snapshot latency last seen when that is longer: a
// snapshot counts events up to the one that triggered it, so "exactly
// what was sent" can only be observed if nothing more is sent while
// that snapshot is on its way.
func awaitCount(s *session, sentinel []byte, w *watcher, want int, exact bool, gap, timeout time.Duration) (seen, error) {
	deadline := time.Now().Add(timeout)
	next := time.Now()
	for {
		got, ok := w.last()
		if exact {
			want = s.sent()
		}
		switch {
		case ok && exact && got.events > want:
			return got, fmt.Errorf("last snapshot counts %d events, only %d were sent", got.events, want)
		case ok && got.events >= want:
			return got, nil
		case time.Now().After(deadline):
			return got, fmt.Errorf("timed out: last snapshot counts %d events, want %d", got.events, want)
		}
		if ok {
			if due, found := s.dueOf(got.events); found {
				if lag := got.at.Sub(due) * 3 / 2; lag > gap {
					gap = lag
				}
			}
		}
		wait := time.NewTimer(time.Until(next))
		select {
		case <-w.wake:
		case <-w.done:
			wait.Stop()
			return seen{}, fmt.Errorf("reader connection closed while waiting for %d events", want)
		case now := <-wait.C:
			if err := s.write(sentinel, 1, now); err != nil {
				return seen{}, err
			}
			next = now.Add(gap)
		}
		wait.Stop()
	}
}

// httpConn is one keep-alive HTTP/1.1 connection driven by hand: a
// request is a pre-built byte string, a response is parsed by
// http.ReadResponse. No transport, no pool, no second connection.
type httpConn struct {
	conn net.Conn
	br   *bufio.Reader
	host string
	body bytes.Buffer
}

func dialHTTP(addr string) (*httpConn, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &httpConn{conn: conn, br: bufio.NewReaderSize(conn, 64<<10), host: addr}, nil
}

// get issues one GET and reads the whole body. The returned body is
// valid until the next call.
func (h *httpConn) get(path, ifNoneMatch string) (status int, hdr http.Header, body []byte, err error) {
	req := "GET " + path + " HTTP/1.1\r\nHost: " + h.host + "\r\n"
	if ifNoneMatch != "" {
		req += "If-None-Match: " + ifNoneMatch + "\r\n"
	}
	if _, err = io.WriteString(h.conn, req+"\r\n"); err != nil {
		return 0, nil, nil, err
	}
	resp, err := http.ReadResponse(h.br, nil)
	if err != nil {
		return 0, nil, nil, err
	}
	h.body.Reset()
	_, err = h.body.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, resp.Header, h.body.Bytes(), err
}
