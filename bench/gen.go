package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/netip"
	"time"

	"rex/internal/bgp"
	"rex/internal/event"
	"rex/internal/sim"
)

// The load generator's input. Everything rexd receives is built here,
// from internal/sim and the seed alone: one BGP UPDATE per event (so
// UPDATEs == events and "the k-th event" is unambiguous), pre-encoded
// during set-up so that the timed phase only copies bytes to a socket.

// sentinelPrefix is never announced by any sim site. Withdrawing it is
// an event the window counts and the picture ignores — the trickle that
// keeps rexd's event-time clock ticking while the bench waits for
// visibility (see README, "silent feeds never tick").
var sentinelPrefix = netip.MustParsePrefix("198.18.255.0/24")

// wire is a run of back-to-back encoded UPDATEs; message k occupies
// buf[off[k]:off[k+1]].
type wire struct {
	buf []byte
	off []int
}

func (w *wire) n() int { return len(w.off) - 1 }

func (w *wire) add(u *bgp.Update) error {
	b, err := bgp.Marshal(u, true)
	if err != nil {
		return err
	}
	if len(w.off) == 0 {
		w.off = append(w.off, 0)
	}
	w.buf = append(w.buf, b...)
	w.off = append(w.off, len(w.buf))
	return nil
}

// span returns the bytes of messages [i, j).
func (w *wire) span(i, j int) []byte { return w.buf[w.off[i]:w.off[j]] }

// input is one workload's generated traffic.
type input struct {
	table    string // "berkeley" or "isp"
	baseline wire   // the table, one announcement per distinct prefix
	events   wire   // the timed phase's UPDATEs
	sentinel []byte

	// baseEvents and evs are the same traffic as event.Events, for the
	// in-process ladder and the replay journal.
	baseEvents event.Stream
	evs        event.Stream

	// announced[k] is how many distinct prefixes stand announced after
	// the baseline and the first k events: what picture.total must read.
	announced []int32
	times     []int64 // event times of baseEvents+evs, built on first use by windowCount

	sha    string        // SHA-256 over baseline+events+sentinel bytes
	buildS float64       // gen.build_s
	peer   netip.Addr    // the one session's BGP identifier
	start  time.Time     // event time of evs[0] (replay only)
	over   time.Duration // event-time span of evs
}

// genInput builds a workload's traffic. table is "berkeley" or "isp";
// n events are generated over the event-time span `over` (which only
// matters to replay, where event times are the journal's).
func genInput(table string, n int, over time.Duration, seed int64) (*input, error) {
	t0 := time.Now()
	var site *sim.Site
	switch table {
	case "berkeley":
		site = sim.BerkeleyScale(23000).Site
	case "isp":
		site = sim.ISPAnonScale(150000).Site
	default:
		return nil, fmt.Errorf("unknown table %q", table)
	}
	in := &input{
		table: table,
		peer:  netip.MustParseAddr("10.99.0.1"),
		start: time.Date(2003, 8, 14, 20, 0, 0, 0, time.UTC),
		over:  over,
	}
	// All routes ride one session: one route per prefix, first router
	// wins. BenchEvents still draws from the full baseline, so an event
	// for another router's route is an implicit replacement here.
	full := site.BaselineRoutes()
	live := make(map[netip.Prefix]bool, len(full))
	for _, r := range full {
		if live[r.Prefix] {
			continue
		}
		live[r.Prefix] = true
		if err := in.baseline.add(&bgp.Update{Attrs: r.Attrs, NLRI: []netip.Prefix{r.Prefix}}); err != nil {
			return nil, err
		}
		e := r.Event(in.start.Add(-time.Second), event.Announce)
		e.Peer = in.peer
		in.baseEvents = append(in.baseEvents, e)
	}
	in.evs = sim.BenchEvents(site, full, n, over, in.start, seed)
	in.announced = make([]int32, 0, len(in.evs)+1)
	in.announced = append(in.announced, int32(len(live)))
	count := int32(len(live))
	for i := range in.evs {
		e := &in.evs[i]
		e.Peer = in.peer
		u := &bgp.Update{}
		if e.Type == event.Announce {
			u.Attrs, u.NLRI = e.Attrs, []netip.Prefix{e.Prefix}
			if !live[e.Prefix] {
				live[e.Prefix] = true
				count++
			}
		} else {
			u.Withdrawn = []netip.Prefix{e.Prefix}
			if live[e.Prefix] {
				delete(live, e.Prefix)
				count--
			}
		}
		if err := in.events.add(u); err != nil {
			return nil, err
		}
		in.announced = append(in.announced, count)
	}
	var err error
	in.sentinel, err = bgp.Marshal(&bgp.Update{Withdrawn: []netip.Prefix{sentinelPrefix}}, true)
	if err != nil {
		return nil, err
	}
	h := sha256.New()
	h.Write(in.baseline.buf)
	h.Write(in.events.buf)
	h.Write(in.sentinel)
	in.sha = hex.EncodeToString(h.Sum(nil))
	in.buildS = time.Since(t0).Seconds()
	return in, nil
}
