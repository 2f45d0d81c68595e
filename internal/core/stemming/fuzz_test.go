package stemming

import (
	"fmt"
	"net/netip"
	"reflect"
	"strings"
	"testing"
	"time"

	"rex/internal/bgp"
	"rex/internal/event"
)

// FuzzWindowMatchesBatch is the property behind the sliding window:
// for ANY event batch and ANY mid-batch eviction, the window's
// incrementally maintained tables — the count table and the per-prefix
// index — equal exactly what a batch analysis builds from scratch over
// the live events, and so does the decomposition. Inputs are text-codec
// lines (seeded from the event codec fuzz corpus) plus a synthetic tail
// of byte-derived events — random peers, prefixes and announce/withdraw
// mixes — so the property is exercised even when mutation breaks every
// line.
func FuzzWindowMatchesBatch(f *testing.F) {
	seeds := []string{
		`W 2003-08-01T10:00:00.000000Z 128.32.1.3 NEXT_HOP 128.32.0.70 ASPATH "11423 209 701" LP 80 MED 10 COMM 11423:65350,11423:65300 PREFIX 192.96.10.0/24`,
		`A 2003-08-01T10:00:00.000000Z 10.0.0.1 ASPATH "1" COMM 0:0,65535:65535,0:0 PREFIX 10.0.0.0/8`,
		`A 2003-08-01T10:00:00.000000Z 10.0.0.1 ASPATH "" PREFIX 10.0.0.0/8`,
		`A 2003-08-01T10:00:00.000000Z 10.0.0.1 NEXT_HOP 10.0.0.2 PREFIX 10.0.0.0/8`,
		`A 1970-01-01T00:00:00.000001Z 10.0.0.1 PREFIX 0.0.0.0/0`,
		`W 2003-08-01T10:00:00.999999Z 128.32.1.3 PREFIX 192.96.10.0/24`,
		`A 2003-08-01T10:00:00.000000Z 10.0.0.1 ASPATH "11423 {7018 1239} 701" PREFIX 10.0.0.0/8`,
		`A 2003-08-01T10:00:00.000000Z fe80::1%eth0 NEXT_HOP 2001:db8::1 ASPATH "1 2" PREFIX 2001:db8::/32`,
	}
	f.Add(strings.Join(seeds, "\n"), uint8(0), false)
	f.Add(strings.Join(seeds, "\n"), uint8(128), false)
	f.Add(seeds[0]+"\n"+seeds[5], uint8(255), false)
	// Mass eviction: the mid-batch cut empties the whole window, and the
	// second half of the batch refills the emptied per-prefix lists.
	f.Add(strings.Join(seeds, "\n"), uint8(0), true)
	f.Fuzz(func(t *testing.T, data string, evictByte uint8, evictAll bool) {
		events := fuzzBatch(data)
		if len(events) == 0 {
			return
		}
		w := NewWindow(Config{}, 1)
		var latest time.Time
		for i, e := range events {
			w.Add(e)
			if e.Time.After(latest) {
				latest = e.Time
			}
			if i != len(events)/2 {
				continue
			}
			// Mid-batch eviction, so the negative-weight path and the
			// index pops are part of the property too.
			switch {
			case evictAll:
				if w.EvictBefore(latest.Add(time.Nanosecond)); w.Len() != 0 {
					t.Fatalf("evicting past the newest event left %d events", w.Len())
				}
			case evictByte > 0:
				w.EvictBefore(e.Time.Add(-time.Duration(evictByte) * time.Second))
			}
		}

		live := w.Events()
		batch := newAnalysis(live, w.cfg)
		if got, want := decodedCounts(w.in, w.counts), decodedCounts(batch.in, batch.counts); !reflect.DeepEqual(got, want) {
			t.Fatalf("count table diverges from batch\n got %v\nwant %v", got, want)
		}
		if got, want := prefixIndex(w.in, windowIndex(w)), prefixIndex(batch.in, batch.eventsByPrefix); !reflect.DeepEqual(got, want) {
			t.Fatalf("per-prefix index diverges from batch\n got %v\nwant %v", got, want)
		}
		if got, want := w.Snapshot(), Analyze(live, w.cfg); !reflect.DeepEqual(got, want) {
			t.Fatalf("components diverge from batch\n got %+v\nwant %+v", got, want)
		}
	})
}

// windowIndex returns a window's per-prefix index as a batch analysis
// holds it: window positions keyed by prefix ID.
func windowIndex(w *Window) map[uint32][]int {
	out := make(map[uint32][]int)
	for pi := range w.lists {
		for _, id := range w.lists[pi].Items() {
			pid := packID(KindPrefix, uint32(pi))
			out[pid] = append(out[pid], int(id-w.headID))
		}
	}
	return out
}

// prefixIndex keys a per-prefix index by prefix content, so indexes
// built by different interners compare directly.
func prefixIndex(in *interner, byPID map[uint32][]int) map[netip.Prefix][]int {
	out := make(map[netip.Prefix][]int, len(byPID))
	for pid, idxs := range byPID {
		_, pi := unpackID(pid)
		out[in.pfxs[pi]] = idxs
	}
	return out
}

// decodedCounts renders a dense count table keyed by token content, so
// tables built by different interners (a window's and a batch run's
// assign IDs in different orders) compare directly. Zero entries — keys
// whose events have all left — are omitted.
func decodedCounts(in *interner, counts []float64) map[string]float64 {
	out := make(map[string]float64)
	for id, c := range counts {
		if c == 0 {
			continue
		}
		var b strings.Builder
		for i, tok := range decodeKey(in.keyStr[id]) {
			if i > 0 {
				b.WriteByte(' ')
			}
			b.WriteString(in.token(tok).String())
		}
		out[b.String()] = c
	}
	return out
}

// fuzzBatch turns fuzz input into an event batch: every line that the
// text codec accepts, then a synthetic tail derived from the raw bytes
// with a splitmix-style generator — random peers, prefixes, withdrawal
// mixes and path lengths, timestamps strictly increasing.
func fuzzBatch(data string) []event.Event {
	var events []event.Event
	for _, line := range strings.Split(data, "\n") {
		if e, err := event.ParseText(line); err == nil {
			events = append(events, e)
		}
	}
	// Seed the generator from the bytes so the tail varies under
	// mutation even when no line parses.
	seed := uint64(1469598103934665603)
	for i := 0; i < len(data); i++ {
		seed = (seed ^ uint64(data[i])) * 1099511628211
	}
	next := func() uint64 {
		seed += 0x9e3779b97f4a7c15
		z := seed
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	t0 := time.Date(2003, 8, 1, 10, 0, 0, 0, time.UTC)
	n := 16 + int(next()%48)
	for i := 0; i < n; i++ {
		r := next()
		e := event.Event{
			Time:   t0.Add(time.Duration(i) * time.Second),
			Type:   event.Announce,
			Peer:   netip.AddrFrom4([4]byte{128, 32, 1, byte(1 + r%5)}),
			Prefix: netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(r >> 8 % 4), byte(r >> 16 % 16), 0}), 24),
		}
		if r%3 == 0 {
			e.Type = event.Withdraw
		}
		if r%4 != 0 {
			path := []uint32{11423}
			for j := uint64(0); j < (r>>24)%3; j++ {
				path = append(path, uint32(200+(r>>(32+8*j))%9))
			}
			e.Attrs = &bgp.PathAttrs{
				ASPath:  bgp.Sequence(path...),
				Nexthop: netip.AddrFrom4([4]byte{128, 32, 0, byte(60 + r%4)}),
			}
		}
		events = append(events, e)
	}
	return events
}

// TestFuzzBatchShape sanity-checks the generator the fuzz target relies
// on: corpus seeds must produce parsed lines AND a synthetic tail with
// both event types and multiple prefixes.
func TestFuzzBatchShape(t *testing.T) {
	events := fuzzBatch(`A 2003-08-01T10:00:00.000000Z 10.0.0.1 ASPATH "1" PREFIX 10.0.0.0/8` + "\nnot-a-line")
	if len(events) < 17 {
		t.Fatalf("batch too small: %d", len(events))
	}
	types := map[event.Type]int{}
	prefixes := map[string]int{}
	for _, e := range events {
		types[e.Type]++
		prefixes[e.Prefix.String()]++
	}
	if types[event.Announce] == 0 || types[event.Withdraw] == 0 {
		t.Errorf("type mix = %v, want both announces and withdrawals", types)
	}
	if len(prefixes) < 2 {
		t.Errorf("prefix diversity = %d, want several", len(prefixes))
	}
	_ = fmt.Sprintf("%v", events[0]) // events must be printable in failures
}
