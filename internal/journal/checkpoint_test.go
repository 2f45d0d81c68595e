package journal

import (
	"net/netip"
	"os"
	"testing"
	"time"

	"rex/internal/bgp"
	"rex/internal/event"
	"rex/internal/rib"
)

func testCheckpoint(nextSeq uint64) *Checkpoint {
	t0 := time.Date(2003, 8, 14, 20, 0, 0, 0, time.UTC)
	mk := func(peer string, n int, stale bool) PeerTable {
		p := PeerTable{Peer: netip.MustParseAddr(peer)}
		for i := 0; i < n; i++ {
			p.Routes = append(p.Routes, &rib.Route{
				Prefix:       netip.PrefixFrom(netip.AddrFrom4([4]byte{10, byte(i), 0, 0}), 16),
				Peer:         p.Peer,
				PeerRouterID: netip.MustParseAddr("192.0.2.1"),
				Attrs: &bgp.PathAttrs{
					ASPath:  bgp.Sequence(11423, uint32(100+i)),
					Nexthop: netip.MustParseAddr("128.32.0.70"),
				},
				LearnedAt: t0.Add(time.Duration(i) * time.Second),
				Stale:     stale,
			})
		}
		return p
	}
	return &Checkpoint{
		NextSeq:     nextSeq,
		ReplayLow:   nextSeq / 2,
		WindowStart: t0.Add(-15 * time.Minute),
		TakenAt:     t0,
		Peers: []PeerTable{
			mk("128.32.1.1", 3, false),
			mk("2001:db8::2", 2, true),
		},
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	dir := t.TempDir()
	want := testCheckpoint(1000)
	if _, err := WriteCheckpoint(dir, want); err != nil {
		t.Fatal(err)
	}
	got, err := LoadLatestCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got == nil {
		t.Fatal("checkpoint not found")
	}
	if got.NextSeq != want.NextSeq || got.ReplayLow != want.ReplayLow ||
		!got.WindowStart.Equal(want.WindowStart) || !got.TakenAt.Equal(want.TakenAt) {
		t.Fatalf("header mismatch: %+v vs %+v", got, want)
	}
	if len(got.Peers) != len(want.Peers) {
		t.Fatalf("%d peers, want %d", len(got.Peers), len(want.Peers))
	}
	for i, p := range got.Peers {
		wp := want.Peers[i]
		if p.Peer != wp.Peer || len(p.Routes) != len(wp.Routes) {
			t.Fatalf("peer %d mismatch", i)
		}
		for j, r := range p.Routes {
			wr := wp.Routes[j]
			if r.Prefix != wr.Prefix || r.Peer != wr.Peer || r.PeerRouterID != wr.PeerRouterID ||
				r.Stale != wr.Stale || r.EBGP != wr.EBGP || !r.LearnedAt.Equal(wr.LearnedAt) ||
				!r.Attrs.Equal(wr.Attrs) {
				t.Fatalf("peer %d route %d: %+v vs %+v", i, j, r, wr)
			}
		}
	}
}

func TestCheckpointRelayRoundTrip(t *testing.T) {
	t0 := time.Date(2003, 8, 14, 20, 0, 0, 0, time.UTC)
	dir := t.TempDir()
	want := testCheckpoint(1000)
	want.Feeds = []FeedCursor{
		{ID: "feed-00", NextSeq: 512, Watermark: t0.Add(3 * time.Minute)},
		{ID: "feed-01", NextSeq: 488},              // zero watermark: never released
		{ID: "feed-02", NextSeq: 0, Watermark: t0}, // never heard, wm from restore
	}
	want.Pipe = &PipeState{
		Clock:    t0.Add(3 * time.Minute),
		NextTick: t0.Add(4 * time.Minute),
		// CurBucket zero: first bucket not yet rolled.
		LastSpike: t0.Add(90 * time.Second),
	}
	if _, err := WriteCheckpoint(dir, want); err != nil {
		t.Fatal(err)
	}
	got, err := LoadLatestCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got == nil {
		t.Fatal("checkpoint not found")
	}
	if got.NextSeq != want.NextSeq || len(got.Peers) != len(want.Peers) {
		t.Fatalf("v1 fields lost: %+v", got)
	}
	if len(got.Feeds) != len(want.Feeds) {
		t.Fatalf("%d feed cursors, want %d", len(got.Feeds), len(want.Feeds))
	}
	for i, f := range got.Feeds {
		wf := want.Feeds[i]
		if f.ID != wf.ID || f.NextSeq != wf.NextSeq || !f.Watermark.Equal(wf.Watermark) {
			t.Fatalf("feed cursor %d: %+v vs %+v", i, f, wf)
		}
		if wf.Watermark.IsZero() && !f.Watermark.IsZero() {
			t.Fatalf("feed cursor %d: zero watermark not preserved", i)
		}
	}
	if got.Pipe == nil {
		t.Fatal("pipe state lost")
	}
	if !got.Pipe.Clock.Equal(want.Pipe.Clock) || !got.Pipe.NextTick.Equal(want.Pipe.NextTick) ||
		!got.Pipe.LastSpike.Equal(want.Pipe.LastSpike) {
		t.Fatalf("pipe state: %+v vs %+v", got.Pipe, want.Pipe)
	}
	if !got.Pipe.CurBucket.IsZero() {
		t.Fatalf("zero CurBucket not preserved: %v", got.Pipe.CurBucket)
	}
}

func TestCheckpointRelayFeedsOnly(t *testing.T) {
	// Cursors without pipe state (checkpoint before the pipeline ever
	// saw an event): the flag byte must round-trip Pipe as nil.
	dir := t.TempDir()
	want := testCheckpoint(10)
	want.Feeds = []FeedCursor{{ID: "solo", NextSeq: 7}}
	if _, err := WriteCheckpoint(dir, want); err != nil {
		t.Fatal(err)
	}
	got, err := LoadLatestCheckpoint(dir)
	if err != nil || got == nil {
		t.Fatalf("load: %+v %v", got, err)
	}
	if got.Pipe != nil {
		t.Fatalf("Pipe = %+v, want nil", got.Pipe)
	}
	if len(got.Feeds) != 1 || got.Feeds[0].ID != "solo" || got.Feeds[0].NextSeq != 7 {
		t.Fatalf("feeds: %+v", got.Feeds)
	}
}

func TestCheckpointV1FormatUnchanged(t *testing.T) {
	// A checkpoint without relay state must still encode as v1 — a
	// collector's checkpoint files stay readable by older builds, and
	// the magic is the compatibility contract.
	buf, err := encodeCheckpoint(testCheckpoint(42))
	if err != nil {
		t.Fatal(err)
	}
	if string(buf[:len(ckptMagic)]) != ckptMagic {
		t.Fatalf("collector checkpoint got magic %q, want %q", buf[:len(ckptMagic)], ckptMagic)
	}
	buf2, err := encodeCheckpoint(&Checkpoint{NextSeq: 1, Feeds: []FeedCursor{{ID: "f", NextSeq: 1}}})
	if err != nil {
		t.Fatal(err)
	}
	if string(buf2[:len(ckptMagicV2)]) != ckptMagicV2 {
		t.Fatalf("relay checkpoint got magic %q, want %q", buf2[:len(ckptMagicV2)], ckptMagicV2)
	}
}

func TestCheckpointRelayCorruptSectionRejected(t *testing.T) {
	// Damage confined to the relay section must fail decode (CRC or
	// bounds), never return a half-parsed checkpoint.
	c := testCheckpoint(10)
	c.Feeds = []FeedCursor{{ID: "feed-00", NextSeq: 5}}
	buf, err := encodeCheckpoint(c)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeCheckpoint(buf); err != nil {
		t.Fatalf("clean decode: %v", err)
	}
	for _, tc := range []struct {
		name string
		mut  func(b []byte) []byte
	}{
		{"flipped byte", func(b []byte) []byte { b[len(b)-10] ^= 0xFF; return b }},
		{"truncated", func(b []byte) []byte { return b[:len(b)-8] }},
	} {
		mut := tc.mut(append([]byte(nil), buf...))
		if _, err := decodeCheckpoint(mut); err == nil {
			t.Fatalf("%s: corrupt relay section decoded without error", tc.name)
		}
	}
}

func TestCheckpointNewestValidWins(t *testing.T) {
	dir := t.TempDir()
	for _, seq := range []uint64{100, 200, 300} {
		if _, err := WriteCheckpoint(dir, testCheckpoint(seq)); err != nil {
			t.Fatal(err)
		}
	}
	// Corrupt the newest: the loader must fall back to seq 200.
	names, err := listCheckpoints(dir)
	if err != nil || len(names) != 3 {
		t.Fatalf("checkpoints: %v %v", names, err)
	}
	buf, err := os.ReadFile(names[2])
	if err != nil {
		t.Fatal(err)
	}
	buf[len(buf)/2] ^= 0xFF
	if err := os.WriteFile(names[2], buf, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := LoadLatestCheckpoint(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got == nil || got.NextSeq != 200 {
		t.Fatalf("loaded %+v, want NextSeq 200", got)
	}
}

func TestCheckpointPrune(t *testing.T) {
	dir := t.TempDir()
	for _, seq := range []uint64{1, 2, 3, 4, 5} {
		if _, err := WriteCheckpoint(dir, testCheckpoint(seq)); err != nil {
			t.Fatal(err)
		}
	}
	removed, err := PruneCheckpoints(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	if removed != 3 {
		t.Fatalf("pruned %d, want 3", removed)
	}
	names, _ := listCheckpoints(dir)
	if len(names) != 2 {
		t.Fatalf("%d checkpoints left, want 2", len(names))
	}
	got, err := LoadLatestCheckpoint(dir)
	if err != nil || got == nil || got.NextSeq != 5 {
		t.Fatalf("newest survivor: %+v err %v", got, err)
	}
}

func TestCheckpointSeedEvents(t *testing.T) {
	c := testCheckpoint(10)
	seeds := c.SeedEvents()
	if len(seeds) != c.RouteCount() {
		t.Fatalf("%d seeds for %d routes", len(seeds), c.RouteCount())
	}
	for i, s := range seeds {
		if s.Type != event.Announce {
			t.Fatalf("seed %d is not an announce", i)
		}
		if i > 0 && s.Time.Before(seeds[i-1].Time) {
			t.Fatalf("seeds not time-ordered at %d", i)
		}
	}
}

func TestRecoverEmptyDirectory(t *testing.T) {
	st, err := recoverLatest(t.TempDir(), func(seq uint64, e *event.Event) error {
		t.Fatal("callback on empty directory")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Checkpoint != nil || st.Replayed != 0 || st.EndSeq != 0 {
		t.Fatalf("empty-dir recovery: %+v", st)
	}
}

func TestRecoverCheckpointWithNoTail(t *testing.T) {
	// A checkpoint covering the whole journal: nothing to replay beyond
	// it, and EndSeq holds at the checkpoint so sequence numbering
	// never regresses.
	dir := t.TempDir()
	w, err := Open(dir, Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 0, 10)
	w.Close()
	ck := testCheckpoint(10)
	ck.ReplayLow = 10
	if _, err := WriteCheckpoint(dir, ck); err != nil {
		t.Fatal(err)
	}
	st, err := recoverLatest(dir, func(seq uint64, e *event.Event) error { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if st.Checkpoint == nil || st.Replayed != 0 || st.EndSeq != 10 {
		t.Fatalf("no-tail recovery: replayed=%d end=%d ckpt=%v", st.Replayed, st.EndSeq, st.Checkpoint != nil)
	}
}

func TestRecoverReplaysTail(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 0, 30)
	w.Close()
	ck := testCheckpoint(20)
	ck.ReplayLow = 15
	if _, err := WriteCheckpoint(dir, ck); err != nil {
		t.Fatal(err)
	}
	var seqs []uint64
	st, err := recoverLatest(dir, func(seq uint64, e *event.Event) error {
		seqs = append(seqs, seq)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.ReplayFrom != 15 || st.Replayed != 15 || st.EndSeq != 30 {
		t.Fatalf("tail recovery: from=%d replayed=%d end=%d", st.ReplayFrom, st.Replayed, st.EndSeq)
	}
	for i, s := range seqs {
		if s != uint64(15+i) {
			t.Fatalf("replay out of order at %d: %d", i, s)
		}
	}
}

func TestRecoverSurvivesTornAndCorruptTail(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(dir, Options{Fsync: FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 0, 20)
	w.Close()
	// Corrupt record 10's CRC and tear the tail mid-record 19.
	seg := lastSegment(t, dir)
	if err := os.Truncate(seg.path, seg.size-2); err != nil {
		t.Fatal(err)
	}
	// Find record 10's offset by re-walking the framing.
	f, err := os.OpenFile(seg.path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	off := int64(segHeaderLen)
	for i := 0; i < 10; i++ {
		var hdr [recHeaderLen]byte
		if _, err := f.ReadAt(hdr[:], off); err != nil {
			t.Fatal(err)
		}
		off += int64(recHeaderLen) + int64(uint32(hdr[0])<<24|uint32(hdr[1])<<16|uint32(hdr[2])<<8|uint32(hdr[3]))
	}
	b := []byte{0}
	if _, err := f.ReadAt(b, off+recHeaderLen); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xFF
	if _, err := f.WriteAt(b, off+recHeaderLen); err != nil {
		t.Fatal(err)
	}
	f.Close()

	var got int
	st, err := recoverLatest(dir, func(seq uint64, e *event.Event) error {
		got++
		return nil
	})
	if err != nil {
		t.Fatalf("recovery aborted on damage: %v", err)
	}
	// 20 appended, minus the torn record 19 (framing loss) and the
	// corrupt record 10 (CRC skip).
	if got != 18 || st.Replayed != 18 {
		t.Fatalf("replayed %d records, want 18 (stats %+v)", got, st.Stats)
	}
	if st.Stats.Skipped != 1 {
		t.Fatalf("skipped %d, want 1", st.Stats.Skipped)
	}
}
