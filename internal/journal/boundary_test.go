package journal

import (
	"testing"
	"time"

	"rex/internal/event"
)

// Recovery replay floors that land exactly on a segment boundary are
// the off-by-one minefield: the segment below the floor must be skipped
// whole, the segment at the floor must be read from its very first
// record, and a floor equal to NextSeq (nothing to replay) must recover
// cleanly. These tests pin each edge with exact sequence accounting.

// boundaryJournal builds a journal with several sealed segments and
// returns the writer plus the segment list (small SegmentBytes forces
// known split points).
func boundaryJournal(t *testing.T, dir string, n int) (*Writer, []segmentInfo) {
	t.Helper()
	w, err := Open(dir, Options{SegmentBytes: 128})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 0, n)
	if err := w.Sync(); err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) < 4 {
		t.Fatalf("want >= 4 segments, got %d", len(segs))
	}
	return w, segs
}

// TestScanFromEverySegmentBoundary scans from each segment's exact
// first sequence and asserts the delivered range is [from, n) with no
// stray record below the floor and no gap above it.
func TestScanFromEverySegmentBoundary(t *testing.T) {
	const n = 40
	dir := t.TempDir()
	w, segs := boundaryJournal(t, dir, n)
	defer w.Close()
	for _, seg := range segs {
		from := seg.first
		var got []uint64
		stats, err := Scan(dir, from, func(seq uint64, e *event.Event) error {
			got = append(got, seq)
			return nil
		})
		if err != nil {
			t.Fatalf("scan from %d: %v", from, err)
		}
		if stats.Skipped != 0 || stats.Abandoned != 0 || stats.Trimmed != 0 {
			t.Fatalf("scan from %d reported damage: %+v", from, stats)
		}
		if want := uint64(n) - from; stats.Records != want {
			t.Fatalf("scan from %d: %d records, want %d", from, stats.Records, want)
		}
		for i, seq := range got {
			if seq != from+uint64(i) {
				t.Fatalf("scan from %d: got[%d] = %d", from, i, seq)
			}
		}
	}
}

// TestRecoverFloorOnSegmentBoundary checkpoints with ReplayLow exactly
// at a segment's first sequence, trims retention to the floor, and
// recovers: replay must start at precisely the floor.
func TestRecoverFloorOnSegmentBoundary(t *testing.T) {
	const n = 40
	dir := t.TempDir()
	w, segs := boundaryJournal(t, dir, n)
	defer w.Close()
	floor := segs[2].first
	if _, err := WriteCheckpoint(dir, &Checkpoint{
		NextSeq:   uint64(n),
		ReplayLow: floor,
		TakenAt:   time.Unix(0, 0).UTC(),
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := w.TrimTo(floor); err != nil {
		t.Fatal(err)
	}
	var got []uint64
	st, err := recoverLatest(dir, func(seq uint64, e *event.Event) error {
		got = append(got, seq)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.ReplayFrom != floor {
		t.Errorf("ReplayFrom = %d, want %d", st.ReplayFrom, floor)
	}
	if st.Replayed != uint64(n)-floor {
		t.Errorf("Replayed = %d, want %d", st.Replayed, uint64(n)-floor)
	}
	if st.EndSeq != uint64(n) {
		t.Errorf("EndSeq = %d, want %d", st.EndSeq, n)
	}
	if len(got) == 0 || got[0] != floor || got[len(got)-1] != uint64(n)-1 {
		t.Errorf("replayed range [%d..%d], want [%d..%d]", got[0], got[len(got)-1], floor, n-1)
	}
	if st.Stats.Skipped != 0 || st.Stats.Abandoned != 0 {
		t.Errorf("recovery reported damage: %+v", st.Stats)
	}
}

// TestRecoverFloorAtNextSeq is the empty-tail edge: the checkpoint
// covers everything (ReplayLow == NextSeq == end of log), so recovery
// replays nothing and the resumed writer continues from NextSeq.
func TestRecoverFloorAtNextSeq(t *testing.T) {
	const n = 40
	dir := t.TempDir()
	w, _ := boundaryJournal(t, dir, n)
	if _, err := WriteCheckpoint(dir, &Checkpoint{
		NextSeq:   uint64(n),
		ReplayLow: uint64(n),
		TakenAt:   time.Unix(0, 0).UTC(),
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := w.TrimTo(uint64(n)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := recoverLatest(dir, func(seq uint64, e *event.Event) error {
		t.Fatalf("unexpected replay of seq %d", seq)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Replayed != 0 || st.ReplayFrom != uint64(n) || st.EndSeq != uint64(n) {
		t.Errorf("empty-tail recovery: %+v", st)
	}
	// The reopened writer resumes numbering exactly at the boundary.
	w2, err := Open(dir, Options{SegmentBytes: 128, StartSeq: st.EndSeq})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if w2.NextSeq() != uint64(n) {
		t.Errorf("reopened NextSeq = %d, want %d", w2.NextSeq(), n)
	}
	appendN(t, w2, n, 5)
	got, stats := collect(t, dir, uint64(n))
	if len(got) != 5 || stats.Records != 5 {
		t.Errorf("post-boundary appends: %d records, stats %+v", len(got), stats)
	}
}

// TestRecoverFloorJustInsideSegment shifts the floor one record past a
// boundary (floor = first+1): the boundary record itself must NOT be
// replayed, its successors must.
func TestRecoverFloorJustInsideSegment(t *testing.T) {
	const n = 40
	dir := t.TempDir()
	w, segs := boundaryJournal(t, dir, n)
	defer w.Close()
	floor := segs[2].first + 1
	var got []uint64
	stats, err := Scan(dir, floor, func(seq uint64, e *event.Event) error {
		got = append(got, seq)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := uint64(n) - floor; stats.Records != want {
		t.Errorf("%d records, want %d", stats.Records, want)
	}
	if len(got) == 0 || got[0] != floor {
		t.Errorf("first replayed = %v, want %d", got, floor)
	}
}
