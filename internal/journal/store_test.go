package journal

import (
	"math"
	"testing"
	"time"

	"rex/internal/event"
)

// recoverLatest is Recover behind the newest checkpoint in dir.
func recoverLatest(dir string, fn func(seq uint64, e *event.Event) error) (*RecoveredState, error) {
	ckpt, err := LoadLatestCheckpoint(dir)
	if err != nil {
		return nil, err
	}
	return Recover(dir, ckpt, fn)
}

// openTestStore opens dir and records what recovery handed back.
func openTestStore(t *testing.T, dir string, opts StoreOptions) (s *Store, ckpt *Checkpoint, replayed []uint64, rec *RecoveredState) {
	t.Helper()
	opts.Fsync = FsyncNever
	s, rec, err := OpenStore(dir, opts,
		func(c *Checkpoint) { ckpt = c },
		func(seq uint64, _ *event.Event) { replayed = append(replayed, seq) })
	if err != nil {
		t.Fatal(err)
	}
	return s, ckpt, replayed, rec
}

func storeAppend(t *testing.T, s *Store, start, n int) {
	t.Helper()
	for i := start; i < start+n; i++ {
		e := genEvent(i)
		if seq, err := s.Append(&e); err != nil || seq != uint64(i) {
			t.Fatalf("append %d: seq %d, %v", i, seq, err)
		}
	}
}

// checkpointAt checkpoints s with the store's own event-time clock.
func checkpointAt(t *testing.T, s *Store, trimCap uint64) {
	t.Helper()
	if err := s.Checkpoint(func(*Checkpoint) (time.Time, error) { return s.MaxTime(), nil }, trimCap); err != nil {
		t.Fatal(err)
	}
}

func TestStoreReopenReplaysFromReplayLow(t *testing.T) {
	dir := t.TempDir()
	// genEvent spaces events 250 ms apart: a 60 s window holds 240.
	opts := StoreOptions{Window: time.Minute}
	s, ckpt, replayed, _ := openTestStore(t, dir, opts)
	if ckpt != nil || len(replayed) != 0 {
		t.Fatalf("cold start restored %v and replayed %d records", ckpt, len(replayed))
	}
	storeAppend(t, s, 0, 1000)
	checkpointAt(t, s, math.MaxUint64)
	storeAppend(t, s, 1000, 100)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s, ckpt, replayed, rec := openTestStore(t, dir, opts)
	defer s.Close()
	if ckpt == nil || ckpt.NextSeq != 1000 {
		t.Fatalf("restored checkpoint %+v, want NextSeq 1000", ckpt)
	}
	want := genEvent(999).Time.Add(-time.Minute)
	if !ckpt.WindowStart.Equal(want) {
		t.Fatalf("window start %v, want %v", ckpt.WindowStart, want)
	}
	// The floor is at most one index stride below the window's oldest
	// event, and never above it.
	oldest := uint64(1000 - 240)
	if ckpt.ReplayLow > oldest || ckpt.ReplayLow+timeIndexStride < oldest {
		t.Fatalf("replay floor %d, want within %d below %d", ckpt.ReplayLow, timeIndexStride, oldest)
	}
	if len(replayed) == 0 || replayed[0] != ckpt.ReplayLow || uint64(len(replayed)) != 1100-ckpt.ReplayLow {
		t.Fatalf("replayed %d records from %v, want [%d, 1100)", len(replayed), replayed[:1], ckpt.ReplayLow)
	}
	if rec.EndSeq < ckpt.NextSeq || s.NextSeq() != 1100 {
		t.Fatalf("end seq %d, writer at %d; want ≥ %d and 1100", rec.EndSeq, s.NextSeq(), ckpt.NextSeq)
	}
	if !s.MaxTime().Equal(genEvent(1099).Time) {
		t.Fatalf("replay left the clock at %v, want %v", s.MaxTime(), genEvent(1099).Time)
	}
}

func TestStoreDropOrphans(t *testing.T) {
	dir := t.TempDir()
	s, _, _, _ := openTestStore(t, dir, StoreOptions{Window: time.Minute})
	storeAppend(t, s, 0, 100)
	checkpointAt(t, s, math.MaxUint64)
	storeAppend(t, s, 100, 50)
	s.Close()

	// A collector's tail is authoritative: it replays and keeps its
	// sequence numbers.
	s, _, replayed, _ := openTestStore(t, dir, StoreOptions{Window: time.Minute})
	if s.NextSeq() != 150 || replayed[len(replayed)-1] != 149 {
		t.Fatalf("kept tail: writer at %d, last replayed %d; want 150, 149", s.NextSeq(), replayed[len(replayed)-1])
	}
	s.Close()

	s, _, replayed, rec := openTestStore(t, dir, StoreOptions{Window: time.Minute, DropOrphans: true})
	defer s.Close()
	if rec.Truncated != 50 || s.NextSeq() != 100 {
		t.Fatalf("dropped %d orphans, writer at %d; want 50 and 100", rec.Truncated, s.NextSeq())
	}
	if last := replayed[len(replayed)-1]; last != 99 {
		t.Fatalf("replayed up to %d, past the checkpoint's NextSeq 100", last)
	}
}

func TestStoreTrimStopsAtCap(t *testing.T) {
	dir := t.TempDir()
	// A one-second window puts the replay floor near the head.
	s, _, _, _ := openTestStore(t, dir, StoreOptions{Window: time.Second})
	// Small segments (a few hundred records each) give the trim
	// something to remove.
	if err := s.w.Close(); err != nil {
		t.Fatal(err)
	}
	w, err := Open(dir, Options{Fsync: FsyncNever, SegmentBytes: 20 << 10})
	if err != nil {
		t.Fatal(err)
	}
	s.w = w
	defer s.Close()
	storeAppend(t, s, 0, 1000)

	floor := func() uint64 {
		f, ok, err := Floor(dir)
		if err != nil || !ok {
			t.Fatalf("floor: %d %v %v", f, ok, err)
		}
		return f
	}
	checkpointAt(t, s, 500)
	if f := floor(); f > 500 || f == 0 {
		t.Fatalf("journal floor %d after a trim capped at 500, want (0, 500]", f)
	}
	checkpointAt(t, s, math.MaxUint64)
	if f := floor(); f <= 500 {
		t.Fatalf("journal floor %d after an uncapped trim, want above 500", f)
	}
}

func TestTimeIndexMaxOutOfOrder(t *testing.T) {
	ix := NewTimeIndex(4)
	if !ix.Max().IsZero() {
		t.Fatalf("max %v before any event, want zero", ix.Max())
	}
	t0 := time.Date(2003, 8, 14, 20, 0, 0, 0, time.UTC)
	for i, step := range []struct{ at, max int }{{5, 5}, {2, 5}, {9, 9}, {1, 9}, {9, 9}, {12, 12}} {
		ix.Observe(uint64(i), t0.Add(time.Duration(step.at)*time.Second))
		if want := t0.Add(time.Duration(step.max) * time.Second); !ix.Max().Equal(want) {
			t.Fatalf("after event %d: max %v, want %v", i, ix.Max(), want)
		}
	}
}

// TestStoreConcurrentAppendAndCheckpoint is rexd's shape: the intake's
// drainer appends while the main loop checkpoints. Every checkpoint
// must cover only records that exist, and the reopened store must
// replay an unbroken run up to the last append.
func TestStoreConcurrentAppendAndCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s, _, _, _ := openTestStore(t, dir, StoreOptions{Window: time.Minute})
	const n = 2000
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < n; i++ {
			e := genEvent(i)
			if _, err := s.Append(&e); err != nil {
				t.Errorf("append %d: %v", i, err)
				return
			}
		}
	}()
	for i := 0; i < 2; i++ {
		checkpointAt(t, s, math.MaxUint64)
	}
	<-done
	s.Close()

	s, ckpt, replayed, _ := openTestStore(t, dir, StoreOptions{Window: time.Minute})
	defer s.Close()
	if ckpt == nil || ckpt.NextSeq > n || s.NextSeq() != n {
		t.Fatalf("checkpoint %+v, writer at %d; want NextSeq ≤ %d and writer at %d", ckpt, s.NextSeq(), n, n)
	}
	for i, seq := range replayed {
		if seq != ckpt.ReplayLow+uint64(i) {
			t.Fatalf("replay record %d has seq %d, want %d", i, seq, ckpt.ReplayLow+uint64(i))
		}
	}
}
