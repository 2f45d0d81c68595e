package journal

// The crash harness: the tentpole's proof obligation. A run of the
// analysis engine is crashed — by truncating the journal at arbitrary
// byte offsets (every possible torn-write outcome) and by SIGKILLing a
// real writer process mid-append — and recovery must reproduce the
// uninterrupted run EXACTLY: same route count, same Stemming
// decomposition, same pruned picture. Equality, not approximation: the
// replay path is the same code as the live path, and integer event
// weights make the window's float count tables cancel exactly.

import (
	"math/rand"
	"net/netip"
	"os"
	"os/exec"
	"reflect"
	"strconv"
	"testing"
	"time"

	"rex/internal/core/pipeline"
	"rex/internal/event"
	"rex/internal/rib"
)

const crashStreamLen = 1200

// crashPipelineConfig keeps the engine deterministic: no spike
// snapshots, no ticks, final snapshot only.
func crashPipelineConfig() pipeline.Config {
	return pipeline.Config{
		Window: 90 * time.Second, // events are 250ms apart: window holds 360
		SpikeK: -1,
	}
}

// runEngine feeds seeds then events through a fresh pipeline and
// returns the final snapshot.
func runEngine(seeds []*event.Event, events []event.Event) pipeline.Snapshot {
	p := pipeline.New(crashPipelineConfig())
	var final pipeline.Snapshot
	done := make(chan struct{})
	go func() {
		defer close(done)
		for s := range p.Snapshots() {
			if s.Trigger == pipeline.TriggerFinal {
				final = s
			}
		}
	}()
	for _, e := range seeds {
		p.Seed(*e)
	}
	for _, e := range events {
		p.Ingest(e)
	}
	p.Close()
	<-done
	return final
}

func crashStream() []event.Event {
	out := make([]event.Event, crashStreamLen)
	for i := range out {
		out[i] = genEvent(i)
	}
	return out
}

// assertRunsEqual is the crash-equivalence check: route count and
// Stemming decomposition must match exactly.
func assertRunsEqual(t *testing.T, want, got pipeline.Snapshot, label string) {
	t.Helper()
	if got.Picture.Total != want.Picture.Total {
		t.Errorf("%s: route count %d, uninterrupted run had %d", label, got.Picture.Total, want.Picture.Total)
	}
	if got.Events != want.Events {
		t.Errorf("%s: window holds %d events, uninterrupted run held %d", label, got.Events, want.Events)
	}
	if !reflect.DeepEqual(got.Components, want.Components) {
		t.Errorf("%s: Stemming decomposition diverged\n got: %+v\nwant: %+v", label, got.Components, want.Components)
	}
	if !reflect.DeepEqual(got.Picture, want.Picture) {
		t.Errorf("%s: pruned picture diverged", label)
	}
}

// TestCrashEquivalenceRandomTruncation simulates the crash at the
// journal layer: the full stream is journaled, then the log is cut at
// a random byte offset — mid-record, mid-header, on a boundary — and a
// recovered engine (replay surviving prefix, then feed the rest live)
// must equal the uninterrupted run.
func TestCrashEquivalenceRandomTruncation(t *testing.T) {
	events := crashStream()
	want := runEngine(nil, events)

	rng := rand.New(rand.NewSource(0x5eed))
	for trial := 0; trial < 8; trial++ {
		dir := t.TempDir()
		w, err := Open(dir, Options{Fsync: FsyncNever})
		if err != nil {
			t.Fatal(err)
		}
		for i := range events {
			if _, err := w.Append(&events[i]); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		seg := lastSegment(t, dir)
		cut := int64(segHeaderLen) + rng.Int63n(seg.size-int64(segHeaderLen)+1)
		if err := os.Truncate(seg.path, cut); err != nil {
			t.Fatal(err)
		}

		p := pipeline.New(crashPipelineConfig())
		var final pipeline.Snapshot
		done := make(chan struct{})
		go func() {
			defer close(done)
			for s := range p.Snapshots() {
				if s.Trigger == pipeline.TriggerFinal {
					final = s
				}
			}
		}()
		st, err := recoverLatest(dir, func(seq uint64, e *event.Event) error {
			p.Ingest(*e)
			return nil
		})
		if err != nil {
			t.Fatalf("trial %d: recovery failed: %v", trial, err)
		}
		if st.EndSeq > uint64(len(events)) {
			t.Fatalf("trial %d: recovered %d events from a %d-event run", trial, st.EndSeq, len(events))
		}
		// The events the crash destroyed arrive again live, exactly as
		// the collector re-receives what the dead process never logged.
		for i := st.EndSeq; i < uint64(len(events)); i++ {
			p.Ingest(events[i])
		}
		p.Close()
		<-done
		assertRunsEqual(t, want, final, "truncation at "+strconv.FormatInt(cut, 10))
	}
}

// shadowTables replays events[0:n] into per-peer route tables with the
// collector's semantics — the state a checkpoint would capture at
// sequence n.
func shadowTables(events []event.Event, n int) []PeerTable {
	adjs := map[netip.Addr]*rib.AdjRibIn{}
	for _, e := range events[:n] {
		adj := adjs[e.Peer]
		if adj == nil {
			adj = rib.NewAdjRibIn(e.Peer)
			adjs[e.Peer] = adj
		}
		switch e.Type {
		case event.Announce:
			adj.Update(e.Prefix, e.Attrs, false, e.Peer, e.Time)
		case event.Withdraw:
			adj.Withdraw(e.Prefix)
		}
	}
	var out []PeerTable
	for peer, adj := range adjs {
		out = append(out, PeerTable{Peer: peer, Routes: adj.Routes()})
	}
	return out
}

// TestCrashEquivalenceWithCheckpoint adds the checkpoint to the crash:
// state is checkpointed partway through the stream, the journal is cut
// at a random offset at or past the checkpoint, and recovery — seed
// tables from the checkpoint, replay the tail from ReplayLow, feed the
// destroyed remainder live — must still equal the uninterrupted run.
func TestCrashEquivalenceWithCheckpoint(t *testing.T) {
	events := crashStream()
	want := runEngine(nil, events)

	rng := rand.New(rand.NewSource(0xc4a5))
	for trial := 0; trial < 6; trial++ {
		dir := t.TempDir()
		w, err := Open(dir, Options{Fsync: FsyncNever})
		if err != nil {
			t.Fatal(err)
		}
		ix := NewTimeIndex(16)
		ckptAt := 600 + rng.Intn(300)
		var ckptOffset int64
		for i := range events {
			if i == ckptAt {
				ckptOffset = w.segSize
				ck := &Checkpoint{
					NextSeq:     w.NextSeq(),
					ReplayLow:   ix.LowWater(events[i-1].Time.Add(-crashPipelineConfig().Window)),
					WindowStart: events[i-1].Time.Add(-crashPipelineConfig().Window),
					TakenAt:     events[i-1].Time,
					Peers:       shadowTables(events, i),
				}
				if _, err := WriteCheckpoint(dir, ck); err != nil {
					t.Fatal(err)
				}
			}
			seq, err := w.Append(&events[i])
			if err != nil {
				t.Fatal(err)
			}
			ix.Observe(seq, events[i].Time)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		// Cut at or past the checkpoint's position: a checkpoint is only
		// written over a synced journal, so the log can never be torn
		// below state that was checkpointed.
		seg := lastSegment(t, dir)
		cut := ckptOffset + rng.Int63n(seg.size-ckptOffset+1)
		if err := os.Truncate(seg.path, cut); err != nil {
			t.Fatal(err)
		}

		// First pass: discover what survived (checkpoint + tail bounds)
		// without applying anything yet.
		st, err := recoverLatest(dir, func(seq uint64, e *event.Event) error { return nil })
		if err != nil {
			t.Fatalf("trial %d: recovery failed: %v", trial, err)
		}
		if st.Checkpoint == nil {
			t.Fatalf("trial %d: checkpoint not recovered", trial)
		}

		// The recovered engine: seed tables from the checkpoint, replay
		// the journal tail, then feed what the crash destroyed live.
		p2 := pipeline.New(crashPipelineConfig())
		var final2 pipeline.Snapshot
		done2 := make(chan struct{})
		go func() {
			defer close(done2)
			for s := range p2.Snapshots() {
				if s.Trigger == pipeline.TriggerFinal {
					final2 = s
				}
			}
		}()
		for _, e := range st.Checkpoint.SeedEvents() {
			p2.Seed(*e)
		}
		if _, err := Scan(dir, st.Checkpoint.ReplayLow, func(seq uint64, e *event.Event) error {
			p2.Ingest(*e)
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		for i := st.EndSeq; i < uint64(len(events)); i++ {
			p2.Ingest(events[i])
		}
		p2.Close()
		<-done2
		assertRunsEqual(t, want, final2, "checkpointed crash trial "+strconv.Itoa(trial))
	}
}

// TestCrashChild is the SIGKILL harness's subprocess body: it journals
// the shared stream with per-append fsync until the parent kills it.
// Guarded by environment so a normal `go test` run skips it instantly.
func TestCrashChild(t *testing.T) {
	dir := os.Getenv("REX_CRASH_DIR")
	if os.Getenv("REX_CRASH_CHILD") != "1" || dir == "" {
		t.Skip("crash harness subprocess body")
	}
	w, err := Open(dir, Options{Fsync: FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	events := crashStream()
	for i := int(w.NextSeq()); i < len(events); i++ {
		if _, err := w.Append(&events[i]); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
}

// TestCrashEquivalenceSIGKILL crashes a real process: a child writes
// the stream to a journal with fsync=always and is SIGKILLed at a
// random moment mid-run. The parent recovers the journal the kernel
// left behind — torn tail and all — replays it, feeds the remainder,
// and must match the uninterrupted run exactly.
func TestCrashEquivalenceSIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocesses")
	}
	events := crashStream()
	want := runEngine(nil, events)
	rng := rand.New(rand.NewSource(0xdead))

	for trial := 0; trial < 3; trial++ {
		dir := t.TempDir()
		cmd := exec.Command(os.Args[0], "-test.run=TestCrashChild$")
		cmd.Env = append(os.Environ(), "REX_CRASH_CHILD=1", "REX_CRASH_DIR="+dir)
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		// Let it journal for a while, then pull the plug. fsync=always
		// paces the child, so even a few ms leaves a partial log.
		time.Sleep(time.Duration(5+rng.Intn(60)) * time.Millisecond)
		cmd.Process.Kill()
		cmd.Wait()

		p := pipeline.New(crashPipelineConfig())
		var final pipeline.Snapshot
		done := make(chan struct{})
		go func() {
			defer close(done)
			for s := range p.Snapshots() {
				if s.Trigger == pipeline.TriggerFinal {
					final = s
				}
			}
		}()
		st, err := recoverLatest(dir, func(seq uint64, e *event.Event) error {
			p.Ingest(*e)
			return nil
		})
		if err != nil {
			t.Fatalf("trial %d: recovery after SIGKILL failed: %v", trial, err)
		}
		if st.EndSeq > uint64(len(events)) {
			t.Fatalf("trial %d: recovered %d events, stream has %d", trial, st.EndSeq, len(events))
		}
		t.Logf("trial %d: child journaled %d/%d events before SIGKILL (skipped %d)",
			trial, st.EndSeq, len(events), st.Stats.Skipped)
		for i := st.EndSeq; i < uint64(len(events)); i++ {
			p.Ingest(events[i])
		}
		p.Close()
		<-done
		assertRunsEqual(t, want, final, "SIGKILL trial "+strconv.Itoa(trial))
	}
}
