package stemming

import (
	"testing"
	"time"
)

// TestWindowSteadyStateAllocs pins the allocation diet: once every
// distinct sequence has been interned, the add→evict turnover
// path allocates (amortized) nothing, and a Snapshot allocates only its
// result — never O(window) scratch. The bounds are deliberately tight;
// if a change regresses the hot path back to per-event or per-tick
// churn, this fails long before a benchmark run would notice.
func TestWindowSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc accounting is not worth it in -short")
	}
	events := windyStream(256, 11)
	w := NewWindow(Config{}, 4)
	const window = 128 * time.Second
	i := 0
	add := func() {
		e := events[i%len(events)]
		e.Time = t0.Add(time.Duration(i) * time.Second)
		w.Add(e)
		w.EvictBefore(e.Time.Add(-window))
		i++
	}
	// Warm up: intern every distinct sequence, reach steady turnover,
	// and let the ring and per-prefix lists hit their high-water marks.
	for n := 0; n < 2048; n++ {
		add()
	}
	if avg := testing.AllocsPerRun(2000, add); avg > 0.05 {
		t.Errorf("steady-state add+evict allocates %.3f/op, want ~0", avg)
	}

	w.Snapshot() // warm the reused snapshot scratch
	snapAvg := testing.AllocsPerRun(20, func() { w.Snapshot() })
	t.Logf("steady-state Snapshot: %.1f allocs/op over a %d-event window", snapAvg, w.Len())
	// The result itself (components, their prefix/token slices) is
	// allocated fresh each call; the bound just has to sit far below the
	// O(window·subseqs) rebuild this replaced (tens of thousands here).
	if snapAvg > 500 {
		t.Errorf("steady-state Snapshot allocates %.0f/op, want bounded by its result (<500)", snapAvg)
	}
}
