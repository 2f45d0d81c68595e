package main

import (
	"bytes"
	"math"
	"testing"
	"time"
)

// The generator's contract: the seed is the input. Same seed, the same
// bytes on the wire; another seed, other bytes.
func TestSeedDeterminesWireBytes(t *testing.T) {
	gen := func(seed int64) *input {
		in, err := genInput("berkeley", 4000, 2*time.Second, seed)
		if err != nil {
			t.Fatal(err)
		}
		return in
	}
	a, b, c := gen(7), gen(7), gen(8)
	if !bytes.Equal(a.baseline.buf, b.baseline.buf) || !bytes.Equal(a.events.buf, b.events.buf) || a.sha != b.sha {
		t.Error("the same seed produced different UPDATE streams")
	}
	if bytes.Equal(a.events.buf, c.events.buf) || a.sha == c.sha {
		t.Error("different seeds produced the same UPDATE stream")
	}
	if a.events.n() != 4000 || len(a.evs) != 4000 || len(a.announced) != 4001 {
		t.Errorf("asked for 4000 events, got %d UPDATEs, %d events, %d prefix counts", a.events.n(), len(a.evs), len(a.announced))
	}
}

// spread must agree with Python's statistics.quantiles(xs, n=4), which
// is what the benchmark's bounds are judged with.
func TestSpreadMatchesPythonQuartiles(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5} // quartiles 2.75, 5.5, 8.25
	if got, want := spread(xs), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
}
