package stemming

import (
	"strings"
	"testing"
)

// TestInternIdxBoundary pins the intern-table bound: the last index that
// fits in the 30-bit field is handed out, the first that would bleed
// into the kind bits panics with context instead of silently corrupting
// packed IDs (the pre-fix behaviour). The sub-sequence table shares the
// bound: its dense IDs index a count table and are never recycled.
func TestInternIdxBoundary(t *testing.T) {
	for _, what := range []string{"peer", "sub-sequence"} {
		t.Run(what, func(t *testing.T) {
			if got := internIdx(maxInternEntries-1, what); got != maxInternEntries-1 {
				t.Fatalf("internIdx at boundary = %d, want %d", got, maxInternEntries-1)
			}
			defer func() {
				r := recover()
				if r == nil {
					t.Fatal("internIdx past 2^30 entries did not panic")
				}
				msg, ok := r.(string)
				if !ok || !strings.Contains(msg, what+" intern table full") {
					t.Fatalf("panic without context: %v", r)
				}
			}()
			internIdx(maxInternEntries, what)
		})
	}
}

// TestPackIDBoundaryRoundTrip: at the largest legal index every kind
// still round-trips through the packed representation — i.e. the bound
// in internIdx is exactly where corruption would begin, not earlier.
func TestPackIDBoundaryRoundTrip(t *testing.T) {
	for _, k := range []Kind{KindPeer, KindNexthop, KindAS, KindPrefix} {
		id := packID(k, idxMask)
		gotKind, gotIdx := unpackID(id)
		if gotKind != k || gotIdx != idxMask {
			t.Errorf("packID(%v, %#x) round-trips to (%v, %#x)", k, idxMask, gotKind, gotIdx)
		}
		// One past the bound no longer round-trips (the index bit lands
		// in the kind field) — the failure mode the internIdx guard
		// exists to prevent.
		if gotKind, gotIdx := unpackID(packID(k, idxMask+1)); gotKind == k && gotIdx == idxMask+1 {
			t.Errorf("expected corruption past the bound for %v, got clean round-trip", k)
		}
	}
}
