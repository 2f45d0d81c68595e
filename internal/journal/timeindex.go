package journal

import (
	"sync"
	"time"
)

// TimeIndex maps event time to journal sequence so a checkpoint can
// record how far back replay must reach to rebuild the pipeline's
// sliding window. It samples (sequence, running-max time) pairs: BGP
// event timestamps are not guaranteed monotone (augmented withdrawals
// inherit clock reads racing real updates), so each sample carries the
// maximum time seen up to that sequence. That gives the invariant
// LowWater depends on: if a sample's running max is at or below the
// cutoff, every event at or below its sequence is too, and every event
// strictly newer than the cutoff has a higher sequence.
type TimeIndex struct {
	mu      sync.Mutex
	every   uint64
	n       uint64
	max     time.Time
	samples []timeSample // ascending seq, ascending (non-strict) max
	low     uint64       // floor returned when nothing qualifies
	haveLow bool
	high    uint64 // highest observed sequence (HighWater's ceiling)
}

type timeSample struct {
	seq uint64
	max time.Time
}

// maxTimeSamples bounds memory; on overflow every other sample is
// dropped and the sampling stride doubles, preserving coverage of the
// whole retained range at half the resolution.
const maxTimeSamples = 4096

// NewTimeIndex samples roughly one pair per every events (default 64).
func NewTimeIndex(every uint64) *TimeIndex {
	if every == 0 {
		every = 64
	}
	return &TimeIndex{every: every}
}

// Observe records that the event at seq has time t. Sequences must be
// presented in ascending order.
func (ix *TimeIndex) Observe(seq uint64, t time.Time) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	if !ix.haveLow {
		ix.low, ix.haveLow = seq, true
	}
	ix.high = seq
	if t.After(ix.max) {
		ix.max = t
	}
	ix.n++
	if ix.n%ix.every != 0 {
		return
	}
	ix.samples = append(ix.samples, timeSample{seq: seq, max: ix.max})
	if len(ix.samples) > maxTimeSamples {
		kept := ix.samples[:0]
		for i := 1; i < len(ix.samples); i += 2 {
			kept = append(kept, ix.samples[i])
		}
		ix.samples = kept
		ix.every *= 2
	}
}

// LowWater returns a sequence from which replay is guaranteed to see
// every observed event with time after cutoff: the largest sampled
// sequence whose running-max time is at or before the cutoff, or the
// lowest observed sequence when no sample qualifies (replay everything).
func (ix *TimeIndex) LowWater(cutoff time.Time) uint64 {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	best := ix.low
	for _, s := range ix.samples {
		if s.max.After(cutoff) {
			break
		}
		best = s.seq
	}
	return best
}

// HighWater is LowWater's upper-bound counterpart: a sequence at which a
// replay reconstructing "state as of cutoff" may stop scanning. At the
// returned sequence the event-time clock (the running max) has already
// passed the cutoff — the first event strictly newer than the cutoff
// lies at or below it — so no record beyond it can matter. It returns
// the smallest sampled sequence whose running-max time is after the
// cutoff, or the highest observed sequence when the clock never passed
// the cutoff (scan to the head). Event times are not monotone, so this
// bounds where the clock crosses the cutoff, not where individual
// event times do.
func (ix *TimeIndex) HighWater(cutoff time.Time) uint64 {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	for _, s := range ix.samples {
		if s.max.After(cutoff) {
			return s.seq
		}
	}
	return ix.high
}

// Max returns the newest event time observed (zero before the first).
func (ix *TimeIndex) Max() time.Time {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return ix.max
}

// Span reports the observed sequence range [low, high] and whether any
// event has been observed at all.
func (ix *TimeIndex) Span() (low, high uint64, ok bool) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	return ix.low, ix.high, ix.haveLow
}
