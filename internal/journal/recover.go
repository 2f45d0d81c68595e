package journal

import (
	"rex/internal/event"
)

// RecoveredState summarizes what Recover found on disk.
type RecoveredState struct {
	// Checkpoint is the checkpoint replay started from, or nil on a
	// cold start (everything rebuilds from the journal alone).
	Checkpoint *Checkpoint
	// Truncated counts orphan records OpenStore discarded above the
	// checkpoint (StoreOptions.DropOrphans).
	Truncated uint64
	// ReplayFrom is the sequence replay started at: the checkpoint's
	// ReplayLow, or zero without a checkpoint.
	ReplayFrom uint64
	// Replayed is how many intact records were delivered.
	Replayed uint64
	// EndSeq is one past the last intact record seen (>= ReplayFrom);
	// with a checkpoint it is at least Checkpoint.NextSeq, so the
	// resumed writer never reuses a sequence the checkpoint covers.
	EndSeq uint64
	// Stats carries the scan's damage accounting.
	Stats ScanStats
}

// Recover replays the journal tail behind ckpt, the checkpoint the
// caller already loaded and seeded its state from (nil on a cold
// start): every intact record from the checkpoint's replay floor goes
// through fn, in sequence order. Damage — torn tails, CRC-bad records,
// broken framing — is skipped and counted in Stats, matching the
// journal's never-abort policy.
func Recover(dir string, ckpt *Checkpoint, fn func(seq uint64, e *event.Event) error) (*RecoveredState, error) {
	st := &RecoveredState{Checkpoint: ckpt}
	if ckpt != nil {
		st.ReplayFrom = ckpt.ReplayLow
		st.EndSeq = ckpt.NextSeq
	}
	stats, err := Scan(dir, st.ReplayFrom, func(seq uint64, e *event.Event) error {
		if seq+1 > st.EndSeq {
			st.EndSeq = seq + 1
		}
		st.Replayed++
		mReplayedRecords.Inc()
		return fn(seq, e)
	})
	st.Stats = stats
	if err != nil {
		return st, err
	}
	return st, nil
}
