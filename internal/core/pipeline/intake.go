package pipeline

import (
	"fmt"
	"sync"
	"time"

	"rex/internal/event"
)

// OverloadPolicy says what an Intake does when it cannot keep up.
type OverloadPolicy uint8

// Overload policies, in increasing order of session safety:
//
//   - OverloadBlock: Offer blocks until the queue drains. Lossless,
//     but the block propagates to the collector's session goroutine —
//     the original Ingest behaviour, kept for offline replay where
//     there is no hold timer to expire.
//   - OverloadShed: Offer never blocks; events arriving at a full
//     queue are dropped and counted. Bounded loss, bounded memory,
//     session never delayed.
const (
	OverloadBlock OverloadPolicy = iota
	OverloadShed
)

// String names the policy the way the -overload flag spells it.
func (p OverloadPolicy) String() string {
	switch p {
	case OverloadBlock:
		return "block"
	case OverloadShed:
		return "shed"
	default:
		return "overload(?)"
	}
}

// ParseOverloadPolicy parses the -overload flag values.
func ParseOverloadPolicy(s string) (OverloadPolicy, error) {
	switch s {
	case "block":
		return OverloadBlock, nil
	case "shed":
		return OverloadShed, nil
	default:
		return 0, fmt.Errorf("overload policy %q: want block or shed", s)
	}
}

// IntakeConfig tunes an Intake.
type IntakeConfig struct {
	// Depth is the bounded queue length (default 4096).
	Depth int
	// Policy is the overload policy (default OverloadBlock).
	Policy OverloadPolicy
	// Journal, when set, is called by the drainer for every dequeued
	// event before the pipeline sees it — the durability hook. Errors
	// are counted, not propagated: a failing disk must not take the
	// collector down with it.
	Journal func(e *event.Event) error
}

// Intake is the bounded hand-off between the collector's session
// goroutines and the journal + analysis pipeline. Offer is the
// collector.Handler; a single drainer goroutine owns the downstream
// calls, so journal appends stay strictly ordered even with many
// concurrent sessions.
type Intake struct {
	cfg  IntakeConfig
	p    *Pipeline
	ch   chan event.Event
	quit chan struct{}
	done chan struct{}
	once sync.Once
}

// NewIntake starts an intake draining into p.
func NewIntake(cfg IntakeConfig, p *Pipeline) *Intake {
	if cfg.Depth <= 0 {
		cfg.Depth = 4096
	}
	in := &Intake{
		cfg:  cfg,
		p:    p,
		ch:   make(chan event.Event, cfg.Depth),
		quit: make(chan struct{}),
		done: make(chan struct{}),
	}
	go in.drain()
	return in
}

// Offer enqueues one event, honouring the overload policy. It is a
// valid collector.Handler.
func (in *Intake) Offer(e event.Event) {
	mIntakeOffered.Inc()
	switch in.cfg.Policy {
	case OverloadBlock:
		select {
		case in.ch <- e:
		case <-in.quit:
		}
	default: // OverloadShed: never block the session
		select {
		case in.ch <- e:
		case <-in.quit:
		default:
			mIntakeShed.Inc()
		}
	}
}

// intakeBatchMax caps how many queued events the block-policy drainer
// coalesces into one pipeline hand-off.
const intakeBatchMax = 256

// drain is the single consumer: journal first (history is complete
// before analysis sees the event), then the pipeline, blocking or not
// per policy. Under the block policy a backlog is coalesced — whatever
// is already queued (up to intakeBatchMax) rides one IngestBatch, so
// shard hand-off amortizes the per-event channel cost exactly when the
// engine is busiest. Shed stays per-event: its value is the per-event
// drop decision, which batching would blur.
func (in *Intake) drain() {
	defer close(in.done)
	for {
		select {
		case e := <-in.ch:
			if in.cfg.Policy == OverloadBlock {
				in.deliverBatch(e)
			} else {
				in.deliver(e)
			}
		case <-in.quit:
			for {
				select {
				case e := <-in.ch:
					if in.cfg.Policy == OverloadBlock {
						in.deliverBatch(e)
					} else {
						in.deliver(e)
					}
				default:
					return
				}
			}
		}
	}
}

// deliverBatch journals first (the event is the unit of durability) and
// hands the pipeline one pooled batch — IngestBatch takes ownership of
// the slice, so the drainer never reuses it; the run loop recycles it
// into batchPool once processed.
func (in *Intake) deliverBatch(first event.Event) {
	batch := getBatch()
	batch = append(batch, first)
collect:
	for len(batch) < intakeBatchMax {
		select {
		case e := <-in.ch:
			batch = append(batch, e)
		default:
			break collect
		}
	}
	if in.cfg.Journal != nil {
		for i := range batch {
			if err := in.cfg.Journal(&batch[i]); err != nil {
				mIntakeJournalErrs.Inc()
			}
		}
	}
	mIntakeBatches.Inc()
	mIntakeBatchEvents.Add(uint64(len(batch)))
	in.p.IngestBatch(batch)
}

// shedPoll is how long the shed-policy drainer sleeps between checks
// while the pipeline buffer is full.
const shedPoll = time.Millisecond

// deliver is the shed policy's per-event hand-off. The shed decision
// comes before the journal: the event is journaled only once the
// pipeline buffer has room for it and is then handed off, so every
// journaled event reaches the pipeline. While the buffer is full the
// drainer waits like Block — the queue, not this hand-off, is where
// shed mode bounds latency — but a closing intake must not stay wedged
// behind a stalled consumer, so it sheds the event unjournaled instead.
// Should another producer (a seed, a control message) take the slot
// between the check and the send, the hand-off waits for the next slot
// rather than drop a journaled event.
func (in *Intake) deliver(e event.Event) {
	for len(in.p.events) == cap(in.p.events) {
		select {
		case <-in.quit:
			mIntakeShed.Inc()
			return
		case <-in.p.quit:
			return
		default:
		}
		time.Sleep(shedPoll)
	}
	if in.cfg.Journal != nil {
		if err := in.cfg.Journal(&e); err != nil {
			mIntakeJournalErrs.Inc()
		}
	}
	select {
	case in.p.events <- msg{e: e}:
	case <-in.p.quit:
	}
}

// Close stops intake, drains what was queued, and waits for the
// drainer to finish delivering it. The pipeline is not closed; that
// stays with the caller, which may still want a final snapshot.
func (in *Intake) Close() {
	in.once.Do(func() { close(in.quit) })
	<-in.done
}
