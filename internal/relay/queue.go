package relay

import "rex/internal/event"

// queuedEvent is one buffered event with the feed-local sequence it
// arrived under, kept so the release path can attribute every released
// event back to its feed cursor (the durable-checkpoint cursor is the
// sequence after the last *released* event, not the last received one).
// A feed buffers them in a fifo.Queue, which zeroes released slots so
// the buffer never pins event attributes past release.
type queuedEvent struct {
	seq uint64
	e   event.Event
}
