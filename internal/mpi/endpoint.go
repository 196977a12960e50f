package mpi

import (
	"sync"
)

// endpoint is one rank's receive side: an unexpected-message queue plus the
// blocking matched-receive machinery. The in-process and TCP transports
// deliver into an endpoint via deliver, so receive semantics are identical
// across transports.
type endpoint struct {
	mu     sync.Mutex
	cond   *sync.Cond
	queue  []Message // arrival order preserved; scanned for envelope match
	closed bool
	nwait  int // receivers blocked in cond.Wait; broadcasts skip when zero
}

func newEndpoint() *endpoint {
	ep := &endpoint{}
	ep.cond = sync.NewCond(&ep.mu)
	return ep
}

// deliver appends an arrived message and wakes matchers.
func (ep *endpoint) deliver(m Message) error {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if ep.closed {
		return ErrWorldClosed
	}
	ep.queue = append(ep.queue, m)
	ep.wakeLocked()
	return nil
}

// wakeLocked broadcasts to blocked receivers, skipping the (cheap but not
// free) notify when nobody waits — the common case when a sender runs
// ahead of its receiver.
func (ep *endpoint) wakeLocked() {
	if ep.nwait > 0 {
		ep.cond.Broadcast()
	}
}

// waitLocked blocks on the cond, keeping the waiter count that wakeLocked
// consults.
func (ep *endpoint) waitLocked() {
	ep.nwait++
	ep.cond.Wait()
	ep.nwait--
}

// matches reports whether message m satisfies the (comm, source, tag)
// envelope. source is a world rank or AnySource; comm never has a wildcard.
func matches(m Message, comm, source, tag int) bool {
	if m.Comm != comm {
		return false
	}
	if source != AnySource && m.Source != source {
		return false
	}
	if tag != AnyTag && m.Tag != tag {
		return false
	}
	return true
}

// findLocked returns the index of the earliest queued match, or -1.
// Scanning in arrival order preserves non-overtaking for matching envelopes.
func (ep *endpoint) findLocked(comm, source, tag int) int {
	for i, m := range ep.queue {
		if matches(m, comm, source, tag) {
			return i
		}
	}
	return -1
}

// removeLocked removes and returns queue[i].
func (ep *endpoint) removeLocked(i int) Message {
	m := ep.queue[i]
	copy(ep.queue[i:], ep.queue[i+1:])
	ep.queue[len(ep.queue)-1] = Message{} // drop payload reference
	ep.queue = ep.queue[:len(ep.queue)-1]
	return m
}

// recv blocks until a message matching (source, tag) arrives and returns it.
func (ep *endpoint) recv(comm, source, tag int) (Message, error) {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	for {
		if i := ep.findLocked(comm, source, tag); i >= 0 {
			return ep.removeLocked(i), nil
		}
		if ep.closed {
			return Message{}, ErrWorldClosed
		}
		ep.waitLocked()
	}
}

// tryRecv returns a matching message if one is queued, without blocking.
func (ep *endpoint) tryRecv(comm, source, tag int) (Message, bool, error) {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if i := ep.findLocked(comm, source, tag); i >= 0 {
		return ep.removeLocked(i), true, nil
	}
	if ep.closed {
		return Message{}, false, ErrWorldClosed
	}
	return Message{}, false, nil
}

// probe blocks until a matching message is queued and returns its status
// without consuming it.
func (ep *endpoint) probe(comm, source, tag int) (Status, error) {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	for {
		if i := ep.findLocked(comm, source, tag); i >= 0 {
			m := ep.queue[i]
			return Status{Source: m.Source, Tag: m.Tag, Size: len(m.Data)}, nil
		}
		if ep.closed {
			return Status{}, ErrWorldClosed
		}
		ep.waitLocked()
	}
}

// iprobe is the non-blocking probe.
func (ep *endpoint) iprobe(comm, source, tag int) (Status, bool, error) {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	if i := ep.findLocked(comm, source, tag); i >= 0 {
		m := ep.queue[i]
		return Status{Source: m.Source, Tag: m.Tag, Size: len(m.Data)}, true, nil
	}
	if ep.closed {
		return Status{}, false, ErrWorldClosed
	}
	return Status{}, false, nil
}

// close marks the endpoint dead and wakes all blocked receivers.
func (ep *endpoint) close() {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	ep.closed = true
	ep.cond.Broadcast()
}

// pendingCount returns the number of undelivered messages (for tests).
func (ep *endpoint) pendingCount() int {
	ep.mu.Lock()
	defer ep.mu.Unlock()
	return len(ep.queue)
}
