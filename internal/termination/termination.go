// Package termination implements distributed-termination detection by weight
// throwing, after Huang's algorithm (the mechanism the paper's prototype uses
// to detect distributed termination of no-sync jobs; §IV footnote 3).
//
// A controlling agent (the Detector) holds a ledger of outstanding weight.
// Every active computation and every in-flight message carries a positive
// weight issued by the controller. Sending a message splits the sender's
// weight; finishing an activity returns its weight to the controller. The
// computation has terminated exactly when all issued weight has been
// returned.
//
// Classic Huang splits a real-valued weight in halves; to stay exact, this
// implementation uses integral weight units and lets a holder whose weight is
// down to one unit borrow more from the controller (increasing the ledger),
// a standard practical refinement that preserves the invariant:
//
//	sum of all held weights + all in-flight weights == ledger outstanding.
package termination

import (
	"errors"
	"sync"
	"time"
)

// ErrOverReturn is reported when more weight is returned than was issued —
// always a bug in the calling protocol.
var ErrOverReturn = errors.New("termination: returned more weight than issued")

// Weight is an integral amount of termination-detection credit.
type Weight uint64

// DefaultIssue is the weight granted per root activity. Large enough that
// borrowing is rare even for deep message cascades.
const DefaultIssue Weight = 1 << 32

// Split divides a held weight into a part to keep and a part to give to an
// outgoing message. give is zero when w is too small to split; the caller
// must then borrow from the Detector.
func (w Weight) Split() (keep, give Weight) {
	if w <= 1 {
		return w, 0
	}
	give = w / 2
	return w - give, give
}

// Detector is the controlling agent of Huang's algorithm.
type Detector struct {
	mu          sync.Mutex
	outstanding uint64
	notify      chan struct{}
	err         error
}

// New creates a Detector with zero outstanding weight. A fresh detector is
// quiescent; issue weight for the initial activities before waiting.
func New() *Detector {
	return &Detector{notify: make(chan struct{})}
}

// Issue grants new weight, increasing the ledger. Used for root activities
// and for borrowing when a holder cannot split.
func (d *Detector) Issue(units Weight) Weight {
	if units == 0 {
		units = 1
	}
	d.mu.Lock()
	d.outstanding += uint64(units)
	d.mu.Unlock()
	return units
}

// Return gives weight back to the controller. When the ledger reaches zero
// all waiters are released.
func (d *Detector) Return(w Weight) error {
	if w == 0 {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if uint64(w) > d.outstanding {
		d.err = ErrOverReturn
		d.outstanding = 0
		d.wake()
		return ErrOverReturn
	}
	d.outstanding -= uint64(w)
	if d.outstanding == 0 {
		d.wake()
	}
	return nil
}

// wake releases waiters; caller holds d.mu.
func (d *Detector) wake() {
	close(d.notify)
	d.notify = make(chan struct{})
}

// SplitOrBorrow splits the held weight for an outgoing message, borrowing
// from the controller when the held weight is too small to split.
func (d *Detector) SplitOrBorrow(held Weight) (keep, give Weight) {
	keep, give = held.Split()
	if give == 0 {
		give = d.Issue(DefaultIssue)
	}
	return keep, give
}

// Outstanding reports the current ledger.
func (d *Detector) Outstanding() uint64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.outstanding
}

// Quiescent reports whether all issued weight has been returned.
func (d *Detector) Quiescent() bool { return d.Outstanding() == 0 }

// Err reports a protocol violation observed so far, if any.
func (d *Detector) Err() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.err
}

// Wait blocks until the ledger reaches zero or the timeout elapses; it
// returns true on quiescence. A timeout <= 0 waits forever.
func (d *Detector) Wait(timeout time.Duration) bool {
	var deadline time.Time
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
	}
	for {
		d.mu.Lock()
		if d.outstanding == 0 {
			d.mu.Unlock()
			return true
		}
		ch := d.notify
		d.mu.Unlock()

		if timeout <= 0 {
			<-ch
			continue
		}
		remain := time.Until(deadline)
		if remain <= 0 {
			return false
		}
		timer := time.NewTimer(remain)
		select {
		case <-ch:
			timer.Stop()
		case <-timer.C:
			return false
		}
	}
}
