package sim

import "fmt"

// Timer is a cancellable, reusable callback armed on one domain. An armed
// timer sits in its shard's timer queue under exactly the key At would
// give the same callback — (cycle, domain, domain, next domain sequence
// number at arm time) — so a timer that fires runs at the same point of
// the canonical order as the equivalent At event. Unlike an At event, a
// stopped timer leaves the queue at once: a deadline that is almost always
// cancelled (a lease released voluntarily, a read reservation renewed)
// costs the queue nothing after Stop.
//
// The callback is bound once, at NewTimer, so re-arming allocates nothing.
// Arm and Stop may only be called from the timer domain's own execution
// context (or while the engine is idle), like Domain.At.
type Timer struct {
	ev event   // key and callback; ev.fn is fixed at NewTimer
	d  *Domain // arming domain while queued: its shard holds the entry
	i  int     // index in the shard's timer queue, -1 when not queued
}

// NewTimer returns an unarmed timer that runs fn when it fires.
func NewTimer(fn func()) *Timer { return &Timer{ev: event{fn: fn}, i: -1} }

// Arm queues t to fire on this domain at absolute time at. Arming an
// already queued timer panics: Stop it first.
func (d *Domain) Arm(t *Timer, at Time) {
	s := d.sh
	if at < s.now {
		panic(fmt.Sprintf("sim: arming timer at %d in the past (now %d)", at, s.now))
	}
	if t.i >= 0 {
		panic("sim: arming a timer that is already armed")
	}
	d.seq++
	t.ev.at, t.ev.seq, t.ev.dom, t.ev.src = at, d.seq, d.id, d.id
	t.d = d
	s.timers.push(t)
}

// Stop removes an armed timer from its queue. It reports whether the
// timer was armed; false means it already fired or was never armed. A
// stopped timer may be armed again.
func (t *Timer) Stop() bool {
	if t.i < 0 {
		return false
	}
	t.d.sh.timers.remove(t.i)
	return true
}

// timerHeap is a binary min-heap of armed timers in canonical event order.
// Each timer records its own index, so Stop removes it in O(log n) instead
// of leaving a dead entry to be popped later.
type timerHeap []*Timer

func (h timerHeap) less(i, j int) bool { return h[i].ev.before(&h[j].ev) }

func (h timerHeap) swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].i, h[j].i = i, j
}

func (h timerHeap) up(i int) {
	for i > 0 {
		p := (i - 1) / 2
		if !h.less(i, p) {
			break
		}
		h.swap(i, p)
		i = p
	}
}

func (h timerHeap) down(i int) {
	n := len(h)
	for {
		c := 2*i + 1
		if c >= n {
			return
		}
		if r := c + 1; r < n && h.less(r, c) {
			c = r
		}
		if !h.less(c, i) {
			return
		}
		h.swap(i, c)
		i = c
	}
}

func (h *timerHeap) push(t *Timer) {
	t.i = len(*h)
	*h = append(*h, t)
	h.up(t.i)
}

// remove unlinks the timer at index i and returns it, marked unqueued.
func (h *timerHeap) remove(i int) *Timer {
	s := *h
	n := len(s) - 1
	t := s[i]
	if i != n {
		s.swap(i, n)
	}
	s[n] = nil
	s = s[:n]
	*h = s
	if i < n {
		s.down(i)
		s.up(i)
	}
	t.i = -1
	return t
}

// pop removes the earliest timer and returns its event.
func (h *timerHeap) pop() event { return h.remove(0).ev }
