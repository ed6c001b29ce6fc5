// Package sim implements a deterministic discrete-event simulation
// kernel with goroutine-backed sequential processes.
//
// The engine advances a virtual clock (nanosecond resolution) through a
// priority queue of events. Simulated activities — a VMM restoring a
// snapshot, a function faulting on guest memory, an SSD completing a
// read — are modelled either as plain scheduled callbacks or as
// Processes: goroutines that run one at a time under the engine's
// control and can block on virtual time (Sleep) or on conditions
// (Waiter). Exactly one goroutine (the engine or a single process) is
// runnable at any instant, so simulations are fully deterministic:
// events at equal timestamps fire in scheduling order.
package sim

import (
	"fmt"
	"time"
)

// Time is a point in virtual time, in nanoseconds since simulation start.
type Time int64

// Duration is a span of virtual time in nanoseconds. It converts
// directly from time.Duration.
type Duration = time.Duration

// String formats the time as a duration since simulation start.
func (t Time) String() string { return time.Duration(t).String() }

// Add returns the time d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration from u to t.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

type event struct {
	at  Time
	seq uint64 // tie-breaker: FIFO among equal timestamps
	fn  func()
}

// Engine is a discrete-event simulation engine. The zero value is not
// usable; create engines with NewEngine.
type Engine struct {
	now    Time
	queue  []*event // binary min-heap ordered by (at, seq)
	free   []*event // recycled events, so steady-state dispatch allocates nothing
	batch  []*event // reusable buffer for same-timestamp dispatch
	seq    uint64
	nprocs int // live (not yet finished) processes
	obs    []Observer

	// running is closed-loop control for process handoff: the engine
	// resumes a process by sending on its resume channel and waits on
	// yield until the process blocks or finishes.
	yield chan struct{}
}

// Observer receives engine scheduling events. It exists for the
// correctness harness (internal/check) and the recorder (internal/obs):
// with no subscriber a hook costs one empty loop per schedule/dispatch,
// and observers must not mutate simulation state.
type Observer interface {
	// EventScheduled fires for every Schedule/ScheduleAt call with the
	// clamped target time (always >= Now at call time).
	EventScheduled(at Time)
	// ClockAdvanced fires each time dispatch moves the clock to a new
	// timestamp, before the events at that instant run.
	ClockAdvanced(now Time)
}

// AddObserver subscribes o to engine events after every earlier
// subscriber; a nil o is dropped.
func (e *Engine) AddObserver(o Observer) {
	if o != nil {
		e.obs = append(e.obs, o)
	}
}

// NewEngine returns an engine with the clock at zero.
func NewEngine() *Engine {
	return &Engine{yield: make(chan struct{})}
}

// eventLess orders the heap by timestamp, FIFO among equal timestamps.
func eventLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// push inserts ev into the heap.
func (e *Engine) push(ev *event) {
	q := append(e.queue, ev)
	// Sift up.
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !eventLess(q[i], q[parent]) {
			break
		}
		q[i], q[parent] = q[parent], q[i]
		i = parent
	}
	e.queue = q
}

// pop removes and returns the earliest event. The caller recycles it
// via recycle once the callback has run.
func (e *Engine) pop() *event {
	q := e.queue
	ev := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = nil
	q = q[:n]
	// Sift down.
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && eventLess(q[l], q[smallest]) {
			smallest = l
		}
		if r < n && eventLess(q[r], q[smallest]) {
			smallest = r
		}
		if smallest == i {
			break
		}
		q[i], q[smallest] = q[smallest], q[i]
		i = smallest
	}
	e.queue = q
	return ev
}

// alloc returns a zeroed event, reusing a recycled one when available.
func (e *Engine) alloc() *event {
	if n := len(e.free); n > 0 {
		ev := e.free[n-1]
		e.free[n-1] = nil
		e.free = e.free[:n-1]
		return ev
	}
	return &event{}
}

// maxFree bounds the free list: steady-state simulations interleave
// scheduling and dispatch, so a small pool captures nearly all reuse,
// while a burst of one-shot events (everything scheduled up front)
// must not leave a queue-sized pool behind.
const maxFree = 1024

// recycle returns a dispatched event to the free list.
func (e *Engine) recycle(ev *event) {
	ev.fn = nil
	if len(e.free) < maxFree {
		e.free = append(e.free, ev)
	}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Schedule runs fn at the current time plus delay. A negative delay is
// treated as zero. Scheduling is FIFO among events with equal times.
func (e *Engine) Schedule(delay Duration, fn func()) {
	if delay < 0 {
		delay = 0
	}
	e.seq++
	ev := e.alloc()
	ev.at, ev.seq, ev.fn = e.now.Add(delay), e.seq, fn
	for _, o := range e.obs {
		o.EventScheduled(ev.at)
	}
	e.push(ev)
}

// ScheduleAt runs fn at absolute time at (clamped to now).
func (e *Engine) ScheduleAt(at Time, fn func()) {
	if at < e.now {
		at = e.now
	}
	e.seq++
	ev := e.alloc()
	ev.at, ev.seq, ev.fn = at, e.seq, fn
	for _, o := range e.obs {
		o.EventScheduled(ev.at)
	}
	e.push(ev)
}

// dispatchBatch pops every event carrying the head timestamp and runs
// them in sequence order. Batching advances the clock once per distinct
// timestamp and lets events scheduled *during* the batch (which always
// carry higher sequence numbers) land in the heap without disturbing
// the events already drained for this instant.
func (e *Engine) dispatchBatch() {
	ev := e.pop()
	e.now = ev.at
	for _, o := range e.obs {
		o.ClockAdvanced(e.now)
	}
	if len(e.queue) == 0 || e.queue[0].at != ev.at {
		// Fast path: a lone event at this instant.
		ev.fn()
		e.recycle(ev)
		return
	}
	t := ev.at
	batch := append(e.batch[:0], ev)
	e.batch = nil // reentrant dispatch (an fn draining the engine) gets its own buffer
	for len(e.queue) > 0 && e.queue[0].at == t {
		batch = append(batch, e.pop())
	}
	for i, ev := range batch {
		ev.fn()
		batch[i] = nil
		e.recycle(ev)
	}
	e.batch = batch[:0]
}

// Run processes events until the queue is empty. It returns the final
// virtual time. Run panics if a process is still blocked when the
// queue drains (a deadlock in the simulated system).
func (e *Engine) Run() Time {
	for len(e.queue) > 0 {
		e.dispatchBatch()
	}
	if e.nprocs > 0 {
		panic(fmt.Sprintf("sim: deadlock: %d process(es) blocked with no pending events at t=%v", e.nprocs, e.now))
	}
	return e.now
}

// RunUntil processes events with timestamps <= deadline and then stops,
// setting the clock to deadline. Blocked processes are left blocked.
func (e *Engine) RunUntil(deadline Time) Time {
	for len(e.queue) > 0 && e.queue[0].at <= deadline {
		e.dispatchBatch()
	}
	if e.now < deadline {
		e.now = deadline
	}
	return e.now
}

// Proc is a sequential simulated process backed by a goroutine. All
// Proc methods must be called from the process's own goroutine (inside
// the function passed to Go).
type Proc struct {
	eng    *Engine
	name   string
	resume chan struct{}
	done   bool
}

// Engine returns the engine this process runs on.
func (p *Proc) Engine() *Engine { return p.eng }

// Name returns the process name given to Go.
func (p *Proc) Name() string { return p.name }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.eng.now }

// Go starts fn as a simulated process at the current virtual time.
// The process runs when the engine dispatches its start event.
func (e *Engine) Go(name string, fn func(p *Proc)) *Proc {
	return e.GoAfter(0, name, fn)
}

// GoAfter starts fn as a simulated process after delay.
func (e *Engine) GoAfter(delay Duration, name string, fn func(p *Proc)) *Proc {
	p := &Proc{eng: e, name: name, resume: make(chan struct{})}
	e.nprocs++
	e.Schedule(delay, func() {
		go func() {
			<-p.resume
			fn(p)
			p.done = true
			e.nprocs--
			e.yield <- struct{}{}
		}()
		p.run()
	})
	return p
}

// run hands control to the process goroutine and waits for it to block
// (Sleep/Wait) or finish.
func (p *Proc) run() {
	p.resume <- struct{}{}
	<-p.eng.yield
}

// block suspends the process goroutine and returns control to the
// engine; the process resumes when something sends on p.resume.
func (p *Proc) block() {
	p.eng.yield <- struct{}{}
	<-p.resume
}

// Sleep advances the process by d of virtual time.
func (p *Proc) Sleep(d Duration) {
	if d <= 0 {
		// Even a zero sleep is a scheduling point (FIFO fairness).
		d = 0
	}
	p.eng.Schedule(d, p.run)
	p.block()
}

// Waiter is a single-use completion signal that processes can block on
// and callbacks can fire. Fire may be called before or after Wait;
// multiple processes may wait on the same Waiter.
type Waiter struct {
	eng     *Engine
	fired   bool
	waiters []*Proc
	at      Time // time of Fire, valid once fired
}

// NewWaiter returns an unfired Waiter.
func (e *Engine) NewWaiter() *Waiter { return &Waiter{eng: e} }

// Fired reports whether Fire has been called.
func (w *Waiter) Fired() bool { return w.fired }

// FiredAt returns the virtual time at which the waiter fired.
// It is only meaningful once Fired reports true.
func (w *Waiter) FiredAt() Time { return w.at }

// Fire completes the waiter, waking all current and future waiters.
// Firing twice is a no-op.
func (w *Waiter) Fire() {
	if w.fired {
		return
	}
	w.fired = true
	w.at = w.eng.now
	ws := w.waiters
	w.waiters = nil
	for _, p := range ws {
		proc := p
		w.eng.Schedule(0, proc.run)
	}
}

// Wait blocks the process until the waiter fires. If it already fired,
// Wait returns immediately without yielding.
func (p *Proc) Wait(w *Waiter) {
	if w.fired {
		return
	}
	w.waiters = append(w.waiters, p)
	p.block()
}

// WaitAll blocks until every waiter in ws has fired.
func (p *Proc) WaitAll(ws ...*Waiter) {
	for _, w := range ws {
		p.Wait(w)
	}
}

// Semaphore is a counting semaphore over virtual time, used to model
// bounded resources such as device queue slots.
type Semaphore struct {
	eng   *Engine
	avail int
	queue []*Proc
}

// NewSemaphore returns a semaphore with n initial permits.
func (e *Engine) NewSemaphore(n int) *Semaphore {
	if n < 0 {
		panic("sim: negative semaphore capacity")
	}
	return &Semaphore{eng: e, avail: n}
}

// Acquire takes one permit, blocking the process until one is free.
// Wakeups are FIFO.
func (p *Proc) Acquire(s *Semaphore) {
	if s.avail > 0 {
		s.avail--
		return
	}
	s.queue = append(s.queue, p)
	p.block()
}

// Release returns one permit, waking the oldest blocked process if any.
// It may be called from any context (process or callback).
func (s *Semaphore) Release() {
	if len(s.queue) > 0 {
		p := s.queue[0]
		s.queue = s.queue[1:]
		s.eng.Schedule(0, p.run)
		return
	}
	s.avail++
}

// Available returns the number of free permits.
func (s *Semaphore) Available() int { return s.avail }

// QueueLen returns the number of processes blocked in Acquire.
func (s *Semaphore) QueueLen() int { return len(s.queue) }
