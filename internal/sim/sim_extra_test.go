package sim

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestScheduleAtClampsToNow(t *testing.T) {
	e := NewEngine()
	var at Time
	e.Schedule(100, func() {
		e.ScheduleAt(50, func() { at = e.Now() }) // in the past
	})
	e.Run()
	if at != 100 {
		t.Fatalf("past-scheduled event ran at %v, want clamped to 100", at)
	}
}

func TestSemaphoreAccessors(t *testing.T) {
	e := NewEngine()
	s := e.NewSemaphore(2)
	if s.Available() != 2 || s.QueueLen() != 0 {
		t.Fatalf("fresh semaphore: avail=%d queue=%d", s.Available(), s.QueueLen())
	}
	for i := 0; i < 3; i++ {
		e.Go("w", func(p *Proc) {
			p.Acquire(s)
			p.Sleep(10)
			s.Release()
		})
	}
	e.RunUntil(5)
	if s.Available() != 0 {
		t.Fatalf("avail = %d mid-run", s.Available())
	}
	if s.QueueLen() != 1 {
		t.Fatalf("queue = %d mid-run", s.QueueLen())
	}
	e.Run()
	if s.Available() != 2 {
		t.Fatalf("avail = %d after drain", s.Available())
	}
}

func TestNegativeSemaphorePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewEngine().NewSemaphore(-1)
}

func TestProcNameAndEngineAccessors(t *testing.T) {
	e := NewEngine()
	e.Go("worker", func(p *Proc) {
		if p.Name() != "worker" {
			t.Errorf("Name = %q", p.Name())
		}
		if p.Engine() != e {
			t.Error("Engine accessor broken")
		}
		if p.Now() != e.Now() {
			t.Error("Now mismatch")
		}
	})
	e.Run()
}

func TestZeroSleepIsSchedulingPoint(t *testing.T) {
	e := NewEngine()
	var order []string
	e.Go("a", func(p *Proc) {
		order = append(order, "a1")
		p.Sleep(0)
		order = append(order, "a2")
	})
	e.Go("b", func(p *Proc) {
		order = append(order, "b1")
	})
	e.Run()
	// b1 must interleave between a1 and a2 (zero sleep yields).
	if len(order) != 3 || order[1] != "b1" {
		t.Fatalf("order = %v", order)
	}
}

func TestManyProcsStress(t *testing.T) {
	e := NewEngine()
	done := 0
	for i := 0; i < 2000; i++ {
		i := i
		e.Go("p", func(p *Proc) {
			p.Sleep(Duration(i % 97))
			done++
		})
	}
	e.Run()
	if done != 2000 {
		t.Fatalf("done = %d", done)
	}
}

func TestRunUntilThenResume(t *testing.T) {
	e := NewEngine()
	var marks []Time
	e.Go("p", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Sleep(100 * time.Nanosecond)
			marks = append(marks, p.Now())
		}
	})
	e.RunUntil(150)
	if len(marks) != 1 {
		t.Fatalf("marks after RunUntil = %v", marks)
	}
	e.Run()
	if len(marks) != 3 {
		t.Fatalf("marks after Run = %v", marks)
	}
}

func TestSameTimestampBatchFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	// A burst of events at one instant, some of which schedule further
	// zero-delay events mid-batch: dispatch must stay strictly FIFO.
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, func() {
			order = append(order, i)
			if i < 3 {
				e.Schedule(0, func() { order = append(order, 100+i) })
			}
		})
	}
	e.Run()
	want := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 100, 101, 102}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestEventReuseAcrossRuns(t *testing.T) {
	// Interleaved schedule/run cycles exercise the free list; events
	// must never fire twice or be lost after recycling.
	e := NewEngine()
	fired := 0
	for round := 0; round < 50; round++ {
		for i := 0; i < 40; i++ {
			e.Schedule(Duration(i%7), func() { fired++ })
		}
		e.Run()
	}
	if fired != 50*40 {
		t.Fatalf("fired = %d, want %d", fired, 50*40)
	}
}

// logObserver appends one line per engine event to a log shared by
// every subscriber, so the log records delivery order across them.
type logObserver struct {
	name string
	log  *[]string
}

func (o logObserver) EventScheduled(at Time) {
	*o.log = append(*o.log, fmt.Sprintf("%s scheduled %d", o.name, at))
}

func (o logObserver) ClockAdvanced(now Time) {
	*o.log = append(*o.log, fmt.Sprintf("%s advanced %d", o.name, now))
}

// TestObserverFanOut: every subscriber receives every EventScheduled
// and ClockAdvanced, in subscription order, and a nil subscriber is
// dropped.
func TestObserverFanOut(t *testing.T) {
	e := NewEngine()
	var log []string
	e.AddObserver(logObserver{"a", &log})
	e.AddObserver(nil)
	e.AddObserver(logObserver{"b", &log})
	if len(e.obs) != 2 {
		t.Fatalf("%d subscribers, want 2 (nil must be dropped)", len(e.obs))
	}
	e.Schedule(10, func() {})
	e.ScheduleAt(10, func() {})
	e.Go("p", func(p *Proc) { p.Sleep(5) })
	e.Run()
	want := []string{
		"a scheduled 10", "b scheduled 10",
		"a scheduled 10", "b scheduled 10",
		"a scheduled 0", "b scheduled 0", // Go starts the proc now
		"a advanced 0", "b advanced 0",
		"a scheduled 5", "b scheduled 5", // the proc's Sleep
		"a advanced 5", "b advanced 5",
		"a advanced 10", "b advanced 10", // one advance for the batch
	}
	if !reflect.DeepEqual(log, want) {
		t.Errorf("delivery log:\n%s\nwant:\n%s", strings.Join(log, "\n"), strings.Join(want, "\n"))
	}
}
