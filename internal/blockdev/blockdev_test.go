package blockdev

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"snapbpf/internal/faults"
	"snapbpf/internal/sim"
)

func testParams() Params {
	return Params{
		Name:            "test",
		AccessLatency:   100 * time.Microsecond,
		BytesPerSecond:  1 << 30, // 1 GiB/s => 4KiB in ~3.8us
		QueueDepth:      2,
		MaxRequestBytes: 64 << 10,
	}
}

func TestSingleReadLatency(t *testing.T) {
	eng := sim.NewEngine()
	d := New(eng, testParams())
	var took time.Duration
	eng.Go("r", func(p *sim.Proc) {
		start := p.Now()
		d.Read(p, 0, 4096)
		took = p.Now().Sub(start)
	})
	eng.Run()
	transfer := float64(4096) / float64(int64(1)<<30) * float64(time.Second)
	want := 100*time.Microsecond + time.Duration(transfer)
	if took != want {
		t.Fatalf("latency = %v, want %v", took, want)
	}
	if st := d.Stats(); st.Requests != 1 || st.BytesRead != 4096 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestQueueDepthContention(t *testing.T) {
	eng := sim.NewEngine()
	p := testParams()
	p.QueueDepth = 1
	p.BytesPerSecond = 1 << 40 // transfer time negligible
	d := New(eng, p)
	var ends []sim.Time
	for i := 0; i < 3; i++ {
		i := i
		eng.Go("r", func(pr *sim.Proc) {
			d.Read(pr, int64(i)*4096, 4096)
			ends = append(ends, pr.Now())
		})
	}
	eng.Run()
	// With QD=1 and ~100us service, completions are serialized.
	if len(ends) != 3 {
		t.Fatalf("ends = %v", ends)
	}
	for i := 1; i < 3; i++ {
		gap := ends[i].Sub(ends[i-1])
		if gap < 99*time.Microsecond {
			t.Fatalf("completion gap %v too small: QD=1 not enforced (ends=%v)", gap, ends)
		}
	}
}

func TestParallelismWithinQueueDepth(t *testing.T) {
	eng := sim.NewEngine()
	p := testParams()
	p.QueueDepth = 4
	p.BytesPerSecond = 1 << 40
	d := New(eng, p)
	var end sim.Time
	done := 0
	for i := 0; i < 4; i++ {
		eng.Go("r", func(pr *sim.Proc) {
			d.Read(pr, 0, 4096)
			done++
			end = pr.Now()
		})
	}
	eng.Run()
	if done != 4 {
		t.Fatalf("done = %d", done)
	}
	// All four fit in the queue: total time ~= one service time.
	if end > sim.Time(0).Add(110*time.Microsecond) {
		t.Fatalf("end = %v, want ~100us (parallel service)", end)
	}
}

func TestAggregateBandwidthShared(t *testing.T) {
	// 32 concurrent 1MiB reads on a 1GiB/s device must take ~32ms of
	// transfer regardless of queue depth: bandwidth is shared.
	eng := sim.NewEngine()
	p := testParams()
	p.QueueDepth = 32
	p.MaxRequestBytes = 1 << 20
	d := New(eng, p)
	var last sim.Time
	for i := 0; i < 32; i++ {
		i := i
		eng.Go("r", func(pr *sim.Proc) {
			d.Read(pr, int64(i)<<20, 1<<20)
			if pr.Now() > last {
				last = pr.Now()
			}
		})
	}
	eng.Run()
	perMiB := float64(int64(1)<<20) / float64(int64(1)<<30) * float64(time.Second)
	transfer := 32 * time.Duration(perMiB)
	if last < sim.Time(0).Add(transfer) {
		t.Fatalf("finished in %v, faster than shared-bandwidth floor %v", last, transfer)
	}
	if last > sim.Time(0).Add(transfer+2*p.AccessLatency) {
		t.Fatalf("finished in %v, want ~%v (+latency)", last, transfer)
	}
}

func TestCommandOverheadCapsIOPS(t *testing.T) {
	// 1000 4KiB random reads with 10us command overhead: at least 10ms
	// of serialized command time even at high queue depth.
	eng := sim.NewEngine()
	p := testParams()
	p.QueueDepth = 32
	p.CommandOverhead = 10 * time.Microsecond
	p.BytesPerSecond = 1 << 40 // transfer negligible
	d := New(eng, p)
	var end sim.Time
	for i := 0; i < 1000; i++ {
		i := i
		eng.Go("r", func(pr *sim.Proc) {
			d.Read(pr, int64(i)*1<<20, 4096)
			if pr.Now() > end {
				end = pr.Now()
			}
		})
	}
	eng.Run()
	if end < sim.Time(0).Add(10*time.Millisecond) {
		t.Fatalf("1000 reads finished in %v, below the 10ms IOPS floor", end)
	}
}

func TestSyncOvertakesReadahead(t *testing.T) {
	// Queue a long stream of readahead, then submit one sync read: the
	// sync read must complete well before the readahead drains.
	eng := sim.NewEngine()
	p := testParams()
	p.QueueDepth = 2
	d := New(eng, p)
	var raDone, syncDone sim.Time
	ra := d.SubmitReadahead(0, 200*64<<10) // 200 x 64KiB parts
	eng.Go("relay", func(pr *sim.Proc) {
		pr.Wait(ra)
		raDone = pr.Now()
	})
	eng.GoAfter(time.Microsecond, "sync", func(pr *sim.Proc) {
		d.Read(pr, 1<<30, 4096)
		syncDone = pr.Now()
	})
	eng.Run()
	if syncDone >= raDone {
		t.Fatalf("sync read (%v) did not overtake readahead (%v)", syncDone, raDone)
	}
	if syncDone > sim.Time(0).Add(5*time.Millisecond) {
		t.Fatalf("sync read waited %v behind readahead", syncDone)
	}
}

func TestSeekPenaltyHDD(t *testing.T) {
	eng := sim.NewEngine()
	d := New(eng, SpindleHDD())
	var seqTime, randTime time.Duration
	eng.Go("seq", func(p *sim.Proc) {
		start := p.Now()
		for i := int64(0); i < 8; i++ {
			d.Read(p, i*4096, 4096) // contiguous after first
		}
		seqTime = p.Now().Sub(start)
	})
	eng.Run()

	eng2 := sim.NewEngine()
	d2 := New(eng2, SpindleHDD())
	eng2.Go("rand", func(p *sim.Proc) {
		start := p.Now()
		for i := int64(0); i < 8; i++ {
			d2.Read(p, i*10<<20, 4096) // scattered
		}
		randTime = p.Now().Sub(start)
	})
	eng2.Run()
	if randTime < 2*seqTime {
		t.Fatalf("random (%v) should be much slower than sequential (%v) on HDD", randTime, seqTime)
	}
}

func TestSSDNoSeekPenalty(t *testing.T) {
	// The paper's key storage insight: random vs sequential is a wash on SSD.
	run := func(stride int64) time.Duration {
		eng := sim.NewEngine()
		d := New(eng, MicronSATA5300())
		var took time.Duration
		eng.Go("r", func(p *sim.Proc) {
			start := p.Now()
			for i := int64(0); i < 16; i++ {
				d.Read(p, i*stride, 4096)
			}
			took = p.Now().Sub(start)
		})
		eng.Run()
		return took
	}
	seq, rnd := run(4096), run(100<<20)
	if seq != rnd {
		t.Fatalf("SSD sequential %v != random %v", seq, rnd)
	}
}

func TestLargeReadSplit(t *testing.T) {
	eng := sim.NewEngine()
	p := testParams()
	p.MaxRequestBytes = 4096
	d := New(eng, p)
	eng.Go("r", func(pr *sim.Proc) {
		d.Read(pr, 0, 4*4096)
	})
	eng.Run()
	if st := d.Stats(); st.Requests != 4 {
		t.Fatalf("requests = %d, want 4 (split)", st.Requests)
	}
}

func TestSubmitReadAsync(t *testing.T) {
	eng := sim.NewEngine()
	d := New(eng, testParams())
	var issued, completed sim.Time
	eng.Go("r", func(p *sim.Proc) {
		w := d.SubmitRead(0, 4096)
		issued = p.Now()
		p.Sleep(1 * time.Microsecond) // do other work
		p.Wait(w)
		completed = p.Now()
	})
	eng.Run()
	if issued != 0 {
		t.Fatalf("SubmitRead blocked the caller: issued at %v", issued)
	}
	if completed < sim.Time(0).Add(100*time.Microsecond) {
		t.Fatalf("completed too early: %v", completed)
	}
}

func TestSequentialDetection(t *testing.T) {
	eng := sim.NewEngine()
	d := New(eng, testParams())
	eng.Go("r", func(p *sim.Proc) {
		d.Read(p, 0, 4096)
		d.Read(p, 4096, 4096)
		d.Read(p, 1<<20, 4096)
	})
	eng.Run()
	if st := d.Stats(); st.Sequential != 1 {
		t.Fatalf("sequential = %d, want 1", st.Sequential)
	}
}

func TestResetStats(t *testing.T) {
	eng := sim.NewEngine()
	d := New(eng, testParams())
	eng.Go("r", func(p *sim.Proc) { d.Read(p, 0, 4096) })
	eng.Run()
	d.ResetStats()
	if st := d.Stats(); st.Requests != 0 || st.BytesRead != 0 {
		t.Fatalf("stats not reset: %+v", st)
	}
}

func TestZeroLengthReadPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	eng := sim.NewEngine()
	d := New(eng, testParams())
	d.SubmitRead(0, 0)
}

// --- fault injection ---

func faultyDevice(t *testing.T, eng *sim.Engine, plan faults.Plan) *Device {
	t.Helper()
	d := New(eng, testParams())
	d.SetFaults(faults.NewInjector(plan))
	return d
}

func TestInjectedErrorSurfacesOnIO(t *testing.T) {
	eng := sim.NewEngine()
	d := faultyDevice(t, eng, faults.Plan{Seed: 1, ReadErrorRate: 1.0})
	var err0, errCap error
	eng.Go("r", func(p *sim.Proc) {
		err0 = d.ReadAttempt(p, 0, 4096, 0)
		errCap = d.ReadAttempt(p, 0, 4096, faults.MaxErrorAttempts)
	})
	eng.Run()
	if err0 == nil {
		t.Fatal("rate-1.0 plan did not fail attempt 0")
	}
	if errCap != nil {
		t.Fatalf("error injected past the attempt cap: %v", errCap)
	}
	if got := d.Faults().Report().IOErrors; got != 1 {
		t.Fatalf("IOErrors = %d, want 1", got)
	}
}

func TestLatencySpikeExtendsRead(t *testing.T) {
	spike := 2 * time.Millisecond
	run := func(rate float64) time.Duration {
		eng := sim.NewEngine()
		d := New(eng, testParams())
		if rate > 0 {
			d.SetFaults(faults.NewInjector(faults.Plan{Seed: 1, LatencySpikeRate: rate, LatencySpike: spike}))
		}
		var took time.Duration
		eng.Go("r", func(p *sim.Proc) {
			start := p.Now()
			if err := d.Read(p, 0, 4096); err != nil {
				t.Errorf("read: %v", err)
			}
			took = p.Now().Sub(start)
		})
		eng.Run()
		return took
	}
	if got, want := run(1.0), run(0)+spike; got != want {
		t.Fatalf("spiked read took %v, want %v", got, want)
	}
}

func TestStuckSlotDelaysCompletionNotBus(t *testing.T) {
	// First request's slot hangs; the second (QD=2) still gets the bus
	// and completes on time, while the stuck one completes late.
	hold := 10 * time.Millisecond
	eng := sim.NewEngine()
	d := New(eng, testParams())
	in := faults.NewInjector(faults.Plan{Seed: 1, StuckSlotRate: 1.0, StuckSlotDelay: hold})
	var ends [2]sim.Time
	eng.Go("a", func(p *sim.Proc) {
		d.SetFaults(in)
		w := d.SubmitReadIO(0, 4096, 0)
		d.SetFaults(nil) // only the first request draws the stuck slot
		p.Wait(w.Done())
		ends[0] = p.Now()
	})
	eng.Go("b", func(p *sim.Proc) {
		d.Read(p, 4096, 4096)
		ends[1] = p.Now()
	})
	eng.Run()
	if ends[0].Sub(ends[1]) < hold/2 {
		t.Fatalf("stuck request (%v) did not lag healthy one (%v) by ~%v", ends[0], ends[1], hold)
	}
}

func TestShortReadsPreserveByteCount(t *testing.T) {
	eng := sim.NewEngine()
	d := faultyDevice(t, eng, faults.Plan{Seed: 9, ShortReadRate: 1.0})
	const total = 64 << 10
	eng.Go("r", func(p *sim.Proc) {
		if err := d.Read(p, 0, total); err != nil {
			t.Errorf("read: %v", err)
		}
	})
	eng.Run()
	st := d.Stats()
	if st.BytesRead != total {
		t.Fatalf("BytesRead = %d, want %d", st.BytesRead, total)
	}
	if st.Requests < 2 {
		t.Fatalf("rate-1.0 short reads produced %d requests, want splits", st.Requests)
	}
	if got := d.Faults().Report().ShortReads; got == 0 {
		t.Fatal("no short reads counted")
	}
}

func TestFaultedDeviceDeterministic(t *testing.T) {
	run := func() (Stats, faults.Report, sim.Time) {
		eng := sim.NewEngine()
		d := faultyDevice(t, eng, faults.Heavy(42))
		for i := 0; i < 8; i++ {
			off := int64(i) * (128 << 10)
			eng.Go("r", func(p *sim.Proc) {
				for attempt := 0; ; attempt++ {
					if err := d.ReadAttempt(p, off, 128<<10, attempt); err == nil {
						return
					}
					p.Sleep(faults.Backoff(attempt))
				}
			})
		}
		eng.Run()
		return d.Stats(), d.Faults().Report(), eng.Now()
	}
	s1, r1, t1 := run()
	s2, r2, t2 := run()
	if s1 != s2 || r1 != r2 || t1 != t2 {
		t.Fatalf("same seed diverged:\n%+v %+v %v\n%+v %+v %v", s1, r1, t1, s2, r2, t2)
	}
	if r1.Injected() == 0 {
		t.Fatal("heavy plan injected nothing")
	}
}

// ioLog records every device event with its subscriber's name into a
// log shared by all subscribers.
type ioLog struct {
	name string
	log  *[]string
}

func (l ioLog) add(format string, args ...any) {
	*l.log = append(*l.log, l.name+" "+fmt.Sprintf(format, args...))
}

func (l ioLog) IOSubmitted(id, off, length int64, sync bool, attempt, parts int) {
	l.add("submit %d parts=%d", id, parts)
}

func (l ioLog) RequestServiced(off, length int64, attempt, inFlight int, out faults.ReadOutcome) {
	l.add("service %d", off)
}

func (l ioLog) RequestCompleted(inFlight int)     { l.add("complete inflight=%d", inFlight) }
func (l ioLog) IOCompleted(id int64, failed bool) { l.add("done %d failed=%v", id, failed) }

// TestObserverFanOut: every device event reaches each subscriber in
// subscription order; a nil subscriber is dropped.
func TestObserverFanOut(t *testing.T) {
	eng := sim.NewEngine()
	p := testParams()
	p.MaxRequestBytes = 4096
	d := New(eng, p)
	var log []string
	d.AddObserver(ioLog{"a", &log})
	d.AddObserver(nil)
	d.AddObserver(ioLog{"b", &log})
	eng.Go("r", func(pr *sim.Proc) { d.Read(pr, 0, 2*4096) })
	eng.Run()
	var want []string
	for _, ev := range []string{
		"submit 1 parts=2", "service 0", "service 4096",
		"complete inflight=1", "complete inflight=0", "done 1 failed=false",
	} {
		want = append(want, "a "+ev, "b "+ev)
	}
	if !reflect.DeepEqual(log, want) {
		t.Errorf("event log %q, want %q", log, want)
	}
}
