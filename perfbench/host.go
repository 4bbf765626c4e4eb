package main

import (
	"math"
	"slices"
	"time"
)

// The host is two CPUs of a shared machine, and its speed swings:
// within one run the time of a fixed suite of reads moved by up to 60%
// between half-second windows, and per-query medians by 30-55% between
// whole runs, with the program's counts unchanged. So every timing of
// a measured phase is scaled to a nominal host speed. Between the
// phase's operations the benchmark times a reference computation of
// its own, which allocates nothing and calls nothing in the program;
// an operation's duration is multiplied by refNominal over the median
// reference time around it.
//
// Neighbours slow the host in two ways: they take CPU time, which
// slows everything, and they take cache and memory bandwidth, which
// slows what misses the cache. So the reference has two parts: sorting
// 8,192 integers that stay in cache, and reading one word of every
// cache line of 16 MiB. Its time is the geometric mean of the two.
// Over four runs of each read workload, scaling by it shrank the range
// of the per-query medians from 0.31-0.56 of their median to 0.01-0.15
// on read-warm and from 0.18-0.25 to 0.02-0.08 on read-cold; the sort
// alone left Q5 on read-warm at 0.26, and the read alone Q3, Q4 and
// XQ1 at 0.15-0.20. The per-layer metric host.ref_us is the run's
// median reference time: a timing's wall-clock value is its scaled
// value × host.ref_us ÷ refNominal.

// refNominal is the reference computation's time on the nominal host,
// about its median on the 2-CPU VM the bounds were set on.
const refNominal = 415 * time.Microsecond

// refWindow is how many reference timings on each side of an
// operation its scale is the median of. The median keeps a timing
// that a collector cycle or a descheduling hit from setting the scale.
const refWindow = 10

// refGap is the time between two marks of a tape. Marks are spaced,
// not taken after every operation, because the reference's read of
// 16 MiB evicts the caches, and the operation after a mark runs slower.
const refGap = 100 * time.Millisecond

var (
	refSrc = func() []int64 {
		x := make([]int64, 8192)
		v := uint64(88172645463325252)
		for i := range x {
			v ^= v << 13
			v ^= v >> 7
			v ^= v << 17
			x[i] = int64(v)
		}
		return x
	}()
	refDst  = make([]int64, len(refSrc))
	refScan = make([]int64, 16<<20/8)
	refSink int64
)

// refKernel times the reference computation: the geometric mean of
// copying and sorting refSrc, and of reading one int64 per 64-byte
// line of refScan.
func refKernel() time.Duration {
	t := time.Now()
	copy(refDst, refSrc)
	slices.Sort(refDst)
	sorted := time.Since(t)
	t = time.Now()
	var sum int64
	for i := 0; i < len(refScan); i += 8 {
		sum += refScan[i]
	}
	refSink += sum
	read := time.Since(t)
	return time.Duration(math.Sqrt(float64(sorted) * float64(read)))
}

// tape records reference timings taken between a phase's operations,
// and scales the operations' durations by them.
type tape struct {
	ref   []time.Duration
	last  time.Time     // when the last mark ended
	spent time.Duration // wall time of all marks
}

// mark times the reference computation.
func (t *tape) mark() {
	start := time.Now()
	t.ref = append(t.ref, refKernel())
	t.last = time.Now()
	t.spent += t.last.Sub(start)
}

// due reports whether the next mark is due.
func (t *tape) due() bool { return time.Since(t.last) >= refGap }

// timed is an operation's duration and the index of the first mark
// after it, whose window scales it.
type timed struct {
	d  time.Duration
	at int
}

// stamp pairs d, just measured, with the tape's next mark.
func (t *tape) stamp(d time.Duration) timed { return timed{d, len(t.ref)} }

// scaled returns the durations of ts at the nominal host speed. Every
// stamped mark must have been taken.
func (t *tape) scaled(ts []timed) []time.Duration {
	out := make([]time.Duration, len(ts))
	for k, x := range ts {
		out[k] = time.Duration(float64(x.d) * t.factor(x.at))
	}
	return out
}

// sum adds durations.
func sum(ds []time.Duration) time.Duration {
	var s time.Duration
	for _, d := range ds {
		s += d
	}
	return s
}

// factor is refNominal over the median reference time within
// refWindow marks of mark i.
func (t *tape) factor(i int) float64 {
	lo, hi := max(0, i-refWindow), min(len(t.ref), i+refWindow+1)
	return float64(refNominal) / float64(quantile(t.ref[lo:hi], 0.5))
}

// median is the tape's median reference time.
func (t *tape) median() time.Duration { return quantile(t.ref, 0.5) }

// during runs f, a single long call (set-up, a recovery) with no
// operations to interleave marks with, while a second goroutine marks
// the tape every refGap. With one P each mark runs between two
// slices of f, so the marks sample the host's speed over f's whole
// span. It returns f's time, less the marks'.
func (t *tape) during(f func() error) (time.Duration, error) {
	spent := t.spent
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(refGap)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				t.mark()
			}
		}
	}()
	start := time.Now()
	err := f()
	d := time.Since(start)
	close(stop)
	<-done
	return d - (t.spent - spent), err
}

// nominal is d at the nominal host speed, for an operation within the
// span the whole tape covers.
func (t *tape) nominal(d time.Duration) time.Duration {
	return time.Duration(float64(d) * float64(refNominal) / float64(t.median()))
}
