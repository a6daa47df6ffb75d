package main

import (
	"math"
	"sort"
	"time"
)

// tailBeyond is how many samples a reported tail leaves above it: the tail
// is the highest order statistic that still has this many samples beyond
// it, so its percentile grows with the sample count instead of being a
// fixed p99 that a short run cannot support.
const tailBeyond = 10

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs by linear
// interpolation between the closest ranks. An empty input gives NaN.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// tailBlocks is how many consecutive blocks blockTail cuts a run into,
// whatever its sample count.
const tailBlocks = 3

// tailStat is a tail latency with the percentile it sits at and the sample
// count it was taken from; Blocks > 0 when it is a median of block tails.
type tailStat struct {
	Value      float64 `json:"value"`
	Percentile float64 `json:"percentile"`
	Samples    int     `json:"samples"`
	Blocks     int     `json:"blocks,omitempty"`
}

// blockTail is the tail of a run's samples, in the order they were taken:
// the run is cut into tailBlocks consecutive blocks of equal size and the
// median of the block tails is reported, so that a burst of interference
// from outside the program in one part of the run does not set the figure.
// The statistic is the same at every sample count. Percentile is the
// blocks' mean; ok is false when a block is too short for a tail.
func blockTail(xs []float64) (tailStat, bool) {
	var vals, pcts []float64
	ok := true
	for b := 0; b < tailBlocks; b++ {
		t, bok := tail(xs[b*len(xs)/tailBlocks : (b+1)*len(xs)/tailBlocks])
		ok = ok && bok
		vals = append(vals, t.Value)
		pcts = append(pcts, t.Percentile)
	}
	return tailStat{Value: median(vals), Percentile: mean(pcts), Samples: len(xs), Blocks: tailBlocks}, ok
}

// tail returns the (n−tailBeyond)-th smallest of n samples. ok is false when
// there are too few samples for that to sit above the median; the maximum
// (0 for no samples) stands in.
func tail(xs []float64) (t tailStat, ok bool) {
	n := len(xs)
	if n <= 2*tailBeyond {
		t = tailStat{Percentile: 100, Samples: n}
		if n > 0 {
			t.Value = sortedCopy(xs)[n-1]
		}
		return t, false
	}
	k := n - tailBeyond - 1
	return tailStat{
		Value:      sortedCopy(xs)[k],
		Percentile: 100 * float64(k+1) / float64(n),
		Samples:    n,
	}, true
}

// opSamples holds one operation's latencies: every sample in the order
// taken, and each case's own.
type opSamples struct {
	seq    []float64
	byCase map[int][]float64
}

// opLog maps an operation's name to its samples.
type opLog map[string]*opSamples

func (s opLog) add(op string, i int, v float64) {
	o := s[op]
	if o == nil {
		o = &opSamples{byCase: map[int][]float64{}}
		s[op] = o
	}
	o.seq = append(o.seq, v)
	o.byCase[i] = append(o.byCase[i], v)
}

// On a shared host an operation's latency follows other tenants' load: from
// one few-second stretch of a run to the next the same answer can take up to
// 1.5× as long (it stays so with garbage collection off). The median falls
// in the fast or the slow stretches by their share, so it measures the
// neighbours; the fast end of the distribution is the program's own speed.
//
// fastPct is the percentile of all requests the serving workload reports as
// its fast-end latency. Requests there differ in pair and in queueing, so
// the fastest one would be one cheap pair's luck.
const fastPct = 10

// caseMin is the embedded workloads' fast-end latency: the mean over cases
// of each case's fastest run. A single-caller answer is deterministic work,
// so its fastest run is its cost when the host is least disturbed, and one
// undisturbed stretch in a run is enough to find it.
func (o *opSamples) caseMin() float64 { return o.caseQuantile(0) }

// caseQuantile is the mean over cases of each case's p-th percentile
// latency. Every case weighs the same, and the figure cannot land in the gap
// between two cases' costs, where a percentile of a mix of cases jumps from
// run to run with a few samples more or less of either. No samples give NaN.
func (o *opSamples) caseQuantile(p float64) float64 {
	if o == nil || len(o.byCase) == 0 {
		return math.NaN()
	}
	var cases []int
	for i := range o.byCase {
		cases = append(cases, i)
	}
	sort.Ints(cases)
	var meds []float64
	for _, i := range cases {
		meds = append(meds, percentile(o.byCase[i], p))
	}
	return mean(meds)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// ratio is a/b, or 0 when nothing was attempted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
