package main

import (
	"hash/fnv"
	"math"
	"math/rand"
	"sort"
	"time"
)

// streamRand derives an independent generator for one input stream of a
// run, so adding a stream never shifts the draws of another.
func streamRand(seed int64, stream string) *rand.Rand {
	h := fnv.New64a()
	h.Write([]byte(stream))
	return rand.New(rand.NewSource(seed ^ int64(h.Sum64())))
}

// poissonArrivals returns the send offsets of a Poisson process of the given
// rate (per second) over dur.
func poissonArrivals(rng *rand.Rand, rate float64, dur time.Duration) []time.Duration {
	var out []time.Duration
	t := 0.0
	for {
		t += rng.ExpFloat64() / rate
		if t >= dur.Seconds() {
			return out
		}
		out = append(out, time.Duration(t*float64(time.Second)))
	}
}

// zipfDraws returns n indices in [0, size) with P(i) ∝ (i+1)^−s, so index 0
// is the most popular. The draws are stratified: the k-th is taken at a
// uniform point of the k-th n-th of the cumulative distribution, and the
// result is shuffled. Every run's mix then follows the distribution to
// within about one draw per index, so seeds differ in order, not in how
// often the popular pairs come.
func zipfDraws(rng *rand.Rand, size, n int, s float64) []int {
	cdf := make([]float64, size)
	total := 0.0
	for i := range cdf {
		total += math.Pow(float64(i+1), -s)
		cdf[i] = total
	}
	out := make([]int, n)
	for k := range out {
		u := (float64(k) + rng.Float64()) / float64(n) * total
		out[k] = min(sort.SearchFloat64s(cdf, u), size-1)
	}
	rng.Shuffle(n, func(a, b int) { out[a], out[b] = out[b], out[a] })
	return out
}

type reqKind int

const (
	kindWhyNot reqKind = iota
	kindRSkyline
)

func (k reqKind) String() string {
	if k == kindWhyNot {
		return "whynot"
	}
	return "rskyline"
}

// request is one scheduled read of the open-loop load.
type request struct {
	At   time.Duration
	Kind reqKind
	Pair int // index into the (q, customer) pool
}

// readPlan draws a seeded open-loop schedule: Poisson arrivals at rate, a
// share whyNotShare of them why-not requests and the rest reverse-skyline
// requests, in shuffled order, each kind over (q, customer) pairs drawn
// Zipfian from a pool of size pairs.
func readPlan(seed int64, stream string, rate float64, dur time.Duration, pairs int) []request {
	rng := streamRand(seed, stream)
	at := poissonArrivals(rng, rate, dur)
	nWhyNot := int(math.Round(whyNotShare * float64(len(at))))
	kinds := make([]reqKind, len(at))
	for i := nWhyNot; i < len(kinds); i++ {
		kinds[i] = kindRSkyline
	}
	rng.Shuffle(len(kinds), func(a, b int) { kinds[a], kinds[b] = kinds[b], kinds[a] })
	draws := map[reqKind][]int{
		kindWhyNot:   zipfDraws(rng, pairs, nWhyNot, zipfS),
		kindRSkyline: zipfDraws(rng, pairs, len(at)-nWhyNot, zipfS),
	}
	plan := make([]request, len(at))
	for i, t := range at {
		k := kinds[i]
		plan[i] = request{At: t, Kind: k, Pair: draws[k][0]}
		draws[k] = draws[k][1:]
	}
	return plan
}
