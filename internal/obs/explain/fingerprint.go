package explain

import (
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"sync"
)

// Query fingerprints group queries into workload classes by what the planner
// did, not by their literal parameters: the hash covers op kind,
// dimensionality, degrade rung and the plan-tree shape (phase names + pruning
// rules, preorder). Two MWQ calls with different query points but the same
// plan shape share a fingerprint; an MWQ that degraded to the approx rung, or
// whose safe region collapsed to the corner-enumeration case, lands in a
// different class. Per-class percentiles then catch a regressing workload
// class that a global p99 would average away.

// shapeOf renders the tree's names and rules preorder:
// "mwq(saferegion[safe-region],corners[midpoint](...))".
func shapeOf(root *Node) string {
	var sb strings.Builder
	var walk func(n *Node)
	walk = func(n *Node) {
		sb.WriteString(n.Name)
		if n.Rule != "" {
			sb.WriteByte('[')
			sb.WriteString(n.Rule)
			sb.WriteByte(']')
		}
		if len(n.Children) > 0 {
			sb.WriteByte('(')
			for i, c := range n.Children {
				if i > 0 {
					sb.WriteByte(',')
				}
				walk(c)
			}
			sb.WriteByte(')')
		}
	}
	if root != nil {
		walk(root)
	}
	return sb.String()
}

// fingerprintOf hashes the workload-class key to 16 hex digits (FNV-1a 64,
// the same digest family the flight recorder uses for query parameters).
func fingerprintOf(op string, dims int, rung, shape string) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%d|%s|%s", op, dims, rung, shape)
	return fmt.Sprintf("%016x", h.Sum64())
}

// Store aggregation bounds. ringSize recent samples give a usable p95;
// the first baselineN samples (baselineN ≤ ringSize, so the ring still holds
// them all when the baseline freezes) give the reference percentile the
// drift test compares against; a class begins drift-testing once the recent
// ring holds driftMinRecent fresh samples beyond the baseline; maxClasses
// bounds the class table.
const (
	ringSize       = 64
	baselineN      = 32
	driftMinRecent = 32
	maxClasses     = 256
	// driftFactor trips the detector (recent cost p95 > factor × baseline
	// cost p95); clearFactor re-arms it lower so a class flapping around the
	// threshold does not strobe the gauge.
	driftFactor = 1.5
	clearFactor = 1.25
)

// class accumulates one fingerprint's samples.
type class struct {
	op    string
	dims  int
	rung  string
	shape string

	count uint64

	latRing  [ringSize]float64 // ns
	costRing [ringSize]float64 // counted work (dominance tests + node accesses)
	ringN    int               // filled slots
	ringI    int               // next write

	baselineP95 float64 // cost p95 of the first baselineN samples; 0 before
	drifting    bool
}

// ClassSnapshot is one fingerprint's aggregate, as served by
// /v1/debug/fingerprints.
type ClassSnapshot struct {
	Fingerprint string `json:"fingerprint"`
	Op          string `json:"op"`
	Dims        int    `json:"dims"`
	Rung        string `json:"rung,omitempty"`
	Shape       string `json:"shape"`
	Count       uint64 `json:"count"`

	LatencyP50MS    float64 `json:"latency_p50_ms"`
	LatencyP95MS    float64 `json:"latency_p95_ms"`
	CostP50         float64 `json:"cost_p50"`
	CostP95         float64 `json:"cost_p95"`
	BaselineCostP95 float64 `json:"baseline_cost_p95,omitempty"`
	Drifting        bool    `json:"drifting"`
}

// Store is the bounded query-fingerprint aggregator. One per serving surface
// (the server keeps its own so it survives snapshot hot-swaps; an embedded DB
// keeps one for the CLI).
type Store struct {
	mu       sync.Mutex
	classes  map[string]*class
	overflow uint64 // queries whose new class did not fit
}

// NewStore returns a store bounded to maxClasses classes. Eviction is
// rejection: once full, queries of unseen shapes count into Overflow instead
// of displacing established baselines — a regression store that recycles its
// baselines under churn cannot detect drift.
func NewStore() *Store {
	return &Store{classes: make(map[string]*class)}
}

// Observe folds a finished plan into its class and reports whether this
// sample tripped (or re-confirmed) the class's drift detector. The caller
// surfaces a true return as a flight-recorder event and on the
// fingerprint_drift gauge.
//
// Drift is judged on counted work, not time: the root's dominance tests plus
// its node accesses, the two axes §VII measures. The root's counts already
// aggregate the whole query, and identical queries count identically however
// loaded the host is, so the class's frozen baseline covers its own case mix
// and a latch means the class does more work than it did.
func (s *Store) Observe(p *Plan) (drifting bool) {
	if s == nil || p == nil || p.Root == nil {
		return false
	}
	cost := float64(p.Root.Cost.DominanceTests) + float64(p.Root.NodeAccesses)

	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.classes[p.Fingerprint]
	if c == nil {
		if len(s.classes) >= maxClasses {
			s.overflow++
			return false
		}
		c = &class{op: p.Op, dims: p.Dims, rung: p.Rung, shape: p.Shape}
		s.classes[p.Fingerprint] = c
	}
	c.count++
	c.latRing[c.ringI] = float64(p.TotalNS)
	c.costRing[c.ringI] = cost
	c.ringI = (c.ringI + 1) % ringSize
	if c.ringN < ringSize {
		c.ringN++
	}
	switch {
	case c.count == baselineN:
		c.baselineP95 = percentile(ringCopy(&c.costRing, c.ringN), 95)
		return false
	case c.count < baselineN+driftMinRecent:
		return false
	}
	recent := percentile(ringCopy(&c.costRing, c.ringN), 95)
	switch {
	case !c.drifting && recent > c.baselineP95*driftFactor:
		c.drifting = true
	case c.drifting && recent <= c.baselineP95*clearFactor:
		c.drifting = false
	}
	return c.drifting
}

// Drifting returns how many classes currently trip the drift detector — the
// fingerprint_drift gauge reads it on scrape.
func (s *Store) Drifting() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for _, c := range s.classes {
		if c.drifting {
			n++
		}
	}
	return n
}

// Overflow returns how many observations were discarded because the class
// table was full.
func (s *Store) Overflow() uint64 {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.overflow
}

// Len returns the number of tracked classes.
func (s *Store) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.classes)
}

// Snapshot returns every class's aggregate, busiest first (count desc,
// fingerprint asc for determinism).
func (s *Store) Snapshot() []ClassSnapshot {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]ClassSnapshot, 0, len(s.classes))
	for fp, c := range s.classes {
		lat := ringCopy(&c.latRing, c.ringN)
		cost := ringCopy(&c.costRing, c.ringN)
		out = append(out, ClassSnapshot{
			Fingerprint:     fp,
			Op:              c.op,
			Dims:            c.dims,
			Rung:            c.rung,
			Shape:           c.shape,
			Count:           c.count,
			LatencyP50MS:    percentile(lat, 50) / 1e6,
			LatencyP95MS:    percentile(lat, 95) / 1e6,
			CostP50:         percentile(cost, 50),
			CostP95:         percentile(cost, 95),
			BaselineCostP95: c.baselineP95,
			Drifting:        c.drifting,
		})
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Count != out[b].Count {
			return out[a].Count > out[b].Count
		}
		return out[a].Fingerprint < out[b].Fingerprint
	})
	return out
}

func ringCopy(ring *[ringSize]float64, n int) []float64 {
	out := make([]float64, n)
	copy(out, ring[:n])
	return out
}

// percentile sorts its (owned) input and reads the nearest-rank percentile.
func percentile(vals []float64, p int) float64 {
	if len(vals) == 0 {
		return 0
	}
	sort.Float64s(vals)
	idx := len(vals) * p / 100
	if idx >= len(vals) {
		idx = len(vals) - 1
	}
	return vals[idx]
}
