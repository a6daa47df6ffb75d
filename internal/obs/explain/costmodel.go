package explain

import (
	"math"
	"sync/atomic"
)

// The cost model prices a plan node as units × ns-per-unit(rule), where units
// is the inbound candidate count (estUnits). The per-rule constants are
// seeded from the paper's I/O-cost reasoning — §VII charges each phase by its
// dominant operation — and then refreshed by an EWMA of observed per-node
// timings, so the estimate tracks this machine and dataset instead of the
// seed. A node whose actual cost runs far from its estimate is the anomaly
// the explain output highlights: either the workload shape changed (the
// candidate count stopped predicting the work) or a pruning rule stopped
// firing.

// Rule indices into the model's calibration table.
const (
	ruleIdxDefault = iota
	ruleIdxDSLWindow
	ruleIdxMidpoint
	ruleIdxSafeRegion
	numRules
)

func ruleIndex(rule string) int {
	switch rule {
	case RuleDSLWindow:
		return ruleIdxDSLWindow
	case RuleMidpoint:
		return ruleIdxMidpoint
	case RuleSafeRegion:
		return ruleIdxSafeRegion
	default:
		return ruleIdxDefault
	}
}

// seedNSPerUnit is the uncalibrated price of one work unit per rule,
// following the paper's per-phase cost accounting:
//
//   - DSL window/frontier: a guided R-tree descent per probe, O(height) page
//     reads each, plus the transformed-box dominance tests at every node;
//   - midpoint generation: per frontier point, binding-constraint solving
//     and canonical candidate dedup;
//   - safe region: per customer, a full dynamic skyline plus the anti-DDR
//     rectangle-set intersection fold (the Algorithm 3 dominant cost).
var seedNSPerUnit = [numRules]float64{
	ruleIdxDefault:    500,
	ruleIdxDSLWindow:  2500,
	ruleIdxMidpoint:   1200,
	ruleIdxSafeRegion: 4000,
}

// ewmaWeight is the calibration smoothing factor: new = (1-w)·old + w·obs.
// 1/8 converges in a few dozen queries without letting one preempted
// goroutine rewrite the table.
const ewmaWeight = 1.0 / 8

// Model holds the calibrated ns-per-unit table. All methods are nil-safe
// (estimates collapse to zero) and safe for concurrent use: each entry is a
// float64 behind an atomic bit pattern, updated with a CAS loop.
type Model struct {
	nsPerUnit [numRules]atomic.Uint64
}

// NewModel returns a model at the paper-seeded constants.
func NewModel() *Model {
	m := &Model{}
	for i, v := range seedNSPerUnit {
		m.nsPerUnit[i].Store(math.Float64bits(v))
	}
	return m
}

// Estimate prices units of work under the given rule, in nanoseconds.
func (m *Model) Estimate(rule string, units int64) int64 {
	if m == nil || units <= 0 {
		return 0
	}
	ns := math.Float64frombits(m.nsPerUnit[ruleIndex(rule)].Load())
	return int64(ns * float64(units))
}

// Observe feeds a measured node back into calibration.
func (m *Model) Observe(rule string, units, actualNS int64) {
	if m == nil || units <= 0 || actualNS < 0 {
		return
	}
	perUnit := float64(actualNS) / float64(units)
	slot := &m.nsPerUnit[ruleIndex(rule)]
	for {
		old := slot.Load()
		next := (1-ewmaWeight)*math.Float64frombits(old) + ewmaWeight*perUnit
		if slot.CompareAndSwap(old, math.Float64bits(next)) {
			return
		}
	}
}

// Calibration returns the current ns-per-unit table keyed by rule name (the
// default slot under "default") — surfaced for debugging and tests.
func (m *Model) Calibration() map[string]float64 {
	if m == nil {
		return nil
	}
	out := make(map[string]float64, numRules)
	for rule, idx := range map[string]int{
		"default":      ruleIdxDefault,
		RuleDSLWindow:  ruleIdxDSLWindow,
		RuleMidpoint:   ruleIdxMidpoint,
		RuleSafeRegion: ruleIdxSafeRegion,
	} {
		out[rule] = math.Float64frombits(m.nsPerUnit[idx].Load())
	}
	return out
}
