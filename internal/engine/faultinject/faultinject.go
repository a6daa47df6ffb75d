// Package faultinject provides a deterministic fault-injection harness for
// the query stack. An Injector implements cancel.Hook: installed on a context
// with cancel.WithHook, it is consulted at every cooperative checkpoint the
// query algorithms pass through, identified by site name (cancel.Site*
// constants) and per-goroutine visit number. Rules can slow a site down,
// cancel the query, or panic — exactly the failures the engine's
// deadline/degradation/recovery machinery exists to absorb — without any
// wall-clock or randomness dependence, so failure tests are reproducible.
package faultinject

import (
	"sync"
	"sync/atomic"
	"time"
)

// Rule describes one injected fault. The zero field values are wildcards: an
// empty Site matches every checkpoint and a zero OnVisit matches every visit.
// A matching rule applies its effects in order: sleep, callback, panic.
type Rule struct {
	// Site restricts the rule to one checkpoint site (a cancel.Site*
	// constant). Empty matches all sites.
	Site string
	// OnVisit fires the rule only on the n-th hit of the matching site,
	// counted by the injector across the whole run (deterministic for
	// serial queries; aggregated over goroutines for parallel ones). Zero
	// fires on every hit.
	OnVisit uint64
	// Delay suspends the query at the checkpoint, simulating a slow
	// computation or a stalled I/O dependency.
	Delay time.Duration
	// Do runs an arbitrary callback — typically a context.CancelFunc to
	// simulate an external abort.
	Do func()
	// Panic, when non-empty, panics with this message, simulating a bug in
	// the depths of the query algorithms.
	Panic string
}

// Injector is a set of fault rules plus per-site hit counters. It is safe
// for concurrent use by parallel query workers.
type Injector struct {
	rules []Rule

	mu     sync.Mutex
	visits map[string]uint64
}

// New builds an injector from rules. Rules are evaluated in order on every
// checkpoint hit.
func New(rules ...Rule) *Injector {
	return &Injector{rules: rules, visits: make(map[string]uint64)}
}

// Visit implements cancel.Hook. The checker's own count n spans every site
// it passes through, so rules match on the injector's per-site tally instead.
func (inj *Injector) Visit(site string, n uint64) {
	_ = n
	inj.mu.Lock()
	inj.visits[site]++
	count := inj.visits[site]
	inj.mu.Unlock()
	for _, r := range inj.rules {
		if r.Site != "" && r.Site != site {
			continue
		}
		if r.OnVisit != 0 && r.OnVisit != count {
			continue
		}
		if r.Delay > 0 {
			time.Sleep(r.Delay)
		}
		if r.Do != nil {
			r.Do()
		}
		if r.Panic != "" {
			panic(r.Panic)
		}
	}
}

// Visits reports how many times a site's checkpoint has been hit across all
// goroutines — useful for asserting that a query really did (or did not)
// reach a given stage.
func (inj *Injector) Visits(site string) uint64 {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	return inj.visits[site]
}

// Switch gates a hook behind an atomic on/off flag, so long-running harnesses
// (soak tests, the chaos driver) can open and close a fault window on a live
// system without re-plumbing contexts. It implements cancel.Hook itself;
// disabled, a visit is one atomic load.
type Switch struct {
	enabled atomic.Bool
	inner   interface{ Visit(site string, n uint64) }
}

// NewSwitch wraps inner (typically an *Injector); the switch starts disabled.
func NewSwitch(inner interface{ Visit(site string, n uint64) }) *Switch {
	return &Switch{inner: inner}
}

// Visit forwards to the wrapped hook only while the switch is enabled.
func (s *Switch) Visit(site string, n uint64) {
	if s.enabled.Load() {
		s.inner.Visit(site, n)
	}
}

// Set opens (true) or closes (false) the fault window.
func (s *Switch) Set(on bool) { s.enabled.Store(on) }
