package explain

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// RenderOptions controls the tree rendering. Timings=false drops every
// machine-dependent field (the act= and total= wall times) so golden tests
// can pin the deterministic plan: phases, rules, candidate counts, prune
// ratios, node accesses.
type RenderOptions struct {
	Timings bool
}

// Render writes the plan as an indented tree, one node per line.
func (p *Plan) Render(w io.Writer, opts RenderOptions) {
	if p == nil {
		return
	}
	fmt.Fprintf(w, "plan %s dims=%d", p.Op, p.Dims)
	if p.Rung != "" {
		fmt.Fprintf(w, " rung=%s", p.Rung)
	}
	fmt.Fprintf(w, " fp=%s", p.Fingerprint)
	if opts.Timings {
		fmt.Fprintf(w, " total=%s", fmtNS(p.TotalNS))
	}
	fmt.Fprintln(w)
	var walk func(n *Node, depth int)
	walk = func(n *Node, depth int) {
		fmt.Fprintf(w, "%s%s", strings.Repeat("  ", depth+1), n.Name)
		if n.Rule != "" {
			fmt.Fprintf(w, " rule=%s", n.Rule)
		}
		if n.In >= 0 {
			fmt.Fprintf(w, " in=%d", n.In)
		}
		if n.Out >= 0 {
			fmt.Fprintf(w, " out=%d", n.Out)
		}
		if r, ok := n.PruneRatio(); ok {
			fmt.Fprintf(w, " prune=%.1f%%", r*100)
		}
		if n.NodeAccesses > 0 {
			fmt.Fprintf(w, " acc=%d", n.NodeAccesses)
			if n.LeafScans > 0 {
				fmt.Fprintf(w, " leaf=%d", n.LeafScans)
			}
			if len(n.LevelAccesses) > 0 {
				fmt.Fprintf(w, " levels=%s", fmtLevels(n.LevelAccesses))
			}
		}
		if n.TreePruned > 0 {
			fmt.Fprintf(w, " rtree_pruned=%d", n.TreePruned)
		}
		if c := n.Cost; c.DominanceTests > 0 || c.WindowQueries > 0 || c.PrunedEntries > 0 || c.CandidateEvaluations > 0 {
			fmt.Fprintf(w, " dt=%d wq=%d cand=%d pruned=%d",
				c.DominanceTests, c.WindowQueries, c.CandidateEvaluations, c.PrunedEntries)
		}
		if opts.Timings {
			fmt.Fprintf(w, " act=%s", fmtNS(n.ActualNS))
		}
		fmt.Fprintln(w)
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	if p.Root != nil {
		// The root line repeats the op but carries the whole-query
		// aggregates (its deltas span the full plan window).
		walk(p.Root, 0)
	}
}

// String renders with timings (the interactive CLI form).
func (p *Plan) String() string {
	var sb strings.Builder
	p.Render(&sb, RenderOptions{Timings: true})
	return sb.String()
}

// StableString renders without timings — byte-stable across runs on one
// dataset, the form golden tests pin.
func (p *Plan) StableString() string {
	var sb strings.Builder
	p.Render(&sb, RenderOptions{})
	return sb.String()
}

func fmtLevels(levels []int64) string {
	var sb strings.Builder
	sb.WriteByte('[')
	for i, v := range levels {
		if i > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "L%d:%d", i, v)
	}
	sb.WriteByte(']')
	return sb.String()
}

func fmtNS(ns int64) string {
	return time.Duration(ns).Round(time.Microsecond).String()
}
