package rdf

import (
	"sort"
)

// Graph is an in-memory set of triples with set semantics (adding a triple
// twice stores it once). Graph is not safe for concurrent use; the TRIM
// manager wraps it with locking and indexes.
type Graph struct {
	triples map[Triple]struct{}
}

// NewGraph returns an empty graph.
func NewGraph() *Graph {
	return &Graph{triples: make(map[Triple]struct{})}
}

// NewGraphSize returns an empty graph with room for n triples.
func NewGraphSize(n int) *Graph {
	return &Graph{triples: make(map[Triple]struct{}, n)}
}

// Add inserts a triple after validating it. It reports whether the triple
// was newly added (false means it was already present).
func (g *Graph) Add(t Triple) (bool, error) {
	if err := t.Validate(); err != nil {
		return false, err
	}
	if _, ok := g.triples[t]; ok {
		return false, nil
	}
	g.triples[t] = struct{}{}
	return true, nil
}

// Remove deletes a triple, reporting whether it was present.
func (g *Graph) Remove(t Triple) bool {
	if _, ok := g.triples[t]; !ok {
		return false
	}
	delete(g.triples, t)
	return true
}

// Has reports whether the graph contains the exact triple.
func (g *Graph) Has(t Triple) bool {
	_, ok := g.triples[t]
	return ok
}

// Len returns the number of triples.
func (g *Graph) Len() int { return len(g.triples) }

// Select returns all triples matching the pattern, in deterministic
// (sorted) order.
func (g *Graph) Select(p Pattern) []Triple {
	var out []Triple
	for t := range g.triples {
		if p.Matches(t) {
			out = append(out, t)
		}
	}
	SortTriples(out)
	return out
}

// All returns every triple in deterministic order.
func (g *Graph) All() []Triple { return g.Select(Pattern{}) }

// Each calls fn for every triple in unspecified order; fn returning false
// stops the iteration early.
func (g *Graph) Each(fn func(Triple) bool) {
	for t := range g.triples {
		if !fn(t) {
			return
		}
	}
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := &Graph{triples: make(map[Triple]struct{}, len(g.triples))}
	for t := range g.triples {
		c.triples[t] = struct{}{}
	}
	return c
}

// Merge adds every triple of other into g, returning how many were new.
func (g *Graph) Merge(other *Graph) (int, error) {
	added := 0
	// Deterministic order so a validation error is stable.
	for _, t := range other.All() {
		ok, err := g.Add(t)
		if err != nil {
			return added, err
		}
		if ok {
			added++
		}
	}
	return added, nil
}

// Equal reports whether both graphs contain exactly the same triples.
func (g *Graph) Equal(other *Graph) bool {
	if g.Len() != other.Len() {
		return false
	}
	for t := range g.triples {
		if !other.Has(t) {
			return false
		}
	}
	return true
}

// Subjects returns the distinct subjects appearing in the graph, sorted.
func (g *Graph) Subjects() []Term {
	seen := make(map[Term]struct{})
	for t := range g.triples {
		seen[t.Subject] = struct{}{}
	}
	return sortedTerms(seen)
}

// Predicates returns the distinct predicates appearing in the graph, sorted.
func (g *Graph) Predicates() []Term {
	seen := make(map[Term]struct{})
	for t := range g.triples {
		seen[t.Predicate] = struct{}{}
	}
	return sortedTerms(seen)
}

// Objects returns the distinct objects appearing in the graph, sorted.
func (g *Graph) Objects() []Term {
	seen := make(map[Term]struct{})
	for t := range g.triples {
		seen[t.Object] = struct{}{}
	}
	return sortedTerms(seen)
}

func sortedTerms(set map[Term]struct{}) []Term {
	out := make([]Term, 0, len(set))
	for t := range set {
		out = append(out, t)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

// SortTriples sorts triples in subject-major order, in place.
func SortTriples(ts []Triple) {
	sort.Slice(ts, func(i, j int) bool { return ts[i].Compare(ts[j]) < 0 })
}
