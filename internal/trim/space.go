package trim

import (
	"fmt"
	"sort"

	"repro/internal/rdf"
)

// The deep space accountant: where the store's bytes go. Stats.ApproxBytes
// has always summed term text as a portable proxy for the paper's §6
// space trade-off; this file breaks that figure down far enough to act on
// — total vs unique string bytes per triple position, per-predicate byte
// attribution — and reports the bytes the interned layout (layout.go)
// holds: the dictionary, the rows with their presence map, and the
// posting lists.
//
// Slices are counted at their capacity. Go does not expose a map's
// footprint, so each map is counted at its live entries times key plus
// value size; bucket slack above that is not included.

// Sizes of the 64-bit memory model the byte counts assume.
const (
	wordBytes         = 8
	stringHeaderBytes = 2 * wordBytes                   // pointer + length
	termBytes         = wordBytes + 2*stringHeaderBytes // kind word + value/dtype headers = 40
	sliceHeaderBytes  = 3 * wordBytes                   // pointer + len + cap
	idBytes           = 4                               // one uint32 term or row id
	rowBytes          = 6 * idBytes                     // three ids + three posting slots
)

// PositionSpace is the string-byte accounting of one triple position:
// how many term references the position holds, how many distinct terms
// they collapse to, and the byte sums of both views.
type PositionSpace struct {
	Refs        int   `json:"refs"`
	Unique      int   `json:"unique"`
	TotalBytes  int64 `json:"total_bytes"`
	UniqueBytes int64 `json:"unique_bytes"`
}

// PredicateSpace attributes string bytes to one predicate: the bytes of
// every triple carrying it (all three positions, total view), with its
// triple count. Share is the fraction of the store's total string bytes.
type PredicateSpace struct {
	Predicate  string  `json:"predicate"`
	Triples    int     `json:"triples"`
	TotalBytes int64   `json:"total_bytes"`
	Share      float64 `json:"share"`
}

// LayoutBytes is what the interned layout holds, in three parts.
type LayoutBytes struct {
	// DictionaryBytes: the unique string data, the id -> term table, the
	// term -> id map, and the free-id list.
	DictionaryBytes int64 `json:"dictionary_bytes"`
	// TripleBytes: the rows (three term ids and three posting slots each)
	// and the presence map from id triple to row.
	TripleBytes int64 `json:"triple_bytes"`
	// IndexBytes: the posting lists, one per term per position, with
	// their slice headers.
	IndexBytes int64 `json:"index_bytes"`
}

// SpaceStats is the deep space report for the store, produced by
// Manager.Space / Stats().Space and served by `trimq space` and
// /debug/space.
type SpaceStats struct {
	Triples    int    `json:"triples"`
	Generation uint64 `json:"generation"`

	// Per-position string accounting and the store-wide roll-up.
	// UniqueStringBytes dedupes terms across all three positions — what
	// the dictionary stores — so it can be smaller than the sum of the
	// per-position unique bytes.
	Subject           PositionSpace `json:"subject"`
	Predicate         PositionSpace `json:"predicate"`
	Object            PositionSpace `json:"object"`
	TotalStringBytes  int64         `json:"total_string_bytes"`
	UniqueStringBytes int64         `json:"unique_string_bytes"`
	UniqueTerms       int           `json:"unique_terms"`
	// DuplicationRatio is total over unique string bytes: how many times
	// the average string byte is referenced by triples. 1.0 means no
	// sharing; the dictionary stores each string once regardless.
	DuplicationRatio float64 `json:"duplication_ratio"`

	// StoreBytes is the layout's footprint, the sum of Interning's parts.
	StoreBytes     int64   `json:"store_bytes"`
	BytesPerTriple float64 `json:"bytes_per_triple"`

	// Predicates attributes string bytes per predicate, heaviest first.
	Predicates []PredicateSpace `json:"predicates"`

	// Interning breaks StoreBytes down into dictionary, rows, and
	// postings.
	Interning LayoutBytes `json:"interning"`
}

// Space computes the deep space report under the read lock and
// republishes the trim.space.* gauges.
func (m *Manager) Space() SpaceStats {
	m.mu.RLock()
	s := m.spaceLocked()
	m.mu.RUnlock()
	mSpaceTotal.Inc()
	gSpaceStringBytes.Set(s.TotalStringBytes)
	gSpaceUniqueBytes.Set(s.UniqueStringBytes)
	gSpaceBytesPerTriple.Set(int64(s.BytesPerTriple))
	gSpaceDupPct.Set(int64(s.DuplicationRatio * 100))
	return s
}

// termStringBytes is the string data one term references (lexical form
// plus datatype IRI).
func termStringBytes(t rdf.Term) int64 {
	return int64(len(t.Value()) + len(t.Datatype()))
}

// spaceLocked walks the dictionary and the predicate postings under the
// held lock and assembles the report.
func (m *Manager) spaceLocked() SpaceStats {
	l := &m.tab
	s := SpaceStats{
		Triples:     len(l.rows),
		Generation:  m.generation,
		UniqueTerms: len(l.ids),
		Predicates:  []PredicateSpace{},
	}
	positions := [3]*PositionSpace{&s.Subject, &s.Predicate, &s.Object}
	in := &s.Interning
	for id, t := range l.terms {
		b := termStringBytes(t)
		if l.refs(uint32(id)) > 0 {
			s.UniqueStringBytes += b
		}
		for k, p := range positions {
			refs := len(l.post[k][id])
			in.IndexBytes += int64(cap(l.post[k][id])) * idBytes
			if refs == 0 {
				continue
			}
			p.Refs += refs
			p.Unique++
			p.TotalBytes += b * int64(refs)
			p.UniqueBytes += b
		}
	}
	s.TotalStringBytes = s.Subject.TotalBytes + s.Predicate.TotalBytes + s.Object.TotalBytes
	if s.UniqueStringBytes > 0 {
		s.DuplicationRatio = float64(s.TotalStringBytes) / float64(s.UniqueStringBytes)
	}

	in.DictionaryBytes = s.UniqueStringBytes + int64(cap(l.terms))*termBytes +
		int64(len(l.ids))*(termBytes+idBytes) + int64(cap(l.free))*idBytes
	in.TripleBytes = int64(cap(l.rows))*rowBytes + int64(len(l.index))*(3*idBytes+idBytes)
	for k := range l.post {
		in.IndexBytes += int64(cap(l.post[k])) * sliceHeaderBytes
	}
	s.StoreBytes = in.DictionaryBytes + in.TripleBytes + in.IndexBytes
	if s.Triples > 0 {
		s.BytesPerTriple = float64(s.StoreBytes) / float64(s.Triples)
	}

	for id, rows := range l.post[posP] {
		if len(rows) == 0 {
			continue
		}
		ps := PredicateSpace{Predicate: l.terms[id].Value(), Triples: len(rows)}
		for _, r := range rows {
			for _, tid := range l.rows[r].ids {
				ps.TotalBytes += termStringBytes(l.terms[tid])
			}
		}
		ps.Share = float64(ps.TotalBytes) / float64(s.TotalStringBytes)
		s.Predicates = append(s.Predicates, ps)
	}
	sort.Slice(s.Predicates, func(i, j int) bool {
		if s.Predicates[i].TotalBytes != s.Predicates[j].TotalBytes {
			return s.Predicates[i].TotalBytes > s.Predicates[j].TotalBytes
		}
		return s.Predicates[i].Predicate < s.Predicates[j].Predicate
	})
	return s
}

// String renders the headline numbers in one line; the JSON form carries
// the full breakdown.
func (s SpaceStats) String() string {
	return fmt.Sprintf("triples=%d store_bytes=%d bytes/triple=%.1f string_bytes=%d unique_bytes=%d dup=%.2fx dictionary=%d rows=%d postings=%d",
		s.Triples, s.StoreBytes, s.BytesPerTriple,
		s.TotalStringBytes, s.UniqueStringBytes, s.DuplicationRatio,
		s.Interning.DictionaryBytes, s.Interning.TripleBytes, s.Interning.IndexBytes)
}
