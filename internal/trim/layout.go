package trim

import (
	"repro/internal/rdf"
)

// The store layout: one interned triple table (paper §6's "alternative
// implementation mechanisms" for large data, DESIGN.md "TRIM"). Terms
// live once in a dictionary and are named by uint32 IDs; a triple is a
// row of three IDs. Every term keeps one posting list per position — the
// rows that use it as subject, predicate, or object — and a presence map
// finds a row from its ID triple. Each row records its slot in its three
// posting lists, so a removal swaps the last entry into that slot and
// never scans a bucket. A term whose last row goes away leaves the
// dictionary and its ID is reused. Per-predicate counts are posting
// lengths; nothing else is kept in sync.

// Triple positions, the index into row.ids, row.at, and layout.post.
const (
	posS = iota
	posP
	posO
)

// row is one stored triple: its term IDs, and per position the slot it
// holds in that term's posting list.
type row struct {
	ids [3]uint32
	at  [3]uint32
}

// idPattern is a selection pattern over term IDs; an unbound position
// matches every row.
type idPattern struct {
	ids   [3]uint32
	bound [3]bool
}

func (q idPattern) matches(ids [3]uint32) bool {
	return (!q.bound[posS] || q.ids[posS] == ids[posS]) &&
		(!q.bound[posP] || q.ids[posP] == ids[posP]) &&
		(!q.bound[posO] || q.ids[posO] == ids[posO])
}

// layout is the interned triple table. It is not safe for concurrent
// use: the Manager guards it with the store lock.
type layout struct {
	terms []rdf.Term          // id -> term; a freed id holds rdf.Zero
	ids   map[rdf.Term]uint32 // term -> id, live terms only
	free  []uint32            // freed ids, reused before the dictionary grows
	post  [3][][]uint32       // position -> term id -> rows using it there
	rows  []row
	index map[[3]uint32]uint32 // row ids -> row
}

// newLayout returns an empty table sized for about n triples.
func newLayout(n int) layout {
	return layout{
		ids:   make(map[rdf.Term]uint32),
		rows:  make([]row, 0, n),
		index: make(map[[3]uint32]uint32, n),
	}
}

// intern returns the term's ID, adding it to the dictionary if needed.
func (l *layout) intern(t rdf.Term) uint32 {
	if id, ok := l.ids[t]; ok {
		return id
	}
	var id uint32
	if n := len(l.free); n > 0 {
		id = l.free[n-1]
		l.free = l.free[:n-1]
		l.terms[id] = t
	} else {
		id = uint32(len(l.terms))
		l.terms = append(l.terms, t)
		for k := range l.post {
			l.post[k] = append(l.post[k], nil)
		}
	}
	l.ids[t] = id
	return id
}

// release frees a term no row uses any more.
func (l *layout) release(id uint32) {
	t := l.terms[id]
	if t.IsZero() || l.refs(id) > 0 {
		return
	}
	delete(l.ids, t)
	l.terms[id] = rdf.Zero
	for k := range l.post {
		l.post[k][id] = nil
	}
	l.free = append(l.free, id)
}

// key resolves a triple to its ID triple without interning; ok is false
// when some term is not in the dictionary (so the triple is not stored).
func (l *layout) key(t rdf.Triple) (ids [3]uint32, ok bool) {
	if ids[posS], ok = l.ids[t.Subject]; !ok {
		return ids, false
	}
	if ids[posP], ok = l.ids[t.Predicate]; !ok {
		return ids, false
	}
	ids[posO], ok = l.ids[t.Object]
	return ids, ok
}

// has reports whether the triple is stored.
func (l *layout) has(t rdf.Triple) bool {
	ids, ok := l.key(t)
	if !ok {
		return false
	}
	_, ok = l.index[ids]
	return ok
}

// add stores a validated triple, reporting whether it was new.
func (l *layout) add(t rdf.Triple) bool {
	ids := [3]uint32{l.intern(t.Subject), l.intern(t.Predicate), l.intern(t.Object)}
	if _, dup := l.index[ids]; dup {
		return false
	}
	r := uint32(len(l.rows))
	nr := row{ids: ids}
	for k, id := range ids {
		nr.at[k] = uint32(len(l.post[k][id]))
		l.post[k][id] = append(l.post[k][id], r)
	}
	l.rows = append(l.rows, nr)
	l.index[ids] = r
	return true
}

// remove deletes a triple, reporting whether it was stored.
func (l *layout) remove(t rdf.Triple) bool {
	ids, ok := l.key(t)
	if !ok {
		return false
	}
	r, ok := l.index[ids]
	if !ok {
		return false
	}
	l.removeRow(r)
	return true
}

// removeRow deletes row r in O(1): each posting list moves its last
// entry into r's slot, the last row moves into r, and terms left unused
// are released.
func (l *layout) removeRow(r uint32) {
	gone := l.rows[r]
	delete(l.index, gone.ids)
	for k, id := range gone.ids {
		list := l.post[k][id]
		last := len(list) - 1
		moved := list[last]
		list[gone.at[k]] = moved
		l.rows[moved].at[k] = gone.at[k]
		l.post[k][id] = list[:last]
	}
	if end := uint32(len(l.rows) - 1); r != end {
		mv := l.rows[end]
		l.rows[r] = mv
		for k, id := range mv.ids {
			l.post[k][id][mv.at[k]] = r
		}
		l.index[mv.ids] = r
	}
	l.rows = l.rows[:len(l.rows)-1]
	for _, id := range gone.ids {
		l.release(id)
	}
}

// triple materializes row r.
func (l *layout) triple(r uint32) rdf.Triple {
	ids := l.rows[r].ids
	return rdf.Triple{Subject: l.terms[ids[posS]], Predicate: l.terms[ids[posP]], Object: l.terms[ids[posO]]}
}

// postings returns the rows using term t at position k (nil when t is
// not in the dictionary).
func (l *layout) postings(k int, t rdf.Term) []uint32 {
	if id, ok := l.ids[t]; ok {
		return l.post[k][id]
	}
	return nil
}

// plan picks the rows a pattern must examine: the shortest posting list
// among the bound positions (subject, then object, then predicate on
// ties; a term absent from the dictionary has an empty list), or every
// row when nothing is bound (choice indexNone, rows nil).
func (l *layout) plan(p rdf.Pattern) (rows []uint32, choice indexChoice, q idPattern) {
	for _, c := range [3]struct {
		k      int
		term   rdf.Term
		choice indexChoice
	}{{posS, p.Subject, indexSubject}, {posO, p.Object, indexObject}, {posP, p.Predicate, indexPredicate}} {
		if c.term.IsZero() {
			continue
		}
		id, ok := l.ids[c.term]
		q.bound[c.k], q.ids[c.k] = true, id
		var list []uint32
		if ok {
			list = l.post[c.k][id]
		}
		if choice == indexNone || len(list) < len(rows) {
			rows, choice = list, c.choice
		}
	}
	return rows, choice, q
}

// collect appends the triples of the rows a plan examines that match q.
func (l *layout) collect(out []rdf.Triple, rows []uint32, choice indexChoice, q idPattern) []rdf.Triple {
	if choice == indexNone {
		for r := range l.rows {
			out = append(out, l.triple(uint32(r)))
		}
		return out
	}
	for _, r := range rows {
		if q.matches(l.rows[r].ids) {
			out = append(out, l.triple(r))
		}
	}
	return out
}

// count is how many rows a plan examines match q.
func (l *layout) count(rows []uint32, choice indexChoice, q idPattern) int {
	if choice == indexNone {
		return len(l.rows)
	}
	n := 0
	for _, r := range rows {
		if q.matches(l.rows[r].ids) {
			n++
		}
	}
	return n
}

// refs is how many row positions use term id.
func (l *layout) refs(id uint32) int {
	return len(l.post[posS][id]) + len(l.post[posP][id]) + len(l.post[posO][id])
}

// distinct counts the different terms at position k among rows, using
// seen (one bit per term ID, all clear) as scratch and clearing it again.
func (l *layout) distinct(rows []uint32, k int, seen []uint64) int {
	n := 0
	for _, r := range rows {
		id := l.rows[r].ids[k]
		if w, b := id/64, uint64(1)<<(id%64); seen[w]&b == 0 {
			seen[w] |= b
			n++
		}
	}
	for _, r := range rows {
		seen[l.rows[r].ids[k]/64] = 0
	}
	return n
}

// bitset returns clear scratch for distinct.
func (l *layout) bitset() []uint64 { return make([]uint64, len(l.terms)/64+1) }
