package trim

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/obs"
	"repro/internal/rdf"
)

// The alloc-per-op probe harness: benchmark-style allocs/op and B/op
// measurements for the heavy-hitter query shapes, run against the live
// store instead of a synthetic fixture. They score the query path's
// allocation cost, and `trimq space -probe` makes them a one-command
// check on any persisted store. Each probe runs under a trace span whose
// detail is the result line, so a -serve'd store journals its own
// allocation profile.

// ProbeResult is one query shape's measurement.
type ProbeResult struct {
	// Op names the shape: select/<mask> (bound-position mask, e.g. s??),
	// view, path, or resolve.
	Op string `json:"op"`
	// Query is the concrete query the probe ran, in CLI syntax.
	Query       string  `json:"query"`
	Iters       int     `json:"iters"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	NsPerOp     float64 `json:"ns_per_op"`
	// Matched is the result-row count of one run, so a cheap probe over an
	// empty bucket is not mistaken for an efficient one.
	Matched int `json:"matched"`
}

// String renders the result in go-bench style.
func (r ProbeResult) String() string {
	return fmt.Sprintf("%-12s %8.1f allocs/op %10.1f B/op %10.1f ns/op  (%d iters, %d matched, %s)",
		r.Op, r.AllocsPerOp, r.BytesPerOp, r.NsPerOp, r.Iters, r.Matched, r.Query)
}

// probeExemplars picks deterministic representative terms under the read
// lock: the subject and object with the largest index buckets, the
// predicate with the most triples, and the smallest triple carrying that
// predicate (for the fully bound probe). ok is false on an empty store.
func (m *Manager) probeExemplars() (subject, predicate, object rdf.Term, exact rdf.Triple, ok bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if len(m.tab.rows) == 0 {
		return rdf.Zero, rdf.Zero, rdf.Zero, rdf.Triple{}, false
	}
	heaviest := func(k int) (best rdf.Term, bestID uint32) {
		bestLen := -1
		for id, rows := range m.tab.post[k] {
			term := m.tab.terms[id]
			if len(rows) > 0 && (len(rows) > bestLen || (len(rows) == bestLen && term.Compare(best) < 0)) {
				best, bestID, bestLen = term, uint32(id), len(rows)
			}
		}
		return best, bestID
	}
	subject, _ = heaviest(posS)
	predicate, pid := heaviest(posP)
	object, _ = heaviest(posO)
	for i, r := range m.tab.post[posP][pid] {
		if t := m.tab.triple(r); i == 0 || t.Compare(exact) < 0 {
			exact = t
		}
	}
	return subject, predicate, object, exact, true
}

// measure runs f iters times pinned to one P and returns per-op allocs,
// bytes, and wall time from the runtime's cumulative counters, the same
// way testing.AllocsPerRun measures. One warm-up run is excluded.
func measure(iters int, f func()) (allocsPerOp, bytesPerOp, nsPerOp float64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < iters; i++ {
		f()
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	n := float64(iters)
	return float64(after.Mallocs-before.Mallocs) / n,
		float64(after.TotalAlloc-before.TotalAlloc) / n,
		float64(elapsed.Nanoseconds()) / n
}

// ProbeAllocs measures allocs/op, B/op, and ns/op for the heavy-hitter
// query shapes against the live store: selects at every bound-position
// mask, a reachability view, a path walk, and a property resolve
// (Objects — the primitive the DMI's attribute reads and the mark layer's
// resolver lookups bottom out in). iters <= 0 defaults to 100. The store
// must not be mutated concurrently if run-to-run comparability matters;
// a nil result means the store is empty.
func (m *Manager) ProbeAllocs(ctx context.Context, iters int) []ProbeResult {
	if iters <= 0 {
		iters = 100
	}
	probes, ok := m.probeTable()
	if !ok {
		return nil
	}
	out := make([]ProbeResult, 0, len(probes))
	for _, p := range probes {
		out = append(out, m.probeOne(ctx, p.op, p.query, iters, p.run))
	}
	return out
}

// probeSpec names one measured query shape and the closure that runs it.
type probeSpec struct {
	op    string
	query string
	run   func() int
}

// probeTable builds the measured closures. It deliberately holds no
// context: the closures call the span-free query variants so the
// measurement reads the raw resolution path — a per-iteration span would
// charge the tracer's allocations to the store.
func (m *Manager) probeTable() ([]probeSpec, bool) {
	subject, predicate, object, exact, ok := m.probeExemplars()
	if !ok {
		return nil, false
	}
	return []probeSpec{
		{"select/spo", fmt.Sprintf("select %s %s %s", exact.Subject, exact.Predicate, exact.Object),
			func() int { return len(m.Select(rdf.P(exact.Subject, exact.Predicate, exact.Object))) }},
		{"select/s??", fmt.Sprintf("select %s ? ?", subject),
			func() int { return len(m.Select(rdf.P(subject, rdf.Zero, rdf.Zero))) }},
		{"select/?p?", fmt.Sprintf("select ? %s ?", predicate),
			func() int { return len(m.Select(rdf.P(rdf.Zero, predicate, rdf.Zero))) }},
		{"select/??o", fmt.Sprintf("select ? ? %s", object),
			func() int { return len(m.Select(rdf.P(rdf.Zero, rdf.Zero, object))) }},
		{"select/???", "select ? ? ?",
			func() int { return len(m.Select(rdf.P(rdf.Zero, rdf.Zero, rdf.Zero))) }},
		{"view", fmt.Sprintf("view %s", subject),
			func() int { return m.View(subject).Len() }},
		{"path", fmt.Sprintf("path %s %s", subject, predicate),
			func() int { return len(m.Path([]rdf.Term{subject}, predicate)) }},
		{"resolve", fmt.Sprintf("resolve %s %s", exact.Subject, exact.Predicate),
			func() int { return len(m.Objects(exact.Subject, exact.Predicate)) }},
	}, true
}

// probeOne measures one shape under its own trace span; the result line
// becomes the span detail, so the journal and trace tree carry the
// measured numbers, not just the fact a probe ran.
func (m *Manager) probeOne(ctx context.Context, op, query string, iters int, run func() int) ProbeResult {
	start := time.Now()
	_, sp := obs.StartCtx(ctx, "trim.probe", op)
	defer sp.Finish()
	r := ProbeResult{Op: op, Query: query, Iters: iters, Matched: run()}
	r.AllocsPerOp, r.BytesPerOp, r.NsPerOp = measure(iters, func() { run() })
	sp.SetDetail(r.String())
	mProbeTotal.Inc()
	mProbeNS.ObserveSince(start)
	return r
}
