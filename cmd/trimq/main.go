// trimq is a query tool over persisted SLIM stores (XML triple files, or
// N-Triples with -nt). It exposes TRIM's three read capabilities from §4.4:
// selection queries, reachability views, and statistics, plus model listing
// and per-query EXPLAIN reports.
//
// Usage:
//
//	trimq -store pad.xml stats
//	trimq -store pad.xml -json stats
//	trimq -store pad.xml space
//	trimq -store pad.xml -json -probe space
//	trimq -store pad.xml -min-dup 1.2 space
//	trimq -store pad.xml select '?' rdf:type pad:Bundle
//	trimq -store pad.xml explain select '?' rdf:type pad:Bundle
//	trimq -store pad.xml explain view inst:Bundle-000001
//	trimq -store pad.xml view inst:Bundle-000001
//	trimq -store pad.xml models
//	trimq -store pad.xml -serve :9090 stats
//	trimq -store pad.xml trace select '?' rdf:type pad:Bundle
//	trimq -store pad.xml -perfetto trace.json trace view inst:Bundle-000001
//	trimq -store pad.xml -workload queries.txt top
//	trimq -store pad.xml -workload queries.txt -k 5 -json top
//	trimq -store pad.wal -backend wal stats
//	trimq -store pad.wal -backend wal walcheck
//	trimq -store pad.xml -out pad.jsonl export
//	trimq -store pad.xml import pad.jsonl
//
// -backend selects the durability backend the store file uses
// (docs/ROBUSTNESS.md "Durability backends"): xml (default, the
// paper-fidelity snapshot), wal (CRC-framed write-ahead log with snapshot
// compaction and torn-tail recovery), or jsonl (JSON Lines). export writes
// the store as JSON Lines to -out (or stdout); import replaces the store
// with a JSONL file's triples and persists it through the selected
// backend. walcheck inspects a WAL read-only — tail integrity, record
// count, snapshot usability — and exits non-zero on a torn tail, so
// scripts can gate on it. space runs the deep space accountant (total vs
// unique string bytes, duplication ratio, and the bytes the interned
// layout holds in its dictionary, rows, and postings); -probe adds
// benchmark-style allocs/op and B/op probes over the heavy-hitter query
// shapes, and -min-dup exits non-zero when the duplication ratio falls
// below the floor, so scripts can gate on that too.
//
// Query terms are '?' (wildcard), a prefix:local qualified name, a full IRI,
// or a "quoted string" literal. explain runs the query and reports the
// planner's index choice, candidates scanned, matches, and wall time
// instead of the result rows. trace runs the query under a causal trace
// root and prints the reassembled span tree (the store-layer spans carry
// their EXPLAIN plan lines); -perfetto also saves the trace as Chrome
// trace-event JSON for ui.perfetto.dev. top replays the -workload file
// (one select/view/path query per line, # comments allowed) against the
// store and prints the heavy-hitter query-shape sketch — the same ranking
// a served store exposes at /debug/top (docs/OBSERVABILITY.md).
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/metamodel"
	"repro/internal/obs"
	"repro/internal/rdf"
	"repro/internal/trim"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "trimq:", err)
		os.Exit(1)
	}
	if s := obs.ActiveServer(); s != nil {
		fmt.Fprintf(os.Stderr, "trimq: serving diagnostics at %s (interrupt to exit)\n", s.URL())
		obs.AwaitInterrupt(context.Background())
		s.Close()
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("trimq", flag.ContinueOnError)
	store := fs.String("store", "", "path to a persisted store (XML triple file)")
	backend := fs.String("backend", trim.BackendXML,
		"durability backend for -store: "+strings.Join(trim.BackendKinds(), "|"))
	nt := fs.Bool("nt", false, "store file is N-Triples instead of XML")
	outFile := fs.String("out", "", "with export: write to `file` (atomic) instead of stdout")
	jsonOut := fs.Bool("json", false, "emit machine-readable JSON (stats, explain, trace, top)")
	perfetto := fs.String("perfetto", "", "with trace: also save the trace as Chrome trace-event JSON to `file`")
	workload := fs.String("workload", "", "with top: replay this query `file` (one select/view/path per line) before ranking")
	topK := fs.Int("k", 20, "with top: list at most this many query shapes")
	probe := fs.Bool("probe", false, "with space: measure allocs/op and B/op for the heavy-hitter query shapes")
	probeIters := fs.Int("probe-iters", 100, "with space -probe: iterations per query shape")
	minDup := fs.Float64("min-dup", 0, "with space: exit non-zero when the duplication ratio is below `ratio` (0 disables)")
	var cli obs.CLI
	cli.Bind(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *store == "" {
		return fmt.Errorf("-store is required")
	}
	rest := fs.Args()
	if len(rest) == 0 {
		return fmt.Errorf("need a command: stats | space | select S P O | explain select|view|path ... | trace select|view|path ... | view RESOURCE | path START PRED... | top | models | export | import FILE | walcheck")
	}
	if err := cli.Start(); err != nil {
		return err
	}
	err := execute(*store, *backend, *nt, *jsonOut, *perfetto, *workload, *outFile, *topK, *probe, *probeIters, *minDup, rest, out)
	if ferr := cli.Finish(out); err == nil {
		err = ferr
	}
	return err
}

func execute(store, backendKind string, nt bool, jsonOut bool, perfetto, workload, outFile string, topK int, probe bool, probeIters int, minDup float64, rest []string, out io.Writer) error {
	// walcheck never loads the store: it inspects the WAL file read-only, so
	// it is safe to run against a live or damaged store.
	if rest[0] == "walcheck" {
		rep, err := trim.WALCheck(store)
		if err != nil {
			return err
		}
		if jsonOut {
			if err := obs.EncodeJSON(out, rep); err != nil {
				return err
			}
		} else {
			fmt.Fprintln(out, rep)
		}
		if rep.TornBytes > 0 {
			return fmt.Errorf("wal %s has a torn tail (%d byte(s)); recovery will truncate it", store, rep.TornBytes)
		}
		if !rep.SnapshotOK {
			return fmt.Errorf("wal snapshot %s is unusable: %s", rep.SnapshotPath, rep.SnapshotErr)
		}
		return nil
	}

	m := trim.NewManager()
	var b trim.Backend
	if nt {
		if err := m.LoadNTriples(store); err != nil {
			return err
		}
	} else {
		var err error
		b, err = trim.OpenBackend(backendKind, m, store)
		if err != nil {
			return err
		}
		defer b.Close()
		// The WAL backend recovers (snapshot + replay) on open; the snapshot
		// backends load explicitly. import replaces the contents anyway.
		if b.Kind() != trim.BackendWAL && rest[0] != "import" {
			if err := b.Load(); err != nil {
				return err
			}
		}
	}
	// Health probes for -serve: the store is ready once loaded, healthy
	// while its file's directory stays writable (and, with -backend wal,
	// while the log tail and snapshot verify).
	obs.DefaultReady.Register(obs.HealthTrimStore, m.LoadedCheck())
	obs.DefaultHealth.Register(obs.HealthTrimPersist, trim.WritableCheck(store))
	if ws, ok := b.(*trim.WALStore); ok {
		obs.DefaultHealth.Register(obs.HealthTrimWAL, ws.HealthCheck())
	}
	// /debug/space renders the store's deep space report next to the
	// runtime's memory classes when -serve is on.
	obs.RegisterSpaceSource(obs.SpaceSourceTrimStore, func() any { return m.Space() })
	pm := rdf.NewPrefixMap()

	switch rest[0] {
	case "export":
		w := out
		if outFile != "" {
			// Reuse the store's atomic write path so a crash mid-export
			// never leaves a truncated file.
			if err := m.SaveJSONL(outFile); err != nil {
				return err
			}
			fmt.Fprintf(out, "exported %d triple(s) to %s\n", m.Len(), outFile)
			return nil
		}
		return m.ExportJSONL(w)
	case "import":
		if len(rest) != 2 {
			return fmt.Errorf("import needs exactly 1 JSONL file")
		}
		if b == nil {
			return fmt.Errorf("import cannot target an -nt store (pick -backend %s)",
				strings.Join(trim.BackendKinds(), "|"))
		}
		f, err := os.Open(rest[1])
		if err != nil {
			return err
		}
		ierr := m.ImportJSONL(f)
		f.Close()
		if ierr != nil {
			return ierr
		}
		// Bulk replacement bypasses the WAL's mutation capture, so the WAL
		// backend re-anchors with a full snapshot compaction; the snapshot
		// backends just save.
		if ws, ok := b.(*trim.WALStore); ok {
			err = ws.Compact()
		} else {
			err = b.Save()
		}
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "imported %d triple(s) from %s into %s (%s backend)\n",
			m.Len(), rest[1], store, b.Kind())
		return nil
	case "stats":
		if jsonOut {
			return obs.EncodeJSON(out, m.Stats())
		}
		fmt.Fprintln(out, m.Stats())
		return nil
	case "space":
		return space(m, jsonOut, probe, probeIters, minDup, out)
	case "explain":
		return explain(m, pm, jsonOut, rest[1:], out)
	case "trace":
		return traceQuery(m, pm, jsonOut, perfetto, rest[1:], out)
	case "top":
		return topShapes(m, pm, jsonOut, workload, topK, out)
	case "models":
		for _, id := range metamodel.ListModels(m) {
			model, err := metamodel.Decode(m, id)
			if err != nil {
				return err
			}
			fmt.Fprintf(out, "%s (%s): %d constructs, %d connectors\n",
				pm.Shrink(id), model.Label, len(model.Constructs()), len(model.Connectors()))
		}
		return nil
	case "select":
		if len(rest) != 4 {
			return fmt.Errorf("select needs exactly 3 terms (use '?' for wildcards)")
		}
		pat := rdf.Pattern{}
		terms := []*rdf.Term{&pat.Subject, &pat.Predicate, &pat.Object}
		for i, arg := range rest[1:] {
			t, err := parseTerm(pm, arg)
			if err != nil {
				return fmt.Errorf("term %d: %w", i+1, err)
			}
			*terms[i] = t
		}
		results := m.Select(pat)
		for _, t := range results {
			fmt.Fprintf(out, "%s %s %s\n", pm.ShrinkTerm(t.Subject), pm.ShrinkTerm(t.Predicate), pm.ShrinkTerm(t.Object))
		}
		fmt.Fprintf(out, "-- %d triple(s)\n", len(results))
		return nil
	case "view":
		if len(rest) != 2 {
			return fmt.Errorf("view needs exactly 1 resource")
		}
		root, err := parseTerm(pm, rest[1])
		if err != nil {
			return err
		}
		g := m.View(root)
		for _, t := range g.All() {
			fmt.Fprintf(out, "%s %s %s\n", pm.ShrinkTerm(t.Subject), pm.ShrinkTerm(t.Predicate), pm.ShrinkTerm(t.Object))
		}
		fmt.Fprintf(out, "-- view of %s: %d triple(s)\n", pm.ShrinkTerm(root), g.Len())
		return nil
	case "path":
		if len(rest) < 3 {
			return fmt.Errorf("path needs a start resource and at least 1 predicate")
		}
		start, err := parseTerm(pm, rest[1])
		if err != nil {
			return err
		}
		preds := make([]rdf.Term, 0, len(rest)-2)
		for _, arg := range rest[2:] {
			p, err := parseTerm(pm, arg)
			if err != nil {
				return err
			}
			preds = append(preds, p)
		}
		results := m.Path([]rdf.Term{start}, preds...)
		for _, t := range results {
			fmt.Fprintln(out, pm.ShrinkTerm(t))
		}
		fmt.Fprintf(out, "-- %d result(s)\n", len(results))
		return nil
	default:
		return fmt.Errorf("unknown command %q", rest[0])
	}
}

// space runs the deep space accountant (docs/OBSERVABILITY.md "Space
// accounting & alloc probes") and optionally the alloc-per-op probes.
// With -min-dup it exits non-zero when the duplication ratio falls below
// the floor, so scripts can gate on the accountant seeing real sharing.
func space(m *trim.Manager, jsonOut, probe bool, probeIters int, minDup float64, out io.Writer) error {
	sp := m.Space()
	var probes []trim.ProbeResult
	if probe {
		probes = m.ProbeAllocs(context.Background(), probeIters)
	}
	if jsonOut {
		if err := obs.EncodeJSON(out, struct {
			trim.SpaceStats
			Probes []trim.ProbeResult `json:"probes,omitempty"`
		}{sp, probes}); err != nil {
			return err
		}
	} else {
		fmt.Fprintln(out, sp)
		fmt.Fprintf(out, "strings: subject %d/%d unique (%d of %d bytes), predicate %d/%d (%d of %d), object %d/%d (%d of %d)\n",
			sp.Subject.Unique, sp.Subject.Refs, sp.Subject.UniqueBytes, sp.Subject.TotalBytes,
			sp.Predicate.Unique, sp.Predicate.Refs, sp.Predicate.UniqueBytes, sp.Predicate.TotalBytes,
			sp.Object.Unique, sp.Object.Refs, sp.Object.UniqueBytes, sp.Object.TotalBytes)
		fmt.Fprintf(out, "layout: dictionary %d byte(s) for %d term(s), rows %d byte(s), postings %d byte(s)\n",
			sp.Interning.DictionaryBytes, sp.UniqueTerms, sp.Interning.TripleBytes, sp.Interning.IndexBytes)
		for i, ps := range sp.Predicates {
			if i == 10 {
				fmt.Fprintf(out, "... %d more predicate(s)\n", len(sp.Predicates)-i)
				break
			}
			fmt.Fprintf(out, "predicate %-40s %6d triple(s) %10d byte(s) %5.1f%%\n",
				ps.Predicate, ps.Triples, ps.TotalBytes, 100*ps.Share)
		}
		for _, p := range probes {
			fmt.Fprintln(out, p)
		}
	}
	if minDup > 0 && sp.DuplicationRatio < minDup {
		return fmt.Errorf("duplication ratio %.3f is below the -min-dup floor %.3f", sp.DuplicationRatio, minDup)
	}
	return nil
}

// explain runs a select, view, or path query through the EXPLAIN variants
// and prints the execution report instead of the result rows.
func explain(m *trim.Manager, pm *rdf.PrefixMap, jsonOut bool, rest []string, out io.Writer) error {
	if len(rest) == 0 {
		return fmt.Errorf("explain needs a query: explain select S P O | explain view RESOURCE | explain path START PRED...")
	}
	var e trim.Explain
	switch rest[0] {
	case "select":
		if len(rest) != 4 {
			return fmt.Errorf("explain select needs exactly 3 terms (use '?' for wildcards)")
		}
		pat := rdf.Pattern{}
		terms := []*rdf.Term{&pat.Subject, &pat.Predicate, &pat.Object}
		for i, arg := range rest[1:] {
			t, err := parseTerm(pm, arg)
			if err != nil {
				return fmt.Errorf("term %d: %w", i+1, err)
			}
			*terms[i] = t
		}
		_, e = m.SelectExplain(pat)
	case "view":
		if len(rest) != 2 {
			return fmt.Errorf("explain view needs exactly 1 resource")
		}
		root, err := parseTerm(pm, rest[1])
		if err != nil {
			return err
		}
		_, e = m.ViewExplain(root)
	case "path":
		if len(rest) < 3 {
			return fmt.Errorf("explain path needs a start resource and at least 1 predicate")
		}
		start, err := parseTerm(pm, rest[1])
		if err != nil {
			return err
		}
		preds := make([]rdf.Term, 0, len(rest)-2)
		for _, arg := range rest[2:] {
			p, err := parseTerm(pm, arg)
			if err != nil {
				return err
			}
			preds = append(preds, p)
		}
		_, e = m.PathExplain([]rdf.Term{start}, preds...)
	default:
		return fmt.Errorf("explain does not support %q (want select, view, or path)", rest[0])
	}
	if jsonOut {
		return obs.EncodeJSON(out, e)
	}
	fmt.Fprintln(out, e)
	return nil
}

// traceQuery runs a select, view, or path query under a fresh trace root
// and prints the reassembled span tree — the end-to-end walkthrough of
// docs/OBSERVABILITY.md in one command. With a perfetto path the trace is
// also saved as Chrome trace-event JSON.
func traceQuery(m *trim.Manager, pm *rdf.PrefixMap, jsonOut bool, perfetto string, rest []string, out io.Writer) error {
	if len(rest) == 0 {
		return fmt.Errorf("trace needs a query: trace select S P O | trace view RESOURCE | trace path START PRED...")
	}
	id, err := runTraced(m, pm, rest)
	if err != nil {
		return err
	}
	ops := obs.DefaultTracer.TraceOps(id)
	if len(ops) == 0 {
		return fmt.Errorf("trace %s recorded no spans (tracer disabled or sampled out)", id)
	}
	if perfetto != "" {
		f, err := os.Create(perfetto)
		if err != nil {
			return err
		}
		werr := obs.WriteTraceEvents(f, ops)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return werr
		}
		fmt.Fprintf(out, "wrote %d trace event(s) to %s\n", len(ops), perfetto)
	}
	if jsonOut {
		return obs.EncodeJSON(out, obs.DefaultTracer.Trace(id))
	}
	return obs.DefaultTracer.Trace(id).WriteText(out)
}

// topShapes is the heavy-hitter profiler CLI: it optionally replays a
// workload file through the store's instrumented query paths, then prints
// the process-wide query-shape sketch ranked by count. The sketch is keyed
// by shape (op kind, bound-position mask, index choice, predicate), so a
// thousand selects over the same pattern collapse into one ranked row.
func topShapes(m *trim.Manager, pm *rdf.PrefixMap, jsonOut bool, workload string, k int, out io.Writer) error {
	if workload != "" {
		if err := replayWorkload(m, pm, workload); err != nil {
			return err
		}
	}
	if jsonOut {
		return obs.EncodeJSON(out, obs.DefaultTopQueries)
	}
	entries := obs.DefaultTopQueries.Top(k)
	for i, e := range entries {
		fmt.Fprintf(out, "%3d  %8d  ±%-5d  %s\n", i+1, e.Count, e.ErrBound, e.Key)
	}
	fmt.Fprintf(out, "-- %d shape(s), %d op(s) recorded, %d evicted\n",
		len(entries), obs.DefaultTopQueries.Recorded(), obs.DefaultTopQueries.Evicted())
	return nil
}

// replayWorkload runs every query in the file against the store. Lines use
// the same syntax as the CLI commands (select S P O | view RESOURCE |
// path START PRED...); blank lines and # comments are skipped. Results
// are discarded — only the recorded shapes matter.
func replayWorkload(m *trim.Manager, pm *rdf.PrefixMap, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		if err := replayQuery(m, pm, strings.Fields(text)); err != nil {
			return fmt.Errorf("%s:%d: %w", path, line, err)
		}
	}
	return sc.Err()
}

// replayQuery executes one workload line through the instrumented
// Select/View/Path entry points.
func replayQuery(m *trim.Manager, pm *rdf.PrefixMap, fields []string) error {
	switch fields[0] {
	case "select":
		if len(fields) != 4 {
			return fmt.Errorf("select needs exactly 3 terms (use '?' for wildcards)")
		}
		pat := rdf.Pattern{}
		terms := []*rdf.Term{&pat.Subject, &pat.Predicate, &pat.Object}
		for i, arg := range fields[1:] {
			t, err := parseTerm(pm, arg)
			if err != nil {
				return fmt.Errorf("term %d: %w", i+1, err)
			}
			*terms[i] = t
		}
		m.Select(pat)
	case "view":
		if len(fields) != 2 {
			return fmt.Errorf("view needs exactly 1 resource")
		}
		root, err := parseTerm(pm, fields[1])
		if err != nil {
			return err
		}
		m.View(root)
	case "path":
		if len(fields) < 3 {
			return fmt.Errorf("path needs a start resource and at least 1 predicate")
		}
		start, err := parseTerm(pm, fields[1])
		if err != nil {
			return err
		}
		preds := make([]rdf.Term, 0, len(fields)-2)
		for _, arg := range fields[2:] {
			p, err := parseTerm(pm, arg)
			if err != nil {
				return err
			}
			preds = append(preds, p)
		}
		m.Path([]rdf.Term{start}, preds...)
	default:
		return fmt.Errorf("workload line must start with select, view, or path (got %q)", fields[0])
	}
	return nil
}

// runTraced executes the query under a root span and returns its trace id.
func runTraced(m *trim.Manager, pm *rdf.PrefixMap, rest []string) (id obs.TraceID, err error) {
	ctx, sp := obs.StartCtx(context.Background(), "trimq.trace", strings.Join(rest, " "))
	defer func() { sp.FinishErr(err) }()
	id = sp.TraceID()
	switch rest[0] {
	case "select":
		if len(rest) != 4 {
			return id, fmt.Errorf("trace select needs exactly 3 terms (use '?' for wildcards)")
		}
		pat := rdf.Pattern{}
		terms := []*rdf.Term{&pat.Subject, &pat.Predicate, &pat.Object}
		for i, arg := range rest[1:] {
			t, err := parseTerm(pm, arg)
			if err != nil {
				return id, fmt.Errorf("term %d: %w", i+1, err)
			}
			*terms[i] = t
		}
		m.SelectExplainCtx(ctx, pat)
	case "view":
		if len(rest) != 2 {
			return id, fmt.Errorf("trace view needs exactly 1 resource")
		}
		root, err := parseTerm(pm, rest[1])
		if err != nil {
			return id, err
		}
		m.ViewExplainCtx(ctx, root)
	case "path":
		if len(rest) < 3 {
			return id, fmt.Errorf("trace path needs a start resource and at least 1 predicate")
		}
		start, err := parseTerm(pm, rest[1])
		if err != nil {
			return id, err
		}
		preds := make([]rdf.Term, 0, len(rest)-2)
		for _, arg := range rest[2:] {
			p, err := parseTerm(pm, arg)
			if err != nil {
				return id, err
			}
			preds = append(preds, p)
		}
		m.PathExplainCtx(ctx, []rdf.Term{start}, preds...)
	default:
		return id, fmt.Errorf("trace does not support %q (want select, view, or path)", rest[0])
	}
	return id, nil
}

func parseTerm(pm *rdf.PrefixMap, arg string) (rdf.Term, error) {
	switch {
	case arg == "?":
		return rdf.Zero, nil
	case strings.HasPrefix(arg, `"`) && strings.HasSuffix(arg, `"`) && len(arg) >= 2:
		return rdf.String(arg[1 : len(arg)-1]), nil
	case strings.HasPrefix(arg, "_:"):
		return rdf.Blank(arg[2:]), nil
	default:
		iri, err := pm.Expand(arg)
		if err != nil {
			return rdf.Zero, err
		}
		return rdf.IRI(iri), nil
	}
}
