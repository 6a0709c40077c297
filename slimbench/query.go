package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/clinical"
	"repro/internal/mark"
	"repro/internal/metamodel"
	"repro/internal/rdf"
	"repro/internal/trim"
)

// query is TRIM queries on one shared store of about 100k triples, shaped
// like many pads, from 2 clients. trim, rdf and obs do almost all the
// work, with no DMI, mark, base or WAL. The store is far larger than the
// last-level cache, and two clients expose the store lock and the read
// path's shared query-shape sketch.
var querySpec = spec{
	name:    "query",
	clients: 2,
	mix: []opClass{
		{"select_s", 40}, {"select_po", 15}, {"view", 15}, {"path", 10}, {"has", 10}, {"write", 10},
	},
	rootLayer: "trim",
	setupRuns: 3,
	tracedOps: 20000,
	warmOps:   2000,
	build:     newQuery,
}

// The store: a bundle tree with fan-out 8, 10 scraps per bundle, each
// scrap with name, position and a mark handle, and one mark per handle
// holding file, path and excerpt strings taken from real clips of a
// clinical environment.
const (
	queryBundles  = 735
	queryFanout   = 8
	queryScraps   = 10 // per bundle
	queryPatients = 20
	queryPool     = 4096 // pre-generated queries per class
)

const (
	qSelectS = iota
	qSelectPO
	qView
	qPath
	qHas
	qWrite
)

type termWant struct {
	t    rdf.Term
	want int
}

type query struct {
	path string

	selS  []termWant // subject, rows
	selPO []termWant // mark file literal, rows
	views []termWant // bundle, triples in its view
	paths []termWant // bundle, scraps of its child bundles
	has   []struct {
		t    rdf.Triple
		want bool
	}

	store   *trim.Manager
	initial int
	loads   []float64 // LoadFile seconds per setup
	bpt     []float64 // live-heap bytes per loaded triple per setup
}

var (
	pNested  = rdf.IRI(metamodel.ConnNestedBundle)
	pContent = rdf.IRI(metamodel.ConnBundleContent)
)

func bundleIRI(i int) rdf.Term { return rdf.IRI(fmt.Sprintf("%sBundle-%06d", rdf.NSInst, i+1)) }

// newQuery generates the store, saves it once with SaveFile, and draws the
// query pools with the cardinality each query must return, from a
// reference walk over the generated triples.
func newQuery(cfg config, _ *recorder) (workload, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	q := &query{path: filepath.Join(cfg.dir, "store.xml")}

	pool, err := markPool(cfg.seed)
	if err != nil {
		return nil, err
	}
	m := trim.NewManager()
	if err := metamodel.Encode(metamodel.ExtendedBundleScrapModel(), m); err != nil {
		return nil, err
	}
	all := m.Select(rdf.P(rdf.Zero, rdf.Zero, rdf.Zero))
	files := map[string]bool{}
	add := func(s, p, o rdf.Term) { all = append(all, rdf.T(s, p, o)) }
	typ := func(c string) rdf.Term { return rdf.IRI(c) }
	pos := func() rdf.Term { return rdf.String(randPos(rng).String()) }
	pad := rdf.IRI(rdf.NSInst + "SlimPad-000001")
	add(pad, rdf.RDFType, typ(metamodel.ConstructSlimPad))
	add(pad, rdf.IRI(metamodel.ConnPadName), rdf.String("Ward census"))
	add(pad, rdf.IRI(metamodel.ConnRootBundle), bundleIRI(0))
	n := 0
	for b := 0; b < queryBundles; b++ {
		id := bundleIRI(b)
		add(id, rdf.RDFType, typ(metamodel.ConstructBundle))
		add(id, rdf.IRI(metamodel.ConnBundleName), rdf.String(fmt.Sprintf("Bed %d", b+1)))
		add(id, rdf.IRI(metamodel.ConnBundlePos), pos())
		add(id, rdf.IRI(metamodel.ConnBundleWidth), rdf.Integer(int64(200+rng.Intn(400))))
		add(id, rdf.IRI(metamodel.ConnBundleHeight), rdf.Integer(int64(100+rng.Intn(400))))
		if b > 0 {
			add(bundleIRI((b-1)/queryFanout), pNested, id)
		}
		for k := 0; k < queryScraps; k++ {
			n++
			pm := pool[rng.Intn(len(pool))]
			scrap := rdf.IRI(fmt.Sprintf("%sScrap-%06d", rdf.NSInst, n))
			handle := rdf.IRI(fmt.Sprintf("%sMarkHandle-%06d", rdf.NSInst, n))
			markID := fmt.Sprintf("mark-%06d", n)
			add(id, pContent, scrap)
			add(scrap, rdf.RDFType, typ(metamodel.ConstructScrap))
			add(scrap, rdf.IRI(metamodel.ConnScrapName), rdf.String(pm.Excerpt))
			add(scrap, rdf.IRI(metamodel.ConnScrapPos), pos())
			add(scrap, rdf.IRI(metamodel.ConnScrapMark), handle)
			add(handle, rdf.RDFType, typ(metamodel.ConstructMarkHandle))
			add(handle, metamodel.PropMarkID, rdf.String(markID))
			mi := mark.MarkIRI(markID)
			add(mi, rdf.RDFType, mark.ClassMark)
			add(mi, rdf.RDFType, mark.SchemeClass(pm.Scheme()))
			add(mi, mark.PropScheme, rdf.String(pm.Address.Scheme))
			add(mi, mark.PropFile, rdf.String(pm.Address.File))
			add(mi, mark.PropPath, rdf.String(pm.Address.Path))
			add(mi, mark.PropExcerpt, rdf.String(pm.Excerpt))
			files[pm.Address.File] = true
		}
	}
	b := m.NewBatch()
	for _, t := range all {
		if err := b.Create(t); err != nil {
			return nil, err
		}
	}
	if err := b.Apply(); err != nil {
		return nil, err
	}
	if m.Len() != len(all) {
		return nil, fmt.Errorf("generated %d distinct triples, store holds %d", len(all), m.Len())
	}
	if err := m.SaveFile(q.path); err != nil {
		return nil, err
	}
	m = nil
	q.draw(rng, all, sortedKeys(files))
	return q, nil
}

// markPool clips every element of a clinical environment once, giving the
// generator real mark addresses and excerpts.
func markPool(seed int64) ([]mark.Mark, error) {
	env, err := clinical.NewEnvironmentHistory(seed, queryPatients, 3)
	if err != nil {
		return nil, err
	}
	var pool []mark.Mark
	for p := range env.Patients {
		for _, t := range targetsOf(env, p, allLabs) {
			if err := t.selectIn(env); err != nil {
				return nil, err
			}
			m, err := env.Marks.CreateFromSelection(t.scheme)
			if err != nil {
				return nil, err
			}
			pool = append(pool, m)
		}
	}
	return pool, nil
}

// draw pre-generates each class's queries with the result size the
// generated data implies: counts for selects, a reference breadth-first
// walk for views, and the tree shape for paths.
func (q *query) draw(rng *rand.Rand, all []rdf.Triple, files []string) {
	bySubject := map[rdf.Term][]rdf.Triple{}
	byFile := map[rdf.Term]int{}
	var subjects []rdf.Term
	for _, t := range all {
		if _, ok := bySubject[t.Subject]; !ok {
			subjects = append(subjects, t.Subject)
		}
		bySubject[t.Subject] = append(bySubject[t.Subject], t)
		if t.Predicate == mark.PropFile {
			byFile[t.Object]++
		}
	}
	view := func(root rdf.Term) int {
		seen := map[rdf.Term]bool{root: true}
		frontier, n := []rdf.Term{root}, 0
		for len(frontier) > 0 {
			node := frontier[0]
			frontier = frontier[1:]
			for _, t := range bySubject[node] {
				n++
				if t.Object.IsResource() && !seen[t.Object] {
					seen[t.Object] = true
					frontier = append(frontier, t.Object)
				}
			}
		}
		return n
	}
	// View roots are bundles three levels down, whose subtrees hold at
	// most one bundle plus its 8 children; path starts have children.
	firstDeep := 1 + queryFanout + queryFanout*queryFanout
	withKids := (queryBundles-2)/queryFanout + 1
	for i := 0; i < queryPool; i++ {
		s := subjects[rng.Intn(len(subjects))]
		q.selS = append(q.selS, termWant{s, len(bySubject[s])})
		f := rdf.String(files[rng.Intn(len(files))])
		q.selPO = append(q.selPO, termWant{f, byFile[f]})
		root := bundleIRI(firstDeep + rng.Intn(queryBundles-firstDeep))
		q.views = append(q.views, termWant{root, view(root)})
		start := rng.Intn(withKids)
		kids := min(queryBundles-1, queryFanout*start+queryFanout) - queryFanout*start
		q.paths = append(q.paths, termWant{bundleIRI(start), kids * queryScraps})
		t := all[rng.Intn(len(all))]
		want := rng.Intn(2) == 0
		if !want {
			t.Object = rdf.String("absent from the store")
		}
		q.has = append(q.has, struct {
			t    rdf.Triple
			want bool
		}{t, want})
	}
}

func (q *query) params() string {
	return fmt.Sprintf("bundles=%d fanout=%d scraps_per_bundle=%d patients=%d pool=%d",
		queryBundles, queryFanout, queryScraps, queryPatients, queryPool)
}

// setup loads the persisted store with trim.Manager.LoadFile, the only
// part it times; the live-heap delta across the load gives bytes per
// triple.
func (q *query) setup() (time.Duration, error) {
	q.store = nil
	runtime.GC()
	h0 := heapAlloc()
	m := trim.NewManager()
	t0 := time.Now()
	if err := m.LoadFile(q.path); err != nil {
		return 0, err
	}
	d := time.Since(t0)
	runtime.GC()
	q.loads = append(q.loads, d.Seconds())
	q.bpt = append(q.bpt, float64(int64(heapAlloc())-int64(h0))/float64(m.Len()))
	q.store, q.initial = m, m.Len()
	return d, nil
}

func (q *query) triples() int { return q.store.Len() }

func (q *query) op(cl *client, class int) error {
	m := q.store
	switch class {
	case qSelectS:
		it := q.selS[cl.rng.Intn(len(q.selS))]
		if got := len(q.sel(cl, rdf.P(it.t, rdf.Zero, rdf.Zero))); got != it.want {
			return wrongf("select %s ? ?: %d rows, want %d", it.t, got, it.want)
		}
	case qSelectPO:
		it := q.selPO[cl.rng.Intn(len(q.selPO))]
		if got := len(q.sel(cl, rdf.P(rdf.Zero, mark.PropFile, it.t))); got != it.want {
			return wrongf("select ? file %s: %d rows, want %d", it.t, got, it.want)
		}
	case qView:
		it := q.views[cl.rng.Intn(len(q.views))]
		var got int
		if cl.traced {
			sp := cl.rec.start("trim.view")
			g, e := m.ViewExplain(it.t)
			sp.Finish()
			cl.rec.explain(e)
			got = g.Len()
		} else {
			got = m.View(it.t).Len()
		}
		if got != it.want {
			return wrongf("view %s: %d triples, want %d", it.t, got, it.want)
		}
	case qPath:
		it := q.paths[cl.rng.Intn(len(q.paths))]
		start := []rdf.Term{it.t}
		var got []rdf.Term
		if cl.traced {
			sp := cl.rec.start("trim.path")
			var e trim.Explain
			got, e = m.PathExplain(start, pNested, pContent)
			sp.Finish()
			cl.rec.explain(e)
		} else {
			got = m.Path(start, pNested, pContent)
		}
		if len(got) != it.want {
			return wrongf("path %s nested content: %d scraps, want %d", it.t, len(got), it.want)
		}
	case qHas:
		it := q.has[cl.rng.Intn(len(q.has))]
		sp := cl.rec.start("trim.has")
		got := m.Has(it.t)
		sp.Finish()
		if got != it.want {
			return wrongf("has %s: %v, want %v", it.t, got, it.want)
		}
	case qWrite:
		cl.seq++
		t := rdf.T(rdf.IRI(fmt.Sprintf("%sBenchWrite-%d-%d", rdf.NSInst, cl.id, cl.seq)),
			rdf.IRI(metamodel.ConnScrapName), rdf.String("scratch"))
		sp := cl.rec.start("trim.create")
		created, err := m.Create(t)
		sp.FinishErr(err)
		if err != nil {
			return err
		}
		sp = cl.rec.start("trim.remove")
		removed := m.Remove(t)
		sp.Finish()
		if !created || !removed {
			return wrongf("write %s: created=%v removed=%v", t, created, removed)
		}
	}
	return nil
}

// sel is Select; a traced run asks for the EXPLAIN too, to count the rows
// the store examined per row it returned.
func (q *query) sel(cl *client, p rdf.Pattern) []rdf.Triple {
	if !cl.traced {
		return q.store.Select(p)
	}
	sp := cl.rec.start("trim.select")
	ts, e := q.store.SelectExplain(p)
	sp.Finish()
	cl.rec.explain(e)
	return ts
}

func (q *query) verify() []string {
	if n := q.store.Len(); n != q.initial {
		return []string{fmt.Sprintf("store holds %d triples after the run, %d after set-up", n, q.initial)}
	}
	return nil
}

func (q *query) ladder(l *ladder) error {
	const n = 2001
	if err := l.time("trim.select_s_us", n, func(i int) error {
		q.store.Select(rdf.P(q.selS[i%len(q.selS)].t, rdf.Zero, rdf.Zero))
		return nil
	}); err != nil {
		return err
	}
	if err := l.time("trim.view_us", n, func(i int) error {
		q.store.View(q.views[i%len(q.views)].t)
		return nil
	}); err != nil {
		return err
	}
	l.set("trim.load_s", medianF(q.loads))
	l.set("trim.bytes_per_triple", medianF(q.bpt))
	return nil
}

func (q *query) close() error { return nil }
