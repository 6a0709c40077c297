package mark

import (
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/base"
	"repro/internal/rdf"
	"repro/internal/trim"
)

func sampleMarks() []Mark {
	return []Mark{
		{ID: "mark-000001", Address: base.Address{Scheme: "spreadsheet", File: "meds.xls", Path: "Meds!A2"}, Excerpt: "Furosemide"},
		{ID: "mark-000002", Address: base.Address{Scheme: "xml", File: "lab.xml", Path: "/report[1]/panel[1]/result[2]"}, Excerpt: "4.1"},
		{ID: "mark-000003", Address: base.Address{Scheme: "pdf", File: "echo.pdf", Path: "page2/lines5-8"}},
	}
}

func TestSaveLoadTriples(t *testing.T) {
	mm := NewManager()
	for _, m := range sampleMarks() {
		if err := mm.Add(m); err != nil {
			t.Fatal(err)
		}
	}
	store := trim.NewManager()
	if err := mm.SaveTo(store); err != nil {
		t.Fatal(err)
	}
	// Typed classes present (one subclass of Mark per base type, Fig. 3).
	if !store.Has(rdf.T(MarkIRI("mark-000001"), rdf.RDFType, SchemeClass("spreadsheet"))) {
		t.Error("missing SpreadsheetMark typing")
	}
	if !store.Has(rdf.T(MarkIRI("mark-000002"), rdf.RDFType, SchemeClass("xml"))) {
		t.Error("missing XmlMark typing")
	}

	back := NewManager()
	if err := back.LoadFrom(store); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(mm.Marks(), back.Marks()) {
		t.Fatalf("marks differ:\n%v\n%v", mm.Marks(), back.Marks())
	}
}

func TestLoadAdvancesSequence(t *testing.T) {
	mm := NewManager()
	for _, m := range sampleMarks() {
		mm.Add(m)
	}
	store := trim.NewManager()
	if err := mm.SaveTo(store); err != nil {
		t.Fatal(err)
	}
	back := NewManager()
	if err := back.LoadFrom(store); err != nil {
		t.Fatal(err)
	}
	// A fresh creation must not collide with loaded ids.
	app := &echoApp{selection: base.Address{Scheme: "echo", File: "f", Path: "p"}}
	back.RegisterApplication(app)
	m, err := back.CreateFromSelection("echo")
	if err != nil {
		t.Fatal(err)
	}
	if m.ID != "mark-000004" {
		t.Fatalf("new id = %q, want mark-000004", m.ID)
	}
}

func TestSaveToReplacesStale(t *testing.T) {
	mm := NewManager()
	m := sampleMarks()[0]
	mm.Add(m)
	store := trim.NewManager()
	if err := mm.SaveTo(store); err != nil {
		t.Fatal(err)
	}
	// Change the excerpt and save again: no duplicate triples.
	mm.Remove(m.ID)
	m.Excerpt = "Furosemide 40mg"
	mm.Add(m)
	if err := mm.SaveTo(store); err != nil {
		t.Fatal(err)
	}
	excerpts := store.Objects(MarkIRI(m.ID), PropExcerpt)
	if len(excerpts) != 1 || excerpts[0].Value() != "Furosemide 40mg" {
		t.Fatalf("excerpts after re-save = %v", excerpts)
	}
}

func TestLoadFromCorruptStore(t *testing.T) {
	store := trim.NewManager()
	// A mark typed but missing its scheme property.
	iri := MarkIRI("mark-000009")
	store.Create(rdf.T(iri, rdf.RDFType, ClassMark))
	store.Create(rdf.T(iri, PropFile, rdf.String("f")))
	store.Create(rdf.T(iri, PropPath, rdf.String("p")))
	mm := NewManager()
	if err := mm.LoadFrom(store); err == nil {
		t.Fatal("load of scheme-less mark succeeded")
	}
	// A mark resource with a non-standard IRI.
	store2 := trim.NewManager()
	store2.Create(rdf.T(rdf.IRI("http://elsewhere/mark"), rdf.RDFType, ClassMark))
	if err := mm.LoadFrom(store2); err == nil {
		t.Fatal("load of foreign-IRI mark succeeded")
	}
}

func TestMarksSurviveXMLFile(t *testing.T) {
	// Full persistence path: marks -> triples -> XML file -> triples -> marks.
	mm := NewManager()
	for _, m := range sampleMarks() {
		mm.Add(m)
	}
	store := trim.NewManager()
	if err := mm.SaveTo(store); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "marks.xml")
	if err := store.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	store2 := trim.NewManager()
	if err := store2.LoadFile(path); err != nil {
		t.Fatal(err)
	}
	back := NewManager()
	if err := back.LoadFrom(store2); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(mm.Marks(), back.Marks()) {
		t.Fatal("marks did not survive XML persistence")
	}
}

func TestSchemeClass(t *testing.T) {
	if SchemeClass("spreadsheet").Value() != rdf.NSMark+"SpreadsheetMark" {
		t.Errorf("SchemeClass = %v", SchemeClass("spreadsheet"))
	}
	if SchemeClass("") != ClassMark {
		t.Errorf("empty scheme class = %v", SchemeClass(""))
	}
}

// TestSaveToPersistsRemoval: a mark removed from the manager loses its
// triples at the next SaveTo, so a reload does not bring it back.
func TestSaveToPersistsRemoval(t *testing.T) {
	mm := NewManager()
	app := &echoApp{selection: base.Address{Scheme: "echo", File: "f", Path: "1"}}
	if err := mm.RegisterApplication(app); err != nil {
		t.Fatal(err)
	}
	first, err := mm.CreateFromSelection("echo")
	if err != nil {
		t.Fatal(err)
	}
	app.selection.Path = "2"
	second, err := mm.CreateFromSelection("echo")
	if err != nil {
		t.Fatal(err)
	}
	store := trim.NewManager()
	if err := mm.SaveTo(store); err != nil {
		t.Fatal(err)
	}
	if !mm.Remove(first.ID) {
		t.Fatalf("Remove(%s) = false", first.ID)
	}
	if err := mm.SaveTo(store); err != nil {
		t.Fatal(err)
	}
	if n := store.Count(rdf.P(MarkIRI(first.ID), rdf.Zero, rdf.Zero)); n != 0 {
		t.Fatalf("removed mark still has %d triple(s) in the store", n)
	}
	back := NewManager()
	if err := back.LoadFrom(store); err != nil {
		t.Fatal(err)
	}
	got := back.Marks()
	if len(got) != 1 || got[0].ID != second.ID {
		t.Fatalf("reloaded marks = %v, want only %s", got, second.ID)
	}
}
