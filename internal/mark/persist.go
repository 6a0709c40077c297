package mark

import (
	"errors"
	"fmt"
	"os"
	"strings"

	"repro/internal/base"
	"repro/internal/obs"
	"repro/internal/rdf"
	"repro/internal/trim"
)

// Marks persist in the same triple store as the superimposed information:
// each mark becomes a resource typed mark:Mark plus a per-scheme subclass
// (mark:SpreadsheetMark, mark:XmlMark, ...), mirroring the "one subclass of
// Mark for each type of base information" design of Fig. 3.

// Vocabulary for mark triples.
var (
	ClassMark   = rdf.IRI(rdf.NSMark + "Mark")
	PropScheme  = rdf.IRI(rdf.NSMark + "scheme")
	PropFile    = rdf.IRI(rdf.NSMark + "file")
	PropPath    = rdf.IRI(rdf.NSMark + "path")
	PropExcerpt = rdf.IRI(rdf.NSMark + "excerpt")
)

// MarkIRI returns the resource IRI used to store the mark with the given id.
func MarkIRI(id string) rdf.Term { return rdf.IRI(rdf.NSMark + "id/" + id) }

// SchemeClass returns the per-scheme mark subclass IRI, e.g.
// mark:SpreadsheetMark for scheme "spreadsheet".
func SchemeClass(scheme string) rdf.Term {
	if scheme == "" {
		return ClassMark
	}
	return rdf.IRI(rdf.NSMark + strings.ToUpper(scheme[:1]) + scheme[1:] + "Mark")
}

// SaveTo writes every stored mark into the triple store in one batch.
// Existing triples for the same mark ids are replaced, and the triples of
// every mark:Mark resource no longer in the manager are removed, so a
// removed mark stays removed after a reload.
func (mm *Manager) SaveTo(store *trim.Manager) error {
	obs.C(obs.NameMarkPersistSaveTotal).Inc()
	b := store.NewBatch()
	marks := mm.Marks()
	live := make(map[rdf.Term]bool, len(marks))
	for _, m := range marks {
		live[MarkIRI(m.ID)] = true
	}
	for _, iri := range store.Subjects(rdf.RDFType, ClassMark) {
		if !live[iri] {
			if err := b.RemoveMatching(rdf.P(iri, rdf.Zero, rdf.Zero)); err != nil {
				return err
			}
		}
	}
	for _, m := range marks {
		iri := MarkIRI(m.ID)
		if err := b.RemoveMatching(rdf.P(iri, rdf.Zero, rdf.Zero)); err != nil {
			return err
		}
		stages := []rdf.Triple{
			rdf.T(iri, rdf.RDFType, ClassMark),
			rdf.T(iri, rdf.RDFType, SchemeClass(m.Scheme())),
			rdf.T(iri, PropScheme, rdf.String(m.Address.Scheme)),
			rdf.T(iri, PropFile, rdf.String(m.Address.File)),
			rdf.T(iri, PropPath, rdf.String(m.Address.Path)),
		}
		if m.Excerpt != "" {
			stages = append(stages, rdf.T(iri, PropExcerpt, rdf.String(m.Excerpt)))
		}
		for _, t := range stages {
			if err := b.Create(t); err != nil {
				return fmt.Errorf("mark: saving %s: %w", m.ID, err)
			}
		}
	}
	return b.Apply()
}

// SaveFile persists the mark set to path by writing the marks into the
// triple store and saving it through trim's shared crash-safe write path
// (atomic temp file + fsync + .bak + rename via internal/durable). Every
// binary that persists marks goes through here so the mark store gets the
// same durability ladder as the superimposed-information store.
func (mm *Manager) SaveFile(store *trim.Manager, path string) error {
	if err := mm.SaveTo(store); err != nil {
		return fmt.Errorf("mark: save %s: %w", path, err)
	}
	return store.SaveFile(path)
}

// LoadFile loads the mark set from path through the triple store,
// inheriting trim's corruption detection and .bak fallback. A missing file
// loads as an empty mark set so first runs need no setup.
func (mm *Manager) LoadFile(store *trim.Manager, path string) error {
	if err := store.LoadFile(path); err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil
		}
		return err
	}
	return mm.LoadFrom(store)
}

// LoadFrom reads every mark:Mark resource from the triple store into the
// manager, replacing its current contents. The sequence counter advances
// past any loaded ids of the standard "mark-NNNNNN" form, so new marks
// never collide with loaded ones.
func (mm *Manager) LoadFrom(store *trim.Manager) error {
	obs.C(obs.NameMarkPersistLoadTotal).Inc()
	loaded := make(map[string]Mark)
	maxSeq := 0
	for _, subj := range store.Subjects(rdf.RDFType, ClassMark) {
		iri := subj.Value()
		if !strings.HasPrefix(iri, rdf.NSMark+"id/") {
			return fmt.Errorf("mark: stored mark %s has unexpected IRI form", iri)
		}
		id := strings.TrimPrefix(iri, rdf.NSMark+"id/")
		m := Mark{ID: id}
		scheme, err := store.One(rdf.P(subj, PropScheme, rdf.Zero))
		if err != nil {
			return fmt.Errorf("mark: loading %s: %w", id, err)
		}
		file, err := store.One(rdf.P(subj, PropFile, rdf.Zero))
		if err != nil {
			return fmt.Errorf("mark: loading %s: %w", id, err)
		}
		path, err := store.One(rdf.P(subj, PropPath, rdf.Zero))
		if err != nil {
			return fmt.Errorf("mark: loading %s: %w", id, err)
		}
		m.Address = base.Address{
			Scheme: scheme.Object.Value(),
			File:   file.Object.Value(),
			Path:   path.Object.Value(),
		}
		if t, err := store.One(rdf.P(subj, PropExcerpt, rdf.Zero)); err == nil {
			m.Excerpt = t.Object.Value()
		}
		loaded[id] = m
		var seq int
		if n, _ := fmt.Sscanf(id, "mark-%d", &seq); n == 1 && seq > maxSeq {
			maxSeq = seq
		}
	}
	mm.mu.Lock()
	defer mm.mu.Unlock()
	mm.marks = loaded
	if maxSeq > mm.nextSeq {
		mm.nextSeq = maxSeq
	}
	return nil
}
