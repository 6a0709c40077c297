package trim

import (
	"fmt"
	"time"

	"repro/internal/rdf"
)

// Batch stages a group of creates and removes to be applied atomically.
// DMI operations that touch several triples (Create_Bundle writes the name,
// position, size, and containment triples together) use a batch so readers
// never observe a half-created object.
//
// A Batch is single-use: after Apply or Discard it rejects further staging.
type Batch struct {
	m       *Manager
	creates []rdf.Triple
	removes []rdf.Triple
	// removePatterns are expanded at apply time under the lock, so the batch
	// removes exactly what exists at commit, not at staging.
	removePatterns []rdf.Pattern
	done           bool
}

// NewBatch starts an empty batch against the manager.
func (m *Manager) NewBatch() *Batch {
	return &Batch{m: m}
}

// Create stages a triple insertion. Validation happens immediately so the
// caller learns about malformed triples at staging time.
//
// slimvet:noobs staging only; Apply is the commit point and records
// trim.batch.* for the whole batch.
func (b *Batch) Create(t rdf.Triple) error {
	if b.done {
		return fmt.Errorf("trim: batch already finished")
	}
	if err := t.Validate(); err != nil {
		return fmt.Errorf("trim: batch create: %w", err)
	}
	b.creates = append(b.creates, t)
	return nil
}

// Remove stages an exact-triple removal.
//
// slimvet:noobs staging only; Apply records trim.batch.*.
func (b *Batch) Remove(t rdf.Triple) error {
	if b.done {
		return fmt.Errorf("trim: batch already finished")
	}
	b.removes = append(b.removes, t)
	return nil
}

// RemoveMatching stages removal of all triples matching the pattern at
// apply time.
//
// slimvet:noobs staging only; Apply records trim.batch.*.
func (b *Batch) RemoveMatching(p rdf.Pattern) error {
	if b.done {
		return fmt.Errorf("trim: batch already finished")
	}
	b.removePatterns = append(b.removePatterns, p)
	return nil
}

// Len returns the number of staged operations (patterns count as one each).
func (b *Batch) Len() int {
	return len(b.creates) + len(b.removes) + len(b.removePatterns)
}

// Apply executes all staged operations under one lock acquisition. Removes
// run before creates so a batch can replace a property value. On any error
// every already-applied operation is rolled back and the store is unchanged.
func (b *Batch) Apply() error {
	if b.done {
		return fmt.Errorf("trim: batch already finished")
	}
	b.done = true
	start := time.Now()
	defer mBatchNS.ObserveSince(start)
	mBatchTotal.Inc()
	mBatchOps.Observe(int64(b.Len()))

	m := b.m
	m.mu.Lock()
	err := b.applyLocked(m)
	// Observer delivery happens after unlock; on rollback the staged
	// events include the inverse operations, so observers still see a
	// sequence that nets out to no change.
	events, targets, seqTargets := m.drainLocked()
	m.mu.Unlock()
	m.deliver(targets, seqTargets, events)
	return err
}

// applyLocked runs the staged operations under the caller-held store lock.
func (b *Batch) applyLocked(m *Manager) error {
	// Undo log: inverse operations in reverse order.
	type undo struct {
		t     rdf.Triple
		readd bool // true: re-add removed triple; false: remove added triple
	}
	var log []undo
	rollback := func() {
		for i := len(log) - 1; i >= 0; i-- {
			u := log[i]
			if u.readd {
				// Re-adding a previously stored triple cannot fail validation.
				if _, err := m.createLocked(u.t); err != nil {
					panic(fmt.Sprintf("trim: rollback re-add failed: %v", err))
				}
			} else {
				m.removeLocked(u.t)
			}
		}
	}

	for _, p := range b.removePatterns {
		for _, t := range m.removeMatchingLocked(p) {
			log = append(log, undo{t: t, readd: true})
		}
	}
	for _, t := range b.removes {
		if m.removeLocked(t) {
			log = append(log, undo{t: t, readd: true})
		}
	}
	for _, t := range b.creates {
		added, err := m.createLocked(t)
		if err != nil {
			rollback()
			return fmt.Errorf("trim: batch apply: %w", err)
		}
		if added {
			log = append(log, undo{t: t, readd: false})
		}
	}
	return nil
}

// Discard abandons the batch without touching the store.
func (b *Batch) Discard() {
	b.done = true
	b.creates, b.removes, b.removePatterns = nil, nil, nil
}
