package core

import (
	"repro/internal/item"
	"repro/internal/schema"
	"repro/internal/value"
)

// store owns the physical representation of the engine's item state: rows,
// the name index, the containment and relationship adjacency, and the frozen
// snapshot machinery. The engine runs on the columnar store (colstore.go);
// the interface lets the randomized differential test substitute a naive
// reference store and drive both with one workload.
//
// Stores are externally synchronized exactly like the engine. Accessors
// that return slices (children, childrenAll, relsOf, and the Ends inside
// rel results) hand out stable snapshots: the caller may retain them across
// subsequent mutations and must not modify them.
type store interface {
	// ---- item state (deleted items included; the engine filters) ----

	// object returns the state of a known object, deleted or not.
	object(id item.ID) (item.Object, bool)
	// rel returns the state of a known relationship; Ends is shared
	// immutable data.
	rel(id item.ID) (item.Relationship, bool)
	// kindOf reports the kind of a known item.
	kindOf(id item.ID) (item.Kind, bool)
	// objectIDs lists every known object ID (deleted included), unordered.
	objectIDs() []item.ID
	// relIDs lists every known relationship ID (deleted included), unordered.
	relIDs() []item.ID
	// visibleObjects lists live objects in ascending ID order (fresh slice).
	visibleObjects() []item.ID
	// visibleRels lists live relationships in ascending ID order (fresh slice).
	visibleRels() []item.ID

	// ---- physical row mutation ----

	// insertObject adds a new object row; the store takes ownership of o.
	// Name/containment linking is the caller's separate step.
	insertObject(o *item.Object)
	// removeObject physically removes an object row (purge, or undo of an
	// insert). The caller has already unlinked it.
	removeObject(id item.ID)
	// insertRel adds a new relationship row; the store takes ownership of r
	// (Ends becomes shared immutable data).
	insertRel(r *item.Relationship)
	// removeRel physically removes a relationship row.
	removeRel(id item.ID)

	setValue(id item.ID, v value.Value)
	setClass(id item.ID, c *schema.Class)
	setAssoc(id item.ID, a *schema.Association)
	setPattern(id item.ID, pat bool)
	setDeleted(id item.ID, del bool)

	// ---- name index (live independent objects) ----

	lookupName(name string) (item.ID, bool)
	setName(name string, id item.ID)
	delName(name string)

	// ---- containment adjacency (live sub-objects) ----

	// children lists the live sub-objects of a parent in one role, index
	// order, as a stable snapshot.
	//
	//seedlint:frozen
	children(parent item.ID, role string) []item.ID
	// childrenAll lists all live sub-objects grouped by role (role-name
	// order, index order within a role), as a stable snapshot.
	//
	//seedlint:frozen
	childrenAll(parent item.ID) []item.ID
	// linkChild inserts a child into its parent's role list keeping index
	// order; index is the child's own positional index.
	linkChild(parent item.ID, role string, child item.ID, index int)
	unlinkChild(parent item.ID, role string, child item.ID)

	// ---- relationship adjacency (live relationships per end object) ----

	// relsOf lists the live relationships of an object in ascending ID
	// order, as a stable snapshot.
	//
	//seedlint:frozen
	relsOf(obj item.ID) []item.ID
	linkRel(obj, rel item.ID)
	unlinkRel(obj, rel item.ID)

	// ---- frozen snapshots ----

	// freezeView returns the immutable snapshot of the current live state,
	// patching the dirtied items over the previous generation when it can.
	// staged means transactions are open, so the store must not read live
	// state wholesale (only the dirty items, which the claim discipline
	// keeps committed).
	freezeView(sch *schema.Schema, dirty map[item.ID]bool, staged bool) frozen
	// rebuildView builds a self-contained snapshot from scratch without
	// touching the incremental bookkeeping (differential tests).
	rebuildView(sch *schema.Schema) frozen
	// invalidate drops the incremental snapshot base: the next freezeView
	// rebuilds from scratch.
	invalidate()
	// setAttrSpecs replaces the attribute index registrations. The caller
	// invalidates afterwards; the store only records the specs for its
	// freeze paths.
	setAttrSpecs(specs []item.AttrSpec)
}

// frozen is the surface every frozen generation implements: item.View plus
// the class, attribute, and inherits-list extensions.
type frozen interface {
	item.View
	ObjectsOfClass(qualified string) ([]item.ID, bool)
	AttrIndex(key item.AttrKey) (*item.AttrIdx, bool)
	InheritsRelationships() []item.ID
}

// newStore creates an empty columnar store carrying the engine's attribute
// index registrations over.
func (en *Engine) newStore() store {
	st := newColStore()
	st.setAttrSpecs(en.attrSpecs)
	return st
}
