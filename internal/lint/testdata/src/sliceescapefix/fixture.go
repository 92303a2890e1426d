// Fixture for the sliceescape analyzer: zero-copy snapshot slices must
// not be parked in storage that outlives the call frame.
package sliceescapefix

import (
	"elinda/internal/rdf"
	"elinda/internal/store"
)

type holder struct {
	ids []rdf.ID
}

var pkgIDs []rdf.ID

func badStructField(snap *store.Snapshot, h *holder, s, p rdf.ID) {
	h.ids = snap.Objects(s, p) // want `stored in struct field h\.ids`
}

func badPackageVar(snap *store.Snapshot, p, o rdf.ID) {
	pkgIDs = snap.Subjects(p, o) // want `stored in package variable pkgIDs`
}

func badChannelSend(snap *store.Snapshot, ch chan []rdf.ID, class rdf.ID) {
	ch <- snap.SubjectsOfType(class) // want `stored in a channel send`
}

func badCompositeLit(snap *store.Snapshot, s, p rdf.ID) map[string][]rdf.ID {
	return map[string][]rdf.ID{
		"objects": snap.Objects(s, p), // want `stored in a composite literal`
	}
}

func badMapElement(snap *store.Snapshot, m map[rdf.ID][]rdf.ID, s, p rdf.ID) {
	m[s] = snap.Objects(s, p) // want `stored in element m\[s\]`
}

// goodLocalUse keeps the slice inside the call frame.
func goodLocalUse(snap *store.Snapshot, s, p rdf.ID) int {
	objs := snap.Objects(s, p)
	return len(objs)
}

// goodCopy is the sanctioned escape: an explicit copy owns its memory.
func goodCopy(snap *store.Snapshot, h *holder, s, p rdf.ID) {
	h.ids = append([]rdf.ID(nil), snap.Objects(s, p)...)
}

// goodSuppressed documents a deliberate short-lived store.
func goodSuppressed(snap *store.Snapshot, h *holder, s, p rdf.ID) {
	//lint:ignore sliceescape holder is dropped before the snapshot in this scope
	h.ids = snap.Objects(s, p)
}
