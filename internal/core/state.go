package core

// State-cost accounting glue: the per-instance byte estimate and flow
// key the statesize hooks in monitor.go charge, and the StateReport
// snapshots both engines expose behind /state. The tracker itself lives
// in internal/obs/statesize; this file is the part that knows what an
// instance is.

import (
	"unsafe"

	"switchmon/internal/obs/statesize"
)

// What a filed instance occupies, from the layout itself: its row, its
// entry in the stage's signature table, one entry in the key table per
// key, and — at a windowed stage — its deadline-queue entry. Tables run
// between 3/8 and 3/4 full (they double at 3/4) and a deadline queue is
// allowed as many dead entries as live ones before it compacts, so an
// occupied table slot or queue entry is charged at twice its size.
const (
	rowBytes        = int64(unsafe.Sizeof(row{}))
	tableEntryBytes = 2 * int64(unsafe.Sizeof(tabEnt{}))
	deadlineBytes   = 2 * int64(unsafe.Sizeof(deadline{}))
	provRecordBytes = int64(unsafe.Sizeof(ProvRecord{})) + 64 // the record plus its event summary string
)

// filedBytes estimates the resident cost of an instance filed (or about
// to be unfiled) at stage cs. Every input is fixed while the row is
// filed, so remove refunds exactly what enter charged and the bytes
// gauge converges under churn.
func (m *Monitor) filedBytes(id uint32, r *row, cs *compiledStage) int64 {
	n := rowBytes + (1+int64(r.nkeys))*tableEntryBytes
	if cs.st.Window > 0 || cs.st.WindowVar != "" {
		n += deadlineBytes
	}
	if int(id) < len(m.st.hist) {
		n += int64(len(m.st.hist[id])) * provRecordBytes
	}
	return n
}

// flowKey hashes an instance's bound variables (slots [0, nbound)) into
// the key the heavy-hitter sketch attributes state to. It is the
// variables half of compiledProp's signature with no stage tag and no
// packet identities, so one flow keeps one key across the stages that
// bind nothing new and its filings aggregate instead of splintering.
func flowKey(en env, nbound int) uint64 {
	h := fnvOffset
	for i := 0; i < nbound; i++ {
		h = fnvValue(h, en.s.value(en.r, i))
	}
	if h = mix64(h); h == 0 {
		h = 1
	}
	return h
}

// StateReport snapshots the monitor's state-cost accounting and
// cross-references each property against quarantine and the soundness
// ledger. Accounting fields are assembled from atomic loads, so the
// report may be taken from any goroutine; with accounting disabled it
// is empty.
func (m *Monitor) StateReport() statesize.Report {
	r := m.state.Report()
	annotateReport(&r, m.quarantined, m.ledger)
	return r
}

// annotateReport fills the cross-references the tracker cannot know:
// the engine's quarantine mask (matched by slot, which with live
// install/remove is no longer the report position), the ledger's
// first-mark-wins unsound records, and each property's install record
// (epoch, tenant fallback).
func annotateReport(r *statesize.Report, quarMask uint64, led *Ledger) {
	var marks map[string]UnsoundMark
	for _, um := range led.Snapshot() {
		if marks == nil {
			marks = make(map[string]UnsoundMark)
		}
		marks[um.Property] = um
	}
	var installs map[string]InstallRecord
	for _, ir := range led.InstallSnapshot() {
		if installs == nil {
			installs = make(map[string]InstallRecord)
		}
		installs[ir.Property] = ir
	}
	for i := range r.Properties {
		p := &r.Properties[i]
		if p.Slot < maxShardedProperties && quarMask&(uint64(1)<<uint(p.Slot)) != 0 {
			p.Quarantined = true
		}
		if um, ok := marks[p.Property]; ok {
			p.Unsound = um
		}
		if ir, ok := installs[p.Property]; ok {
			p.InstallEpoch = ir.Epoch
			if p.Tenant == "" {
				p.Tenant = ir.Tenant
			}
		}
	}
}
