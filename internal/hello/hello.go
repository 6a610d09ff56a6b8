// Package hello implements the neighbor-discovery protocol of paper §2:
// each node periodically broadcasts a HELLO beacon carrying its identity,
// current location, and residual energy; receivers maintain a neighbor
// table from which mobility strategies read the previous/next node state
// they need. Entries expire if not refreshed, so departed or dead
// neighbors age out.
package hello

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/geom"
	"repro/internal/sim"
)

// NodeID identifies a node.
type NodeID = int

// Beacon is the HELLO message payload. The paper embeds location and
// residual energy in the periodic HELLO messages of the underlying routing
// protocol (AODV-style).
type Beacon struct {
	ID       NodeID
	Position geom.Point
	Residual float64
}

// Entry is a neighbor-table row: the last known state of a neighbor.
type Entry struct {
	Beacon
	LastSeen sim.Time
}

// Table is a node's neighbor table: rows sorted by neighbor ID, with a
// compact ids column beside the entries for the binary search. A refresh
// overwrites its row in place. The zero value is not usable; use NewTable.
type Table struct {
	ttl     sim.Time
	ids     []NodeID // ascending; ids[i] == entries[i].ID
	entries []Entry
}

// NewTable creates a neighbor table whose entries expire ttl seconds after
// their last refresh. A non-positive ttl disables expiry.
func NewTable(ttl sim.Time) *Table {
	return &Table{ttl: ttl}
}

// Update records a received beacon at the given time.
func (t *Table) Update(b Beacon, now sim.Time) {
	i, ok := slices.BinarySearch(t.ids, b.ID)
	if ok {
		t.entries[i] = Entry{Beacon: b, LastSeen: now}
		return
	}
	t.ids = slices.Insert(t.ids, i, b.ID)
	t.entries = slices.Insert(t.entries, i, Entry{Beacon: b, LastSeen: now})
}

// UpdateBatch records a batch of beacons received at the same time, with
// exactly the effect of calling Update for each in order. bs must be
// sorted by ascending ID; of equal IDs the last wins, as with Update. The
// batch is merged in one linear pass: a batch that only refreshes known
// neighbors writes its rows in place and allocates nothing, and new
// neighbors grow the table once, each existing row moving at most once.
func (t *Table) UpdateBatch(bs []Beacon, now sim.Time) {
	// Pass 1: refresh the rows already present and count the new ones.
	added, i := 0, 0
	for j, b := range bs {
		if j+1 < len(bs) && bs[j+1].ID == b.ID {
			continue // superseded by a later duplicate
		}
		for i < len(t.ids) && t.ids[i] < b.ID {
			i++
		}
		if i < len(t.ids) && t.ids[i] == b.ID {
			t.entries[i] = Entry{Beacon: b, LastSeen: now}
		} else {
			added++
		}
	}
	if added == 0 {
		return
	}
	// Pass 2: extend both columns and merge from the back, so existing
	// rows shift right into place and new rows land in their gaps.
	old := len(t.ids)
	t.ids = slices.Grow(t.ids, added)[:old+added]
	t.entries = slices.Grow(t.entries, added)[:old+added]
	i, k := old-1, old+added-1
	for j := len(bs) - 1; j >= 0 && k > i; j-- {
		b := bs[j]
		if j+1 < len(bs) && bs[j+1].ID == b.ID {
			continue
		}
		for ; i >= 0 && t.ids[i] > b.ID; i, k = i-1, k-1 {
			t.ids[k], t.entries[k] = t.ids[i], t.entries[i]
		}
		if i >= 0 && t.ids[i] == b.ID {
			continue // refreshed in pass 1; shifts with the rows below it
		}
		t.ids[k], t.entries[k] = b.ID, Entry{Beacon: b, LastSeen: now}
		k--
	}
}

// Clone returns an independent copy of the table.
func (t *Table) Clone() *Table {
	return &Table{ttl: t.ttl, ids: slices.Clone(t.ids), entries: slices.Clone(t.entries)}
}

// Get returns the freshest entry for the given neighbor, if present and
// not expired as of now.
func (t *Table) Get(id NodeID, now sim.Time) (Entry, bool) {
	i, ok := slices.BinarySearch(t.ids, id)
	if !ok || t.expired(t.entries[i], now) {
		return Entry{}, false
	}
	return t.entries[i], true
}

// Remove deletes a neighbor entry (e.g. on an explicit failure signal).
func (t *Table) Remove(id NodeID) {
	if i, ok := slices.BinarySearch(t.ids, id); ok {
		t.ids = slices.Delete(t.ids, i, i+1)
		t.entries = slices.Delete(t.entries, i, i+1)
	}
}

// Len returns the number of live entries as of now, purging expired ones.
func (t *Table) Len(now sim.Time) int {
	t.purge(now)
	return len(t.ids)
}

// IDs returns the live neighbor IDs in ascending order as of now.
func (t *Table) IDs(now sim.Time) []NodeID {
	t.purge(now)
	return append(make([]NodeID, 0, len(t.ids)), t.ids...)
}

// Snapshot returns the live entries in ascending ID order as of now.
func (t *Table) Snapshot(now sim.Time) []Entry {
	t.purge(now)
	return append(make([]Entry, 0, len(t.entries)), t.entries...)
}

func (t *Table) expired(e Entry, now sim.Time) bool {
	return t.ttl > 0 && now-e.LastSeen > t.ttl
}

// purge drops expired rows, compacting both columns in order.
func (t *Table) purge(now sim.Time) {
	if t.ttl <= 0 {
		return
	}
	live := 0
	for i, e := range t.entries {
		if !t.expired(e, now) {
			t.ids[live], t.entries[live] = t.ids[i], e
			live++
		}
	}
	t.ids, t.entries = t.ids[:live], t.entries[:live]
}

// SendFunc broadcasts the node's current beacon. It is supplied by the
// network layer; returning an error stops the beaconer (the node died).
type SendFunc func() error

// Beaconer periodically invokes a SendFunc on the simulation scheduler.
type Beaconer struct {
	sched    *sim.Scheduler
	interval sim.Time
	send     SendFunc
	running  bool
	handle   sim.Handle
}

// tickFn is the shared re-arm callback: every Beaconer schedules this one
// long-lived function with itself as the argument, so the per-interval
// tick allocates nothing (see sim.AfterArg).
func tickFn(arg any) {
	// Errors inside scheduled ticks stop the beaconer silently; the
	// node-level death handling owns the failure.
	_ = arg.(*Beaconer).tick()
}

// NewBeaconer creates a beaconer firing every interval seconds.
func NewBeaconer(sched *sim.Scheduler, interval sim.Time, send SendFunc) (*Beaconer, error) {
	if sched == nil {
		return nil, errors.New("hello: nil scheduler")
	}
	if interval <= 0 {
		return nil, fmt.Errorf("hello: non-positive beacon interval %v", interval)
	}
	if send == nil {
		return nil, errors.New("hello: nil send function")
	}
	return &Beaconer{sched: sched, interval: interval, send: send}, nil
}

// Start sends the first beacon immediately and schedules the rest.
// Starting an already-running beaconer is a no-op.
func (b *Beaconer) Start() error {
	if b.running {
		return nil
	}
	b.running = true
	return b.tick()
}

// Stop cancels future beacons.
func (b *Beaconer) Stop() {
	b.running = false
	b.handle.Cancel()
}

// Running reports whether the beaconer is active.
func (b *Beaconer) Running() bool { return b.running }

func (b *Beaconer) tick() error {
	if !b.running {
		return nil
	}
	if err := b.send(); err != nil {
		b.running = false
		return fmt.Errorf("hello: beacon send: %w", err)
	}
	h, err := b.sched.AfterArg(b.interval, tickFn, b)
	if err != nil {
		b.running = false
		return fmt.Errorf("hello: scheduling beacon: %w", err)
	}
	b.handle = h
	return nil
}
