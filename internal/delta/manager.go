package delta

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"banks/internal/convert"
	"banks/internal/engine"
	"banks/internal/graph"
	"banks/internal/index"
	"banks/internal/prestige"
	"banks/internal/store"
)

// LogAppender is the write-ahead log seam. The concrete implementation
// lives in internal/wal (which imports this package for the Op type);
// the interface keeps the dependency one-way. Append must make the
// record durable per its configured policy before returning — Apply
// acknowledges a batch only after Append succeeds. Reset empties the
// log once a compaction has made its records redundant.
type LogAppender interface {
	// Append logs one batch stamped (generation, version) and returns
	// the log offset of its end — the read-your-writes token. On error
	// the log must be unchanged (or refusing all further appends):
	// Apply translates an Append error into a rejected, unapplied batch.
	Append(generation, version uint64, ops []Op) (int64, error)
	// Reset empties the log (post-compaction truncation).
	Reset() error
}

// ApplyResult reports one acknowledged mutation batch: the IDs assigned
// to its insert_node ops, the logical state it produced, and where its
// durability record landed.
type ApplyResult struct {
	// Assigned are the NodeIDs of the batch's insert_node ops, in op
	// order (nil when the batch inserted no nodes).
	Assigned []graph.NodeID
	// Generation and DeltaVersion identify the state the batch produced:
	// any later query observing this (generation, delta_version) or
	// newer sees the batch (read-your-writes).
	Generation   uint64
	DeltaVersion uint64
	// WALOffset is the write-ahead-log offset of the batch's record end;
	// -1 when the manager runs without a WAL (ack ≠ durable).
	WALOffset int64
	// DeltaNodes/DeltaEdges/Tombstones are the overlay gauges after the
	// batch.
	DeltaNodes, DeltaEdges, Tombstones int
}

// CompactResult reports one completed compaction.
type CompactResult struct {
	// Generation is the new base generation; Path its snapshot file.
	Generation uint64
	Path       string
	// WALReset reports whether the write-ahead log was truncated (false
	// when no WAL is configured, or when truncation failed — correctness
	// holds either way, replay skips records older than the base).
	WALReset bool
}

// Config wires a Manager to the data it mutates and the engine it swaps.
type Config struct {
	// Engine is the query engine whose Source the manager swaps on every
	// mutation batch and compaction.
	Engine *engine.Engine
	// Graph and Index are the current base (typically aliasing an open
	// snapshot's mapping).
	Graph *graph.Graph
	Index *index.Index
	// Mapping and EdgeTypes are carried through to compacted snapshots
	// verbatim (node IDs are stable, so the base mapping stays valid for
	// base nodes; appended nodes fall outside it and get synthetic
	// labels from the serving layer).
	Mapping   *convert.Mapping
	EdgeTypes *convert.EdgeTypes
	// Generation is the base snapshot's generation (0 for a fresh build
	// or a pre-generation snapshot file).
	Generation uint64
	// SnapshotPath, when non-empty, enables compaction to disk: the
	// compactor writes generation N to SnapshotPath + ".genN" via the
	// snapshot writer's temp+rename path and re-opens it as the new
	// base. Empty disables Compact.
	SnapshotPath string
	// Mode and PrestigeOptions must match how the base's prestige was
	// computed.
	Mode            PrestigeMode
	PrestigeOptions prestige.Options
}

// Stats is a point-in-time snapshot of the manager's state and activity.
type Stats struct {
	// Generation is the current base snapshot generation.
	Generation uint64
	// DeltaVersion counts mutation batches applied since the base.
	DeltaVersion uint64
	// DeltaNodes / DeltaEdges are live overlay inserts; Tombstones
	// counts deleted nodes.
	DeltaNodes, DeltaEdges, Tombstones int
	// MutationsTotal counts ops ever applied (cumulative, survives
	// compaction). MutationBatches counts accepted batches. Batches the
	// WAL refused are counted by neither — they were never applied.
	MutationsTotal, MutationBatches uint64
	// OpsSinceBase counts ops applied since the current base generation
	// was established (reset by compaction) — the -compact-after-ops
	// trigger reads it.
	OpsSinceBase uint64
	// CompactionsTotal counts completed compactions;
	// LastCompactionSeconds is the duration of the latest one and
	// CompactionSecondsSum accumulates all of them (for a Prometheus
	// summary pair with CompactionsTotal).
	CompactionsTotal      uint64
	LastCompactionSeconds float64
	CompactionSecondsSum  float64
}

// Manager owns the live-mutation state of one serving process: the
// current overlay View, the engine Source derived from it, and the
// compaction lifecycle. All mutating entry points serialize on one
// mutex; queries never take it (they read the engine's atomic Source).
type Manager struct {
	cfg Config

	mu   sync.Mutex
	view *View
	// log is the write-ahead log every batch is appended to before
	// acknowledgment (guarded by mu; attached by SetLog). Nil means
	// mutations are memory-only between compactions.
	log LogAppender
	// opsSinceBase counts ops applied onto the current base generation
	// (guarded by mu; reset by install).
	opsSinceBase uint64
	// owned is the snapshot backing the current base iff the manager
	// opened it (a compacted generation). The process-initial snapshot
	// is never owned — closing it would unmap memory the rest of the
	// process (DB handles, explain paths) may still reference.
	owned *store.Snapshot

	mutationsTotal   atomic.Uint64
	mutationBatches  atomic.Uint64
	compactionsTotal atomic.Uint64
	lastCompactBits  atomic.Uint64 // float64 bits of the last duration
	compactSumBits   atomic.Uint64 // float64 bits of the duration sum
}

// NewManager builds a Manager over the engine's initial base state and
// installs the version-0 source (generation stamping begins immediately).
func NewManager(cfg Config) (*Manager, error) {
	if cfg.Engine == nil || cfg.Graph == nil || cfg.Index == nil {
		return nil, fmt.Errorf("delta: manager requires engine, graph and index")
	}
	m := &Manager{
		cfg:  cfg,
		view: NewView(cfg.Graph, cfg.Index, cfg.Generation, cfg.Mode, cfg.PrestigeOptions),
	}
	src, err := engine.NewSource(m.view, m.view.Lookup, cfg.Generation, 0)
	if err != nil {
		return nil, err
	}
	cfg.Engine.Swap(src)
	return m, nil
}

// View returns the current overlay view (for tests and label lookups).
func (m *Manager) View() *View {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.view
}

// SetLog attaches the write-ahead log every later batch is appended to.
// Crash recovery replays the records it read from a log into a manager
// with no log attached — they are already in it — and attaches the log
// afterwards.
func (m *Manager) SetLog(log LogAppender) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.log = log
}

// commit is the one write path: client batches, recovered records and
// replicated records all become the next delta version here, with mu
// held. The new view and source are fully built first, the log append
// (when a log is attached) is the last fallible step, and only after it
// succeeds does the swap make the batch visible and the counters move.
// An error therefore leaves the overlay, the serving source and every
// counter as they were — "not applied, not durable", with no third
// state. offset is the log end after the record; -1 without a log.
func (m *Manager) commit(batch []Op) (assigned []graph.NodeID, offset int64, err error) {
	nv, assigned, err := m.view.Apply(batch)
	if err != nil {
		return nil, -1, err
	}
	src, err := engine.NewSource(nv, nv.Lookup, nv.generation, nv.version)
	if err != nil {
		return nil, -1, err
	}
	offset = -1
	if m.log != nil {
		if offset, err = m.log.Append(nv.generation, nv.version, batch); err != nil {
			return nil, -1, &WALError{Err: err}
		}
	}
	m.cfg.Engine.Swap(src)
	m.view = nv
	m.opsSinceBase += uint64(len(batch))
	m.mutationsTotal.Add(uint64(len(batch)))
	m.mutationBatches.Add(1)
	return assigned, offset, nil
}

// Apply validates and applies one mutation batch as the next delta
// version, appends it to the write-ahead log (when configured), swaps
// the resulting view into the engine, and reports the result. Queries
// in flight keep their pre-batch view; queries arriving after Apply
// returns see the mutations. A *WALError means the batch was valid but
// the log refused it, and it was not applied.
func (m *Manager) Apply(batch []Op) (*ApplyResult, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	assigned, offset, err := m.commit(batch)
	if err != nil {
		return nil, err
	}
	nv := m.view
	return &ApplyResult{
		Assigned:     assigned,
		Generation:   nv.generation,
		DeltaVersion: nv.version,
		WALOffset:    offset,
		DeltaNodes:   nv.DeltaNodes(),
		DeltaEdges:   nv.DeltaEdges(),
		Tombstones:   nv.Tombstones(),
	}, nil
}

// WALError marks a batch the write-ahead log refused: the batch was
// valid but could not be made durable, so it was not applied. Callers
// that distinguish client errors (invalid batch) from durability
// failures unwrap to this type.
type WALError struct{ Err error }

func (e *WALError) Error() string {
	return fmt.Sprintf("delta: batch not applied, write-ahead log append failed: %v", e.Err)
}

func (e *WALError) Unwrap() error { return e.Err }

// Replay applies one logged record — recovered from the local log, or
// shipped from a primary to a follower — under the idempotence rules
// that make both safe against every crash point and re-sent chunk:
//
//   - generation < base: the record predates the base snapshot (a crash
//     between compaction's rename and the WAL truncate, or a primary
//     re-serving pre-compaction history); its effects are in the base —
//     skip.
//   - generation > base: the record needs a newer base; refuse.
//   - version ≤ current: duplicate record; skip.
//   - version > current+1: a record is missing; refuse (applying around
//     a hole would silently reorder history).
//
// The exactly-next record commits like a client batch, so it is logged
// only when a log is attached: recovery replays before the log is
// attached (the records are already in it), while a follower's log grows
// by exactly the records applied here — canonical frame encoding keeps
// it a byte-identical copy of the primary's, which is what makes
// wal_offset a cluster-wide position. offset is the log end after the
// record; -1 when it was skipped or no log is attached.
func (m *Manager) Replay(generation, version uint64, ops []Op) (applied bool, offset int64, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	cur := m.view
	switch {
	case generation < cur.generation:
		return false, -1, nil
	case generation > cur.generation:
		return false, -1, fmt.Errorf("delta: replay: record generation %d is ahead of base generation %d (the log needs a newer base)", generation, cur.generation)
	case version <= cur.version:
		return false, -1, nil
	case version != cur.version+1:
		return false, -1, fmt.Errorf("delta: replay: version jumps %d→%d, a record is missing", cur.version, version)
	}
	if _, offset, err = m.commit(ops); err != nil {
		return false, -1, fmt.Errorf("delta: replay version %d: %w", version, err)
	}
	return true, offset, nil
}

// install is the one base-install path: it makes snap — a compacted or
// adopted generation — the new base at delta version 0, with mu held,
// and takes ownership of it (closing it on error). Every logged record
// is redundant with the new base, so the log is truncated; a failed
// truncation is tolerated (replay skips records older than the base)
// and walReset reports it. The source swap is atomic — new queries bind
// the new base at once — and the previously owned mapping is released
// only once no query can still be reading it.
func (m *Manager) install(ctx context.Context, snap *store.Snapshot) (walReset bool, err error) {
	nv := NewView(snap.Graph, snap.Index, snap.Generation, m.cfg.Mode, m.cfg.PrestigeOptions)
	src, err := engine.NewSource(nv, nv.Lookup, snap.Generation, 0)
	if err != nil {
		snap.Close()
		return false, err
	}
	if m.log != nil {
		walReset = m.log.Reset() == nil
	}
	m.cfg.Engine.Swap(src)

	// A query binds its source while holding a pool slot, so one observed
	// moment of full idleness means none still reads the replaced state.
	// The process-initial snapshot is never owned: other components hold
	// references into it, so it stays mapped for the life of the process.
	if err := m.cfg.Engine.Quiesce(ctx); err != nil {
		// The swap already happened and is valid; the old mapping just
		// cannot be released yet. Leak it rather than risk a read fault.
		m.owned = nil
	} else if m.owned != nil {
		m.owned.Close()
	}
	m.owned = snap
	m.view = nv
	m.opsSinceBase = 0
	return walReset, nil
}

// AdoptBase replaces the manager's base with an externally produced
// snapshot — a follower crossing its primary's compaction boundary
// adopts the fetched generation file instead of materializing its own.
// The overlay is discarded (the new base contains its effects by
// construction: it is the primary's compaction of the same record
// sequence the follower applied), and the base installs exactly as
// after a local compaction. The path must name a snapshot whose
// generation is strictly ahead of the current base.
func (m *Manager) AdoptBase(ctx context.Context, path string) (uint64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	snap, err := store.Open(path, store.Options{})
	if err != nil {
		return 0, fmt.Errorf("delta: open adopted base %s: %w", path, err)
	}
	if snap.Generation <= m.view.generation {
		gen := snap.Generation
		snap.Close()
		return 0, fmt.Errorf("delta: adopted base generation %d is not ahead of current %d", gen, m.view.generation)
	}
	if _, err := m.install(ctx, snap); err != nil {
		return 0, err
	}
	return snap.Generation, nil
}

// CompactPath returns the snapshot path compaction would write for the
// given generation ("" when compaction is disabled).
func (m *Manager) CompactPath(generation uint64) string {
	if m.cfg.SnapshotPath == "" {
		return ""
	}
	return fmt.Sprintf("%s.gen%d", m.cfg.SnapshotPath, generation)
}

// BasePath returns the snapshot file backing the current base: the
// compacted generation file once any compaction (or adoption) has run,
// else the process-initial snapshot path. Empty when the manager runs
// without a snapshot path — such an instance cannot bootstrap
// followers.
func (m *Manager) BasePath() string {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.view.generation == 0 {
		return m.cfg.SnapshotPath
	}
	return m.CompactPath(m.view.generation)
}

// Compact materializes the current overlay into a generation-N+1
// snapshot file, re-opens it, and hot-swaps it in as the new base with
// zero dropped queries (see install). Mutations are blocked for the
// duration; queries are not.
//
// The durability order is: new generation written and fsync'd (the
// snapshot writer syncs before its rename), then verified by re-open,
// and only then is the write-ahead log truncated. A crash anywhere in
// between recovers correctly — before the rename the old base + full
// log replay; after the rename but before the truncate the new base
// skips the log's now-stale records by generation.
func (m *Manager) Compact(ctx context.Context) (*CompactResult, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.cfg.SnapshotPath == "" {
		return nil, fmt.Errorf("delta: compaction disabled (no snapshot path)")
	}
	start := time.Now()

	g, ix, err := m.view.Materialize()
	if err != nil {
		return nil, err
	}
	newGen := m.view.generation + 1
	path := m.CompactPath(newGen)
	if _, err := store.WriteExtrasFile(path, g, ix, m.cfg.Mapping, m.cfg.EdgeTypes, store.Extras{Generation: newGen}); err != nil {
		return nil, fmt.Errorf("delta: write generation %d: %w", newGen, err)
	}
	snap, err := store.Open(path, store.Options{})
	if err != nil {
		return nil, fmt.Errorf("delta: reopen generation %d: %w", newGen, err)
	}
	if snap.Generation != newGen {
		snap.Close()
		return nil, fmt.Errorf("delta: generation %d snapshot reads back as %d", newGen, snap.Generation)
	}
	// The new generation is durable and verified: the logged records are
	// now redundant, so install may truncate the log.
	walReset, err := m.install(ctx, snap)
	if err != nil {
		return nil, err
	}

	dur := time.Since(start).Seconds()
	m.compactionsTotal.Add(1)
	m.lastCompactBits.Store(math.Float64bits(dur))
	for {
		old := m.compactSumBits.Load()
		if m.compactSumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+dur)) {
			break
		}
	}
	return &CompactResult{Generation: newGen, Path: path, WALReset: walReset}, nil
}

// Stats samples the manager's state. The overlay gauges reflect the
// current view; counters are cumulative across compactions.
func (m *Manager) Stats() Stats {
	m.mu.Lock()
	v := m.view
	opsSinceBase := m.opsSinceBase
	m.mu.Unlock()
	return Stats{
		Generation:            v.generation,
		DeltaVersion:          v.version,
		OpsSinceBase:          opsSinceBase,
		DeltaNodes:            v.DeltaNodes(),
		DeltaEdges:            v.DeltaEdges(),
		Tombstones:            v.Tombstones(),
		MutationsTotal:        m.mutationsTotal.Load(),
		MutationBatches:       m.mutationBatches.Load(),
		CompactionsTotal:      m.compactionsTotal.Load(),
		LastCompactionSeconds: math.Float64frombits(m.lastCompactBits.Load()),
		CompactionSecondsSum:  math.Float64frombits(m.compactSumBits.Load()),
	}
}
