package engine

// State names the link-state representation an engine resolved to.
// Simulators request a dense key space by declaring MaxKey; the engine
// picks the cheapest backing store for that declaration (or the hashed
// fallback when a memory budget rules the dense stores out), and the
// resolved state is observable here so results can record which path
// priced a run.
type State uint8

const (
	// StateHashed backs link queues with a per-shard open-addressed
	// link index (linkIndex). It accepts arbitrary 64-bit keys and pays
	// only for live keys, at the cost of a hash and a probe on every
	// queue access.
	StateHashed State = iota
	// StateDense backs link queues with flat per-shard slices sized to
	// the declared key space up front — the fastest path, selected when
	// MaxKey is small enough that the full table is cheap.
	StateDense
	// StatePaged backs link queues with fixed-size pages allocated on
	// first touch: the declared key space only prices a page directory
	// (8 bytes per 4096 keys) up front, and table memory grows with
	// *touched* keys. Selected for dense declarations beyond the flat
	// table cap, raising the dense path to anything addressable, and
	// for flat-sized ones whose flat table exceeds Options.MemBudget.
	StatePaged
)

// String returns the lower-case state name used in scenario keys and
// JSON artifacts.
func (s State) String() string {
	switch s {
	case StateDense:
		return "dense"
	case StatePaged:
		return "paged"
	default:
		return "hashed"
	}
}

// MemStats reports the memory footprint of a run's link state. The
// engine fills State, Degraded and TableBytes; ArenaBytes is filled by
// the simulator that owns the packet arena, since arenas live outside
// the engine.
type MemStats struct {
	// State is the resolved link-state representation.
	State State
	// Degraded reports that Options.MemBudget demoted the request one
	// or two rungs down the dense → paged → hashed ladder because the
	// layout's fixed footprint exceeded it.
	Degraded bool
	// TableBytes is the link-table footprint: exact slot bytes for the
	// dense and paged states (flat slots, or directory plus touched
	// pages), and for the hashed state a fixed floor charge of
	// hashedEntryBytes per peak live key — not a measurement of the
	// link index, which costs more (see hashedEntryBytes).
	TableBytes int64
	// ArenaBytes is the packet-arena footprint, when the caller
	// supplied one (zero otherwise).
	ArenaBytes int64
}

// queueSlotBytes is the memory cost of one link-table slot: a Link,
// a tail pointer and a length. The table_bytes and b_per_node columns
// of recorded artifacts are priced at this size.
const queueSlotBytes = 16

// hashedEntryBytes is the per-live-key cost charged to StateHashed's
// TableBytes (peakLive × hashedEntryBytes). It was sized for the Go
// map the link index replaced and is kept unchanged so the table_bytes
// and b_per_node columns of recorded artifacts stay byte-identical.
// It is a floor, not an estimate of the index: 24 bytes per slot at
// load between 1/4 and 1/2 is 48 to 96 bytes per peak live key, and
// the index never shrinks.
const hashedEntryBytes = 48

// MemStats reports the engine's resolved state and link-table
// footprint. Call it after Run: the paged page count and the hashed
// peak-live estimate both reflect what the run actually touched. A
// leased engine answers until the next New on its Lease re-arms it.
func (e *Engine) MemStats() MemStats {
	m := MemStats{State: e.state, Degraded: e.degraded}
	switch e.state {
	case StateDense:
		for i := range e.shards {
			m.TableBytes += int64(len(e.shards[i].table)) * queueSlotBytes
		}
	case StatePaged:
		for i := range e.shards {
			sh := &e.shards[i]
			m.TableBytes += int64(len(sh.pages)) * 8
			m.TableBytes += int64(sh.pageCount) * pageSize * queueSlotBytes
		}
	default:
		for i := range e.shards {
			m.TableBytes += int64(e.shards[i].peakLive) * hashedEntryBytes
		}
	}
	return m
}
