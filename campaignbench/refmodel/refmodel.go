// Package refmodel is an independent reference of the deterministic
// platform: modulo placement and true-LRU replacement, write-through
// no-allocate L1s and a write-back write-allocate L2, charged with the
// simulator's latency set. It shares no code with the simulator; the
// benchmark checks the simulator's cycle counts against it.
package refmodel

import (
	"repro/internal/core"
	"repro/internal/trace"
)

// Config is the geometry and latency set of the modelled platform.
type Config struct {
	LineBytes                          uint64
	L1Sets, L1Ways, L2Sets, L2Ways     int
	L1Hit, L2Hit, Memory, StoreBus, WB uint64
}

// FromSpec reads the geometry and latencies of a platform spec. Only the
// numbers are taken; placement and replacement are always modulo and LRU.
func FromSpec(s core.PlatformSpec) Config {
	return Config{
		LineBytes: uint64(s.LineBytes),
		L1Sets:    s.L1SizeBytes / (s.L1Ways * s.LineBytes), L1Ways: s.L1Ways,
		L2Sets: s.L2SizeBytes / (s.L2Ways * s.LineBytes), L2Ways: s.L2Ways,
		L1Hit: s.Lat.L1Hit, L2Hit: s.Lat.L2Hit, Memory: s.Lat.Memory,
		StoreBus: s.Lat.StoreBus, WB: s.Lat.Writeback,
	}
}

// line is one resident cache line.
type line struct {
	addr  uint64
	dirty bool
}

// level is one cache: per set, lines ordered most recently used first.
type level struct {
	sets [][]line
	ways int
}

func newLevel(sets, ways int) *level {
	return &level{sets: make([][]line, sets), ways: ways}
}

// lookup returns the set index and the way of la, or -1.
func (c *level) lookup(la uint64) (int, int) {
	s := int(la % uint64(len(c.sets)))
	for w, l := range c.sets[s] {
		if l.addr == la {
			return s, w
		}
	}
	return s, -1
}

// touch moves way w of set s to the most recently used position.
func (c *level) touch(s, w int) {
	l := c.sets[s][w]
	copy(c.sets[s][1:w+1], c.sets[s][:w])
	c.sets[s][0] = l
}

// fill inserts la as most recently used and reports whether the evicted
// least recently used line was dirty.
func (c *level) fill(la uint64, dirty bool) (dirtyVictim bool) {
	s := int(la % uint64(len(c.sets)))
	set := c.sets[s]
	if len(set) == c.ways {
		dirtyVictim = set[len(set)-1].dirty
		set = set[:len(set)-1]
	}
	c.sets[s] = append([]line{{addr: la, dirty: dirty}}, set...)
	return dirtyVictim
}

// Model is the platform state of one run.
type Model struct {
	cfg          Config
	il1, dl1, l2 *level
}

// New returns a model with every level empty.
func New(cfg Config) *Model {
	return &Model{cfg: cfg,
		il1: newLevel(cfg.L1Sets, cfg.L1Ways),
		dl1: newLevel(cfg.L1Sets, cfg.L1Ways),
		l2:  newLevel(cfg.L2Sets, cfg.L2Ways)}
}

// read serves an L1 read; an L1 miss fills the L1 and reads the L2.
func (m *Model) read(l1 *level, la uint64) uint64 {
	cyc := m.cfg.L1Hit
	if s, w := l1.lookup(la); w >= 0 {
		l1.touch(s, w)
		return cyc
	}
	l1.fill(la, false)
	cyc += m.cfg.L2Hit
	if s, w := m.l2.lookup(la); w >= 0 {
		m.l2.touch(s, w)
		return cyc
	}
	cyc += m.cfg.Memory
	if m.l2.fill(la, false) {
		cyc += m.cfg.WB
	}
	return cyc
}

// store writes through the DL1 (updating a resident line only) into the
// L2, which allocates on a miss and dirties the line.
func (m *Model) store(la uint64) uint64 {
	cyc := m.cfg.L1Hit + m.cfg.StoreBus
	if s, w := m.dl1.lookup(la); w >= 0 {
		m.dl1.touch(s, w)
	}
	if s, w := m.l2.lookup(la); w >= 0 {
		m.l2.touch(s, w)
		m.l2.sets[s][0].dirty = true
		return cyc
	}
	cyc += m.cfg.Memory
	if m.l2.fill(la, true) {
		cyc += m.cfg.WB
	}
	return cyc
}

// Run replays tr from the model's current state and returns its cycles.
func (m *Model) Run(tr trace.Trace) uint64 {
	var cyc uint64
	for _, a := range tr {
		la := a.Addr / m.cfg.LineBytes
		switch a.Kind {
		case trace.Fetch:
			cyc += m.read(m.il1, la)
		case trace.Load:
			cyc += m.read(m.dl1, la)
		default:
			cyc += m.store(la)
		}
	}
	return cyc
}
