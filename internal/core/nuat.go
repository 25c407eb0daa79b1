package core

import (
	"fmt"
	"sort"

	"repro/internal/dram"
)

// NUATBin maps a time-since-refresh upper bound to the timing class that
// is safe for rows refreshed at most MaxAge ago.
type NUATBin struct {
	MaxAge dram.Cycle
	Class  dram.TimingClass
}

// NUATConfig parameterizes the NUAT mechanism (Shin et al., HPCA 2014),
// the paper's main comparison point. NUAT exploits the charge put into a
// row by the periodic refresh: a row refreshed recently can be activated
// with lowered timings. Unlike ChargeCache it does not react to the
// application's own access stream.
type NUATConfig struct {
	// Bins, ordered by ascending MaxAge. An activation whose
	// time-since-refresh is <= Bins[i].MaxAge (for the smallest such i)
	// uses Bins[i].Class. Ages beyond the last bin use Default.
	Bins []NUATBin

	// Default is the specification timing class.
	Default dram.TimingClass
}

// Validate reports configuration errors.
func (c NUATConfig) Validate() error {
	if len(c.Bins) == 0 {
		return fmt.Errorf("core: NUAT needs at least one bin")
	}
	if !sort.SliceIsSorted(c.Bins, func(i, j int) bool { return c.Bins[i].MaxAge < c.Bins[j].MaxAge }) {
		return fmt.Errorf("core: NUAT bins must be sorted by MaxAge")
	}
	for i, b := range c.Bins {
		if b.MaxAge <= 0 {
			return fmt.Errorf("core: NUAT bin %d has non-positive MaxAge", i)
		}
		if b.Class.RCD <= 0 || b.Class.RAS <= 0 ||
			b.Class.RCD > c.Default.RCD || b.Class.RAS > c.Default.RAS {
			return fmt.Errorf("core: NUAT bin %d class %+v invalid vs default %+v", i, b.Class, c.Default)
		}
		if i > 0 {
			prev := c.Bins[i-1].Class
			if b.Class.RCD < prev.RCD || b.Class.RAS < prev.RAS {
				return fmt.Errorf("core: NUAT bin %d faster than younger bin %d", i, i-1)
			}
		}
	}
	return nil
}

// NUAT serves activations of recently-refreshed rows with lowered
// timings, using the refresh age supplied by the controller's refresh
// engine. A "hit" in the stats is any activation that lands in a bin
// strictly faster than the default class.
type NUAT struct {
	cfg   NUATConfig
	stats Stats
}

// NewNUAT builds a NUAT mechanism; the config must validate.
func NewNUAT(cfg NUATConfig) (*NUAT, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &NUAT{cfg: cfg}, nil
}

// Name implements Mechanism.
func (n *NUAT) Name() string { return "NUAT" }

// OnActivate implements Mechanism.
func (n *NUAT) OnActivate(_ RowKey, _, refreshAge dram.Cycle) dram.TimingClass {
	n.stats.Lookups++
	cls := n.classFor(refreshAge)
	if cls.Lowers(n.cfg.Default) {
		n.stats.Hits++
	}
	return cls
}

func (n *NUAT) classFor(age dram.Cycle) dram.TimingClass {
	for _, b := range n.cfg.Bins {
		if age <= b.MaxAge {
			return b.Class
		}
	}
	return n.cfg.Default
}

// OnPrecharge implements Mechanism.
func (n *NUAT) OnPrecharge(RowKey, dram.Cycle) {}

// Tick implements Mechanism.
func (n *NUAT) Tick(dram.Cycle) {}

// Stats implements Mechanism.
func (n *NUAT) Stats() Stats { return n.stats }

// ResetStats implements Mechanism.
func (n *NUAT) ResetStats() { n.stats = Stats{} }

// ChargeCacheNUAT combines both mechanisms: each activation uses the more
// aggressive of the two classes (Section 6: "ChargeCache + NUAT").
type ChargeCacheNUAT struct {
	cc   *ChargeCache
	nuat *NUAT
}

// NewChargeCacheNUAT combines a ChargeCache and a NUAT instance.
func NewChargeCacheNUAT(cc *ChargeCache, nuat *NUAT) *ChargeCacheNUAT {
	return &ChargeCacheNUAT{cc: cc, nuat: nuat}
}

// Name implements Mechanism.
func (m *ChargeCacheNUAT) Name() string { return "ChargeCache+NUAT" }

// OnActivate implements Mechanism.
func (m *ChargeCacheNUAT) OnActivate(key RowKey, now, refreshAge dram.Cycle) dram.TimingClass {
	return minClass(m.cc.OnActivate(key, now, refreshAge), m.nuat.OnActivate(key, now, refreshAge))
}

// OnPrecharge implements Mechanism.
func (m *ChargeCacheNUAT) OnPrecharge(key RowKey, now dram.Cycle) {
	m.cc.OnPrecharge(key, now)
	m.nuat.OnPrecharge(key, now)
}

// Tick implements Mechanism.
func (m *ChargeCacheNUAT) Tick(now dram.Cycle) {
	m.cc.Tick(now)
	m.nuat.Tick(now)
}

// Stats implements Mechanism: an activation counts as a hit if either
// component lowered its timing.
func (m *ChargeCacheNUAT) Stats() Stats {
	cs, ns := m.cc.Stats(), m.nuat.Stats()
	return Stats{
		Lookups:       cs.Lookups,
		Hits:          maxU64(cs.Hits, ns.Hits),
		Inserts:       cs.Inserts,
		Evictions:     cs.Evictions,
		Invalidations: cs.Invalidations,
	}
}

// ResetStats implements Mechanism.
func (m *ChargeCacheNUAT) ResetStats() {
	m.cc.ResetStats()
	m.nuat.ResetStats()
}

// ChargeCacheStats exposes the ChargeCache component's counters.
func (m *ChargeCacheNUAT) ChargeCacheStats() Stats { return m.cc.Stats() }

// NUATStats exposes the NUAT component's counters.
func (m *ChargeCacheNUAT) NUATStats() Stats { return m.nuat.Stats() }

func maxU64(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
