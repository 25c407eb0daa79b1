package sim

import (
	"fmt"
	"os"
	"sync"

	"repro/internal/analysis"
	"repro/internal/cache"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/dram"
	"repro/internal/memctrl"
	"repro/internal/prof"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/workload"
)

// The circuit model's numeric integrations (the lowered timing class for
// a caching duration, the NUAT age bins) are pure functions of the model
// parameters and the spec, yet were re-derived for every System — a
// couple of milliseconds of math.Exp/Pow per config that campaigns pay
// hundreds of times with identical inputs. The caches below memoize
// them; entries are immutable once stored, so concurrently constructed
// Systems (the sweep worker pool) share them safely.
var (
	fastClassCache sync.Map // fastClassKey -> circuit.TimingRow
	nuatBinsCache  sync.Map // nuatBinsKey -> []core.NUATBin (read-only)
)

type fastClassKey struct {
	p    circuit.Params
	spec dram.Spec
	ms   float64
}

type nuatBinsKey struct {
	p    circuit.Params
	spec dram.Spec
}

// cachedTimingsFor memoizes model.TimingsFor.
func cachedTimingsFor(model *circuit.Model, spec dram.Spec, ms float64) (circuit.TimingRow, error) {
	key := fastClassKey{p: model.Params(), spec: spec, ms: ms}
	if row, ok := fastClassCache.Load(key); ok {
		return row.(circuit.TimingRow), nil
	}
	row, err := model.TimingsFor(spec, ms)
	if err != nil {
		return circuit.TimingRow{}, err
	}
	fastClassCache.Store(key, row)
	return row, nil
}

// cachedNUATBins memoizes model.NUATBins for the default bin bounds
// (the only bounds the simulator uses).
func cachedNUATBins(model *circuit.Model, spec dram.Spec) ([]core.NUATBin, error) {
	key := nuatBinsKey{p: model.Params(), spec: spec}
	if bins, ok := nuatBinsCache.Load(key); ok {
		return bins.([]core.NUATBin), nil
	}
	bins, err := model.NUATBins(spec, circuit.DefaultNUATBoundsMs)
	if err != nil {
		return nil, err
	}
	nuatBinsCache.Store(key, bins)
	return bins, nil
}

// System is one assembled simulation instance. Build with New, run with
// Run. A System is single-use: Run may be called once.
type System struct {
	cfg  Config
	spec dram.Spec

	cores  []*cpu.Core
	gens   []*workload.Generator
	llc    *cache.LLC
	ctrls  []*memctrl.Controller
	mapper *memctrl.BitSliceMapper
	rltl   *stats.RLTL

	fastClass dram.TimingClass
	addrMask  uint64

	// collector gathers the opt-in perf-analyzer timelines; nil unless
	// Config.Analysis enables them.
	collector *analysis.Collector

	nowCPU int64 // master clock, CPU cycles
	ran    bool

	// execCycles counts cycles the engine actually executed; the
	// event-driven engine skips the rest. Diagnostic for benchmarks
	// (ExecutedCycles); always equals nowCPU under the stepper.
	execCycles int64
}

// ExecutedCycles reports how many cycles the engine executed component
// ticks for, as opposed to skipping. The ratio against the total cycle
// count is the event-driven engine's work reduction.
func (s *System) ExecutedCycles() int64 { return s.execCycles }

// TotalCycles reports the master clock after Run: every simulated CPU
// cycle including warm-up, identical between engines.
func (s *System) TotalCycles() int64 { return s.nowCPU }

// Per-channel controller queue capacities (Table 1: 64-entry read and
// write queues).
const (
	readQueueCap  = 64
	writeQueueCap = 64
)

// New assembles a system from cfg.
func New(cfg Config) (*System, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	spec, err := specFor(cfg.Standard, cfg.Channels)
	if err != nil {
		return nil, err
	}
	if cfg.FixedRC {
		spec.Timing.RCFromClass = false
	}
	s := &System{
		cfg:      cfg,
		spec:     spec,
		addrMask: spec.Geometry.TotalBytes() - 1,
	}

	mapper, err := memctrl.NewBitSliceMapper(spec.Geometry, cfg.MapperOrder)
	if err != nil {
		return nil, err
	}
	s.mapper = mapper

	if cfg.TrackRLTL {
		intervals := make([]dram.Cycle, len(cfg.RLTLIntervalsMs))
		for i, ms := range cfg.RLTLIntervalsMs {
			intervals[i] = spec.MillisecondsToCycles(ms)
		}
		tracker, err := stats.NewRLTL(intervals, spec.MillisecondsToCycles(cfg.RLTLRefreshMs))
		if err != nil {
			return nil, err
		}
		s.rltl = tracker
	}

	model, err := circuit.NewModel(circuit.DefaultParams())
	if err != nil {
		return nil, err
	}
	fastRow, err := cachedTimingsFor(model, spec, cfg.CCDurationMs)
	if err != nil {
		return nil, err
	}
	s.fastClass = fastRow.Class

	if cfg.Analysis != nil && cfg.Analysis.Enabled {
		s.collector = analysis.NewCollector(*cfg.Analysis, cfg.Channels,
			spec.Geometry.Ranks, spec.Geometry.Banks)
	}
	// ptimer is nil unless Analysis.PhaseProfile was set; every hook
	// site treats a nil timer as a single-branch no-op.
	var ptimer *prof.Timer
	if s.collector != nil {
		ptimer = s.collector.PhaseTimer()
	}

	for ch := 0; ch < cfg.Channels; ch++ {
		mech, err := s.buildMechanism(ch, model)
		if err != nil {
			return nil, err
		}
		var obs memctrl.Observer
		if s.rltl != nil {
			obs = s.rltl
		}
		mcfg := memctrl.Config{
			Spec:          spec,
			Channel:       ch,
			ReadQueueCap:  readQueueCap,
			WriteQueueCap: writeQueueCap,
			RowPolicy:     cfg.RowPolicy,
			WriteHigh:     48,
			WriteLow:      16,
			Mechanism:     mech,
			Observer:      obs,
		}
		// Assign the probe interfaces only from a non-nil collector so
		// the disabled path stays a nil-interface check, never a
		// typed-nil call.
		if s.collector != nil {
			mcfg.Probe = s.collector.Channel(ch)
		}
		mcfg.Profiler = ptimer
		ctrl, err := memctrl.NewController(mcfg)
		if err != nil {
			return nil, err
		}
		if ptimer != nil {
			ctrl.Channel().SetProfiler(ptimer)
		}
		if s.collector != nil {
			probe := s.collector.Channel(ch)
			ctrl.Channel().SetProbe(probe)
			switch m := mech.(type) {
			case *core.ChargeCache:
				m.SetProbe(probe)
			case *core.ChargeCacheNUAT:
				m.SetProbe(probe)
			}
		}
		s.ctrls = append(s.ctrls, ctrl)
	}

	llc, err := cache.New(cfg.LLC, &memBackend{s: s, timer: ptimer})
	if err != nil {
		return nil, err
	}
	if ptimer != nil {
		llc.SetProfiler(ptimer, cfg.ClockRatio)
	}
	s.llc = llc

	if err := s.buildCores(); err != nil {
		return nil, err
	}
	return s, nil
}

// specFor resolves a DRAM standard name to its specification.
func specFor(standard string, channels int) (dram.Spec, error) {
	switch standard {
	case "", "ddr3":
		return dram.DDR31600(channels), nil
	case "lpddr3":
		return dram.LPDDR31600(channels), nil
	case "ddr3l":
		return dram.DDR31600LowVoltage(channels), nil
	default:
		return dram.Spec{}, fmt.Errorf("sim: unknown DRAM standard %q", standard)
	}
}

// buildMechanism constructs one per-channel mechanism instance.
func (s *System) buildMechanism(channel int, model *circuit.Model) (core.Mechanism, error) {
	defaultClass := s.spec.Timing.DefaultClass()
	newCC := func() (*core.ChargeCache, error) {
		return core.NewChargeCache(core.ChargeCacheConfig{
			Entries:      s.cfg.CCEntriesPerCore * len(s.cfg.Workloads),
			Assoc:        s.cfg.CCAssoc,
			Duration:     s.spec.MillisecondsToCycles(s.cfg.CCDurationMs),
			Fast:         s.fastClass,
			Default:      defaultClass,
			Unlimited:    s.cfg.CCUnlimited,
			Invalidation: s.cfg.CCInvalidation,
		})
	}
	newNUAT := func() (*core.NUAT, error) {
		bins, err := cachedNUATBins(model, s.spec)
		if err != nil {
			return nil, err
		}
		return core.NewNUAT(core.NUATConfig{Bins: bins, Default: defaultClass})
	}
	switch s.cfg.Mechanism {
	case Baseline:
		return core.NewBaseline(defaultClass), nil
	case ChargeCache:
		return newCC()
	case NUAT:
		return newNUAT()
	case ChargeCacheNUAT:
		cc, err := newCC()
		if err != nil {
			return nil, err
		}
		n, err := newNUAT()
		if err != nil {
			return nil, err
		}
		return core.NewChargeCacheNUAT(cc, n), nil
	case LLDRAM:
		return core.NewLLDRAM(s.fastClass), nil
	case Custom:
		return s.cfg.CustomMechanism(channel, s.spec, s.fastClass, defaultClass)
	default:
		return nil, fmt.Errorf("sim: unknown mechanism %v", s.cfg.Mechanism)
	}
}

// buildCores constructs one generator + core per workload, each in its
// own address region.
func (s *System) buildCores() error {
	n := len(s.cfg.Workloads)
	region := regionSize(s.spec.Geometry.TotalBytes(), n)
	for i, name := range s.cfg.Workloads {
		reader, err := s.coreTrace(i, name, region)
		if err != nil {
			return err
		}
		c, err := cpu.New(cpu.DefaultConfig(i), reader, &memPort{s: s})
		if err != nil {
			return err
		}
		s.cores = append(s.cores, c)
	}
	return nil
}

// coreTrace builds core i's instruction stream: a trace-file replay when
// configured, the named synthetic generator otherwise.
func (s *System) coreTrace(i int, name string, region uint64) (cpu.TraceReader, error) {
	if len(s.cfg.TraceFiles) > i && s.cfg.TraceFiles[i] != "" {
		f, err := os.Open(s.cfg.TraceFiles[i])
		if err != nil {
			return nil, fmt.Errorf("sim: core %d trace: %w", i, err)
		}
		defer f.Close()
		recs, err := trace.ReadAll(f)
		if err != nil {
			return nil, fmt.Errorf("sim: core %d trace: %w", i, err)
		}
		return trace.NewReplay(recs)
	}
	prof, err := workload.ByName(name)
	if err != nil {
		return nil, err
	}
	gen, err := workload.NewGenerator(prof, s.cfg.Seed+uint64(i)*7919, uint64(i)*region, region)
	if err != nil {
		return nil, err
	}
	s.gens = append(s.gens, gen)
	return gen, nil
}

// regionSize returns the largest power-of-two region such that cores
// regions fit in total bytes.
func regionSize(total uint64, cores int) uint64 {
	r := total / uint64(cores)
	// Round down to a power of two.
	for r&(r-1) != 0 {
		r &= r - 1
	}
	return r
}

// memPort adapts the LLC to the cpu.MemPort interface.
type memPort struct {
	s *System
}

// Load implements cpu.MemPort.
func (p *memPort) Load(addr uint64, coreID int, done func()) bool {
	res := p.s.llc.Access(p.s.nowCPU, addr&p.s.addrMask, false, coreID, done)
	return res != cache.Retry
}

// Store implements cpu.MemPort.
func (p *memPort) Store(addr uint64, coreID int) bool {
	res := p.s.llc.Access(p.s.nowCPU, addr&p.s.addrMask, true, coreID, nil)
	return res != cache.Retry
}

// memBackend adapts the memory controllers to the cache.Backend
// interface. Requests are drawn from a free list and recycled when the
// controller reports completion, so the steady-state access path does
// not allocate: each pool entry carries a permanently-bound OnComplete
// closure that forwards to the entry's per-use callback and then
// returns the entry to the pool.
type memBackend struct {
	s     *System
	free  []*pooledReq
	timer *prof.Timer // nil unless phase profiling is on
}

// pooledReq is one recyclable request plus its per-use completion hook.
type pooledReq struct {
	req    memctrl.Request
	onDone func()
}

// get prepares a pool entry for one request. All request fields the
// controller reads or mutates are reset here.
func (b *memBackend) get(kind memctrl.RequestKind, addr uint64, coord memctrl.Coord, coreID int, onDone func()) *pooledReq {
	var e *pooledReq
	if n := len(b.free); n > 0 {
		e = b.free[n-1]
		b.free[n-1] = nil
		b.free = b.free[:n-1]
	} else {
		e = &pooledReq{}
		entry := e
		e.req.OnComplete = func(at dram.Cycle) {
			var pt int64
			if b.timer != nil {
				pt = b.timer.Begin(prof.Callback)
			}
			if entry.onDone != nil {
				entry.onDone()
				entry.onDone = nil
			}
			b.free = append(b.free, entry)
			if b.timer != nil {
				b.timer.End(prof.Callback, pt, int64(at))
			}
		}
	}
	e.onDone = onDone
	e.req.Reset(kind, addr, coord, coreID)
	return e
}

// ReadLine implements cache.Backend.
func (b *memBackend) ReadLine(addr uint64, coreID int, onDone func()) bool {
	coord := b.s.mapper.Map(addr)
	e := b.get(memctrl.ReadReq, addr, coord, coreID, onDone)
	if !b.s.ctrls[coord.Channel].EnqueueRead(&e.req) {
		e.onDone = nil
		b.free = append(b.free, e)
		return false
	}
	return true
}

// WriteLine implements cache.Backend.
func (b *memBackend) WriteLine(addr uint64, coreID int) bool {
	coord := b.s.mapper.Map(addr)
	e := b.get(memctrl.WriteReq, addr, coord, coreID, nil)
	if !b.s.ctrls[coord.Channel].EnqueueWrite(&e.req) {
		b.free = append(b.free, e)
		return false
	}
	return true
}
