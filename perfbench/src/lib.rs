//! End-to-end and per-layer benchmark of the Charon reproduction.
//!
//! A *cell* is one workload × platform × collector. The benchmark drives
//! every cell by hand through the library's public API — `System`,
//! `JavaHeap::new`, `Mutator::new`, `Collector::new`, `build_resident`,
//! `superstep`, then the end-of-run checks — in the same order as
//! [`charon_workloads::run_workload`], and times each of those calls from
//! outside the program. Everything runs in one process on one OS thread;
//! the collector's 8 GC threads are simulated. The load is a closed loop of
//! one caller: the next call starts when the previous one returns.
//!
//! * [`workload`] — the fixed cell sets (`graph-ps`, `spark-ps`, `alt-gc`),
//! * [`run_cell`] — one cell, with its host times and simulated outcome,
//! * [`Tracer`] — the spans recorded around each call in a traced run,
//! * [`metrics`] — the end-to-end and per-layer metrics of a set of passes.

pub mod metrics;

use charon_core::device::CharonStats;
use charon_gc::breakdown::Breakdown;
use charon_gc::collector::{Collector, CollectorKind, GcKind};
use charon_gc::freelist::Occupancy;
use charon_gc::system::System;
use charon_gc::verify::graph_signature;
use charon_heap::check::{verify_heap, Violation};
use charon_heap::heap::{HeapConfig, JavaHeap};
use charon_heap::object::MarkState;
use charon_sim::profile::{LatencyProfile, Profiler};
use charon_sim::stats::{CacheStats, MemTrafficStats};
use charon_workloads::mutator::Mutator;
use charon_workloads::spec::{by_short, WorkloadSpec};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// GC threads per cell: `RunOptions::default().gc_threads`, one per
/// simulated core.
const GC_THREADS: usize = 8;

/// The memory system a cell runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Platform {
    /// Host-only GC on DDR4.
    Ddr4,
    /// Host-only GC on HMC (vaults and links, no accelerator).
    Hmc,
    /// The design under study: HMC plus the near-memory GC units.
    Charon,
    /// Zero-latency memory: the functional cost of a cell alone.
    Ideal,
}

impl Platform {
    /// A fresh simulated system of this platform.
    pub fn system(self) -> System {
        match self {
            Platform::Ddr4 => System::ddr4(),
            Platform::Hmc => System::hmc(),
            Platform::Charon => System::charon(),
            Platform::Ideal => System::ideal(),
        }
    }

    /// The label `System::label` gives this platform.
    pub fn label(self) -> &'static str {
        match self {
            Platform::Ddr4 => "DDR4",
            Platform::Hmc => "HMC",
            Platform::Charon => "Charon",
            Platform::Ideal => "Ideal",
        }
    }
}

/// One workload × platform × collector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cell {
    /// Two-letter workload code (`charon_workloads::spec::by_short`).
    pub workload: &'static str,
    /// Memory system.
    pub platform: Platform,
    /// Old-generation collector.
    pub collector: CollectorKind,
}

impl Cell {
    /// `workload/platform/collector`, e.g. `CC/Charon/ps`.
    pub fn id(&self) -> String {
        format!("{}/{}/{}", self.workload, self.platform.label(), self.collector.flag_name())
    }

    /// The cell's workload spec, with `WorkloadSpec::seed` set by `seed`.
    pub fn spec(&self, seed: PassSeed) -> WorkloadSpec {
        let mut spec = by_short(self.workload).expect("cell names a known workload");
        spec.seed = seed.base.unwrap_or(spec.seed).wrapping_add(seed.offset);
        spec
    }
}

/// The seed a pass gives every cell: `base + offset`, where `base`
/// defaults to each spec's own Table 3 seed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PassSeed {
    /// Overrides the spec's seed when set.
    pub base: Option<u64>,
    /// Added to the base.
    pub offset: u64,
}

/// A named, fixed set of cells.
#[derive(Debug, Clone)]
pub struct Workload {
    /// The `--workload` name.
    pub name: &'static str,
    /// The cells of one pass, in run order.
    pub cells: Vec<Cell>,
    /// Passes per round, each at its own seed. Simulated metrics are
    /// means over these seeds, which keeps them steady from one
    /// `--seed` to the next.
    pub seeds_per_round: u64,
}

impl Workload {
    /// The seeds of one round. `--seed n` gives seeds `n·k … n·k + k − 1`
    /// (k = [`Self::seeds_per_round`]), so distinct `n` never share one;
    /// without it the first pass keeps the Table 3 seeds.
    pub fn round_seeds(&self, seed: Option<u64>) -> Vec<PassSeed> {
        let base = seed.map(|n| n.wrapping_mul(self.seeds_per_round));
        (0..self.seeds_per_round).map(|offset| PassSeed { base, offset }).collect()
    }
}

/// Every `--workload` name.
pub const WORKLOAD_NAMES: [&str; 3] = ["graph-ps", "spark-ps", "alt-gc"];

/// The cell set of a workload, or `None` for an unknown name.
pub fn workload(name: &str) -> Option<Workload> {
    use CollectorKind::{Cms, Ms, Ps};
    use Platform::{Charon, Ddr4, Hmc, Ideal};
    let grid = |shorts: &[&'static str], platforms: &[Platform], collector| -> Vec<Cell> {
        shorts
            .iter()
            .flat_map(|&workload| platforms.iter().map(move |&platform| Cell { workload, platform, collector }))
            .collect()
    };
    // A cell's collection count, and with it its GC and host time, changes
    // with the seed (CC runs one or two majors), so a round averages over
    // several seeds.
    let (name, cells, seeds_per_round) = match name {
        // Many small reference-rich objects: 776k–812k offloads per Charon
        // cell, majors dominated by Bitmap Count; most of a matrix's time.
        "graph-ps" => ("graph-ps", grid(&["CC", "PR"], &[Ddr4, Charon, Ideal], Ps), 3),
        // Few large short-lived objects, Copy-dominated minors; host time
        // is mostly the timing model, and HMC covers the vault/link path.
        "spark-ps" => ("spark-ps", grid(&["BS", "KM", "LR", "ALS"], &[Ddr4, Hmc, Charon, Ideal], Ps), 6),
        // The free-list old generation and the concurrent marker, which do
        // no work under `ps`. No g1 cell: g1 KM leaves old→young references
        // on clean cards at most seeds, so `verify_heap` fails it.
        "alt-gc" => {
            let mut cells = grid(&["BS", "PS"], &[Ddr4, Charon], Cms);
            cells.push(Cell { workload: "BS", platform: Charon, collector: Ms });
            ("alt-gc", cells, 6)
        }
        _ => return None,
    };
    Some(Workload { name, cells, seeds_per_round })
}

/// One recorded span: a timed call into a layer.
#[derive(Debug, Clone)]
pub struct Span {
    /// `<layer>.<call>`, or `cell` for the span around a whole cell.
    pub name: &'static str,
    /// Index of the cell within its pass.
    pub cell: usize,
    /// Index of the enclosing span in [`Tracer::spans`].
    pub parent: Option<usize>,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
}

/// Times calls; when on, also keeps every call as a [`Span`] in memory.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    on: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// A call being timed ([`Tracer::begin`] → [`Tracer::end`]).
#[must_use]
pub struct Open {
    at: Instant,
    span: Option<usize>,
}

/// Aggregate of the spans of one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SelfTime {
    /// Spans recorded.
    pub count: u64,
    /// Summed duration, seconds.
    pub total_s: f64,
    /// Summed duration minus the time covered by child spans, seconds.
    pub self_s: f64,
}

impl Tracer {
    /// A tracer that records spans when `on`, and only times calls otherwise.
    pub fn new(on: bool) -> Tracer {
        Tracer { origin: Instant::now(), on, spans: Vec::new(), open: Vec::new() }
    }

    /// Turns span recording on or off for the calls that follow.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// The recorded spans, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Starts timing a call.
    pub fn begin(&mut self, name: &'static str, cell: usize) -> Open {
        let at = Instant::now();
        let span = self.on.then(|| {
            let start_ns = at.duration_since(self.origin).as_nanos() as u64;
            self.spans
                .push(Span { name, cell, parent: self.open.last().copied(), start_ns, end_ns: start_ns });
            self.open.push(self.spans.len() - 1);
            self.spans.len() - 1
        });
        Open { at, span }
    }

    /// Ends a call; returns its duration in seconds.
    pub fn end(&mut self, open: Open) -> f64 {
        let now = Instant::now();
        if let Some(idx) = open.span {
            self.spans[idx].end_ns = now.duration_since(self.origin).as_nanos() as u64;
            // A panic inside the call may have left child spans open.
            if let Some(pos) = self.open.iter().rposition(|&i| i == idx) {
                self.open.truncate(pos);
            }
        }
        now.duration_since(open.at).as_secs_f64()
    }

    /// Duration and self time per span name.
    pub fn self_times(&self) -> BTreeMap<&'static str, SelfTime> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let e = out.entry(s.name).or_default();
            let dur = s.end_ns - s.start_ns;
            e.count += 1;
            e.total_s += dur as f64 * 1e-9;
            e.self_s += dur.saturating_sub(child) as f64 * 1e-9;
        }
        out
    }
}

/// Host time of every timed call of one cell, seconds.
#[derive(Debug, Clone, Default)]
pub struct CellTimes {
    /// `System::{ddr4,hmc,charon,ideal}()`.
    pub system_new: f64,
    /// `JavaHeap::new`.
    pub heap_new: f64,
    /// `Mutator::new`.
    pub mutator_new: f64,
    /// `Collector::new`.
    pub collector_new: f64,
    /// `Mutator::build_resident`.
    pub build_resident: f64,
    /// Each `Mutator::superstep`, with the collections it ran.
    pub steps: Vec<(f64, usize)>,
    /// `check::verify_heap` at the end of the run.
    pub verify_heap: f64,
    /// `verify::graph_signature` at the end of the run.
    pub signature: f64,
}

impl CellTimes {
    /// The four constructors.
    pub fn setup(&self) -> f64 {
        self.system_new + self.heap_new + self.mutator_new + self.collector_new
    }

    /// `build_resident` plus every superstep: the cell's share of `wall_s`.
    pub fn wall(&self) -> f64 {
        self.build_resident + self.steps.iter().map(|s| s.0).sum::<f64>()
    }
}

/// `RunResult::fingerprint`: workload, platform, GC ps, minor count,
/// major count, allocated bytes.
pub type Fingerprint = (&'static str, &'static str, u64, usize, usize, u64);

/// What a cell's simulated run produced. Deterministic at a fixed seed.
#[derive(Debug, Clone)]
pub struct CellSim {
    /// The run's `RunResult::fingerprint`.
    pub fingerprint: Fingerprint,
    /// Useful-work (mutator) time, ps.
    pub mutator_ps: u64,
    /// MinorGC pause total (ps) and count.
    pub minor: (u64, usize),
    /// MajorGC pause total (ps) and count.
    pub major: (u64, usize),
    /// Minor plus major breakdown.
    pub breakdown: Breakdown,
    /// Longest single pause, ps.
    pub pause_max_ps: u64,
    /// GC-ROI energy, joules.
    pub energy_j: f64,
    /// DRAM bytes moved during GC.
    pub gc_dram_bytes: u64,
    /// Fabric traffic at the end of the run.
    pub traffic: MemTrafficStats,
    /// Host L1D, L2 and L3 statistics.
    pub caches: [CacheStats; 3],
    /// Host stream prefetches issued.
    pub prefetches: u64,
    /// Accelerator statistics (Charon only).
    pub device: Option<CharonStats>,
    /// Accelerator bitmap-cache statistics (Charon only).
    pub bitmap_cache: Option<CacheStats>,
    /// Accelerator TLB `(lookups, remote_lookups)` (Charon only).
    pub tlb: Option<(u64, u64)>,
    /// Concurrent-marker cycles started, mark steps, concurrent ps.
    pub concmark: (u64, u64, u64),
    /// Free-list old-generation occupancy at the end of the run.
    pub freelist: Occupancy,
    /// Address-independent signature of the reachable graph.
    pub signature: u64,
    /// Reachable bytes at the end of the run.
    pub live_bytes: u64,
    /// Latency distributions (traced runs only; not part of [`Self::digest`]).
    pub profile: Option<LatencyProfile>,
}

impl CellSim {
    fn collect(gc: &Collector, mutator: &Mutator, signature: u64, live_bytes: u64, profiler: &Profiler) -> CellSim {
        let minor = (gc.gc_time_by_kind(GcKind::Minor).0, gc.count(GcKind::Minor));
        let major = (gc.gc_time_by_kind(GcKind::Major).0, gc.count(GcKind::Major));
        let (l1, l2, l3) = gc.sys.host.cache_stats();
        let device = gc.sys.device.as_ref();
        CellSim {
            fingerprint: (
                mutator.spec().short,
                gc.sys.label(),
                gc.gc_total_time().0,
                minor.1,
                major.1,
                mutator.allocated_bytes,
            ),
            mutator_ps: mutator.mutator_time.0,
            minor,
            major,
            breakdown: gc.breakdown_by_kind(GcKind::Minor) + gc.breakdown_by_kind(GcKind::Major),
            pause_max_ps: gc.events.iter().map(|e| e.wall.0).max().unwrap_or(0),
            energy_j: gc.sys.energy.account().total_j(),
            gc_dram_bytes: gc.events.iter().map(|e| e.dram_bytes).sum(),
            traffic: gc.sys.host.fabric.stats(),
            caches: [l1, l2, l3],
            prefetches: gc.sys.host.prefetches(),
            device: device.map(|d| d.stats().clone()),
            bitmap_cache: device.map(|d| d.bitmap_cache_stats()),
            tlb: device.map(|d| d.tlb_stats()),
            concmark: (gc.concmark.cycles_started, gc.concmark.steps, gc.concmark.conc_time.0),
            freelist: gc.free.occupancy(),
            signature,
            live_bytes,
            profile: profiler.is_enabled().then(|| profiler.snapshot()),
        }
    }

    /// Every simulated value except the latency profile, exactly: two
    /// runs of one cell and seed must give the same digest.
    pub fn digest(&self) -> String {
        format!("{:?}", CellSim { profile: None, ..self.clone() })
    }
}

/// One cell's host times and simulated outcome.
#[derive(Debug, Clone)]
pub struct CellRun {
    /// The cell.
    pub cell: Cell,
    /// Host time of each call.
    pub times: CellTimes,
    /// The simulated outcome, or why the cell failed.
    pub outcome: Result<CellSim, String>,
}

/// Constructs a cell's collector, heap and mutator, timing each
/// constructor into `times`.
fn construct(
    cell: Cell,
    spec: &WorkloadSpec,
    profiler: &Profiler,
    idx: usize,
    tr: &mut Tracer,
    times: &mut CellTimes,
) -> (JavaHeap, Mutator, Collector) {
    let spec = spec.clone();
    let heap_config = HeapConfig::with_heap_bytes(spec.default_heap_bytes());

    let t = tr.begin("sim.system.new", idx);
    let mut sys = cell.platform.system();
    times.system_new = tr.end(t);
    if profiler.is_enabled() {
        sys.set_profiler(profiler.clone());
    }

    let t = tr.begin("heap.new", idx);
    let mut heap = JavaHeap::new(heap_config);
    times.heap_new = tr.end(t);

    let t = tr.begin("workloads.mutator.new", idx);
    let mutator = Mutator::new(spec, &mut heap);
    times.mutator_new = tr.end(t);

    let t = tr.begin("gc.collector.new", idx);
    let mut gc = Collector::new(sys, &heap, GC_THREADS);
    gc.kind = cell.collector;
    times.collector_new = tr.end(t);

    (heap, mutator, gc)
}

/// Runs the constructors of every cell and drops what they built; returns
/// their summed host time. Set-up is cheap beside a pass, so repeating it
/// gives `setup_s` many samples without another pass.
pub fn setup_round(cells: &[Cell], seed: PassSeed) -> f64 {
    let mut tr = Tracer::new(false);
    cells
        .iter()
        .enumerate()
        .map(|(idx, &cell)| {
            let mut times = CellTimes::default();
            let built = construct(cell, &cell.spec(seed), &Profiler::disabled(), idx, &mut tr, &mut times);
            drop(built);
            times.setup()
        })
        .sum()
}

/// Runs one cell end to end: constructors, `build_resident`, every
/// superstep, then the end-of-run checks. A cell fails when it runs out
/// of memory, panics, or leaves a heap that `check::verify_heap` rejects;
/// a failure is returned in [`CellRun::outcome`], never propagated.
/// `profile` installs `Profiler::enabled()` in the cell's system.
pub fn run_cell(cell: Cell, seed: PassSeed, profile: bool, idx: usize, tr: &mut Tracer) -> CellRun {
    let mut times = CellTimes::default();
    let t = tr.begin("cell", idx);
    let outcome =
        catch_unwind(AssertUnwindSafe(|| drive(cell, seed, profile, idx, tr, &mut times))).unwrap_or_else(|payload| {
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default();
            Err(format!("panicked: {msg}"))
        });
    tr.end(t);
    CellRun { cell, times, outcome }
}

fn drive(
    cell: Cell,
    seed: PassSeed,
    profile: bool,
    idx: usize,
    tr: &mut Tracer,
    times: &mut CellTimes,
) -> Result<CellSim, String> {
    let spec = cell.spec(seed);
    let profiler = if profile { Profiler::enabled() } else { Profiler::disabled() };
    let (mut heap, mut mutator, mut gc) = construct(cell, &spec, &profiler, idx, tr, times);

    let t = tr.begin("workloads.mutator.build_resident", idx);
    let built = mutator.build_resident(&mut heap, &mut gc);
    times.build_resident = tr.end(t);
    built.map_err(|e| format!("build_resident: {e}"))?;

    for step in 0..spec.supersteps {
        let before = gc.events.len();
        let t = tr.begin("workloads.mutator.superstep", idx);
        let stepped = mutator.superstep(&mut heap, &mut gc);
        times.steps.push((tr.end(t), gc.events.len() - before));
        stepped.map_err(|e| format!("superstep {step}: {e}"))?;
    }

    let t = tr.begin("heap.verify", idx);
    let violations = verify_heap(&heap);
    times.verify_heap = tr.end(t);
    // A cms run may end with a concurrent mark in flight: its marks are
    // the only headers allowed to be left set.
    let in_flight =
        |v: &Violation| gc.concmark.active && matches!(v, Violation::StaleHeader { state: MarkState::Marked, .. });
    if let Some(v) = violations.iter().find(|v| !in_flight(v)) {
        return Err(format!("verify_heap: {v} ({} violations)", violations.len()));
    }

    let t = tr.begin("gc.verify.signature", idx);
    let signature = graph_signature(&heap);
    times.signature = tr.end(t);
    let (signature, stats) = signature.map_err(|e| format!("graph_signature: {e}"))?;

    Ok(CellSim::collect(&gc, &mutator, signature, stats.bytes, &profiler))
}

/// Runs every cell of a pass, then fails each cell whose reachable-graph
/// signature differs from the first cell of the same workload: timing
/// never changes function, so neither may platform or collector.
pub fn run_pass(cells: &[Cell], seed: PassSeed, profile: bool, tr: &mut Tracer) -> Vec<CellRun> {
    let mut runs: Vec<CellRun> = cells
        .iter()
        .enumerate()
        .map(|(idx, &cell)| run_cell(cell, seed, profile, idx, tr))
        .collect();
    let mut reference: BTreeMap<&'static str, (u64, String)> = BTreeMap::new();
    for run in &mut runs {
        let Ok(sim) = &run.outcome else { continue };
        let (sig, first) = reference
            .entry(run.cell.workload)
            .or_insert_with(|| (sim.signature, run.cell.id()))
            .clone();
        if sim.signature != sig {
            run.outcome = Err(format!("graph signature {:#x} differs from {first}'s {sig:#x}", sim.signature));
        }
    }
    runs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_child_spans() {
        let mut tr = Tracer::new(true);
        let outer = tr.begin("cell", 0);
        let inner = tr.begin("heap.new", 0);
        std::thread::sleep(std::time::Duration::from_millis(2));
        tr.end(inner);
        tr.end(outer);
        let times = tr.self_times();
        let (cell, heap) = (times["cell"], times["heap.new"]);
        assert_eq!(tr.spans()[1].parent, Some(0));
        assert!(heap.self_s >= 0.002 && heap.self_s == heap.total_s);
        assert!((cell.self_s - (cell.total_s - heap.total_s)).abs() < 1e-9);
    }

    #[test]
    fn untraced_tracer_times_without_recording() {
        let mut tr = Tracer::new(false);
        let t = tr.begin("cell", 0);
        assert!(tr.end(t) >= 0.0);
        assert!(tr.spans().is_empty());
    }
}
