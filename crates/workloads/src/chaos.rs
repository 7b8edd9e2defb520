//! Seeded robustness campaigns over the offload path — one module for
//! both fault classes the logic-layer units can suffer.
//!
//! A campaign sweeps workload × site × rate. A site is either a
//! *pipeline* fault site ([`FaultSite`]: `link`, `queue`, `tlb`, `mai`,
//! `unit` — drops, NACKs, and wedges that cost time) or a *corruption*
//! site ([`CorruptionSite`]: `bitmap`, `forward`, `card`, `payload` —
//! silent bit flips in a primitive's output that `charon-gc::integrity`
//! must catch). The names do not overlap, so a site's class follows from
//! its name ([`Site::by_name`]).
//!
//! Every workload runs once unarmed (its control); every cell then runs
//! the same workload on the Charon platform with one site armed. Both go
//! through one cell runner ([`run_cell`]), which shares
//! [`crate::run_workload`]'s setup and takes a reachable-graph signature
//! after the resident build and after every superstep. The contracts:
//!
//! * **every cell** — each checkpoint's graph walk succeeds;
//! * **pipeline cells** — injected faults may cost time (retries,
//!   timeouts, host fallbacks, degradation) but never change what the
//!   collector does: the signatures and the collection sequence equal
//!   the control's, simulated time stays monotone across collections,
//!   and the site actually fired;
//! * **corruption cells** — every detected corruption is repaired, and
//!   with the shadow oracle armed ([`ChaosOptions::oracle`]) nothing
//!   escapes.
//!
//! Controls and cells fan out together across `jobs` OS threads
//! ([`parallel_map_result`]); the `charon-chaos-v1` report
//! ([`ChaosReport::to_json`]) comes back in matrix order at any job count.

use crate::parmatrix::parallel_map_result;
use crate::run::{run_workload_full, RunOptions, RunResult};
use crate::spec::WorkloadSpec;
use charon_gc::breakdown::RecoverySummary;
use charon_gc::collector::{GcKind, OutOfMemory};
use charon_gc::integrity::IntegrityConfig;
use charon_gc::system::System;
use charon_gc::verify::{graph_signature, CorruptGraph, ReachableStats};
use charon_sim::faults::{CorruptionRates, CorruptionSite, FaultRates, FaultSite, RecoveryConfig};
use charon_sim::json::Json;
use charon_sim::time::Ps;
use std::fmt;

/// One site under fire, of either fault class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Site {
    /// An offload-pipeline stage (timing faults).
    Pipeline(FaultSite),
    /// A primitive-output class (silent data corruption).
    Corruption(CorruptionSite),
}

impl Site {
    /// Every site: the pipeline sites in request order, then the
    /// corruption sites in check order.
    pub const ALL: [Site; 9] = [
        Site::Pipeline(FaultSite::Link),
        Site::Pipeline(FaultSite::Queue),
        Site::Pipeline(FaultSite::Tlb),
        Site::Pipeline(FaultSite::Mai),
        Site::Pipeline(FaultSite::Unit),
        Site::Corruption(CorruptionSite::BitmapWord),
        Site::Corruption(CorruptionSite::ForwardPointer),
        Site::Corruption(CorruptionSite::CardByte),
        Site::Corruption(CorruptionSite::CopyPayload),
    ];

    /// Stable short name (CLI `--sites`, report rows).
    pub fn name(self) -> &'static str {
        match self {
            Site::Pipeline(s) => s.name(),
            Site::Corruption(s) => s.name(),
        }
    }

    /// Parses [`Site::name`] back; `None` for unknown spellings.
    pub fn by_name(name: &str) -> Option<Site> {
        Site::ALL.into_iter().find(|s| s.name() == name)
    }

    /// Report label of the site's class.
    pub fn class(self) -> &'static str {
        match self {
            Site::Pipeline(_) => "pipeline",
            Site::Corruption(_) => "corruption",
        }
    }

    /// Rates swept when [`ChaosOptions::rates`] is `None`: 0.2 per
    /// attempt at a pipeline site (retries dominate), plus 0.95 on `unit`
    /// to drive the watchdog through fallbacks to degradation; 0.02 and
    /// 0.1 per output write at a corruption site.
    pub fn default_rates(self) -> &'static [f64] {
        match self {
            Site::Pipeline(FaultSite::Unit) => &[0.2, 0.95],
            Site::Pipeline(_) => &[0.2],
            Site::Corruption(_) => &[0.02, 0.1],
        }
    }

    /// Arms this site alone on `sys` at `rate`. `oracle` adds the shadow
    /// oracle to a corruption site's detectors.
    fn arm(self, sys: &mut System, seed: u64, rate: f64, oracle: bool) {
        match self {
            Site::Pipeline(s) => sys.inject_faults(seed, FaultRates::only(s, rate), RecoveryConfig::default()),
            Site::Corruption(s) => sys.enable_integrity(
                seed,
                CorruptionRates::only(s, rate),
                IntegrityConfig { shadow_oracle: oracle, ..Default::default() },
            ),
        }
    }
}

impl fmt::Display for Site {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad(self.name())
    }
}

/// Options shared by every run of a campaign.
#[derive(Debug, Clone)]
pub struct ChaosOptions {
    /// Base seed; every cell derives a distinct injector seed from it.
    pub seed: u64,
    /// Rates swept at every selected site; `None` sweeps each site's
    /// [`Site::default_rates`]. Zero rates are skipped.
    pub rates: Option<Vec<f64>>,
    /// Sites to sweep, in report order.
    pub sites: Vec<Site>,
    /// Arm the shadow oracle (re-execute each primitive in host software
    /// and diff) on top of the checksum/read-back detectors.
    pub oracle: bool,
    /// Run options every control and cell shares.
    pub run: RunOptions,
}

impl Default for ChaosOptions {
    fn default() -> ChaosOptions {
        ChaosOptions { seed: 0xC0DE, rates: None, sites: Site::ALL.to_vec(), oracle: false, run: RunOptions::default() }
    }
}

/// One cell of the campaign matrix: workload × site × rate.
#[derive(Debug, Clone)]
pub struct ChaosCell {
    /// The workload to run.
    pub spec: WorkloadSpec,
    /// The site under fire.
    pub site: Site,
    /// The per-attempt (pipeline) or per-write (corruption) rate.
    pub rate: f64,
    /// Derived injector seed (distinct per cell).
    pub seed: u64,
}

/// SplitMix64-style finalizer: distinct, well-spread per-cell seeds from
/// the base seed and the cell's matrix coordinates.
fn mix_seed(base: u64, a: u64, b: u64, c: u64) -> u64 {
    let mut x = base
        ^ a.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ b.wrapping_mul(0xBF58_476D_1CE4_E5B9)
        ^ c.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x | 1
}

/// The campaign matrix for a set of workloads: every workload × site ×
/// rate, workload-major then site then rate — a stable report order.
pub fn chaos_matrix(specs: &[WorkloadSpec], opts: &ChaosOptions) -> Vec<ChaosCell> {
    let mut cells = Vec::new();
    for (wi, spec) in specs.iter().enumerate() {
        for (si, &site) in opts.sites.iter().enumerate() {
            let rates = opts.rates.as_deref().unwrap_or(site.default_rates());
            for (ri, &rate) in rates.iter().enumerate() {
                if rate > 0.0 {
                    let seed = mix_seed(opts.seed, wi as u64, si as u64, ri as u64);
                    cells.push(ChaosCell { spec: spec.clone(), site, rate, seed });
                }
            }
        }
    }
    cells
}

/// A run died outright, or a campaign could not start.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChaosError {
    /// The heap could not hold the workload.
    OutOfMemory(OutOfMemory),
    /// A checkpoint's graph walk hit a damaged reachable object.
    Corrupt {
        /// Which checkpoint tripped ("resident", "step 3", …).
        stage: String,
        /// What the walk found.
        error: CorruptGraph,
    },
    /// A workload's unarmed control run failed, so none of its cells can
    /// be checked.
    Control {
        /// Two-letter workload code.
        workload: &'static str,
        /// Why the control failed.
        cause: String,
    },
}

impl From<OutOfMemory> for ChaosError {
    fn from(e: OutOfMemory) -> ChaosError {
        ChaosError::OutOfMemory(e)
    }
}

impl fmt::Display for ChaosError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChaosError::OutOfMemory(e) => write!(f, "{e}"),
            ChaosError::Corrupt { stage, error } => write!(f, "heap corruption at {stage}: {error}"),
            ChaosError::Control { workload, cause } => write!(f, "control run for {workload} failed: {cause}"),
        }
    }
}

impl std::error::Error for ChaosError {}

/// What one run — a control or a cell — measured.
#[derive(Debug, Clone)]
pub struct CellRun {
    /// `(graph_signature, reachable_stats)` after the resident build and
    /// after every superstep.
    pub signatures: Vec<(u64, ReachableStats)>,
    /// Kind of every collection, in order.
    pub event_kinds: Vec<GcKind>,
    /// Where simulated time stopped being monotone (a non-positive pause,
    /// or a collection starting before the previous one ended).
    pub non_monotone: Option<String>,
    /// Cumulative recovery accounting: retries, fallbacks, degradation,
    /// and the corruption counters.
    pub recovery: RecoverySummary,
    /// Pipeline faults the injector fired, across sites.
    pub faults: u64,
    /// The run's measurements.
    pub result: RunResult,
}

/// Runs one workload on `sys` — armed or not — honouring `opts` exactly
/// as [`crate::run_workload`] does, with a graph-signature checkpoint
/// after the resident build and after every superstep.
///
/// # Errors
///
/// [`ChaosError::OutOfMemory`] when the heap cannot hold the workload;
/// [`ChaosError::Corrupt`] when a checkpoint's graph walk fails.
pub fn run_cell(spec: &WorkloadSpec, sys: System, opts: &RunOptions) -> Result<CellRun, ChaosError> {
    let mut signatures = Vec::new();
    let (result, gc) = run_workload_full(spec, sys, opts, |heap| {
        let stage = match signatures.len() {
            0 => "resident".to_string(),
            n => format!("step {}", n - 1),
        };
        signatures.push(graph_signature(heap).map_err(|error| ChaosError::Corrupt { stage, error })?);
        Ok::<(), ChaosError>(())
    })?;
    let mut prev_end = Ps::ZERO;
    let non_monotone = gc.events.iter().enumerate().find_map(|(i, e)| {
        let broken = if e.wall <= Ps::ZERO {
            Some(format!("collection {i} has a non-positive pause {}", e.wall))
        } else if e.start < prev_end {
            Some(format!("collection {i} starts at {} before the previous one ended at {prev_end}", e.start))
        } else {
            None
        };
        prev_end = e.start + e.wall;
        broken
    });
    Ok(CellRun {
        signatures,
        event_kinds: gc.events.iter().map(|e| e.kind).collect(),
        non_monotone,
        recovery: gc.sys.recovery,
        faults: gc
            .sys
            .device
            .as_ref()
            .and_then(|d| d.fault_injector())
            .map_or(0, |inj| inj.total_injected()),
        result,
    })
}

/// The checked outcome of one campaign cell.
#[derive(Debug, Clone)]
pub struct ChaosCellReport {
    /// Two-letter workload code.
    pub workload: &'static str,
    /// The site under fire.
    pub site: Site,
    /// The swept rate.
    pub rate: f64,
    /// The cell's injector seed.
    pub seed: u64,
    /// Recovery accounting over the whole run.
    pub recovery: RecoverySummary,
    /// Pipeline faults fired (zero on corruption cells).
    pub faults: u64,
    /// Minor / major collection counts.
    pub collections: (usize, usize),
    /// Total stop-the-world time.
    pub gc_time_ps: u64,
    /// GC-pause overhead versus the workload's control.
    pub pause_overhead: f64,
    /// Whether every checkpoint's graph walk succeeded.
    pub graph_ok: bool,
    /// What failed; empty when the cell passed.
    pub failures: Vec<String>,
}

impl ChaosCellReport {
    /// True when every check passed.
    pub fn pass(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Checks one cell's run against its workload's control.
fn check(cell: &ChaosCell, control: &CellRun, oracle: bool, run: Result<CellRun, String>) -> ChaosCellReport {
    let mut failures = Vec::new();
    let run = run.map_err(|e| failures.push(format!("run did not complete: {e}"))).ok();
    if let Some(r) = &run {
        match cell.site {
            Site::Pipeline(site) => {
                let (got, want) = (&r.signatures, &control.signatures);
                if got.len() != want.len() {
                    failures.push(format!("checkpoint count diverged: {} vs control {}", got.len(), want.len()));
                } else if let Some(i) = (0..got.len()).find(|&i| got[i] != want[i]) {
                    failures.push(format!(
                        "graph signature diverged at checkpoint {i}: {:016x} vs control {:016x}",
                        got[i].0, want[i].0
                    ));
                }
                if r.event_kinds != control.event_kinds {
                    failures.push(format!(
                        "collection sequence diverged: {} events vs control {}",
                        r.event_kinds.len(),
                        control.event_kinds.len()
                    ));
                }
                failures.extend(r.non_monotone.clone());
                if r.faults == 0 {
                    failures.push(format!("fault site {site} never fired — dead injection wiring"));
                }
            }
            Site::Corruption(_) => {
                let (detected, repaired) = (r.recovery.total_detected(), r.recovery.total_repaired());
                if repaired != detected {
                    failures
                        .push(format!("repair ladder lost corruptions: {detected} detected but {repaired} repaired"));
                }
                if oracle && r.recovery.escaped() > 0 {
                    failures.push(format!("{} corruptions escaped the shadow oracle", r.recovery.escaped()));
                }
            }
        }
    }
    let gc_time_ps = run.as_ref().map_or(0, |r| r.result.gc_time.0);
    let base_ps = control.result.gc_time.0;
    ChaosCellReport {
        workload: cell.spec.short,
        site: cell.site,
        rate: cell.rate,
        seed: cell.seed,
        recovery: run.as_ref().map_or_else(RecoverySummary::default, |r| r.recovery),
        faults: run.as_ref().map_or(0, |r| r.faults),
        collections: run.as_ref().map_or((0, 0), |r| (r.result.minor.1, r.result.major.1)),
        gc_time_ps,
        pause_overhead: (gc_time_ps as f64 - base_ps as f64) / base_ps.max(1) as f64,
        graph_ok: run.is_some(),
        failures,
    }
}

/// A full campaign: one control per workload plus every checked cell.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// Whether the shadow oracle was armed.
    pub oracle: bool,
    /// One unarmed control per workload, in workload order.
    pub controls: Vec<CellRun>,
    /// One report per matrix cell, in matrix order.
    pub cells: Vec<ChaosCellReport>,
}

impl ChaosReport {
    fn sum(&self, f: impl Fn(&ChaosCellReport) -> u64) -> u64 {
        self.cells.iter().map(f).sum()
    }

    /// Pipeline faults fired across the campaign.
    pub fn faults(&self) -> u64 {
        self.sum(|c| c.faults)
    }

    /// Corruptions injected across the campaign.
    pub fn injected(&self) -> u64 {
        self.sum(|c| c.recovery.total_injected())
    }

    /// Corruptions detected across the campaign.
    pub fn detected(&self) -> u64 {
        self.sum(|c| c.recovery.total_detected())
    }

    /// Corruptions repaired across the campaign.
    pub fn repaired(&self) -> u64 {
        self.sum(|c| c.recovery.total_repaired())
    }

    /// Injections proven benign (dead-region or self-cancelling flips).
    pub fn benign(&self) -> u64 {
        self.sum(|c| c.recovery.corrupt_benign.iter().sum())
    }

    /// Corruptions neither detected nor proven benign.
    pub fn escaped(&self) -> u64 {
        self.sum(|c| c.recovery.escaped())
    }

    /// Detected fraction of the non-benign injections (1.0 when nothing
    /// harmful was injected).
    pub fn detection_rate(&self) -> f64 {
        let harmful = self.injected() - self.benign();
        if harmful == 0 {
            1.0
        } else {
            self.detected() as f64 / harmful as f64
        }
    }

    /// Repaired fraction of the detected corruptions (1.0 when nothing
    /// was detected).
    pub fn repair_rate(&self) -> f64 {
        let d = self.detected();
        if d == 0 {
            1.0
        } else {
            self.repaired() as f64 / d as f64
        }
    }

    /// True when every cell passed.
    pub fn pass(&self) -> bool {
        self.cells.iter().all(ChaosCellReport::pass)
    }

    /// Machine-readable `charon-chaos-v1` view of the whole campaign.
    pub fn to_json(&self) -> Json {
        let controls = self
            .controls
            .iter()
            .map(|c| {
                Json::obj(vec![
                    ("workload", Json::str(c.result.workload)),
                    ("gc_time_ps", Json::U64(c.result.gc_time.0)),
                    ("minor", Json::U64(c.result.minor.1 as u64)),
                    ("major", Json::U64(c.result.major.1 as u64)),
                    ("allocated_bytes", Json::U64(c.result.allocated_bytes)),
                    ("graph_sig", Json::U64(c.signatures.last().map_or(0, |s| s.0))),
                ])
            })
            .collect();
        let cells = self
            .cells
            .iter()
            .map(|c| {
                let r = &c.recovery;
                Json::obj(vec![
                    ("workload", Json::str(c.workload)),
                    ("site", Json::str(c.site.name())),
                    ("class", Json::str(c.site.class())),
                    ("rate", Json::F64(c.rate)),
                    ("seed", Json::U64(c.seed)),
                    ("faults", Json::U64(c.faults)),
                    ("retries", Json::U64(r.total_retries())),
                    ("fallbacks", Json::U64(r.total_fallbacks())),
                    ("degraded", Json::U64(r.degraded.iter().filter(|&&d| d).count() as u64)),
                    ("injected", Json::U64(r.total_injected())),
                    ("detected", Json::U64(r.total_detected())),
                    ("repaired", Json::U64(r.total_repaired())),
                    ("benign", Json::U64(r.corrupt_benign.iter().sum())),
                    ("escaped", Json::U64(r.escaped())),
                    ("repair_rungs", Json::Arr(r.repair_rungs.iter().map(|&n| Json::U64(n)).collect())),
                    ("quarantined_extents", Json::U64(r.quarantined_extents)),
                    ("rearmed", Json::U64(r.rearmed.iter().sum())),
                    ("gc_time_ps", Json::U64(c.gc_time_ps)),
                    ("pause_overhead", Json::F64(c.pause_overhead)),
                    ("graph_ok", Json::Bool(c.graph_ok)),
                    ("pass", Json::Bool(c.pass())),
                    ("failures", Json::Arr(c.failures.iter().map(Json::str).collect())),
                ])
            })
            .collect();
        Json::obj(vec![
            ("schema", Json::str("charon-chaos-v1")),
            ("oracle", Json::Bool(self.oracle)),
            ("pass", Json::Bool(self.pass())),
            ("faults", Json::U64(self.faults())),
            ("injected", Json::U64(self.injected())),
            ("detected", Json::U64(self.detected())),
            ("repaired", Json::U64(self.repaired())),
            ("benign", Json::U64(self.benign())),
            ("escaped", Json::U64(self.escaped())),
            ("detection_rate", Json::F64(self.detection_rate())),
            ("repair_rate", Json::F64(self.repair_rate())),
            ("baselines", Json::Arr(controls)),
            ("cells", Json::Arr(cells)),
        ])
    }
}

impl fmt::Display for ChaosReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "chaos campaign ({} cells, oracle {}): {} pipeline faults; {} injected, {} detected, {} repaired, \
             {} benign, {} escaped",
            self.cells.len(),
            if self.oracle { "on" } else { "off" },
            self.faults(),
            self.injected(),
            self.detected(),
            self.repaired(),
            self.benign(),
            self.escaped(),
        )?;
        writeln!(
            f,
            "  detection rate {:.1}%, repair rate {:.1}%",
            self.detection_rate() * 100.0,
            self.repair_rate() * 100.0
        )?;
        for c in &self.controls {
            let r = &c.result;
            writeln!(f, "  {} control: gc {} over {} collections", r.workload, r.gc_time, c.event_kinds.len())?;
        }
        for c in &self.cells {
            let r = &c.recovery;
            write!(f, "  {} {:<8} rate {:<5} ", c.workload, c.site, c.rate)?;
            match c.site {
                Site::Pipeline(_) => write!(
                    f,
                    "faults {:>6} retries {:>6} fallbacks {:>5} degraded {}",
                    c.faults,
                    r.total_retries(),
                    r.total_fallbacks(),
                    r.degraded.iter().filter(|&&d| d).count(),
                )?,
                Site::Corruption(_) => write!(
                    f,
                    "inj {:>5} det {:>5} rep {:>5} benign {:>4} escaped {:>4}",
                    r.total_injected(),
                    r.total_detected(),
                    r.total_repaired(),
                    r.corrupt_benign.iter().sum::<u64>(),
                    r.escaped(),
                )?,
            }
            writeln!(f, " overhead {:>6.2}% {}", c.pause_overhead * 100.0, if c.pass() { "PASS" } else { "FAIL" })?;
            for msg in &c.failures {
                writeln!(f, "      ! {msg}")?;
            }
        }
        Ok(())
    }
}

/// Runs the campaign: one unarmed control per workload plus every matrix
/// cell, fanned out together across up to `jobs` OS threads. A panicking
/// cell becomes that cell's failure, not the campaign's; results come
/// back in matrix order at any job count.
///
/// # Errors
///
/// [`ChaosError::Control`] when a workload's control run fails — its
/// cells would have nothing to be checked against.
pub fn run_chaos_campaign(specs: &[WorkloadSpec], opts: &ChaosOptions, jobs: usize) -> Result<ChaosReport, ChaosError> {
    let cells = chaos_matrix(specs, opts);
    // The first `specs.len()` runs are the controls.
    let runs: Vec<(&WorkloadSpec, Option<&ChaosCell>)> = specs
        .iter()
        .map(|s| (s, None))
        .chain(cells.iter().map(|c| (&c.spec, Some(c))))
        .collect();
    let mut outcomes: Vec<Result<CellRun, String>> = parallel_map_result(&runs, jobs, |&(spec, cell)| {
        let mut sys = System::charon();
        if let Some(c) = cell {
            c.site.arm(&mut sys, c.seed, c.rate, opts.oracle);
        }
        run_cell(spec, sys, &opts.run).map_err(|e| e.to_string())
    })
    .into_iter()
    .map(|r| r.unwrap_or_else(|panic| Err(format!("panic: {panic}"))))
    .collect();
    let cell_runs = outcomes.split_off(specs.len());
    let controls = outcomes
        .into_iter()
        .zip(specs)
        .map(|(r, spec)| r.map_err(|cause| ChaosError::Control { workload: spec.short, cause }))
        .collect::<Result<Vec<_>, _>>()?;
    let cells = cells
        .iter()
        .zip(cell_runs)
        .map(|(cell, run)| {
            let control = controls
                .iter()
                .find(|c| c.result.workload == cell.spec.short)
                .expect("one control per workload");
            check(cell, control, opts.oracle, run)
        })
        .collect();
    Ok(ChaosReport { oracle: opts.oracle, controls, cells })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::by_short;

    fn sites(names: &str) -> Vec<Site> {
        names.split(',').map(|n| Site::by_name(n).unwrap()).collect()
    }

    fn opts(names: &str, steps: usize) -> ChaosOptions {
        ChaosOptions {
            sites: sites(names),
            run: RunOptions { supersteps: Some(steps), ..Default::default() },
            ..Default::default()
        }
    }

    #[test]
    fn pipeline_campaign_passes_on_bs_and_exercises_recovery() {
        let specs = [by_short("BS").unwrap()];
        let report =
            run_chaos_campaign(&specs, &ChaosOptions { seed: 42, ..opts("link,queue,tlb,mai,unit", 2) }, 2).unwrap();
        assert!(report.pass(), "campaign failed:\n{report}");
        let control = &report.controls[0];
        assert!(control.recovery.is_empty(), "the control must record no recovery events");
        assert_eq!(control.faults, 0);
        assert_eq!(report.cells.len(), 6, "five sites plus the degrade rate on unit");
        for c in &report.cells {
            assert!(c.faults > 0, "{} fired nothing", c.site);
            assert!(c.gc_time_ps >= control.result.gc_time.0, "{}: faults cannot make GC faster", c.site);
        }
        assert!(report.cells.iter().any(|c| c.recovery.total_retries() > 0));
        // The near-certain unit-failure cell walks the whole ladder:
        // retries, fallbacks, and at least one degraded primitive.
        let degrade = report.cells.iter().find(|c| c.site.name() == "unit" && c.rate == 0.95).unwrap();
        assert!(degrade.recovery.total_retries() > 0, "no retries at unit 0.95");
        assert!(degrade.recovery.total_fallbacks() > 0, "no fallbacks at unit 0.95");
        assert!(degrade.recovery.degraded.iter().any(|&d| d), "watchdog never degraded a primitive");
    }

    #[test]
    fn corruption_campaign_detects_and_repairs_on_bs() {
        let specs = [by_short("BS").unwrap()];
        let o = ChaosOptions { rates: Some(vec![0.05]), ..opts("bitmap,forward,card,payload", 2) };
        let report = run_chaos_campaign(&specs, &o, 2).unwrap();
        assert!(report.pass(), "chaos campaign failed:\n{report}");
        assert!(report.injected() > 0, "no corruption fired at 5%:\n{report}");
        assert_eq!(report.repaired(), report.detected(), "every detected corruption must be repaired");
        assert!(report.detection_rate() >= 0.95, "detection below 95%:\n{report}");
        for c in &report.cells {
            assert!(c.graph_ok, "{}/{}: graph walk failed", c.workload, c.site);
        }
    }

    #[test]
    fn oracle_campaign_lets_nothing_escape() {
        let specs = [by_short("BS").unwrap()];
        let o = ChaosOptions { rates: Some(vec![0.05]), oracle: true, ..opts("bitmap,forward,card,payload", 2) };
        let report = run_chaos_campaign(&specs, &o, 2).unwrap();
        assert!(report.pass(), "oracle campaign failed:\n{report}");
        assert!(report.injected() > 0);
        assert_eq!(report.escaped(), 0, "shadow oracle must catch everything:\n{report}");
    }

    #[test]
    fn mixed_class_campaign_passes() {
        let specs = [by_short("BS").unwrap()];
        let report = run_chaos_campaign(&specs, &opts("link,unit,bitmap", 2), 2).unwrap();
        assert!(report.pass(), "mixed campaign failed:\n{report}");
        let classes: Vec<&str> = report.cells.iter().map(|c| c.site.class()).collect();
        assert_eq!(classes, ["pipeline", "pipeline", "pipeline", "corruption", "corruption"]);
        assert!(report.faults() > 0, "the pipeline cells must fire:\n{report}");
    }

    #[test]
    fn parallel_campaign_matches_serial() {
        let specs = [by_short("BS").unwrap()];
        let o = ChaosOptions { rates: Some(vec![0.05]), ..opts("link,unit,bitmap,payload", 2) };
        let serial = run_chaos_campaign(&specs, &o, 1).unwrap();
        for jobs in [3, 4] {
            let par = run_chaos_campaign(&specs, &o, jobs).unwrap();
            assert_eq!(serial.to_json().to_string(), par.to_json().to_string(), "jobs={jobs}");
        }
    }

    #[test]
    fn matrix_covers_every_site_with_distinct_seeds() {
        let specs = [by_short("BS").unwrap(), by_short("KM").unwrap()];
        let cells = chaos_matrix(&specs, &ChaosOptions::default());
        for site in Site::ALL {
            assert!(cells.iter().any(|c| c.site == site && c.rate > 0.0), "site {site} missing");
        }
        assert_eq!(cells.len(), 2 * (5 + 1 + 4 * 2), "default rates: 0.2 per pipeline site, +0.95 on unit, two each");
        let mut seeds: Vec<u64> = cells.iter().map(|c| c.seed).collect();
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), cells.len(), "cell seeds must be distinct");
        // `rates` overrides the defaults at every selected site.
        let o = ChaosOptions { rates: Some(vec![0.0, 0.3]), ..ChaosOptions::default() };
        assert!(chaos_matrix(&specs, &o).iter().all(|c| c.rate == 0.3), "zero rates are skipped");
    }

    #[test]
    fn site_names_are_disjoint_and_round_trip() {
        for site in Site::ALL {
            assert_eq!(Site::by_name(site.name()), Some(site));
        }
        assert!(Site::by_name("nonsense").is_none());
    }

    #[test]
    fn tampered_control_signature_fails_a_pipeline_cell() {
        let spec = by_short("BS").unwrap();
        let o = RunOptions { supersteps: Some(2), ..Default::default() };
        let mut control = run_cell(&spec, System::charon(), &o).unwrap();
        let cell = ChaosCell { spec: spec.clone(), site: Site::by_name("link").unwrap(), rate: 0.2, seed: 9 };
        let mut sys = System::charon();
        cell.site.arm(&mut sys, cell.seed, cell.rate, false);
        let run = run_cell(&spec, sys, &o).unwrap();
        assert!(check(&cell, &control, false, Ok(run.clone())).pass(), "untampered control must pass");
        control.signatures[1].0 ^= 1;
        let rep = check(&cell, &control, false, Ok(run));
        assert!(!rep.pass());
        assert!(rep.failures.iter().any(|m| m.contains("signature diverged at checkpoint 1")), "{:?}", rep.failures);
    }
}
