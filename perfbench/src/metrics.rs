//! The end-to-end and per-layer metrics of a run.
//!
//! A run is one or more *rounds*; a round is one *pass* over the cells per
//! seed of [`crate::Workload::round_seeds`], and only the first round is
//! sure to be whole. A host-time metric is its median over every pass of
//! the run; the step-time metrics are percentiles of every step of the
//! run. A simulated metric is its mean over the passes of the first
//! round: every round gives the same simulated outcome, which the caller
//! checks with [`crate::CellSim::digest`]. Unless a definition says otherwise, a
//! simulated metric sums over the Charon cells of a pass, the design under
//! study.

use crate::{CellRun, CellSim, Platform, Tracer};
use charon_core::device::{CharonStats, UNIT_CLASS_NAMES};
use charon_core::packet::PrimType;
use charon_gc::breakdown::{Breakdown, Bucket};
use charon_sim::profile::{Channel, LatencyProfile};
use charon_sim::stats::{CacheStats, MemTrafficStats};

/// The cells of one pass, in run order.
pub type Pass = Vec<CellRun>;

/// One pass per seed of a round.
pub type Round = Vec<Pass>;

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Dotted name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit, as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The value.
    pub value: f64,
}

fn metric(name: impl Into<String>, unit: &'static str, value: f64) -> Metric {
    // An empty `f64` sum is -0.0; report it as 0.
    Metric { name: name.into(), unit, value: value + 0.0 }
}

/// Median of `xs` (mean of the middle two for an even count); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn mean(xs: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = xs.fold((0.0, 0usize), |(s, n), x| (s + x, n + 1));
    ratio(sum, n as f64)
}

/// Median of `f` over every pass of every round.
fn host(rounds: &[Round], f: impl Fn(&[CellRun]) -> f64) -> f64 {
    median(&rounds.iter().flatten().map(|p| f(p)).collect::<Vec<_>>())
}

/// [`host`] of a per-cell host time summed over the pass.
fn host_sum(rounds: &[Round], f: impl Fn(&CellRun) -> f64) -> f64 {
    host(rounds, |p| p.iter().map(&f).sum())
}

/// Host time of a pass: every `build_resident` and `superstep`.
fn pass_wall(pass: &[CellRun]) -> f64 {
    pass.iter().map(|r| r.times.wall()).sum()
}

/// Simulated time of a pass: mutator plus GC, summed over its cells.
fn pass_sim_ps(pass: &[CellRun]) -> f64 {
    sims(pass, None).map(|(_, s)| (s.mutator_ps + s.fingerprint.2) as f64).sum()
}

/// Every superstep of every pass of every round, as (seconds, collections).
pub fn step_samples(rounds: &[Round]) -> Vec<(f64, usize)> {
    rounds
        .iter()
        .flatten()
        .flatten()
        .flat_map(|r| r.times.steps.iter().copied())
        .collect()
}

/// Nearest-rank percentile `pct` of `xs`; 0 when empty.
pub fn percentile(xs: &[f64], pct: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    // Less a hair, so that `tail_pct(n)` of `n` samples ranks `n - 10`.
    let rank = (pct / 100.0 * v.len() as f64 - 1e-9).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Samples of one round that lie beyond `step_tail_ms`.
pub const TAIL_BEYOND: usize = 10;

/// The highest nearest-rank percentile of `n` samples that has
/// [`TAIL_BEYOND`] samples beyond it.
pub fn tail_pct(n: usize) -> f64 {
    100.0 * n.saturating_sub(TAIL_BEYOND) as f64 / n.max(1) as f64
}

/// Supersteps in the first round, the only one that is sure to be whole.
pub fn steps_per_round(rounds: &[Round]) -> usize {
    rounds.first().map_or(0, |r| step_samples(std::slice::from_ref(r)).len())
}

/// The cells of a pass that succeeded, optionally only those on `platform`.
fn sims(pass: &[CellRun], platform: Option<Platform>) -> impl Iterator<Item = (&CellRun, &CellSim)> {
    pass.iter()
        .filter(move |r| platform.is_none_or(|p| r.cell.platform == p))
        .filter_map(|r| r.outcome.as_ref().ok().map(|s| (r, s)))
}

/// Per-pass mean over `round` of `f` summed over the cells on `platform`.
fn sim_sum(round: &[Pass], platform: Option<Platform>, f: impl Fn(&CellSim) -> f64) -> f64 {
    mean(round.iter().map(|p| sims(p, platform).map(|(_, s)| f(s)).sum()))
}

/// Largest `f` over the cells on `platform`, median over the passes of
/// `round`: one seed's outlier pause does not move it.
fn sim_max(round: &[Pass], platform: Option<Platform>, f: impl Fn(&CellSim) -> f64) -> f64 {
    median(
        &round
            .iter()
            .map(|p| sims(p, platform).map(|(_, s)| f(s)).fold(0.0, f64::max))
            .collect::<Vec<_>>(),
    )
}

/// Successful cells on `a` and `b` with the same workload and collector.
fn pairs(pass: &[CellRun], a: Platform, b: Platform) -> Vec<(&CellRun, &CellRun)> {
    let key = |r: &CellRun| (r.cell.workload, r.cell.collector);
    sims(pass, Some(a))
        .filter_map(|(ra, _)| sims(pass, Some(b)).find(|(rb, _)| key(rb) == key(ra)).map(|(rb, _)| (ra, rb)))
        .collect()
}

/// Host time of the `b` cells minus that of the paired `a` cells: an
/// estimate of what platform `b` adds.
fn paired_delta(rounds: &[Round], a: Platform, b: Platform) -> f64 {
    host(rounds, |p| pairs(p, a, b).iter().map(|(ra, rb)| rb.times.wall() - ra.times.wall()).sum())
}

fn gc_ps(run: &CellRun) -> f64 {
    run.outcome.as_ref().map_or(0.0, |s| s.fingerprint.2 as f64)
}

/// Geometric mean of DDR4 GC time ÷ Charon GC time over the paired cells
/// of every pass of the round.
fn speedup_vs_ddr4(round: &[Pass]) -> f64 {
    let logs: Vec<f64> = round
        .iter()
        .flat_map(|p| pairs(p, Platform::Ddr4, Platform::Charon))
        .map(|(d, c)| (gc_ps(d) / gc_ps(c).max(1.0)).ln())
        .collect();
    if logs.is_empty() {
        0.0
    } else {
        mean(logs.into_iter()).exp()
    }
}

/// Cells attempted over all rounds.
pub fn attempted(rounds: &[Round]) -> usize {
    rounds.iter().flatten().map(Vec::len).sum()
}

/// Failed cells over all rounds.
pub fn failed(rounds: &[Round]) -> usize {
    rounds.iter().flatten().flatten().filter(|r| r.outcome.is_err()).count()
}

/// The 10th percentile of the host time of the supersteps that ran no
/// collection, seconds. About half of all steps run one, so a percentile
/// of every step falls in the gap between the two modes and jumps between
/// them from seed to seed. The 10th percentile, not the median: the host
/// slows the median by up to half in its slow phases, but a tenth of the
/// short steps still run at full speed in them.
fn nogc_step_p10(steps: &[(f64, usize)]) -> f64 {
    percentile(&steps.iter().filter(|s| s.1 == 0).map(|s| s.0).collect::<Vec<_>>(), 10.0)
}

/// The step-time tail, seconds: percentile `pct` of every step. With
/// [`tail_pct`] of a round's step count, a round has [`TAIL_BEYOND`]
/// slower steps; a round pools several seeds, so the tail sits inside the
/// slowest mode (major-collection steps) instead of on its edge.
pub fn step_tail(steps: &[(f64, usize)], pct: f64) -> f64 {
    percentile(&steps.iter().map(|s| s.0).collect::<Vec<_>>(), pct)
}

/// Host times of whole passes and steps of untraced `rounds`. A shared
/// host's speed swings by up to 1.75× within minutes, beyond any bound a
/// comparison can hold them to, so they are per-layer metrics, not
/// end-to-end ones.
pub fn host_times(rounds: &[Round]) -> Vec<Metric> {
    let steps = step_samples(rounds);
    vec![
        metric("wall_s", "s", host(rounds, pass_wall)),
        metric("sim_ps_per_wall_s", "ps/s", host(rounds, |p| ratio(pass_sim_ps(p), pass_wall(p)))),
        metric("step_nogc_p10_ms", "ms", nogc_step_p10(&steps) * 1e3),
        metric("step_tail_ms", "ms", step_tail(&steps, tail_pct(steps_per_round(rounds))) * 1e3),
    ]
}

/// The end-to-end metrics of an untraced run. `setup_samples` holds the
/// time of each set-up round; `setup_s` is the fastest.
pub fn end_to_end(rounds: &[Round], setup_samples: &[f64], peak_rss_mb: f64) -> Vec<Metric> {
    let first = &rounds[0];
    let charon = Some(Platform::Charon);
    let attempted = attempted(rounds);
    vec![
        metric("setup_s", "s", setup_samples.iter().copied().fold(f64::INFINITY, f64::min)),
        metric("peak_rss_mb", "MB", peak_rss_mb),
        metric("sim_gc_ps", "ps", sim_sum(first, charon, |s| s.fingerprint.2 as f64)),
        metric("sim_speedup_vs_ddr4", "x", speedup_vs_ddr4(first)),
        metric("sim_pause_max_ps", "ps", sim_max(first, charon, |s| s.pause_max_ps as f64)),
        metric("sim_gc_energy_mj", "mJ", sim_sum(first, charon, |s| s.energy_j * 1e3)),
        metric("pass_ratio", "ratio", ratio((attempted - failed(rounds)) as f64, attempted as f64)),
    ]
}

fn hit_rate(stats: impl Iterator<Item = CacheStats>) -> f64 {
    let (hits, accesses) = stats.fold((0u64, 0u64), |(h, a), s| (h + s.hits, a + s.accesses()));
    ratio(hits as f64, accesses as f64)
}

/// The per-layer metrics of a traced run: [`host_times`] of the
/// `untraced` rounds, host times of each layer from the `traced` rounds,
/// counts from the first traced round, and the tracing overhead as the
/// traced minus the untraced `wall_s`.
pub fn per_layer(traced: &[Round], untraced: &[Round], tracer: &Tracer) -> Vec<Metric> {
    let first = &traced[0];
    let charon = Some(Platform::Charon);
    let all_charon: Vec<&CellSim> = first.iter().flat_map(|p| sims(p, charon).map(|(_, s)| s)).collect();
    let per_pass = first.len() as f64;
    // Summed over every Charon cell of the round, then per pass.
    let charon_sum = |f: &dyn Fn(&CellSim) -> f64| -> f64 { all_charon.iter().map(|s| f(s)).sum::<f64>() / per_pass };
    let device = |f: &dyn Fn(&CharonStats) -> f64| charon_sum(&|s| s.device.as_ref().map_or(0.0, f));
    let traffic = |f: &dyn Fn(&MemTrafficStats) -> u64| charon_sum(&|s| f(&s.traffic) as f64);
    let mb = |bytes: f64| bytes / (1u64 << 20) as f64;

    let gc_step_s = host_sum(traced, |r| r.times.steps.iter().filter(|s| s.1 > 0).map(|s| s.0).sum());
    let step_collections = mean(
        first
            .iter()
            .map(|p| p.iter().flat_map(|r| &r.times.steps).map(|s| s.1 as f64).sum()),
    );
    let device_model_s = paired_delta(traced, Platform::Ddr4, Platform::Charon);
    let paired_offloads = mean(first.iter().map(|p| {
        pairs(p, Platform::Ddr4, Platform::Charon)
            .iter()
            .filter_map(|(_, c)| c.outcome.as_ref().ok()?.device.as_ref().map(|d| d.total_offloads() as f64))
            .sum()
    }));
    let breakdown = all_charon.iter().fold(Breakdown::new(), |acc, s| acc + s.breakdown);
    let profile = all_charon
        .iter()
        .filter_map(|s| s.profile.as_ref())
        .fold(LatencyProfile::new(), |mut acc, p| {
            acc.merge(p);
            acc
        });

    let mut out = host_times(untraced);
    out.extend([
        metric("workloads.mutator.build_resident_s", "s", host_sum(traced, |r| r.times.build_resident)),
        metric("workloads.mutator.superstep_gc_s", "s", gc_step_s),
        metric(
            "workloads.mutator.superstep_nogc_s",
            "s",
            host_sum(traced, |r| r.times.steps.iter().filter(|s| s.1 == 0).map(|s| s.0).sum()),
        ),
        metric("workloads.mutator.new_s", "s", host_sum(traced, |r| r.times.mutator_new)),
        metric("workloads.mutator.allocated_mb", "MB", mb(sim_sum(first, None, |s| s.fingerprint.5 as f64))),
        metric("workloads.mutator.sim_mutator_ps", "ps", sim_sum(first, None, |s| s.mutator_ps as f64)),
        metric("heap.new_s", "s", host_sum(traced, |r| r.times.heap_new)),
        metric("heap.verify_s", "s", host_sum(traced, |r| r.times.verify_heap)),
        metric("heap.live_mb_end", "MB", mb(sim_sum(first, None, |s| s.live_bytes as f64))),
        metric("gc.collector.new_s", "s", host_sum(traced, |r| r.times.collector_new)),
        metric("gc.host_ms_per_collection", "ms", ratio(gc_step_s * 1e3, step_collections)),
        metric("gc.minor.count", "count", charon_sum(&|s| s.minor.1 as f64)),
        metric("gc.major.count", "count", charon_sum(&|s| s.major.1 as f64)),
        metric("gc.minor.ps", "ps", charon_sum(&|s| s.minor.0 as f64)),
        metric("gc.major.ps", "ps", charon_sum(&|s| s.major.0 as f64)),
    ]);
    for (name, bucket) in [
        ("copy", Bucket::Copy),
        ("search", Bucket::Search),
        ("scan_push", Bucket::ScanPush),
        ("bitmap_count", Bucket::BitmapCount),
        ("pop", Bucket::Pop),
        ("push", Bucket::Push),
        ("others", Bucket::Other),
    ] {
        out.push(metric(format!("gc.breakdown.{name}_ps"), "ps", breakdown.get(bucket).0 as f64 / per_pass));
    }
    out.extend([
        metric("gc.breakdown.offloadable_fraction", "ratio", breakdown.offloadable_fraction()),
        metric("gc.concmark.cycles", "count", sim_sum(first, None, |s| s.concmark.0 as f64)),
        metric("gc.concmark.steps", "count", sim_sum(first, None, |s| s.concmark.1 as f64)),
        metric("gc.concmark.conc_ps", "ps", sim_sum(first, None, |s| s.concmark.2 as f64)),
        metric("gc.freelist.free_words_end", "words", sim_sum(first, None, |s| s.freelist.free_words as f64)),
        metric("gc.freelist.chunks_end", "count", sim_sum(first, None, |s| s.freelist.chunks as f64)),
        metric(
            "gc.freelist.largest_hole_words_end",
            "words",
            sim_max(first, None, |s| s.freelist.largest_hole_words as f64),
        ),
        metric("gc.verify.signature_s", "s", host_sum(traced, |r| r.times.signature)),
        metric("sim.system.new_s", "s", host_sum(traced, |r| r.times.system_new)),
        metric(
            "sim.functional_s",
            "s",
            host_sum(traced, |r| if r.cell.platform == Platform::Ideal { r.times.wall() } else { 0.0 }),
        ),
        metric("sim.timing_model_s", "s", paired_delta(traced, Platform::Ideal, Platform::Ddr4)),
    ]);
    for (level, name) in ["l1", "l2", "l3"].iter().enumerate() {
        let ddr4 = first
            .iter()
            .flat_map(|p| sims(p, Some(Platform::Ddr4)).map(|(_, s)| s.caches[level]));
        out.push(metric(format!("sim.cache.{name}_hit_rate"), "ratio", hit_rate(ddr4)));
    }
    let local = traffic(&|t| t.local_accesses);
    out.extend([
        metric("sim.dram.gc_mb", "MB", mb(charon_sum(&|s| s.gc_dram_bytes as f64))),
        metric("sim.dram.read_ops", "count", traffic(&|t| t.dram.reads)),
        metric("sim.dram.write_ops", "count", traffic(&|t| t.dram.writes)),
        metric("sim.fabric.local_ratio", "ratio", ratio(local, local + traffic(&|t| t.remote_accesses))),
        metric("sim.bwres.total_units", "count", traffic(&|t| t.bw.total_units)),
        metric("sim.bwres.spilled_units", "count", traffic(&|t| t.bw.spilled_units)),
        metric("sim.bwres.late_reservations", "count", traffic(&|t| t.bw.late_reservations)),
        metric("sim.host.prefetches", "count", charon_sum(&|s| s.prefetches as f64)),
        metric("core.device_model_s", "s", device_model_s),
        metric("core.host_ns_per_offload", "ns", ratio(device_model_s * 1e9, paired_offloads)),
        metric("core.device.offloads", "count", device(&|d| d.total_offloads() as f64)),
    ]);
    for (name, prim) in [
        ("copy", PrimType::Copy),
        ("search", PrimType::Search),
        ("bitmap_count", PrimType::BitmapCount),
        ("scan_push", PrimType::ScanPush),
    ] {
        out.push(metric(format!("core.device.offloads.{name}"), "count", device(&|d| d.prim(prim).offloads as f64)));
    }
    for (class, name) in UNIT_CLASS_NAMES.iter().enumerate() {
        // Busy unit-time over unit-time available during the GC pauses.
        let busy = device(&|d| d.units[class].busy.0 as f64);
        let capacity = charon_sum(&|s| {
            s.device.as_ref().map_or(0.0, |d| d.units[class].total_units as f64) * s.fingerprint.2 as f64
        });
        let high_water = all_charon
            .iter()
            .filter_map(|s| s.device.as_ref().map(|d| d.units[class].queue_high_water as f64))
            .fold(0.0, f64::max);
        out.push(metric(format!("core.units.{name}.utilization"), "ratio", ratio(busy, capacity)));
        out.push(metric(format!("core.units.{name}.queue_high_water"), "count", high_water));
    }
    let (lookups, remote) = all_charon
        .iter()
        .filter_map(|s| s.tlb)
        .fold((0u64, 0u64), |(l, r), (sl, sr)| (l + sl, r + sr));
    out.extend([
        metric("core.bitmap_cache.hit_rate", "ratio", hit_rate(all_charon.iter().filter_map(|s| s.bitmap_cache))),
        metric("core.tlb.remote_lookup_rate", "ratio", ratio(remote as f64, lookups as f64)),
        metric("sim.profile.dram_p50_ps", "ps", profile.get(Channel::DramPacket).p50() as f64),
        metric("sim.profile.dram_p99_ps", "ps", profile.get(Channel::DramPacket).p99() as f64),
        metric("sim.profile.noc_p50_ps", "ps", profile.get(Channel::NocPacket).p50() as f64),
        metric("sim.profile.noc_p99_ps", "ps", profile.get(Channel::NocPacket).p99() as f64),
    ]);
    for (name, channel) in [
        ("copy", Channel::PrimCopy),
        ("search", Channel::PrimSearch),
        ("bitmap_count", Channel::PrimBitmapCount),
        ("scan_push", Channel::PrimScanPush),
    ] {
        out.push(metric(format!("core.profile.offload_{name}_p99_ps"), "ps", profile.get(channel).p99() as f64));
    }
    let traced_passes = traced.iter().map(Vec::len).sum::<usize>() as f64;
    let glue = tracer.self_times().get("cell").map_or(0.0, |t| t.self_s) / traced_passes;
    out.extend([
        metric("trace.cell_self_s", "s", glue),
        metric("trace.overhead_s", "s", host(traced, pass_wall) - host(untraced, pass_wall)),
    ]);
    out
}
