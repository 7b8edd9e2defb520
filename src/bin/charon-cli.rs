//! `charon-cli` — run the simulated evaluation from the command line.
//!
//! ```text
//! charon-cli list                         # workloads and platforms
//! charon-cli run KM --platform Charon     # one workload, one platform
//! charon-cli run KM --json --trace-out km.trace.json
//! charon-cli compare LR --threads 4       # all platforms side by side
//! charon-cli compare BS --json            # same, machine-readable
//! charon-cli bench BS KM --steps 2        # writes BENCH_compare.json
//! charon-cli check-json report.json       # validate a JSON artifact
//! charon-cli config                       # Table 2
//! charon-cli area                         # Table 4
//! charon-cli chaos BS KM --seed 42        # seeded fault + corruption campaign (all nine sites)
//! charon-cli chaos BS --sites link,unit,bitmap --rates 0.05   # chosen sites at one rate
//! charon-cli fleet --tenants 4 --mix BS:2,PR:2 --sched fair   # multi-tenant interference
//! charon-cli profile KM --platform Charon # pause/latency histograms + census
//! charon-cli explain KM --top 5            # worst pauses: breakdown, units, energy
//! charon-cli regress OLD.json NEW.json --tolerance 10   # cross-run gate (exit 2 = regression)
//! charon-cli trend record HISTORY.json BENCH_compare.json --label abc123
//! charon-cli trend report HISTORY.json --metric gc_time # sparkline series
//! charon-cli trend bisect HISTORY.json     # first regressing run per metric
//! charon-cli autotune PS --policy census  # adaptive vs static offload mask
//! ```
//!
//! Every verb that runs a workload takes the run-flag group
//! ([`RUN_FLAGS`]: `--collector`, `--heap-factor`, `--threads`,
//! `--steps`, `--rearm`) plus its own extras ([`VERB_EXTRAS`]), and
//! builds one [`RunOptions`] from them.
//!
//! Every subcommand that takes `--json` prints exactly one JSON document
//! on stdout; status notes such as `wrote FILE` go to stderr then.

use charon::gc::adapt::PolicyKind;
use charon::gc::breakdown::Bucket;
use charon::gc::collector::CollectorKind;
use charon::gc::system::OffloadMask;
use charon::sim::json::Json;
use charon::sim::telemetry::chrome_trace;
use charon::workloads::history::BisectHit;
use charon::workloads::parmatrix::{system_by_label, PLATFORM_LABELS as PLATFORMS};
use charon::workloads::spec::{by_short, table3, WorkloadSpec};
use charon::workloads::{
    autotune, full_matrix, plan_tenants, run_chaos_campaign, run_fleet, run_matrix, run_workload, selfspeed_json,
    ChaosOptions, FleetOptions, Ledger, RunOptions, RunResult, SchedKind, Site,
};
use std::fmt::{Display, Write as _};
use std::process::ExitCode;

/// The run-flag group as `usage` prints it, one entry per [`RUN_FLAGS`] flag.
const RUN_USAGE: &str = "[--collector <ps|ms|cms|g1>] [--heap-factor <F>] [--threads <N>] [--steps <N>] [--rearm <N>]";

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  charon-cli list\n  charon-cli config\n  charon-cli area\n  \
         charon-cli run <BS|KM|LR|CC|PR|ALS> [--platform <P>] {RUN_USAGE} [--mask <M>] [--json] [--trace-out <FILE>]\n  \
         charon-cli compare <BS|KM|LR|CC|PR|ALS> {RUN_USAGE} [--json]\n  \
         charon-cli bench [<W>...] {RUN_USAGE} [--out <FILE>] [--jobs <N>]\n    \
         (also writes BENCH_selfspeed.json — simulated ps per wall-second, per cell)\n  \
         charon-cli check-json <FILE>\n  \
         charon-cli chaos [<W>...] {RUN_USAGE} [--sites <S,S,...>] [--rates <R,R,...>] [--oracle] [--seed <S>] \
         [--json] [--out <FILE>] [--jobs <N>]\n    \
         (sites: link,queue,tlb,mai,unit = pipeline faults, bitmap,forward,card,payload = silent corruption; \
         default all nine. Default rates: 0.2 per pipeline site plus 0.95 on unit, 0.02 and 0.1 per corruption \
         site; --rates replaces them at every selected site)\n  \
         charon-cli profile <BS|KM|LR|CC|PR|ALS> [--platform <P>] {RUN_USAGE} [--top <K>] [--json] [--profile-out <FILE>]\n  \
         charon-cli explain <BS|KM|LR|CC|PR|ALS> [--platform <P>] {RUN_USAGE} [--top <K>] [--json]\n    \
         (tail-pause attribution: top-K worst pauses with breakdown, unit, and energy context)\n  \
         charon-cli fleet [--platform <P>] {RUN_USAGE} [--tenants <N>] [--mix <W:N,W:N,...>] [--sched <fifo|fair|deadline>] \
         [--seed <S>] [--json] [--out <FILE>] [--jobs <N>]\n  \
         charon-cli regress <OLD.json> <NEW.json> [--tolerance <PCT>] [--metric <SUBSTR>]\n    \
         (exit 2 = regression beyond tolerance, 1 = usage/IO error)\n  \
         charon-cli trend record <LEDGER.json> <REPORT.json> [--label <L>]\n  \
         charon-cli trend report <LEDGER.json> [--metric <SUBSTR>] [--tolerance <PCT>] [--json] [--out <FILE>]\n  \
         charon-cli trend bisect <LEDGER.json> [--metric <SUBSTR>] [--tolerance <PCT>] [--json]\n    \
         (exit 2 = regression found; prints the first regressing run per metric)\n  \
         charon-cli autotune <BS|KM|LR|CC|PR|ALS|PS> [--platform <P>] {RUN_USAGE} [--policy <static|census|bandit>] [--seed <S>] \
         [--json] [--out <FILE>] [--jobs <N>]\n\
         platforms: {}",
        PLATFORMS.join(", ")
    );
    ExitCode::FAILURE
}

/// Every flag any subcommand accepts: `(name, takes_value)`. One table,
/// one parser — each subcommand passes the subset it allows.
const FLAG_TABLE: [(&str, bool); 24] = [
    ("--jobs", true),
    ("--platform", true),
    ("--collector", true),
    ("--heap-factor", true),
    ("--threads", true),
    ("--steps", true),
    ("--seed", true),
    ("--json", false),
    ("--trace-out", true),
    ("--out", true),
    ("--profile-out", true),
    ("--tolerance", true),
    ("--mask", true),
    ("--policy", true),
    ("--rearm", true),
    ("--rates", true),
    ("--sites", true),
    ("--oracle", false),
    ("--tenants", true),
    ("--mix", true),
    ("--sched", true),
    ("--top", true),
    ("--metric", true),
    ("--label", true),
];

/// The run-flag group: every verb that runs a workload accepts these, and
/// [`Flags::run_options`] turns them into the verb's one [`RunOptions`].
const RUN_FLAGS: [&str; 5] = ["--collector", "--heap-factor", "--threads", "--steps", "--rearm"];

/// Each workload-running verb's flags beyond [`RUN_FLAGS`]. `--platform`
/// belongs to the verbs that build one system; `compare`, `bench` and
/// `chaos` pick their platforms themselves.
const VERB_EXTRAS: [(&str, &[&str]); 8] = [
    ("run", &["--platform", "--mask", "--json", "--trace-out"]),
    ("compare", &["--json"]),
    ("bench", &["--out", "--jobs"]),
    ("chaos", &["--sites", "--rates", "--oracle", "--seed", "--json", "--out", "--jobs"]),
    ("profile", &["--platform", "--top", "--json", "--profile-out"]),
    ("explain", &["--platform", "--top", "--json"]),
    ("fleet", &["--platform", "--tenants", "--mix", "--sched", "--seed", "--json", "--out", "--jobs"]),
    ("autotune", &["--platform", "--policy", "--seed", "--json", "--out", "--jobs"]),
];

/// Parsed flag values, superset over all subcommands.
#[derive(Debug, Clone, Default)]
struct Flags {
    jobs: Option<usize>,
    platform: Option<String>,
    collector: Option<CollectorKind>,
    heap_factor: Option<f64>,
    threads: Option<usize>,
    steps: Option<usize>,
    seed: Option<u64>,
    json: bool,
    trace_out: Option<String>,
    out: Option<String>,
    profile_out: Option<String>,
    tolerance: Option<f64>,
    mask: Option<OffloadMask>,
    policy: Option<PolicyKind>,
    rearm: Option<u32>,
    rates: Option<Vec<f64>>,
    sites: Option<Vec<Site>>,
    oracle: bool,
    tenants: Option<usize>,
    mix: Option<String>,
    sched: Option<SchedKind>,
    top: Option<usize>,
    metric: Option<String>,
    label: Option<String>,
}

/// Table-driven flag parser. Rejects flags outside `allowed`, duplicate
/// flags, missing values, and malformed values — uniformly for every
/// subcommand.
fn parse_flags(rest: &[String], allowed: &[&str]) -> Result<Flags, String> {
    let mut flags = Flags::default();
    let mut seen: Vec<&str> = Vec::new();
    let mut i = 0;
    while i < rest.len() {
        let flag = rest[i].as_str();
        let Some(&(name, takes_value)) = FLAG_TABLE.iter().find(|(n, _)| *n == flag) else {
            return Err(format!("unknown flag {flag}"));
        };
        if !allowed.contains(&name) {
            return Err(format!("{name} is not valid for this subcommand"));
        }
        if seen.contains(&name) {
            return Err(format!("duplicate flag {name}"));
        }
        seen.push(name);
        let val = if takes_value {
            let v = rest.get(i + 1).ok_or_else(|| format!("{name} needs a value"))?;
            i += 2;
            v.as_str()
        } else {
            i += 1;
            ""
        };
        match name {
            "--jobs" => {
                let n: usize = val.parse().map_err(|_| format!("bad job count {val}"))?;
                if n == 0 || n > 64 {
                    return Err(format!("--jobs {n} out of range (1..=64)"));
                }
                flags.jobs = Some(n);
            }
            "--platform" => flags.platform = Some(val.to_string()),
            "--collector" => flags.collector = Some(val.parse::<CollectorKind>()?),
            "--heap-factor" => {
                let f: f64 = val.parse().map_err(|_| format!("bad factor {val}"))?;
                if !(1.0..=64.0).contains(&f) {
                    return Err(format!(
                        "--heap-factor {f} out of range (1.0..=64.0) — factors are relative to the minimum OOM-free heap"
                    ));
                }
                flags.heap_factor = Some(f);
            }
            "--threads" => {
                let n: usize = val.parse().map_err(|_| format!("bad thread count {val}"))?;
                if n == 0 || n > 64 {
                    return Err(format!("--threads {n} out of range (1..=64)"));
                }
                flags.threads = Some(n);
            }
            "--steps" => flags.steps = Some(val.parse().map_err(|_| format!("bad step count {val}"))?),
            "--seed" => flags.seed = Some(val.parse().map_err(|_| format!("bad seed {val}"))?),
            "--json" => flags.json = true,
            "--trace-out" => flags.trace_out = Some(val.to_string()),
            "--out" => flags.out = Some(val.to_string()),
            "--profile-out" => flags.profile_out = Some(val.to_string()),
            "--mask" => flags.mask = Some(val.parse::<OffloadMask>()?),
            "--policy" => flags.policy = Some(val.parse::<PolicyKind>()?),
            "--tolerance" => {
                let t: f64 = val.parse().map_err(|_| format!("bad tolerance {val}"))?;
                if !(0.0..=1000.0).contains(&t) {
                    return Err(format!("--tolerance {t} out of range (0..=1000, percent)"));
                }
                flags.tolerance = Some(t);
            }
            "--rearm" => {
                let n: u32 = val.parse().map_err(|_| format!("bad re-arm count {val}"))?;
                if n == 0 {
                    return Err("--rearm 0 would re-enable a dead unit immediately; use 1 or more".into());
                }
                flags.rearm = Some(n);
            }
            "--rates" => {
                let mut rates = Vec::new();
                for part in val.split(',') {
                    let r: f64 = part.parse().map_err(|_| format!("bad rate {part}"))?;
                    if !(0.0..=1.0).contains(&r) {
                        return Err(format!("--rates entry {r} out of range (0..=1, per attempt or write)"));
                    }
                    rates.push(r);
                }
                flags.rates = Some(rates);
            }
            "--sites" => {
                let mut sites = Vec::new();
                for part in val.split(',') {
                    let Some(site) = Site::by_name(part) else {
                        return Err(format!("unknown site {part} (one of: {})", Site::ALL.map(Site::name).join(", ")));
                    };
                    if sites.contains(&site) {
                        return Err(format!("duplicate site {part}"));
                    }
                    sites.push(site);
                }
                flags.sites = Some(sites);
            }
            "--oracle" => flags.oracle = true,
            "--tenants" => {
                let n: usize = val.parse().map_err(|_| format!("bad tenant count {val}"))?;
                if n == 0 || n > 256 {
                    return Err(format!("--tenants {n} out of range (1..=256)"));
                }
                flags.tenants = Some(n);
            }
            "--mix" => flags.mix = Some(val.to_string()),
            "--sched" => flags.sched = Some(val.parse::<SchedKind>()?),
            "--top" => {
                let n: usize = val.parse().map_err(|_| format!("bad top count {val}"))?;
                if n == 0 || n > 64 {
                    return Err(format!("--top {n} out of range (1..=64)"));
                }
                flags.top = Some(n);
            }
            "--metric" => flags.metric = Some(val.to_string()),
            "--label" => flags.label = Some(val.to_string()),
            _ => unreachable!("flag in table"),
        }
    }
    Ok(flags)
}

/// [`parse_flags`] for a subcommand: prints the error and returns `None`
/// so the caller can answer with [`usage`].
fn cli_flags(rest: &[String], allowed: &[&str]) -> Option<Flags> {
    parse_flags(rest, allowed).map_err(|e| eprintln!("{e}")).ok()
}

/// The flags a workload-running `verb` accepts: [`RUN_FLAGS`] plus its
/// [`VERB_EXTRAS`] entry.
fn verb_allowed(verb: &str) -> Vec<&'static str> {
    let extras = VERB_EXTRAS.iter().find(|(v, _)| *v == verb).map_or(&[][..], |&(_, e)| e);
    RUN_FLAGS.iter().chain(extras).copied().collect()
}

/// [`cli_flags`] for a workload-running verb.
fn verb_flags(verb: &str, rest: &[String]) -> Option<Flags> {
    cli_flags(rest, &verb_allowed(verb))
}

/// Resolves a workload argument, reporting an unknown code.
fn workload_arg(arg: Option<&String>) -> Option<WorkloadSpec> {
    let short = arg?;
    let spec = by_short(short);
    if spec.is_none() {
        eprintln!("unknown workload {short}");
    }
    spec
}

/// Splits `args` into its leading workload codes — every Table 3
/// workload when none are given — and the flags after them (`bench` and
/// `chaos` take a positional workload list).
fn workload_list(args: &[String]) -> Result<(Vec<WorkloadSpec>, &[String]), String> {
    let n = args.iter().take_while(|a| !a.starts_with("--")).count();
    let specs = if n == 0 {
        table3()
    } else {
        args[..n]
            .iter()
            .map(|s| by_short(s).ok_or_else(|| format!("unknown workload {s}")))
            .collect::<Result<_, _>>()?
    };
    Ok((specs, &args[n..]))
}

impl Flags {
    /// Worker threads for matrix subcommands (`--jobs`, default serial).
    fn jobs(&self) -> usize {
        self.jobs.unwrap_or(1)
    }

    /// The platform label for single-platform verbs (default Charon).
    fn platform(&self) -> &str {
        self.platform.as_deref().unwrap_or("Charon")
    }

    /// The verb's one [`RunOptions`], from the run-flag group.
    fn run_options(&self) -> RunOptions {
        RunOptions {
            heap_factor: self.heap_factor,
            gc_threads: self.threads.unwrap_or(8),
            supersteps: self.steps,
            rearm: self.rearm,
            collector: self.collector.unwrap_or_default(),
            ..Default::default()
        }
    }

    fn chaos_options(&self) -> ChaosOptions {
        let defaults = ChaosOptions::default();
        ChaosOptions {
            seed: self.seed.unwrap_or(defaults.seed),
            rates: self.rates.clone(),
            sites: self.sites.clone().unwrap_or(defaults.sites),
            oracle: self.oracle,
            run: self.run_options(),
        }
    }

    fn fleet_options(&self) -> FleetOptions {
        let defaults = FleetOptions::default();
        FleetOptions {
            platform: self.platform().to_string(),
            tenants: self.tenants.unwrap_or(0),
            mix: self.mix.clone(),
            sched: self.sched.unwrap_or(SchedKind::Fifo),
            seed: self.seed.unwrap_or(defaults.seed),
            run: self.run_options(),
        }
    }
}

/// `run`'s human-readable report (`fleet --tenants 1` prints it too).
fn run_text(r: &RunResult) -> String {
    let mut s = format!("{r}\n");
    let _ = writeln!(s, "  minor: {} pauses, {}   major: {} pauses, {}", r.minor.1, r.minor.0, r.major.1, r.major.0);
    for (name, bd) in [("minor", &r.minor_breakdown), ("major", &r.major_breakdown)] {
        if bd.total().0 == 0 {
            continue;
        }
        s.push_str(&format!("  {name} breakdown:"));
        for b in Bucket::ALL {
            if bd.get(b).0 > 0 {
                let _ = write!(s, " {b} {:.0}%", bd.fraction(b) * 100.0);
            }
        }
        s.push('\n');
    }
    let _ = writeln!(
        s,
        "  GC bandwidth {:.1} GB/s | energy {:.4} J | allocated {:.1} MB",
        r.gc_bandwidth_gbps(),
        r.energy.total_j(),
        r.allocated_bytes as f64 / 1e6
    );
    if let Some(d) = &r.device {
        let _ = writeln!(s, "  offloads: {}", d.total_offloads());
    }
    let _ = writeln!(
        s,
        "  traffic: dram {}, off-chip {}, locality {:.0}%",
        r.traffic.dram,
        r.traffic.offchip,
        r.local_ratio() * 100.0
    );
    s
}

fn write_file(path: &str, content: &str) -> Result<(), ExitCode> {
    std::fs::write(path, content).map_err(|e| {
        eprintln!("cannot write {path}: {e}");
        ExitCode::FAILURE
    })
}

/// The shared output tail: writes `json` to `out` when given, then prints
/// `json` (`--json`) or `text`. Under `--json` stdout carries exactly one
/// JSON document, so the `wrote FILE` note goes to stderr.
fn emit(flags: &Flags, out: Option<&str>, json: &Json, text: &dyn Display) -> ExitCode {
    if let Some(path) = out {
        if let Err(code) = write_file(path, &json.to_string()) {
            return code;
        }
        if flags.json {
            eprintln!("wrote {path}");
        } else {
            println!("wrote {path}");
        }
    }
    if flags.json {
        println!("{json}");
    } else {
        print!("{text}");
    }
    ExitCode::SUCCESS
}

fn read_json(path: &str) -> Result<Json, ExitCode> {
    let text = std::fs::read_to_string(path).map_err(|e| {
        eprintln!("cannot read {path}: {e}");
        ExitCode::FAILURE
    })?;
    Json::parse(&text).map_err(|e| {
        eprintln!("{path}: invalid JSON: {e}");
        ExitCode::FAILURE
    })
}

/// Runs one workload on all platforms; returns the per-platform results
/// in `PLATFORMS` order, or the failing platform's error.
fn compare_runs(spec: &WorkloadSpec, opts: &RunOptions) -> Result<Vec<RunResult>, String> {
    PLATFORMS
        .iter()
        .map(|p| {
            let sys = system_by_label(p).expect("known platform");
            run_workload(spec, sys, opts).map_err(|e| format!("{p}: {e}"))
        })
        .collect()
}

/// The `compare` JSON shape: the workload, every platform's full report,
/// and the DDR4-relative speedups.
fn compare_json(short: &str, runs: &[RunResult]) -> Json {
    let base = runs.first().map(|r| r.gc_time.0).unwrap_or(0);
    let speedups = runs
        .iter()
        .map(|r| (r.platform.to_string(), Json::F64(base as f64 / r.gc_time.0.max(1) as f64)))
        .collect::<Vec<_>>();
    Json::obj(vec![
        ("workload", Json::str(short)),
        ("runs", Json::Arr(runs.iter().map(|r| r.to_json()).collect())),
        ("speedup_vs_ddr4", Json::obj(speedups)),
    ])
}

/// `regress`'s gate: OLD and NEW recorded as a two-run [`Ledger`] and
/// bisected. Returns how many metrics (matching `filter`) both reports
/// carry, and the metrics whose NEW value regressed beyond `tolerance`.
fn gate(old: &Json, new: &Json, filter: Option<&str>, tolerance: f64) -> (usize, Vec<BisectHit>) {
    let mut ledger = Ledger::new();
    ledger.record("old", old);
    ledger.record("new", new);
    let compared = ledger
        .metric_names()
        .iter()
        .filter(|m| filter.is_none_or(|f| m.contains(f)) && ledger.series(m).iter().all(Option::is_some))
        .count();
    (compared, ledger.bisect_all(filter, tolerance))
}

/// `new / old` of a gate hit (old clamped to ≥ 1 so a zero baseline stays
/// finite).
fn ratio(h: &BisectHit) -> f64 {
    h.new as f64 / h.old.max(1) as f64
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("list") => {
            println!("workloads (Table 3, scaled):");
            for w in table3() {
                println!("  {w}");
            }
            println!("platforms: {}", PLATFORMS.join(", "));
            ExitCode::SUCCESS
        }
        Some("config") => {
            println!("{}", charon::sim::config::SystemConfig::table2_ddr4());
            ExitCode::SUCCESS
        }
        Some("area") => {
            println!("{}", charon::accel::area::report());
            ExitCode::SUCCESS
        }
        Some("run") => {
            let Some(spec) = workload_arg(args.get(1)) else { return usage() };
            let Some(flags) = verb_flags("run", &args[2..]) else { return usage() };
            let platform = flags.platform();
            let Some(mut sys) = system_by_label(platform) else {
                eprintln!("unknown platform {platform}");
                return usage();
            };
            // A mask asserting a primitive the chosen collector never
            // issues (Table 1 marks it N/A) is a contradiction, not a
            // no-op — reject it before the run starts.
            if let Some(mask) = flags.mask {
                if let Err(e) = flags.collector.unwrap_or_default().validate_mask(mask) {
                    eprintln!("{e}");
                    return usage();
                }
                sys.offload = mask;
            }
            let opts = RunOptions { telemetry: flags.trace_out.is_some(), ..flags.run_options() };
            match run_workload(&spec, sys, &opts) {
                Ok(r) => {
                    if let Some(path) = &flags.trace_out {
                        if let Err(code) = write_file(path, &chrome_trace(&r.events).to_string()) {
                            return code;
                        }
                    }
                    emit(&flags, None, &r.to_json(), &run_text(&r))
                }
                Err(e) => {
                    eprintln!("{e}");
                    ExitCode::FAILURE
                }
            }
        }
        Some("compare") => {
            let Some(spec) = workload_arg(args.get(1)) else { return usage() };
            let Some(flags) = verb_flags("compare", &args[2..]) else { return usage() };
            let runs = match compare_runs(&spec, &flags.run_options()) {
                Ok(rs) => rs,
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            };
            let base = runs[0].gc_time;
            let mut text = String::new();
            for r in &runs {
                let _ = writeln!(
                    text,
                    "{:<16} GC {:>12}  speedup {:>6.2}x  energy {:>8.4} J",
                    r.platform,
                    r.gc_time.to_string(),
                    base.0 as f64 / r.gc_time.0.max(1) as f64,
                    r.energy.total_j()
                );
            }
            emit(&flags, None, &compare_json(spec.short, &runs), &text)
        }
        Some("bench") => {
            let (specs, rest) = match workload_list(&args[1..]) {
                Ok(split) => split,
                Err(e) => {
                    eprintln!("{e}");
                    return usage();
                }
            };
            let Some(flags) = verb_flags("bench", rest) else { return usage() };
            // The whole workload × platform matrix runs through the
            // parallel runner; at --jobs 1 (the default) parallel_map
            // degenerates to the old serial loop. Cell order — and with
            // it BENCH_compare.json — is identical at every job count.
            let cells = full_matrix(&specs);
            let outcomes = run_matrix(&cells, &flags.run_options(), flags.jobs());
            let mut benches = Vec::new();
            for (spec, per_workload) in specs.iter().zip(outcomes.chunks(PLATFORMS.len())) {
                let mut runs = Vec::new();
                for o in per_workload {
                    match &o.result {
                        Ok(r) => runs.push(r.clone()),
                        Err(e) => {
                            eprintln!("{e}");
                            return ExitCode::FAILURE;
                        }
                    }
                }
                println!("{}: {} platforms benched", spec.short, runs.len());
                benches.push(compare_json(spec.short, &runs));
            }
            let report = Json::obj(vec![("benches", Json::Arr(benches))]);
            let path = flags.out.as_deref().unwrap_or("BENCH_compare.json");
            if let Err(code) = write_file(path, &report.to_string()) {
                return code;
            }
            println!("wrote {path}");
            // Self-speed (simulated ps per wall-second) goes to its own
            // file: wall-clock numbers are host-dependent and must never
            // touch the bit-identical compare report.
            let speed_path = "BENCH_selfspeed.json";
            if let Err(code) = write_file(speed_path, &selfspeed_json(&outcomes, flags.jobs()).to_string()) {
                return code;
            }
            println!("wrote {speed_path}");
            ExitCode::SUCCESS
        }
        Some("check-json") => {
            let Some(path) = args.get(1) else { return usage() };
            match read_json(path) {
                Ok(_) => {
                    println!("{path}: valid JSON");
                    ExitCode::SUCCESS
                }
                Err(code) => code,
            }
        }
        Some("chaos") => {
            let (specs, rest) = match workload_list(&args[1..]) {
                Ok(split) => split,
                Err(e) => {
                    eprintln!("{e}");
                    return usage();
                }
            };
            let Some(flags) = verb_flags("chaos", rest) else { return usage() };
            let report = match run_chaos_campaign(&specs, &flags.chaos_options(), flags.jobs()) {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("{e}");
                    return ExitCode::FAILURE;
                }
            };
            let code = emit(&flags, flags.out.as_deref(), &report.to_json(), &report);
            if report.pass() {
                code
            } else {
                eprintln!("chaos campaign FAILED ({} escaped, {} cells)", report.escaped(), report.cells.len());
                ExitCode::FAILURE
            }
        }
        Some("fleet") => {
            let Some(flags) = verb_flags("fleet", &args[1..]) else { return usage() };
            let opts = flags.fleet_options();
            // A one-tenant fleet has nothing to schedule: it IS a plain
            // run, and prints byte-identically to `charon-cli run` so
            // CI can diff the two with `cmp`.
            if opts.tenants == 1 {
                let spec = match plan_tenants(1, opts.mix.as_deref()) {
                    Ok(mut specs) => specs.remove(0),
                    Err(e) => {
                        eprintln!("{e}");
                        return usage();
                    }
                };
                let Some(sys) = system_by_label(&opts.platform) else {
                    eprintln!("unknown platform {}", opts.platform);
                    return usage();
                };
                return match run_workload(&spec, sys, &opts.run) {
                    Ok(r) => emit(&flags, flags.out.as_deref(), &r.to_json(), &run_text(&r)),
                    Err(e) => {
                        eprintln!("{e}");
                        ExitCode::FAILURE
                    }
                };
            }
            match run_fleet(&opts, flags.jobs()) {
                Ok(rep) => emit(&flags, flags.out.as_deref(), &rep.to_json(), &rep),
                Err(e) => {
                    eprintln!("{e}");
                    ExitCode::FAILURE
                }
            }
        }
        Some("profile") => {
            let Some(spec) = workload_arg(args.get(1)) else { return usage() };
            let Some(flags) = verb_flags("profile", &args[2..]) else { return usage() };
            let platform = flags.platform();
            let Some(sys) = system_by_label(platform) else {
                eprintln!("unknown platform {platform}");
                return usage();
            };
            let opts = RunOptions { profile: true, postmortem: Some(flags.top.unwrap_or(3)), ..flags.run_options() };
            match run_workload(&spec, sys, &opts) {
                Ok(r) => {
                    let profile = r.profile.as_ref().expect("profiler was enabled");
                    emit(&flags, flags.profile_out.as_deref(), &profile.to_json(), profile)
                }
                Err(e) => {
                    eprintln!("{e}");
                    ExitCode::FAILURE
                }
            }
        }
        Some("explain") => {
            let Some(spec) = workload_arg(args.get(1)) else { return usage() };
            let Some(flags) = verb_flags("explain", &args[2..]) else { return usage() };
            let platform = flags.platform();
            let Some(sys) = system_by_label(platform) else {
                eprintln!("unknown platform {platform}");
                return usage();
            };
            let opts = RunOptions { postmortem: Some(flags.top.unwrap_or(3)), ..flags.run_options() };
            match run_workload(&spec, sys, &opts) {
                Ok(r) => {
                    let profile = r.profile.as_ref().expect("postmortem forces profile collection");
                    let pm = profile.postmortem.as_ref().expect("postmortem was enabled");
                    let text = format!("explain: {} on {platform} — GC {}\n{pm}", spec.short, r.gc_time);
                    emit(&flags, None, &profile.to_json(), &text)
                }
                Err(e) => {
                    eprintln!("{e}");
                    ExitCode::FAILURE
                }
            }
        }
        Some("autotune") => {
            let Some(spec) = workload_arg(args.get(1)) else { return usage() };
            let Some(flags) = verb_flags("autotune", &args[2..]) else { return usage() };
            let platform = flags.platform();
            if system_by_label(platform).is_none() {
                eprintln!("unknown platform {platform}");
                return usage();
            }
            let policy = flags.policy.unwrap_or(PolicyKind::Census);
            let mut opts = flags.run_options();
            if let Some(seed) = flags.seed {
                opts.policy_seed = seed;
            }
            let make = || system_by_label(platform).expect("validated above");
            match autotune(&spec, make, policy, &opts, flags.jobs()) {
                Ok(rep) => emit(&flags, flags.out.as_deref(), &rep.to_json(), &rep),
                Err(e) => {
                    eprintln!("{e}");
                    ExitCode::FAILURE
                }
            }
        }
        Some("regress") => {
            let (Some(old_path), Some(new_path)) = (args.get(1), args.get(2)) else { return usage() };
            let Some(flags) = cli_flags(&args[3..], &["--tolerance", "--metric"]) else { return usage() };
            let tolerance = flags.tolerance.unwrap_or(10.0);
            let old = match read_json(old_path) {
                Ok(j) => j,
                Err(code) => return code,
            };
            let new = match read_json(new_path) {
                Ok(j) => j,
                Err(code) => return code,
            };
            // --metric narrows both the comparison count and the verdict,
            // so "0 comparable metrics" still errors when the filter
            // matches nothing.
            let (compared, hits) = gate(&old, &new, flags.metric.as_deref(), tolerance);
            if compared == 0 {
                eprintln!("no comparable metrics between {old_path} and {new_path}");
                return ExitCode::FAILURE;
            }
            for h in &hits {
                println!("REGRESSION {}: {} -> {} ({:.2}x, tolerance {tolerance}%)", h.metric, h.old, h.new, ratio(h));
            }
            if hits.is_empty() {
                println!("{compared} metrics within {tolerance}% of {old_path}");
                ExitCode::SUCCESS
            } else {
                // Exit 2 distinguishes "the gate tripped" from exit 1's
                // usage/IO/parse errors, so CI can tell them apart.
                eprintln!("{} of {compared} metrics regressed beyond {tolerance}%", hits.len());
                ExitCode::from(2)
            }
        }
        Some("trend") => {
            let read_ledger = |path: &str| -> Result<Ledger, ExitCode> {
                let text = std::fs::read_to_string(path).map_err(|e| {
                    eprintln!("cannot read {path}: {e}");
                    ExitCode::FAILURE
                })?;
                Ledger::parse(&text).map_err(|e| {
                    eprintln!("{path}: {e}");
                    ExitCode::FAILURE
                })
            };
            match args.get(1).map(String::as_str) {
                Some("record") => {
                    let (Some(ledger_path), Some(report_path)) = (args.get(2), args.get(3)) else { return usage() };
                    let Some(flags) = cli_flags(&args[4..], &["--label"]) else { return usage() };
                    // A missing ledger starts fresh; an unreadable or
                    // malformed one is an error, never silently replaced.
                    let mut ledger = if std::path::Path::new(ledger_path).exists() {
                        match read_ledger(ledger_path) {
                            Ok(l) => l,
                            Err(code) => return code,
                        }
                    } else {
                        Ledger::new()
                    };
                    let report = match read_json(report_path) {
                        Ok(j) => j,
                        Err(code) => return code,
                    };
                    let label = flags.label.clone().unwrap_or_else(|| format!("run-{}", ledger.runs.len()));
                    let n = ledger.record(label.clone(), &report);
                    if n == 0 {
                        eprintln!("{report_path}: no comparable metrics in this report shape");
                        return ExitCode::FAILURE;
                    }
                    if let Err(code) = write_file(ledger_path, &ledger.to_json().to_string()) {
                        return code;
                    }
                    println!("recorded {label}: {n} metrics as run {} in {ledger_path}", ledger.runs.len() - 1);
                    ExitCode::SUCCESS
                }
                Some("report") => {
                    let Some(ledger_path) = args.get(2) else { return usage() };
                    let allowed = ["--metric", "--tolerance", "--json", "--out"];
                    let Some(flags) = cli_flags(&args[3..], &allowed) else { return usage() };
                    let ledger = match read_ledger(ledger_path) {
                        Ok(l) => l,
                        Err(code) => return code,
                    };
                    let tolerance = flags.tolerance.unwrap_or(10.0);
                    let filter = flags.metric.as_deref();
                    let json = ledger.trend_json(filter, tolerance);
                    emit(&flags, flags.out.as_deref(), &json, &ledger.trend_report(filter, tolerance))
                }
                Some("bisect") => {
                    let Some(ledger_path) = args.get(2) else { return usage() };
                    let Some(flags) = cli_flags(&args[3..], &["--metric", "--tolerance", "--json"]) else {
                        return usage();
                    };
                    let ledger = match read_ledger(ledger_path) {
                        Ok(l) => l,
                        Err(code) => return code,
                    };
                    let tolerance = flags.tolerance.unwrap_or(10.0);
                    let hits = ledger.bisect_all(flags.metric.as_deref(), tolerance);
                    if flags.json {
                        let j = Json::obj(vec![
                            ("schema", Json::str("charon-bisect-v1")),
                            ("tolerance_pct", Json::F64(tolerance)),
                            (
                                "hits",
                                Json::Arr(
                                    hits.iter()
                                        .map(|h| {
                                            Json::obj(vec![
                                                ("metric", Json::str(&h.metric)),
                                                ("first_bad", Json::U64(h.first_bad as u64)),
                                                ("label", Json::str(&h.label)),
                                                ("old", Json::U64(h.old)),
                                                ("new", Json::U64(h.new)),
                                            ])
                                        })
                                        .collect(),
                                ),
                            ),
                        ]);
                        println!("{j}");
                    } else {
                        for h in &hits {
                            println!(
                                "FIRST-BAD {}: run {} ({}) {} -> {} (tolerance {tolerance}%)",
                                h.metric, h.first_bad, h.label, h.old, h.new
                            );
                        }
                    }
                    if hits.is_empty() {
                        if !flags.json {
                            println!("no metric regressed across {} runs in {ledger_path}", ledger.runs.len());
                        }
                        ExitCode::SUCCESS
                    } else {
                        eprintln!("{} metrics regressed since run 0 of {ledger_path}", hits.len());
                        ExitCode::from(2)
                    }
                }
                _ => usage(),
            }
        }
        _ => usage(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use charon::sim::faults::CorruptionSite;
    use charon::sim::report::{extract_metrics, higher_is_better};

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|a| a.to_string()).collect()
    }

    /// `run`'s allowlist: the run-flag group plus `--platform`, `--mask`,
    /// `--json` and `--trace-out`.
    fn run_allowed() -> Vec<&'static str> {
        verb_allowed("run")
    }

    #[test]
    fn parses_every_run_flag() {
        let f = parse_flags(
            &argv(&[
                "--platform",
                "Charon",
                "--collector",
                "cms",
                "--heap-factor",
                "1.5",
                "--threads",
                "4",
                "--steps",
                "3",
                "--json",
                "--trace-out",
                "t.json",
            ]),
            &run_allowed(),
        )
        .unwrap();
        assert_eq!(f.platform.as_deref(), Some("Charon"));
        assert_eq!(f.collector, Some(CollectorKind::Cms));
        assert_eq!(f.heap_factor, Some(1.5));
        assert_eq!(f.threads, Some(4));
        assert_eq!(f.steps, Some(3));
        assert!(f.json);
        assert_eq!(f.trace_out.as_deref(), Some("t.json"));
    }

    #[test]
    fn collector_flag_accepts_every_kind_and_rejects_unknowns() {
        for (name, kind) in [
            ("ps", CollectorKind::Ps),
            ("ms", CollectorKind::Ms),
            ("cms", CollectorKind::Cms),
            ("g1", CollectorKind::G1),
        ] {
            let f = parse_flags(&argv(&["--collector", name]), &run_allowed()).unwrap();
            assert_eq!(f.collector, Some(kind), "{name}");
        }
        let e = parse_flags(&argv(&["--collector", "zgc"]), &run_allowed()).unwrap_err();
        assert!(e.contains("unknown collector 'zgc'"), "{e}");
        assert!(e.contains("ps, ms, cms, or g1"), "{e}");
    }

    #[test]
    fn collector_defaults_to_ps_in_run_options() {
        let f = parse_flags(&argv(&[]), &run_allowed()).unwrap();
        assert_eq!(f.run_options().collector, CollectorKind::Ps);
        let f = parse_flags(&argv(&["--collector", "g1"]), &run_allowed()).unwrap();
        assert_eq!(f.run_options().collector, CollectorKind::G1);
    }

    #[test]
    fn every_workload_verb_accepts_the_run_flag_group() {
        let values =
            [("--collector", "cms"), ("--heap-factor", "1.5"), ("--threads", "4"), ("--steps", "2"), ("--rearm", "3")];
        assert_eq!(values.map(|(f, _)| f), RUN_FLAGS);
        let all: Vec<&str> = values.iter().flat_map(|&(f, v)| [f, v]).collect();
        for (verb, extras) in VERB_EXTRAS {
            let allowed = verb_allowed(verb);
            for (flag, value) in values {
                parse_flags(&argv(&[flag, value]), &allowed).unwrap_or_else(|e| panic!("{verb} {flag}: {e}"));
            }
            let f = parse_flags(&argv(&all), &allowed).unwrap();
            let o = f.run_options();
            assert_eq!((o.collector, o.heap_factor, o.gc_threads), (CollectorKind::Cms, Some(1.5), 4), "{verb}");
            assert_eq!((o.supersteps, o.rearm), (Some(2), Some(3)), "{verb}");
            for &(flag, takes_value) in &FLAG_TABLE {
                if allowed.contains(&flag) {
                    continue;
                }
                assert!(!extras.contains(&flag));
                let args = if takes_value { argv(&[flag, "1"]) } else { argv(&[flag]) };
                let e = parse_flags(&args, &allowed).unwrap_err();
                assert!(e.contains("not valid for this subcommand"), "{verb} {flag}: {e}");
            }
            for extra in extras {
                assert!(!RUN_FLAGS.contains(extra), "{verb} repeats the run-flag group's {extra}");
            }
        }
    }

    #[test]
    fn mask_collector_conflicts_are_typed_errors() {
        // ms never issues Bitmap Count (Table 1 N/A) — asserting it is
        // a contradiction; every other collector accepts the full mask.
        let mask: OffloadMask = "all".parse().unwrap();
        let e = CollectorKind::Ms.validate_mask(mask).unwrap_err();
        assert_eq!(e.collector, CollectorKind::Ms);
        assert_eq!(e.primitive, "bitmap-count");
        assert!(e.to_string().contains("never issues it"), "{e}");
        for kind in [CollectorKind::Ps, CollectorKind::Cms, CollectorKind::G1] {
            kind.validate_mask(mask).unwrap();
        }
        let no_bc: OffloadMask = "copy,search,scan-push".parse().unwrap();
        CollectorKind::Ms.validate_mask(no_bc).unwrap();
    }

    #[test]
    fn rejects_duplicate_flags() {
        let e = parse_flags(&argv(&["--threads", "4", "--threads", "8"]), &run_allowed()).unwrap_err();
        assert!(e.contains("duplicate flag --threads"), "{e}");
        let e = parse_flags(&argv(&["--json", "--json"]), &run_allowed()).unwrap_err();
        assert!(e.contains("duplicate flag --json"), "{e}");
    }

    #[test]
    fn rejects_flags_outside_the_subcommand_allowlist() {
        // `compare` takes no --platform; `run` takes no --seed.
        let e = parse_flags(&argv(&["--platform", "Charon"]), &verb_allowed("compare")).unwrap_err();
        assert!(e.contains("not valid for this subcommand"), "{e}");
        let e = parse_flags(&argv(&["--seed", "7"]), &run_allowed()).unwrap_err();
        assert!(e.contains("not valid for this subcommand"), "{e}");
    }

    #[test]
    fn rejects_unknown_flags_and_missing_values() {
        let e = parse_flags(&argv(&["--bogus"]), &run_allowed()).unwrap_err();
        assert!(e.contains("unknown flag --bogus"), "{e}");
        let e = parse_flags(&argv(&["--threads"]), &run_allowed()).unwrap_err();
        assert!(e.contains("--threads needs a value"), "{e}");
    }

    #[test]
    fn validates_flag_values() {
        assert!(parse_flags(&argv(&["--heap-factor", "0.5"]), &run_allowed()).is_err());
        // NaN and infinity pass a bare `< 1.0` check; a huge factor aborts
        // on allocation. All three are typed range errors.
        for bad in ["nan", "inf", "1e6"] {
            let e = parse_flags(&argv(&["--heap-factor", bad]), &run_allowed()).unwrap_err();
            assert!(e.contains("out of range (1.0..=64.0)"), "{bad}: {e}");
        }
        assert_eq!(
            parse_flags(&argv(&["--heap-factor", "64"]), &run_allowed())
                .unwrap()
                .heap_factor,
            Some(64.0)
        );
        assert!(parse_flags(&argv(&["--threads", "0"]), &run_allowed()).is_err());
        assert!(parse_flags(&argv(&["--threads", "65"]), &run_allowed()).is_err());
        assert!(parse_flags(&argv(&["--steps", "abc"]), &run_allowed()).is_err());
    }

    #[test]
    fn boolean_flags_take_no_value() {
        // `--json 5` parses --json alone; "5" is then an unknown token.
        let e = parse_flags(&argv(&["--json", "5"]), &run_allowed()).unwrap_err();
        assert!(e.contains("unknown flag 5"), "{e}");
    }

    #[test]
    fn tolerance_is_validated() {
        let f = parse_flags(&argv(&["--tolerance", "12.5"]), &["--tolerance"]).unwrap();
        assert_eq!(f.tolerance, Some(12.5));
        assert!(parse_flags(&argv(&["--tolerance", "-1"]), &["--tolerance"]).is_err());
        assert!(parse_flags(&argv(&["--tolerance", "abc"]), &["--tolerance"]).is_err());
    }

    /// A minimal bench-shaped report with one run per (workload, gc_time).
    fn bench_report(runs: &[(&str, u64, u64)]) -> Json {
        Json::obj(vec![(
            "benches",
            Json::Arr(vec![Json::obj(vec![(
                "runs",
                Json::Arr(
                    runs.iter()
                        .map(|&(w, gc, p99)| {
                            Json::obj(vec![
                                ("workload", Json::str(w)),
                                ("platform", Json::str("Charon")),
                                ("gc_time_ps", Json::U64(gc)),
                                (
                                    "profile",
                                    Json::obj(vec![(
                                        "pauses",
                                        Json::obj(vec![("minor", Json::obj(vec![("p99", Json::U64(p99))]))]),
                                    )]),
                                ),
                            ])
                        })
                        .collect(),
                ),
            )])]),
        )])
    }

    #[test]
    fn identical_reports_pass_the_gate() {
        let r = bench_report(&[("BS", 1_000, 100), ("KM", 2_000, 200)]);
        let (compared, regs) = gate(&r, &r, None, 10.0);
        assert_eq!(compared, 4, "gc_time + p99 per run");
        assert!(regs.is_empty(), "{regs:?}");
    }

    #[test]
    fn doubled_gc_time_is_flagged() {
        let old = bench_report(&[("BS", 1_000, 100)]);
        let new = bench_report(&[("BS", 2_000, 100)]);
        let (compared, regs) = gate(&old, &new, None, 10.0);
        assert_eq!(compared, 2);
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].metric, "BS/Charon/gc_time_ps");
        assert!((ratio(&regs[0]) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn p99_regression_is_flagged_independently() {
        let old = bench_report(&[("BS", 1_000, 100)]);
        let new = bench_report(&[("BS", 1_000, 250)]);
        let (_, regs) = gate(&old, &new, None, 10.0);
        assert_eq!(regs.len(), 1);
        assert_eq!(regs[0].metric, "BS/Charon/pause_minor_p99_ps");
    }

    #[test]
    fn growth_within_tolerance_passes() {
        let old = bench_report(&[("BS", 1_000, 100)]);
        let new = bench_report(&[("BS", 1_050, 104)]);
        let (_, regs) = gate(&old, &new, None, 10.0);
        assert!(regs.is_empty(), "{regs:?}");
        let (_, regs) = gate(&old, &new, None, 1.0);
        assert_eq!(regs.len(), 2, "tighter tolerance flags both");
    }

    #[test]
    fn zero_baseline_regresses_on_any_growth() {
        let old = bench_report(&[("BS", 0, 0)]);
        let new = bench_report(&[("BS", 1, 0)]);
        let (_, regs) = gate(&old, &new, None, 10.0);
        assert_eq!(regs.len(), 1);
    }

    #[test]
    fn metric_filter_narrows_the_count_and_the_verdict() {
        let old = bench_report(&[("BS", 1_000, 100)]);
        let new = bench_report(&[("BS", 2_000, 100)]);
        let (compared, regs) = gate(&old, &new, Some("p99"), 10.0);
        assert_eq!((compared, regs.len()), (1, 0), "the gc_time regression is filtered out");
        let (compared, regs) = gate(&old, &new, Some("gc_time"), 10.0);
        assert_eq!((compared, regs.len()), (1, 1));
        assert_eq!(gate(&old, &new, Some("nothing"), 10.0).0, 0, "a filter matching nothing compares nothing");
    }

    #[test]
    fn disjoint_reports_compare_nothing() {
        let old = bench_report(&[("BS", 1_000, 100)]);
        let new = bench_report(&[("KM", 1_000, 100)]);
        let (compared, regs) = gate(&old, &new, None, 10.0);
        assert_eq!((compared, regs.len()), (0, 0));
    }

    #[test]
    fn parses_trend_and_explain_flags() {
        let all = ["--top", "--metric", "--label"];
        let f = parse_flags(&argv(&["--top", "5", "--metric", "gc_time", "--label", "abc123"]), &all).unwrap();
        assert_eq!(f.top, Some(5));
        assert_eq!(f.metric.as_deref(), Some("gc_time"));
        assert_eq!(f.label.as_deref(), Some("abc123"));
        assert!(parse_flags(&argv(&["--top", "0"]), &all).is_err());
        assert!(parse_flags(&argv(&["--top", "65"]), &all).is_err());
        assert!(parse_flags(&argv(&["--top", "x"]), &all).is_err());
    }

    #[test]
    fn jobs_flag_is_validated() {
        let f = parse_flags(&argv(&["--jobs", "4"]), &["--jobs"]).unwrap();
        assert_eq!(f.jobs, Some(4));
        assert_eq!(f.jobs(), 4);
        assert_eq!(Flags::default().jobs(), 1, "default is serial");
        assert!(parse_flags(&argv(&["--jobs", "0"]), &["--jobs"]).is_err());
        assert!(parse_flags(&argv(&["--jobs", "65"]), &["--jobs"]).is_err());
        assert!(parse_flags(&argv(&["--jobs", "x"]), &["--jobs"]).is_err());
    }

    /// A minimal selfspeed-shaped report with one entry per (workload,
    /// sim_ps_per_wall_s).
    fn selfspeed_report(entries: &[(&str, u64)]) -> Json {
        Json::obj(vec![
            ("schema", Json::str("charon-selfspeed-v1")),
            ("jobs", Json::U64(2)),
            (
                "entries",
                Json::Arr(
                    entries
                        .iter()
                        .map(|&(w, v)| {
                            Json::obj(vec![
                                ("workload", Json::str(w)),
                                ("platform", Json::str("Charon")),
                                ("sim_ps", Json::U64(1)),
                                ("wall_ns", Json::U64(1)),
                                ("sim_ps_per_wall_s", Json::U64(v)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    #[test]
    fn selfspeed_reports_extract_named_metrics() {
        let m = extract_metrics(&selfspeed_report(&[("BS", 5_000)]));
        assert_eq!(m, vec![("BS/Charon/selfspeed_sim_ps_per_wall_s".to_string(), 5_000)]);
    }

    #[test]
    fn selfspeed_regresses_downward_not_upward() {
        let old = selfspeed_report(&[("BS", 10_000)]);
        let faster = selfspeed_report(&[("BS", 20_000)]);
        let slower = selfspeed_report(&[("BS", 8_000)]);
        let (compared, regs) = gate(&old, &faster, None, 15.0);
        assert_eq!((compared, regs.len()), (1, 0), "a speedup must never trip the gate");
        let (_, regs) = gate(&old, &slower, None, 15.0);
        assert_eq!(regs.len(), 1, "a 20% slowdown trips the 15% gate");
        assert_eq!(regs[0].metric, "BS/Charon/selfspeed_sim_ps_per_wall_s");
        let (_, regs) = gate(&old, &selfspeed_report(&[("BS", 9_000)]), None, 15.0);
        assert!(regs.is_empty(), "a 10% slowdown stays within the 15% tolerance");
    }

    #[test]
    fn bare_profile_reports_are_comparable() {
        // The `profile --profile-out` shape: pauses at top level.
        let p = Json::obj(vec![
            ("workload", Json::str("KM")),
            ("platform", Json::str("DDR4")),
            ("gc_time_ps", Json::U64(5_000)),
            ("pauses", Json::obj(vec![("major", Json::obj(vec![("p99", Json::U64(900))]))])),
        ]);
        let m = extract_metrics(&p);
        assert_eq!(m, vec![("KM/DDR4/gc_time_ps".to_string(), 5_000), ("KM/DDR4/pause_major_p99_ps".to_string(), 900)]);
    }

    #[test]
    fn parses_chaos_flags() {
        let f = parse_flags(
            &argv(&["--rates", "0.02,0.1", "--sites", "bitmap,card", "--oracle", "--rearm", "3"]),
            &["--rates", "--sites", "--oracle", "--rearm"],
        )
        .unwrap();
        assert_eq!(f.rates, Some(vec![0.02, 0.1]));
        let sites = [CorruptionSite::BitmapWord, CorruptionSite::CardByte].map(Site::Corruption);
        assert_eq!(f.sites, Some(sites.to_vec()));
        assert!(f.oracle);
        assert_eq!(f.rearm, Some(3));
    }

    #[test]
    fn rejects_bad_chaos_flag_values() {
        let all = ["--rates", "--sites", "--rearm"];
        let e = parse_flags(&argv(&["--rates", "1.5"]), &all).unwrap_err();
        assert!(e.contains("out of range"), "{e}");
        let e = parse_flags(&argv(&["--sites", "bitmap,nonsense"]), &all).unwrap_err();
        assert!(e.contains("unknown site nonsense"), "{e}");
        let e = parse_flags(&argv(&["--sites", "card,card"]), &all).unwrap_err();
        assert!(e.contains("duplicate site"), "{e}");
        let e = parse_flags(&argv(&["--rearm", "0"]), &all).unwrap_err();
        assert!(e.contains("--rearm 0"), "{e}");
    }

    #[test]
    fn parses_fleet_flags() {
        let all = ["--tenants", "--mix", "--sched"];
        let f = parse_flags(&argv(&["--tenants", "4", "--mix", "BS:2,PR:2", "--sched", "fair"]), &all).unwrap();
        assert_eq!(f.tenants, Some(4));
        assert_eq!(f.mix.as_deref(), Some("BS:2,PR:2"));
        assert_eq!(f.sched, Some(SchedKind::FairShare));
        assert!(parse_flags(&argv(&["--tenants", "0"]), &all).is_err());
        assert!(parse_flags(&argv(&["--tenants", "257"]), &all).is_err());
        let e = parse_flags(&argv(&["--sched", "rr"]), &all).unwrap_err();
        assert!(e.contains("unknown scheduler"), "{e}");
    }

    /// A minimal fleet-shaped report with one tenant.
    fn fleet_report(p99: u64, makespan: u64, inflation: u64) -> Json {
        Json::obj(vec![
            ("schema", Json::str("charon-fleet-v1")),
            ("sched", Json::str("fifo")),
            (
                "fleet",
                Json::obj(vec![
                    ("p99_ps", Json::U64(p99)),
                    ("max_inflation_bp", Json::U64(inflation)),
                    ("makespan_ps", Json::U64(makespan)),
                ]),
            ),
            (
                "tenant_detail",
                Json::Arr(vec![Json::obj(vec![("label", Json::str("t0:BS")), ("inflation_bp", Json::U64(inflation))])]),
            ),
        ])
    }

    #[test]
    fn fleet_reports_extract_lower_is_better_metrics() {
        let m = extract_metrics(&fleet_report(500, 9_000, 12_000));
        assert_eq!(
            m,
            vec![
                ("fleet/fifo/p99_ps".to_string(), 500),
                ("fleet/fifo/max_inflation_bp".to_string(), 12_000),
                ("fleet/fifo/makespan_ps".to_string(), 9_000),
                ("fleet/fifo/t0:BS/inflation_bp".to_string(), 12_000),
            ]
        );
        for (name, _) in &m {
            assert!(!higher_is_better(name), "{name} must regress upward");
        }
        // Worse interference trips the gate; identical reports pass.
        let old = fleet_report(500, 9_000, 12_000);
        let (compared, regs) = gate(&old, &fleet_report(500, 9_000, 15_000), None, 10.0);
        assert_eq!(compared, 4);
        assert_eq!(regs.len(), 2, "fleet-wide and per-tenant inflation both flagged");
        let (_, regs) = gate(&old, &old, None, 10.0);
        assert!(regs.is_empty(), "{regs:?}");
    }

    /// A minimal chaos-campaign report with the given counts and one cell.
    fn chaos_report(injected: u64, detected: u64, repaired: u64, escaped: u64) -> Json {
        Json::obj(vec![
            ("schema", Json::str("charon-chaos-v1")),
            ("injected", Json::U64(injected)),
            ("detected", Json::U64(detected)),
            ("repaired", Json::U64(repaired)),
            ("benign", Json::U64(0)),
            ("escaped", Json::U64(escaped)),
            (
                "cells",
                Json::Arr(vec![Json::obj(vec![
                    ("workload", Json::str("BS")),
                    ("site", Json::str("bitmap")),
                    ("rate", Json::F64(0.05)),
                    ("escaped", Json::U64(escaped)),
                ])]),
            ),
        ])
    }

    #[test]
    fn chaos_reports_extract_direction_aware_metrics() {
        let m = extract_metrics(&chaos_report(200, 190, 190, 10));
        assert_eq!(
            m,
            vec![
                ("chaos/detection_rate_bp".to_string(), 9_500),
                ("chaos/repair_rate_bp".to_string(), 10_000),
                ("chaos/escaped".to_string(), 10),
                ("chaos/BS/bitmap/0.05/escaped".to_string(), 10),
            ]
        );
        assert!(higher_is_better("chaos/detection_rate_bp"));
        assert!(higher_is_better("chaos/repair_rate_bp"));
        assert!(!higher_is_better("chaos/escaped"));
    }

    #[test]
    fn chaos_detection_regresses_downward_and_escapes_upward() {
        let old = chaos_report(200, 200, 200, 0);
        // Detection dropped 100% -> 80%: trips the higher-is-better gate.
        let worse_detection = chaos_report(200, 160, 160, 40);
        let (compared, regs) = gate(&old, &worse_detection, None, 10.0);
        assert_eq!(compared, 4);
        let names: Vec<&str> = regs.iter().map(|r| r.metric.as_str()).collect();
        assert!(names.contains(&"chaos/detection_rate_bp"), "{names:?}");
        // Escapes over a zero baseline regress on any nonzero count.
        assert!(names.contains(&"chaos/escaped"), "{names:?}");
        // Identical reports pass clean.
        let (_, regs) = gate(&old, &chaos_report(200, 200, 200, 0), None, 10.0);
        assert!(regs.is_empty(), "{regs:?}");
    }
}
