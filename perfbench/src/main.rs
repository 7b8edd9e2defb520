//! `charon-perfbench` — runs one workload's cells for about `--seconds`
//! (at least one round) and prints its metrics.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload graph-ps [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics, and the host-time
//! metrics as text; with `--trace 1` it alternates untraced and traced
//! rounds and prints the per-layer metrics (host-time metrics first),
//! the self time of every span, and the tracing overhead, and writes the
//! spans to `.perfbench_out/`. The last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed` (cells) and `metrics`.

use charon_perfbench::metrics::{self, Metric, Round};
use charon_perfbench::{run_pass, setup_round, workload, Tracer, Workload, WORKLOAD_NAMES};
use charon_sim::json::Json;
use std::process::ExitCode;
use std::time::Instant;

const USAGE: &str = "usage: charon-perfbench --workload <graph-ps|spark-ps|alt-gc> [--seed <u64>] \
                     [--seconds <1..=600>] [--trace <0|1>]";

/// Set-up-only repeats before each pass. `setup_s` is the fastest of them:
/// their median followed the host's slow and fast phases, the fastest
/// follows the work.
const SETUP_REPEATS: usize = 24;

/// Where a traced run writes its spans, relative to the working directory.
const OUT_DIR: &str = ".perfbench_out";

/// Per-layer metrics that are differences of host times between
/// platforms, not measurements of one layer.
const ESTIMATES: [&str; 4] =
    ["sim.functional_s", "sim.timing_model_s", "core.device_model_s", "core.host_ns_per_offload"];

struct Args {
    workload: Workload,
    seed: Option<u64>,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut name, mut seed, mut seconds, mut trace) = (None, None, 10, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => name = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| format!("--seed {value}: not a u64"))?),
            "--seconds" => {
                seconds = value
                    .parse::<u64>()
                    .ok()
                    .filter(|s| (1..=600).contains(s))
                    .ok_or_else(|| format!("--seconds {value}: not in 1..=600"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: not 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let name = name.ok_or("--workload is required")?;
    let workload = workload(&name).ok_or_else(|| format!("unknown workload {name} (one of {WORKLOAD_NAMES:?})"))?;
    Ok(Args { workload, seed, seconds, trace })
}

/// The process's peak resident set (`VmHWM`), MB.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .strip_suffix("kB")?
        .trim();
    kb.parse::<f64>().ok().map(|kb| kb / 1024.0)
}

fn print_metrics(title: &str, list: &[Metric]) {
    println!("{title}:");
    for m in list {
        let note = if ESTIMATES.contains(&m.name.as_str()) { "  (estimate)" } else { "" };
        println!("  {:<42} {:>22} {}{note}", m.name, format!("{:.6}", m.value), m.unit);
    }
}

/// Checks that every round gave every cell the simulated outcome of the
/// first round; returns one line per mismatch.
fn determinism_errors(rounds: &[&Round]) -> Vec<String> {
    let mut errors = Vec::new();
    for (n, round) in rounds.iter().enumerate().skip(1) {
        for (a, b) in rounds[0].iter().flatten().zip(round.iter().flatten()) {
            if let (Ok(sa), Ok(sb)) = (&a.outcome, &b.outcome) {
                if sa.digest() != sb.digest() {
                    errors.push(format!("{}: round {n} differs from round 0 in simulated outcome", a.cell.id()));
                }
            }
        }
    }
    errors
}

fn write_spans(path: &str, args: &Args, seed: &str, tracer: &Tracer) -> std::io::Result<()> {
    let ids: Vec<String> = args.workload.cells.iter().map(|c| c.id()).collect();
    let spans = tracer
        .spans()
        .iter()
        .map(|s| {
            Json::obj([
                ("name", Json::str(s.name)),
                ("cell", Json::str(ids[s.cell].clone())),
                ("parent", s.parent.map_or(Json::Null, |p| Json::U64(p as u64))),
                ("start_ns", Json::U64(s.start_ns)),
                ("end_ns", Json::U64(s.end_ns)),
            ])
        })
        .collect();
    let doc = Json::obj([
        ("workload", Json::str(args.workload.name)),
        ("seed", Json::str(seed)),
        ("spans", Json::Arr(spans)),
    ]);
    std::fs::create_dir_all(OUT_DIR)?;
    std::fs::write(path, doc.to_string() + "\n")
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let cells = &args.workload.cells;
    let seed = args.seed.map_or_else(|| "table3".to_string(), |s| s.to_string());
    println!(
        "workload {} | seed {seed} ({}) | {} cells, closed loop, 1 caller on 1 OS thread",
        args.workload.name,
        if args.seed.is_some() { "overrides WorkloadSpec::seed in every cell" } else { "each spec's Table 3 seed" },
        cells.len()
    );

    let seeds = args.workload.round_seeds(args.seed);
    let started = Instant::now();
    let over = |next_s: f64| started.elapsed().as_secs_f64() + next_s > args.seconds as f64;
    let mut tracer = Tracer::new(false);
    let mut setup_samples = Vec::new();
    let (mut untraced, mut traced): (Vec<Round>, Vec<Round>) = (Vec::new(), Vec::new());
    let mut pass_s = 0.0;
    loop {
        let trace_round = args.trace && untraced.len() > traced.len();
        tracer.set_on(trace_round);
        let round_started = Instant::now();
        let mut round = Round::new();
        for &seed in &seeds {
            // After its first round, an untraced run stops between passes.
            if !args.trace && !untraced.is_empty() && over(pass_s) {
                break;
            }
            let pass_started = Instant::now();
            setup_samples.extend((0..SETUP_REPEATS).map(|_| setup_round(cells, seed)));
            round.push(run_pass(cells, seed, trace_round, &mut tracer));
            pass_s = pass_started.elapsed().as_secs_f64();
        }
        let round_s = round_started.elapsed().as_secs_f64();
        if round.is_empty() {
            break;
        }
        if trace_round {
            traced.push(round);
        } else {
            untraced.push(round);
        }
        let complete = !args.trace || !traced.is_empty();
        if complete && over(if args.trace { round_s } else { pass_s }) {
            break;
        }
    }

    for (pass, &seed) in untraced[0].iter().zip(&seeds) {
        for run in pass {
            let seed = run.cell.spec(seed).seed;
            match &run.outcome {
                Ok(sim) => println!(
                    "cell {:<14} seed {seed:<6} fingerprint {:?} signature {:#018x} wall {:.3} s",
                    run.cell.id(),
                    sim.fingerprint,
                    sim.signature,
                    run.times.wall()
                ),
                Err(e) => println!("cell {:<14} seed {seed:<6} FAILED: {e}", run.cell.id()),
            }
        }
    }
    let walls: Vec<String> = untraced
        .iter()
        .flatten()
        .map(|p| format!("{:.3}", p.iter().map(|r| r.times.wall()).sum::<f64>()))
        .collect();
    println!("untraced pass walls (s), in run order: {}", walls.join(" "));
    let all: Vec<&Round> = untraced.iter().chain(traced.iter()).collect();
    let mut errors = determinism_errors(&all);
    for (n, round) in all.iter().enumerate().skip(1) {
        for run in round.iter().flatten() {
            if let Err(e) = &run.outcome {
                errors.push(format!("{} failed in round {n}: {e}", run.cell.id()));
            }
        }
    }
    let attempted = metrics::attempted(&untraced) + metrics::attempted(&traced);
    let failed = metrics::failed(&untraced) + metrics::failed(&traced);
    let passes = |rounds: &[Round]| rounds.iter().map(Vec::len).sum::<usize>();
    println!(
        "rounds of {} seeds: {} untraced passes, {} traced; {} set-up samples; fail_ratio {} ({failed} failed / {attempted} attempted)",
        seeds.len(),
        passes(&untraced),
        passes(&traced),
        setup_samples.len(),
        failed as f64 / attempted as f64
    );

    let list = if args.trace {
        let list = metrics::per_layer(&traced, &untraced, &tracer);
        print_metrics(
            "per-layer metrics (traced passes; estimates are host-time differences between platforms)",
            &list,
        );
        println!("span self times (all traced passes):");
        for (name, t) in tracer.self_times() {
            println!("  {name:<36} {:>6} spans {:>12.6} s total {:>12.6} s self", t.count, t.total_s, t.self_s);
        }
        let path = format!("{OUT_DIR}/spans-{}-seed{seed}.json", args.workload.name);
        match write_spans(&path, &args, &seed, &tracer) {
            Ok(()) => println!("spans written to {path}"),
            Err(e) => errors.push(format!("writing {path}: {e}")),
        }
        list
    } else {
        let rss = peak_rss_mb().unwrap_or_else(|| {
            errors.push("no VmHWM in /proc/self/status".to_string());
            0.0
        });
        let list = metrics::end_to_end(&untraced, &setup_samples, rss);
        print_metrics("end-to-end metrics", &list);
        print_metrics(
            "host-time metrics (per-layer in BENCHMARK.json; the --trace 1 run reports them)",
            &metrics::host_times(&untraced),
        );
        let samples = metrics::step_samples(&untraced);
        let per_round = metrics::steps_per_round(&untraced);
        println!(
            "  step_tail_ms is p{:.2} of the {} superstep samples of the run ({} beyond it in each round of {per_round})",
            metrics::tail_pct(per_round),
            samples.len(),
            metrics::TAIL_BEYOND
        );
        let steps: Vec<f64> = samples.iter().map(|s| s.0).collect();
        let nogc: Vec<f64> = samples.iter().filter(|s| s.1 == 0).map(|s| s.0).collect();
        println!("  step_p50_ms (every step, GC or not) {:.6} ms", metrics::median(&steps) * 1e3);
        println!("  step_nogc_p50_ms {:.6} ms", metrics::median(&nogc) * 1e3);
        println!("  fail_ratio {} ratio", failed as f64 / attempted as f64);
        list
    };

    for e in &errors {
        println!("ERROR {e}");
    }
    let correct = failed == 0 && errors.is_empty();
    let metrics_json = Json::obj(
        list.iter()
            .map(|m| (m.name.clone(), Json::obj([("value", Json::F64(m.value)), ("unit", Json::str(m.unit))]))),
    );
    let result = Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::U64(attempted as u64)),
        ("failed", Json::U64(failed as u64)),
        ("metrics", metrics_json),
    ]);
    println!("{result}");
    ExitCode::SUCCESS
}
