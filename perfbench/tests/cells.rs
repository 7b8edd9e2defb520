//! The benchmark's hand-driven cells must reproduce the library, and its
//! metric list must match `BENCHMARK.json`.

use charon_gc::collector::CollectorKind;
use charon_perfbench::metrics::{self, Metric};
use charon_perfbench::{run_cell, run_pass, workload, Cell, PassSeed, Platform, Tracer};
use charon_sim::json::Json;
use charon_workloads::{run_workload, RunOptions};

fn cell(workload: &'static str, platform: Platform, collector: CollectorKind) -> Cell {
    Cell { workload, platform, collector }
}

#[test]
fn hand_driven_cell_matches_run_workload_on_every_workload() {
    // The cheapest cell of each workload, at its Table 3 seed and at
    // another one.
    for (name, id) in [("graph-ps", "PR/Ideal/ps"), ("spark-ps", "ALS/Ideal/ps"), ("alt-gc", "BS/Charon/ms")] {
        let cell = workload(name)
            .unwrap()
            .cells
            .into_iter()
            .find(|c| c.id() == id)
            .expect("cell of the workload");
        for seed in [PassSeed::default(), PassSeed { base: Some(7), offset: 1 }] {
            let run = run_cell(cell, seed, false, 0, &mut Tracer::new(false));
            let sim = run.outcome.unwrap_or_else(|e| panic!("{id} failed: {e}"));
            let opts = RunOptions { collector: cell.collector, ..Default::default() };
            let lib = run_workload(&cell.spec(seed), cell.platform.system(), &opts).expect("library run");
            assert_eq!(sim.fingerprint, lib.fingerprint(), "{id} at {seed:?}");
        }
    }
}

#[test]
fn profiler_and_spans_leave_the_simulated_outcome_unchanged() {
    let cell = cell("ALS", Platform::Charon, CollectorKind::Ps);
    let plain = run_cell(cell, PassSeed::default(), false, 0, &mut Tracer::new(false))
        .outcome
        .unwrap();
    let mut tracer = Tracer::new(true);
    let traced = run_cell(cell, PassSeed::default(), true, 0, &mut tracer).outcome.unwrap();
    assert_eq!(plain.digest(), traced.digest());
    assert!(plain.profile.is_none());
    assert!(traced.profile.expect("profiled").total_samples() > 0);
    let names: Vec<&str> = tracer.spans().iter().map(|s| s.name).collect();
    assert_eq!(names[..2], ["cell", "sim.system.new"]);
    assert!(tracer.spans()[1..].iter().all(|s| s.parent == Some(0)), "calls nest under their cell");
}

#[test]
fn seeds_of_a_round_are_distinct_across_runs() {
    let w = workload("spark-ps").unwrap();
    let k = w.seeds_per_round;
    let seeds = |n| {
        w.round_seeds(Some(n))
            .iter()
            .map(|&s| w.cells[0].spec(s).seed)
            .collect::<Vec<_>>()
    };
    assert_eq!(seeds(2), (2 * k..3 * k).collect::<Vec<_>>());
    let table3 = w.cells[0].spec(PassSeed::default()).seed;
    assert_eq!(w.cells[0].spec(w.round_seeds(None)[0]).seed, table3, "no --seed keeps the Table 3 seed");
}

/// g1 KM leaves old→young references on clean cards at most seeds, so
/// `alt-gc` carries no g1 cell; this test is the reminder to add it back.
#[test]
#[ignore = "g1lite leaves old→young references on clean cards (check::verify_heap reports MissingCard)"]
fn g1_km_cell_passes_the_correctness_gate() {
    let run = run_cell(
        cell("KM", Platform::Charon, CollectorKind::G1),
        PassSeed::default(),
        false,
        0,
        &mut Tracer::new(false),
    );
    assert!(run.outcome.is_ok(), "{:?}", run.outcome.err());
}

fn listed(doc: &Json, key: &str) -> Vec<(String, String)> {
    doc.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key} list"))
        .iter()
        .map(|m| {
            let field = |f: &str| m.get(f).and_then(Json::as_str).expect("name and unit").to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn emitted(list: &[Metric]) -> Vec<(String, String)> {
    list.iter().map(|m| (m.name.clone(), m.unit.to_string())).collect()
}

#[test]
fn benchmark_json_lists_exactly_the_emitted_metrics() {
    let text =
        std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json")).expect("BENCHMARK.json");
    let doc = Json::parse(&text).expect("valid JSON");
    let workloads: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .filter_map(|w| w.get("name")?.as_str())
        .collect();
    // spark-ps stays runnable but is not in BENCHMARK.json: its host times
    // drift past the bound on a shared host.
    assert_eq!(workloads, ["graph-ps", "alt-gc"]);

    let cells: Vec<Cell> = [Platform::Ddr4, Platform::Charon, Platform::Ideal]
        .map(|p| cell("ALS", p, CollectorKind::Ps))
        .into();
    let mut tracer = Tracer::new(true);
    let rounds = vec![vec![run_pass(&cells, PassSeed::default(), true, &mut tracer)]];
    assert_eq!(metrics::failed(&rounds), 0);
    assert_eq!(emitted(&metrics::end_to_end(&rounds, &[0.01], 40.0)), listed(&doc, "end_to_end"));
    assert_eq!(emitted(&metrics::per_layer(&rounds, &rounds, &tracer)), listed(&doc, "per_layer"));
}

#[test]
fn tail_leaves_ten_samples_beyond_it() {
    for n in [84, 252, 336, 552] {
        let steps: Vec<(f64, usize)> = (1..=n).map(|i| (f64::from(i), 1)).collect();
        assert_eq!(metrics::step_tail(&steps, metrics::tail_pct(steps.len())), f64::from(n - 10), "{n} steps");
    }
    assert!((metrics::tail_pct(252) - 96.03).abs() < 0.01);
    assert_eq!(metrics::percentile(&[5.0, 1.0, 4.0, 2.0, 3.0], 10.0), 1.0);
    assert_eq!(metrics::percentile(&[], 10.0), 0.0);
    assert_eq!(metrics::median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
}
