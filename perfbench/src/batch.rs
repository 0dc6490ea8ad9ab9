//! `batch-suite`: the Table 2 applications at full scale, one at a time,
//! through the pipeline the paper's figures are regenerated with — no
//! run memoization, so every pass does all of its work.
//!
//! Per application (one work unit): the `Inter` layout pass,
//! `generate_traces` for the default and the optimized layouts,
//! `simulate` under LRU and KARMA for both (KARMA hints computed first),
//! and one `simulate_sweep` of the default layout over Fig. 7(c)'s five
//! capacity points. Outputs are checked against `results/fig7a.txt`
//! (LRU) and `results/fig7h.txt` (KARMA), and the sweep's 1× point must
//! be bit-identical to the LRU default `simulate` report.

use crate::tracing::{LayerTotals, Tracer};
use crate::{another_unit, median, peak_rss_mb, Layer, Named, Opts, Outcome};
use flo_bench::experiments::fig7c;
use flo_bench::harness::{karma_hints, prepare_run, RunOverrides, Scheme};
use flo_core::generate_traces;
use flo_linalg::SplitMix64;
use flo_sim::{
    simulate, simulate_sweep, PolicyKind, SimReport, StorageSystem, SweepPoint, ThreadTrace,
    Topology,
};
use flo_workloads::{Scale, Workload};
use std::collections::HashMap;
use std::time::Instant;

/// Set-up repetitions per block; `setup_s` is the median over all
/// blocks. One set-up takes about 0.2 ms, and on a shared host its speed
/// swings with load elsewhere — by up to 2× between runs a minute apart,
/// more than the applications' speed does. So one block runs before the
/// measured region and one after each application of the first pass,
/// with their time left out of the measured region: the median then
/// samples the host across the run, as the throughput does.
const SETUP_REPS: usize = 177;

/// Expected 3-decimal normalized execution times per application:
/// `(lru, karma)`.
type Expected = HashMap<String, (String, String)>;

/// The data rows of a rendered results table: whitespace-split cells of
/// every line after the `----` rule, minus the `AVERAGE` row and notes.
fn table_rows(text: &str) -> Vec<Vec<&str>> {
    text.lines()
        .skip_while(|l| !l.starts_with("---"))
        .skip(1)
        .map(|l| l.split_whitespace().collect::<Vec<_>>())
        .filter(|cells| cells.len() >= 2 && cells[0] != "AVERAGE" && !cells[0].ends_with(':'))
        .collect()
}

/// Read the checked-in Fig. 7(a) and Fig. 7(h) tables.
fn expected() -> Result<Expected, String> {
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("cannot read {p}: {e}"));
    let fig7a = read("results/fig7a.txt")?;
    let fig7h = read("results/fig7h.txt")?;
    let karma: HashMap<&str, &str> = table_rows(&fig7h)
        .into_iter()
        .filter(|r| r.len() >= 3)
        .map(|r| (r[0], r[2]))
        .collect();
    let mut out = Expected::new();
    for r in table_rows(&fig7a) {
        let k = karma
            .get(r[0])
            .ok_or_else(|| format!("fig7h.txt has no row for {}", r[0]))?;
        out.insert(r[0].to_string(), (r[1].to_string(), k.to_string()));
    }
    Ok(out)
}

/// What set-up produces: the suite, the topology, Fig. 7(c)'s sweep
/// points, the index of the 1× point among them, and the expected
/// results.
type State = (Vec<Workload>, Topology, Vec<SweepPoint>, usize, Expected);

/// One set-up: build the suite's programs and read the expected
/// results. Pushes the program-building time to `build_ms`.
fn set_up(build_ms: &mut Vec<f64>) -> Result<State, String> {
    let t0 = Instant::now();
    let suite = flo_workloads::all(Scale::Full);
    build_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    let topo = Topology::paper_default();
    let points = fig7c::sweep_points(&topo);
    let one_x = points
        .iter()
        .position(|p| *p == SweepPoint::of(&topo))
        .ok_or("fig7c sweep has no 1x point")?;
    Ok((suite, topo, points, one_x, expected()?))
}

/// A block of [`SETUP_REPS`] timed set-ups, each pushed to `setup_s`.
/// Returns the last set-up's state and the block's wall time in seconds.
fn setup_block(setup_s: &mut Vec<f64>, build_ms: &mut Vec<f64>) -> Result<(State, f64), String> {
    let t_block = Instant::now();
    let mut state = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let s = set_up(build_ms)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        state = Some(s);
    }
    let state = state.ok_or("no set-up ran")?;
    Ok((state, t_block.elapsed().as_secs_f64()))
}

/// Counts gathered from traced work units only.
#[derive(Default)]
struct Counts {
    arrays_optimized: f64,
    trace_entries: u64,
    sim_requests: u64,
    io_hits: u64,
    io_accesses: u64,
    storage_hits: u64,
    storage_accesses: u64,
    disk_reads: u64,
    sweep_points: u64,
}

/// What one application's pipeline produced.
struct AppResult {
    norm_lru: f64,
    norm_karma: f64,
    /// Failed checks, described.
    failures: Vec<String>,
}

fn simulate_one(
    tr: &mut Tracer,
    unit: u64,
    topo: &Topology,
    traces: &[ThreadTrace],
    run_cfg: &flo_sim::RunConfig,
    policy: PolicyKind,
) -> Result<SimReport, String> {
    let hints = match policy {
        PolicyKind::Karma => {
            Some(tr.span("bench.karma_hints", unit, |_| karma_hints(traces, topo)))
        }
        _ => None,
    };
    tr.span("sim.simulate", unit, |_| {
        let mut system = StorageSystem::new(topo.clone(), policy).map_err(|e| e.to_string())?;
        if let Some(h) = &hints {
            system.set_karma_hints(h);
        }
        Ok(simulate(&mut system, traces, run_cfg))
    })
}

fn count_report(c: &mut Counts, r: &SimReport) {
    c.sim_requests += r.total_requests;
    c.io_hits += r.layers.io.hits;
    c.io_accesses += r.layers.io.accesses;
    c.storage_hits += r.layers.storage.hits;
    c.storage_accesses += r.layers.storage.accesses;
    c.disk_reads += r.disk_reads;
}

#[allow(clippy::too_many_arguments)]
fn process_app(
    tr: &mut Tracer,
    unit: u64,
    w: &Workload,
    topo: &Topology,
    points: &[SweepPoint],
    one_x: usize,
    expected: &Expected,
    counts: &mut Counts,
) -> Result<AppResult, String> {
    let traced = tr.is_on();
    tr.span("bench.app", unit, |tr| {
        let ov = RunOverrides::default();
        let dflt = prepare_run(w, topo, Scheme::Default, &ov).map_err(|e| e.to_string())?;
        let inter = tr
            .span("core.pass", unit, |_| {
                prepare_run(w, topo, Scheme::Inter, &ov)
            })
            .map_err(|e| e.to_string())?;
        let gen = |tr: &mut Tracer, p: &flo_bench::harness::PreparedRun| {
            tr.span("core.tracegen", unit, |_| {
                generate_traces(&w.program, &p.cfg, &p.layouts, topo)
            })
        };
        let traces_d = gen(tr, &dflt);
        let traces_i = gen(tr, &inter);
        let lru = PolicyKind::LruInclusive;
        let karma = PolicyKind::Karma;
        let d_lru = simulate_one(tr, unit, topo, &traces_d, &dflt.run_cfg, lru)?;
        let d_karma = simulate_one(tr, unit, topo, &traces_d, &dflt.run_cfg, karma)?;
        let i_lru = simulate_one(tr, unit, topo, &traces_i, &inter.run_cfg, lru)?;
        let i_karma = simulate_one(tr, unit, topo, &traces_i, &inter.run_cfg, karma)?;
        let sweep = tr
            .span("sim.sweep", unit, |_| {
                simulate_sweep(topo, points, &traces_d, &dflt.run_cfg)
            })
            .map_err(|e| e.to_string())?;

        if traced {
            let arrays = w.program.arrays().len() as f64;
            counts.arrays_optimized += (inter.optimized_fraction * arrays).round();
            counts.trace_entries += traces_d
                .iter()
                .chain(&traces_i)
                .map(|t| t.entries.len() as u64)
                .sum::<u64>();
            for r in [&d_lru, &d_karma, &i_lru, &i_karma] {
                count_report(counts, r);
            }
            counts.sweep_points += sweep.len() as u64;
        }

        let norm_lru = i_lru.execution_time_ms / d_lru.execution_time_ms;
        let norm_karma = i_karma.execution_time_ms / d_karma.execution_time_ms;
        let mut failures = Vec::new();
        match expected.get(w.name) {
            None => failures.push(format!("{}: no expected row", w.name)),
            Some((e_lru, e_karma)) => {
                for (what, got, want) in [("LRU", norm_lru, e_lru), ("KARMA", norm_karma, e_karma)]
                {
                    if format!("{got:.3}") != *want {
                        failures.push(format!("{} {what}: {got:.3} != {want}", w.name));
                    }
                }
            }
        }
        match sweep.get(one_x) {
            Some(r) if r.to_json().to_string() == d_lru.to_json().to_string() => {}
            _ => failures.push(format!("{}: sweep 1x point differs from simulate", w.name)),
        }
        Ok(AppResult {
            norm_lru,
            norm_karma,
            failures,
        })
    })
}

/// Run the workload.
pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let epoch = Instant::now();
    let mut setup_s = Vec::new();
    let mut build_ms = Vec::new();
    let ((suite, topo, points, one_x, exp), _) = setup_block(&mut setup_s, &mut build_ms)?;

    let mut rng = SplitMix64::new(opts.seed);
    let mut tr = Tracer::new(epoch);
    let mut counts = Counts::default();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut failures = Vec::new();
    let mut pass_ms = Vec::new();
    // Per-app (traced, untraced) unit times, for the overhead ratio.
    let mut by_mode: HashMap<&str, (Vec<f64>, Vec<f64>)> = HashMap::new();
    let mut norms: HashMap<&str, (f64, f64)> = HashMap::new();
    let t_run = Instant::now();
    // Seconds of the measured region spent in set-up blocks.
    let mut off_clock = 0.0;
    let mut pass = 0usize;
    let mut unit = 0u64;
    // Whole passes over the suite, so every pass weighs every
    // application equally. A traced run makes at least two, so every
    // application is timed both traced and untraced.
    let min_passes = if opts.trace { 2 } else { 1 };
    while pass < min_passes
        || another_unit(
            t_run.elapsed().as_secs_f64() - off_clock,
            pass_ms.last().map_or(0.0, |ms| ms / 1e3),
            opts.seconds,
        )
    {
        let mut order: Vec<usize> = (0..suite.len()).collect();
        rng.shuffle(&mut order);
        let t_pass = Instant::now();
        let off_before = off_clock;
        for &i in &order {
            let w = &suite[i];
            // Traced runs trace half the applications in each pass and
            // swap halves the next, so over any two passes every
            // application is timed once traced and once untraced.
            let traced = opts.trace && (i + pass) % 2 == 1;
            tr.set_on(traced);
            let t0 = Instant::now();
            let res = process_app(&mut tr, unit, w, &topo, &points, one_x, &exp, &mut counts);
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            unit += 1;
            attempted += 1;
            let slot = by_mode.entry(w.name).or_default();
            if traced {
                slot.0.push(ms)
            } else {
                slot.1.push(ms)
            }
            match res {
                Ok(r) => {
                    norms.insert(w.name, (r.norm_lru, r.norm_karma));
                    if !r.failures.is_empty() {
                        failed += 1;
                        failures.extend(r.failures);
                    }
                }
                Err(e) => {
                    failed += 1;
                    failures.push(format!("{}: {e}", w.name));
                }
            }
            if pass == 0 {
                off_clock += setup_block(&mut setup_s, &mut build_ms)?.1;
            }
        }
        pass_ms.push((t_pass.elapsed().as_secs_f64() - (off_clock - off_before)) * 1e3);
        pass += 1;
    }
    let wall_s = t_run.elapsed().as_secs_f64() - off_clock;
    tr.set_on(false);

    let mean =
        |f: fn(&(f64, f64)) -> f64| norms.values().map(f).sum::<f64>() / norms.len().max(1) as f64;
    let (norm_lru, norm_karma) = (mean(|n| n.0), mean(|n| n.1));
    let mut out = Outcome::new(setup_s, peak_rss_mb(None));
    out.attempted = attempted;
    out.failed = failed;
    out.failures = failures;
    out.wall_s = wall_s;
    out.units = unit;
    out.latencies_ms = pass_ms;
    out.norm_exec_lru = norm_lru;
    out.norm_exec_karma = norm_karma;
    out.named = vec![
        Named::new("batch_apps_per_s", unit as f64 / wall_s, "1/s"),
        Named::new("norm_exec_lru", norm_lru, "ratio"),
        Named::new("norm_exec_karma", norm_karma, "ratio"),
        Named::new("batch_passes", pass as f64, "count"),
    ];

    if opts.trace {
        let totals = LayerTotals::of(tr.spans());
        let traced_units = tr.spans().iter().filter(|s| s.parent.is_none()).count() as f64;
        let per = |x: f64| x / traced_units.max(1.0);
        let (pass_ms, pass_calls) = totals.layer("core.pass");
        let (tg_ms, _) = totals.layer("core.tracegen");
        let (hints_ms, _) = totals.layer("bench.karma_hints");
        let (sim_ms, _) = totals.layer("sim.simulate");
        let (sweep_ms, _) = totals.layer("sim.sweep");
        let c = &counts;
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        let mut layers = vec![
            Layer::new("core.pass.ms", per(pass_ms), "ms/op"),
            Layer::new("core.pass.calls", per(pass_calls as f64), "count/op"),
            Layer::new(
                "core.pass.arrays_optimized",
                per(c.arrays_optimized),
                "count/op",
            ),
            Layer::new("core.tracegen.ms", per(tg_ms), "ms/op"),
            Layer::new(
                "core.tracegen.entries",
                per(c.trace_entries as f64),
                "count/op",
            ),
            Layer::new("bench.karma_hints.ms", per(hints_ms), "ms/op"),
            Layer::new("sim.simulate.ms", per(sim_ms), "ms/op"),
            Layer::new(
                "sim.simulate.requests",
                per(c.sim_requests as f64),
                "count/op",
            ),
            Layer::new(
                "sim.simulate.requests_per_s",
                if sim_ms > 0.0 {
                    c.sim_requests as f64 / (sim_ms / 1e3)
                } else {
                    0.0
                },
                "1/s",
            ),
            Layer::new("sim.io.hit_ratio", ratio(c.io_hits, c.io_accesses), "ratio"),
            Layer::new(
                "sim.storage.hit_ratio",
                ratio(c.storage_hits, c.storage_accesses),
                "ratio",
            ),
            Layer::new("sim.disk.reads", per(c.disk_reads as f64), "count/op"),
            Layer::new("sim.sweep.ms", per(sweep_ms), "ms/op"),
            Layer::new("sim.sweep.points", per(c.sweep_points as f64), "count/op"),
            Layer::new("workloads.build_ms", median(&build_ms), "ms"),
            Layer::new(
                "trace.unexplained_ratio",
                totals.unexplained_ratio(),
                "ratio",
            ),
        ];
        layers.push(Layer::new(
            "trace.overhead_ratio",
            overhead(&by_mode),
            "ratio",
        ));
        out.layers = layers;
        out.spans = vec![tr.spans().to_vec()];
    }
    Ok(out)
}

/// Traced over untraced time per work unit, paired per application:
/// the summed per-app means of traced units over those of untraced
/// units, across apps timed both ways.
fn overhead(by_mode: &HashMap<&str, (Vec<f64>, Vec<f64>)>) -> f64 {
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
    let (mut on, mut off) = (0.0, 0.0);
    for (traced, untraced) in by_mode.values() {
        if !traced.is_empty() && !untraced.is_empty() {
            on += mean(traced);
            off += mean(untraced);
        }
    }
    if off > 0.0 {
        on / off
    } else {
        0.0
    }
}
