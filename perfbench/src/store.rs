//! `store-rw`: real writes beside real reads through flo-store.
//!
//! Each iteration (one work unit) materializes a new generation of the
//! `Inter` layouts of cc-ver-1, s3asim, swim and qio — written back
//! through the store's `BlockCache` — opens it, and replays the app's
//! interleaved trace under LRU and KARMA with every pread's content
//! verified. Measured hit rates must equal the simulator's within 1e-9
//! (the `figm` gate) and disk reads must match exactly. Layouts, traces
//! and KARMA hints are built in set-up; the simulator's reference
//! reports are computed once after set-up, outside the measured region.

use crate::tracing::{LayerTotals, Tracer};
use crate::{another_unit, median, peak_rss_mb, Layer, Named, Opts, Outcome};
use flo_bench::experiments::figm::{spec_from_traces, TOLERANCE};
use flo_bench::harness::{karma_hints, prepare_run, PreparedRun, RunOverrides, Scheme};
use flo_core::{generate_traces, FileLayout};
use flo_linalg::SplitMix64;
use flo_sim::policies::karma::KarmaHints;
use flo_sim::{simulate, PolicyKind, SimReport, StorageSystem, ThreadTrace, Topology};
use flo_store::{materialize, replay, MaterializeOptions, ReplayOptions, Store, StoreSpec};
use flo_workloads::{Scale, Workload};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Set-up repetitions; `setup_s` is their median.
const SETUPS: usize = 3;

/// The applications replayed: two that fit the caches (cc-ver-1,
/// s3asim) and two that overflow them (swim, qio).
pub const APPS: [&str; 4] = ["cc-ver-1", "s3asim", "swim", "qio"];

const POLICIES: [PolicyKind; 2] = [PolicyKind::LruInclusive, PolicyKind::Karma];

/// Everything one application's iterations need, built in set-up.
struct App {
    workload: Workload,
    prepared: PreparedRun,
    traces: Vec<ThreadTrace>,
    hints: KarmaHints,
    spec: StoreSpec,
    layout_hash: u64,
    dir: PathBuf,
}

/// The simulator's reports for one application: `Inter` under each of
/// [`POLICIES`] (the agreement reference) and `Default` under each (the
/// base of the normalized execution time).
struct Reference {
    inter: [SimReport; 2],
    default: [SimReport; 2],
}

fn sim(
    topo: &Topology,
    traces: &[ThreadTrace],
    p: &PreparedRun,
    policy: PolicyKind,
    hints: &KarmaHints,
) -> Result<SimReport, String> {
    let mut system = StorageSystem::new(topo.clone(), policy).map_err(|e| e.to_string())?;
    if policy == PolicyKind::Karma {
        system.set_karma_hints(hints);
    }
    Ok(simulate(&mut system, traces, &p.run_cfg))
}

fn set_up(topo: &Topology, root: &Path) -> Result<(Vec<App>, f64), String> {
    let t0 = Instant::now();
    let suite = flo_workloads::all(Scale::Full);
    let build_ms = t0.elapsed().as_secs_f64() * 1e3;
    let mut apps = Vec::new();
    for name in APPS {
        let workload = suite
            .iter()
            .find(|w| w.name == name)
            .cloned()
            .ok_or_else(|| format!("no workload {name}"))?;
        let prepared = prepare_run(&workload, topo, Scheme::Inter, &RunOverrides::default())
            .map_err(|e| e.to_string())?;
        let traces = generate_traces(&workload.program, &prepared.cfg, &prepared.layouts, topo);
        let hints = karma_hints(&traces, topo);
        let layout_hash = FileLayout::fingerprint_all(&prepared.layouts);
        let spec = spec_from_traces(&traces, layout_hash, topo);
        apps.push(App {
            dir: root.join(name),
            workload,
            prepared,
            traces,
            hints,
            spec,
            layout_hash,
        });
    }
    Ok((apps, build_ms))
}

fn reference(topo: &Topology, a: &App) -> Result<Reference, String> {
    let ov = RunOverrides::default();
    let dflt = prepare_run(&a.workload, topo, Scheme::Default, &ov).map_err(|e| e.to_string())?;
    let d_traces = generate_traces(&a.workload.program, &dflt.cfg, &dflt.layouts, topo);
    let d_hints = karma_hints(&d_traces, topo);
    Ok(Reference {
        inter: [
            sim(topo, &a.traces, &a.prepared, POLICIES[0], &a.hints)?,
            sim(topo, &a.traces, &a.prepared, POLICIES[1], &a.hints)?,
        ],
        default: [
            sim(topo, &d_traces, &dflt, POLICIES[0], &d_hints)?,
            sim(topo, &d_traces, &dflt, POLICIES[1], &d_hints)?,
        ],
    })
}

/// Layer counters of traced work units.
#[derive(Default)]
struct Counts {
    mat_bytes: u64,
    mat_writebacks: u64,
    preads: u64,
    bytes_read: u64,
    io_hits: u64,
    io_accesses: u64,
    storage_hits: u64,
    storage_accesses: u64,
}

/// Totals over every work unit, traced or not, for the named figures.
#[derive(Default)]
struct Totals {
    mat_bytes: u64,
    mat_s: f64,
    preads: u64,
    replay_s: f64,
    /// Latest measured execution-time estimate per (app, policy).
    exec_ms: Vec<[f64; 2]>,
}

/// One application's materialize → open → replay×2 cycle. Returns the
/// failed checks.
#[allow(clippy::too_many_arguments)]
fn cycle(
    tr: &mut Tracer,
    unit: u64,
    topo: &Topology,
    k: usize,
    a: &App,
    r: &Reference,
    counts: &mut Counts,
    totals: &mut Totals,
    attempted: &mut u64,
) -> Vec<String> {
    let traced = tr.is_on();
    let mut failures = Vec::new();
    let name = a.workload.name;
    *attempted += 1;
    let t0 = Instant::now();
    let mat = tr.span("store.materialize", unit, |_| {
        materialize(&a.dir, &a.spec, &MaterializeOptions::default())
    });
    totals.mat_s += t0.elapsed().as_secs_f64();
    let mat = match mat {
        Ok(m) => m,
        Err(e) => {
            failures.push(format!("{name}: materialize: {e}"));
            return failures;
        }
    };
    totals.mat_bytes += mat.bytes_written;
    if traced {
        counts.mat_bytes += mat.bytes_written;
        counts.mat_writebacks += mat.cache.writebacks;
    }
    let store = match tr.span("store.open", unit, |_| Store::open(&a.dir)) {
        Ok(s) if s.generation() == mat.generation && s.spec().layout_hash == a.layout_hash => s,
        Ok(s) => {
            failures.push(format!(
                "{name}: opened generation {} of {}",
                s.generation(),
                mat.generation
            ));
            return failures;
        }
        Err(e) => {
            failures.push(format!("{name}: open: {e}"));
            return failures;
        }
    };
    for (i, policy) in POLICIES.into_iter().enumerate() {
        *attempted += 1;
        let opts = ReplayOptions {
            policy,
            karma_hints: (policy == PolicyKind::Karma).then(|| a.hints.clone()),
            fault_plan: None,
            compute_ms_per_thread: a.prepared.run_cfg.compute_ms_per_thread,
            verify_content: true,
        };
        let t0 = Instant::now();
        let m = tr.span("store.replay", unit, |_| {
            replay(&store, topo, &a.traces, &opts)
        });
        totals.replay_s += t0.elapsed().as_secs_f64();
        let m = match m {
            Ok(m) => m,
            Err(e) => {
                failures.push(format!("{name} {}: replay: {e}", policy.name()));
                continue;
            }
        };
        totals.preads += m.disk_reads;
        totals.exec_ms[k][i] = m.execution_time_ms;
        if traced {
            counts.preads += m.disk_reads;
            counts.bytes_read += m.bytes_read;
            counts.io_hits += m.io.hits;
            counts.io_accesses += m.io.accesses;
            counts.storage_hits += m.storage.hits;
            counts.storage_accesses += m.storage.accesses;
        }
        let s = &r.inter[i];
        let io_delta = (m.io_hit_rate() - (1.0 - s.layers.io.miss_rate())).abs();
        let st_delta = (m.storage_hit_rate() - (1.0 - s.layers.storage.miss_rate())).abs();
        if io_delta > TOLERANCE || st_delta > TOLERANCE || m.disk_reads != s.disk_reads {
            failures.push(format!(
                "{name} {}: measured vs simulated: io Δ{io_delta:e}, storage Δ{st_delta:e}, disk {} vs {}",
                policy.name(),
                m.disk_reads,
                s.disk_reads
            ));
        }
    }
    failures
}

/// Run the workload.
pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let epoch = Instant::now();
    let topo = Topology::paper_default();
    let root = opts.work_dir.join(format!("store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let result = measure(opts, epoch, &topo, &root);
    let _ = std::fs::remove_dir_all(&root);
    result
}

fn measure(opts: &Opts, epoch: Instant, topo: &Topology, root: &Path) -> Result<Outcome, String> {
    let mut setup_s = Vec::new();
    let mut build_ms = Vec::new();
    let mut apps = Vec::new();
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        let (a, b) = set_up(topo, root)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        build_ms.push(b);
        apps = a;
    }
    let refs: Vec<Reference> = apps
        .iter()
        .map(|a| reference(topo, a))
        .collect::<Result<_, _>>()?;

    let mut rng = SplitMix64::new(opts.seed);
    let mut tr = Tracer::new(epoch);
    let mut counts = Counts::default();
    let mut totals = Totals {
        exec_ms: vec![[0.0; 2]; apps.len()],
        ..Totals::default()
    };
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut failures = Vec::new();
    let mut latencies_ms = Vec::new();
    let (mut on_ms, mut off_ms) = (Vec::new(), Vec::new());
    let t_run = Instant::now();
    let mut unit = 0u64;
    while unit == 0
        || another_unit(
            t_run.elapsed().as_secs_f64(),
            latencies_ms.last().map_or(0.0, |ms| ms / 1e3),
            opts.seconds,
        )
    {
        let mut order: Vec<usize> = (0..apps.len()).collect();
        rng.shuffle(&mut order);
        // Traced runs alternate tracing per iteration.
        let traced = opts.trace && unit % 2 == 1;
        tr.set_on(traced);
        let t0 = Instant::now();
        let before = attempted;
        let fails = tr.span("bench.iteration", unit, |tr| {
            let mut fails = Vec::new();
            for &i in &order {
                fails.extend(cycle(
                    tr,
                    unit,
                    topo,
                    i,
                    &apps[i],
                    &refs[i],
                    &mut counts,
                    &mut totals,
                    &mut attempted,
                ));
            }
            fails
        });
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        latencies_ms.push(ms);
        if traced {
            on_ms.push(ms)
        } else {
            off_ms.push(ms)
        }
        // An operation fails once however many of its checks fail.
        let ops = attempted - before;
        failed += (fails.len() as u64).min(ops);
        failures.extend(fails);
        unit += 1;
    }
    let wall_s = t_run.elapsed().as_secs_f64();
    tr.set_on(false);

    // Measured (replayed) optimized execution over the simulated
    // default, averaged over the applications.
    let norm = |i: usize| {
        let sum: f64 = refs
            .iter()
            .zip(&totals.exec_ms)
            .map(|(r, m)| m[i] / r.default[i].execution_time_ms)
            .sum();
        sum / refs.len() as f64
    };
    let (norm_lru, norm_karma) = (norm(0), norm(1));
    let mut out = Outcome::new(setup_s, peak_rss_mb(None));
    out.attempted = attempted;
    out.failed = failed;
    out.failures = failures;
    out.wall_s = wall_s;
    out.units = unit;
    out.latencies_ms = latencies_ms;
    out.norm_exec_lru = norm_lru;
    out.norm_exec_karma = norm_karma;
    out.env = vec![
        ("FLO_STORE_WRITEBACK", "1".into()),
        (
            "FLO_STORE_CACHE_MB",
            format!("{} blocks", MaterializeOptions::default().cache_blocks),
        ),
    ];
    out.named = vec![
        Named::new(
            "materialize_mb_per_s",
            totals.mat_bytes as f64 / 1e6 / totals.mat_s,
            "MB/s",
        ),
        Named::new(
            "replay_reads_per_s",
            totals.preads as f64 / totals.replay_s,
            "1/s",
        ),
        Named::new("store_iterations", unit as f64, "count"),
    ];
    if opts.trace {
        let totals_l = LayerTotals::of(tr.spans());
        let traced_units = tr.spans().iter().filter(|s| s.parent.is_none()).count() as f64;
        let per = |x: f64| x / traced_units.max(1.0);
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        let c = &counts;
        let (mat_ms, _) = totals_l.layer("store.materialize");
        let (open_ms, open_calls) = totals_l.layer("store.open");
        let (replay_ms, _) = totals_l.layer("store.replay");
        let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
        out.layers = vec![
            Layer::new("store.materialize.ms", per(mat_ms), "ms/op"),
            Layer::new(
                "store.materialize.bytes",
                per(c.mat_bytes as f64),
                "bytes/op",
            ),
            Layer::new(
                "store.materialize.writebacks",
                per(c.mat_writebacks as f64),
                "count/op",
            ),
            Layer::new("store.replay.ms", per(replay_ms), "ms/op"),
            Layer::new("store.replay.preads", per(c.preads as f64), "count/op"),
            Layer::new(
                "store.replay.bytes_read",
                per(c.bytes_read as f64),
                "bytes/op",
            ),
            Layer::new(
                "store.replay.io_hit_ratio",
                ratio(c.io_hits, c.io_accesses),
                "ratio",
            ),
            Layer::new(
                "store.replay.storage_hit_ratio",
                ratio(c.storage_hits, c.storage_accesses),
                "ratio",
            ),
            Layer::new("store.open_ms", open_ms / (open_calls.max(1) as f64), "ms"),
            Layer::new("workloads.build_ms", median(&build_ms), "ms"),
            Layer::new(
                "trace.unexplained_ratio",
                totals_l.unexplained_ratio(),
                "ratio",
            ),
            Layer::new(
                "trace.overhead_ratio",
                if on_ms.is_empty() || off_ms.is_empty() {
                    0.0
                } else {
                    mean(&on_ms) / mean(&off_ms)
                },
                "ratio",
            ),
        ];
        out.spans = vec![tr.spans().to_vec()];
    }
    Ok(out)
}
