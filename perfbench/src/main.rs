//! `perfbench` — the repository's benchmark: three workloads measured
//! end to end, and a traced mode that breaks each one down by layer.
//!
//! ```text
//! perfbench --workload <batch-suite|serve-zipf|store-rw> --seed N --seconds S --trace 0|1
//!           [--flod PATH] [--work-dir DIR]
//! ```
//!
//! Every input is generated from `--seed`. The last line of standard
//! output is one JSON object `{correct, attempted, failed, metrics}`:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. The lines before it print each metric, and the
//! workload-specific figures, with units. The full record — fingerprint
//! included — is written to `<work-dir>/results/`, and a traced run's
//! spans to `<work-dir>/spans/`. See `perfbench/README.md`.

mod batch;
mod fingerprint;
mod serve;
mod stats;
mod store;
mod tracing;
mod zipf;

use flo_json::Json;
use stats::median;
use std::path::PathBuf;
use tracing::Span;

/// Command-line options.
pub struct Opts {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of end-to-end.
    pub trace: bool,
    /// The `flod` executable (serve-zipf).
    pub flod: Option<PathBuf>,
    /// Scratch directory for stores, sockets, results and spans.
    pub work_dir: PathBuf,
}

fn parse_opts() -> Result<Opts, String> {
    let mut opts = Opts {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        flod: None,
        work_dir: PathBuf::from(".bench_work"),
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let val = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what} expected, got {val:?}");
        match flag.as_str() {
            "--workload" => opts.workload = val,
            "--seed" => opts.seed = val.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                opts.seconds = val.parse().map_err(|_| bad("a number"))?;
                if opts.seconds.is_nan() || opts.seconds <= 0.0 {
                    return Err(bad("a positive number"));
                }
            }
            "--trace" => {
                opts.trace = match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--flod" => opts.flod = Some(PathBuf::from(val)),
            "--work-dir" => opts.work_dir = PathBuf::from(val),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if opts.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(opts)
}

/// A workload-specific figure printed with its unit and kept in the
/// record (e.g. `serve_rps`).
pub struct Named {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

impl Named {
    /// A named figure.
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Named {
        Named { name, value, unit }
    }
}

/// A per-layer metric of a traced run.
pub type Layer = Named;

/// What a workload run produced.
pub struct Outcome {
    /// Duration of each set-up repetition, in seconds.
    pub setup_s: Vec<f64>,
    /// Peak resident set of the process doing the work, in MiB.
    pub peak_rss_mb: f64,
    /// Operations attempted (work units plus output checks).
    pub attempted: u64,
    /// Operations that failed or whose output check failed.
    pub failed: u64,
    /// Descriptions of the failures.
    pub failures: Vec<String>,
    /// Wall time of the measured region, in seconds.
    pub wall_s: f64,
    /// Work done in the measured region: applications (batch-suite),
    /// requests (serve-zipf) or iterations (store-rw).
    pub units: u64,
    /// Latencies of the measured region, in ms: per suite pass
    /// (batch-suite), per request (serve-zipf), per iteration
    /// (store-rw).
    pub latencies_ms: Vec<f64>,
    /// Mean normalized execution time (optimized / default), LRU.
    pub norm_exec_lru: f64,
    /// The same under KARMA.
    pub norm_exec_karma: f64,
    /// Workload-specific figures.
    pub named: Vec<Named>,
    /// Per-layer metrics (traced runs).
    pub layers: Vec<Layer>,
    /// Recorded spans, one list per recording thread (traced runs).
    pub spans: Vec<Vec<Span>>,
    /// `FLO_*` settings the workload resolved for the program.
    pub env: Vec<(&'static str, String)>,
}

impl Outcome {
    /// An outcome with its set-up times and peak RSS, everything else
    /// empty.
    pub fn new(setup_s: Vec<f64>, peak_rss_mb: f64) -> Outcome {
        Outcome {
            setup_s,
            peak_rss_mb,
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            wall_s: 0.0,
            units: 0,
            latencies_ms: Vec::new(),
            norm_exec_lru: 0.0,
            norm_exec_karma: 0.0,
            named: Vec::new(),
            layers: Vec::new(),
            spans: Vec::new(),
            env: Vec::new(),
        }
    }
}

/// Whether a run measured in whole work units (suite passes,
/// iterations) should start another after `elapsed_s`, the last unit
/// having taken `last_s`: yes while stopping after it would land nearer
/// to `seconds` than stopping now, so runs stay close to `seconds`
/// whatever the unit's length.
pub fn another_unit(elapsed_s: f64, last_s: f64, seconds: f64) -> bool {
    elapsed_s + last_s / 2.0 < seconds
}

/// Peak resident set (`VmHWM`) of `pid`, or of this process, in MiB.
pub fn peak_rss_mb(pid: Option<u32>) -> f64 {
    let path = match pid {
        Some(p) => format!("/proc/{p}/status"),
        None => "/proc/self/status".into(),
    };
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The end-to-end metrics, in `BENCHMARK.json` order:
/// (name, value, unit). Throughput counts applications (batch-suite),
/// requests (serve-zipf) or iterations (store-rw) per second; latencies
/// are per suite pass, request or iteration.
fn end_to_end(o: &Outcome) -> Vec<(&'static str, f64, &'static str)> {
    let tail = stats::tail(&o.latencies_ms);
    vec![
        ("setup_s", median(&o.setup_s), "s"),
        ("peak_rss_mb", o.peak_rss_mb, "MiB"),
        ("throughput_per_s", o.units as f64 / o.wall_s, "1/s"),
        ("p50_ms", median(&o.latencies_ms), "ms"),
        ("tail_ms", tail.map_or(0.0, |t| t.value), "ms"),
        ("norm_exec_lru", o.norm_exec_lru, "ratio"),
        ("norm_exec_karma", o.norm_exec_karma, "ratio"),
    ]
}

/// Every per-layer metric, in `BENCHMARK.json` order: (name, unit). A
/// traced run reports all of them; a layer the workload does not run
/// reads 0.
pub const PER_LAYER: [(&str, &str); 39] = [
    ("core.pass.ms", "ms/op"),
    ("core.pass.calls", "count/op"),
    ("core.pass.arrays_optimized", "count/op"),
    ("core.tracegen.ms", "ms/op"),
    ("core.tracegen.entries", "count/op"),
    ("bench.karma_hints.ms", "ms/op"),
    ("sim.simulate.ms", "ms/op"),
    ("sim.simulate.requests", "count/op"),
    ("sim.simulate.requests_per_s", "1/s"),
    ("sim.io.hit_ratio", "ratio"),
    ("sim.storage.hit_ratio", "ratio"),
    ("sim.disk.reads", "count/op"),
    ("sim.sweep.ms", "ms/op"),
    ("sim.sweep.points", "count/op"),
    ("serve.client.call_ms", "ms/op"),
    ("serve.stage.parse_ms", "ms/op"),
    ("serve.stage.queue_ms", "ms/op"),
    ("serve.stage.exec_ms", "ms/op"),
    ("serve.stage.serialize_ms", "ms/op"),
    ("serve.stage.flush_ms", "ms/op"),
    ("serve.event_loop.tick_ms", "ms/tick"),
    ("serve.cache.inline", "count"),
    ("serve.cache.warm", "count"),
    ("serve.cache.miss", "count"),
    ("serve.cache.dedup", "count"),
    ("serve.cache.hit_ratio", "ratio"),
    ("serve.requests", "count"),
    ("store.materialize.ms", "ms/op"),
    ("store.materialize.bytes", "bytes/op"),
    ("store.materialize.writebacks", "count/op"),
    ("store.replay.ms", "ms/op"),
    ("store.replay.preads", "count/op"),
    ("store.replay.bytes_read", "bytes/op"),
    ("store.replay.io_hit_ratio", "ratio"),
    ("store.replay.storage_hit_ratio", "ratio"),
    ("store.open_ms", "ms"),
    ("workloads.build_ms", "ms"),
    ("trace.unexplained_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

/// The full per-layer list with the workload's values filled in.
fn per_layer(layers: &[Layer]) -> Vec<(&'static str, f64, &'static str)> {
    for l in layers {
        let known = PER_LAYER.iter().find(|(n, _)| *n == l.name);
        assert_eq!(
            known.map(|k| k.1),
            Some(l.unit),
            "per-layer metric {} is not in PER_LAYER",
            l.name
        );
    }
    PER_LAYER
        .iter()
        .map(|&(name, unit)| {
            let v = layers
                .iter()
                .find(|l| l.name == name)
                .map_or(0.0, |l| l.value);
            (name, v, unit)
        })
        .collect()
}

fn metrics_json(rows: &[(&str, f64, &str)]) -> Json {
    let mut m = Json::obj();
    for &(name, value, unit) in rows {
        m = m.set(name, Json::obj().set("value", value).set("unit", unit));
    }
    m
}

fn write_outputs(opts: &Opts, o: &Outcome, record: &Json) -> Result<(), String> {
    let stem = format!(
        "{}-seed{}-trace{}",
        opts.workload,
        opts.seed,
        u8::from(opts.trace)
    );
    let results = opts.work_dir.join("results");
    std::fs::create_dir_all(&results).map_err(|e| format!("{}: {e}", results.display()))?;
    let path = results.join(format!("{stem}.json"));
    std::fs::write(&path, format!("{record}\n")).map_err(|e| format!("{}: {e}", path.display()))?;
    if opts.trace {
        let spans_dir = opts.work_dir.join("spans");
        std::fs::create_dir_all(&spans_dir).map_err(|e| format!("{}: {e}", spans_dir.display()))?;
        let mut text = String::new();
        for (thread, spans) in o.spans.iter().enumerate() {
            text.push_str(&tracing::to_jsonl(thread, spans));
        }
        let path = spans_dir.join(format!("{stem}.jsonl"));
        std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    Ok(())
}

fn run(opts: &Opts) -> Result<Outcome, String> {
    match opts.workload.as_str() {
        "batch-suite" => batch::run(opts),
        "serve-zipf" => serve::run(opts),
        "store-rw" => store::run(opts),
        other => Err(format!(
            "unknown workload {other:?} (batch-suite, serve-zipf, store-rw)"
        )),
    }
}

fn main() {
    let opts = parse_opts().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(2)
    });
    let o = run(&opts).unwrap_or_else(|e| {
        eprintln!("perfbench: {}: {e}", opts.workload);
        std::process::exit(1)
    });
    for f in o.failures.iter().take(20) {
        eprintln!("perfbench: check failed: {f}");
    }

    let e2e = end_to_end(&o);
    let layers = if opts.trace {
        per_layer(&o.layers)
    } else {
        Vec::new()
    };
    let named: Vec<(&str, f64, &str)> = o.named.iter().map(|n| (n.name, n.value, n.unit)).collect();
    let error_ratio = o.failed as f64 / o.attempted.max(1) as f64;
    let tail = stats::tail(&o.latencies_ms);
    let mode = if opts.trace { "traced" } else { "end-to-end" };
    println!("perfbench {} seed {} ({mode})", opts.workload, opts.seed);
    for (name, value, unit) in e2e.iter().chain(&named) {
        println!("  {name:<32} {value:>14.6} {unit}");
    }
    if let Some(t) = tail {
        println!(
            "  tail_ms is p{} over {} samples (at least 10 beyond it)",
            t.percentile, t.samples
        );
    }
    println!(
        "  error_ratio                      {error_ratio:>14.6} ratio ({} failed of {} attempted)",
        o.failed, o.attempted
    );
    // Layers this workload does not run read 0 in the result object;
    // the listing leaves them out.
    for (name, value, unit) in layers.iter().filter(|l| l.1 != 0.0) {
        println!("  {name:<32} {value:>14.6} {unit}");
    }
    if opts.trace {
        let unexplained = layers
            .iter()
            .find(|l| l.0 == "trace.unexplained_ratio")
            .map_or(0.0, |l| l.1);
        if unexplained > 0.10 {
            println!(
                "  FLAG: layer spans leave {:.1}% of end-to-end time unexplained (limit 10%)",
                unexplained * 100.0
            );
        }
    }

    let reported = if opts.trace { &layers } else { &e2e };
    let result = Json::obj()
        .set("correct", o.failed == 0)
        .set("attempted", o.attempted)
        .set("failed", o.failed)
        .set("metrics", metrics_json(reported));
    let record = Json::obj()
        .set(
            "fingerprint",
            fingerprint::fingerprint(&opts.workload, opts.seed, &o.env),
        )
        .set("trace", opts.trace)
        .set("seconds", opts.seconds)
        .set("result", result.clone())
        .set("error_ratio", error_ratio)
        .set("end_to_end", metrics_json(&e2e))
        .set("named", metrics_json(&named))
        .set("per_layer", metrics_json(&layers))
        .set(
            "tail",
            tail.map_or(Json::Null, |t| {
                Json::obj()
                    .set("percentile", t.percentile)
                    .set("samples", t.samples as u64)
            }),
        )
        .set(
            "latencies_ms",
            o.latencies_ms
                .iter()
                .map(|&x| Json::from(x))
                .collect::<Vec<Json>>(),
        )
        .set(
            "failures",
            o.failures
                .iter()
                .take(100)
                .map(|s| Json::from(s.as_str()))
                .collect::<Vec<Json>>(),
        );
    if let Err(e) = write_outputs(&opts, &o, &record) {
        eprintln!("perfbench: cannot write the record: {e}");
        std::process::exit(1);
    }
    println!("{result}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn whole_units_stop_nearest_to_the_budget() {
        // 18 s units in 20 s: one unit (18 s) beats two (36 s).
        assert!(!another_unit(18.0, 18.0, 20.0));
        // 7 s units in 20 s: three units (21 s) beat two (14 s).
        assert!(another_unit(14.0, 7.0, 20.0));
        assert!(!another_unit(21.0, 7.0, 20.0));
    }

    #[test]
    fn per_layer_fills_missing_layers_with_zero() {
        let out = per_layer(&[Layer::new("sim.sweep.ms", 2.5, "ms/op")]);
        assert_eq!(out.len(), PER_LAYER.len());
        assert!(out
            .iter()
            .all(|&(n, v, _)| (n == "sim.sweep.ms") == (v != 0.0)));
    }
}
