//! `serve-zipf`: a closed loop of two connections against a spawned
//! `flod`, requests drawn by a seeded Zipf law from full-scale keys.
//!
//! Keys are `layout` (16 apps × 3 targets) and `simulate` (16 apps ×
//! {default, inter} × {lru, karma}), ranked by popularity in the order
//! [`keys`] lists them.
//! `FLO_CACHE_MB` is set below the working set of the key set's
//! responses, so that after the warm-up both the inline response-cache
//! hit path and the worker compute path carry real weight. Set-up spawns `flod` until it answers a ping; the
//! warm-up then requests every key once, while an in-process
//! `Service::execute_bytes` computes the expected bytes of every key —
//! each served response must equal them. In the measured region each
//! response is checked for success and its expected length.

use crate::tracing::Tracer;
use crate::zipf::ZipfKeys;
use crate::{median, peak_rss_mb, Layer, Named, Opts, Outcome};
use flo_bench::harness::Scheme;
use flo_core::TargetLayers;
use flo_json::Json;
use flo_obs::telemetry::{CACHE_OUTCOMES, STAGES};
use flo_serve::protocol::{ok_response_bytes_traced, Request};
use flo_serve::server::Listen;
use flo_serve::{Client, Service};
use flo_sim::PolicyKind;
use flo_workloads::Scale;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Set-up repetitions; `setup_s` is their median.
const SETUPS: usize = 41;

/// Closed-loop connections (and `flod` workers): sized for two cores.
pub const CONNECTIONS: usize = 2;

/// `flod`'s cache budget in MiB. Its response cache gets 1/16 of it
/// (see `Service::with_budget`): 32 MiB in 4 shards of 8 MiB. The key
/// set renders about 105 MiB of responses (`serve_working_set_mb`):
/// full-scale layout responses run from 95 KiB (cc-ver-1) to 7.7 MiB
/// (applu), simulate results to about 1.6 KiB. So the popular keys are
/// answered inline and the unpopular layouts are recomputed.
pub const FLOD_CACHE_MB: usize = 512;

/// Zipf exponent of key popularity: 0.99, the request distribution
/// constant of YCSB's `zipfian` generator (Cooper et al., "Benchmarking
/// Cloud Serving Systems with YCSB", SoCC 2010), the usual default for
/// skewed key-value traffic.
pub const ZIPF_EXPONENT: f64 = 0.99;

/// In-process budget for computing the expected bytes: room for one
/// application's traces, so its LRU and KARMA keys share them.
const CHECK_BUDGET_BYTES: usize = 256 << 20;

/// The key set, most popular first: applications in Table 2 order, each
/// application's three layouts before its four simulates. Grouping by
/// (app, scheme) also lets adjacent simulate keys share traces in the
/// warm-up's in-process check.
pub fn keys() -> Vec<Request> {
    let mut keys = Vec::new();
    for w in flo_workloads::all(Scale::Full) {
        for target in [
            TargetLayers::Both,
            TargetLayers::IoOnly,
            TargetLayers::StorageOnly,
        ] {
            keys.push(Request::Layout {
                app: w.name.to_string(),
                scale: Scale::Full,
                target,
            });
        }
        for scheme in [Scheme::Default, Scheme::Inter] {
            for policy in [PolicyKind::LruInclusive, PolicyKind::Karma] {
                keys.push(Request::Simulate {
                    app: w.name.to_string(),
                    scale: Scale::Full,
                    scheme,
                    policy,
                    fault: None,
                });
            }
        }
    }
    keys
}

/// A spawned `flod`, killed and reaped if dropped without shutdown.
struct Daemon {
    child: Option<Child>,
    listen: Listen,
}

impl Daemon {
    fn spawn(flod: &Path, socket: &Path) -> Result<Daemon, String> {
        let _ = std::fs::remove_file(socket);
        let mut cmd = Command::new(flod);
        for (k, _) in std::env::vars().filter(|(k, _)| k.starts_with("FLO_")) {
            cmd.env_remove(k);
        }
        for (k, v) in daemon_env(socket) {
            cmd.env(k, v);
        }
        let child = cmd
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot spawn {}: {e}", flod.display()))?;
        let d = Daemon {
            child: Some(child),
            listen: Listen::Unix(socket.to_path_buf()),
        };
        // Poll every 200 µs: `Client::connect_retry` sleeps 25 ms between
        // attempts, which would make the spawn-to-ready time that sleep.
        let deadline = Instant::now() + Duration::from_secs(20);
        let mut c = loop {
            match Client::connect(&d.listen) {
                Ok(c) => break c,
                Err(e) if Instant::now() >= deadline => {
                    return Err(format!("flod did not come up: {e}"))
                }
                Err(_) => std::thread::sleep(Duration::from_micros(200)),
            }
        };
        c.call(&Request::Ping, None)
            .map_err(|e| format!("flod ping: {e}"))?;
        Ok(d)
    }

    fn pid(&self) -> Option<u32> {
        self.child.as_ref().map(Child::id)
    }

    /// Ask the daemon to drain and wait for it to exit.
    fn shutdown(mut self) -> Result<(), String> {
        let mut child = self.child.take().ok_or("already shut down")?;
        let asked = Client::connect(&self.listen)
            .map_err(|e| e.to_string())
            .and_then(|mut c| c.call(&Request::Shutdown, None).map_err(|e| e.to_string()));
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("flod exited with {status}")),
                Ok(None) if Instant::now() < deadline && asked.is_ok() => {
                    std::thread::sleep(Duration::from_millis(10))
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err(format!("flod did not drain ({asked:?})"));
                }
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut c) = self.child.take() {
            let _ = c.kill();
            let _ = c.wait();
        }
        if let Listen::Unix(p) = &self.listen {
            let _ = std::fs::remove_file(p);
        }
    }
}

fn daemon_env(socket: &Path) -> Vec<(&'static str, String)> {
    vec![
        ("FLO_LISTEN", socket.display().to_string()),
        ("FLO_WORKERS", CONNECTIONS.to_string()),
        ("FLO_CACHE_MB", FLOD_CACHE_MB.to_string()),
    ]
}

/// The warm-up's findings: expected result bytes per key, failed
/// checks, warm-up seconds.
type Checked = (Vec<Vec<u8>>, Vec<String>, f64);

/// One request's round trip: send with a fresh trace id, read the raw
/// response envelope. Returns `(id, trace, bytes)`.
fn round_trip(c: &mut Client, req: &Request) -> Result<(u64, u64, Vec<u8>), String> {
    let trace = c.gen_trace();
    let id = c
        .send_traced(req, None, Some(trace))
        .map_err(|e| e.to_string())?;
    let (rid, bytes) = c.recv_raw().map_err(|e| e.to_string())?;
    if rid != id {
        return Err(format!("response id {rid} for request {id}"));
    }
    Ok((id, trace, bytes))
}

/// Request every key once while the expected bytes are computed
/// in-process; check each served envelope.
fn warm_and_check(listen: &Listen, keys: &[Request]) -> Result<Checked, String> {
    let t0 = Instant::now();
    let (served, expected) = std::thread::scope(|s| {
        let check = s.spawn(|| {
            let svc = Service::with_budget(CHECK_BUDGET_BYTES);
            keys.iter()
                .map(|k| svc.execute_bytes(k).map_err(|e| e.to_string()))
                .collect::<Vec<_>>()
        });
        // One connection, so the daemon computes the keys one at a time
        // on one core while the check runs on the other.
        let served = Client::connect(listen)
            .map_err(|e| e.to_string())
            .and_then(|mut c| {
                keys.iter()
                    .map(|k| round_trip(&mut c, k))
                    .collect::<Result<Vec<_>, _>>()
            });
        (served, check.join().expect("in-process check panicked"))
    });
    let warm_s = t0.elapsed().as_secs_f64();
    let mut failures = Vec::new();
    let mut want = Vec::with_capacity(keys.len());
    for (i, ((id, trace, bytes), expected)) in served?.into_iter().zip(expected).enumerate() {
        match expected {
            Ok(b) if ok_response_bytes_traced(id, Some(trace), &b) == bytes => {
                want.push(b.to_vec())
            }
            Ok(b) => {
                failures.push(format!(
                    "key {i} ({}): served bytes differ from in-process",
                    keys[i].kind()
                ));
                want.push(b.to_vec());
            }
            Err(e) => {
                failures.push(format!("key {i} in-process: {e}"));
                want.push(Vec::new());
            }
        }
    }
    Ok((want, failures, warm_s))
}

/// The length a successful response envelope for `result` must have.
fn ok_len(id: u64, trace: u64, result_len: usize) -> usize {
    ok_response_bytes_traced(id, Some(trace), b"").len() + result_len
}

/// What one closed-loop connection measured.
struct ConnResult {
    latencies_ms: Vec<f64>,
    /// Requests for `layout` keys (the rest are `simulate`).
    layouts: u64,
    traced_ms: Vec<f64>,
    untraced_ms: Vec<f64>,
    attempted: u64,
    failures: Vec<String>,
    tracer: Tracer,
}

fn closed_loop(
    listen: &Listen,
    keys: &[Request],
    want_len: &[usize],
    seed: u64,
    deadline: Instant,
    trace: bool,
    epoch: Instant,
) -> Result<ConnResult, String> {
    let mut client = Client::connect(listen).map_err(|e| e.to_string())?;
    let mut stream = ZipfKeys::new(keys.len(), ZIPF_EXPONENT, seed);
    let mut r = ConnResult {
        latencies_ms: Vec::new(),
        layouts: 0,
        traced_ms: Vec::new(),
        untraced_ms: Vec::new(),
        attempted: 0,
        failures: Vec::new(),
        tracer: Tracer::new(epoch),
    };
    let mut n = 0u64;
    while Instant::now() < deadline {
        let k = stream.next_key();
        // Traced runs alternate tracing per request.
        let traced = trace && n % 2 == 1;
        r.tracer.set_on(traced);
        let t0 = Instant::now();
        let res = r.tracer.span("serve.client.call", n, |_| {
            round_trip(&mut client, &keys[k])
        });
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        n += 1;
        r.attempted += 1;
        r.layouts += u64::from(matches!(keys[k], Request::Layout { .. }));
        r.latencies_ms.push(ms);
        if traced {
            r.traced_ms.push(ms)
        } else {
            r.untraced_ms.push(ms)
        }
        match res {
            Ok((id, tr, bytes)) if bytes.len() == ok_len(id, tr, want_len[k]) => {}
            Ok((_, _, bytes)) => r.failures.push(format!(
                "key {k}: response of {} bytes: {}",
                bytes.len(),
                String::from_utf8_lossy(&bytes[..bytes.len().min(160)])
            )),
            Err(e) => {
                r.failures.push(format!("key {k}: {e}"));
                // The connection may be unusable; reconnect.
                client = Client::connect(listen).map_err(|e| e.to_string())?;
            }
        }
    }
    r.tracer.set_on(false);
    Ok(r)
}

fn telemetry(listen: &Listen) -> Result<Json, String> {
    let mut c = Client::connect(listen).map_err(|e| e.to_string())?;
    c.call(&Request::Telemetry, None).map_err(|e| e.to_string())
}

/// Sums over the work kinds of a telemetry snapshot: request count,
/// cache outcomes, per-stage µs, plus `layout`'s exec µs and the event
/// loop's tick µs and count.
#[derive(Clone, Copy, Default, Debug)]
struct Tele {
    count: f64,
    cache: [f64; 4],
    stage_us: [f64; 5],
    layout_exec_us: f64,
    layout_miss: f64,
    tick_us: f64,
    ticks: f64,
}

/// Per-layer names of the telemetry stages, in [`STAGES`] order.
const STAGE_LAYERS: [&str; 5] = [
    "serve.stage.parse_ms",
    "serve.stage.queue_ms",
    "serve.stage.exec_ms",
    "serve.stage.serialize_ms",
    "serve.stage.flush_ms",
];

/// Per-layer names of the cache outcomes, in [`CACHE_OUTCOMES`] order
/// (inline and warm are the hits).
const CACHE_LAYERS: [&str; 4] = [
    "serve.cache.inline",
    "serve.cache.warm",
    "serve.cache.dedup",
    "serve.cache.miss",
];

fn tele(j: &Json) -> Tele {
    let num = |j: Option<&Json>| j.and_then(Json::as_f64).unwrap_or(0.0);
    let mut t = Tele::default();
    for kind in ["layout", "simulate"] {
        let Some(k) = j.get("kinds").and_then(|k| k.get(kind)) else {
            continue;
        };
        t.count += num(k.get("count"));
        for (slot, o) in t.cache.iter_mut().zip(CACHE_OUTCOMES) {
            *slot += num(k.get("cache").and_then(|c| c.get(o)));
        }
        for (slot, s) in t.stage_us.iter_mut().zip(STAGES) {
            *slot += num(k
                .get("stages")
                .and_then(|st| st.get(s))
                .and_then(|h| h.get("sum")));
        }
        if kind == "layout" {
            t.layout_exec_us = num(k
                .get("stages")
                .and_then(|st| st.get("exec_us"))
                .and_then(|h| h.get("sum")));
            t.layout_miss = num(k.get("cache").and_then(|c| c.get("miss")));
        }
    }
    let tick = j.get("event_loop").and_then(|e| e.get("tick_us"));
    t.tick_us = num(tick.and_then(|h| h.get("sum")));
    t.ticks = num(tick.and_then(|h| h.get("count")));
    t
}

fn delta(a: &Tele, b: &Tele) -> Tele {
    Tele {
        count: b.count - a.count,
        cache: std::array::from_fn(|i| b.cache[i] - a.cache[i]),
        stage_us: std::array::from_fn(|i| b.stage_us[i] - a.stage_us[i]),
        layout_exec_us: b.layout_exec_us - a.layout_exec_us,
        layout_miss: b.layout_miss - a.layout_miss,
        tick_us: b.tick_us - a.tick_us,
        ticks: b.ticks - a.ticks,
    }
}

/// Run the workload.
pub fn run(opts: &Opts) -> Result<Outcome, String> {
    let flod = opts
        .flod
        .clone()
        .ok_or("serve-zipf needs --flod <path to flod>")?;
    std::fs::create_dir_all(&opts.work_dir).map_err(|e| e.to_string())?;
    let socket = opts
        .work_dir
        .join(format!("flod-{}.sock", std::process::id()));
    let epoch = Instant::now();
    let keys = keys();

    // Set-up, repeated: spawn flod until it answers; keep the last.
    let mut setup_s = Vec::new();
    let mut daemon = None;
    for _ in 0..SETUPS {
        if let Some(d) = daemon.take() {
            Daemon::shutdown(d)?;
        }
        let t0 = Instant::now();
        daemon = Some(Daemon::spawn(&flod, &socket)?);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let daemon = daemon.ok_or("no set-up ran")?;
    let listen = daemon.listen.clone();

    let (want, mut failures, warm_s) = warm_and_check(&listen, &keys)?;
    let mut attempted = keys.len() as u64;
    let mut failed = failures.len() as u64;
    let want_len: Vec<usize> = want.iter().map(Vec::len).collect();

    let before = if opts.trace {
        Some(tele(&telemetry(&listen)?))
    } else {
        None
    };
    let t_run = Instant::now();
    let deadline = t_run + Duration::from_secs_f64(opts.seconds);
    let results: Vec<Result<ConnResult, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                let (listen, keys, want_len) = (&listen, &keys, &want_len);
                let seed = opts
                    .seed
                    .wrapping_mul(CONNECTIONS as u64)
                    .wrapping_add(c as u64);
                s.spawn(move || {
                    closed_loop(listen, keys, want_len, seed, deadline, opts.trace, epoch)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("connection thread panicked"))
            .collect()
    });
    let wall_s = t_run.elapsed().as_secs_f64();
    let after = if opts.trace {
        Some(tele(&telemetry(&listen)?))
    } else {
        None
    };
    let rss = peak_rss_mb(daemon.pid());
    daemon.shutdown()?;

    let mut latencies_ms = Vec::new();
    let mut layouts = 0u64;
    let (mut traced_ms, mut untraced_ms) = (Vec::new(), Vec::new());
    let mut spans = Vec::new();
    for r in results {
        let r = r?;
        attempted += r.attempted;
        failed += r.failures.len() as u64;
        failures.extend(r.failures);
        latencies_ms.extend(r.latencies_ms);
        layouts += r.layouts;
        traced_ms.extend(r.traced_ms);
        untraced_ms.extend(r.untraced_ms);
        spans.push(r.tracer.spans().to_vec());
    }

    // Normalized execution times from the served simulate results.
    let (norm_lru, norm_karma) = norms(&keys, &want);
    let requests = latencies_ms.len() as f64;
    let tail = crate::stats::tail(&latencies_ms);
    let mut out = Outcome::new(setup_s, rss);
    out.attempted = attempted;
    out.failed = failed;
    out.failures = failures;
    out.wall_s = wall_s;
    out.norm_exec_lru = norm_lru;
    out.norm_exec_karma = norm_karma;
    out.env = daemon_env(&socket);
    out.named = vec![
        Named::new("serve_rps", requests / wall_s, "1/s"),
        Named::new("serve_p50_ms", median(&latencies_ms), "ms"),
        Named::new("serve_tail_ms", tail.map_or(0.0, |t| t.value), "ms"),
        Named::new(
            "serve_tail_percentile",
            tail.map_or(0.0, |t| t.percentile),
            "percentile",
        ),
        Named::new("serve_requests", requests, "count"),
        Named::new(
            "serve_layout_share",
            layouts as f64 / requests.max(1.0),
            "ratio",
        ),
        Named::new(
            "serve_working_set_mb",
            want_len.iter().sum::<usize>() as f64 / (1 << 20) as f64,
            "MiB",
        ),
        Named::new("serve_warmup_s", warm_s, "s"),
    ];
    out.units = latencies_ms.len() as u64;
    out.latencies_ms = latencies_ms;

    if let (Some(a), Some(b)) = (before, after) {
        let d = delta(&a, &b);
        let per = |x: f64| if d.count > 0.0 { x / d.count } else { 0.0 };
        let call_ms: f64 = out.latencies_ms.iter().sum();
        let stages_ms: f64 = d.stage_us.iter().sum::<f64>() / 1e3;
        let hits = d.cache[0] + d.cache[1];
        let mut layers = vec![
            Layer::new("core.pass.ms", per(d.layout_exec_us / 1e3), "ms/op"),
            Layer::new("core.pass.calls", per(d.layout_miss), "count/op"),
            Layer::new("serve.client.call_ms", call_ms / requests.max(1.0), "ms/op"),
        ];
        for (name, us) in STAGE_LAYERS.into_iter().zip(d.stage_us) {
            layers.push(Layer::new(name, per(us / 1e3), "ms/op"));
        }
        layers.push(Layer::new(
            "serve.event_loop.tick_ms",
            if d.ticks > 0.0 {
                d.tick_us / 1e3 / d.ticks
            } else {
                0.0
            },
            "ms/tick",
        ));
        for (name, n) in CACHE_LAYERS.into_iter().zip(d.cache) {
            layers.push(Layer::new(name, n, "count"));
        }
        layers.push(Layer::new("serve.cache.hit_ratio", per(hits), "ratio"));
        layers.push(Layer::new("serve.requests", d.count, "count"));
        layers.push(Layer::new(
            "trace.unexplained_ratio",
            if call_ms > 0.0 {
                1.0 - stages_ms / call_ms
            } else {
                0.0
            },
            "ratio",
        ));
        let m_on = median(&traced_ms);
        let m_off = median(&untraced_ms);
        layers.push(Layer::new(
            "trace.overhead_ratio",
            if m_off > 0.0 { m_on / m_off } else { 0.0 },
            "ratio",
        ));
        out.layers = layers;
        out.spans = spans;
    }
    Ok(out)
}

/// Mean over applications of inter/default simulated execution time,
/// per policy, read from the checked simulate results. Results that do
/// not parse (already counted as failed checks) are left out.
fn norms(keys: &[Request], results: &[Vec<u8>]) -> (f64, f64) {
    let exec_ms = |bytes: &[u8]| {
        let j = flo_json::parse(std::str::from_utf8(bytes).ok()?).ok()?;
        j.get("report")?.get("execution_time_ms")?.as_f64()
    };
    let mut exec: Vec<(&str, Scheme, PolicyKind, f64)> = Vec::new();
    for (k, bytes) in keys.iter().zip(results) {
        if let Request::Simulate {
            app,
            scheme,
            policy,
            ..
        } = k
        {
            if let Some(ms) = exec_ms(bytes) {
                exec.push((app, *scheme, *policy, ms));
            }
        }
    }
    let norm = |policy: PolicyKind| {
        let find = |app: &str, scheme: Scheme| {
            exec.iter()
                .find(|e| e.0 == app && e.1 == scheme && e.2 == policy)
                .map(|e| e.3)
        };
        let ratios: Vec<f64> = exec
            .iter()
            .filter(|e| e.1 == Scheme::Inter && e.2 == policy)
            .filter_map(|e| Some(e.3 / find(e.0, Scheme::Default)?))
            .collect();
        ratios.iter().sum::<f64>() / ratios.len().max(1) as f64
    };
    (norm(PolicyKind::LruInclusive), norm(PolicyKind::Karma))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_set_is_layouts_plus_simulates_and_distinct() {
        let ks = keys();
        assert_eq!(ks.len(), 16 * 3 + 16 * 2 * 2);
        let rendered: std::collections::HashSet<String> = ks
            .iter()
            .map(|k| flo_serve::protocol::work_key(k).unwrap())
            .collect();
        assert_eq!(rendered.len(), ks.len());
        // The most popular key is the first application's layout.
        assert!(matches!(&ks[0], Request::Layout { app, .. } if app == "cc-ver-1"));
    }
}
