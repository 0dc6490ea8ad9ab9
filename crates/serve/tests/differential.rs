//! Serve-vs-direct differential suite: everything `flod` answers must be
//! byte-identical to the same computation run in-process, under
//! concurrency, under cache-eviction pressure, and across request kinds.
//!
//! The servers in this file share one process, and shutdown is a
//! process-global flag (that is what lets SIGTERM reach every thread),
//! so the tests serialize on a lock and reset the flag per server.

use flo_core::TargetLayers;
use flo_serve::client::decode_envelope_bytes;
use flo_serve::protocol::{FaultSpec, Request};
use flo_serve::resilience::Resilience;
use flo_serve::{
    server, signal, Client, ClusterClient, Listen, Member, Membership, ServerConfig, Service,
};
use flo_sim::{PolicyKind, SweepPoint};
use flo_workloads::Scale;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

static SERVER_LOCK: Mutex<()> = Mutex::new(());
static SOCKET_SEQ: AtomicU64 = AtomicU64::new(0);

fn unique_socket() -> Listen {
    Listen::Unix(std::env::temp_dir().join(format!(
        "flod-test-{}-{}.sock",
        std::process::id(),
        SOCKET_SEQ.fetch_add(1, Ordering::SeqCst)
    )))
}

/// Run `f` against a freshly spawned server, then drain it gracefully
/// and assert the socket is cleaned up.
fn with_server<T>(
    budget_bytes: usize,
    workers: usize,
    queue_capacity: usize,
    f: impl FnOnce(&Listen) -> T,
) -> T {
    // Recover from poison: one test's failure must not cascade into
    // spurious `PoisonError`s in the rest of the suite.
    let _guard = SERVER_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    signal::reset();
    let listen = unique_socket();
    let cfg = ServerConfig {
        listen: listen.clone(),
        workers,
        queue_capacity,
        run_name: "flod-test".to_string(),
        ..ServerConfig::default()
    };
    let service = Arc::new(Service::with_budget(budget_bytes));
    let handle = {
        let cfg = cfg.clone();
        std::thread::spawn(move || server::run(&cfg, service))
    };
    Client::connect_retry(&listen, Duration::from_secs(10)).expect("server did not come up");
    let out = f(&listen);
    // Best-effort: a test may have already requested shutdown itself.
    if let Ok(mut c) = Client::connect(&listen) {
        let _ = c.call(&Request::Shutdown, None);
    }
    signal::request_shutdown();
    handle
        .join()
        .expect("server thread")
        .expect("graceful drain");
    if let Listen::Unix(path) = &listen {
        assert!(!path.exists(), "socket must be unlinked after drain");
    }
    out
}

/// A client for the one daemon at `listen`, with no busy-retry.
fn one_node(listen: &Listen) -> ClusterClient {
    let members = vec![Member {
        id: "n0".into(),
        listen: listen.clone(),
    }];
    ClusterClient::with_resilience(Membership { members }, 0, 1, Resilience::default())
}

/// A mixed batch covering all three request kinds, healthy and faulted,
/// with repeated keys sprinkled in so the shared cache is exercised.
fn mixed_batch() -> Vec<Request> {
    let mut reqs = vec![
        Request::Layout {
            app: "qio".into(),
            scale: Scale::Small,
            target: TargetLayers::Both,
        },
        Request::Layout {
            app: "swim".into(),
            scale: Scale::Small,
            target: TargetLayers::IoOnly,
        },
        Request::Simulate {
            app: "qio".into(),
            scale: Scale::Small,
            scheme: flo_bench::Scheme::Inter,
            policy: PolicyKind::LruInclusive,
            fault: None,
        },
        Request::Simulate {
            app: "swim".into(),
            scale: Scale::Small,
            scheme: flo_bench::Scheme::Default,
            policy: PolicyKind::Karma,
            fault: None,
        },
        Request::Simulate {
            app: "qio".into(),
            scale: Scale::Small,
            scheme: flo_bench::Scheme::Default,
            policy: PolicyKind::LruInclusive,
            fault: Some(FaultSpec {
                seed: 7,
                intensity: 1.0,
            }),
        },
        Request::Sweep {
            app: "s3asim".into(),
            scale: Scale::Small,
            scheme: flo_bench::Scheme::Inter,
            policy: PolicyKind::LruInclusive,
            points: vec![
                SweepPoint {
                    io_cache_blocks: 24,
                    storage_cache_blocks: 48,
                },
                SweepPoint {
                    io_cache_blocks: 48,
                    storage_cache_blocks: 96,
                },
            ],
        },
    ];
    // Repeat the batch so concurrent clients race on the same cache keys.
    let firsts = reqs.clone();
    reqs.extend(firsts);
    reqs
}

/// Direct (in-process) answers for the batch — the reference bytes.
fn direct_answers(reqs: &[Request]) -> Vec<String> {
    let svc = Service::with_budget(256 << 20);
    reqs.iter()
        .map(|r| {
            let bytes = svc.execute_bytes(r).expect("direct execution");
            String::from_utf8(bytes.to_vec()).expect("UTF-8 result")
        })
        .collect()
}

fn served_answers(listen: &Listen, reqs: &[Request], clients: usize) -> Vec<String> {
    let collected: Vec<(usize, String)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                scope.spawn(move || {
                    let mut client = Client::connect(listen).expect("client connect");
                    let mut got = Vec::new();
                    for (i, req) in reqs.iter().enumerate() {
                        if i % clients != c {
                            continue;
                        }
                        let result = client
                            .call(req, None)
                            .unwrap_or_else(|e| panic!("request {i} failed: {e}"));
                        got.push((i, result.to_string()));
                    }
                    got
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect()
    });
    let mut ordered = vec![String::new(); reqs.len()];
    for (i, r) in collected {
        ordered[i] = r;
    }
    ordered
}

#[test]
fn concurrent_served_responses_match_direct() {
    let reqs = mixed_batch();
    let direct = direct_answers(&reqs);
    let served = with_server(256 << 20, 4, 32, |listen| served_answers(listen, &reqs, 4));
    for (i, (s, d)) in served.iter().zip(&direct).enumerate() {
        assert_eq!(s, d, "request {i} ({}) diverged", reqs[i].kind());
    }
}

#[test]
fn pipelined_responses_match_direct_and_report_completion_order() {
    // The whole mixed batch pipelined on ONE connection: many in-flight
    // frames, answered in completion order, reassembled by id — and
    // still byte-identical to the in-process reference.
    let reqs = mixed_batch();
    let direct = direct_answers(&reqs);
    let served = with_server(256 << 20, 4, 32, |listen| {
        // One window as wide as the batch: every frame is in flight at once.
        one_node(listen).call_many(&reqs, None, reqs.len())
    });
    for (i, (s, d)) in served.into_iter().zip(&direct).enumerate() {
        let s = s
            .and_then(|bytes| decode_envelope_bytes(&bytes))
            .expect("pipelined request")
            .to_string();
        assert_eq!(&s, d, "pipelined request {i} ({}) diverged", reqs[i].kind());
    }
    // And the pipelining gauge actually saw depth > 1.
    let max_depth = with_server(256 << 20, 2, 32, |listen| {
        let mut cc = one_node(listen);
        let burst: Vec<Request> = (0..6).flat_map(|_| reqs[2..4].to_vec()).collect();
        for r in cc.call_many(&burst, None, burst.len()) {
            r.expect("burst");
        }
        // Same pooled connection as the burst.
        let stats = cc.call_on(0, &Request::Stats, None, None).expect("stats");
        stats
            .get("max_conn_inflight")
            .and_then(flo_json::Json::as_u64)
            .unwrap_or(0)
    });
    assert!(
        max_depth > 1,
        "a 12-request burst on one connection must pipeline (gauge saw {max_depth})"
    );
}

#[test]
fn cached_response_bytes_equal_reserialization_under_concurrency() {
    // The serialized-response cache must be invisible: under concurrent
    // repeated keys, `execute_bytes` (cold miss, then warm hit) returns
    // exactly the bytes a service that retains nothing recomputes.
    let svc = Arc::new(Service::with_budget(256 << 20));
    let reqs = mixed_batch();
    let fresh = Service::with_budget(0);
    let fresh: Vec<Arc<Vec<u8>>> = reqs
        .iter()
        .map(|r| fresh.execute_bytes(r).expect("recompute"))
        .collect();
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let svc = Arc::clone(&svc);
            let (reqs, fresh) = (&reqs, &fresh);
            scope.spawn(move || {
                for (req, fresh) in reqs.iter().zip(fresh) {
                    let cached = svc.execute_bytes(req).expect("execute_bytes");
                    assert_eq!(
                        String::from_utf8_lossy(&cached),
                        String::from_utf8_lossy(fresh),
                        "cached response bytes diverged from a fresh recomputation"
                    );
                }
            });
        }
    });
}

#[test]
fn tiny_lru_budget_evicts_but_never_changes_bytes() {
    let reqs = mixed_batch();
    let direct = direct_answers(&reqs);
    // A budget far below one trace set forces constant eviction and
    // recomputation mid-flight; determinism keeps the bytes identical.
    let (served, evictions) = with_server(64 << 10, 4, 32, |listen| {
        let served = served_answers(listen, &reqs, 4);
        let mut c = Client::connect(listen).expect("stats connect");
        let stats = c.call(&Request::Stats, None).expect("stats");
        let ev = stats
            .get("cache_evictions")
            .and_then(flo_json::Json::as_u64)
            .unwrap_or(0);
        (served, ev)
    });
    for (i, (s, d)) in served.iter().zip(&direct).enumerate() {
        assert_eq!(
            s,
            d,
            "request {i} ({}) diverged under eviction",
            reqs[i].kind()
        );
    }
    assert!(
        evictions > 0,
        "a 64 KiB budget must actually evict (saw {evictions})"
    );
}

#[test]
fn backpressure_answers_busy_and_deadline_errors_are_typed() {
    with_server(256 << 20, 1, 1, |listen| {
        // Occupy the single worker with a slow sweep, then fill the
        // 1-slot queue, then overflow it. The sweep must outlive the
        // stats polling below by a wide margin (seconds, not the test's
        // millisecond polling cadence), and per-point storage simulation
        // is what makes it slow — so the point count scales with the
        // profile's simulator speed.
        let slow_points = if cfg!(debug_assertions) { 64 } else { 512 };
        let slow = Request::Sweep {
            app: "qio".into(),
            scale: Scale::Small,
            scheme: flo_bench::Scheme::Inter,
            policy: PolicyKind::LruInclusive,
            points: (1..=slow_points)
                .map(|i| SweepPoint {
                    io_cache_blocks: 24 * i,
                    storage_cache_blocks: 48 * i,
                })
                .collect(),
        };
        let quick = Request::Simulate {
            app: "qio".into(),
            scale: Scale::Small,
            scheme: flo_bench::Scheme::Default,
            policy: PolicyKind::LruInclusive,
            fault: None,
        };
        let wait_for = |field: &str, want: u64| {
            let mut c = Client::connect(listen).unwrap();
            let deadline = std::time::Instant::now() + Duration::from_secs(10);
            loop {
                let stats = c.call(&Request::Stats, None).expect("stats");
                let got = stats
                    .get(field)
                    .and_then(flo_json::Json::as_u64)
                    .unwrap_or(0);
                if got >= want {
                    return;
                }
                assert!(
                    std::time::Instant::now() < deadline,
                    "timed out waiting for {field} >= {want} (stuck at {got}; \
                     the slow sweep likely finished before the queue filled)"
                );
                std::thread::sleep(Duration::from_millis(2));
            }
        };
        std::thread::scope(|scope| {
            let a = scope.spawn(|| {
                let mut c = Client::connect(listen).unwrap();
                c.call(&slow, None)
            });
            // The single worker is now executing the slow sweep...
            wait_for("inflight", 1);
            let b = scope.spawn(|| {
                let mut c = Client::connect(listen).unwrap();
                // Queued behind the slow job with an already-hopeless
                // deadline: the worker must answer `deadline`, typed.
                c.call(&quick, Some(1))
            });
            // ...and the 1-slot queue now holds b's job.
            wait_for("queue_depth", 1);
            // One more must bounce as `busy`.
            let mut c = Client::connect(listen).unwrap();
            let overflow = c.call(&quick, None);
            assert_eq!(
                overflow,
                Err(flo_serve::ServeError::Busy),
                "the bounded queue must answer busy, not block"
            );
            assert_eq!(
                b.join().unwrap(),
                Err(flo_serve::ServeError::DeadlineExceeded)
            );
            assert!(a.join().unwrap().is_ok(), "the slow request completes");
        });
    });
}

#[test]
fn trace_ids_survive_pipelining_and_land_in_telemetry() {
    // Pin a distinct trace id on every frame of a pipelined burst, then
    // check each response envelope echoes exactly the trace of the
    // request it answers — completion order scrambles ids, traces must
    // follow them. Afterwards the node's telemetry snapshot must have
    // counted every request with nonzero stage histograms and hold the
    // pinned traces in its recent-request ring.
    with_server(256 << 20, 4, 32, |listen| {
        let req = Request::Simulate {
            app: "qio".into(),
            scale: Scale::Small,
            scheme: flo_bench::Scheme::Inter,
            policy: PolicyKind::LruInclusive,
            fault: None,
        };
        let mut client = Client::connect(listen).expect("client connect");
        let n = 6u64;
        let mut sent: Vec<(u64, u64)> = Vec::new(); // (id, pinned trace)
        for i in 0..n {
            let trace = 0x5EED_0000 + i * 7;
            let id = client
                .send_traced(&req, None, Some(trace))
                .expect("traced send");
            sent.push((id, trace));
        }
        for _ in 0..n {
            let (id, bytes) = client.recv_raw().expect("pipelined recv");
            let envelope = flo_json::parse(std::str::from_utf8(&bytes).expect("utf8 envelope"))
                .expect("parse envelope");
            assert_eq!(
                envelope.get("ok").and_then(flo_json::Json::as_bool),
                Some(true),
                "pipelined request {id} failed: {envelope}"
            );
            let want = sent
                .iter()
                .find(|(sent_id, _)| *sent_id == id)
                .map(|(_, trace)| *trace)
                .expect("response id matches a sent frame");
            assert_eq!(
                envelope.get("trace").and_then(flo_json::Json::as_u64),
                Some(want),
                "request {id} must echo its own trace through completion-order scrambling"
            );
        }
        let snap = client
            .call(&Request::Telemetry, None)
            .expect("telemetry snapshot");
        let sim = snap
            .get("kinds")
            .and_then(|k| k.get("simulate"))
            .expect("simulate kind in snapshot");
        assert!(
            sim.get("count")
                .and_then(flo_json::Json::as_u64)
                .unwrap_or(0)
                >= n,
            "snapshot must count the burst: {sim}"
        );
        for stage in [
            "parse_us",
            "queue_us",
            "exec_us",
            "serialize_us",
            "flush_us",
        ] {
            let recorded = sim
                .get("stages")
                .and_then(|s| s.get(stage))
                .and_then(|h| h.get("count"))
                .and_then(flo_json::Json::as_u64)
                .unwrap_or(0);
            assert!(
                recorded >= n,
                "stage {stage} must record every request (saw {recorded})"
            );
        }
        let ring_traces: Vec<u64> = match snap.get("slowest") {
            Some(flo_json::Json::Arr(entries)) => entries
                .iter()
                .filter_map(|e| e.get("trace").and_then(flo_json::Json::as_u64))
                .collect(),
            other => panic!("snapshot lacks a slowest ring: {other:?}"),
        };
        let landed = sent
            .iter()
            .filter(|(_, trace)| ring_traces.contains(trace))
            .count();
        assert!(
            landed >= 1,
            "at least one pinned trace must surface in the slowest ring \
             (sent {sent:?}, ring {ring_traces:?})"
        );
    });
}

#[test]
fn shutdown_drains_inflight_work() {
    // One worker, a queued job behind an executing one: shutdown must
    // answer both before the server exits (`with_server` already joins
    // the drain and checks socket cleanup).
    with_server(256 << 20, 1, 8, |listen| {
        let req = Request::Simulate {
            app: "swim".into(),
            scale: Scale::Small,
            scheme: flo_bench::Scheme::Inter,
            policy: PolicyKind::LruInclusive,
            fault: None,
        };
        std::thread::scope(|scope| {
            let jobs: Vec<_> = (0..3)
                .map(|_| {
                    scope.spawn(|| {
                        let mut c = Client::connect(listen).unwrap();
                        c.call(&req, None)
                    })
                })
                .collect();
            // Wait until the jobs are demonstrably accepted (one
            // executing, two queued) before pulling the plug, so the
            // drain — not the accept loop — is what answers them.
            let mut stats_conn = Client::connect(listen).unwrap();
            let deadline = std::time::Instant::now() + Duration::from_secs(10);
            loop {
                let stats = stats_conn.call(&Request::Stats, None).expect("stats");
                let depth = stats
                    .get("queue_depth")
                    .and_then(flo_json::Json::as_u64)
                    .unwrap_or(0);
                if depth >= 2 || std::time::Instant::now() > deadline {
                    break;
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            signal::request_shutdown();
            for j in jobs {
                assert!(
                    j.join().unwrap().is_ok(),
                    "accepted jobs must be answered through the drain"
                );
            }
        });
    });
}

#[test]
fn shutdown_drains_pipelined_jobs_on_one_connection() {
    // Pipeline a burst on a single connection, pull the plug while it is
    // in flight, and then collect: every request the server accepted
    // must still be answered (ok or typed shutting-down), ids intact.
    with_server(256 << 20, 2, 16, |listen| {
        let req = Request::Simulate {
            app: "qio".into(),
            scale: Scale::Small,
            scheme: flo_bench::Scheme::Default,
            policy: PolicyKind::LruInclusive,
            fault: None,
        };
        let mut client = Client::connect(listen).expect("client connect");
        let n = 8;
        let mut ids = Vec::new();
        for _ in 0..n {
            ids.push(client.send(&req, None).expect("pipelined send"));
        }
        signal::request_shutdown();
        let mut answered = Vec::new();
        for _ in 0..n {
            let (id, bytes) = client.recv_raw().expect("drain must answer, not hang up");
            match decode_envelope_bytes(&bytes) {
                Ok(_) | Err(flo_serve::ServeError::ShuttingDown) => answered.push(id),
                Err(e) => panic!("pipelined job {id} got unexpected error during drain: {e}"),
            }
        }
        answered.sort_unstable();
        assert_eq!(answered, ids, "every accepted pipelined job answered once");
    });
}
