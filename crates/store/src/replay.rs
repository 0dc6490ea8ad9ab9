//! The trace replayer: run the simulator's own walk with the `Files`
//! backend and measure what the simulator only predicts.
//!
//! [`replay`] is `flo_sim::drive` — the walk behind every `simulate*`
//! entry point — instantiated with a real-bytes [`BlockBackend`]: every
//! disk read the walk charges becomes a pread (checksum-verified, and
//! content-verified when [`ReplayOptions::verify_content`] is set)
//! against a sealed [`Store`]'s stripe files. Cache residency, weighted
//! accounting, latency charges and observer events are the simulator's
//! by construction; what the replay adds is the physical reads, the
//! bytes they return and the wall time they take. The independent check
//! on the walk itself is the naive reference hierarchy in flo-sim's
//! `oracle` test suite.
//!
//! Transient-only [`FaultPlan`]s are honored through the simulator's own
//! [`FaultState`], so retries and their backoff waits are the simulated
//! ones. Plans with outage/straggler/flush rates are rejected — those
//! faults reroute requests or drop cache state in ways real stripe files
//! cannot replay.

use crate::error::StoreError;
use crate::store::Store;
use flo_obs::{NullObserver, Observer};
use flo_sim::cache::CacheStats;
use flo_sim::{
    drive, BlockAddr, BlockBackend, FaultPlan, FaultState, KarmaHints, NoFaults, PolicyKind,
    RunConfig, StorageSystem, ThreadTrace, Topology,
};
use std::time::Instant;

/// Replay parameters.
#[derive(Clone, Debug)]
pub struct ReplayOptions {
    /// Hierarchy policy to run. Supported: [`PolicyKind::LruInclusive`]
    /// and [`PolicyKind::Karma`]; the others are rejected as
    /// [`StoreError::Invalid`].
    pub policy: PolicyKind,
    /// KARMA's hints (required for [`PolicyKind::Karma`]).
    pub karma_hints: Option<KarmaHints>,
    /// Transient-only fault plan for the pread retry path.
    pub fault_plan: Option<FaultPlan>,
    /// Per-thread compute time for the execution-time estimate, matching
    /// [`flo_sim::RunConfig`].
    pub compute_ms_per_thread: f64,
    /// Verify every pread's content against the deterministic fill (end
    /// to end), not just the slot checksum.
    pub verify_content: bool,
}

impl Default for ReplayOptions {
    fn default() -> ReplayOptions {
        ReplayOptions {
            policy: PolicyKind::LruInclusive,
            karma_hints: None,
            fault_plan: None,
            compute_ms_per_thread: 0.0,
            verify_content: false,
        }
    }
}

/// The measured counterpart of [`flo_sim::SimReport`]: the walk's
/// per-layer cache statistics and disk counters, plus the real-bytes
/// extras (bytes read, wall time).
#[derive(Clone, Debug)]
pub struct MeasuredReport {
    /// I/O-layer cache statistics (aggregated over nodes).
    pub io: CacheStats,
    /// Storage-layer cache statistics.
    pub storage: CacheStats,
    /// Preads issued against stripe files.
    pub disk_reads: u64,
    /// Preads the disk model classified sequential.
    pub disk_sequential_reads: u64,
    /// Data bytes served by preads.
    pub bytes_read: u64,
    /// Injected transient failures absorbed by the retry path.
    pub retries: u64,
    /// Total retry wait charged, in (modeled) milliseconds.
    pub retry_ms: f64,
    /// Modeled per-thread I/O latency, comparable with the simulator's.
    pub thread_latency_ms: Vec<f64>,
    /// Modeled execution time: `max_t(compute + latency_t)`.
    pub execution_time_ms: f64,
    /// Interleaved block requests replayed.
    pub total_requests: u64,
    /// Real elapsed wall-clock time of the replay, in milliseconds.
    pub wall_ms: f64,
}

impl MeasuredReport {
    /// Measured I/O-layer hit rate in [0, 1].
    pub fn io_hit_rate(&self) -> f64 {
        1.0 - self.io.miss_rate()
    }

    /// Measured storage-layer hit rate in [0, 1].
    pub fn storage_hit_rate(&self) -> f64 {
        1.0 - self.storage.miss_rate()
    }
}

/// The real-bytes backend: one verified pread per simulated disk read.
/// After the first failure it issues no more reads and keeps the error
/// for [`replay_observed`] to return.
struct Files<'a> {
    store: &'a Store,
    verify_content: bool,
    bytes_read: u64,
    error: Option<StoreError>,
}

impl BlockBackend for Files<'_> {
    fn read(&mut self, block: BlockAddr) {
        if self.error.is_some() {
            return;
        }
        let data = if self.verify_content {
            self.store.read_block_verified(block)
        } else {
            self.store.read_block(block)
        };
        match data {
            Ok(data) => self.bytes_read += data.len() as u64,
            Err(e) => self.error = Some(e),
        }
    }
}

/// Replay `traces` against `store` under `topo`, producing measured
/// per-layer statistics. See the module docs.
pub fn replay(
    store: &Store,
    topo: &Topology,
    traces: &[ThreadTrace],
    opts: &ReplayOptions,
) -> Result<MeasuredReport, StoreError> {
    replay_observed(store, topo, traces, opts, &mut NullObserver)
}

/// [`replay`], reporting the simulator's per-event telemetry (cache
/// lookups, evictions, KARMA routes, disk reads, injected retries, the
/// end-of-run occupancy snapshot) to `obs`.
pub fn replay_observed<O: Observer>(
    store: &Store,
    topo: &Topology,
    traces: &[ThreadTrace],
    opts: &ReplayOptions,
    obs: &mut O,
) -> Result<MeasuredReport, StoreError> {
    let invalid = |e: flo_sim::SimError| StoreError::Invalid(e.to_string());
    let mut system = StorageSystem::new(topo.clone(), opts.policy).map_err(invalid)?;
    if store.spec().storage_nodes as usize != topo.storage_nodes {
        return Err(StoreError::Mismatch(format!(
            "store striped over {} nodes, topology has {}",
            store.spec().storage_nodes,
            topo.storage_nodes
        )));
    }
    match opts.policy {
        PolicyKind::LruInclusive => {}
        PolicyKind::Karma => {
            let hints = opts
                .karma_hints
                .as_ref()
                .ok_or_else(|| StoreError::Invalid("KARMA replay requires karma_hints".into()))?;
            system.set_karma_hints(hints);
        }
        other => {
            return Err(StoreError::Invalid(format!(
                "replay supports LRU-inclusive and KARMA walks, not {}",
                other.name()
            )))
        }
    }
    let mut faults = opts
        .fault_plan
        .map(FaultState::new)
        .transpose()
        .map_err(invalid)?;
    if let Some(plan) = faults.as_ref().map(FaultState::plan) {
        if plan.outage_per_mille != 0 || plan.straggler_per_mille != 0 || plan.flush_per_mille != 0
        {
            return Err(StoreError::Invalid(
                "replay fault plans must be transient-only (outage/straggler/flush rates \
                 reroute requests or drop cache state, which real stripe files cannot replay)"
                    .into(),
            ));
        }
    }

    let cfg = RunConfig {
        compute_ms_per_thread: opts.compute_ms_per_thread,
    };
    let mut files = Files {
        store,
        verify_content: opts.verify_content,
        bytes_read: 0,
        error: None,
    };
    let started = Instant::now();
    let report = match &mut faults {
        Some(f) => drive(&mut system, traces, &cfg, obs, f, &mut files),
        None => drive(&mut system, traces, &cfg, obs, &mut NoFaults, &mut files),
    };
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    if let Some(e) = files.error {
        return Err(e);
    }
    let (retries, retry_ms) = faults
        .as_ref()
        .map_or((0, 0.0), |f| (f.stats().retries, f.stats().retry_ms));
    Ok(MeasuredReport {
        io: report.layers.io,
        storage: report.layers.storage,
        disk_reads: report.disk_reads,
        disk_sequential_reads: report.disk_sequential_reads,
        bytes_read: files.bytes_read,
        retries,
        retry_ms,
        thread_latency_ms: report.thread_latency_ms,
        execution_time_ms: report.execution_time_ms,
        total_requests: report.total_requests,
        wall_ms,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::{FileBlocks, StoreSpec};
    use crate::materialize::{materialize, MaterializeOptions};
    use flo_obs::{Layer, MetricsObserver};
    use flo_sim::{simulate, simulate_faulted, simulate_observed};
    use std::fs;
    use std::path::PathBuf;

    fn topo() -> Topology {
        Topology {
            compute_nodes: 8,
            io_nodes: 4,
            storage_nodes: 2,
            io_cache_blocks: 24,
            storage_cache_blocks: 48,
            block_elems: 16,
            cache_ways: 8,
        }
    }

    fn spec(files: &[(u32, u64)]) -> StoreSpec {
        StoreSpec {
            layout_hash: 0xA11CE,
            block_bytes: 128,
            storage_nodes: 2,
            files: files
                .iter()
                .map(|&(file, blocks)| FileBlocks { file, blocks })
                .collect(),
        }
    }

    /// Synthetic multi-thread traces with enough reuse and conflict to
    /// exercise hits, misses and evictions at both layers.
    fn traces(topo: &Topology, files: &[(u32, u64)]) -> Vec<ThreadTrace> {
        let mut out = Vec::new();
        let mut x: u64 = 0xBEEF;
        for thread in 0..topo.compute_nodes {
            let mut t = ThreadTrace::new(thread, thread);
            for step in 0..400u64 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let (file, blocks) = files[(x % files.len() as u64) as usize];
                // Mix strided scans with hot reuse.
                let index = if step % 3 == 0 {
                    (thread as u64 * 7 + step) % blocks
                } else {
                    x % blocks
                };
                t.push_run(BlockAddr::new(file, index), 1 + (x % 4) as u32);
            }
            out.push(t);
        }
        out
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("flo-store-replay-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn lru_replay_matches_simulation_bit_for_bit() {
        let topo = topo();
        let files = [(0u32, 40u64), (1, 25)];
        let traces = traces(&topo, &files);
        let dir = tmpdir("lru");
        materialize(&dir, &spec(&files), &MaterializeOptions::default()).unwrap();
        let store = Store::open(&dir).unwrap();
        let opts = ReplayOptions {
            verify_content: true,
            ..ReplayOptions::default()
        };
        let mut obs = MetricsObserver::new();
        let measured = replay_observed(&store, &topo, &traces, &opts, &mut obs).unwrap();

        let mut sys = StorageSystem::new(topo.clone(), PolicyKind::LruInclusive).unwrap();
        let sim = simulate(&mut sys, &traces, &RunConfig::default());

        assert_eq!(measured.io, sim.layers.io, "I/O layer stats must match");
        assert_eq!(measured.storage, sim.layers.storage);
        assert_eq!(measured.disk_reads, sim.disk_reads);
        assert_eq!(measured.disk_sequential_reads, sim.disk_sequential_reads);
        assert_eq!(measured.total_requests, sim.total_requests);
        for (m, s) in measured
            .thread_latency_ms
            .iter()
            .zip(&sim.thread_latency_ms)
        {
            assert!((m - s).abs() < 1e-9, "latency drift: {m} vs {s}");
        }
        assert!(measured.bytes_read > 0);
        assert!(
            obs.layer_totals(Layer::Io).evictions > 0,
            "workload must evict"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn karma_replay_matches_simulation() {
        let topo = topo();
        // One hot small file (→ Io), one medium (→ Storage), one large
        // cold file (→ Bypass).
        let files = [(0u32, 12u64), (1, 60), (2, 400)];
        let traces = traces(&topo, &files);
        let hints = KarmaHints::from_triples(&[(0, 12, 4000), (1, 60, 900), (2, 400, 300)]);
        let dir = tmpdir("karma");
        materialize(&dir, &spec(&files), &MaterializeOptions::default()).unwrap();
        let store = Store::open(&dir).unwrap();
        let opts = ReplayOptions {
            policy: PolicyKind::Karma,
            karma_hints: Some(hints.clone()),
            ..ReplayOptions::default()
        };
        let measured = replay(&store, &topo, &traces, &opts).unwrap();

        let mut sys = StorageSystem::new(topo.clone(), PolicyKind::Karma).unwrap();
        sys.set_karma_hints(&hints);
        let sim = simulate(&mut sys, &traces, &RunConfig::default());

        assert_eq!(measured.io, sim.layers.io);
        assert_eq!(measured.storage, sim.layers.storage);
        assert_eq!(measured.disk_reads, sim.disk_reads);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn replay_observes_the_simulated_event_stream() {
        // Every event the simulator reports — KARMA routes and the
        // end-of-run occupancy snapshot included — must reach a replay's
        // observer too. (The `store` section appears only once a caller
        // sets store counters, so neither side carries one here.)
        let topo = topo();
        let files = [(0u32, 12u64), (1, 60), (2, 400)];
        let traces = traces(&topo, &files);
        let hints = KarmaHints::from_triples(&[(0, 12, 4000), (1, 60, 900), (2, 400, 300)]);
        let dir = tmpdir("observed");
        materialize(&dir, &spec(&files), &MaterializeOptions::default()).unwrap();
        let store = Store::open(&dir).unwrap();
        for (policy, karma_hints) in [
            (PolicyKind::LruInclusive, None),
            (PolicyKind::Karma, Some(hints)),
        ] {
            let opts = ReplayOptions {
                policy,
                karma_hints: karma_hints.clone(),
                verify_content: true,
                ..ReplayOptions::default()
            };
            let mut replayed = MetricsObserver::new();
            replay_observed(&store, &topo, &traces, &opts, &mut replayed).unwrap();

            let mut sys = StorageSystem::new(topo.clone(), policy).unwrap();
            if let Some(h) = &karma_hints {
                sys.set_karma_hints(h);
            }
            let mut simulated = MetricsObserver::new();
            simulate_observed(&mut sys, &traces, &RunConfig::default(), &mut simulated);
            assert_eq!(
                replayed.to_json(),
                simulated.to_json(),
                "{} event streams differ",
                policy.name()
            );
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn transient_faults_charge_identical_retries() {
        let topo = topo();
        let files = [(0u32, 40u64), (1, 25)];
        let traces = traces(&topo, &files);
        let mut plan = FaultPlan::quiet(0xF4017);
        plan.transient_per_mille = 120;
        let dir = tmpdir("faults");
        materialize(&dir, &spec(&files), &MaterializeOptions::default()).unwrap();
        let store = Store::open(&dir).unwrap();
        let opts = ReplayOptions {
            fault_plan: Some(plan),
            ..ReplayOptions::default()
        };
        let measured = replay(&store, &topo, &traces, &opts).unwrap();

        let mut sys = StorageSystem::new(topo.clone(), PolicyKind::LruInclusive).unwrap();
        let mut faults = FaultState::new(plan).unwrap();
        let sim = simulate_faulted(&mut sys, &traces, &RunConfig::default(), &mut faults);

        assert!(measured.retries > 0, "plan must actually inject");
        assert_eq!(measured.retries, faults.stats().retries);
        assert!((measured.retry_ms - faults.stats().retry_ms).abs() < 1e-9);
        assert_eq!(
            measured.io, sim.layers.io,
            "transient faults must not change the walk"
        );
        for (m, s) in measured
            .thread_latency_ms
            .iter()
            .zip(&sim.thread_latency_ms)
        {
            assert!((m - s).abs() < 1e-9, "retry charge drift: {m} vs {s}");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn replay_is_deterministic() {
        let topo = topo();
        let files = [(0u32, 30u64)];
        let traces = traces(&topo, &files);
        let dir = tmpdir("det");
        materialize(&dir, &spec(&files), &MaterializeOptions::default()).unwrap();
        let store = Store::open(&dir).unwrap();
        let opts = ReplayOptions::default();
        let a = replay(&store, &topo, &traces, &opts).unwrap();
        let b = replay(&store, &topo, &traces, &opts).unwrap();
        assert_eq!(a.io, b.io);
        assert_eq!(a.disk_reads, b.disk_reads);
        assert_eq!(a.thread_latency_ms, b.thread_latency_ms);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_pread_fails_the_replay() {
        let topo = topo();
        let dir = tmpdir("missing");
        // The traces read file 1, which the store does not hold.
        materialize(&dir, &spec(&[(0, 40)]), &MaterializeOptions::default()).unwrap();
        let store = Store::open(&dir).unwrap();
        let t = traces(&topo, &[(0, 40), (1, 25)]);
        match replay(&store, &topo, &t, &ReplayOptions::default()) {
            Err(StoreError::Invalid(why)) => assert!(why.contains("block map"), "{why}"),
            other => panic!("expected the pread error, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn unsupported_policies_and_plans_rejected() {
        let topo = topo();
        let files = [(0u32, 10u64)];
        let dir = tmpdir("reject");
        materialize(&dir, &spec(&files), &MaterializeOptions::default()).unwrap();
        let store = Store::open(&dir).unwrap();
        let t = traces(&topo, &files);
        let demote = ReplayOptions {
            policy: PolicyKind::DemoteLru,
            ..ReplayOptions::default()
        };
        assert!(matches!(
            replay(&store, &topo, &t, &demote),
            Err(StoreError::Invalid(_))
        ));
        let karma_without_hints = ReplayOptions {
            policy: PolicyKind::Karma,
            ..ReplayOptions::default()
        };
        assert!(replay(&store, &topo, &t, &karma_without_hints).is_err());
        let outage = ReplayOptions {
            fault_plan: Some(FaultPlan::default_degraded(1)),
            ..ReplayOptions::default()
        };
        assert!(matches!(
            replay(&store, &topo, &t, &outage),
            Err(StoreError::Invalid(_))
        ));
        // Store/topology striping mismatch.
        let mut wrong = topo.clone();
        wrong.storage_nodes = 4;
        assert!(matches!(
            replay(&store, &wrong, &t, &ReplayOptions::default()),
            Err(StoreError::Mismatch(_))
        ));
        let _ = fs::remove_dir_all(&dir);
    }
}
