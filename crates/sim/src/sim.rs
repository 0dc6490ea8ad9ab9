//! The simulation driver.

use crate::backend::{BlockBackend, Simulated};
use crate::fault::{FaultHook, FaultState, NoFaults};
use crate::stats::{LayerStats, SimReport};
use crate::system::StorageSystem;
use crate::trace::{JitterInterleaver, ThreadTrace};
use flo_obs::{NullObserver, Observer};

/// Per-run parameters of the execution-time model.
///
/// Compute time is charged *per thread* and is independent of the file
/// layout (the computation performed by the application does not change
/// when its files are reorganized); only the I/O stall varies between
/// layouts.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RunConfig {
    /// CPU time of each thread in milliseconds (the workload crate derives
    /// it from the thread's iteration count and the application's
    /// compute/IO ratio).
    pub compute_ms_per_thread: f64,
}

impl Default for RunConfig {
    fn default() -> RunConfig {
        RunConfig {
            compute_ms_per_thread: 0.0,
        }
    }
}

/// Deterministic seed of the jittered thread interleaving.
pub const INTERLEAVE_SEED: u64 = 0x5EED_F10C;

/// Drive `traces` through `system` with fair, deterministically jittered
/// thread interleaving (concurrent threads drift; see
/// [`crate::trace::JitterInterleaver`]).
///
/// Execution time is modelled as `max_t(compute_t + io_latency_t)`: the
/// parallel application finishes when its slowest thread does.
pub fn simulate(system: &mut StorageSystem, traces: &[ThreadTrace], cfg: &RunConfig) -> SimReport {
    simulate_observed(system, traces, cfg, &mut NullObserver)
}

/// [`simulate`], reporting per-event telemetry to `obs` (see
/// [`StorageSystem::access_observed`]). The report is bit-identical for
/// every observer; enabled observers additionally receive an end-of-run
/// per-set occupancy snapshot of every cache.
pub fn simulate_observed<O: Observer>(
    system: &mut StorageSystem,
    traces: &[ThreadTrace],
    cfg: &RunConfig,
    obs: &mut O,
) -> SimReport {
    drive(system, traces, cfg, obs, &mut NoFaults, &mut Simulated)
}

/// [`simulate`] under a fault plan: `faults` replays its seeded schedule
/// against the run (outages, stragglers, transient errors, cache
/// flushes), charging the degradation into the report's latencies. Same
/// state + same traces ⇒ bit-identical report; a quiet plan reproduces
/// [`simulate`] exactly.
pub fn simulate_faulted(
    system: &mut StorageSystem,
    traces: &[ThreadTrace],
    cfg: &RunConfig,
    faults: &mut FaultState,
) -> SimReport {
    simulate_faulted_observed(system, traces, cfg, &mut NullObserver, faults)
}

/// [`simulate_faulted`], additionally reporting telemetry — including the
/// injected [`flo_obs::FaultEvent`]s — to `obs`.
pub fn simulate_faulted_observed<O: Observer>(
    system: &mut StorageSystem,
    traces: &[ThreadTrace],
    cfg: &RunConfig,
    obs: &mut O,
    faults: &mut FaultState,
) -> SimReport {
    let _span = flo_obs::span("faults");
    drive(system, traces, cfg, obs, faults, &mut Simulated)
}

/// The one generic driver behind every `simulate*` entry point: generic
/// over the observer, the fault hook and the block backend, so the
/// unfaulted, model-only entry points monomorphize to the pre-fault walk.
/// A real-bytes backend (`flo-store`'s replay) runs this same walk and
/// receives every disk read the simulator charges.
pub fn drive<O: Observer, F: FaultHook, B: BlockBackend>(
    system: &mut StorageSystem,
    traces: &[ThreadTrace],
    cfg: &RunConfig,
    obs: &mut O,
    faults: &mut F,
    backend: &mut B,
) -> SimReport {
    let mut latency = vec![0.0f64; traces.len()];
    let mut total_requests = 0u64;
    // The interleaved access walk is the phase worth timing; the span is
    // gated on `O::ENABLED` so the null-observer path stays free.
    let span = if O::ENABLED {
        Some(flo_obs::span("interleave"))
    } else {
        None
    };
    for (t, entry) in JitterInterleaver::new(traces, INTERLEAVE_SEED) {
        let ms = system.access_faulted(
            traces[t].compute_node,
            entry.block,
            entry.count,
            obs,
            faults,
            backend,
        );
        latency[t] += ms;
        total_requests += 1;
    }
    drop(span);
    if O::ENABLED {
        system.snapshot_occupancy(obs);
    }
    let execution_time_ms = latency
        .iter()
        .map(|l| l + cfg.compute_ms_per_thread)
        .fold(0.0f64, f64::max);
    let (disk_reads, disk_sequential_reads) = system.disk_stats();
    SimReport {
        layers: LayerStats {
            io: system.io_layer_stats(),
            storage: system.storage_layer_stats(),
        },
        disk_reads,
        disk_sequential_reads,
        demotions: system.demotions(),
        thread_latency_ms: latency,
        compute_ms_per_thread: cfg.compute_ms_per_thread,
        execution_time_ms,
        total_requests,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::BlockAddr;
    use crate::policies::PolicyKind;
    use crate::topology::Topology;

    fn trace(thread: usize, node: usize, blocks: &[u64]) -> ThreadTrace {
        let mut t = ThreadTrace::new(thread, node);
        for &i in blocks {
            t.push(BlockAddr::new(0, i));
        }
        t
    }

    #[test]
    fn report_counts_every_request() {
        let mut sys = StorageSystem::new(Topology::tiny(), PolicyKind::LruInclusive).unwrap();
        let traces = vec![trace(0, 0, &[1, 2, 3]), trace(1, 1, &[4, 5])];
        let report = simulate(&mut sys, &traces, &RunConfig::default());
        assert_eq!(report.total_requests, 5);
        assert_eq!(report.layers.io.accesses, 5);
        assert_eq!(report.thread_latency_ms.len(), 2);
        assert!(report.execution_time_ms > 0.0);
    }

    #[test]
    fn execution_time_is_slowest_thread() {
        let mut sys = StorageSystem::new(Topology::tiny(), PolicyKind::LruInclusive).unwrap();
        let traces = vec![
            trace(0, 0, &[1]),
            trace(1, 1, &(10..40).collect::<Vec<_>>()),
        ];
        let cfg = RunConfig::default();
        let report = simulate(&mut sys, &traces, &cfg);
        let t1_total = report.thread_latency_ms[1] + report.compute_ms_per_thread;
        assert!((report.execution_time_ms - t1_total).abs() < 1e-9);
        assert!(report.thread_latency_ms[1] > report.thread_latency_ms[0]);
    }

    #[test]
    fn warm_rerun_is_faster() {
        // Two identical passes over a working set that fits in cache: the
        // second pass must be all hits, so a combined trace costs less
        // than twice the cold trace.
        let blocks: Vec<u64> = (0..8).collect();
        let once = trace(0, 0, &blocks);
        let mut twice_blocks = blocks.clone();
        twice_blocks.extend(&blocks);
        let twice = trace(0, 0, &twice_blocks);

        let mut sys1 = StorageSystem::new(Topology::tiny(), PolicyKind::LruInclusive).unwrap();
        let r1 = simulate(&mut sys1, &[once], &RunConfig::default());
        let mut sys2 = StorageSystem::new(Topology::tiny(), PolicyKind::LruInclusive).unwrap();
        let r2 = simulate(&mut sys2, &[twice], &RunConfig::default());
        assert!(
            r2.thread_latency_ms[0] < 2.0 * r1.thread_latency_ms[0],
            "second pass should hit caches"
        );
        assert_eq!(r2.disk_reads, r1.disk_reads);
    }

    #[test]
    fn deterministic_replay() {
        let traces = vec![trace(0, 0, &[1, 5, 9, 1]), trace(1, 2, &[2, 5, 7])];
        let run = || {
            let mut sys = StorageSystem::new(Topology::tiny(), PolicyKind::LruInclusive).unwrap();
            simulate(&mut sys, &traces, &RunConfig::default())
        };
        let a = run();
        let b = run();
        assert_eq!(a.execution_time_ms, b.execution_time_ms);
        assert_eq!(a.disk_reads, b.disk_reads);
        assert_eq!(a.layers.io.hits, b.layers.io.hits);
    }

    #[test]
    fn contention_raises_misses() {
        // Two threads behind the same I/O node with disjoint working sets
        // bigger than the shared cache thrash each other; the same threads
        // with the same footprint behind different I/O nodes do better.
        let blocks_a: Vec<u64> = (0..12).chain(0..12).collect();
        let blocks_b: Vec<u64> = (100..112).chain(100..112).collect();
        let shared = vec![trace(0, 0, &blocks_a), trace(1, 1, &blocks_b)]; // both → io node 0
        let split = vec![trace(0, 0, &blocks_a), trace(1, 2, &blocks_b)]; // io nodes 0 and 1
        let mut sys_shared =
            StorageSystem::new(Topology::tiny(), PolicyKind::LruInclusive).unwrap();
        let r_shared = simulate(&mut sys_shared, &shared, &RunConfig::default());
        let mut sys_split = StorageSystem::new(Topology::tiny(), PolicyKind::LruInclusive).unwrap();
        let r_split = simulate(&mut sys_split, &split, &RunConfig::default());
        assert!(
            r_split.layers.io.hits >= r_shared.layers.io.hits,
            "splitting threads across caches must not hurt hits"
        );
    }
}
