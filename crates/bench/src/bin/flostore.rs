//! `flostore` — materialize optimized layouts as real bytes and replay
//! traces against them.
//!
//! ```text
//! flostore materialize <app> [--dir DIR] [--policy lru|karma]
//! flostore replay      <app> [--dir DIR] [--policy lru|karma]
//! ```
//!
//! `materialize` runs the inter-node layout pass for `<app>`, sizes a
//! store from its traces, and writes the per-storage-node stripe files
//! plus the sealed superblock under `DIR` (default
//! `FLO_STORE_DIR`/`target/store`, in a per-app-and-policy
//! subdirectory). `replay` opens the sealed store and runs the
//! simulator's walk over the app's trace with verified preads,
//! printing measured per-layer hit rates next to the simulator's
//! prediction for the same point.
//!
//! `FLO_SCALE`, `FLO_STORE_CACHE_MB` and `FLO_STORE_WRITEBACK` apply as
//! everywhere; `--policy` (or `FLO_POLICY`) picks the replayed cache
//! policy — inclusive LRU by default.

use flo_bench::harness::{karma_hints, prepare_run, RunOverrides, Scheme};
use flo_bench::{exit_on_error, BenchError};
use flo_core::{generate_traces, FileLayout};
use flo_sim::{simulate, PolicyKind, StorageSystem};
use flo_workloads::by_name;
use std::path::PathBuf;

fn usage() -> ! {
    eprintln!("usage: flostore <materialize|replay> <app> [--dir DIR] [--policy lru|karma]");
    std::process::exit(2);
}

struct Args {
    cmd: String,
    app: String,
    dir: Option<PathBuf>,
    policy: PolicyKind,
}

fn parse_args() -> Args {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut pos = Vec::new();
    let mut dir = None;
    let mut policy = flo_bench::policy_from_env();
    let mut it = argv.into_iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--dir" => dir = Some(PathBuf::from(it.next().unwrap_or_else(|| usage()))),
            "--policy" => {
                let v = it.next().unwrap_or_else(|| usage());
                policy = Some(PolicyKind::parse(&v).unwrap_or_else(|| {
                    eprintln!("error: unknown policy {v:?} (use lru|karma)");
                    std::process::exit(2);
                }));
            }
            "-h" | "--help" => usage(),
            _ => pos.push(a),
        }
    }
    if pos.len() != 2 {
        usage();
    }
    Args {
        cmd: pos[0].clone(),
        app: pos[1].clone(),
        dir,
        policy: policy.unwrap_or(PolicyKind::LruInclusive),
    }
}

fn main() {
    let args = parse_args();
    let scale = flo_bench::scale_from_env();
    let workload = by_name(&args.app, scale).unwrap_or_else(|| {
        eprintln!("error: unknown application {:?}", args.app);
        std::process::exit(2);
    });
    let topo = flo_bench::topology_for(scale);
    let prepared = exit_on_error(prepare_run(
        &workload,
        &topo,
        Scheme::Inter,
        &RunOverrides::default(),
    ));
    let traces = generate_traces(&workload.program, &prepared.cfg, &prepared.layouts, &topo);
    let layout_hash = FileLayout::fingerprint_all(&prepared.layouts);
    let spec = flo_bench::experiments::figm::spec_from_traces(&traces, layout_hash, &topo);
    let dir = args.dir.unwrap_or_else(|| {
        flo_bench::store_dir_from_env().join(format!(
            "{}-{}",
            workload.name,
            args.policy.name().to_lowercase()
        ))
    });
    let store_err = |e: flo_store::StoreError| BenchError::InvalidArg(format!("store: {e}"));

    match args.cmd.as_str() {
        "materialize" => {
            let mut opts = flo_store::MaterializeOptions {
                writeback: flo_bench::store_writeback_from_env(),
                ..flo_store::MaterializeOptions::default()
            };
            if let Some(blocks) = flo_bench::store_cache_blocks_from_env(spec.block_bytes) {
                opts.cache_blocks = blocks;
            }
            let rep = exit_on_error(flo_store::materialize(&dir, &spec, &opts).map_err(store_err));
            println!(
                "sealed generation {} at {}: {} blocks / {} bytes across {} stripes \
                 (layout {:#018x}, {} evictions, {} writebacks, dirty high-water {})",
                rep.generation,
                dir.display(),
                rep.blocks_written,
                rep.bytes_written,
                rep.stripe_files,
                layout_hash,
                rep.cache.evictions,
                rep.cache.writebacks,
                rep.cache.dirty_high_water,
            );
        }
        "replay" => {
            let store = exit_on_error(flo_store::Store::open_expecting(&dir, layout_hash).map_err(
                |e| {
                    BenchError::InvalidArg(format!(
                        "store: {e} (run `flostore materialize {}` first?)",
                        args.app
                    ))
                },
            ));
            let hints = (args.policy == PolicyKind::Karma).then(|| karma_hints(&traces, &topo));
            let opts = flo_store::ReplayOptions {
                policy: args.policy,
                karma_hints: hints.clone(),
                fault_plan: None,
                compute_ms_per_thread: prepared.run_cfg.compute_ms_per_thread,
                verify_content: true,
            };
            let m =
                exit_on_error(flo_store::replay(&store, &topo, &traces, &opts).map_err(store_err));
            let mut system = exit_on_error(
                StorageSystem::new(topo.clone(), args.policy).map_err(BenchError::from),
            );
            if let Some(h) = &hints {
                system.set_karma_hints(h);
            }
            let sim = simulate(&mut system, &traces, &prepared.run_cfg);
            println!(
                "{} under {} (generation {}):",
                workload.name,
                args.policy.name(),
                store.generation()
            );
            println!(
                "  io hit%      measured {:6.2}  simulated {:6.2}",
                m.io_hit_rate() * 100.0,
                (1.0 - sim.layers.io.miss_rate()) * 100.0
            );
            println!(
                "  storage hit% measured {:6.2}  simulated {:6.2}",
                m.storage_hit_rate() * 100.0,
                (1.0 - sim.layers.storage.miss_rate()) * 100.0
            );
            println!(
                "  disk reads   measured {:6}  simulated {:6} ({} sequential)",
                m.disk_reads, sim.disk_reads, m.disk_sequential_reads
            );
            println!(
                "  exec est ms  measured {:8.1}  simulated {:8.1}",
                m.execution_time_ms, sim.execution_time_ms
            );
            println!(
                "  {} bytes verified in {:.1} ms wall",
                m.bytes_read, m.wall_ms
            );
        }
        _ => usage(),
    }
}
