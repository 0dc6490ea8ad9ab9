//! An independent oracle for the simulator's access walk.
//!
//! `flo-store`'s replay runs the simulator's own walk, so its agreement
//! with `simulate` checks only plumbing. This suite checks the walk
//! itself against a deliberately naive reference hierarchy written from
//! the model's description (§5.1, Fig. 1): every cache set is a plain
//! `Vec` kept MRU-first, the set index is a plain `%`, and the
//! inclusive-LRU, exclusive DEMOTE-LRU and KARMA walks are spelled out
//! directly. Only KARMA's allocation and the jittered interleaving are
//! shared with the code under test.

use flo_linalg::SplitMix64;
use flo_sim::cache::CacheStats;
use flo_sim::policies::karma::{KarmaAssignment, KarmaLevel};
use flo_sim::sim::INTERLEAVE_SEED;
use flo_sim::{
    simulate, BlockAddr, JitterInterleaver, KarmaHints, PolicyKind, RunConfig, StorageSystem,
    ThreadTrace, Topology,
};
use flo_store::{materialize, replay, FileBlocks, MaterializeOptions, ReplayOptions, Store};

/// One set-associative cache: `sets[s]` lists set `s`'s blocks, MRU first.
struct NaiveCache {
    sets: Vec<Vec<BlockAddr>>,
    ways: usize,
    stats: CacheStats,
    evictions: u64,
}

impl NaiveCache {
    fn new(capacity: usize, ways: usize) -> NaiveCache {
        let ways = ways.min(capacity);
        NaiveCache {
            sets: vec![Vec::new(); (capacity / ways).max(1)],
            ways,
            stats: CacheStats::default(),
            evictions: 0,
        }
    }

    fn set(&mut self, b: BlockAddr) -> &mut Vec<BlockAddr> {
        let n = self.sets.len() as u64;
        &mut self.sets[((b.index + u64::from(b.file) * 7919) % n) as usize]
    }

    /// A lookup serving `weight` element accesses: all hit when the block
    /// is resident (which promotes it); otherwise the first one misses.
    fn lookup(&mut self, b: BlockAddr, weight: u32) -> bool {
        let set = self.set(b);
        let hit = match set.iter().position(|&x| x == b) {
            Some(p) => {
                set.remove(p);
                set.insert(0, b);
                true
            }
            None => false,
        };
        self.stats.accesses += u64::from(weight);
        self.stats.hits += u64::from(weight) - u64::from(!hit);
        hit
    }

    /// Install a block as MRU (a resident copy just moves to the front);
    /// returns the set's LRU block if the set overflows, which is dropped.
    fn install(&mut self, b: BlockAddr) -> Option<BlockAddr> {
        let ways = self.ways;
        let set = self.set(b);
        set.retain(|&x| x != b);
        set.insert(0, b);
        let victim = if set.len() > ways { set.pop() } else { None };
        self.evictions += u64::from(victim.is_some());
        victim
    }

    fn remove(&mut self, b: BlockAddr) {
        self.set(b).retain(|&x| x != b);
    }
}

/// The hierarchy policy a walk runs.
#[derive(Clone, Copy)]
enum Walk<'a> {
    /// Inclusive LRU at both layers.
    Lru,
    /// Exclusive DEMOTE-LRU.
    Demote,
    /// KARMA with these hints.
    Karma(&'a KarmaHints),
}

/// What the reference walk reports.
struct Outcome {
    io: CacheStats,
    storage: CacheStats,
    disk_reads: u64,
    total_requests: u64,
    io_evictions: u64,
    storage_evictions: u64,
    demotions: u64,
}

/// Run `traces` through the reference hierarchy under `walk`.
fn naive_run(topo: &Topology, traces: &[ThreadTrace], walk: Walk) -> Outcome {
    let mut io: Vec<NaiveCache> = (0..topo.io_nodes)
        .map(|_| NaiveCache::new(topo.io_cache_blocks, topo.cache_ways))
        .collect();
    let mut sc: Vec<NaiveCache> = (0..topo.storage_nodes)
        .map(|_| NaiveCache::new(topo.storage_cache_blocks, topo.cache_ways))
        .collect();
    let karma = match walk {
        Walk::Karma(h) => Some(KarmaAssignment::allocate(h, topo)),
        Walk::Lru | Walk::Demote => None,
    };
    let (mut disk_reads, mut total_requests, mut demotions) = (0, 0, 0);
    for (t, e) in JitterInterleaver::new(traces, INTERLEAVE_SEED) {
        total_requests += 1;
        let (b, w) = (e.block, e.count);
        let i = traces[t].compute_node / (topo.compute_nodes / topo.io_nodes);
        let s = (b.index % topo.storage_nodes as u64) as usize;
        if let Walk::Demote = walk {
            // An upper hit stays up. Otherwise the block comes from below
            // (and leaves it) or from disk, and goes up only; the upper
            // victim it displaces is demoted below. "Below" is the storage
            // cache this access went through, as in the simulator, even
            // when the victim is striped onto another storage node.
            if !io[i].lookup(b, w) {
                if sc[s].lookup(b, 1) {
                    sc[s].remove(b);
                } else {
                    disk_reads += 1;
                }
                if let Some(victim) = io[i].install(b) {
                    demotions += 1;
                    sc[s].install(victim);
                }
            }
            continue;
        }
        match karma.as_ref().map(|k| k.level_for(i, b.file)) {
            None => {
                if !io[i].lookup(b, w) {
                    if !sc[s].lookup(b, 1) {
                        disk_reads += 1;
                        sc[s].install(b);
                    }
                    io[i].install(b);
                }
            }
            Some(KarmaLevel::Io) => {
                if !io[i].lookup(b, w) {
                    disk_reads += 1;
                    io[i].install(b);
                }
            }
            Some(KarmaLevel::Storage) => {
                io[i].lookup(b, w);
                if !sc[s].lookup(b, 1) {
                    disk_reads += 1;
                    sc[s].install(b);
                }
            }
            Some(KarmaLevel::Bypass) => {
                io[i].lookup(b, w);
                sc[s].lookup(b, 1);
                disk_reads += 1;
            }
        }
    }
    let total = |caches: &[NaiveCache]| {
        let mut stats = CacheStats::default();
        for c in caches {
            stats.merge(&c.stats);
        }
        (stats, caches.iter().map(|c| c.evictions).sum())
    };
    let ((io_stats, io_evictions), (sc_stats, storage_evictions)) = (total(&io), total(&sc));
    Outcome {
        io: io_stats,
        storage: sc_stats,
        disk_reads,
        total_requests,
        io_evictions,
        storage_evictions,
        demotions,
    }
}

/// One random case: a topology, per-thread traces over three files, and
/// the files' real block counts.
struct Case {
    topo: Topology,
    traces: Vec<ThreadTrace>,
    files: [u64; 3],
}

fn random_case(rng: &mut SplitMix64) -> Case {
    let io_nodes = rng.range_usize(1, 4);
    let topo = Topology {
        compute_nodes: io_nodes * rng.range_usize(1, 3),
        io_nodes,
        storage_nodes: rng.range_usize(1, 3),
        io_cache_blocks: rng.range_usize(4, 24),
        storage_cache_blocks: rng.range_usize(8, 48),
        block_elems: 16,
        cache_ways: [1, 2, 4, 8, usize::MAX][rng.range_usize(0, 4)],
    };
    // Every file outgrows both cache layers, so both layers evict.
    let files = [0; 3].map(|_| rng.range_usize(160, 320) as u64);
    let traces = (0..topo.compute_nodes)
        .map(|node| {
            let mut t = ThreadTrace::new(node, node);
            let mut cursor = rng.below(64);
            for _ in 0..rng.range_usize(150, 400) {
                let file = rng.below(3) as u32;
                // Sequential scans mixed with reuse of a hot prefix.
                let index = if rng.bool() {
                    cursor += 1;
                    cursor % files[file as usize]
                } else {
                    rng.below(24)
                };
                t.push_run(BlockAddr::new(file, index), rng.range_usize(1, 4) as u32);
            }
            t
        })
        .collect();
    Case {
        topo,
        traces,
        files,
    }
}

/// KARMA hints that place file 0 at the I/O layer, file 1 at the storage
/// layer and file 2 nowhere. The hinted footprints understate the real
/// ones, so the two cached files still evict.
fn karma_hints(topo: &Topology) -> KarmaHints {
    KarmaHints::from_triples(&[
        (0, topo.io_cache_blocks as u64, 1_000_000),
        (1, topo.total_storage_cache() as u64, 1_000),
        (2, u64::MAX / 2, 1),
    ])
}

fn simulated(case: &Case, walk: Walk) -> flo_sim::SimReport {
    let policy = match walk {
        Walk::Lru => PolicyKind::LruInclusive,
        Walk::Demote => PolicyKind::DemoteLru,
        Walk::Karma(_) => PolicyKind::Karma,
    };
    let mut sys = StorageSystem::new(case.topo.clone(), policy).unwrap();
    if let Walk::Karma(h) = walk {
        sys.set_karma_hints(h);
    }
    simulate(&mut sys, &case.traces, &RunConfig::default())
}

fn assert_agrees(tag: &str, naive: &Outcome, sim: &flo_sim::SimReport) {
    assert_eq!(naive.io, sim.layers.io, "{tag}: I/O layer");
    assert_eq!(naive.storage, sim.layers.storage, "{tag}: storage layer");
    assert_eq!(naive.disk_reads, sim.disk_reads, "{tag}: disk reads");
    assert_eq!(naive.total_requests, sim.total_requests, "{tag}: requests");
    assert!(naive.io_evictions > 0, "{tag}: I/O layer must evict");
    assert!(
        naive.storage_evictions > 0,
        "{tag}: storage layer must evict"
    );
}

#[test]
fn lru_walk_matches_naive_reference() {
    let mut rng = SplitMix64::new(0x0AC1E);
    for case_no in 0..40 {
        let case = random_case(&mut rng);
        let naive = naive_run(&case.topo, &case.traces, Walk::Lru);
        assert_agrees(
            &format!("LRU case {case_no}"),
            &naive,
            &simulated(&case, Walk::Lru),
        );
    }
}

#[test]
fn karma_walk_matches_naive_reference() {
    let mut rng = SplitMix64::new(0xCA47A);
    for case_no in 0..40 {
        let case = random_case(&mut rng);
        let hints = karma_hints(&case.topo);
        let naive = naive_run(&case.topo, &case.traces, Walk::Karma(&hints));
        assert_agrees(
            &format!("KARMA case {case_no}"),
            &naive,
            &simulated(&case, Walk::Karma(&hints)),
        );
    }
}

#[test]
fn demote_walk_matches_naive_reference() {
    let mut rng = SplitMix64::new(0xDE307E);
    for case_no in 0..40 {
        let case = random_case(&mut rng);
        let tag = format!("DEMOTE-LRU case {case_no}");
        let naive = naive_run(&case.topo, &case.traces, Walk::Demote);
        let sim = simulated(&case, Walk::Demote);
        assert_agrees(&tag, &naive, &sim);
        assert_eq!(naive.demotions, sim.demotions, "{tag}: demotions");
        assert!(naive.demotions > 0, "{tag}: must demote");
    }
}

/// The same reference, held against a replay on real stripe files.
#[test]
fn store_replay_matches_naive_reference() {
    let case = random_case(&mut SplitMix64::new(0x5708E));
    let naive = naive_run(&case.topo, &case.traces, Walk::Lru);
    assert_agrees("simulated", &naive, &simulated(&case, Walk::Lru));

    let dir = std::env::temp_dir().join(format!("flo-sim-oracle-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let spec = flo_store::StoreSpec {
        layout_hash: 0x0AC1E,
        block_bytes: 64,
        storage_nodes: case.topo.storage_nodes as u32,
        files: (0..3)
            .map(|f| FileBlocks {
                file: f,
                blocks: case.files[f as usize],
            })
            .collect(),
    };
    materialize(&dir, &spec, &MaterializeOptions::default()).unwrap();
    let store = Store::open(&dir).unwrap();
    let opts = ReplayOptions {
        verify_content: true,
        ..ReplayOptions::default()
    };
    let measured = replay(&store, &case.topo, &case.traces, &opts).unwrap();
    assert_eq!(naive.io, measured.io, "replay: I/O layer");
    assert_eq!(naive.storage, measured.storage, "replay: storage layer");
    assert_eq!(naive.disk_reads, measured.disk_reads, "replay: disk reads");
    assert_eq!(naive.total_requests, measured.total_requests);
    assert_eq!(measured.bytes_read, naive.disk_reads * 64);
    let _ = std::fs::remove_dir_all(&dir);
}
