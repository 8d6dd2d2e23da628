//! The serializability oracle, extended to the front half of the node:
//! blocks *produced by the mempool + conflict-aware packer* must execute
//! on `parexec` — any thread count, synchronous or pipelined commit — to
//! receipts and merkle roots bit-identical to the sequential reference,
//! and packing itself must be a deterministic function of the pool state.

use mtpu_repro::accountsdb::{AccountsDb, FlushService};
use mtpu_repro::evm::execute_block as sequential;
use mtpu_repro::evm::state::State;
use mtpu_repro::evm::tx::{BlockHeader, Transaction};
use mtpu_repro::evm::{apply_updates, commit_full, delta_updates, AsyncCommitter};
use mtpu_repro::mempool::{
    BlockPacker, BlockSink, CommittedBlock, DriverConfig, DriverReport, Mempool, NodeDriver,
    PackedBlock, PackerConfig, PoolConfig, TxSource,
};
use mtpu_repro::parexec::ParExecutor;
use mtpu_repro::primitives::B256;
use mtpu_repro::statedb::{MemStore, StateCommitter};
use mtpu_repro::workloads::{ZipfConfig, ZipfGen};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

const THREADS: [usize; 3] = [1, 4, 8];

fn stream(seed: u64) -> ZipfGen {
    ZipfGen::new(
        seed,
        ZipfConfig {
            senders: 64,
            hot_ratio: 0.3,
            ..ZipfConfig::default()
        },
    )
}

/// A Zipf stream truncated to `left` transactions.
struct Bounded {
    gen: ZipfGen,
    left: usize,
}

impl TxSource for Bounded {
    fn next_tx(&mut self) -> Option<Transaction> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        Some(self.gen.next_tx())
    }
}

fn header(height: u64) -> BlockHeader {
    BlockHeader {
        height,
        ..Default::default()
    }
}

/// Packs a short chain of blocks the way the node would — admit, pack,
/// commit sequentially, observe — and returns the packed blocks plus the
/// sequential oracle (receipts, merkle roots) and the genesis state.
fn packed_chain(
    seed: u64,
    txs: usize,
    blocks: usize,
) -> (
    State,
    Vec<PackedBlock>,
    Vec<Vec<mtpu_repro::evm::Receipt>>,
    Vec<B256>,
) {
    let mut gen = stream(seed);
    let genesis = gen.genesis_state().clone();
    let pool = Mempool::new(PoolConfig::default());
    for _ in 0..txs {
        let _ = pool.admit(gen.next_tx(), &genesis);
    }

    let packer = BlockPacker::new(PackerConfig::default());
    let mut state = genesis.clone();
    let mut packed = Vec::new();
    let mut receipts = Vec::new();
    let mut roots = Vec::new();
    for h in 1..=blocks as u64 {
        let p = packer.pack(&pool, header(h));
        assert!(
            !p.block.transactions.is_empty(),
            "pool drained after {h} blocks"
        );
        receipts.push(sequential(&mut state, &p.block));
        roots.push(state.merkle_root());
        pool.observe_committed(&state);
        packed.push(p);
    }
    (genesis, packed, receipts, roots)
}

/// Packer-produced blocks execute identically in parallel — with the
/// packer's admission-time DAG — across thread counts, with both
/// synchronous root computation and the pipelined background committer.
#[test]
fn packed_blocks_parallel_equals_sequential() {
    let (genesis, packed, oracle_receipts, oracle_roots) = packed_chain(0x21F0, 400, 3);

    for &threads in &THREADS {
        let exec = ParExecutor::new(threads);

        // Synchronous: recompute the full root after every block.
        let mut state = genesis.clone();
        for (i, p) in packed.iter().enumerate() {
            let result = exec.execute_block_with_dag(&state, &p.block, &p.graph);
            assert_eq!(
                result.receipts, oracle_receipts[i],
                "receipts diverged at block {i} threads {threads}"
            );
            state = result.state;
            assert_eq!(
                state.merkle_root(),
                oracle_roots[i],
                "root diverged at block {i} threads {threads}"
            );
        }

        // Pipelined: all commits submitted to the background thread,
        // handles joined only at the end.
        let mut committer = StateCommitter::new(MemStore::new()).with_threads(threads);
        commit_full(&mut committer, &genesis);
        committer.commit();
        let committer = AsyncCommitter::new(committer);
        let mut state = genesis.clone();
        let mut handles = Vec::new();
        for p in &packed {
            let result = exec.execute_block_with_dag(&state, &p.block, &p.graph);
            handles.push(result.submit_commit(&committer, &state, false));
            state = result.state;
        }
        let roots: Vec<B256> = handles
            .iter()
            .map(|h| h.wait().expect("in-memory commit cannot fail"))
            .collect();
        assert_eq!(
            roots, oracle_roots,
            "pipelined roots diverged at threads {threads}"
        );
    }
}

/// Packing is a pure function of the pool snapshot: identically built
/// pools pack identical blocks, transaction for transaction.
#[test]
fn packing_is_deterministic_for_a_given_pool_state() {
    let (_, a, _, _) = packed_chain(0xDE7, 300, 2);
    let (_, b, _, _) = packed_chain(0xDE7, 300, 2);
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.block.transactions, y.block.transactions);
        assert_eq!(x.independent, y.independent);
        assert_eq!(x.conflict_skips, y.conflict_skips);
    }
    // And the conflict-aware phase actually engages on a hot workload.
    assert!(a.iter().any(|p| p.independent > 0));
}

/// The end-to-end driver in deterministic (inline-ingest) mode: same
/// source, same configuration → the same per-block merkle root sequence,
/// with the final root chained from genesis.
#[test]
fn driver_is_deterministic_with_inline_ingest() {
    let run = |seed: u64| {
        let driver = NodeDriver::new(
            Mempool::new(PoolConfig::default()),
            BlockPacker::new(PackerConfig::default()),
            DriverConfig {
                blocks: 4,
                threads: 4,
                ingest_batch: 64,
                prefill: 256,
                background_ingest: false,
                ..DriverConfig::default()
            },
        );
        let source = Bounded {
            gen: stream(seed),
            left: 600,
        };
        let genesis = source.gen.genesis_state().clone();
        driver.run(genesis, source, header)
    };

    let a = run(0xFEED);
    let b = run(0xFEED);
    assert_eq!(a.blocks.len(), 4);
    assert!(a.chain.txs > 0);
    assert_ne!(a.genesis_root, a.final_root);
    assert_eq!(a.final_root, a.blocks.last().unwrap().merkle_root);
    let roots_a: Vec<B256> = a.blocks.iter().map(|s| s.merkle_root).collect();
    let roots_b: Vec<B256> = b.blocks.iter().map(|s| s.merkle_root).collect();
    assert_eq!(roots_a, roots_b, "driver runs diverged");
}

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("mtpu-node-pipeline-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The flat accounts-DB read path replaces the in-memory `State` as the
/// execution base: receipts and merkle roots must be bit-identical to
/// the sequential oracle at every thread count, with flushes racing
/// execution so reads cross the cache/index/file boundary mid-chain.
#[test]
fn flat_backend_receipts_and_roots_match_across_thread_counts() {
    let (genesis, packed, oracle_receipts, oracle_roots) = packed_chain(0x21F0, 400, 3);

    for &threads in &THREADS {
        let exec = ParExecutor::new(threads);
        let dir = scratch_dir(&format!("flat-{threads}"));
        let db = AccountsDb::open(&dir).expect("open accounts db");
        db.bootstrap_from_state(&genesis, 0);

        // The trie stays commitment-only: updates derive from the delta
        // against the flat base, never from a materialized `State`.
        let mut committer = StateCommitter::new(MemStore::new()).with_threads(threads);
        commit_full(&mut committer, &genesis);
        assert_eq!(committer.commit(), genesis.merkle_root());

        for (i, p) in packed.iter().enumerate() {
            let height = i as u64 + 1;
            let result = exec.execute_block_delta_with_dag_hints(&db, &p.block, &p.graph, &[]);
            assert_eq!(
                result.receipts, oracle_receipts[i],
                "flat receipts diverged at block {i} threads {threads}"
            );
            let updates = delta_updates(&db, &result.delta);
            apply_updates(&mut committer, &updates);
            assert_eq!(
                committer.commit(),
                oracle_roots[i],
                "flat root diverged at block {i} threads {threads}"
            );
            db.absorb(&result.delta, height);
            // Flush behind the head so later blocks read flushed files
            // through the index, not just the write cache.
            db.flush_up_to(height.saturating_sub(1)).expect("flush");
        }

        let stats = db.stats();
        assert!(stats.flushes > 0, "flushes never ran at threads {threads}");
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// End-to-end driver parity: the same deterministic (inline-ingest)
/// session on the `State` backend and on the flat accounts-DB backend
/// packs and commits the identical chain, and a snapshot → restore of
/// the flat store reopens at the same head root.
#[test]
fn flat_driver_matches_state_driver_and_survives_snapshot_restore() {
    let make_driver = || {
        NodeDriver::new(
            Mempool::new(PoolConfig::default()),
            BlockPacker::new(PackerConfig::default()),
            DriverConfig {
                blocks: 4,
                threads: 4,
                ingest_batch: 64,
                prefill: 256,
                background_ingest: false,
                ..DriverConfig::default()
            },
        )
    };
    let make_source = || Bounded {
        gen: stream(0xF1A7),
        left: 600,
    };
    let genesis = make_source().gen.genesis_state().clone();

    let baseline = make_driver().run(genesis.clone(), make_source(), header);

    let dir = scratch_dir("driver");
    let db = Arc::new(AccountsDb::open(&dir).expect("open accounts db"));
    db.bootstrap_from_state(&genesis, 0);
    let flush = FlushService::start(db.clone());
    let flat = make_driver().run_flat(&genesis, &db, &flush, make_source(), header);

    assert_eq!(baseline.blocks.len(), flat.blocks.len());
    for (a, b) in baseline.blocks.iter().zip(&flat.blocks) {
        assert_eq!(a.txs, b.txs, "packed size diverged at block {}", a.height);
        assert_eq!(
            a.merkle_root, b.merkle_root,
            "flat driver diverged at block {}",
            a.height
        );
    }
    assert_eq!(baseline.final_root, flat.final_root);
    let stats = flat.flat.as_ref().expect("flat stats populated");
    assert!(stats.cache_hits > 0, "execution never hit the write cache");

    // Snapshot, drop everything, reopen: the restored store carries the
    // chain head and the root it was snapshotted at.
    flush.quiesce();
    db.snapshot(Some(flat.final_root)).expect("snapshot");
    let head = db.head_height();
    drop(flush);
    drop(db);
    let restored = AccountsDb::open(&dir).expect("restore accounts db");
    assert_eq!(restored.snapshot_root(), Some(flat.final_root));
    assert_eq!(restored.head_height(), head);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Everything a session published: blocks with their receipts, and the
/// roots that resolved for them, by height.
#[derive(Default)]
struct Recorder {
    blocks: Mutex<Vec<CommittedBlock>>,
    roots: Mutex<BTreeMap<u64, B256>>,
}

impl BlockSink for Recorder {
    fn on_block(&self, cb: CommittedBlock) {
        assert!(cb.state.is_none(), "the driver publishes deltas only");
        self.blocks.lock().unwrap().push(cb);
    }

    fn on_root(&self, height: u64, root: B256) {
        self.roots.lock().unwrap().insert(height, root);
    }
}

/// Replays what `sink` recorded on the sequential oracle: every block's
/// receipts and every height's merkle root must match.
fn replay(genesis: &State, sink: &Recorder, report: &DriverReport, tag: &str) {
    let blocks = sink.blocks.lock().unwrap();
    let roots = sink.roots.lock().unwrap();
    assert_eq!(blocks.len(), report.blocks.len(), "{tag}: published blocks");
    assert_eq!(roots.len(), blocks.len(), "{tag}: resolved roots");
    let mut state = genesis.clone();
    for (cb, summary) in blocks.iter().zip(&report.blocks) {
        let height = cb.height;
        assert_eq!(height, summary.height, "{tag}: publication order");
        assert_eq!(
            &sequential(&mut state, &cb.block),
            cb.receipts.as_ref(),
            "{tag}: receipts diverged at {height}"
        );
        let root = state.merkle_root();
        assert_eq!(roots[&height], root, "{tag}: root diverged at {height}");
        assert_eq!(summary.merkle_root, root, "{tag}: report root at {height}");
    }
    assert_eq!(report.final_root, state.merkle_root(), "{tag}: final root");
}

/// Background ingestion races admission against the in-place absorb of
/// each block's delta. Small blocks force many absorbs while the ingest
/// thread is admitting; whatever the race packs, the published blocks
/// must replay on the sequential oracle to the same receipts and roots,
/// on both backends.
#[test]
fn background_ingest_sessions_replay_on_the_sequential_oracle() {
    let make_driver = || {
        NodeDriver::new(
            Mempool::new(PoolConfig::default()),
            BlockPacker::new(PackerConfig {
                max_txs: 24,
                ..PackerConfig::default()
            }),
            DriverConfig {
                blocks: 24,
                threads: 4,
                ingest_batch: 16,
                prefill: 32,
                background_ingest: true,
                ..DriverConfig::default()
            },
        )
    };
    let make_source = || Bounded {
        gen: stream(0xB6),
        left: 480,
    };
    let genesis = make_source().gen.genesis_state().clone();

    let sink = Arc::new(Recorder::default());
    let report = make_driver()
        .with_sink(sink.clone())
        .run(genesis.clone(), make_source(), header);
    assert!(report.blocks.len() > 1, "the session produced no chain");
    replay(&genesis, &sink, &report, "run");

    let dir = scratch_dir("background");
    let db = Arc::new(AccountsDb::open(&dir).expect("open accounts db"));
    db.bootstrap_from_state(&genesis, 0);
    let flush = FlushService::start(db.clone());
    let sink = Arc::new(Recorder::default());
    let report = make_driver().with_sink(sink.clone()).run_flat(
        &genesis,
        &db,
        &flush,
        make_source(),
        header,
    );
    drop(flush);
    drop(db);
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        report.blocks.len() > 1,
        "the flat session produced no chain"
    );
    replay(&genesis, &sink, &report, "run_flat");
}
