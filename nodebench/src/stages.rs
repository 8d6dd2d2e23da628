//! The traced stage loop: the node loop of `NodeDriver::run` /
//! `NodeDriver::run_flat` with inline ingestion, calling the same public
//! functions in the same order, with a span and a timer around each call.
//! `main` checks that it commits the same root sequence as `NodeDriver`.

use crate::harness::{Recorder, Source};
use crate::workload::{header, FlatStore, Workload};
use mtpu::sched::SlotKey;
use mtpu_evm::commit::{commit_full, delta_updates, MemStore, StateCommitter};
use mtpu_evm::overlay::StateRead;
use mtpu_evm::state::State;
use mtpu_evm::{AsyncCommitter, CommitHandle};
use mtpu_mempool::{BlockSink, CommittedBlock, Mempool, PackedBlock, PoolStats, TxSource};
use mtpu_parexec::{BlockStats, TxHints};
use mtpu_primitives::B256;
use mtpu_telemetry as tel;
use std::sync::Arc;
use std::time::Instant;

/// Nanoseconds one block spent in each stage.
#[derive(Debug, Default, Clone)]
pub struct BlockTimes {
    /// Transactions in the block.
    pub txs: u64,
    /// Pack start to the return of `on_block`.
    pub wall: u64,
    /// `BlockPacker::pack`.
    pub pack: u64,
    /// Prefetch hints from the packed read sets.
    pub hints: u64,
    /// The `ParExecutor` call.
    pub execute: u64,
    /// Parallel execution alone (`BlockStats::wall`).
    pub exec_wall: u64,
    /// Commit hand-off: update extraction plus queueing.
    pub submit: u64,
    /// `CommitHandle::wait` for the previous block's root.
    pub root_wait: u64,
    /// Absorbing the delta into the backend: `AccountsDb::absorb`, or on
    /// the in-memory backend the post-block `State` materialization inside
    /// `execute_block_with_dag`.
    pub absorb: u64,
    /// `Mempool::observe_committed`.
    pub observe: u64,
    /// `FlushService::request_flush`.
    pub flush: u64,
    /// The sink's `on_block` (read-layer publication).
    pub publish: u64,
}

impl BlockTimes {
    /// Block wall time not covered by a stage. On the in-memory backend
    /// the absorb happens inside the execution call.
    pub fn unaccounted(&self, flat: bool) -> u64 {
        let staged = self.pack
            + self.hints
            + self.execute
            + self.submit
            + self.root_wait
            + self.observe
            + self.flush
            + self.publish
            + if flat { self.absorb } else { 0 };
        self.wall.saturating_sub(staged)
    }
}

/// What the traced loop measured.
#[derive(Debug, Default)]
pub struct StageReport {
    /// Genesis merkle root.
    pub genesis_root: B256,
    /// Per-block roots in height order.
    pub roots: Vec<B256>,
    /// Per-block stage times.
    pub blocks: Vec<BlockTimes>,
    /// Per-block execution statistics.
    pub exec: Vec<BlockStats>,
    /// Independent-front transactions summed over blocks.
    pub independent: u64,
    /// Phase-1 conflict skips summed over blocks.
    pub conflict_skips: u64,
    /// Pool lifetime counters.
    pub pool: PoolStats,
    /// Time spent in `Mempool::admit`, in ns.
    pub admit_ns: u64,
    /// `Mempool::admit` calls.
    pub admits: u64,
    /// Largest flush lag seen after a block, in blocks.
    pub flush_lag_max: u64,
    /// `evm.prefetch.issued` during execution calls.
    pub prefetch_issued: u64,
    /// `evm.prefetch.hits` during execution calls.
    pub prefetch_hits: u64,
    /// `evm.analysis.hit` during execution calls.
    pub analysis_hits: u64,
    /// `evm.analysis.miss` during execution calls.
    pub analysis_misses: u64,
    /// Trie node-cache hits of the session's commits.
    pub statedb_cache_hits: u64,
    /// Trie node-cache misses of the session's commits.
    pub statedb_cache_misses: u64,
}

/// Prefetch hints from a packed block's admission-time read sets, as
/// `NodeDriver::run_flat` builds them.
fn hints_of(packed: &PackedBlock) -> Vec<TxHints> {
    packed
        .rw_sets
        .iter()
        .map(|rw| {
            let mut h = TxHints::default();
            for key in &rw.reads {
                match *key {
                    SlotKey::Storage(addr, slot) => h.storage.push((addr, slot)),
                    SlotKey::Balance(addr) => h.accounts.push(addr),
                }
            }
            h
        })
        .collect()
}

fn ns(since: Instant) -> u64 {
    since.elapsed().as_nanos() as u64
}

/// Inline ingestion of one slice; `false` once the source ran dry.
fn ingest<S: StateRead>(
    pool: &Mempool,
    src: &mut Source,
    n: usize,
    state: &S,
    rep: &mut StageReport,
) -> bool {
    let _span = tel::span("node.ingest", "mempool");
    for _ in 0..n {
        let Some(tx) = src.next_tx() else {
            return false;
        };
        let t = Instant::now();
        let _ = pool.admit(tx, state);
        rep.admit_ns += ns(t);
        rep.admits += 1;
    }
    true
}

/// Execution-window counters of the interpreter.
fn evm_counts() -> [u64; 4] {
    let m = mtpu_evm::obs::metrics();
    [
        m.prefetch_issued.get(),
        m.prefetch_hits.get(),
        m.analysis_hits.get(),
        m.analysis_misses.get(),
    ]
}

fn add_evm(rep: &mut StageReport, before: [u64; 4]) {
    let after = evm_counts();
    rep.prefetch_issued += after[0] - before[0];
    rep.prefetch_hits += after[1] - before[1];
    rep.analysis_hits += after[2] - before[2];
    rep.analysis_misses += after[3] - before[3];
}

fn resolve(
    pending: &mut Option<CommitHandle>,
    height: u64,
    sink: &Recorder,
    rep: &mut StageReport,
    times: Option<&mut BlockTimes>,
) {
    if let Some(h) = pending.take() {
        let t = Instant::now();
        let root = {
            let _span = tel::span("statedb.root_wait", "statedb");
            h.wait().expect("in-memory commit cannot fail")
        };
        if let Some(times) = times {
            times.root_wait = ns(t);
        }
        rep.roots.push(root);
        sink.on_root(height, root);
    }
}

/// Runs the traced loop until the source runs dry and the pool drains.
/// `store` selects the flat backend; `genesis` must match it.
pub fn run(
    w: Workload,
    threads: usize,
    genesis: &State,
    store: Option<&FlatStore>,
    mut source: Source,
    sink: &Recorder,
) -> StageReport {
    let (pool, packer, cfg) = w.node_parts(threads, false);
    let executor = mtpu_parexec::ParExecutor::new(cfg.threads);
    let batch = cfg.ingest_batch.max(1);
    let mut rep = StageReport::default();

    let prefetch = mtpu_evm::prefetch_enabled();
    if let (Some(st), true) = (store, prefetch) {
        st.db.enable_prefetch();
    }
    let mut committer = StateCommitter::new(MemStore::new()).with_threads(cfg.commit_threads);
    commit_full(&mut committer, genesis);
    rep.genesis_root = committer.commit();
    let committer = AsyncCommitter::new(committer);
    // The in-memory backend's committed state; the flat backend reads the
    // store instead.
    let mut snapshot = Arc::new(if store.is_none() {
        genesis.clone()
    } else {
        State::new()
    });
    let statedb_before = statedb_cache();

    let mut exhausted = false;
    // Prefill is 0: the first pack finds an empty pool and ingests.
    let mut pending: Option<CommitHandle> = None;
    loop {
        let height = rep.blocks.len() as u64 + 1;
        let started = Instant::now();
        let packed = {
            let _span = tel::span("packer.pack", "mempool");
            packer.pack(&pool, header(height))
        };
        let mut t = BlockTimes {
            pack: ns(started),
            txs: packed.block.transactions.len() as u64,
            ..BlockTimes::default()
        };
        if packed.block.transactions.is_empty() {
            let more = match store {
                Some(st) => ingest(&pool, &mut source, batch, st.db.as_ref(), &mut rep),
                None => ingest(&pool, &mut source, batch, snapshot.as_ref(), &mut rep),
            };
            exhausted |= !more;
            if exhausted && pool.ready_chains().is_empty() {
                break;
            }
            continue;
        }
        rep.independent += packed.independent as u64;
        rep.conflict_skips += packed.conflict_skips as u64;

        let (receipts, delta, state, stats) = match store {
            Some(st) => {
                let db = &st.db;
                let s = Instant::now();
                let hints = {
                    let _span = tel::span("parexec.hints", "parexec");
                    if prefetch {
                        hints_of(&packed)
                    } else {
                        Vec::new()
                    }
                };
                t.hints = ns(s);
                let s = Instant::now();
                let before = evm_counts();
                let result = {
                    let _span = tel::span("parexec.execute", "parexec");
                    executor.execute_block_delta_with_dag_hints(
                        db.as_ref(),
                        &packed.block,
                        &packed.graph,
                        &hints,
                    )
                };
                add_evm(&mut rep, before);
                t.execute = ns(s);
                let s = Instant::now();
                let handle = {
                    let _span = tel::span("statedb.submit", "statedb");
                    let updates = delta_updates(db.as_ref(), &result.delta);
                    committer.submit_updates(updates, false)
                };
                t.submit = ns(s);
                resolve(&mut pending, height - 1, sink, &mut rep, Some(&mut t));
                pending = Some(handle);

                let s = Instant::now();
                {
                    let _span = tel::span("accountsdb.absorb", "accountsdb");
                    db.absorb(&result.delta, height);
                }
                t.absorb = ns(s);
                let s = Instant::now();
                {
                    let _span = tel::span("mempool.observe", "mempool");
                    pool.observe_committed(db.as_ref());
                }
                t.observe = ns(s);
                let s = Instant::now();
                {
                    let _span = tel::span("accountsdb.request_flush", "accountsdb");
                    st.flush.request_flush(height.saturating_sub(cfg.flush_lag));
                }
                t.flush = ns(s);
                rep.flush_lag_max = rep
                    .flush_lag_max
                    .max(db.head_height().saturating_sub(db.flushed_height()));
                (result.receipts, result.delta, None, result.stats)
            }
            None => {
                let base = snapshot.clone();
                let s = Instant::now();
                let before = evm_counts();
                let result = {
                    let _span = tel::span("parexec.execute", "parexec");
                    executor.execute_block_with_dag(&base, &packed.block, &packed.graph)
                };
                add_evm(&mut rep, before);
                t.execute = ns(s);
                t.absorb = t
                    .execute
                    .saturating_sub(result.stats.wall.as_nanos() as u64);
                let s = Instant::now();
                let handle = {
                    let _span = tel::span("statedb.submit", "statedb");
                    result.submit_commit(&committer, &base, false)
                };
                t.submit = ns(s);
                resolve(&mut pending, height - 1, sink, &mut rep, Some(&mut t));
                pending = Some(handle);

                let new_state = Arc::new(result.state);
                snapshot = new_state.clone();
                let s = Instant::now();
                {
                    let _span = tel::span("mempool.observe", "mempool");
                    pool.observe_committed(new_state.as_ref());
                }
                t.observe = ns(s);
                (result.receipts, result.delta, Some(new_state), result.stats)
            }
        };
        t.exec_wall = stats.wall.as_nanos() as u64;
        rep.exec.push(stats);

        let s = Instant::now();
        {
            let _span = tel::span("readserve.on_block", "readserve");
            sink.on_block(CommittedBlock {
                height,
                block: Arc::new(packed.block),
                receipts: Arc::new(receipts),
                state,
                delta: Arc::new(delta),
            });
        }
        t.publish = ns(s);
        t.wall = ns(started);
        rep.blocks.push(t);

        let more = match store {
            Some(st) => ingest(&pool, &mut source, batch, st.db.as_ref(), &mut rep),
            None => ingest(&pool, &mut source, batch, snapshot.as_ref(), &mut rep),
        };
        exhausted |= !more;
    }
    let last = rep.blocks.len() as u64;
    resolve(&mut pending, last, sink, &mut rep, None);
    rep.pool = pool.stats();
    let after = statedb_cache();
    rep.statedb_cache_hits = after.0 - statedb_before.0;
    rep.statedb_cache_misses = after.1 - statedb_before.1;
    rep
}

/// The trie node cache's `(hits, misses)` counters.
fn statedb_cache() -> (u64, u64) {
    let m = mtpu_statedb::obs::metrics();
    (m.cache_hit.get(), m.cache_miss.get())
}
