//! The sustained node pipeline: ingestion → packing → parallel
//! execution → pipelined commitment, all overlapped.
//!
//! One session drives a multi-block run the way a validating node's
//! front half would: an ingestion worker admits transactions into the
//! shared [`Mempool`] against the committed state while the main loop
//! packs a block, executes it on the `parexec` worker pool, hands the
//! state commitment to the background [`AsyncCommitter`] thread, absorbs
//! the block's delta into the committed state, and only joins each
//! block's root one block behind — so at steady state the pool is being
//! refilled, block *h* is executing, and block *h−1* is still hashing,
//! simultaneously.
//!
//! The loop is written once over a small state backend: the in-memory
//! [`State`] behind a lock ([`NodeDriver::run`]) or the flat
//! [`AccountsDb`] ([`NodeDriver::run_flat`]). Both absorb each delta in
//! place; neither clones state per block.

use crate::packer::{BlockPacker, PackedBlock};
use crate::pool::{Mempool, PoolStats};
use mtpu::sched::SlotKey;
use mtpu_accountsdb::{AccountsDb, DbStats, FlushService};
use mtpu_evm::commit::{MemStore, StateCommitter};
use mtpu_evm::state::State;
use mtpu_evm::tx::{Block, BlockHeader, Receipt, Transaction};
use mtpu_evm::{commit_full, AsyncCommitter, BlockDelta, CommitHandle, StateRead};
use mtpu_parexec::{ChainStats, ParExecutor, TxHints};
use mtpu_primitives::B256;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

/// A stream of transactions entering the node. `None` ends the stream
/// (the driver drains the pool and stops).
pub trait TxSource: Send {
    /// The next transaction, or `None` when the source is exhausted.
    fn next_tx(&mut self) -> Option<Transaction>;
}

impl<F: FnMut() -> Option<Transaction> + Send> TxSource for F {
    fn next_tx(&mut self) -> Option<Transaction> {
        self()
    }
}

/// One committed block, as published to a [`BlockSink`] at absorb time —
/// everything the serving half of the node needs to assemble an immutable
/// snapshot at this height.
#[derive(Debug, Clone)]
pub struct CommittedBlock {
    /// Block height (1-based; genesis is height 0).
    pub height: u64,
    /// The executed block (header + ordered transactions).
    pub block: Arc<Block>,
    /// Receipts in block order, bit-identical to sequential execution.
    pub receipts: Arc<Vec<Receipt>>,
    /// A materialized post-block state. The driver leaves it `None` on
    /// both backends (it never materializes one), and `ReadServer`
    /// ignores it: the delta is the whole publication.
    pub state: Option<Arc<State>>,
    /// The block's frozen write set over the pre-block state.
    pub delta: Arc<BlockDelta>,
}

/// Commit-path publication hook: a [`NodeDriver`] with a sink attached
/// calls [`BlockSink::on_block`] the moment each block's state is
/// absorbed (before its merkle root is known — roots resolve one block
/// behind on the pipelined committer) and [`BlockSink::on_root`] when the
/// root arrives. Both are called from the driver's execution thread, so
/// implementations must be fast and non-blocking.
pub trait BlockSink: Send + Sync {
    /// A block was executed and its state absorbed.
    fn on_block(&self, block: CommittedBlock);
    /// The pipelined commitment resolved `height`'s merkle root.
    fn on_root(&self, height: u64, root: B256);
}

/// Knobs of one driver session.
#[derive(Debug, Clone)]
pub struct DriverConfig {
    /// Blocks to produce before stopping (the session may end earlier if
    /// the source runs dry and the pool empties).
    pub blocks: usize,
    /// `parexec` worker threads.
    pub threads: usize,
    /// Worker threads the state committer fans subtrie hashing across.
    pub commit_threads: usize,
    /// Transactions admitted per ingestion slice.
    pub ingest_batch: usize,
    /// Transactions to admit before the first block is packed (keeps the
    /// pool warm from block one).
    pub prefill: usize,
    /// `true` runs ingestion on its own thread, overlapped with
    /// execution and commitment; `false` ingests inline between blocks —
    /// slower, but fully deterministic for a deterministic source.
    pub background_ingest: bool,
    /// How many blocks the flat store's background write-cache flush
    /// trails the head; each absorb requests a flush up to
    /// `height - flush_lag`. Larger values batch more writes per storage
    /// file. Only [`NodeDriver::run_flat`] sessions have a flush; the
    /// in-memory backend ignores it.
    pub flush_lag: u64,
}

impl Default for DriverConfig {
    fn default() -> Self {
        DriverConfig {
            blocks: 16,
            threads: 4,
            commit_threads: 4,
            ingest_batch: 256,
            prefill: 512,
            background_ingest: true,
            flush_lag: 2,
        }
    }
}

/// What one block of the session did.
#[derive(Debug, Clone)]
pub struct BlockSummary {
    /// Block height (1-based).
    pub height: u64,
    /// Transactions packed.
    pub txs: usize,
    /// Transactions in the conflict-free front.
    pub independent: usize,
    /// Phase-1 candidates skipped for conflicting with the packed set.
    pub conflict_skips: usize,
    /// Realized dependent-transaction ratio of the packed DAG.
    pub dependent_ratio: f64,
    /// Merkle root after the block (resolved from the pipelined commit).
    pub merkle_root: B256,
}

/// Outcome of a driver session.
#[derive(Debug)]
pub struct DriverReport {
    /// Per-block summaries, in height order.
    pub blocks: Vec<BlockSummary>,
    /// Aggregated execution statistics.
    pub chain: ChainStats,
    /// Pool lifetime counters at session end.
    pub pool: PoolStats,
    /// Merkle root of the genesis state.
    pub genesis_root: B256,
    /// Merkle root after the last block.
    pub final_root: B256,
    /// Wall-clock time of the whole session (ingestion through last
    /// commit resolution).
    pub wall: Duration,
    /// `true` when the source ran dry before `blocks` were produced.
    pub source_exhausted: bool,
    /// Flat-store statistics at session end ([`NodeDriver::run_flat`]
    /// sessions only).
    pub flat: Option<DbStats>,
}

impl DriverReport {
    /// Committed transactions per wall-clock second, over the whole
    /// overlapped session.
    pub fn tx_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs == 0.0 {
            return 0.0;
        }
        self.chain.txs as f64 / secs
    }

    /// Mean conflict-free-front fraction across blocks.
    pub fn independent_ratio(&self) -> f64 {
        let txs: usize = self.blocks.iter().map(|b| b.txs).sum();
        if txs == 0 {
            return 0.0;
        }
        let ind: usize = self.blocks.iter().map(|b| b.independent).sum();
        ind as f64 / txs as f64
    }
}

/// The front half of the node: pool + packer + executor + committer.
pub struct NodeDriver {
    pool: Mempool,
    packer: BlockPacker,
    executor: ParExecutor,
    cfg: DriverConfig,
    sink: Option<Arc<dyn BlockSink>>,
}

impl std::fmt::Debug for NodeDriver {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("NodeDriver")
            .field("pool", &self.pool)
            .field("packer", &self.packer)
            .field("cfg", &self.cfg)
            .field("sink", &self.sink.as_ref().map(|_| "attached"))
            .finish_non_exhaustive()
    }
}

impl NodeDriver {
    /// A driver over the given pool and packer.
    pub fn new(pool: Mempool, packer: BlockPacker, cfg: DriverConfig) -> Self {
        let executor = ParExecutor::new(cfg.threads);
        NodeDriver {
            pool,
            packer,
            executor,
            cfg,
            sink: None,
        }
    }

    /// Attaches a commit-path publication sink (e.g. an MVCC read layer);
    /// every committed block of subsequent sessions is published to it.
    pub fn with_sink(mut self, sink: Arc<dyn BlockSink>) -> Self {
        self.sink = Some(sink);
        self
    }

    /// Shared access to the pool (e.g. to pre-seed it).
    pub fn pool(&self) -> &Mempool {
        &self.pool
    }

    /// Runs a session from `genesis`, consuming `source`. The in-memory
    /// state is the backend: each block's delta is applied to it in place.
    pub fn run<S: TxSource>(
        &self,
        genesis: State,
        source: S,
        header_of: impl Fn(u64) -> BlockHeader,
    ) -> DriverReport {
        let started = Instant::now();
        let committer = self.genesis_committer(&genesis);
        self.session(started, committer, &RwLock::new(genesis), source, header_of)
    }

    /// Runs a session against the flat accounts store: execution reads
    /// hit `db` (write cache → index → storage files), the MPT is
    /// maintained commitment-only behind the pipelined [`AsyncCommitter`],
    /// and the write cache drains through `flush` in the background,
    /// [`DriverConfig::flush_lag`] blocks behind the head.
    ///
    /// `genesis` seeds the commitment trie; `db` must already hold the
    /// same state (freshly bootstrapped via
    /// [`AccountsDb::bootstrap_from_state`] or restored from a snapshot
    /// of it). Per-block merkle roots are bit-identical to
    /// [`NodeDriver::run`] over the same stream.
    pub fn run_flat<S: TxSource>(
        &self,
        genesis: &State,
        db: &Arc<AccountsDb>,
        flush: &FlushService,
        source: S,
        header_of: impl Fn(u64) -> BlockHeader,
    ) -> DriverReport {
        let started = Instant::now();
        let prefetch = mtpu_evm::prefetch_enabled();
        if prefetch {
            db.enable_prefetch();
        }
        let backend = Flat {
            db,
            flush,
            flush_lag: self.cfg.flush_lag,
            prefetch,
        };
        let committer = self.genesis_committer(genesis);
        let mut report = self.session(started, committer, &backend, source, header_of);
        report.flat = Some(db.stats());
        report
    }

    /// The commitment trie over `genesis`, not yet committed.
    fn genesis_committer(&self, genesis: &State) -> StateCommitter<MemStore> {
        let mut committer =
            StateCommitter::new(MemStore::new()).with_threads(self.cfg.commit_threads);
        commit_full(&mut committer, genesis);
        committer
    }

    /// The node loop over either backend: pack, execute against the
    /// committed state, queue the commitment, absorb, publish.
    fn session<B: Backend, S: TxSource>(
        &self,
        started: Instant,
        mut committer: StateCommitter<MemStore>,
        backend: &B,
        source: S,
        header_of: impl Fn(u64) -> BlockHeader,
    ) -> DriverReport {
        let genesis_root = committer.commit();
        let committer = AsyncCommitter::new(committer);
        let stop = AtomicBool::new(false);
        let exhausted = AtomicBool::new(false);
        let batch = self.cfg.ingest_batch.max(1);

        let mut report = DriverReport {
            blocks: Vec::with_capacity(self.cfg.blocks),
            chain: ChainStats::default(),
            pool: PoolStats::default(),
            genesis_root,
            final_root: genesis_root,
            wall: Duration::ZERO,
            source_exhausted: false,
            flat: None,
        };

        std::thread::scope(|scope| {
            let mut inline_source = None;
            if self.cfg.background_ingest {
                let (pool, stop, exhausted) = (&self.pool, &stop, &exhausted);
                let high_water = self.pool_high_water();
                let mut source = source;
                scope.spawn(move || {
                    if mtpu_telemetry::enabled() {
                        mtpu_telemetry::name_thread("ingest");
                    }
                    while !stop.load(Ordering::Relaxed) {
                        if pool.len() >= high_water {
                            // Backpressure: the packer is behind; admitting
                            // more now would just evict what we admitted.
                            std::thread::sleep(Duration::from_micros(200));
                            continue;
                        }
                        if !ingest_slice(pool, backend, &mut source, batch) {
                            exhausted.store(true, Ordering::Relaxed);
                            return;
                        }
                    }
                });
            } else {
                inline_source = Some(source);
            }
            // Inline mode admits between blocks; background mode refills
            // concurrently the whole time, so this is a no-op there.
            let mut refill = |n: usize| {
                if let Some(src) = inline_source.as_mut() {
                    if !ingest_slice(&self.pool, backend, src, n) {
                        exhausted.store(true, Ordering::Relaxed);
                    }
                }
            };

            // Prefill so block 1 packs from a warm pool.
            refill(self.cfg.prefill);
            let deadline = Instant::now() + Duration::from_secs(5);
            while self.cfg.background_ingest
                && self.pool.len() < self.cfg.prefill
                && !exhausted.load(Ordering::Relaxed)
                && Instant::now() < deadline
            {
                std::thread::yield_now();
            }

            let mut pending: Option<(usize, CommitHandle)> = None;
            while report.blocks.len() < self.cfg.blocks {
                let height = report.blocks.len() as u64 + 1;
                let packed = self.packer.pack(&self.pool, header_of(height));
                if packed.block.transactions.is_empty() {
                    refill(batch);
                    if exhausted.load(Ordering::Relaxed) && self.pool.ready_chains().is_empty() {
                        break; // drained: parked leftovers can never run
                    }
                    std::thread::yield_now();
                    continue;
                }

                // The backend stays at block h-1 until absorb, so the
                // delta's base reads and the trie updates both see exactly
                // the pre-block state. Pipeline the commitment; resolve the
                // *previous* block's root now that its hashing had a whole
                // block to overlap.
                let hints = backend.hints(&packed);
                let (result, handle) = backend.view(|base| {
                    let result = self.executor.execute_block_delta_with_dag_hints(
                        base,
                        &packed.block,
                        &packed.graph,
                        &hints,
                    );
                    let handle = committer.submit(base, &result.delta, false);
                    (result, handle)
                });
                self.resolve_pending(&mut report, &mut pending);
                pending = Some((report.blocks.len(), handle));

                backend.absorb(&result.delta, height);
                backend.view(|state| self.pool.observe_committed(state));

                report.chain.absorb(&result.stats);
                report.blocks.push(summary_of(height, &packed));

                // Publish the committed block to the read layer the moment
                // its state is live; the root follows via `on_root` once
                // the pipelined commit resolves.
                if let Some(sink) = &self.sink {
                    sink.on_block(CommittedBlock {
                        height,
                        block: Arc::new(packed.block),
                        receipts: Arc::new(result.receipts),
                        state: None,
                        delta: Arc::new(result.delta),
                    });
                }
                refill(batch);
            }
            self.resolve_pending(&mut report, &mut pending);
            stop.store(true, Ordering::Relaxed);
        });

        report.pool = self.pool.stats();
        report.source_exhausted = exhausted.load(Ordering::Relaxed);
        if let Some(last) = report.blocks.last() {
            report.final_root = last.merkle_root;
        }
        report.wall = started.elapsed();
        report
    }

    /// Joins the previous block's pipelined commit, records its root and
    /// notifies the sink (if any) that the root is final.
    fn resolve_pending(
        &self,
        report: &mut DriverReport,
        pending: &mut Option<(usize, CommitHandle)>,
    ) {
        if let Some((idx, h)) = pending.take() {
            let root = h.wait().expect("in-memory commit cannot fail");
            report.blocks[idx].merkle_root = root;
            if let Some(sink) = &self.sink {
                sink.on_root(report.blocks[idx].height, root);
            }
        }
    }

    /// Ingestion backpressure threshold: leave one batch of headroom
    /// under the pool's count budget, so a full pool pauses ingestion
    /// instead of grinding through pointless fee evictions.
    fn pool_high_water(&self) -> usize {
        self.pool
            .config()
            .max_txs
            .saturating_sub(self.cfg.ingest_batch)
            .max(1)
    }
}

/// Converts a packed block's admission-time read sets into per-transaction
/// prefetch hints for the execution stage. Only reads matter — a write's
/// prior value is loaded on demand by the SSTORE refund logic through the
/// same path, and most written slots are read first anyway (and thus in
/// the read set).
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

fn summary_of(height: u64, packed: &PackedBlock) -> BlockSummary {
    BlockSummary {
        height,
        txs: packed.block.transactions.len(),
        independent: packed.independent,
        conflict_skips: packed.conflict_skips,
        dependent_ratio: packed.graph.dependent_ratio(),
        merkle_root: B256::ZERO,
    }
}

/// The committed state a session executes against and absorbs into.
trait Backend: Sync {
    /// What execution, commitment and admission read.
    type Base: StateRead + Sync;
    /// Runs `f` against the committed state.
    fn view<R>(&self, f: impl FnOnce(&Self::Base) -> R) -> R;
    /// Applies block `height`'s delta to the committed state.
    fn absorb(&self, delta: &BlockDelta, height: u64);
    /// Per-transaction prefetch hints for `packed`; empty when the backend
    /// takes none.
    fn hints(&self, packed: &PackedBlock) -> Vec<TxHints>;
}

/// The in-memory backend. Readers (execution, commitment, admission)
/// share the lock; absorb takes it exclusively and applies the delta in
/// place.
impl Backend for RwLock<State> {
    type Base = State;

    fn view<R>(&self, f: impl FnOnce(&State) -> R) -> R {
        f(&self.read().expect("state poisoned"))
    }

    fn absorb(&self, delta: &BlockDelta, _height: u64) {
        delta.apply_to(&mut self.write().expect("state poisoned"));
    }

    fn hints(&self, _packed: &PackedBlock) -> Vec<TxHints> {
        Vec::new()
    }
}

/// The flat accounts-store backend: the store mutates in place on absorb,
/// and each absorb asks the flush service to drain the write cache
/// `flush_lag` blocks behind the head.
struct Flat<'a> {
    db: &'a AccountsDb,
    flush: &'a FlushService,
    flush_lag: u64,
    prefetch: bool,
}

impl Backend for Flat<'_> {
    type Base = AccountsDb;

    fn view<R>(&self, f: impl FnOnce(&AccountsDb) -> R) -> R {
        f(self.db)
    }

    fn absorb(&self, delta: &BlockDelta, height: u64) {
        self.db.absorb(delta, height);
        self.flush
            .request_flush(height.saturating_sub(self.flush_lag));
    }

    /// The admission-time read sets ride along as prefetch hints: the
    /// store starts pulling a transaction's slots off disk the moment its
    /// DAG parents commit.
    fn hints(&self, packed: &PackedBlock) -> Vec<TxHints> {
        if self.prefetch {
            hints_of(packed)
        } else {
            Vec::new()
        }
    }
}

/// Admits up to `batch` transactions against the backend's committed
/// state, taking the backend's read view per transaction so an absorb
/// never waits behind a whole slice. Returns `false` when the source ran
/// dry.
fn ingest_slice<B: Backend, S: TxSource>(
    pool: &Mempool,
    backend: &B,
    source: &mut S,
    batch: usize,
) -> bool {
    let _span = mtpu_telemetry::span("node.ingest", "mempool");
    for _ in 0..batch {
        let Some(tx) = source.next_tx() else {
            return false;
        };
        let _ = backend.view(|state| pool.admit(tx, state));
    }
    true
}
