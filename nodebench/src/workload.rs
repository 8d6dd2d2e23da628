//! The benchmark's workloads: which transaction stream each one feeds the
//! node, on which state backend, and at which rates. Each workload loads
//! some layers heavily and others hardly at all, so a change to one layer
//! shows up on the workload that exercises it and not on the others.

use mtpu_accountsdb::{AccountsDb, FlushService};
use mtpu_evm::state::State;
use mtpu_evm::tx::{BlockHeader, Transaction};
use mtpu_mempool::{BlockPacker, DriverConfig, Mempool, PackerConfig, PoolConfig};
use mtpu_workloads::{BlockConfig, Generator, ZipfConfig, ZipfGen};
use std::collections::VecDeque;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Account universe of the flat-store workload: far larger than what the
/// write cache holds between flushes, so execution reads go to files.
pub const FLAT_UNIVERSE: u64 = 65_536;
/// Zipf-ranked senders of the flat-store workload.
pub const FLAT_SENDERS: u64 = 8_192;
/// Most transactions a packed block may carry.
pub const BLOCK_TXS: usize = 256;
/// Pool count budget. It equals the block size, so every block drains all
/// ready transactions and none can starve behind higher fees: latency in
/// the closed loop stays bounded by the block cadence.
pub const POOL_TXS: usize = BLOCK_TXS;
/// Open-loop rate of read-under-write's reader thread, in reads/s: a light
/// probe of the read layer, not a load on it. It is about 1/400 of what the
/// repository's `read_qps` experiment sustains with the same read mix
/// (≈436k reads/s with four readers beside a writer on 2 vCPUs). At the
/// median service times the traced run measures on this workload (≈6 µs
/// for `get_balance`, ≈67 µs for `call`) its reads take about 2% of one
/// core.
pub const READ_RATE: f64 = 1_000.0;
/// How many blocks the flat store's background flush trails the head.
pub const FLUSH_LAG: u64 = 2;

/// One named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// TOP8 + auxiliary contract mix on the in-memory backend, closed loop.
    Top8Mix,
    /// A Zipf transfer stream over a large flat store at a fixed write
    /// rate: the latency workload.
    ReadUnderWrite,
}

impl Workload {
    /// Every workload, in the order `BENCHMARK.json` lists them.
    pub const ALL: [Workload; 2] = [Workload::Top8Mix, Workload::ReadUnderWrite];

    /// Looks a workload up by its benchmark name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The benchmark name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Top8Mix => "top8-mix",
            Workload::ReadUnderWrite => "read-under-write",
        }
    }

    /// `true` when the node runs on the flat accounts store
    /// (`NodeDriver::run_flat`) instead of the in-memory `State`.
    pub fn flat(self) -> bool {
        self == Workload::ReadUnderWrite
    }

    /// Fixed open-loop write rate in tx/s; `None` is a closed loop, where
    /// the pool's ingestion backpressure is the only throttle.
    pub fn write_rate(self) -> Option<f64> {
        match self {
            Workload::Top8Mix => None,
            Workload::ReadUnderWrite => Some(1_500.0),
        }
    }

    /// Whether untraced sessions ingest on a background thread. The closed
    /// loop does, so the pool's backpressure is its only throttle. The
    /// open loop ingests inline, one slice per block: a background
    /// ingester would leave the node loop spinning on an empty pool
    /// between arrivals, and on two cores its latency then flips between
    /// regimes an order of magnitude apart from run to run.
    pub fn background_ingest(self) -> bool {
        self.write_rate().is_none()
    }

    /// Open-loop read rate in reads/s; `None`: no read layer and no
    /// reader, so `readserve` does no work.
    pub fn read_rate(self) -> Option<f64> {
        match self {
            Workload::Top8Mix => None,
            Workload::ReadUnderWrite => Some(READ_RATE),
        }
    }

    /// Transactions admitted per ingestion slice. Inline ingestion admits
    /// one slice between blocks, so the slice sets the traced loop's block
    /// size: near a full block for the closed loop, and the ~5 ms of
    /// arrivals the open loop packs per block.
    pub fn ingest_batch(self) -> usize {
        match self {
            Workload::Top8Mix => BLOCK_TXS * 3 / 4,
            Workload::ReadUnderWrite => 8,
        }
    }

    /// Pool, packer and driver settings of a session.
    pub fn node_parts(
        self,
        threads: usize,
        background_ingest: bool,
    ) -> (Mempool, BlockPacker, DriverConfig) {
        let pool = Mempool::new(PoolConfig {
            max_txs: POOL_TXS,
            max_per_sender: POOL_TXS,
            ..PoolConfig::default()
        });
        let packer = BlockPacker::new(PackerConfig {
            max_txs: BLOCK_TXS,
            // Calls carry a 2M gas limit; the count budget must bind, not gas.
            gas_limit: BLOCK_TXS as u64 * 2_000_000,
            ..PackerConfig::default()
        });
        let cfg = DriverConfig {
            blocks: usize::MAX,
            threads,
            commit_threads: threads,
            ingest_batch: self.ingest_batch(),
            prefill: 0,
            background_ingest,
            flush_lag: FLUSH_LAG,
        };
        (pool, packer, cfg)
    }
}

/// The header of block `height`.
pub fn header(height: u64) -> BlockHeader {
    BlockHeader {
        height,
        ..Default::default()
    }
}

/// A workload's endless, seed-determined transaction stream.
pub enum Stream {
    /// `workloads::Generator` blocks flattened into one stream.
    Blocks {
        gen: Box<Generator>,
        buf: VecDeque<Transaction>,
    },
    /// A Zipf-ranked transfer stream.
    Zipf(Box<ZipfGen>),
}

impl Stream {
    /// The next transaction.
    pub fn next_tx(&mut self) -> Transaction {
        match self {
            Stream::Blocks { gen, buf } => loop {
                if let Some(tx) = buf.pop_front() {
                    return tx;
                }
                buf.extend(gen.block(&BlockConfig::default()).transactions);
            },
            Stream::Zipf(gen) => gen.next_tx(),
        }
    }
}

/// The flat store a session runs on, with its flush worker.
pub struct FlatStore {
    /// The store, bootstrapped from genesis and flushed to files.
    pub db: Arc<AccountsDb>,
    /// Background flush worker.
    pub flush: FlushService,
    dir: PathBuf,
}

impl FlatStore {
    /// Stops the flush worker and deletes the store's files.
    pub fn remove(self) {
        drop(self.flush);
        drop(self.db);
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Everything a session starts from.
pub struct Setup {
    /// Genesis state.
    pub genesis: State,
    /// The transaction stream.
    pub stream: Stream,
    /// The flat store, on flat workloads.
    pub store: Option<FlatStore>,
}

/// Builds genesis and the stream from `seed`, and on flat workloads a
/// fresh store under `dir` holding genesis in its storage files.
pub fn build(w: Workload, seed: u64, dir: &Path) -> std::io::Result<Setup> {
    let (genesis, stream) = if w.flat() {
        let gen = ZipfGen::new(
            seed,
            ZipfConfig {
                senders: FLAT_SENDERS,
                theta: 1.0,
                hot_ratio: 0.1,
                sct_ratio: 0.5,
                universe: FLAT_UNIVERSE,
                recipients: FLAT_UNIVERSE,
                ..ZipfConfig::default()
            },
        );
        (gen.genesis_state().clone(), Stream::Zipf(Box::new(gen)))
    } else {
        let gen = Generator::new(seed);
        (
            gen.fx.state.clone(),
            Stream::Blocks {
                gen: Box::new(gen),
                buf: VecDeque::new(),
            },
        )
    };
    let store = if w.flat() {
        let _ = std::fs::remove_dir_all(dir);
        let db = Arc::new(AccountsDb::open(dir)?);
        db.bootstrap_from_state(&genesis, 0);
        db.flush_up_to(0)?;
        let flush = FlushService::start(db.clone());
        Some(FlatStore {
            db,
            flush,
            dir: dir.to_path_buf(),
        })
    } else {
        None
    };
    Ok(Setup {
        genesis,
        stream,
        store,
    })
}
