//! Load generation and observation around the node: the transaction
//! source with per-transaction due times, the block sink that stamps
//! when each block became readable, and process-level probes.

use crate::workload::Stream;
use mtpu_evm::tx::{Block, Receipt, Transaction};
use mtpu_evm::BlockDelta;
use mtpu_mempool::{BlockSink, CommittedBlock, TxSource};
use mtpu_primitives::{Address, B256, U256};
use mtpu_readserve::ReadServer;
use std::collections::HashMap;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// What the source shares with the rest of the harness while
/// `NodeDriver` owns it.
#[derive(Debug, Default)]
pub struct SourceShared {
    /// Due time of every offered transaction not yet committed, keyed by
    /// `(sender, nonce)`.
    dues: Mutex<HashMap<(Address, u64), Instant>>,
    /// When the node pulled its first transaction: the end of set-up and
    /// the start of the measured run.
    pub first_pull: OnceLock<Instant>,
    /// Transactions handed to the node.
    pub offered: AtomicU64,
    /// How late each open-loop transaction was handed over, in ns.
    pub lag_ns: Mutex<Vec<u64>>,
}

impl SourceShared {
    /// Removes and returns the due time of `(from, nonce)`.
    fn take_due(&self, from: Address, nonce: u64) -> Option<Instant> {
        self.dues
            .lock()
            .expect("due book poisoned")
            .remove(&(from, nonce))
    }
}

/// The node's transaction source. A closed loop hands over the next
/// transaction whenever the node asks, and its due time is that moment;
/// an open loop hands transaction `k` over at `start + k / rate`, and a
/// late hand-over keeps its scheduled due time.
pub struct Source {
    stream: Stream,
    shared: Arc<SourceShared>,
    run: Duration,
    rate: Option<f64>,
}

impl Source {
    /// A source that offers transactions for `run` after its first pull,
    /// at `rate` tx/s when given (open loop).
    pub fn new(
        stream: Stream,
        shared: Arc<SourceShared>,
        run: Duration,
        rate: Option<f64>,
    ) -> Self {
        Source {
            stream,
            shared,
            run,
            rate,
        }
    }
}

impl TxSource for Source {
    fn next_tx(&mut self) -> Option<Transaction> {
        let start = *self.shared.first_pull.get_or_init(|| {
            set_fine_timer_slack();
            Instant::now()
        });
        let k = self.shared.offered.load(Ordering::Relaxed);
        let due = match self.rate {
            Some(rate) => {
                let due = start + Duration::from_secs_f64(k as f64 / rate);
                if due >= start + self.run {
                    return None;
                }
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let lag = Instant::now().saturating_duration_since(due);
                self.shared
                    .lag_ns
                    .lock()
                    .expect("lag log poisoned")
                    .push(lag.as_nanos() as u64);
                due
            }
            None => {
                let now = Instant::now();
                if now >= start + self.run {
                    return None;
                }
                now
            }
        };
        let tx = self.stream.next_tx();
        self.shared
            .dues
            .lock()
            .expect("due book poisoned")
            .insert((tx.from, tx.nonce), due);
        self.shared.offered.fetch_add(1, Ordering::Relaxed);
        Some(tx)
    }
}

/// The accounts a block's delta names: `(address, re-created in the
/// block, storage slots written)`.
pub type Touched = Vec<(Address, bool, Vec<U256>)>;

/// One committed block as the sink saw it. Receipts and the delta are
/// kept as a digest and a key list, so the log of a long run stays small
/// next to the node's own memory.
pub struct Published {
    /// Block height.
    pub height: u64,
    /// The block.
    pub block: Arc<Block>,
    /// [`receipts_digest`] of its receipts.
    pub receipts: u64,
    /// What its delta wrote.
    pub touched: Touched,
    /// When `on_block` returned: the block's state is readable.
    pub visible: Instant,
    /// Time the read layer took to publish the block, in ns (0 without
    /// one).
    pub publish_ns: u64,
    /// Due time of each transaction, in block order (`None`: the source
    /// never offered it — a check failure).
    pub dues: Vec<Option<Instant>>,
}

/// A digest of every field of every receipt, in order.
pub fn receipts_digest(receipts: &[Receipt]) -> u64 {
    let mut h = DefaultHasher::new();
    for r in receipts {
        (r.success, r.gas_used, &r.output, r.created).hash(&mut h);
        for log in &r.logs {
            (log.address, &log.topics, &log.data).hash(&mut h);
        }
        r.logs.len().hash(&mut h);
    }
    h.finish()
}

fn touched(delta: &BlockDelta) -> Touched {
    delta
        .iter()
        .map(|(addr, d)| (addr, d.shadows_base, d.storage.keys().copied().collect()))
        .collect()
}

/// The sink's log.
#[derive(Default)]
pub struct SinkLog {
    /// Blocks in height order.
    pub blocks: Vec<Published>,
    /// `(height, root, when on_root was called)`, in height order.
    pub roots: Vec<(u64, B256, Instant)>,
}

/// Stamps every block, after forwarding it to the read layer when the
/// workload has one.
pub struct Recorder {
    server: Option<Arc<ReadServer>>,
    source: Arc<SourceShared>,
    log: Mutex<SinkLog>,
    warm: Duration,
    rss: OnceLock<f64>,
}

impl Recorder {
    /// A recorder publishing to `server` (if any), resolving due times in
    /// `source`, that reads the peak RSS once `warm` has passed since the
    /// first pull.
    pub fn new(
        server: Option<Arc<ReadServer>>,
        source: Arc<SourceShared>,
        warm: Duration,
    ) -> Self {
        Recorder {
            server,
            source,
            log: Mutex::new(SinkLog::default()),
            warm,
            rss: OnceLock::new(),
        }
    }

    /// [`peak_rss_mb`] when the first block after warm-up was published.
    pub fn peak_rss(&self) -> Option<f64> {
        self.rss.get().copied()
    }

    /// Takes the log out.
    pub fn take(&self) -> SinkLog {
        std::mem::take(&mut *self.log.lock().expect("sink log poisoned"))
    }
}

impl BlockSink for Recorder {
    fn on_block(&self, cb: CommittedBlock) {
        let (height, block, receipts, delta) = (
            cb.height,
            cb.block.clone(),
            cb.receipts.clone(),
            cb.delta.clone(),
        );
        let publish_ns = match &self.server {
            Some(server) => {
                let started = Instant::now();
                server.on_block(cb);
                started.elapsed().as_nanos() as u64
            }
            None => 0,
        };
        let visible = Instant::now();
        let dues = block
            .transactions
            .iter()
            .map(|tx| self.source.take_due(tx.from, tx.nonce))
            .collect();
        if self.rss.get().is_none()
            && self
                .source
                .first_pull
                .get()
                .is_some_and(|start| visible >= *start + self.warm)
        {
            let _ = self.rss.set(peak_rss_mb());
        }
        let published = Published {
            height,
            block,
            receipts: receipts_digest(&receipts),
            touched: touched(&delta),
            visible,
            publish_ns,
            dues,
        };
        self.log
            .lock()
            .expect("sink log poisoned")
            .blocks
            .push(published);
    }

    fn on_root(&self, height: u64, root: B256) {
        if let Some(server) = &self.server {
            server.on_root(height, root);
        }
        let at = Instant::now();
        self.log
            .lock()
            .expect("sink log poisoned")
            .roots
            .push((height, root, at));
    }
}

/// Lowers the calling thread's timer slack to 1 ns so open-loop sleeps end
/// at their due time instead of up to 50 µs later (the Linux default).
pub fn set_fine_timer_slack() {
    #[cfg(target_os = "linux")]
    {
        extern "C" {
            fn prctl(option: std::os::raw::c_int, ...) -> std::os::raw::c_int;
        }
        const PR_SET_TIMERSLACK: std::os::raw::c_int = 29;
        // SAFETY: PR_SET_TIMERSLACK takes one unsigned long argument and
        // only changes the calling thread's timer slack; no memory is
        // passed to the kernel.
        unsafe {
            prctl(PR_SET_TIMERSLACK, 1 as std::os::raw::c_ulong);
        }
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB. Read when
/// the steady window opens: from then on the node's in-memory trie store
/// grows with every committed block, so a later reading would rise with
/// throughput.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}
