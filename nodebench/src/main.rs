//! Node benchmark: runs one named workload through the node pipeline
//! (mempool → packer → parexec → pipelined commit → accounts-DB → read
//! layer), checks every output against the sequential oracle, and prints
//! its metrics as one JSON line.
//!
//! ```text
//! nodebench --workload <top8-mix|read-under-write>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` drives `NodeDriver` untraced and prints the end-to-end
//! metrics. `--trace 1` runs the benchmark's own stage loop with a span
//! around every call into a layer and the registry's counters on, and
//! prints the per-layer metrics; see `README.md` for every definition.

mod check;
mod harness;
mod reader;
mod stages;
mod workload;

use harness::{peak_rss_mb, Recorder, SinkLog, Source, SourceShared};
use mtpu_evm::state::State;
use mtpu_mempool::{DriverReport, NodeDriver};
use mtpu_primitives::B256;
use mtpu_readserve::{ReadServeConfig, ReadServer};
use mtpu_telemetry as tel;
use reader::ReadLog;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use workload::{build, header, Setup, Workload, FLAT_SENDERS};

/// Leading share of a run excluded from every steady-window metric.
const WARM_FRACTION: f64 = 0.2;
/// Set-ups per untraced run: the session's own and probe sessions that
/// end at the first pull. `setup_s` is their median.
const SETUPS: usize = 3;
/// Leading blocks over which the exact work counters are taken, and the
/// fewest blocks the traced loop's root sequence must match `NodeDriver`'s
/// over.
const FIDELITY_BLOCKS: usize = 32;
/// Fewest steady-window slices `commit_tps` is taken over.
const MIN_SLICES: u32 = 4;
/// A run whose open-loop generators ran later than this at p99 is
/// flagged as behind schedule.
const LAG_LIMIT_MS: f64 = 5.0;
/// Upper bound on the block rate, sizing the driver's per-block log.
const MAX_BLOCKS_PER_SEC: usize = 2_000;
/// Mixed into the seed for the reader's key stream.
const READER_SEED: u64 = 0x5EAD_5EAD;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| format!("bad seconds {value}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace flag {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds: u64 = seconds.ok_or("missing --seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// One named metric value.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

impl Metric {
    fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// A run's result line.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
}

impl Outcome {
    fn to_json(&self) -> String {
        let metrics: Vec<String> = if self.correct {
            self.metrics
                .iter()
                .map(|m| {
                    let v = if m.value.is_finite() { m.value } else { 0.0 };
                    format!(r#""{}": {{"value": {v}, "unit": "{}"}}"#, m.name, m.unit)
                })
                .collect()
        } else {
            Vec::new()
        };
        format!(
            r#"{{"correct": {}, "attempted": {}, "failed": {}, "metrics": {{{}}}}}"#,
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// Nearest-rank percentile of `v` (sorted in place), or 0 when empty.
fn pct(v: &mut [u64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_unstable();
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1] as f64
}

fn mean(sum: f64, n: usize) -> f64 {
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

fn ratio(a: u64, b: u64) -> f64 {
    if b == 0 {
        0.0
    } else {
        a as f64 / b as f64
    }
}

/// The measured window of a run: after warm-up, before the source stops.
#[derive(Clone, Copy)]
struct Window {
    from: Instant,
    to: Instant,
}

impl Window {
    fn of(shared: &SourceShared, run: Duration) -> Window {
        let start = *shared
            .first_pull
            .get()
            .expect("the node pulled no transaction");
        Window {
            from: start + run.mul_f64(WARM_FRACTION),
            to: start + run,
        }
    }

    /// The window cut into about one-second slices (at least
    /// `MIN_SLICES`): `commit_tps` and every latency percentile are medians
    /// over slices, so a burst of outside interference moves one slice,
    /// not the result, and the slices' `commit_tps` is the drift check.
    fn slices(&self) -> impl Iterator<Item = (Instant, Instant)> + '_ {
        let span = self.to - self.from;
        let n = (span.as_secs_f64().round() as u32).max(MIN_SLICES);
        let slice = span / n;
        (0..n).map(move |i| (self.from + slice * i, self.from + slice * (i + 1)))
    }

    /// The `q`-th percentile of the latencies (in ns) of the samples due
    /// in each slice, as the median over slices: a stall from outside the
    /// process moves the tail of one slice, not the result.
    fn pct(&self, samples: &[(Instant, u64)], q: f64) -> f64 {
        let mut per_slice: Vec<f64> = self
            .slices()
            .map(|(from, to)| {
                let mut v: Vec<u64> = samples
                    .iter()
                    .filter(|(due, _)| *due >= from && *due < to)
                    .map(|(_, l)| *l)
                    .collect();
                pct(&mut v, q)
            })
            .collect();
        per_slice.sort_by(f64::total_cmp);
        per_slice[per_slice.len() / 2]
    }

    /// Median over the slices of committed tx/s; prints the slices.
    fn commit_tps(&self, log: &SinkLog) -> f64 {
        let mut tps: Vec<f64> = self.slices().map(|(a, b)| tps_between(log, a, b)).collect();
        println!(
            "# commit_tps per steady-window slice: {}",
            tps.iter()
                .map(|t| format!("{t:.0}"))
                .collect::<Vec<_>>()
                .join(" ")
        );
        tps.sort_by(f64::total_cmp);
        tps[tps.len() / 2]
    }

    fn holds(&self, t: Instant) -> bool {
        t >= self.from && t < self.to
    }
}

/// Committed tx/s between the first and last block published inside
/// `[from, to)`.
fn tps_between(log: &SinkLog, from: Instant, to: Instant) -> f64 {
    let inside: Vec<_> = log
        .blocks
        .iter()
        .filter(|b| b.visible >= from && b.visible < to)
        .collect();
    if inside.len() < 2 {
        return 0.0;
    }
    let txs: usize = inside[1..].iter().map(|b| b.block.transactions.len()).sum();
    let secs = (inside[inside.len() - 1].visible - inside[0].visible).as_secs_f64();
    txs as f64 / secs
}

/// Transactions the source offered that never committed, plus those the
/// sink could not match to an offer.
fn lost_txs(log: &SinkLog, shared: &SourceShared) -> u64 {
    let committed: u64 = log
        .blocks
        .iter()
        .map(|b| b.block.transactions.len() as u64)
        .sum();
    let unmatched: u64 = log
        .blocks
        .iter()
        .map(|b| b.dues.iter().filter(|d| d.is_none()).count() as u64)
        .sum();
    shared
        .offered
        .load(Ordering::Relaxed)
        .saturating_sub(committed)
        + unmatched
}

/// Reports the verdict's problems and the generator lag; returns whether
/// the run is correct.
fn report_checks(v: &check::Verdict, lag_p99_ms: f64) -> bool {
    for p in &v.problems {
        println!("# check failed: {p}");
    }
    println!(
        "# checked {} blocks / {} txs and {} reads against the sequential oracle",
        v.blocks, v.txs, v.reads_verified
    );
    if lag_p99_ms > LAG_LIMIT_MS {
        println!("# warning: generators fell behind schedule (lag p99 {lag_p99_ms:.3} ms)");
    }
    v.problems.is_empty()
}

fn gen_lag_p99_ms(shared: &SourceShared, reads: &ReadLog) -> f64 {
    let mut lag = shared.lag_ns.lock().expect("lag log poisoned").clone();
    lag.extend(&reads.lag_ns);
    pct(&mut lag, 0.99) / 1e6
}

/// Tells the reader to stop when dropped, also while a panic unwinds, so
/// a failing session cannot leave the reader running.
struct StopOnDrop<'a>(&'a AtomicBool);

impl Drop for StopOnDrop<'_> {
    fn drop(&mut self) {
        self.0.store(true, Ordering::Release);
    }
}

/// A node session, with the read layer attached as sink and the reader
/// running beside it on workloads that read.
struct Session {
    log: SinkLog,
    peak_rss: f64,
    reads: ReadLog,
    shared: Arc<SourceShared>,
    genesis: State,
    report: DriverReport,
}

/// Runs `node`, with the open-loop reader beside it when `server` is
/// given; the reader stops when `node` returns or panics.
fn with_reader<R: Send>(
    w: Workload,
    seed: u64,
    server: Option<&ReadServer>,
    shared: &SourceShared,
    node: impl FnOnce() -> R + Send,
) -> (R, ReadLog) {
    let (Some(server), Some(rate)) = (server, w.read_rate()) else {
        return (node(), ReadLog::default());
    };
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let reader = s.spawn(|| {
            tel::name_thread("reader");
            reader::run(
                server,
                shared,
                rate,
                FLAT_SENDERS,
                seed ^ READER_SEED,
                &stop,
            )
        });
        let stopper = StopOnDrop(&stop);
        let out = node();
        drop(stopper);
        (out, reader.join().expect("reader thread panicked"))
    })
}

/// The read layer of a workload that reads.
fn read_server(w: Workload, genesis: &State) -> Option<Arc<ReadServer>> {
    w.read_rate()
        .map(|_| ReadServer::new(genesis.clone(), ReadServeConfig::default()))
}

/// Seconds from `started` to the node's first pull.
fn setup_secs(started: Instant, shared: &SourceShared) -> f64 {
    let first_pull = *shared
        .first_pull
        .get()
        .expect("the node pulled no transaction");
    (first_pull - started).as_secs_f64()
}

/// A session's set-up, timed: the same session as a measured run, on a
/// source that ends at the node's first pull.
fn probe_setup(w: Workload, seed: u64, threads: usize, dir: &Path) -> std::io::Result<f64> {
    let started = Instant::now();
    let setup = build(w, seed, dir)?;
    let s = drive(w, seed, Duration::ZERO, threads, w.background_ingest(), setup);
    Ok(setup_secs(started, &s.shared))
}

fn drive(
    w: Workload,
    seed: u64,
    run: Duration,
    threads: usize,
    background: bool,
    setup: Setup,
) -> Session {
    let Setup {
        genesis,
        stream,
        store,
    } = setup;
    let shared = Arc::new(SourceShared::default());
    let server = read_server(w, &genesis);
    let sink = Arc::new(Recorder::new(
        server.clone(),
        shared.clone(),
        run.mul_f64(WARM_FRACTION),
    ));
    let source = Source::new(stream, shared.clone(), run, w.write_rate());
    let (report, reads) = with_reader(w, seed, server.as_deref(), &shared, || {
        let (pool, packer, mut cfg) = w.node_parts(threads, background);
        // The source ends the session; this only sizes the driver's log.
        cfg.blocks = (run.as_secs() as usize + 1) * MAX_BLOCKS_PER_SEC;
        let driver = NodeDriver::new(pool, packer, cfg).with_sink(sink.clone());
        match &store {
            None => driver.run(genesis.clone(), source, header),
            Some(st) => driver.run_flat(&genesis, &st.db, &st.flush, source, header),
        }
    });
    if let Some(st) = store {
        st.remove();
    }
    Session {
        log: sink.take(),
        peak_rss: sink.peak_rss().unwrap_or_else(peak_rss_mb),
        reads,
        shared,
        genesis,
        report,
    }
}

/// `--trace 0`: `NodeDriver` untraced, ingesting as the workload says.
fn untraced(
    w: Workload,
    seed: u64,
    run: Duration,
    threads: usize,
    dir: &Path,
) -> std::io::Result<Outcome> {
    let mut setups = Vec::with_capacity(SETUPS);
    for i in 1..SETUPS {
        setups.push(probe_setup(w, seed, threads, &dir.join(format!("probe{i}")))?);
    }
    let started = Instant::now();
    let setup = build(w, seed, &dir.join("node"))?;
    let s = drive(w, seed, run, threads, w.background_ingest(), setup);
    let own = setup_secs(started, &s.shared);
    println!(
        "# set-up seconds: session {own:.4}, probes {}",
        setups
            .iter()
            .map(|t| format!("{t:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    setups.push(own);
    setups.sort_by(f64::total_cmp);
    let setup_s = setups[setups.len() / 2];

    let verdict = check::replay(
        s.genesis,
        s.report.genesis_root,
        &s.log,
        &s.reads.samples,
        threads,
        0,
    );
    let lag = gen_lag_p99_ms(&s.shared, &s.reads);
    let correct = report_checks(&verdict, lag);

    let win = Window::of(&s.shared, run);
    let commit_tps = win.commit_tps(&s.log);

    let roots: std::collections::HashMap<u64, Instant> =
        s.log.roots.iter().map(|(h, _, at)| (*h, *at)).collect();
    let mut visible = Vec::new();
    let mut root = Vec::new();
    for b in &s.log.blocks {
        for due in b.dues.iter().flatten() {
            visible.push((*due, (b.visible - *due).as_nanos() as u64));
            if let Some(at) = roots.get(&b.height) {
                root.push((*due, (*at - *due).as_nanos() as u64));
            }
        }
    }
    println!(
        "# samples in the steady window: {} txs, {} reads",
        visible.iter().filter(|(due, _)| win.holds(*due)).count(),
        s.reads
            .latency
            .iter()
            .filter(|(due, _)| win.holds(*due))
            .count(),
    );

    let lost = lost_txs(&s.log, &s.shared) + verdict.bad_txs;
    let failed_reads = s.reads.failed + verdict.bad_reads;
    let metrics = vec![
        Metric::new("commit_tps", commit_tps, "tx/s"),
        Metric::new("visible_p50_ms", win.pct(&visible, 0.50) / 1e6, "ms"),
        Metric::new("visible_p99_ms", win.pct(&visible, 0.99) / 1e6, "ms"),
        Metric::new("root_p50_ms", win.pct(&root, 0.50) / 1e6, "ms"),
        Metric::new("setup_s", setup_s, "s"),
        Metric::new("peak_rss_mb", s.peak_rss, "MiB"),
    ];
    Ok(Outcome {
        correct,
        attempted: s.shared.offered.load(Ordering::Relaxed) + s.reads.issued,
        failed: lost + failed_reads,
        metrics,
    })
}

/// `--trace 1`: `NodeDriver` with inline ingestion as the untraced
/// reference, then the traced stage loop on a fresh set-up of the same
/// seed.
fn traced(
    w: Workload,
    seed: u64,
    run: Duration,
    threads: usize,
    dir: &Path,
) -> std::io::Result<Outcome> {
    let reference = drive(
        w,
        seed,
        run,
        threads,
        false,
        build(w, seed, &dir.join("ref"))?,
    );
    let ref_tps = Window::of(&reference.shared, run).commit_tps(&reference.log);
    let ref_roots: Vec<B256> = reference
        .report
        .blocks
        .iter()
        .map(|b| b.merkle_root)
        .collect();
    drop(reference);

    let Setup {
        genesis,
        stream,
        store,
    } = build(w, seed, &dir.join("traced"))?;
    let db_before = store.as_ref().map(|st| st.db.stats()).unwrap_or_default();
    tel::global().reset();
    tel::set_enabled(true);
    let file_reads_before = mtpu_accountsdb::obs::metrics().read_us.snapshot().count;
    let shared = Arc::new(SourceShared::default());
    let server = read_server(w, &genesis);
    let sink = Recorder::new(server.clone(), shared.clone(), run.mul_f64(WARM_FRACTION));
    let source = Source::new(stream, shared.clone(), run, w.write_rate());
    let (rep, reads) = with_reader(w, seed, server.as_deref(), &shared, || {
        tel::name_thread("node");
        stages::run(w, threads, &genesis, store.as_ref(), source, &sink)
    });
    let file_reads = mtpu_accountsdb::obs::metrics().read_us.snapshot().count - file_reads_before;
    tel::set_enabled(false);
    let db_after = store.as_ref().map(|st| st.db.stats()).unwrap_or_default();
    if let Some(st) = store {
        st.remove();
    }
    let trace_path = dir.with_file_name(format!("{}.trace.json", w.name()));
    std::fs::write(&trace_path, tel::global().chrome_trace_json())?;
    println!("# chrome trace: {}", trace_path.display());

    let log = sink.take();
    let verdict = check::replay(
        genesis,
        rep.genesis_root,
        &log,
        &reads.samples,
        threads,
        FIDELITY_BLOCKS,
    );
    let lag = gen_lag_p99_ms(&shared, &reads);
    let mut correct = report_checks(&verdict, lag);
    // Inline ingest makes every block a function of the seed, except the
    // last of the shorter run, which may hold a partial ingest slice.
    let common = rep.roots.len().min(ref_roots.len()).saturating_sub(1);
    let first_diff = (0..common).find(|&i| rep.roots[i] != ref_roots[i]);
    if common >= FIDELITY_BLOCKS && first_diff.is_none() {
        println!("# fidelity: the traced loop reproduced NodeDriver's first {common} roots");
    } else {
        println!(
            "# check failed: the traced loop's roots differ from NodeDriver's \
             (first at block {first_diff:?}; {} vs {} blocks)",
            rep.roots.len(),
            ref_roots.len()
        );
        correct = false;
    }
    let p = &verdict.prefix;
    println!(
        "# work counters over the first {} blocks / {} txs: ops {} gas {} fusion hits {} trie nodes hashed {}",
        p.blocks, p.txs, p.ops, p.gas, p.fusion_hits, p.nodes_hashed
    );

    // Steady-window blocks: published after warm-up, before the drain.
    let win = Window::of(&shared, run);
    let steady: Vec<usize> = log
        .blocks
        .iter()
        .enumerate()
        .filter(|(_, b)| win.holds(b.visible))
        .map(|(i, _)| i)
        .collect();
    let n = steady.len();
    let per_block = |f: &dyn Fn(&stages::BlockTimes) -> u64| -> f64 {
        mean(
            steady
                .iter()
                .map(|&i| f(&rep.blocks[i]) as f64)
                .sum::<f64>(),
            n,
        ) / 1e6
    };
    let txs: u64 = rep.blocks.iter().map(|b| b.txs).sum();
    let steady_txs: u64 = steady.iter().map(|&i| rep.blocks[i].txs).sum();
    let exec = |f: &dyn Fn(&mtpu_parexec::BlockStats) -> f64| -> f64 {
        steady.iter().map(|&i| f(&rep.exec[i])).sum::<f64>()
    };
    let busy = exec(&|s| s.workers.iter().map(|w| w.busy.as_secs_f64()).sum());
    let capacity = exec(&|s| s.wall.as_secs_f64() * s.threads as f64);
    let executions = exec(&|s| s.executions as f64);
    let mut publish: Vec<u64> = steady.iter().map(|&i| log.blocks[i].publish_ns).collect();
    let mut walls: Vec<u64> = steady.iter().map(|&i| rep.blocks[i].wall).collect();
    let mut balance = reads.balance_ns.clone();
    let mut call = reads.call_ns.clone();
    let mut retained = reads.retained.clone();
    let traced_tps = win.commit_tps(&log);
    let offered = shared.offered.load(Ordering::Relaxed);
    let lost = lost_txs(&log, &shared) + verdict.bad_txs;
    let failed_reads = reads.failed + verdict.bad_reads;
    let flat = w.flat();

    let metrics = vec![
        Metric::new(
            "mempool.admit_us_per_tx",
            ratio(rep.admit_ns, rep.admits) / 1e3,
            "us",
        ),
        Metric::new(
            "mempool.observe_ms_per_block",
            per_block(&|b| b.observe),
            "ms",
        ),
        Metric::new(
            "mempool.reject_ratio",
            ratio(rep.pool.rejected, offered),
            "ratio",
        ),
        Metric::new(
            "mempool.parked_per_tx",
            ratio(rep.pool.parked, rep.pool.admitted),
            "ratio",
        ),
        Metric::new("packer.pack_ms_per_block", per_block(&|b| b.pack), "ms"),
        Metric::new(
            "packer.independent_ratio",
            ratio(rep.independent, txs),
            "ratio",
        ),
        Metric::new(
            "packer.conflict_skips_per_block",
            ratio(rep.conflict_skips, rep.blocks.len() as u64),
            "count",
        ),
        Metric::new(
            "parexec.execute_ms_per_block",
            per_block(&|b| b.exec_wall),
            "ms",
        ),
        Metric::new(
            "parexec.exec_us_per_tx",
            busy / steady_txs.max(1) as f64 * 1e6,
            "us",
        ),
        Metric::new(
            "parexec.reexec_ratio",
            exec(&|s| s.reexecutions as f64) / executions.max(1.0),
            "ratio",
        ),
        Metric::new(
            "parexec.worker_busy_ratio",
            busy / capacity.max(f64::MIN_POSITIVE),
            "ratio",
        ),
        Metric::new(
            "parexec.fallbacks_per_block",
            mean(exec(&|s| s.fallbacks as f64), n),
            "count",
        ),
        Metric::new(
            "evm.seq_us_per_tx",
            ratio(verdict.seq_ns, verdict.seq_txs) / 1e3,
            "us",
        ),
        Metric::new("evm.ops_per_tx", ratio(p.ops, p.txs), "count"),
        Metric::new("evm.gas_per_tx", ratio(p.gas, p.txs), "gas"),
        Metric::new(
            "evm.fusion.hits_per_tx",
            ratio(p.fusion_hits, p.txs),
            "count",
        ),
        Metric::new(
            "evm.analysis.hit_ratio",
            ratio(rep.analysis_hits, rep.analysis_hits + rep.analysis_misses),
            "ratio",
        ),
        Metric::new(
            "evm.prefetch.issued_per_tx",
            ratio(rep.prefetch_issued, txs),
            "count",
        ),
        Metric::new(
            "evm.prefetch.hit_ratio",
            ratio(rep.prefetch_hits, rep.prefetch_issued),
            "ratio",
        ),
        Metric::new(
            "statedb.submit_ms_per_block",
            per_block(&|b| b.submit),
            "ms",
        ),
        Metric::new(
            "statedb.root_wait_ms_per_block",
            per_block(&|b| b.root_wait),
            "ms",
        ),
        Metric::new(
            "statedb.nodes_hashed_per_block",
            ratio(p.nodes_hashed, p.blocks),
            "count",
        ),
        Metric::new(
            "statedb.cache.hit_ratio",
            ratio(
                rep.statedb_cache_hits,
                rep.statedb_cache_hits + rep.statedb_cache_misses,
            ),
            "ratio",
        ),
        Metric::new(
            "backend.absorb_ms_per_block",
            per_block(&|b| b.absorb),
            "ms",
        ),
        Metric::new(
            "accountsdb.cache_hit_ratio",
            ratio(
                db_after.cache_hits - db_before.cache_hits,
                db_after.cache_hits + db_after.cache_misses
                    - db_before.cache_hits
                    - db_before.cache_misses,
            ),
            "ratio",
        ),
        Metric::new(
            "accountsdb.file_reads_per_tx",
            ratio(file_reads, txs),
            "count",
        ),
        Metric::new(
            "accountsdb.flush_lag_max_blocks",
            rep.flush_lag_max as f64,
            "blocks",
        ),
        Metric::new(
            "accountsdb.bytes_written_per_tx",
            ratio(db_after.file_bytes - db_before.file_bytes, txs),
            "B",
        ),
        Metric::new(
            "readserve.publish_ms_p50",
            pct(&mut publish, 0.50) / 1e6,
            "ms",
        ),
        Metric::new(
            "readserve.publish_ms_p99",
            pct(&mut publish, 0.99) / 1e6,
            "ms",
        ),
        Metric::new(
            "readserve.balance_us_p50",
            pct(&mut balance, 0.50) / 1e3,
            "us",
        ),
        Metric::new("readserve.call_us_p50", pct(&mut call, 0.50) / 1e3, "us"),
        Metric::new("readserve.retained", pct(&mut retained, 0.50), "count"),
        Metric::new("node.block_ms_p50", pct(&mut walls, 0.50) / 1e6, "ms"),
        Metric::new(
            "node.unaccounted_ms_per_block",
            per_block(&|b| b.unaccounted(flat)),
            "ms",
        ),
        Metric::new(
            "bench.read_p50_us",
            win.pct(&reads.latency, 0.50) / 1e3,
            "us",
        ),
        Metric::new(
            "bench.read_p99_us",
            win.pct(&reads.latency, 0.99) / 1e3,
            "us",
        ),
        Metric::new("bench.gen_lag_p99_ms", lag, "ms"),
        Metric::new("bench.tx_fail_ratio", ratio(lost, offered), "ratio"),
        Metric::new(
            "bench.read_fail_ratio",
            ratio(failed_reads, reads.issued),
            "ratio",
        ),
        Metric::new("trace.overhead_ratio", traced_tps / ref_tps, "ratio"),
    ];
    Ok(Outcome {
        correct,
        attempted: offered + reads.issued,
        failed: lost + failed_reads,
        metrics,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("nodebench: {e}");
            std::process::exit(2);
        }
    };
    // parexec and commit threads equal the core count; a reader adds one.
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let w = args.workload;
    println!(
        "# workload {} seed {} seconds {} trace {} threads {threads}",
        w.name(),
        args.seed,
        args.seconds,
        args.trace as u8
    );
    let work: PathBuf = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("work")
        .join(format!("{}-{}", w.name(), std::process::id()));
    let run = Duration::from_secs(args.seconds);
    let outcome = if args.trace {
        traced(w, args.seed, run, threads, &work)
    } else {
        untraced(w, args.seed, run, threads, &work)
    };
    let _ = std::fs::remove_dir_all(&work);
    match outcome {
        Ok(o) => println!("{}", o.to_json()),
        Err(e) => {
            eprintln!("nodebench: {e}");
            std::process::exit(1);
        }
    }
}
