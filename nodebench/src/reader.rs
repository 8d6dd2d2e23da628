//! The open-loop reader: one thread issuing the read mix of the
//! repository's `read_qps` experiment against the read layer at a fixed
//! rate, Zipf-keyed, at the head and at retained heights: 40%
//! `get_balance`, 20% `get_nonce`, 10% `get_code`, 10% `get_many` and 20%
//! `call(balanceOf)`.

use crate::harness::{set_fine_timer_slack, SourceShared};
use mtpu_contracts::{addresses, call_data, Fixture};
use mtpu_evm::ReadCall;
use mtpu_primitives::{SplitMix64, U256};
use mtpu_readserve::ReadServer;
use mtpu_workloads::ZipfSampler;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// Most reads kept for verification against the sequential replay.
const SAMPLE_CAP: usize = 20_000;

/// One read's answer, pinned to the height it was served at.
pub enum Answer {
    /// `get_balance` of a user.
    Balance(u64, U256),
    /// `get_nonce` of a user.
    Nonce(u64, u64),
    /// Length of Tether's code from `get_code`.
    CodeLen(usize),
    /// `get_many` over Tether storage slots.
    Storage(Vec<U256>, Vec<U256>),
    /// `balanceOf(user)` on Tether: success, gas, output.
    Call(u64, bool, u64, Vec<u8>),
}

/// A sampled read for verification.
pub struct Sample {
    /// Height the read was served at.
    pub height: u64,
    /// What it returned.
    pub answer: Answer,
}

/// What the reader measured.
#[derive(Default)]
pub struct ReadLog {
    /// `(due, latency from due in ns)` of every answered read.
    pub latency: Vec<(Instant, u64)>,
    /// Service time of `get_balance` reads, in ns.
    pub balance_ns: Vec<u64>,
    /// Service time of `call` reads, in ns.
    pub call_ns: Vec<u64>,
    /// How late each read was issued, in ns.
    pub lag_ns: Vec<u64>,
    /// Retained snapshot count, sampled at every read.
    pub retained: Vec<u64>,
    /// Reads issued.
    pub issued: u64,
    /// Reads that returned nothing.
    pub failed: u64,
    /// Sampled answers.
    pub samples: Vec<Sample>,
}

/// The `balanceOf(user)` view call on Tether.
pub fn balance_of(user: u64) -> ReadCall {
    let who = Fixture::user_address(user);
    ReadCall::view(
        who,
        addresses::tether(),
        call_data("balanceOf(address)", &[who.to_u256()]),
    )
}

/// Runs the reader until `stop`, starting at the source's first pull.
/// Read `k` is due at `start + k / rate`.
pub fn run(
    server: &ReadServer,
    source: &SourceShared,
    rate: f64,
    keys: u64,
    seed: u64,
    stop: &AtomicBool,
) -> ReadLog {
    set_fine_timer_slack();
    let start = loop {
        if let Some(t) = source.first_pull.get() {
            break *t;
        }
        if stop.load(Ordering::Acquire) {
            return ReadLog::default();
        }
        std::thread::sleep(Duration::from_millis(1));
    };
    let mut rng = SplitMix64::seed_from_u64(seed);
    let mut zipf = ZipfSampler::new(seed ^ 0x5EED, keys, 1.0);
    let mut log = ReadLog::default();
    for k in 0u64.. {
        let due = start + Duration::from_secs_f64(k as f64 / rate);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        if stop.load(Ordering::Acquire) {
            break;
        }
        let issued = Instant::now();
        log.lag_ns
            .push(issued.saturating_duration_since(due).as_nanos() as u64);
        let user = zipf.sample();
        let addr = Fixture::user_address(user);
        let retained = server.retained();
        log.retained
            .push(retained.map(|(lo, hi)| hi - lo + 1).unwrap_or(0));
        // A quarter of reads pin a retained height, skipping the oldest
        // quarter of the window so pruning cannot race the lookup.
        let at = match retained {
            Some((lo, hi)) if rng.random_bool(0.25) => {
                let lo = lo + (hi - lo) / 4;
                Some(lo + rng.next_u64() % (hi - lo + 1))
            }
            _ => None,
        };
        log.issued += 1;
        let kind = rng.random_range(0..10);
        let t = Instant::now();
        let served = match kind {
            0..=3 => server
                .get_balance(at, addr)
                .map(|(h, v)| (h, Answer::Balance(user, v))),
            4..=5 => server
                .get_nonce(at, addr)
                .map(|(h, n)| (h, Answer::Nonce(user, n))),
            6 => server
                .get_code(at, addresses::tether())
                .map(|(h, code)| (h, Answer::CodeLen(code.len()))),
            7 => {
                let slots = vec![U256::ZERO, U256::ONE, U256::from(2u64), U256::from(user)];
                server
                    .get_many(at, addresses::tether(), &slots)
                    .map(|(h, vals)| (h, Answer::Storage(slots, vals)))
            }
            _ => server
                .call(at, &balance_of(user))
                .map(|(h, out)| (h, Answer::Call(user, out.success, out.gas_used, out.output))),
        };
        let done = Instant::now();
        let service = (done - t).as_nanos() as u64;
        match kind {
            0..=3 => log.balance_ns.push(service),
            8..=9 => log.call_ns.push(service),
            _ => {}
        }
        match served {
            Some((height, answer)) => {
                log.latency.push((due, (done - due).as_nanos() as u64));
                if log.samples.len() < SAMPLE_CAP {
                    log.samples.push(Sample { height, answer });
                }
            }
            None => log.failed += 1,
        }
    }
    log
}
