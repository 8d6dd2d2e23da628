//! Output checks: the committed blocks are replayed with the sequential
//! executor on an in-memory `State` (the oracle). Every block's receipts
//! and merkle root, and every sampled read, must match the replay.

use crate::harness::{receipts_digest, SinkLog};
use crate::reader::{balance_of, Answer, Sample};
use crate::workload::header;
use mtpu_contracts::{addresses, Fixture};
use mtpu_evm::commit::{commit_full, MemStore, StateCommitter};
use mtpu_evm::state::State;
use mtpu_evm::{call_readonly, execute_block};
use mtpu_primitives::B256;
use mtpu_statedb::{empty_code_hash, AccountUpdate};
use std::collections::HashMap;
use std::time::Instant;

/// Work counters of the replayed prefix; they depend only on the blocks,
/// so the same blocks give the same counts on every run.
#[derive(Debug, Default, Clone)]
pub struct PrefixCounts {
    /// Blocks counted.
    pub blocks: u64,
    /// Transactions counted.
    pub txs: u64,
    /// Opcodes dispatched (sum of `evm.ops.*`).
    pub ops: u64,
    /// Gas used (`evm.gas_used`).
    pub gas: u64,
    /// Fused superinstruction dispatches (`evm.fusion.hits`).
    pub fusion_hits: u64,
    /// Trie nodes hashed committing the counted blocks.
    pub nodes_hashed: u64,
}

/// What the replay found.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Blocks replayed.
    pub blocks: usize,
    /// Transactions replayed.
    pub txs: u64,
    /// Problems found, one line each.
    pub problems: Vec<String>,
    /// Transactions in blocks whose receipts or root diverged.
    pub bad_txs: u64,
    /// Reads whose answer diverged.
    pub bad_reads: u64,
    /// Reads verified.
    pub reads_verified: u64,
    /// Time spent in the sequential executor, in ns, over the blocks
    /// after the counted prefix.
    pub seq_ns: u64,
    /// Transactions those blocks hold.
    pub seq_txs: u64,
    /// Counters of the first `counted` blocks.
    pub prefix: PrefixCounts,
}

impl Verdict {
    fn problem(&mut self, msg: String) {
        if self.problems.len() < 16 {
            self.problems.push(msg);
        }
    }
}

fn counters() -> HashMap<String, u64> {
    mtpu_telemetry::global()
        .counters_snapshot()
        .into_iter()
        .collect()
}

fn counter_delta(
    before: &HashMap<String, u64>,
    after: &HashMap<String, u64>,
    pred: impl Fn(&str) -> bool,
) -> u64 {
    after
        .iter()
        .filter(|(k, _)| pred(k))
        .map(|(k, v)| v - before.get(k).copied().unwrap_or(0))
        .sum()
}

/// Replays `log`'s blocks from `genesis`, checking receipts, the per-block
/// roots the node reported, `genesis_root`, and every sampled read. With
/// `counted > 0` the first `counted` blocks run with telemetry on and
/// their work counters are returned; timing covers the remaining blocks.
pub fn replay(
    mut state: State,
    genesis_root: B256,
    log: &SinkLog,
    samples: &[Sample],
    threads: usize,
    counted: usize,
) -> Verdict {
    let mut v = Verdict::default();
    let roots: HashMap<u64, B256> = log.roots.iter().map(|(h, r, _)| (*h, *r)).collect();
    let mut by_height: HashMap<u64, Vec<&Sample>> = HashMap::new();
    for s in samples {
        by_height.entry(s.height).or_default().push(s);
    }

    let mut committer = StateCommitter::new(MemStore::new()).with_threads(threads);
    commit_full(&mut committer, &state);
    let root = committer.commit();
    if root != genesis_root {
        v.problem(format!("genesis root {root:?} != node's {genesis_root:?}"));
    }
    if let Some(batch) = by_height.get(&0) {
        check_reads(&state, &header(0), batch, &mut v);
    }

    let mut before = (counters(), committer.stats().nodes_hashed);
    for (i, b) in log.blocks.iter().enumerate() {
        let counting = i < counted;
        if i == 0 && counting {
            mtpu_telemetry::set_enabled(true);
            before = (counters(), committer.stats().nodes_hashed);
        }
        if b.height != i as u64 + 1 {
            v.problem(format!(
                "block {} published at position {}",
                b.height,
                i + 1
            ));
        }
        let txs = b.block.transactions.len() as u64;
        let started = Instant::now();
        let receipts = execute_block(&mut state, &b.block);
        if !counting {
            v.seq_ns += started.elapsed().as_nanos() as u64;
            v.seq_txs += txs;
        }
        let mut bad = receipts_digest(&receipts) != b.receipts;
        if bad {
            v.problem(format!("receipts diverged at height {}", b.height));
        }

        // The oracle's commitment: the accounts the node's delta names,
        // with the values the oracle computed.
        for (addr, recreated, slots) in &b.touched {
            let (addr, recreated) = (*addr, *recreated);
            match state.account(addr) {
                None => committer.delete_account(&addr),
                Some(acc) => {
                    let storage = if recreated {
                        acc.storage.iter().map(|(k, v)| (*k, *v)).collect()
                    } else {
                        slots
                            .iter()
                            .map(|k| (*k, state.storage(addr, *k)))
                            .collect()
                    };
                    let code_hash = if acc.code_hash == B256::ZERO {
                        empty_code_hash()
                    } else {
                        acc.code_hash
                    };
                    committer.update_account(
                        &addr,
                        &AccountUpdate {
                            nonce: acc.nonce,
                            balance: acc.balance,
                            code_hash,
                            reset_storage: recreated,
                            storage,
                        },
                    );
                }
            }
        }
        let root = committer.commit();
        match roots.get(&b.height) {
            Some(r) if *r == root => {}
            Some(r) => {
                bad = true;
                v.problem(format!(
                    "root diverged at height {}: node {r:?}, oracle {root:?}",
                    b.height
                ));
            }
            None => {
                bad = true;
                v.problem(format!("no root reported for height {}", b.height));
            }
        }
        if bad {
            v.bad_txs += txs;
        }
        if let Some(batch) = by_height.get(&b.height) {
            check_reads(&state, &b.block.header, batch, &mut v);
        }
        v.blocks += 1;
        v.txs += txs;
        if counting && (i + 1 == counted || i + 1 == log.blocks.len()) {
            let after = counters();
            v.prefix = PrefixCounts {
                blocks: i as u64 + 1,
                txs: v.txs,
                ops: counter_delta(&before.0, &after, |k| k.starts_with("evm.ops.")),
                gas: counter_delta(&before.0, &after, |k| k == "evm.gas_used"),
                fusion_hits: counter_delta(&before.0, &after, |k| k == "evm.fusion.hits"),
                nodes_hashed: committer.stats().nodes_hashed - before.1,
            };
            mtpu_telemetry::set_enabled(false);
        }
    }

    // The per-block roots above only cover accounts the node's deltas
    // named; a from-scratch root of the final state covers the rest.
    if let Some(last) = log.blocks.last() {
        let full = state.merkle_root_par(threads);
        if roots.get(&last.height) != Some(&full) {
            v.problem(format!(
                "final state root {full:?} != node's at height {}",
                last.height
            ));
            v.bad_txs += last.block.transactions.len() as u64;
        }
    }
    v
}

fn check_reads(state: &State, hdr: &mtpu_evm::tx::BlockHeader, batch: &[&Sample], v: &mut Verdict) {
    for s in batch {
        let ok = match &s.answer {
            Answer::Balance(user, bal) => state.balance(Fixture::user_address(*user)) == *bal,
            Answer::Nonce(user, n) => state.nonce(Fixture::user_address(*user)) == *n,
            Answer::CodeLen(len) => state.code(addresses::tether()).len() == *len,
            Answer::Storage(keys, vals) => keys
                .iter()
                .zip(vals)
                .all(|(k, val)| state.storage(addresses::tether(), *k) == *val),
            Answer::Call(user, success, gas, out) => {
                let want = call_readonly(state, hdr, &balance_of(*user));
                want.success == *success && want.gas_used == *gas && want.output == *out
            }
        };
        v.reads_verified += 1;
        if !ok {
            v.bad_reads += 1;
            v.problem(format!("read diverged at height {}", s.height));
        }
    }
}
