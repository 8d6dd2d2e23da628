//! Property test for trie residency: `StateCommitter` keeps every node it
//! commits in memory and reuses each account's storage trie across blocks.
//! The same seeded churn is driven through
//!
//! * two resident committers (1 and 4 worker threads), one of them
//!   persisting to a `FileStore` every block;
//! * a cold committer, reopened from its own `FileStore` before every
//!   block, so each block starts from hash links loaded on demand;
//! * a from-scratch rebuild of a plain reference model (what
//!   `State::merkle_root` computes for the same accounts).
//!
//! Churn covers slot inserts, overwrites and deletes, account deletes,
//! re-creation with `reset_storage`, and storage tries emptied slot by
//! slot down to the empty root. At every block all four roots must agree,
//! both stores must hold byte-identical `nodes.log` files, and after the
//! first commit the resident committers must never load a node from the
//! store.

use mtpu_primitives::{Address, SplitMix64, B256, U256};
use mtpu_statedb::{
    empty_code_hash, empty_root, AccountUpdate, FileStore, MemStore, NodeStore, StateCommitter,
};
use std::collections::HashMap;
use std::path::PathBuf;

const BLOCKS: usize = 40;
const OPS_PER_BLOCK: usize = 24;
/// Address pool size — small enough that deletes and recreates hit.
const POOL: u64 = 40;
/// Slot key space — small enough that tries empty out.
const SLOTS: u64 = 24;

#[derive(Clone, Default)]
struct ModelAccount {
    nonce: u64,
    balance: U256,
    storage: HashMap<U256, U256>,
}

type Model = HashMap<Address, ModelAccount>;
type Ops = Vec<(Address, Option<AccountUpdate>)>;

/// One block of churn, applied to the model as it is generated (`None` =
/// delete, zero slot value = slot delete).
fn block_ops(rng: &mut SplitMix64, model: &mut Model, emptied: &mut usize) -> Ops {
    let mut ops = Vec::new();
    for _ in 0..OPS_PER_BLOCK {
        let addr = Address::from_low_u64(rng.random_range(0..POOL) * 0x0101 + 3);
        if model.contains_key(&addr) && rng.random_bool(0.12) {
            model.remove(&addr);
            ops.push((addr, None));
            continue;
        }
        let acct = model.entry(addr).or_default();
        acct.nonce += 1;
        acct.balance = U256::from(rng.random_range(1..1u64 << 48));
        let mut up = AccountUpdate::plain(acct.nonce, acct.balance, empty_code_hash());
        if !acct.storage.is_empty() && rng.random_bool(0.1) {
            // Zero every slot: the trie must collapse to the empty root.
            let mut slots: Vec<U256> = acct.storage.drain().map(|(k, _)| k).collect();
            slots.sort();
            up.storage
                .extend(slots.into_iter().map(|k| (k, U256::ZERO)));
            *emptied += 1;
        } else {
            if rng.random_bool(0.1) {
                up.reset_storage = true;
                acct.storage.clear();
            }
            for _ in 0..rng.random_index(6) {
                let slot = U256::from(rng.random_range(0..SLOTS));
                let value = if rng.random_bool(0.3) {
                    U256::ZERO
                } else {
                    U256::from(rng.next_u64() | 1)
                };
                if value.is_zero() {
                    acct.storage.remove(&slot);
                } else {
                    acct.storage.insert(slot, value);
                }
                up.storage.push((slot, value));
            }
        }
        ops.push((addr, Some(up)));
    }
    ops
}

fn apply<S: NodeStore>(committer: &mut StateCommitter<S>, ops: &Ops) {
    for (addr, up) in ops {
        match up {
            Some(up) => committer.update_account(addr, up),
            None => committer.delete_account(addr),
        }
    }
}

/// The from-scratch oracle: a fresh committer fed the whole model.
fn scratch_root(model: &Model) -> B256 {
    let mut c = StateCommitter::new(MemStore::new());
    for (addr, acct) in model {
        let mut up = AccountUpdate::plain(acct.nonce, acct.balance, empty_code_hash());
        up.reset_storage = true;
        up.storage
            .extend(acct.storage.iter().map(|(&k, &v)| (k, v)));
        c.update_account(addr, &up);
    }
    c.commit()
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mtpu-resident-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn resident_cold_and_scratch_roots_agree_every_block() {
    let (resident_dir, cold_dir) = (scratch_dir("hot"), scratch_dir("cold"));
    let mut rng = SplitMix64::new(0x5e51_de47);
    let mut model = Model::new();
    let mut resident = StateCommitter::new(FileStore::open(&resident_dir).expect("open store"));
    let mut resident4 = StateCommitter::new(MemStore::new()).with_threads(4);
    let (mut emptied, mut cold_loads) = (0usize, 0u64);

    for height in 1..=BLOCKS {
        let ops = block_ops(&mut rng, &mut model, &mut emptied);
        apply(&mut resident, &ops);
        apply(&mut resident4, &ops);
        let root = resident.persist().expect("persist resident");
        assert_eq!(
            root,
            scratch_root(&model),
            "resident root diverged at {height}"
        );
        assert_eq!(
            resident4.commit(),
            root,
            "4-thread root diverged at {height}"
        );

        let mut cold = StateCommitter::new(FileStore::open(&cold_dir).expect("reopen cold"));
        apply(&mut cold, &ops);
        assert_eq!(
            cold.persist().expect("persist cold"),
            root,
            "cold root diverged at {height}"
        );
        cold_loads += cold.stats().nodes_loaded;

        if height > 1 {
            assert_eq!(
                resident.stats().nodes_loaded,
                0,
                "resident store read at {height}"
            );
            assert_eq!(
                resident4.stats().nodes_loaded,
                0,
                "resident store read at {height}"
            );
        }
        assert_eq!(
            resident.stats().cache_misses,
            0,
            "resident cache consulted at {height}"
        );
        let log = |dir: &PathBuf| std::fs::read(dir.join("nodes.log")).expect("read log");
        assert_eq!(
            log(&resident_dir),
            log(&cold_dir),
            "store bytes diverged at {height}"
        );
    }
    assert!(
        cold_loads > 0,
        "the cold committer must load from its store"
    );
    assert!(emptied > 0, "churn must empty some storage tries");

    // Resident reads — records and slots — match the model, and deleted
    // or emptied accounts read back as such.
    for n in 0..POOL {
        let addr = Address::from_low_u64(n * 0x0101 + 3);
        let record = resident.account(&addr);
        let Some(acct) = model.get(&addr) else {
            assert!(record.is_none(), "deleted account still readable");
            continue;
        };
        let record = record.expect("live account missing");
        assert_eq!((record.nonce, record.balance), (acct.nonce, acct.balance));
        if acct.storage.is_empty() {
            assert_eq!(record.storage_root, empty_root());
        }
        for slot in 0..SLOTS {
            let slot = U256::from(slot);
            let want = acct.storage.get(&slot).copied().unwrap_or(U256::ZERO);
            assert_eq!(resident.storage_value(&addr, slot), want);
        }
    }
    assert_eq!(
        resident.stats().nodes_loaded,
        0,
        "resident reads hit the store"
    );
    let _ = std::fs::remove_dir_all(&resident_dir);
    let _ = std::fs::remove_dir_all(&cold_dir);
}
