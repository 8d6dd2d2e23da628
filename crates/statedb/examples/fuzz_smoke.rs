//! Randomized trie churn smoke test, run by `scripts/check.sh` and CI.
//!
//! Drives 5 000 random operations (weighted insert / overwrite / delete,
//! with periodic commits) through a resident incremental [`Trie`], which
//! keeps every committed node in memory. After every commit its root is
//! checked against (a) a cold trie reopened from a [`FileStore`] root
//! that replays the same period's operations through hash links loaded
//! on demand, and (b) a naive trie rebuilt from scratch out of a plain
//! `HashMap` reference model. Any divergence — dirty-path tracking,
//! branch collapse, inline-node boundaries, resident vs loaded nodes —
//! panics, as does a resident store read; success prints a one-line
//! summary.

use mtpu_primitives::SplitMix64;
use mtpu_statedb::{FileStore, MemStore, NodeDb, NodeStore, Trie};
use std::collections::HashMap;

const OPS: usize = 5_000;
const COMMIT_EVERY: usize = 250;

fn main() {
    let seed = std::env::args()
        .nth(1)
        .map(|s| s.parse().expect("seed must be a u64"))
        .unwrap_or(0xF022_5EED);
    let mut rng = SplitMix64::new(seed);
    let cold_dir = std::env::temp_dir().join(format!("mtpu-fuzz-smoke-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&cold_dir);

    let mut db = NodeDb::new(MemStore::new());
    let mut trie = Trie::empty();
    let mut model: HashMap<Vec<u8>, Vec<u8>> = HashMap::new();
    // Keys live in a bounded pool so deletes and overwrites actually hit.
    let mut pool: Vec<Vec<u8>> = Vec::new();
    // This period's operations (`None` = delete), replayed cold.
    let mut period: Vec<(Vec<u8>, Option<Vec<u8>>)> = Vec::new();
    let mut commits = 0usize;
    let mut cold_loaded = 0u64;

    for op in 1..=OPS {
        let delete = !pool.is_empty() && rng.random_bool(0.25);
        if delete {
            let key = pool[rng.random_index(pool.len())].clone();
            trie.remove(&mut db, &key);
            model.remove(&key);
            period.push((key, None));
        } else {
            let reuse = !pool.is_empty() && rng.random_bool(0.4);
            let key = if reuse {
                pool[rng.random_index(pool.len())].clone()
            } else {
                let mut k = vec![0u8; rng.random_range(1..36) as usize];
                rng.fill_bytes(&mut k);
                pool.push(k.clone());
                k
            };
            let mut v = vec![0u8; rng.random_range(1..52) as usize];
            rng.fill_bytes(&mut v);
            trie.insert(&mut db, &key, &v);
            model.insert(key.clone(), v.clone());
            period.push((key, Some(v)));
        }

        if op % COMMIT_EVERY == 0 {
            let got = trie.commit(&mut db);

            let store = FileStore::open(&cold_dir).expect("open cold store");
            let mut cold = store.root().map_or_else(Trie::empty, Trie::from_root);
            let mut cold_db = NodeDb::new(store);
            for (key, value) in period.drain(..) {
                match value {
                    Some(v) => cold.insert(&mut cold_db, &key, &v),
                    None => cold.remove(&mut cold_db, &key),
                }
            }
            let cold_root = cold.commit(&mut cold_db);
            cold_db.sync(cold_root).expect("sync cold store");
            cold_loaded += cold_db.stats().nodes_loaded;
            assert_eq!(
                got, cold_root,
                "resident root diverged from cold reopen at op {op}"
            );

            let mut ref_db = NodeDb::new(MemStore::new());
            let mut reference = Trie::empty();
            for (k, v) in &model {
                reference.insert(&mut ref_db, k, v);
            }
            let want = reference.commit(&mut ref_db);
            assert_eq!(
                got, want,
                "incremental root diverged from scratch rebuild at op {op}"
            );
            assert_eq!(
                db.stats().nodes_loaded,
                0,
                "resident trie read its store at op {op}"
            );
            commits += 1;
        }
    }
    let _ = std::fs::remove_dir_all(&cold_dir);
    assert!(
        cold_loaded > 0,
        "the cold trie must load nodes from its store"
    );

    let stats = db.stats();
    println!(
        "fuzz_smoke ok: seed={seed:#x} ops={OPS} commits={commits} live_keys={} \
         nodes_hashed={} resident_nodes_loaded={} cold_nodes_loaded={cold_loaded}",
        model.len(),
        stats.nodes_hashed,
        stats.nodes_loaded,
    );
}
