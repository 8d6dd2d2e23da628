//! The mempool extracts admission footprints with the storage-only
//! tracer (`trace_storage`) instead of a full `TraceRecorder`. This checks
//! that the swap is invisible to the packer: over the TOP8 `Generator`
//! stream, with fusion on and with fusion off, both tracers yield equal
//! read/write sets for every transaction.
//!
//! The fusion switch is process-global, so this check lives in its own
//! test binary.

use mtpu::sched::{storage_rw_set, tx_rw_set, SlotKey};
use mtpu_evm::overlay::StateOverlay;
use mtpu_evm::{
    execute_transaction, set_fusion_enabled, trace_storage, trace_transaction, NoopTracer,
};
use mtpu_workloads::{BlockConfig, Generator};

const BLOCKS: usize = 6;

/// Walks the generated stream in order, comparing both tracers on an
/// overlay over the pre-transaction state, then applies the transaction.
/// Returns every transaction's read/write set, as sorted key lists.
fn footprints(fusion: bool) -> Vec<(Vec<SlotKey>, Vec<SlotKey>)> {
    set_fusion_enabled(fusion);
    let mut gen = Generator::new(0x7ACE);
    let mut sets = Vec::new();
    for _ in 0..BLOCKS {
        let block = gen.block(&BlockConfig::default());
        let mut state = gen.fx.state.clone();
        for tx in &block.transactions {
            let full = {
                let mut overlay = StateOverlay::new(&state);
                let (_, trace) = trace_transaction(&mut overlay, &block.header, tx).expect("valid");
                tx_rw_set(tx, &trace)
            };
            let lean = {
                let mut overlay = StateOverlay::new(&state);
                let (_, accesses) = trace_storage(&mut overlay, &block.header, tx).expect("valid");
                storage_rw_set(tx, &accesses)
            };
            assert_eq!(full.reads, lean.reads, "read sets differ (fusion {fusion})");
            assert_eq!(
                full.writes, lean.writes,
                "write sets differ (fusion {fusion})"
            );
            let fp = full.footprint();
            sets.push((fp.reads().to_vec(), fp.writes().to_vec()));
            execute_transaction(&mut state, &block.header, tx, &mut NoopTracer).expect("valid");
        }
        gen.fx.state = state;
    }
    sets
}

#[test]
fn storage_tracer_matches_full_trace_with_and_without_fusion() {
    let fused = footprints(true);
    let unfused = footprints(false);
    set_fusion_enabled(true);
    assert_eq!(fused.len(), BLOCKS * BlockConfig::default().tx_count);
    assert!(
        fused.iter().any(|(r, w)| !r.is_empty() && !w.is_empty()),
        "the stream must touch storage"
    );
    assert_eq!(fused, unfused, "fusion changed a footprint");
}
