//! The Embedding Replicator (§III, component 3): the hot-embedding bags as
//! an [`EmbeddingSource`], plus the CPU↔GPU synchronisation performed at
//! hot/cold schedule transitions.
//!
//! Numerically, the N GPU replicas would stay bit-identical: every one
//! applies the same reduced gradient, exactly as the [`crate::exec`]
//! engine's model replicas do (`examples/distributed_replicas.rs` shows
//! the divergence staying 0.0). So the trainer computes against one
//! logical copy; the *cost* of keeping N replicas in sync is charged by
//! `fae-sysmodel`. Lookups translate global
//! row ids to hot-local ids through the partitions; touching a cold row
//! through this source is a bug in the input processor and panics.
//!
//! Since the parallel execution engine landed, the one logical copy is a
//! [`ShardedEmbeddingTable`] per table: hot-bag lookups from concurrent
//! worker threads take per-shard read locks instead of serialising, and
//! the merged sparse gradient is applied shard-parallel
//! ([`HotEmbeddings::apply_shared`]) — disjoint row ranges, so the result
//! is bit-identical to a serial application.

use fae_nn::Tensor;

use fae_embed::{EmbeddingTable, HotColdPartition, ShardedEmbeddingTable, SparseGrad};
use fae_models::{EmbeddingSource, MasterEmbeddings};
use fae_telemetry::Telemetry;

/// Row-range shards per hot table — enough to keep a handful of worker
/// threads from colliding, few enough that lock overhead stays invisible
/// next to the lookup work.
const HOT_SHARDS: usize = 8;

/// Hot-embedding bags for every table, with global→local id translation.
pub struct HotEmbeddings {
    /// Compact hot tables (hot-local row ids), sharded for concurrency.
    tables: Vec<ShardedEmbeddingTable>,
    /// Per table: hot-local id -> global row id, sorted ascending.
    global_ids: Vec<Vec<u32>>,
    partitions: Vec<HotColdPartition>,
    /// Per table: whether each hot-local row currently holds fresh bytes
    /// on the devices. Full replication (the default, and the only mode
    /// when the lookahead oracle is off) keeps every row resident; the
    /// oracle's partial refreshes shrink this to the planned access set.
    resident: Vec<Vec<bool>>,
    dim: usize,
    telemetry: Telemetry,
}

impl HotEmbeddings {
    /// Extracts the hot rows of every master table per the partitions.
    /// Rows are read through the master's row-level accessors, so a
    /// quantized (tiered) master works too — its hot rows are stored
    /// exact f32, so the extracted bags carry no quantization error.
    pub fn build(master: &MasterEmbeddings, partitions: Vec<HotColdPartition>) -> Self {
        assert_eq!(partitions.len(), master.num_tables(), "one partition per table");
        let dim = master.dim();
        let mut tables = Vec::with_capacity(partitions.len());
        let mut global_ids = Vec::with_capacity(partitions.len());
        for (t, p) in partitions.iter().enumerate() {
            let ids = p.hot_ids().to_vec();
            let mut weights = Tensor::zeros(ids.len().max(1), dim);
            for (local, &g) in ids.iter().enumerate() {
                master.copy_row_into(t, g, weights.row_mut(local));
            }
            let bag = EmbeddingTable::from_weights(weights);
            tables.push(ShardedEmbeddingTable::from_table(&bag, HOT_SHARDS));
            global_ids.push(ids);
        }
        let resident = global_ids.iter().map(|ids| vec![true; ids.len()]).collect();
        Self { tables, global_ids, partitions, resident, dim, telemetry: Telemetry::disabled() }
    }

    /// Attaches a telemetry handle: refreshes and write-backs are counted
    /// (`replicator.refreshes` / `replicator.write_backs`) along with the
    /// bytes they move (`replicator.moved_bytes`).
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        telemetry.gauge_set("replicator.hot_bytes", self.hot_bytes() as f64);
        self.telemetry = telemetry;
    }

    /// Total bytes of the hot bags (per GPU replica).
    pub fn hot_bytes(&self) -> usize {
        self.global_ids.iter().map(|ids| ids.len() * self.dim * std::mem::size_of::<f32>()).sum()
    }

    /// Bytes that cross PCIe per CPU↔GPU synchronisation (per replica):
    /// the full hot bags, since a transition refresh/write-back moves
    /// every hot row.
    pub fn sync_bytes(&self) -> usize {
        self.hot_bytes()
    }

    /// The partitions backing this source.
    pub fn partitions(&self) -> &[HotColdPartition] {
        &self.partitions
    }

    /// Hot→cold transition: pushes trained hot rows back into the master
    /// tables so cold batches (and evaluation) see them.
    pub fn write_back(&self, master: &mut MasterEmbeddings) {
        for (t, (sharded, ids)) in self.tables.iter().zip(&self.global_ids).enumerate() {
            let snapshot = sharded.to_table();
            for (local, &g) in ids.iter().enumerate() {
                master.set_row(t, g, snapshot.row(local as u32));
            }
        }
        self.telemetry.counter_add("replicator.write_backs", 1);
        self.telemetry.counter_add("replicator.moved_bytes", self.sync_bytes() as u64);
    }

    /// Cold→hot transition: pulls rows updated by cold batches back into
    /// the bags. Restores full residency.
    pub fn refresh_from(&mut self, master: &MasterEmbeddings) {
        let mut buf = vec![0.0f32; self.dim];
        for (t, (sharded, ids)) in self.tables.iter().zip(&self.global_ids).enumerate() {
            for (local, &g) in ids.iter().enumerate() {
                master.copy_row_into(t, g, &mut buf);
                sharded.set_row(local as u32, &buf);
            }
        }
        for mask in &mut self.resident {
            mask.fill(true);
        }
        self.telemetry.counter_add("replicator.refreshes", 1);
        self.telemetry.counter_add("replicator.moved_bytes", self.sync_bytes() as u64);
    }

    /// Rows currently resident on the devices, across all tables.
    pub fn resident_rows(&self) -> usize {
        self.resident.iter().map(|m| m.iter().filter(|&&r| r).count()).sum()
    }

    /// Oracle-driven cold→hot transition: refreshes exactly the rows in
    /// `plan` (per-table global ids, the union of the next window's
    /// access sets) and marks everything else non-resident. Returns the
    /// bytes moved and the number of previously-resident rows evicted
    /// (eviction moves no bytes: the master already holds their values —
    /// hot rows are only written on the devices *after* a refresh, and
    /// written rows are written back before the next refresh).
    pub fn refresh_rows(&mut self, master: &MasterEmbeddings, plan: &[Vec<u32>]) -> (u64, u64) {
        assert_eq!(plan.len(), self.tables.len(), "one plan per table");
        let mut buf = vec![0.0f32; self.dim];
        let mut moved_rows = 0u64;
        let mut evicted = 0u64;
        for (t, rows) in plan.iter().enumerate() {
            let sharded = &self.tables[t];
            let p = &self.partitions[t];
            let mask = &mut self.resident[t];
            let mut next = vec![false; mask.len()];
            for &g in rows {
                // Cold ids in a plan would be input-processor corruption;
                // they cannot be made resident, so skip rather than panic.
                let Some(local) = p.hot_local(g) else { continue };
                master.copy_row_into(t, g, &mut buf);
                sharded.set_row(local, &buf);
                next[local as usize] = true;
                moved_rows += 1;
            }
            evicted += mask.iter().zip(&next).filter(|&(&was, &is)| was && !is).count() as u64;
            *mask = next;
        }
        let moved_bytes = moved_rows * (self.dim * std::mem::size_of::<f32>()) as u64;
        self.telemetry.counter_add("replicator.refreshes", 1);
        self.telemetry.counter_add("replicator.moved_bytes", moved_bytes);
        (moved_bytes, evicted)
    }

    /// Fetches every row of `sets` (per-table global ids) that is not
    /// already resident — the oracle's sliding-window prefetch, and the
    /// demand-miss path should a non-resident row ever be accessed.
    /// Returns the rows and bytes moved.
    pub fn fetch_missing(&mut self, master: &MasterEmbeddings, sets: &[Vec<u32>]) -> (u64, u64) {
        assert_eq!(sets.len(), self.tables.len(), "one set per table");
        let mut buf = vec![0.0f32; self.dim];
        let mut rows_moved = 0u64;
        for (t, rows) in sets.iter().enumerate() {
            let sharded = &self.tables[t];
            let p = &self.partitions[t];
            let mask = &mut self.resident[t];
            for &g in rows {
                let Some(local) = p.hot_local(g) else { continue };
                if mask[local as usize] {
                    continue;
                }
                master.copy_row_into(t, g, &mut buf);
                sharded.set_row(local, &buf);
                mask[local as usize] = true;
                rows_moved += 1;
            }
        }
        let bytes = rows_moved * (self.dim * std::mem::size_of::<f32>()) as u64;
        if rows_moved > 0 {
            self.telemetry.counter_add("replicator.moved_bytes", bytes);
        }
        (rows_moved, bytes)
    }

    /// Hot→cold transition under the oracle: writes back only the
    /// resident rows (non-resident rows were never readable on the
    /// devices, so their device bytes are stale by construction and the
    /// master copy is already authoritative). Returns bytes moved.
    pub fn write_back_resident(&self, master: &mut MasterEmbeddings) -> u64 {
        let mut rows_moved = 0u64;
        for (t, ((sharded, ids), mask)) in
            self.tables.iter().zip(&self.global_ids).zip(&self.resident).enumerate()
        {
            let snapshot = sharded.to_table();
            for (local, &g) in ids.iter().enumerate() {
                if !mask[local] {
                    continue;
                }
                master.set_row(t, g, snapshot.row(local as u32));
                rows_moved += 1;
            }
        }
        let bytes = rows_moved * (self.dim * std::mem::size_of::<f32>()) as u64;
        self.telemetry.counter_add("replicator.write_backs", 1);
        self.telemetry.counter_add("replicator.moved_bytes", bytes);
        bytes
    }

    fn translate(&self, t: usize, indices: &[u32]) -> Vec<u32> {
        let p = &self.partitions[t];
        indices
            .iter()
            .map(|&g| {
                p.hot_local(g).unwrap_or_else(|| {
                    // fae-lint: allow(no-panic, reason = "classifier routing corruption: continuing would train on garbage rows, so fail fast")
                    panic!("cold row {g} of table {t} looked up through the hot source")
                })
            })
            .collect()
    }

    /// Applies per-table sparse gradients through `&self`: remaps global
    /// row ids to hot-local, then updates each table shard-parallel. This
    /// is the path the execution engine uses after reducing worker
    /// gradients — shards are disjoint row ranges, so the parallel
    /// application is bit-identical to [`EmbeddingSource`]'s serial one.
    pub fn apply_shared(&self, grads: &[SparseGrad], lr: f32) {
        assert_eq!(grads.len(), self.tables.len(), "one gradient per table");
        for ((sharded, p), g) in self.tables.iter().zip(&self.partitions).zip(grads) {
            // remap_ref borrows: no clone of the gradient arena per step.
            let local = g.remap_ref(|global| {
                p.hot_local(global)
                    // fae-lint: allow(no-panic, reason = "classifier routing corruption: continuing would train on garbage rows, so fail fast")
                    .unwrap_or_else(|| panic!("cold row {global} updated through the hot source"))
            });
            sharded.sgd_step_sparse_parallel(&local, lr);
        }
    }
}

impl EmbeddingSource for HotEmbeddings {
    fn lookup(&self, t: usize, indices: &[u32], offsets: &[usize]) -> Tensor {
        let local = self.translate(t, indices);
        self.tables[t].lookup_bag(&local, offsets)
    }

    fn apply_sparse_grads(&mut self, grads: &[SparseGrad], lr: f32) {
        self.apply_shared(grads, lr);
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn num_tables(&self) -> usize {
        self.tables.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fae_data::WorkloadSpec;
    use fae_embed::AccessCounter;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (MasterEmbeddings, HotEmbeddings) {
        let spec = WorkloadSpec::tiny_test();
        let mut rng = StdRng::seed_from_u64(3);
        let master = MasterEmbeddings::from_spec(&spec, &mut rng);
        // Hot rows: multiples of 3 in every table.
        let parts: Vec<HotColdPartition> = spec
            .tables
            .iter()
            .map(|t| {
                let mut c = AccessCounter::new(t.rows);
                for r in (0..t.rows).step_by(3) {
                    c.record(r as u32);
                }
                HotColdPartition::from_counts(&c, 1)
            })
            .collect();
        let hot = HotEmbeddings::build(&master, parts);
        (master, hot)
    }

    #[test]
    fn hot_lookup_matches_master() {
        let (master, hot) = setup();
        let out_hot = hot.lookup(0, &[0, 3, 9], &[0, 1, 2, 3]);
        let out_master = master.lookup(0, &[0, 3, 9], &[0, 1, 2, 3]);
        assert_eq!(out_hot.as_slice(), out_master.as_slice());
    }

    #[test]
    #[should_panic(expected = "cold row")]
    fn cold_lookup_panics() {
        let (_, hot) = setup();
        let _ = hot.lookup(0, &[1], &[0, 1]);
    }

    #[test]
    fn grads_apply_to_hot_copy_then_sync_back() {
        let (mut master, mut hot) = setup();
        let before = master.lookup(1, &[6], &[0, 1]);
        let mut grads: Vec<SparseGrad> =
            (0..hot.num_tables()).map(|_| SparseGrad::new(hot.dim())).collect();
        grads[1].accumulate(6, &vec![2.0; hot.dim()]);
        hot.apply_sparse_grads(&grads, 0.5);
        // Master unchanged until write-back.
        assert_eq!(master.lookup(1, &[6], &[0, 1]).as_slice(), before.as_slice());
        hot.write_back(&mut master);
        let after = master.lookup(1, &[6], &[0, 1]);
        for (b, a) in before.as_slice().iter().zip(after.as_slice()) {
            assert!((b - 1.0 - a).abs() < 1e-6);
        }
    }

    #[test]
    fn apply_shared_matches_apply_sparse_grads() {
        let (_, hot_a) = setup();
        let (_, mut hot_b) = setup();
        let mut grads: Vec<SparseGrad> =
            (0..hot_a.num_tables()).map(|_| SparseGrad::new(hot_a.dim())).collect();
        for row in [0u32, 3, 6, 9] {
            grads[0].accumulate(row, &vec![1.5; hot_a.dim()]);
        }
        hot_a.apply_shared(&grads, 0.5);
        hot_b.apply_sparse_grads(&grads, 0.5);
        for row in [0u32, 3, 6, 9] {
            assert_eq!(
                hot_a.lookup(0, &[row], &[0, 1]).as_slice(),
                hot_b.lookup(0, &[row], &[0, 1]).as_slice()
            );
        }
    }

    #[test]
    fn refresh_pulls_cold_phase_updates() {
        let (mut master, mut hot) = setup();
        // Cold phase trains hot row 3 on the CPU master copy.
        let mut grads: Vec<SparseGrad> =
            (0..master.num_tables()).map(|_| SparseGrad::new(master.dim())).collect();
        grads[0].accumulate(3, &vec![4.0; master.dim()]);
        master.apply_sparse_grads(&grads, 0.25);
        hot.refresh_from(&master);
        let hot_val = hot.lookup(0, &[3], &[0, 1]);
        let master_val = master.lookup(0, &[3], &[0, 1]);
        assert_eq!(hot_val.as_slice(), master_val.as_slice());
    }

    #[test]
    fn hot_bytes_counts_extracted_rows() {
        let (_, hot) = setup();
        let expect: usize = hot.partitions().iter().map(|p| p.hot_count() * hot.dim() * 4).sum();
        assert_eq!(hot.hot_bytes(), expect);
        assert!(hot.hot_bytes() > 0);
        // A transition moves the whole bag, so the two byte counts agree.
        assert_eq!(hot.sync_bytes(), hot.hot_bytes());
    }

    #[test]
    fn partial_refresh_tracks_residency_and_evictions() {
        let (master, mut hot) = setup();
        let all = hot.resident_rows();
        assert_eq!(all, hot.partitions().iter().map(|p| p.hot_count()).sum::<usize>());
        // Plan only rows {0, 3} of table 0 (and nothing elsewhere).
        let mut plan: Vec<Vec<u32>> = vec![Vec::new(); hot.num_tables()];
        plan[0] = vec![0, 3];
        let (moved, evicted) = hot.refresh_rows(&master, &plan);
        assert_eq!(moved, 2 * (hot.dim() * 4) as u64);
        assert_eq!(evicted as usize, all - 2);
        assert_eq!(hot.resident_rows(), 2);
        // Sliding prefetch: row 6 of table 0 was evicted; fetch it back.
        let mut set: Vec<Vec<u32>> = vec![Vec::new(); hot.num_tables()];
        set[0] = vec![0, 6];
        let (rows, bytes) = hot.fetch_missing(&master, &set);
        assert_eq!((rows, bytes), (1, (hot.dim() * 4) as u64));
        assert_eq!(hot.resident_rows(), 3);
        // Already-resident rows fetch nothing.
        assert_eq!(hot.fetch_missing(&master, &set), (0, 0));
        // A full refresh restores total residency.
        hot.refresh_from(&master);
        assert_eq!(hot.resident_rows(), all);
    }

    #[test]
    fn resident_write_back_only_moves_resident_rows() {
        let (mut master, mut hot) = setup();
        let mut plan: Vec<Vec<u32>> = vec![Vec::new(); hot.num_tables()];
        plan[0] = vec![3];
        hot.refresh_rows(&master, &plan);
        // Train resident row 3 on the devices.
        let mut grads: Vec<SparseGrad> =
            (0..hot.num_tables()).map(|_| SparseGrad::new(hot.dim())).collect();
        grads[0].accumulate(3, &vec![2.0; hot.dim()]);
        hot.apply_shared(&grads, 0.5);
        let before_row6 = master.lookup(0, &[6], &[0, 1]);
        let before_row3 = master.lookup(0, &[3], &[0, 1]);
        let bytes = hot.write_back_resident(&mut master);
        assert_eq!(bytes, (hot.dim() * 4) as u64);
        // The trained resident row landed; the evicted row is untouched.
        let after_row3 = master.lookup(0, &[3], &[0, 1]);
        for (b, a) in before_row3.as_slice().iter().zip(after_row3.as_slice()) {
            assert!((b - 1.0 - a).abs() < 1e-6);
        }
        assert_eq!(master.lookup(0, &[6], &[0, 1]).as_slice(), before_row6.as_slice());
    }

    #[test]
    fn hot_source_is_sync() {
        fn assert_sync<T: Sync>() {}
        assert_sync::<HotEmbeddings>();
    }
}
