//! Dense embedding tables with bag lookups and sparse updates.
//!
//! A lookup batch is passed in CSR form: a flat `indices` array plus
//! `offsets` with `offsets[i]..offsets[i+1]` delimiting sample `i`'s
//! indices (PyTorch's `EmbeddingBag` convention, which DLRM/TBSM use with
//! sum pooling). DLRM performs exactly one lookup per table per sample;
//! TBSM's sequence features produce multi-index bags.

use fae_nn::Tensor;
use rand::Rng;

use crate::sparse::SparseGrad;

/// A `rows × dim` embedding table.
///
/// ```
/// use fae_embed::EmbeddingTable;
/// use rand::{rngs::StdRng, SeedableRng};
/// let mut rng = StdRng::seed_from_u64(1);
/// let table = EmbeddingTable::new(1_000, 16, &mut rng);
/// // Two samples: bag {3, 7} (sum-pooled) and bag {42}.
/// let out = table.lookup_bag(&[3, 7, 42], &[0, 2, 3]);
/// assert_eq!(out.shape(), (2, 16));
/// assert_eq!(table.size_bytes(), 1_000 * 16 * 4);
/// ```
#[derive(Clone)]
pub struct EmbeddingTable {
    weights: Tensor,
    dim: usize,
}

impl EmbeddingTable {
    /// Creates a table with DLRM's uniform `±1/sqrt(rows)` initialisation.
    pub fn new(rows: usize, dim: usize, rng: &mut impl Rng) -> Self {
        assert!(rows > 0 && dim > 0, "embedding table must be non-empty");
        let scale = 1.0 / (rows as f32).sqrt();
        Self { weights: fae_nn::init::uniform(rows, dim, scale, rng), dim }
    }

    /// Wraps an existing weight matrix.
    pub fn from_weights(weights: Tensor) -> Self {
        let dim = weights.cols();
        Self { weights, dim }
    }

    /// Number of rows (distinct categorical values).
    pub fn rows(&self) -> usize {
        self.weights.rows()
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Size in bytes of the f32 weights — the unit of Fig 2 / Fig 6a.
    pub fn size_bytes(&self) -> usize {
        self.weights.len() * std::mem::size_of::<f32>()
    }

    /// Immutable weights.
    pub fn weights(&self) -> &Tensor {
        &self.weights
    }

    /// One row of the table.
    pub fn row(&self, idx: u32) -> &[f32] {
        self.weights.row(idx as usize)
    }

    /// Overwrites one row (used by hot-bag write-back).
    pub fn set_row(&mut self, idx: u32, values: &[f32]) {
        self.weights.row_mut(idx as usize).copy_from_slice(values);
    }

    /// Sum-pooled bag lookup. `offsets` has `batch + 1` entries delimiting
    /// each sample's slice of `indices`.
    pub fn lookup_bag(&self, indices: &[u32], offsets: &[usize]) -> Tensor {
        assert!(!offsets.is_empty(), "offsets must contain batch+1 entries");
        assert_eq!(
            offsets.last().copied(),
            Some(indices.len()),
            "offsets must end at indices.len()"
        );
        let batch = offsets.len() - 1;
        let mut out = Tensor::zeros(batch, self.dim);
        for b in 0..batch {
            let dst = out.row_mut(b);
            for &idx in &indices[offsets[b]..offsets[b + 1]] {
                // Elementwise 8-wide add: same accumulation order as the
                // scalar loop it replaced (bag order is preserved).
                fae_nn::lanes::add_assign(dst, self.weights.row(idx as usize));
            }
        }
        out
    }

    /// Backward pass of [`Self::lookup_bag`]: scatters `grad_out`
    /// (`batch × dim`) onto the rows each sample touched, coalescing
    /// duplicates into a [`SparseGrad`].
    pub fn bag_backward(
        &self,
        indices: &[u32],
        offsets: &[usize],
        grad_out: &Tensor,
    ) -> SparseGrad {
        let batch = offsets.len() - 1;
        assert_eq!(grad_out.rows(), batch, "grad_out batch mismatch");
        assert_eq!(grad_out.cols(), self.dim, "grad_out dim mismatch");
        let mut sg = SparseGrad::new(self.dim);
        for b in 0..batch {
            let g = grad_out.row(b);
            for &idx in &indices[offsets[b]..offsets[b + 1]] {
                sg.accumulate(idx, g);
            }
        }
        sg
    }

    /// Sparse SGD update: `row -= lr * grad` for each touched row. The
    /// gradient is already coalesced (duplicates summed in the arena), so
    /// each touched row is read and written exactly once per step.
    pub fn sgd_step_sparse(&mut self, grad: &SparseGrad, lr: f32) {
        for (idx, g) in grad.iter() {
            fae_nn::lanes::axpy(self.weights.row_mut(idx as usize), -lr, g);
        }
    }
}

/// The hot rows of one table, extracted into a compact `hot_count × dim`
/// table indexed by *hot-local* ids. This is what the paper's embedding
/// replicator copies onto every GPU.
#[derive(Clone)]
pub struct HotEmbeddingBag {
    table: EmbeddingTable,
    /// hot-local id -> global row id (sorted ascending).
    global_ids: Vec<u32>,
}

impl HotEmbeddingBag {
    /// Extracts the given global rows (must be sorted, deduplicated) from
    /// `master` into a compact bag.
    pub fn extract(master: &EmbeddingTable, global_ids: Vec<u32>) -> Self {
        debug_assert!(
            global_ids.windows(2).all(|w| w[0] < w[1]),
            "global_ids must be sorted+unique"
        );
        let dim = master.dim();
        let mut weights = Tensor::zeros(global_ids.len().max(1), dim);
        for (local, &g) in global_ids.iter().enumerate() {
            weights.row_mut(local).copy_from_slice(master.row(g));
        }
        Self { table: EmbeddingTable::from_weights(weights), global_ids }
    }

    /// Number of hot rows.
    pub fn hot_rows(&self) -> usize {
        self.global_ids.len()
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.table.dim()
    }

    /// Size in bytes of the hot weights.
    pub fn size_bytes(&self) -> usize {
        self.global_ids.len() * self.dim() * std::mem::size_of::<f32>()
    }

    /// Global ids of the hot rows, sorted ascending.
    pub fn global_ids(&self) -> &[u32] {
        &self.global_ids
    }

    /// Underlying compact table (hot-local indexing).
    pub fn table(&self) -> &EmbeddingTable {
        &self.table
    }

    /// Mutable compact table.
    pub fn table_mut(&mut self) -> &mut EmbeddingTable {
        &mut self.table
    }

    /// Copies every hot row back into `master` (the hot→cold transition
    /// sync of §III-C).
    pub fn write_back(&self, master: &mut EmbeddingTable) {
        for (local, &g) in self.global_ids.iter().enumerate() {
            master.set_row(g, self.table.row(local as u32));
        }
    }

    /// Refreshes every hot row from `master` (the cold→hot transition).
    pub fn refresh_from(&mut self, master: &EmbeddingTable) {
        for (local, &g) in self.global_ids.iter().enumerate() {
            self.table.set_row(local as u32, master.row(g));
        }
    }

    /// Bytes moved by one CPU↔GPU hot-row synchronisation.
    pub fn sync_bytes(&self) -> usize {
        self.size_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn table_with(rows: usize, dim: usize, f: impl Fn(usize, usize) -> f32) -> EmbeddingTable {
        EmbeddingTable::from_weights(Tensor::from_fn(rows, dim, f))
    }

    #[test]
    fn lookup_single_index_per_sample() {
        let t = table_with(4, 2, |r, c| (r * 10 + c) as f32);
        let out = t.lookup_bag(&[2, 0, 3], &[0, 1, 2, 3]);
        assert_eq!(out.as_slice(), &[20.0, 21.0, 0.0, 1.0, 30.0, 31.0]);
    }

    #[test]
    fn lookup_sum_pools_multi_index_bags() {
        let t = table_with(4, 2, |r, _| r as f32);
        // Sample 0: rows {1, 2}; sample 1: empty bag; sample 2: row {3} twice.
        let out = t.lookup_bag(&[1, 2, 3, 3], &[0, 2, 2, 4]);
        assert_eq!(out.as_slice(), &[3.0, 3.0, 0.0, 0.0, 6.0, 6.0]);
    }

    #[test]
    #[should_panic(expected = "offsets must end")]
    fn lookup_rejects_bad_offsets() {
        let t = table_with(4, 2, |_, _| 0.0);
        let _ = t.lookup_bag(&[1, 2], &[0, 1]);
    }

    #[test]
    fn bag_backward_coalesces_duplicates() {
        let t = table_with(4, 2, |_, _| 0.0);
        let grad = Tensor::from_vec(2, 2, vec![1.0, 2.0, 10.0, 20.0]);
        // Both samples touch row 1; sample 1 also touches row 3.
        let sg = t.bag_backward(&[1, 1, 3], &[0, 1, 3], &grad);
        assert_eq!(sg.nnz_rows(), 2);
        let rows: Vec<_> = sg.iter().collect();
        assert_eq!(rows[0].0, 1);
        assert_eq!(rows[0].1, &[11.0, 22.0]);
        assert_eq!(rows[1].0, 3);
        assert_eq!(rows[1].1, &[10.0, 20.0]);
    }

    #[test]
    fn sparse_sgd_only_touches_listed_rows() {
        let mut t = table_with(3, 2, |_, _| 1.0);
        let mut sg = SparseGrad::new(2);
        sg.accumulate(1, &[2.0, 4.0]);
        t.sgd_step_sparse(&sg, 0.5);
        assert_eq!(t.row(0), &[1.0, 1.0]);
        assert_eq!(t.row(1), &[0.0, -1.0]);
        assert_eq!(t.row(2), &[1.0, 1.0]);
    }

    #[test]
    fn lookup_then_update_gradient_descent_reduces_loss() {
        // Sanity: training an embedding row towards a target via the bag
        // path converges.
        let mut rng = StdRng::seed_from_u64(1);
        let mut t = EmbeddingTable::new(8, 4, &mut rng);
        let target = [1.0f32, -1.0, 0.5, 0.0];
        for _ in 0..200 {
            let out = t.lookup_bag(&[5], &[0, 1]);
            let grad = Tensor::from_vec(
                1,
                4,
                out.row(0).iter().zip(&target).map(|(&o, &t)| 2.0 * (o - t)).collect(),
            );
            let sg = t.bag_backward(&[5], &[0, 1], &grad);
            t.sgd_step_sparse(&sg, 0.1);
        }
        for (v, tgt) in t.row(5).iter().zip(&target) {
            assert!((v - tgt).abs() < 1e-3);
        }
    }

    #[test]
    fn size_bytes_matches_shape() {
        let mut rng = StdRng::seed_from_u64(2);
        let t = EmbeddingTable::new(1000, 16, &mut rng);
        assert_eq!(t.size_bytes(), 1000 * 16 * 4);
    }

    #[test]
    fn hot_bag_extract_and_lookup_matches_master() {
        let master = table_with(10, 3, |r, c| (r * 100 + c) as f32);
        let bag = HotEmbeddingBag::extract(&master, vec![2, 5, 9]);
        assert_eq!(bag.hot_rows(), 3);
        assert_eq!(bag.size_bytes(), 3 * 3 * 4);
        assert_eq!(bag.table().row(0), master.row(2));
        assert_eq!(bag.table().row(1), master.row(5));
        assert_eq!(bag.table().row(2), master.row(9));
    }

    #[test]
    fn hot_bag_write_back_and_refresh_round_trip() {
        let mut master = table_with(6, 2, |r, _| r as f32);
        let mut bag = HotEmbeddingBag::extract(&master, vec![1, 4]);
        // Train the hot copy, then sync back.
        bag.table_mut().set_row(0, &[100.0, 100.0]);
        bag.write_back(&mut master);
        assert_eq!(master.row(1), &[100.0, 100.0]);
        assert_eq!(master.row(4), &[4.0, 4.0]); // untouched hot row preserved
                                                // Cold phase updates the master; refresh pulls it into the bag.
        master.set_row(4, &[-7.0, -7.0]);
        bag.refresh_from(&master);
        assert_eq!(bag.table().row(1), &[-7.0, -7.0]);
    }

    #[test]
    fn empty_hot_bag_is_valid() {
        let master = table_with(4, 2, |_, _| 0.0);
        let bag = HotEmbeddingBag::extract(&master, vec![]);
        assert_eq!(bag.hot_rows(), 0);
        assert_eq!(bag.size_bytes(), 0);
    }
}
