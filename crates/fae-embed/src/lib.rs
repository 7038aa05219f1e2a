//! # fae-embed — embedding-table substrate
//!
//! Embedding tables are the memory-bound half of a recommendation model and
//! the object the FAE paper partitions into *hot* and *cold* halves. This
//! crate provides:
//!
//! * [`EmbeddingTable`] — a dense `rows × dim` table with CSR-style bag
//!   lookups (sum pooling), sparse gradient accumulation and sparse SGD,
//! * [`AccessCounter`] — per-row access statistics (the paper's *embedding
//!   logger* writes into one of these),
//! * [`HotColdPartition`] — the hot/cold row split induced by an access
//!   threshold, with global→hot-local index remapping,
//! * [`HotEmbeddingBag`] — the extracted hot rows as a compact table that
//!   fits in GPU memory, plus write-back to the master table,
//! * [`ShardedEmbeddingTable`] — row-range shards behind per-shard locks
//!   for Hogwild-style concurrent lookups and sparse SGD from the parallel
//!   execution engine's worker threads,
//! * [`sparse::SparseGrad`] — coalesced sparse gradients.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod deferred;
pub mod partition;
pub mod quant;
pub mod sharded;
pub mod sparse;
pub mod stats;
pub mod table;

pub use deferred::{DeferredSparse, SkipStats};
pub use partition::{HotColdPartition, RowClass};
pub use quant::{dequantize, quantize_row, TieredTable};
pub use sharded::ShardedEmbeddingTable;
pub use sparse::SparseGrad;
pub use stats::AccessCounter;
pub use table::{EmbeddingTable, HotEmbeddingBag};
