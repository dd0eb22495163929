//! In-tree multithreaded stand-in for `rayon`, used because the real
//! crate cannot be fetched (offline build environments).
//!
//! `par_*` calls execute on a deterministic work-stealing [`Pool`] of
//! persistent workers — the paper's 8-core OpenMP host leg, measured
//! instead of simulated. The workspace relies on a small slice of
//! rayon's API (`par_iter[_mut]`, `par_chunks[_exact][_mut]`, `zip`,
//! `enumerate`, `map`, `for_each`, `count`, `sum`, `reduce`), and every
//! entry point here is bitwise deterministic across pool widths:
//!
//! * work is split over a fixed block grid that depends only on the
//!   item count, never on the thread count;
//! * reductions combine per-block partials in block-index order;
//! * so a width-1 run equals a width-8 run bit for bit.
//!
//! Which pool: the one [`Pool::install`]ed on the calling thread, else
//! the process default, whose width is the [`set_active_threads`]
//! override → `BLAST_THREADS` env var →
//! `std::thread::available_parallelism()`. Nested parallel calls, and
//! calls that find their pool busy with another thread's call, walk the
//! same grid serially.

mod iter;
mod pool;

pub use iter::{
    Enumerate, IndexedParallelIterator, IntoParallelIterator, Map, ParChunks, ParChunksExact,
    ParChunksExactMut, ParChunksMut, ParIter, ParIterMut, ParRange, ParallelIterator,
    ParallelSlice, ParallelSliceMut, Producer, Zip,
};
pub use pool::{
    current_num_threads, pool_stats, set_active_threads, BlockConsumer, Pool, PoolStats,
};

pub mod prelude {
    pub use super::{
        IndexedParallelIterator, IntoParallelIterator, ParallelIterator, ParallelSlice,
        ParallelSliceMut,
    };
}
