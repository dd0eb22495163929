//! Parallel iterator types: splittable producers plus the adapter and
//! reduction surface the workspace uses (`zip`, `enumerate`, `map`,
//! `for_each`, `count`, `sum`, `reduce`).
//!
//! A [`Producer`] describes `len` items that can be cut at any index
//! into two independent producers; the pool cuts along its fixed block
//! grid and turns each block into a serial iterator. Items are visited
//! in index order within a block and blocks combine in index order, so
//! every terminal operation is bitwise deterministic regardless of the
//! thread count (see `crate::pool`).

use std::marker::PhantomData;

use crate::pool::{self, BlockConsumer};

/// A splittable, sendable description of an indexed sequence of items.
pub trait Producer: Send + Sized {
    /// Item handed to the consumer closure.
    type Item: Send;
    /// Serial iterator over one block of items.
    type IntoIter: Iterator<Item = Self::Item>;

    /// Remaining number of items.
    fn len(&self) -> usize;
    /// `true` when no items remain.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Cuts into `[0, index)` and `[index, len)`.
    fn split_at(self, index: usize) -> (Self, Self);
    /// Degrades into a serial iterator (used per block).
    fn into_iter(self) -> Self::IntoIter;
}

/// rayon-compatible terminal-operation surface; implemented for every
/// producer through a blanket impl.
pub trait ParallelIterator: Sized {
    /// Item handed to consumer closures.
    type Item: Send;

    /// Runs `consumer` over each fixed-grid block and returns the
    /// per-block partials in block-index order (the primitive every
    /// other method is built on).
    fn drive_blocks<R, C>(self, consumer: C) -> Vec<R>
    where
        R: Send,
        C: BlockConsumer<Self::Item, R>;

    /// Calls `f` on every item, in parallel across blocks.
    fn for_each<F>(self, f: F)
    where
        F: Fn(Self::Item) + Sync,
    {
        struct ForEach<F>(F);
        impl<T, F: Fn(T) + Sync> BlockConsumer<T, ()> for ForEach<F> {
            fn consume<I: Iterator<Item = T>>(&self, block: I) {
                block.for_each(|x| (self.0)(x));
            }
        }
        self.drive_blocks(ForEach(f));
    }

    /// Number of items (consumes the iterator, like rayon).
    fn count(self) -> usize {
        struct Count;
        impl<T> BlockConsumer<T, usize> for Count {
            fn consume<I: Iterator<Item = T>>(&self, block: I) -> usize {
                block.count()
            }
        }
        self.drive_blocks(Count).into_iter().sum()
    }

    /// Maps every item through `f`.
    fn map<R, F>(self, f: F) -> Map<Self, F>
    where
        R: Send,
        F: Fn(Self::Item) -> R + Sync,
    {
        Map { inner: self, f }
    }

    /// Sums items block by block, then the per-block partials in block
    /// order — bitwise deterministic for every thread count.
    fn sum<S>(self) -> S
    where
        S: Send + std::iter::Sum<Self::Item> + std::iter::Sum<S>,
    {
        struct SumBlocks<S>(PhantomData<fn() -> S>);
        impl<T, S: Send + std::iter::Sum<T>> BlockConsumer<T, S> for SumBlocks<S> {
            fn consume<I: Iterator<Item = T>>(&self, block: I) -> S {
                block.sum()
            }
        }
        self.drive_blocks(SumBlocks::<S>(PhantomData)).into_iter().sum()
    }

    /// Folds each block from `identity()` in index order, then folds
    /// the partials in block order — deterministic like [`Self::sum`].
    fn reduce<ID, OP>(self, identity: ID, op: OP) -> Self::Item
    where
        ID: Fn() -> Self::Item + Sync,
        OP: Fn(Self::Item, Self::Item) -> Self::Item + Sync,
    {
        struct Reduce<ID, OP>(ID, OP);
        impl<T: Send, ID, OP> BlockConsumer<T, T> for Reduce<ID, OP>
        where
            ID: Fn() -> T + Sync,
            OP: Fn(T, T) -> T + Sync,
        {
            fn consume<I: Iterator<Item = T>>(&self, block: I) -> T {
                block.fold((self.0)(), |acc, x| (self.1)(acc, x))
            }
        }
        let partials = self.drive_blocks(Reduce(&identity, &op));
        partials.into_iter().reduce(op).unwrap_or_else(identity)
    }
}

impl<P: Producer> ParallelIterator for P {
    type Item = P::Item;

    fn drive_blocks<R, C>(self, consumer: C) -> Vec<R>
    where
        R: Send,
        C: BlockConsumer<P::Item, R>,
    {
        pool::drive(self, consumer)
    }
}

/// Length-preserving parallel iterators (every producer qualifies);
/// hosts the shape-aware adapters `zip` and `enumerate`.
pub trait IndexedParallelIterator: ParallelIterator {
    /// Pairs items positionally; the result is truncated to the
    /// shorter side, like rayon/std `zip`.
    fn zip<B>(self, other: B) -> Zip<Self, B>
    where
        Self: Producer,
        B: Producer,
    {
        Zip::new(self, other)
    }

    /// Pairs every item with its global index.
    fn enumerate(self) -> Enumerate<Self>
    where
        Self: Producer,
    {
        Enumerate { base: 0, inner: self }
    }
}

impl<P: Producer> IndexedParallelIterator for P {}

/// `par_iter` / shared-slice entry points.
pub trait ParallelSlice<T: Sync> {
    /// Parallel version of `slice::chunks`.
    fn par_chunks(&self, size: usize) -> ParChunks<'_, T>;
    /// Parallel version of `slice::chunks_exact` (remainder dropped).
    fn par_chunks_exact(&self, size: usize) -> ParChunksExact<'_, T>;
    /// Parallel version of `slice::iter`.
    fn par_iter(&self) -> ParIter<'_, T>;
}

impl<T: Sync> ParallelSlice<T> for [T] {
    fn par_chunks(&self, size: usize) -> ParChunks<'_, T> {
        assert!(size > 0, "chunk size must be non-zero");
        ParChunks { slice: self, size }
    }
    fn par_chunks_exact(&self, size: usize) -> ParChunksExact<'_, T> {
        assert!(size > 0, "chunk size must be non-zero");
        let n = self.len() / size * size;
        ParChunksExact { slice: &self[..n], size }
    }
    fn par_iter(&self) -> ParIter<'_, T> {
        ParIter(self)
    }
}

/// `par_iter_mut` / mutable-slice entry points.
pub trait ParallelSliceMut<T: Send> {
    /// Parallel version of `slice::chunks_mut`.
    fn par_chunks_mut(&mut self, size: usize) -> ParChunksMut<'_, T>;
    /// Parallel version of `slice::chunks_exact_mut` (remainder dropped).
    fn par_chunks_exact_mut(&mut self, size: usize) -> ParChunksExactMut<'_, T>;
    /// Parallel version of `slice::iter_mut`.
    fn par_iter_mut(&mut self) -> ParIterMut<'_, T>;
}

impl<T: Send> ParallelSliceMut<T> for [T] {
    fn par_chunks_mut(&mut self, size: usize) -> ParChunksMut<'_, T> {
        assert!(size > 0, "chunk size must be non-zero");
        ParChunksMut { slice: self, size }
    }
    fn par_chunks_exact_mut(&mut self, size: usize) -> ParChunksExactMut<'_, T> {
        assert!(size > 0, "chunk size must be non-zero");
        let n = self.len() / size * size;
        ParChunksExactMut { slice: &mut self[..n], size }
    }
    fn par_iter_mut(&mut self) -> ParIterMut<'_, T> {
        ParIterMut(self)
    }
}

/// Conversion into a parallel iterator (ranges and slice references).
pub trait IntoParallelIterator {
    /// The producer this converts into.
    type Iter: ParallelIterator;
    /// Converts into a parallel iterator.
    fn into_par_iter(self) -> Self::Iter;
}

impl IntoParallelIterator for std::ops::Range<usize> {
    type Iter = ParRange;
    fn into_par_iter(self) -> ParRange {
        ParRange { start: self.start, end: self.end.max(self.start) }
    }
}

impl<'a, T: Sync> IntoParallelIterator for &'a [T] {
    type Iter = ParIter<'a, T>;
    fn into_par_iter(self) -> ParIter<'a, T> {
        ParIter(self)
    }
}

impl<'a, T: Send> IntoParallelIterator for &'a mut [T] {
    type Iter = ParIterMut<'a, T>;
    fn into_par_iter(self) -> ParIterMut<'a, T> {
        ParIterMut(self)
    }
}

impl<'a, T: Sync> IntoParallelIterator for &'a Vec<T> {
    type Iter = ParIter<'a, T>;
    fn into_par_iter(self) -> ParIter<'a, T> {
        ParIter(self)
    }
}

impl<'a, T: Send> IntoParallelIterator for &'a mut Vec<T> {
    type Iter = ParIterMut<'a, T>;
    fn into_par_iter(self) -> ParIterMut<'a, T> {
        ParIterMut(self)
    }
}

/// Shared-reference items over a slice.
pub struct ParIter<'a, T>(&'a [T]);

impl<'a, T: Sync> Producer for ParIter<'a, T> {
    type Item = &'a T;
    type IntoIter = std::slice::Iter<'a, T>;
    fn len(&self) -> usize {
        self.0.len()
    }
    fn split_at(self, index: usize) -> (Self, Self) {
        let (l, r) = self.0.split_at(index);
        (ParIter(l), ParIter(r))
    }
    fn into_iter(self) -> Self::IntoIter {
        self.0.iter()
    }
}

/// Mutable-reference items over a slice.
pub struct ParIterMut<'a, T>(&'a mut [T]);

impl<'a, T: Send> Producer for ParIterMut<'a, T> {
    type Item = &'a mut T;
    type IntoIter = std::slice::IterMut<'a, T>;
    fn len(&self) -> usize {
        self.0.len()
    }
    fn split_at(self, index: usize) -> (Self, Self) {
        let (l, r) = self.0.split_at_mut(index);
        (ParIterMut(l), ParIterMut(r))
    }
    fn into_iter(self) -> Self::IntoIter {
        self.0.iter_mut()
    }
}

/// Shared chunks (last one may be ragged).
pub struct ParChunks<'a, T> {
    slice: &'a [T],
    size: usize,
}

impl<'a, T: Sync> Producer for ParChunks<'a, T> {
    type Item = &'a [T];
    type IntoIter = std::slice::Chunks<'a, T>;
    fn len(&self) -> usize {
        self.slice.len().div_ceil(self.size)
    }
    fn split_at(self, index: usize) -> (Self, Self) {
        let at = (index * self.size).min(self.slice.len());
        let (l, r) = self.slice.split_at(at);
        (ParChunks { slice: l, size: self.size }, ParChunks { slice: r, size: self.size })
    }
    fn into_iter(self) -> Self::IntoIter {
        self.slice.chunks(self.size)
    }
}

/// Shared exact-size chunks (remainder pre-dropped at construction).
pub struct ParChunksExact<'a, T> {
    slice: &'a [T],
    size: usize,
}

impl<'a, T: Sync> Producer for ParChunksExact<'a, T> {
    type Item = &'a [T];
    type IntoIter = std::slice::ChunksExact<'a, T>;
    fn len(&self) -> usize {
        self.slice.len() / self.size
    }
    fn split_at(self, index: usize) -> (Self, Self) {
        let (l, r) = self.slice.split_at(index * self.size);
        (
            ParChunksExact { slice: l, size: self.size },
            ParChunksExact { slice: r, size: self.size },
        )
    }
    fn into_iter(self) -> Self::IntoIter {
        self.slice.chunks_exact(self.size)
    }
}

/// Mutable chunks (last one may be ragged).
pub struct ParChunksMut<'a, T> {
    slice: &'a mut [T],
    size: usize,
}

impl<'a, T: Send> Producer for ParChunksMut<'a, T> {
    type Item = &'a mut [T];
    type IntoIter = std::slice::ChunksMut<'a, T>;
    fn len(&self) -> usize {
        self.slice.len().div_ceil(self.size)
    }
    fn split_at(self, index: usize) -> (Self, Self) {
        let at = (index * self.size).min(self.slice.len());
        let (l, r) = self.slice.split_at_mut(at);
        (ParChunksMut { slice: l, size: self.size }, ParChunksMut { slice: r, size: self.size })
    }
    fn into_iter(self) -> Self::IntoIter {
        self.slice.chunks_mut(self.size)
    }
}

/// Mutable exact-size chunks (remainder pre-dropped at construction) —
/// the workhorse behind every kernel's per-particle/per-zone loop.
pub struct ParChunksExactMut<'a, T> {
    slice: &'a mut [T],
    size: usize,
}

impl<'a, T: Send> Producer for ParChunksExactMut<'a, T> {
    type Item = &'a mut [T];
    type IntoIter = std::slice::ChunksExactMut<'a, T>;
    fn len(&self) -> usize {
        self.slice.len() / self.size
    }
    fn split_at(self, index: usize) -> (Self, Self) {
        let (l, r) = self.slice.split_at_mut(index * self.size);
        (
            ParChunksExactMut { slice: l, size: self.size },
            ParChunksExactMut { slice: r, size: self.size },
        )
    }
    fn into_iter(self) -> Self::IntoIter {
        self.slice.chunks_exact_mut(self.size)
    }
}

/// Parallel counterpart of `Range<usize>`.
pub struct ParRange {
    start: usize,
    end: usize,
}

impl Producer for ParRange {
    type Item = usize;
    type IntoIter = std::ops::Range<usize>;
    fn len(&self) -> usize {
        self.end - self.start
    }
    fn split_at(self, index: usize) -> (Self, Self) {
        let mid = self.start + index;
        (ParRange { start: self.start, end: mid }, ParRange { start: mid, end: self.end })
    }
    fn into_iter(self) -> Self::IntoIter {
        self.start..self.end
    }
}

/// Positionally paired producers (truncated to the shorter side).
pub struct Zip<A, B> {
    a: A,
    b: B,
}

impl<A: Producer, B: Producer> Zip<A, B> {
    fn new(a: A, b: B) -> Self {
        let n = a.len().min(b.len());
        let a = if a.len() > n { a.split_at(n).0 } else { a };
        let b = if b.len() > n { b.split_at(n).0 } else { b };
        Zip { a, b }
    }
}

impl<A: Producer, B: Producer> Producer for Zip<A, B> {
    type Item = (A::Item, B::Item);
    type IntoIter = std::iter::Zip<A::IntoIter, B::IntoIter>;
    fn len(&self) -> usize {
        self.a.len()
    }
    fn split_at(self, index: usize) -> (Self, Self) {
        let (al, ar) = self.a.split_at(index);
        let (bl, br) = self.b.split_at(index);
        (Zip { a: al, b: bl }, Zip { a: ar, b: br })
    }
    fn into_iter(self) -> Self::IntoIter {
        self.a.into_iter().zip(self.b.into_iter())
    }
}

/// Items paired with their global index (split-aware offset).
pub struct Enumerate<P> {
    pub(crate) base: usize,
    pub(crate) inner: P,
}

impl<P: Producer> Producer for Enumerate<P> {
    type Item = (usize, P::Item);
    type IntoIter = std::iter::Zip<std::ops::Range<usize>, P::IntoIter>;
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn split_at(self, index: usize) -> (Self, Self) {
        let (l, r) = self.inner.split_at(index);
        (
            Enumerate { base: self.base, inner: l },
            Enumerate { base: self.base + index, inner: r },
        )
    }
    fn into_iter(self) -> Self::IntoIter {
        let n = self.inner.len();
        (self.base..self.base + n).zip(self.inner.into_iter())
    }
}

/// Lazily mapped parallel iterator (wraps the block consumer, so it
/// needs no producer of its own).
pub struct Map<P, F> {
    inner: P,
    f: F,
}

impl<P, R0, F> ParallelIterator for Map<P, F>
where
    P: ParallelIterator,
    R0: Send,
    F: Fn(P::Item) -> R0 + Sync,
{
    type Item = R0;

    fn drive_blocks<R, C>(self, consumer: C) -> Vec<R>
    where
        R: Send,
        C: BlockConsumer<R0, R>,
    {
        struct MapConsumer<C, F> {
            base: C,
            f: F,
        }
        impl<T, R0, R, C, F> BlockConsumer<T, R> for MapConsumer<C, F>
        where
            C: BlockConsumer<R0, R>,
            F: Fn(T) -> R0 + Sync,
        {
            fn consume<I: Iterator<Item = T>>(&self, block: I) -> R {
                self.base.consume(block.map(&self.f))
            }
        }
        self.inner.drive_blocks(MapConsumer { base: consumer, f: self.f })
    }
}
