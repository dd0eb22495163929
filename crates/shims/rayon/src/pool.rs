//! The execution engine behind the parallel iterators: a fixed-grid,
//! work-stealing [`Pool`] of persistent workers.
//!
//! # Determinism contract
//!
//! Work is split into a *fixed block grid* whose shape depends only on
//! the number of items — never on the number of threads — and per-block
//! results are combined in block-index order. Disjoint-write `for_each`
//! bodies are deterministic by construction; reductions (`sum`,
//! `reduce`) are bitwise identical for every pool width because the
//! float groupings never change: a width-1 run equals a width-8 run bit
//! for bit.
//!
//! # Stealing protocol
//!
//! Each participant owns one contiguous range of block indices packed
//! into a single `AtomicU64` (`start` in the high half, `end` in the
//! low). The owner CAS-pops from the front; idle participants CAS-pop
//! from the back of a victim's range. Ranges only ever shrink, so the
//! CAS is ABA-free, and since no work is ever re-enqueued, one clean
//! sweep over all deques finding nothing is proof of termination.
//!
//! # Workers, the gate and parking
//!
//! A pool of width `w` creates `w − 1` worker threads once; the calling
//! thread is participant 0 of every call. One call runs at a time (a
//! caller that finds the pool taken walks the grid serially — identical
//! bits). The caller publishes the call's block closure in the job slot
//! and *opens the gate*, one `AtomicU64` holding the call's epoch, an
//! open bit and the number of workers inside the call. A worker joins a
//! call by CAS-incrementing that count while the gate is open, and
//! leaves by decrementing it. When the caller runs out of blocks it
//! closes the gate and waits for the count to reach zero: it waits only
//! for workers that *entered*, so a worker that wakes late finds the
//! gate closed and has nothing to acknowledge, and an oversubscribed
//! pool costs a wake-up, not a round of hand-shakes.
//!
//! Between calls a worker polls the gate for [`POLL_BUDGET`] — busily at
//! first, then through `yield_now` — and then parks on a condvar until a
//! later epoch appears; workers of a pool wider than the machine park at
//! once. Every block runs under `catch_unwind`; the first panic resumes
//! on the caller after the call has closed. A thread-local flag makes
//! nested parallel calls run serially instead of re-entering a pool.

use std::any::Any;
use std::cell::{Cell, RefCell, UnsafeCell};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering::{Relaxed, SeqCst};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::iter::Producer;

/// Block-grid upper bound. 64 blocks gives an 8-thread run eight blocks
/// of stealing slack per thread while keeping dispatch overhead
/// negligible; the grid is `min(len, MAX_BLOCKS)` and thus independent
/// of the thread count (the determinism invariant).
const MAX_BLOCKS: usize = 64;

/// Sanity cap on a pool's width (oversubscription beyond this only adds
/// scheduler churn). Must stay below `OPEN`, the gate's count field.
const MAX_THREADS: usize = 256;

/// How long an idle worker polls the gate before it parks: long enough to
/// stay up across the serial stretches between the sweeps of one solver
/// iteration (8-130 us on the 2D-Q2 momentum solve), short enough to sleep
/// through set-up and serial phases.
const POLL_BUDGET: Duration = Duration::from_micros(200);

/// The first part of [`POLL_BUDGET`] is a busy poll; the rest goes through
/// `yield_now`. A futex wake-up can land the worker on the *caller's* core
/// (a KVM guest reports a halted vCPU as preempted, so the kernel's
/// wake-affine choice avoids the idle one): a busy poll there stalls the
/// caller for its whole length, a yielding one hands the core straight
/// back, and the pair then runs at serial speed, not below it, until the
/// load balancer has separated them.
const BUSY_POLL: Duration = Duration::from_micros(20);

/// Busy polls between two reads of the clock.
const POLLS_PER_CLOCK_READ: u32 = 64;

/// Polls of the closing caller before it starts yielding its core to the
/// workers it is waiting for.
const SPINS_BEFORE_YIELD: u32 = 1 << 10;

/// Gate layout: `epoch << 16 | OPEN | workers inside the call`.
const OPEN: u64 = 1 << 15;
const INSIDE: u64 = OPEN - 1;
const EPOCH: u64 = OPEN << 1;

/// Cumulative work-stealing statistics of one pool.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Parallel drives dispatched to the workers (serial, nested and
    /// busy-pool calls are not counted).
    pub parallel_calls: u64,
    /// Blocks executed by parallel drives (owner-run + stolen).
    pub blocks_executed: u64,
    /// Blocks claimed from another participant's deque.
    pub steals: u64,
}

/// The block closure of the call in flight, as the workers see it.
type Job = &'static (dyn Fn(usize) + Sync);

/// One participant's range deque, on a cache line of its own: owner and
/// thieves CAS it once per block.
#[repr(align(64))]
struct Deque(AtomicU64);

struct Shared {
    width: usize,
    /// Whether idle workers poll before parking: only when every
    /// participant can have a core of its own.
    spin: bool,
    gate: AtomicU64,
    /// The job slot; also the mutex parked workers wait on.
    slot: Mutex<Option<Job>>,
    wake: Condvar,
    /// Workers parked or about to park (they re-check the gate first).
    sleepers: AtomicUsize,
    shutdown: AtomicBool,
    /// Held by the caller whose call is in flight.
    busy: AtomicBool,
    deques: Box<[Deque]>,
    // Relaxed: statistics, not synchronisation.
    calls: AtomicU64,
    blocks: AtomicU64,
    steals: AtomicU64,
}

/// The slot mutex guards a single assignment, so a poisoned lock still
/// holds valid data.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn epoch_of(gate: u64) -> u64 {
    gate / EPOCH
}

impl Shared {
    fn stats(&self) -> PoolStats {
        PoolStats {
            parallel_calls: self.calls.load(Relaxed),
            blocks_executed: self.blocks.load(Relaxed),
            steals: self.steals.load(Relaxed),
        }
    }

    /// Claims the pool for one call, or `None` while another thread's
    /// call is in flight.
    fn try_turn(&self) -> Option<Turn<'_>> {
        self.busy.compare_exchange(false, true, SeqCst, Relaxed).ok().map(|_| Turn(self))
    }

    fn worker_main(&self, me: usize) {
        IN_POOL.with(|c| c.set(true));
        // Epochs start at 1, so 0 is "none yet".
        let mut served = 0;
        let mut idle_since = Instant::now();
        let mut polls = 0u32;
        loop {
            let gate = self.gate.load(SeqCst);
            if gate & OPEN != 0 && epoch_of(gate) != served {
                // Enter: count this worker in while the gate is still open.
                if self.gate.compare_exchange_weak(gate, gate + 1, SeqCst, SeqCst).is_ok() {
                    served = epoch_of(gate);
                    let job = *lock(&self.slot);
                    if let Some(job) = job {
                        job(me);
                    }
                    self.gate.fetch_sub(1, SeqCst);
                    (idle_since, polls) = (Instant::now(), 0);
                }
                continue;
            }
            if self.shutdown.load(SeqCst) {
                return;
            }
            if self.spin {
                if polls < POLLS_PER_CLOCK_READ {
                    polls += 1;
                    std::hint::spin_loop();
                    continue;
                }
                let idle = idle_since.elapsed();
                if idle < BUSY_POLL {
                    polls = 0;
                    continue;
                }
                if idle < POLL_BUDGET {
                    // `polls` stays at its limit: the clock is read again
                    // after every yield.
                    std::thread::yield_now();
                    continue;
                }
            }
            self.park(epoch_of(gate));
            (idle_since, polls) = (Instant::now(), 0);
        }
    }

    /// Sleeps until a call later than epoch `seen` has opened, or
    /// shutdown. The call that woke a sleeper may be over before the
    /// sleeper is up — a sweep is shorter than a futex wake-up — so it does
    /// not wait for an *open* gate: it gets up, and a spinning worker is in
    /// time for the next call. No wake-up is lost: the sleeper announces
    /// itself *before* its last look at the gate, the caller opens the gate
    /// *before* it looks for sleepers (both `SeqCst`), and the look and the
    /// wait happen under the mutex the caller takes before it notifies.
    fn park(&self, seen: u64) {
        self.sleepers.fetch_add(1, SeqCst);
        let mut slot = lock(&self.slot);
        while epoch_of(self.gate.load(SeqCst)) == seen && !self.shutdown.load(SeqCst) {
            slot = self.wake.wait(slot).unwrap_or_else(PoisonError::into_inner);
        }
        drop(slot);
        self.sleepers.fetch_sub(1, SeqCst);
    }

    /// For the caller after it has opened the gate, and for `Pool::drop`
    /// after it has raised `shutdown`.
    fn wake_sleepers(&self) {
        if self.sleepers.load(SeqCst) > 0 {
            drop(lock(&self.slot));
            self.wake.notify_all();
        }
    }
}

/// Exclusive use of a pool for one call; released on drop.
struct Turn<'a>(&'a Shared);

impl Drop for Turn<'_> {
    fn drop(&mut self) {
        self.0.busy.store(false, SeqCst);
    }
}

impl Turn<'_> {
    /// Runs `job(me)` on the caller (`me = 0`) and on every worker that
    /// enters the call (`me = 1..width`), returning once the caller's own
    /// `job(0)` has returned and every worker that entered has left.
    fn dispatch(&self, job: &(dyn Fn(usize) + Sync)) {
        let pool = self.0;
        // SAFETY: the only thing erased is the lifetime of `job` and of
        // what it borrows; the reference leaves this function through the
        // job slot alone, and no worker holds it once this function
        // returns or unwinds. A worker copies it out of the slot only
        // after its CAS counted it into the gate of an *open* call, and
        // stops using it before it counts itself out. `Close::drop`
        // below — which runs on return and on unwind, and is armed before
        // the slot is filled — clears the open bit, after which that CAS can
        // no longer succeed, then waits until the count is zero, then
        // empties the slot. The epoch in the gate word makes a CAS
        // prepared against an earlier call fail, and `Turn` keeps every
        // other caller off the slot and the gate until this call is over.
        let erased = unsafe { std::mem::transmute::<&(dyn Fn(usize) + Sync), Job>(job) };
        let _close = Close(pool);
        *lock(&pool.slot) = Some(erased);
        // The gate is closed and empty, and this thread holds the turn:
        // nobody else writes it until it opens.
        let next = (pool.gate.load(SeqCst) | (EPOCH - 1)) + 1;
        pool.gate.store(next | OPEN, SeqCst);
        pool.wake_sleepers();
        let _nested = NestedGuard::enter();
        job(0);
    }
}

/// Ends a call: shuts the gate, waits for the workers inside, empties the
/// job slot.
struct Close<'a>(&'a Shared);

impl Drop for Close<'_> {
    fn drop(&mut self) {
        let pool = self.0;
        pool.gate.fetch_and(!OPEN, SeqCst);
        let mut spins = 0u32;
        while pool.gate.load(SeqCst) & INSIDE != 0 {
            // A worker still inside holds a block; on a machine with
            // fewer cores than threads it may need this one to finish.
            if pool.spin && spins < SPINS_BEFORE_YIELD {
                spins += 1;
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
        *lock(&pool.slot) = None;
    }
}

/// A deterministic work-stealing pool of fixed width: `width − 1`
/// persistent workers plus the calling thread. Parallel calls run on the
/// pool [`install`](Pool::install)ed on the calling thread, else on the
/// process default ([`set_active_threads`]). Results are bitwise
/// identical at every width. Dropping the pool joins its workers.
pub struct Pool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl Pool {
    /// A pool of `width` participants (clamped to `1..=256`). Width 1
    /// creates no thread.
    pub fn new(width: usize) -> Pool {
        let width = width.clamp(1, MAX_THREADS);
        let shared = Arc::new(Shared {
            width,
            spin: width <= cores(),
            gate: AtomicU64::new(0),
            slot: Mutex::new(None),
            wake: Condvar::new(),
            sleepers: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            busy: AtomicBool::new(false),
            deques: (0..width.min(MAX_BLOCKS)).map(|_| Deque(AtomicU64::new(0))).collect(),
            calls: AtomicU64::new(0),
            blocks: AtomicU64::new(0),
            steals: AtomicU64::new(0),
        });
        let workers = (1..width)
            .map(|me| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("blast-pool-{me}"))
                    .spawn(move || shared.worker_main(me))
                    .expect("the OS refused a pool worker thread")
            })
            .collect();
        Pool { shared, workers }
    }

    /// This pool's cumulative counters. Monotonic; diff two snapshots to
    /// attribute work to a region.
    pub fn stats(&self) -> PoolStats {
        self.shared.stats()
    }

    /// Runs `f` with this pool current on the calling thread: parallel
    /// calls made by `f` on this thread run on it, and
    /// [`current_num_threads`] / [`pool_stats`] report it. Nests; the
    /// previous pool is current again afterwards, also on unwind.
    pub fn install<R>(&self, f: impl FnOnce() -> R) -> R {
        struct Restore(Option<Arc<Shared>>);
        impl Drop for Restore {
            fn drop(&mut self) {
                INSTALLED.with(|c| *c.borrow_mut() = self.0.take());
            }
        }
        let _restore = Restore(INSTALLED.with(|c| c.replace(Some(Arc::clone(&self.shared)))));
        f()
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, SeqCst);
        self.shared.wake_sleepers();
        for worker in self.workers.drain(..) {
            // Blocks run under `catch_unwind`, so a worker does not panic;
            // if one did there is nothing to do about it here.
            let _ = worker.join();
        }
    }
}

thread_local! {
    static INSTALLED: RefCell<Option<Arc<Shared>>> = const { RefCell::new(None) };
    static IN_POOL: Cell<bool> = const { Cell::new(false) };
}

static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// The process default pool, built on first parallel use at a width above
/// one and rebuilt when that width changes.
static DEFAULT: Mutex<Option<Pool>> = Mutex::new(None);

fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Width of the default pool: a [`set_active_threads`] override if one is
/// live, else `BLAST_THREADS` (parsed once), else the detected cores.
fn default_width() -> usize {
    static FALLBACK: OnceLock<usize> = OnceLock::new();
    let width = match THREAD_OVERRIDE.load(Relaxed) {
        0 => *FALLBACK.get_or_init(|| {
            std::env::var("BLAST_THREADS")
                .ok()
                .and_then(|s| s.trim().parse::<usize>().ok())
                .filter(|&n| n >= 1)
                .unwrap_or_else(cores)
        }),
        n => n,
    };
    width.min(MAX_THREADS)
}

fn default_pool(width: usize) -> Arc<Shared> {
    let mut default = lock(&DEFAULT);
    if let Some(pool) = default.as_ref().filter(|p| p.shared.width == width) {
        return Arc::clone(&pool.shared);
    }
    let pool = Pool::new(width);
    // `pool_stats()` of the default pool stays cumulative across widths.
    if let Some(old) = default.as_ref().map(Pool::stats) {
        pool.shared.calls.store(old.parallel_calls, Relaxed);
        pool.shared.blocks.store(old.blocks_executed, Relaxed);
        pool.shared.steals.store(old.steals, Relaxed);
    }
    let shared = Arc::clone(&pool.shared);
    let old = default.replace(pool);
    drop(default);
    drop(old); // joins the old workers, outside the lock
    shared
}

/// The pool a parallel call on this thread runs on: the installed one,
/// else the default. `None` when that pool is one thread wide — the
/// serial walk needs no pool, and the default is not built for it.
fn wide_pool() -> Option<Arc<Shared>> {
    let pool = match INSTALLED.with(|c| c.borrow().clone()) {
        Some(installed) => installed,
        None => match default_width() {
            1 => return None,
            width => default_pool(width),
        },
    };
    (pool.width > 1).then_some(pool)
}

/// Width of the pool parallel calls on this thread run on: the
/// [`Pool::install`]ed one, else the default pool's — a
/// [`set_active_threads`] override if one is live, else the
/// `BLAST_THREADS` environment variable, else
/// `std::thread::available_parallelism()`.
pub fn current_num_threads() -> usize {
    INSTALLED.with(|c| c.borrow().as_ref().map(|p| p.width)).unwrap_or_else(default_width)
}

/// Snapshot of the current pool's cumulative counters (the installed
/// pool's, else the default pool's). Monotonic per pool; diff two
/// snapshots taken under the same pool to attribute work to a region.
pub fn pool_stats() -> PoolStats {
    INSTALLED
        .with(|c| c.borrow().as_ref().map(|p| p.stats()))
        .or_else(|| lock(&DEFAULT).as_ref().map(Pool::stats))
        .unwrap_or_default()
}

/// Sets the width of the process default pool (e.g. for speedup sweeps).
/// Pass `0` to clear the override and fall back to `BLAST_THREADS` /
/// detected parallelism. Takes effect at the next parallel call outside
/// a [`Pool::install`]; results are bitwise identical at every setting.
pub fn set_active_threads(n: usize) {
    THREAD_OVERRIDE.store(n.min(MAX_THREADS), Relaxed);
}

/// True while the current thread is executing inside a parallel call —
/// nested parallelism then degrades to serial instead of re-entering.
fn in_pool() -> bool {
    IN_POOL.with(|c| c.get())
}

/// Marks the calling thread as inside a call while it runs its blocks.
struct NestedGuard {
    prev: bool,
}

impl NestedGuard {
    fn enter() -> Self {
        NestedGuard { prev: IN_POOL.with(|c| c.replace(true)) }
    }
}

impl Drop for NestedGuard {
    fn drop(&mut self) {
        let prev = self.prev;
        IN_POOL.with(|c| c.set(prev));
    }
}

/// How a terminal operation consumes one block's serial iterator. The
/// indirection (rather than a plain closure) lets adapters like `map`
/// wrap the consumer without naming the composed iterator type.
pub trait BlockConsumer<T, R>: Sync {
    /// Folds one block of items into a partial result.
    fn consume<I: Iterator<Item = T>>(&self, block: I) -> R;
}

/// The fixed grid: cuts a producer of `len` items into `nblocks`
/// contiguous blocks of near-equal item count, in index order (block `b`
/// covers `[b*len/n, (b+1)*len/n)`).
struct Grid<P> {
    rest: Option<P>,
    len: usize,
    nblocks: usize,
    next: usize,
    taken: usize,
}

impl<P: Producer> Iterator for Grid<P> {
    type Item = P;

    fn next(&mut self) -> Option<P> {
        self.next += 1;
        if self.next >= self.nblocks {
            return self.rest.take();
        }
        let end = self.next * self.len / self.nblocks;
        let (left, right) = self.rest.take()?.split_at(end - self.taken);
        self.taken = end;
        self.rest = Some(right);
        Some(left)
    }
}

/// Splits `producer` over the fixed block grid, runs `consumer` on
/// every block (on the current pool when it is more than one thread
/// wide and free), and returns the per-block partials **in block-index
/// order**.
pub fn drive<P, R, C>(producer: P, consumer: C) -> Vec<R>
where
    P: Producer,
    R: Send,
    C: BlockConsumer<P::Item, R>,
{
    let len = producer.len();
    if len == 0 {
        return Vec::new();
    }
    let nblocks = len.min(MAX_BLOCKS);
    let grid = Grid { rest: Some(producer), len, nblocks, next: 0, taken: 0 };
    if nblocks > 1 && !in_pool() {
        if let Some(pool) = wide_pool() {
            if let Some(turn) = pool.try_turn() {
                return parallel_drive(&turn, grid, &consumer);
            }
        }
    }
    // Same grid, same in-block order, same combination order as the
    // parallel path — the serial run is the determinism reference.
    // Blocks are consumed as they are split off rather than collected
    // first, so a unit-result `for_each` performs zero heap
    // allocations (`Vec<()>` never allocates either).
    let mut out = Vec::with_capacity(if std::mem::size_of::<R>() == 0 { 0 } else { nblocks });
    out.extend(grid.map(|block| consumer.consume(block.into_iter())));
    out
}

/// One grid block on its way through a call.
enum Block<P, R> {
    Todo(P),
    Done(R),
    /// Taken and not finished: running, or its consumer panicked. Also the
    /// cells past the end of a short grid.
    Empty,
}

/// A block's cell in the caller's frame, touched by exactly one pool
/// participant during the call (uniqueness is guaranteed by the deque
/// claim protocol) and by the caller before and after it. A cache line
/// of its own, so finishing a block does not bounce its neighbours'
/// lines between cores.
#[repr(align(64))]
struct BlockCell<P, R>(UnsafeCell<Block<P, R>>);

// SAFETY: the deque protocol hands each cell index to exactly one
// thread, which moves the `P` out and the `R` in (hence `Send`), and the
// gate orders those accesses after the caller's writes and before its
// final reads.
unsafe impl<P: Send, R: Send> Sync for BlockCell<P, R> {}

fn pack(start: u32, end: u32) -> u64 {
    ((start as u64) << 32) | end as u64
}

fn unpack(v: u64) -> (u32, u32) {
    ((v >> 32) as u32, v as u32)
}

/// Owner end of the range deque: claim the front block.
fn pop_front(deque: &AtomicU64) -> Option<usize> {
    let mut cur = deque.load(SeqCst);
    loop {
        let (s, e) = unpack(cur);
        if s >= e {
            return None;
        }
        match deque.compare_exchange_weak(cur, pack(s + 1, e), SeqCst, SeqCst) {
            Ok(_) => return Some(s as usize),
            Err(now) => cur = now,
        }
    }
}

/// Thief end: claim the back block of a victim's range.
fn steal_back(deque: &AtomicU64) -> Option<usize> {
    let mut cur = deque.load(SeqCst);
    loop {
        let (s, e) = unpack(cur);
        if s >= e {
            return None;
        }
        match deque.compare_exchange_weak(cur, pack(s, e - 1), SeqCst, SeqCst) {
            Ok(_) => return Some((e - 1) as usize),
            Err(now) => cur = now,
        }
    }
}

/// One sweep over the other participants' deques. Blocks are never
/// re-enqueued, so an empty sweep means every block is claimed and the
/// participant can retire.
fn steal(deques: &[Deque], me: usize) -> Option<usize> {
    (1..deques.len()).find_map(|off| steal_back(&deques[(me + off) % deques.len()].0))
}

fn parallel_drive<P, R, C>(turn: &Turn<'_>, mut grid: Grid<P>, consumer: &C) -> Vec<R>
where
    P: Producer,
    R: Send,
    C: BlockConsumer<P::Item, R>,
{
    let pool = turn.0;
    let nblocks = grid.nblocks;
    let threads = pool.width.min(nblocks);
    // Blocks, partials and the panic slot live in this frame: a dispatch
    // performs no heap operation.
    let cells: [BlockCell<P, R>; MAX_BLOCKS] = std::array::from_fn(|_| {
        BlockCell(UnsafeCell::new(grid.next().map_or(Block::Empty, Block::Todo)))
    });
    let deques = &pool.deques[..threads];
    for (t, deque) in deques.iter().enumerate() {
        let range = pack((t * nblocks / threads) as u32, ((t + 1) * nblocks / threads) as u32);
        deque.0.store(range, SeqCst);
    }
    let first_panic: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
    pool.calls.fetch_add(1, Relaxed);
    pool.blocks.fetch_add(nblocks as u64, Relaxed);

    turn.dispatch(&|me: usize| {
        if me >= threads {
            return; // fewer blocks than participants: nothing to own
        }
        let mut stolen = 0;
        while let Some(b) = pop_front(&deques[me].0).or_else(|| {
            let b = steal(deques, me);
            stolen += u64::from(b.is_some());
            b
        }) {
            // SAFETY: index `b` was claimed exactly once (CAS protocol),
            // so this thread has exclusive access to cells[b].
            let cell = unsafe { &mut *cells[b].0.get() };
            let Block::Todo(p) = std::mem::replace(cell, Block::Empty) else {
                unreachable!("block {b} claimed twice");
            };
            match catch_unwind(AssertUnwindSafe(|| consumer.consume(p.into_iter()))) {
                Ok(r) => *cell = Block::Done(r),
                Err(payload) => {
                    lock(&first_panic).get_or_insert(payload);
                }
            }
        }
        pool.steals.fetch_add(stolen, Relaxed);
    });

    if let Some(payload) = first_panic.into_inner().unwrap_or_else(PoisonError::into_inner) {
        resume_unwind(payload);
    }
    cells
        .into_iter()
        .take(nblocks)
        .map(|cell| match cell.0.into_inner() {
            Block::Done(r) => r,
            _ => unreachable!("a block was left unprocessed"),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prelude::*;

    #[test]
    fn dropping_a_pool_joins_its_workers() {
        // Every worker owns a handle on the shared state until its thread
        // function returns, so a dead weak reference after the drop means
        // all of them were joined — 2 000 threads here if they leaked.
        for _ in 0..1_000 {
            let pool = Pool::new(3);
            assert_eq!(pool.install(|| (0..256usize).into_par_iter().count()), 256);
            let shared = Arc::downgrade(&pool.shared);
            drop(pool);
            assert!(shared.upgrade().is_none(), "a worker outlived its pool");
        }
    }
}
