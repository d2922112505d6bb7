//! A persistent, morsel-driven worker pool for the parallel execution
//! paths.
//!
//! Std-only by design (no rayon, no global registry).  A [`WorkerPool`] is
//! created lazily by the `Database` at its first `parallelism > 1` run,
//! spawns `parallelism - 1` OS threads **once**, parks them when idle, and
//! joins them when the database drops.  Parallel regions — match-set
//! construction, semijoin sweeps, fallback search roots, batch fan-out —
//! submit *morsels* (index-addressed work units over a borrowed slice) and
//! block until their region completes, with the submitting thread claiming
//! morsels itself while it waits, so the effective width of a region is
//! the configured parallelism.
//!
//! ## Scheduling: injector + per-worker deques, claim-locally-then-steal
//!
//! Submitted morsels are dealt round-robin across the per-worker deques
//! plus a shared injector (the submitter's share).  A worker claims from
//! the **front of its own deque** first, then the injector, and only then
//! steals from the **back of another worker's deque** (counted in
//! [`WorkerPool::steals`]).  All queues live behind one mutex paired with
//! a condvar — uncontended in practice because a claim is a deque pop,
//! orders of magnitude shorter than a morsel — which keeps the
//! implementation auditable while preserving the locality/steal shape of
//! a lock-free scheduler.
//!
//! ## Regions: borrowed state, lock-free result slots
//!
//! A region's state (`&[T]` items, the closure, one result slot per
//! morsel) lives on the **submitter's stack**; morsels carry a type-erased
//! pointer to it.  This is sound for the same reason `thread::scope` is:
//! the submitter does not return until the region's `remaining` counter
//! hits zero, and a worker's decrement of that counter is its last access
//! to region memory.  Results land in pre-sized [`Slot`]s — an
//! `UnsafeCell<MaybeUninit<R>>` guarded by a per-slot `AtomicBool` — so
//! there is no per-task `Mutex` and no allocation on the claim path.
//! Results come back **in item order**, regardless of which worker ran
//! what, so parallel regions stay deterministic for everything downstream.
//!
//! ## Panics
//!
//! A panicking morsel does **not** take a worker down: each morsel runs
//! under `catch_unwind`, the first payload is parked in the region, and
//! the submitter re-raises it with `resume_unwind` after the region
//! drains.  The pool stays healthy for subsequent runs.

use sac_telemetry::{bus, Event};
use std::any::Any;
use std::cell::UnsafeCell;
use std::collections::VecDeque;
use std::mem::MaybeUninit;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::{self, JoinHandle};
use std::time::Instant;

/// One unit of schedulable work: "run morsel `index` of the region behind
/// `region`".  The pointer is type-erased so the scheduler stays
/// monomorphization-free; `run` is the monomorphized entry that knows the
/// real `Region<T, R, F>` type.
#[derive(Clone, Copy)]
struct Morsel {
    region: *const (),
    run: unsafe fn(*const (), usize),
    index: usize,
    enqueued: Instant,
}

// SAFETY: a `Morsel` is only ever executed while its submitting thread is
// blocked in `WorkerPool::run`, which keeps the pointed-to `Region` (and
// everything it borrows) alive; the region's fields are all safe to reach
// from another thread for the access pattern `run_one` performs (disjoint
// slot writes, atomic counter, mutex-guarded panic cell).
unsafe impl Send for Morsel {}

/// One pre-sized result cell, written by exactly one morsel.
struct Slot<R> {
    filled: AtomicBool,
    value: UnsafeCell<MaybeUninit<R>>,
}

// SAFETY: distinct morsels write distinct slots (one writer per slot,
// ever), and the submitter only reads a slot after the region's
// `remaining` counter — an acquire/release chain through every worker's
// decrement — reaches zero.
unsafe impl<R: Send> Sync for Slot<R> {}

impl<R> Slot<R> {
    fn new() -> Slot<R> {
        Slot {
            filled: AtomicBool::new(false),
            value: UnsafeCell::new(MaybeUninit::uninit()),
        }
    }

    /// Moves the result out.  Panics if the morsel never wrote it (which
    /// the completion protocol rules out on the non-panic path).
    fn take(mut self) -> R {
        assert!(
            *self.filled.get_mut(),
            "every morsel slot is filled before its region completes"
        );
        *self.filled.get_mut() = false;
        // SAFETY: the flag said the value is initialized, and we just
        // cleared it so `Drop` won't double-free.
        unsafe { (*self.value.get()).assume_init_read() }
    }
}

impl<R> Drop for Slot<R> {
    fn drop(&mut self) {
        if *self.filled.get_mut() {
            // SAFETY: `filled` is only set after the value is written.
            unsafe { self.value.get_mut().assume_init_drop() };
        }
    }
}

/// The region state a submitter parks on its stack for the duration of
/// one `WorkerPool::run` call.  Morsels reach it through the erased
/// pointer in [`Morsel`].
struct Region<'a, T, R, F> {
    items: &'a [T],
    f: &'a F,
    slots: &'a [Slot<R>],
    remaining: &'a AtomicUsize,
    panic: &'a Mutex<Option<Box<dyn Any + Send>>>,
    shared: &'a Shared,
}

/// Monomorphized morsel entry: applies the region's closure to item
/// `index`, stores the result (or parks the panic payload), and retires
/// the morsel.  The decrement of `remaining` is the **last** access to
/// region memory — after it, the submitter may return and pop its stack.
///
/// SAFETY contract (upheld by `WorkerPool::run`): `region` points to a
/// live `Region<'_, T, R, F>` whose slice has more than `index` items,
/// and no other morsel carries the same `index` for this region.
unsafe fn run_one<T, R, F>(region: *const (), index: usize)
where
    F: Fn(&T) -> R,
{
    // SAFETY: per the contract above, the pointer is valid for the whole
    // body of this call (the submitter is blocked until we decrement).
    let region = unsafe { &*region.cast::<Region<'_, T, R, F>>() };
    match catch_unwind(AssertUnwindSafe(|| (region.f)(&region.items[index]))) {
        Ok(value) => {
            // SAFETY: this morsel is the only writer of slot `index`.
            unsafe { (*region.slots[index].value.get()).write(value) };
            region.slots[index].filled.store(true, Ordering::Release);
        }
        Err(payload) => {
            let mut first = region
                .panic
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            first.get_or_insert(payload);
        }
    }
    // Copy the pool reference out *before* retiring: `shared` outlives the
    // region (the pool keeps it in an `Arc`), but `region` itself may be
    // freed the instant the submitter observes `remaining == 0`.
    let shared: &Shared = region.shared;
    if region.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
        // Last morsel of the region: wake the submitter.  Locking the done
        // mutex before notifying closes the lost-wakeup window against a
        // submitter that checked `remaining` and is about to wait.
        let _guard = shared
            .region_done
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        shared.region_done_cv.notify_all();
    }
}

/// Everything the queue mutex protects: the shared injector plus one
/// deque per worker.
struct Queues {
    injector: VecDeque<Morsel>,
    locals: Vec<VecDeque<Morsel>>,
}

/// Pool state shared between workers, submitters, and the owner.  Lives in
/// an `Arc` so it strictly outlives every region.
struct Shared {
    queues: Mutex<Queues>,
    /// Signaled when morsels arrive or shutdown begins.
    work_ready: Condvar,
    /// Region-completion handshake: submitters wait here; the worker that
    /// retires a region's last morsel locks + notifies.
    region_done: Mutex<()>,
    region_done_cv: Condvar,
    shutdown: AtomicBool,
    /// Morsels claimed from another worker's deque (scheduler-dependent —
    /// excluded from determinism-sensitive metric comparisons).
    steals: AtomicUsize,
    /// Cumulative morsels submitted over the pool's lifetime.
    dispatched: AtomicUsize,
    /// Cumulative enqueue→claim latency, nanoseconds (scheduler-dependent).
    queue_wait_ns: AtomicU64,
}

impl Shared {
    /// Claims one morsel for `who` (`Some(worker)` or `None` for a helping
    /// submitter): own deque front, then injector, then steal from the
    /// back of the longest other deque.
    fn claim(&self, queues: &mut Queues, who: Option<usize>) -> Option<Morsel> {
        if let Some(id) = who {
            if let Some(morsel) = queues.locals[id].pop_front() {
                return Some(morsel);
            }
        }
        if let Some(morsel) = queues.injector.pop_front() {
            return Some(morsel);
        }
        let victim = (0..queues.locals.len())
            .filter(|&j| who != Some(j) && !queues.locals[j].is_empty())
            .max_by_key(|&j| queues.locals[j].len())?;
        let stolen = queues.locals[victim].pop_back();
        if stolen.is_some() {
            self.steals.fetch_add(1, Ordering::Relaxed);
        }
        stolen
    }

    fn lock_queues(&self) -> MutexGuard<'_, Queues> {
        self.queues
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

/// Charges the morsel's queue-wait to the pool counters, then runs it.
fn run_morsel(shared: &Shared, morsel: Morsel) {
    shared.queue_wait_ns.fetch_add(
        morsel.enqueued.elapsed().as_nanos() as u64,
        Ordering::Relaxed,
    );
    // SAFETY: the morsel was produced by `WorkerPool::run`, whose region
    // is still alive (its submitter is blocked on `remaining`).
    unsafe { (morsel.run)(morsel.region, morsel.index) };
}

fn worker_loop(shared: Arc<Shared>, id: usize) {
    loop {
        let claimed = {
            let mut queues = shared.lock_queues();
            loop {
                if let Some(morsel) = shared.claim(&mut queues, Some(id)) {
                    break Some(morsel);
                }
                if shared.shutdown.load(Ordering::Acquire) {
                    break None;
                }
                queues = shared
                    .work_ready
                    .wait(queues)
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
            }
        };
        match claimed {
            Some(morsel) => run_morsel(&shared, morsel),
            None => return,
        }
    }
}

/// The persistent pool.  One per `Database`, created at the first
/// `parallelism > 1` run; dropping it flags shutdown and joins every
/// worker.
pub(crate) struct WorkerPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("size", &self.workers.len())
            .field("dispatched", &self.morsels_dispatched())
            .field("steals", &self.steals())
            .finish()
    }
}

impl WorkerPool {
    /// Spawns a pool for the given region width: `parallelism - 1` worker
    /// threads, because the submitting thread claims morsels too while it
    /// waits for its region.
    pub(crate) fn new(parallelism: usize) -> WorkerPool {
        let workers = parallelism.saturating_sub(1).max(1);
        let shared = Arc::new(Shared {
            queues: Mutex::new(Queues {
                injector: VecDeque::new(),
                locals: (0..workers).map(|_| VecDeque::new()).collect(),
            }),
            work_ready: Condvar::new(),
            region_done: Mutex::new(()),
            region_done_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            steals: AtomicUsize::new(0),
            dispatched: AtomicUsize::new(0),
            queue_wait_ns: AtomicU64::new(0),
        });
        let handles = (0..workers)
            .map(|id| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("sac-pool-{id}"))
                    .spawn(move || worker_loop(shared, id))
                    .expect("spawning a pool worker thread")
            })
            .collect();
        WorkerPool {
            shared,
            workers: handles,
        }
    }

    /// Number of OS threads the pool spawned (the submitter is not
    /// counted; a region's effective width is `size() + 1`).
    pub(crate) fn size(&self) -> usize {
        self.workers.len()
    }

    /// Cumulative morsels claimed from another worker's deque.  Depends on
    /// scheduling, so it never participates in determinism comparisons.
    pub(crate) fn steals(&self) -> usize {
        self.shared.steals.load(Ordering::Relaxed)
    }

    /// Cumulative morsels submitted over the pool's lifetime.
    pub(crate) fn morsels_dispatched(&self) -> usize {
        self.shared.dispatched.load(Ordering::Relaxed)
    }

    /// Cumulative enqueue→claim wait, in nanoseconds.
    pub(crate) fn queue_wait_ns(&self) -> u64 {
        self.shared.queue_wait_ns.load(Ordering::Relaxed)
    }

    /// Runs one parallel region: applies `f` to every item, one morsel per
    /// item, and returns the results in item order.  Blocks until the
    /// region completes, claiming morsels on the calling thread while it
    /// waits.  Re-raises the first morsel panic after the region drains.
    pub(crate) fn run<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        let n = items.len();
        if n <= 1 {
            return items.iter().map(f).collect();
        }
        bus::emit(|| Event::ParallelRegion {
            tasks: n,
            threads: self.size(),
        });
        let slots: Vec<Slot<R>> = (0..n).map(|_| Slot::new()).collect();
        let remaining = AtomicUsize::new(n);
        let panic_cell: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
        let region = Region {
            items,
            f: &f,
            slots: &slots,
            remaining: &remaining,
            panic: &panic_cell,
            shared: &self.shared,
        };
        let region_ptr = (&raw const region).cast::<()>();
        let run = run_one::<T, R, F> as unsafe fn(*const (), usize);
        let now = Instant::now();
        {
            // Deal morsels round-robin across the worker deques and the
            // injector (the submitter's share), then wake everyone.
            let mut queues = self.shared.lock_queues();
            let lanes = self.workers.len() + 1;
            for index in 0..n {
                let morsel = Morsel {
                    region: region_ptr,
                    run,
                    index,
                    enqueued: now,
                };
                match index % lanes {
                    lane if lane == lanes - 1 => queues.injector.push_back(morsel),
                    lane => queues.locals[lane].push_back(morsel),
                }
            }
            self.shared.work_ready.notify_all();
        }
        self.shared.dispatched.fetch_add(n, Ordering::Relaxed);

        // Help until the region drains: claim morsels like a worker, and
        // only park on the completion condvar when nothing is claimable
        // (at that point every outstanding morsel is already running on a
        // worker, so progress is guaranteed).
        loop {
            if remaining.load(Ordering::Acquire) == 0 {
                break;
            }
            let claimed = {
                let mut queues = self.shared.lock_queues();
                self.shared.claim(&mut queues, None)
            };
            match claimed {
                Some(morsel) => run_morsel(&self.shared, morsel),
                None => {
                    let guard = self
                        .shared
                        .region_done
                        .lock()
                        .unwrap_or_else(|poisoned| poisoned.into_inner());
                    if remaining.load(Ordering::Acquire) > 0 {
                        drop(
                            self.shared
                                .region_done_cv
                                .wait(guard)
                                .unwrap_or_else(|poisoned| poisoned.into_inner()),
                        );
                    }
                }
            }
        }

        let first_panic = panic_cell
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .take();
        if let Some(payload) = first_panic {
            drop(slots); // drop the results that did land
            resume_unwind(payload);
        }
        slots.into_iter().map(Slot::take).collect()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        // Take the queue lock before notifying so no worker can re-check
        // the flag and park between our store and the wakeup.
        drop(self.shared.lock_queues());
        self.shared.work_ready.notify_all();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_item_order() {
        let pool = WorkerPool::new(4);
        assert_eq!(pool.size(), 3);
        let items: Vec<usize> = (0..1000).collect();
        let doubled = pool.run(&items, |n| n * 2);
        assert_eq!(doubled, (0..1000).map(|n| n * 2).collect::<Vec<_>>());
    }

    #[test]
    fn single_and_empty_regions_run_inline() {
        let pool = WorkerPool::new(4);
        let one = [7];
        assert_eq!(pool.run(&one, |n| n + 1), vec![8]);
        let empty: [i32; 0] = [];
        assert_eq!(pool.run(&empty, |n| n + 1), Vec::<i32>::new());
        assert_eq!(pool.morsels_dispatched(), 0);
    }

    #[test]
    fn the_pool_is_reused_across_regions_without_respawning() {
        let pool = WorkerPool::new(3);
        let before = pool.size();
        for round in 0..50usize {
            let items: Vec<usize> = (0..40).collect();
            let sums = pool.run(&items, |n| n + round);
            assert_eq!(sums[0], round);
        }
        assert_eq!(pool.size(), before, "no respawn across regions");
        assert_eq!(pool.morsels_dispatched(), 50 * 40);
    }

    #[test]
    fn workers_share_borrowed_state() {
        let pool = WorkerPool::new(3);
        let base: Vec<String> = (0..200).map(|i| format!("v{i}")).collect();
        let items: Vec<usize> = (0..200).collect();
        let lens = pool.run(&items, |i| base[*i].len());
        assert_eq!(
            lens.iter().sum::<usize>(),
            base.iter().map(|s| s.len()).sum::<usize>()
        );
    }

    #[test]
    fn a_panicking_morsel_propagates_without_poisoning_the_pool() {
        let pool = WorkerPool::new(2);
        let items: Vec<usize> = (0..64).collect();
        let caught = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(&items, |n| {
                if *n == 33 {
                    panic!("morsel 33 exploded");
                }
                *n
            })
        }));
        let payload = caught.expect_err("the morsel panic must reach the submitter");
        let message = payload
            .downcast_ref::<&str>()
            .copied()
            .expect("payload is the original panic message");
        assert_eq!(message, "morsel 33 exploded");
        // The pool survives and runs the next region normally.
        let ok = pool.run(&items, |n| n * 3);
        assert_eq!(ok, (0..64).map(|n| n * 3).collect::<Vec<_>>());
    }

    #[test]
    fn drop_joins_all_workers() {
        let pool = WorkerPool::new(8);
        let items: Vec<usize> = (0..100).collect();
        let _ = pool.run(&items, |n| *n);
        drop(pool); // hangs (test timeout) if a worker fails to exit
    }

    #[test]
    fn non_copy_results_and_drops_are_balanced() {
        let pool = WorkerPool::new(4);
        let items: Vec<usize> = (0..128).collect();
        let strings = pool.run(&items, |n| format!("row-{n}"));
        assert_eq!(strings.len(), 128);
        assert_eq!(strings[127], "row-127");
    }

    #[test]
    fn concurrent_submitters_share_the_pool() {
        let pool = WorkerPool::new(4);
        thread::scope(|scope| {
            for offset in 0..4usize {
                let pool = &pool;
                scope.spawn(move || {
                    let items: Vec<usize> = (0..256).collect();
                    let out = pool.run(&items, |n| n + offset);
                    assert_eq!(out[10], 10 + offset);
                });
            }
        });
    }
}
