//! The process-wide worker pool: one worker per core, started on first use
//! and kept for the life of the process, serving every run registered with
//! it unit by unit.
//!
//! A process that runs many contractions (the contraction service, a test
//! binary) would otherwise start fresh workers for each. glibc binds each
//! new thread to an arena, and the memory one run freed stays in arenas the
//! next run's threads do not use. PaRSEC likewise starts one context per
//! process and submits every taskpool to it.
//!
//! The pool sees a run only as a [`Job`]: a source of ready units, and a
//! way to run one. A worker takes the head unit of the first registered
//! run, after the one it last served, that has one; runs registered at once
//! thus share the workers unit by unit. Idle workers sleep on one condvar.
//! The engine keeps each run's rules (lanes, continuation, retries); the
//! pool keeps the registry and the one `unsafe` of this crate's engine: the
//! lifetime-erased reference to each registered run.

use super::Taken;
use std::any::Any;
use std::panic::AssertUnwindSafe;
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// A run, as the pool's workers see it.
pub(super) trait Job: Sync {
    /// Takes the unit at the head of the run's ready list, if the run has
    /// one and is not done.
    fn take(&self) -> Option<Taken>;

    /// Runs `unit`, and its lane's next tasks while they may start, waking
    /// idle workers through `pool` for the units that queues meanwhile.
    /// Returns how many units it queued that no woken worker will serve.
    fn run(&self, unit: Taken, pool: &Pool) -> usize;

    /// A [`Job::run`] panicked: the run stops, and its submitter propagates
    /// `panic`.
    fn panicked(&self, panic: Box<dyn Any + Send>);

    /// The run finished, aborted or panicked.
    fn done(&self) -> bool;
}

/// A set of workers and the runs they serve.
pub(super) struct Pool {
    registry: Mutex<Registry>,
    /// Idle workers sleep here.
    work: Condvar,
    /// Submitters wait here for their run to finish and empty.
    left: Condvar,
}

struct Registry {
    runs: Vec<Entry>,
    /// Where the next search for a ready unit starts.
    next: usize,
    /// Workers asleep on `work`.
    asleep: usize,
}

struct Entry {
    job: &'static dyn Job,
    /// Workers inside `job.run` now.
    inside: usize,
}

/// The process's pool, started on first use with one worker per core.
pub(super) fn global() -> &'static Pool {
    static GLOBAL: OnceLock<Pool> = OnceLock::new();
    started(&GLOBAL, std::thread::available_parallelism().map_or(1, usize::from))
}

/// `cell`'s pool, started with `size` workers the first time.
pub(super) fn started(cell: &'static OnceLock<Pool>, size: usize) -> &'static Pool {
    let mut fresh = false;
    let pool = cell.get_or_init(|| {
        fresh = true;
        Pool {
            registry: Mutex::new(Registry { runs: Vec::new(), next: 0, asleep: 0 }),
            work: Condvar::new(),
            left: Condvar::new(),
        }
    });
    // Named, so `/proc/<pid>/task/*` and samplers tell the pool (`bst.w{i}`)
    // from the progress and pump threads beside it. A worker never returns
    // and never unwinds (it catches a run's panics), so it is not joined.
    for i in (0..size.max(1)).filter(|_| fresh) {
        std::thread::Builder::new()
            .name(format!("bst.w{i}"))
            .spawn(move || pool.serve_forever())
            .expect("spawn a pool worker");
    }
    pool
}

impl Pool {
    fn lock(&self) -> MutexGuard<'_, Registry> {
        // The registry is valid after each of its updates.
        self.registry.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn serve_forever(&self) {
        let mut reg = self.lock();
        loop {
            let n = reg.runs.len();
            let start = reg.next;
            let found = (0..n)
                .map(|k| (start + k) % n)
                .find_map(|r| reg.runs[r].job.take().map(|unit| (r, unit)));
            let Some((r, unit)) = found else {
                reg.asleep += 1;
                reg = self.work.wait(reg).unwrap_or_else(PoisonError::into_inner);
                reg.asleep -= 1;
                continue;
            };
            reg.next = r + 1;
            let entry = &mut reg.runs[r];
            entry.inside += 1;
            let job = entry.job;
            drop(reg);
            let wakes = std::panic::catch_unwind(AssertUnwindSafe(|| job.run(unit, self)))
                .unwrap_or_else(|panic| {
                    job.panicked(panic);
                    0
                });
            reg = self.lock();
            let entry = reg.runs.iter_mut().find(|e| std::ptr::addr_eq(e.job, job));
            let entry = entry.expect("a run with a worker inside stays registered");
            entry.inside -= 1;
            if entry.inside == 0 && job.done() {
                self.left.notify_all();
            }
            self.notify(&reg, wakes);
        }
    }

    /// Wakes up to `n` idle workers; the caller holds the registry lock, so
    /// a worker that found nothing cannot miss the wake-up.
    fn notify(&self, reg: &Registry, n: usize) {
        (0..n.min(reg.asleep)).for_each(|_| self.work.notify_one());
    }

    /// `n` units became ready: wakes up to `n` idle workers.
    pub(super) fn wake(&self, n: usize) {
        if n > 0 {
            self.notify(&self.lock(), n);
        }
    }

    /// Registers `job` with the pool's workers for the time `body` runs, and
    /// then until it is done and no worker is inside it.
    pub(super) fn serve<'a, R>(
        &'static self,
        job: &'a (dyn Job + 'a),
        body: impl FnOnce(&Lease) -> R,
    ) -> R {
        // SAFETY: the erased reference is called only through `job`'s entry
        // in the registry (the lease compares its address only): a worker or
        // `Lease::wait` calls `take` and `done` while it holds the registry
        // lock, and a worker calls `run` and `panicked` between raising and
        // lowering the entry's `inside`, both under that lock. `Lease::wait`
        // removes the entry, under the lock, only once `inside` is 0, and
        // the lease runs it when it drops, before `serve` returns or unwinds
        // and so within `'a`: the run outlives every worker's use of it.
        let job = unsafe { std::mem::transmute::<&'a (dyn Job + 'a), &'static dyn Job>(job) };
        let mut reg = self.lock();
        reg.runs.push(Entry { job, inside: 0 });
        // The run's seed tasks are ready.
        let asleep = reg.asleep;
        self.notify(&reg, asleep);
        drop(reg);
        body(&Lease { pool: self, job })
    }
}

/// A registered run, as its submitter holds it. Dropping it waits for the
/// run ([`Lease::wait`]).
pub(super) struct Lease {
    pool: &'static Pool,
    /// Identifies the run's entry: two registered runs are two objects.
    job: &'static dyn Job,
}

impl Lease {
    /// The run became done on a thread that is no worker: wakes its
    /// submitter, should it wait.
    pub(super) fn done(&self) {
        let _reg = self.pool.lock();
        self.pool.left.notify_all();
    }

    /// Blocks until the run is done and no worker is inside it, then
    /// deregisters it. Returns at once if it is deregistered already.
    pub(super) fn wait(&self) {
        let mut reg = self.pool.lock();
        while let Some(r) = reg.runs.iter().position(|e| std::ptr::addr_eq(e.job, self.job)) {
            if reg.runs[r].inside == 0 && reg.runs[r].job.done() {
                reg.runs.remove(r);
                if reg.next > r {
                    reg.next -= 1;
                }
                return;
            }
            reg = self.pool.left.wait(reg).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

impl Drop for Lease {
    fn drop(&mut self) {
        self.wait();
    }
}
