//! The process-wide work-stealing worker pool shared by every concurrent
//! verified query, every synchronous verification pass, and the network
//! server's connection turns.
//!
//! Before this module, each parallel region spawned its own scoped thread
//! pool (`std::thread::scope` + per-region spawn), so N concurrent
//! connections on the server's executor pool could create up to
//! `executor × workers` threads on `cores` cores. Here a **fixed set of
//! long-lived workers** — sized to machine parallelism, overridable via
//! `VERIDB_POOL` / `VERIDB_WORKERS` — serves all jobs in the process:
//!
//! - **Indexed jobs** ([`run_job`], and [`run_indexed`] on top of it): a
//!   parallel region submits its morsel / partition / sort-run task set,
//!   and `VerifiedMemory::verify_now` its per-partition passes (§3.3's
//!   "multiple verifiers … for different (disjoint) sections of the
//!   memory"), as one job. Task indices are seeded
//!   round-robin across per-job **lanes**; a worker attached to the job
//!   pops the front of its own lane and, when empty, steals from the back
//!   of a victim lane (the same discipline the scoped scheduler used, so
//!   steal observability carries over unchanged). Workers scan the job
//!   registry round-robin, so they also steal **across jobs**: an idle
//!   worker finishes helping one query's region and attaches to another
//!   query's. The per-job degree of parallelism is capped by the job's
//!   `dop` (the `--workers` knob), so one active query can use the whole
//!   pool while sixteen active queries share it without oversubscription —
//!   total live threads are bounded by the pool size no matter how many
//!   connections are executing.
//! - **Spawned tasks** ([`spawn`]): fire-and-forget closures (the network
//!   server's per-connection turns). Jobs have strict priority over
//!   spawned tasks so an admitted query's morsels never wait behind queued
//!   connection turns.
//!
//! # Blocking discipline (why this cannot deadlock)
//!
//! Workers block only on the registry condvar, and only when no job wants
//! a worker and no task is queued. A submitter blocks on its job's
//! completion condvar only after it has **helped**: it attaches to its
//! own job and claims tasks until none remain. Help-before-wait
//! guarantees progress even when every pool worker is busy or blocked —
//! a connection turn executing a query, a nested parallel region, or a
//! durable seal whose verification pass runs while its caller holds the
//! commit-order lock that other turns wait on — so the wait graph over
//! jobs is a DAG that bottoms out in finite task bodies.
//!
//! # Determinism
//!
//! The scheduler never influences results: task sets are fixed before
//! submission (morsel tiling is pool-size-independent) and the caller
//! merges results in task-index order. Which worker runs which task, and
//! in what real-time order, is unobservable in query output — results are
//! byte-identical to serial execution for any pool size and any
//! concurrent load.
//!
//! # Safety
//!
//! A job body borrows the submitter's stack (plans, partition tables,
//! metrics). The pool's workers are `'static` threads, so the borrow is
//! lifetime-erased into a raw pointer with a strict protocol: every deref
//! happens between a successful `Job::claim` (which increments the
//! running count under the job lock) and the matching `Job::complete`;
//! `done` is set only when no task is running and none can be claimed;
//! and [`run_job`] returns only after observing `done`. Hence no worker
//! can touch the body after `run_job` returns.

use crate::sync::{Condvar, Mutex};
use crate::{Error, Result};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::Instant;

/// Hard ceiling on the worker pool size (mirrors the `--workers` clamp).
pub const MAX_POOL_THREADS: usize = 64;

/// Machine parallelism, clamped to the pool ceiling.
fn auto_pool_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
        .clamp(1, MAX_POOL_THREADS)
}

/// Pool size when [`configure`] was not called: `VERIDB_POOL` if set,
/// else `VERIDB_WORKERS` (the legacy knob that used to size per-query
/// scoped pools — honoring it keeps existing deployments' thread budgets
/// unchanged), else machine parallelism.
pub fn default_pool_threads() -> usize {
    for var in ["VERIDB_POOL", "VERIDB_WORKERS"] {
        if let Ok(s) = std::env::var(var) {
            match s.parse::<usize>() {
                Ok(n) if (1..=MAX_POOL_THREADS).contains(&n) => return n,
                _ => eprintln!(
                    "warning: invalid {var} value {s:?} (expected 1..={MAX_POOL_THREADS}); \
                     sizing the scheduler pool to machine parallelism"
                ),
            }
        }
    }
    auto_pool_threads()
}

static POOL: OnceLock<Pool> = OnceLock::new();
/// Size requested by [`configure`] before first use (0 = none).
static REQUESTED: AtomicUsize = AtomicUsize::new(0);
static NEXT_JOB_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// True on a pool worker thread.
    static IS_POOL_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Request a pool size before the pool starts. Returns the effective
/// size: once the pool is running its size is fixed, and a conflicting
/// request is warned about and ignored (the process has one pool).
pub fn configure(threads: usize) -> usize {
    let t = threads.clamp(1, MAX_POOL_THREADS);
    if let Some(pool) = POOL.get() {
        if pool.size != t {
            eprintln!(
                "veridb-sched: worker pool already running with {} threads; \
                 ignoring request for {t}",
                pool.size
            );
        }
        return pool.size;
    }
    REQUESTED.store(t, Ordering::SeqCst);
    t
}

/// The pool size (starting the pool on first use).
pub fn pool_size() -> usize {
    pool().size
}

/// The number of workers currently executing a job or task.
pub fn pool_busy() -> usize {
    pool().busy.load(Ordering::Relaxed)
}

fn pool() -> &'static Pool {
    POOL.get_or_init(|| {
        let requested = REQUESTED.load(Ordering::SeqCst);
        let size = if requested > 0 {
            requested
        } else {
            default_pool_threads()
        };
        Pool::start(size)
    })
}

/// Point-in-time pool counters (exposed through `.stats` consumers).
#[derive(Debug, Clone)]
pub struct PoolStats {
    /// Fixed worker count.
    pub size: usize,
    /// Workers currently executing a job or spawned task.
    pub busy: usize,
    /// Spawned tasks waiting for a worker.
    pub queued_tasks: usize,
    /// Indexed jobs currently registered.
    pub active_jobs: usize,
    /// Spawned tasks that panicked (caught; the worker survives).
    pub task_panics: u64,
    /// Per-worker count of job *switches*: the worker's previous unit of
    /// work belonged to a different job (cross-job stealing in action).
    pub cross_job_steals: Vec<u64>,
}

/// Current pool counters (starting the pool on first use).
pub fn pool_stats() -> PoolStats {
    let p = pool();
    let (queued_tasks, active_jobs) = {
        let reg = p.registry.lock();
        (reg.tasks.len(), reg.jobs.len())
    };
    PoolStats {
        size: p.size,
        busy: p.busy.load(Ordering::Relaxed),
        queued_tasks,
        active_jobs,
        task_panics: p.task_panics.load(Ordering::Relaxed),
        cross_job_steals: p
            .cross_steals
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect(),
    }
}

/// Run a fire-and-forget closure on the pool. Panics are caught and
/// counted; the worker survives.
pub fn spawn<F: FnOnce() + Send + 'static>(f: F) {
    let p = pool();
    p.registry.lock().tasks.push_back(Box::new(f));
    p.work_cv.notify_one();
}

/// One claimed task of an indexed job, as seen by the job body.
#[derive(Debug, Clone, Copy)]
pub struct JobTask {
    /// Task index in `0..tasks`.
    pub index: usize,
    /// The lane the executing worker is attached to (stable per worker
    /// per attachment; feeds the per-worker metric slots).
    pub lane: usize,
    /// The index was taken from another lane's deque.
    pub stolen: bool,
    /// First task after this worker switched onto this job from a
    /// different job (cross-job steal attribution).
    pub cross_job: bool,
}

/// What [`run_job`] observed about its job's scheduling.
#[derive(Debug, Clone, Copy)]
pub struct JobStats {
    /// Microseconds from submission to the first task starting.
    pub sched_wait_us: u64,
    /// Pool size at execution time.
    pub pool_size: usize,
    /// Peak number of pool workers concurrently attached to the job (a
    /// helping submitter counts only if it is itself a pool worker).
    pub workers_attached: usize,
}

/// A job body: called once per claimed task; returns `false` to abort
/// the job (remaining unclaimed tasks are dropped). The lifetime lets
/// bodies borrow the submitter's stack — safe because [`run_job`] does
/// not return until no worker can touch the body again.
pub type JobBody<'a> = dyn Fn(JobTask) -> bool + Sync + 'a;

/// Submit `tasks` indices as one job with per-job DOP cap `dop`, then
/// block until every claimed task completed and no task remains claimable.
/// The calling thread helps execute the job before it waits (see the
/// module docs' blocking discipline). Bodies that panic abort the job like
/// a `false` return; the worker survives.
pub fn run_job(tasks: usize, dop: usize, body: &JobBody<'_>) -> JobStats {
    let p = pool();
    if tasks == 0 {
        return JobStats {
            sched_wait_us: 0,
            pool_size: p.size,
            workers_attached: 0,
        };
    }
    let dop = dop.clamp(1, tasks);
    let lanes_n = dop.min(tasks);
    let mut lanes: Vec<VecDeque<usize>> = (0..lanes_n).map(|_| VecDeque::new()).collect();
    for i in 0..tasks {
        lanes[i % lanes_n].push_back(i);
    }
    // SAFETY: lifetime erasure guarded by the claim/complete/done
    // protocol documented on the module — no deref after `done`, and
    // `run_job` returns only after `done`.
    let body_static: &'static JobBody<'static> =
        unsafe { std::mem::transmute::<&JobBody<'_>, &'static JobBody<'static>>(body) };
    let job = Arc::new(Job {
        id: NEXT_JOB_ID.fetch_add(1, Ordering::Relaxed),
        dop,
        state: Mutex::new(JobState {
            lanes,
            unclaimed: tasks,
            running: 0,
            attached: 0,
            pool_attached: 0,
            tickets: 0,
            failed: false,
            done: false,
        }),
        done_cv: Condvar::new(),
        body: body_static as *const JobBody<'static>,
        submitted: Instant::now(),
        first_claim_us: AtomicU64::new(u64::MAX),
        peak_attached: AtomicUsize::new(0),
    });
    p.registry.lock().jobs.push(Arc::clone(&job));
    p.work_cv.notify_all();
    // Help-before-wait: guarantees progress even when every worker is
    // busy or blocked (and lets a lone active query on a busy server run
    // at DOP ≥ 1 immediately).
    job.run_on(false, IS_POOL_WORKER.with(|w| w.get()));
    let mut st = job.state.lock();
    while !st.done {
        st = job.done_cv.wait(st);
    }
    drop(st);
    p.registry.lock().jobs.retain(|j| j.id != job.id);
    let wait = job.first_claim_us.load(Ordering::Relaxed);
    JobStats {
        sched_wait_us: if wait == u64::MAX { 0 } else { wait },
        pool_size: p.size,
        workers_attached: job.peak_attached.load(Ordering::Relaxed),
    }
}

/// Run `work` once for every index in `0..tasks` at DOP `dop` and return
/// the results in index order, with the job's [`JobStats`] (`None` when
/// the tasks ran inline).
///
/// With one task or a DOP of one the tasks run inline on the caller, in
/// index order, up to the first error. Otherwise they run as one
/// [`run_job`]: once a task fails no new task is claimed, the
/// lowest-indexed error is returned, and a task that panicked on the pool
/// becomes an error.
pub fn run_indexed<T, F>(tasks: usize, dop: usize, work: F) -> (Result<Vec<T>>, Option<JobStats>)
where
    T: Send,
    F: Fn(JobTask) -> Result<T> + Sync,
{
    if tasks <= 1 || dop <= 1 {
        let out = (0..tasks)
            .map(|index| {
                work(JobTask {
                    index,
                    lane: 0,
                    stolen: false,
                    cross_job: false,
                })
            })
            .collect();
        return (out, None);
    }
    let slots: Vec<Mutex<Option<Result<T>>>> = (0..tasks).map(|_| Mutex::new(None)).collect();
    // A failed task fails the job, which stops further claims.
    let stats = run_job(tasks, dop, &|t: JobTask| {
        let result = work(t);
        let ok = result.is_ok();
        *slots[t.index].lock() = Some(result);
        ok
    });
    // Lowest-indexed recorded error wins. Under work stealing an
    // abandoned (never-claimed) index can sit anywhere relative to the
    // error, so scan for errors before requiring every slot be filled.
    let mut out = Vec::with_capacity(tasks);
    for slot in slots {
        match slot.into_inner() {
            Some(Ok(value)) => out.push(value),
            Some(Err(e)) => return (Err(e), Some(stats)),
            None => {}
        }
    }
    // With no recorded error, an empty slot means its task panicked on
    // the pool (the job failed without a result).
    if out.len() < tasks {
        let e = Error::Plan("parallel job aborted: a task panicked on the scheduler pool".into());
        return (Err(e), Some(stats));
    }
    (Ok(out), Some(stats))
}

// ---------------------------------------------------------------------------
// Internals
// ---------------------------------------------------------------------------

struct Pool {
    size: usize,
    registry: Mutex<Registry>,
    work_cv: Condvar,
    busy: AtomicUsize,
    task_panics: AtomicU64,
    cross_steals: Vec<AtomicU64>,
}

struct Registry {
    jobs: Vec<Arc<Job>>,
    /// Round-robin cursor over `jobs` for cross-job fairness.
    next_job: usize,
    tasks: VecDeque<Box<dyn FnOnce() + Send>>,
}

impl Pool {
    fn start(size: usize) -> Pool {
        let pool = Pool {
            size,
            registry: Mutex::new(Registry {
                jobs: Vec::new(),
                next_job: 0,
                tasks: VecDeque::new(),
            }),
            work_cv: Condvar::new(),
            busy: AtomicUsize::new(0),
            task_panics: AtomicU64::new(0),
            cross_steals: (0..size).map(|_| AtomicU64::new(0)).collect(),
        };
        for i in 0..size {
            // Workers read POOL through the OnceLock: by the time any
            // work exists to claim, `get_or_init` has published it.
            std::thread::Builder::new()
                .name(format!("veridb-pool-{i}"))
                .spawn(move || worker_main(i))
                .expect("spawn scheduler worker");
        }
        pool
    }
}

enum Unit {
    Job(Arc<Job>),
    Task(Box<dyn FnOnce() + Send>),
}

fn worker_main(wid: usize) {
    IS_POOL_WORKER.with(|w| w.set(true));
    let p = pool();
    let mut last_job: u64 = 0;
    loop {
        let unit = {
            let mut reg = p.registry.lock();
            loop {
                if let Some(u) = pick(&mut reg) {
                    break u;
                }
                reg = p.work_cv.wait(reg);
            }
        };
        p.busy.fetch_add(1, Ordering::AcqRel);
        match unit {
            Unit::Job(job) => {
                let cross = last_job != 0 && last_job != job.id;
                if cross {
                    p.cross_steals[wid].fetch_add(1, Ordering::Relaxed);
                }
                last_job = job.id;
                job.run_on(cross, true);
            }
            Unit::Task(task) => {
                if catch_unwind(AssertUnwindSafe(task)).is_err() {
                    p.task_panics.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        p.busy.fetch_sub(1, Ordering::AcqRel);
    }
}

/// Next unit of work: jobs (round-robin across the registry) have strict
/// priority over spawned tasks.
fn pick(reg: &mut Registry) -> Option<Unit> {
    let n = reg.jobs.len();
    for k in 0..n {
        let idx = (reg.next_job + k) % n;
        if reg.jobs[idx].wants_worker() {
            reg.next_job = (idx + 1) % n;
            return Some(Unit::Job(Arc::clone(&reg.jobs[idx])));
        }
    }
    reg.tasks.pop_front().map(Unit::Task)
}

struct Job {
    id: u64,
    /// Per-job DOP cap: at most this many workers attached at once.
    dop: usize,
    state: Mutex<JobState>,
    done_cv: Condvar,
    /// Lifetime-erased borrow of the submitter's body closure. Valid
    /// until `done` (see module safety docs).
    body: *const JobBody<'static>,
    submitted: Instant,
    /// Microseconds from submission to first claim (`u64::MAX` = none).
    first_claim_us: AtomicU64,
    /// Peak of `JobState::pool_attached`.
    peak_attached: AtomicUsize,
}

// SAFETY: `body` points at a `Sync` closure that outlives every deref
// (claim/complete/done protocol); all other fields are Sync.
unsafe impl Send for Job {}
unsafe impl Sync for Job {}

struct JobState {
    /// Per-lane index deques, seeded round-robin (lane `l` holds
    /// `l, l+lanes, l+2·lanes, …` in increasing order).
    lanes: Vec<VecDeque<usize>>,
    /// Indices not yet claimed (= total queued across lanes).
    unclaimed: usize,
    /// Claimed indices whose body is executing right now.
    running: usize,
    /// Threads currently attached (at most `dop`).
    attached: usize,
    /// Of those, pool workers (the rest is a helping outside submitter).
    pool_attached: usize,
    /// Lane-assignment ticket for arriving workers.
    tickets: usize,
    failed: bool,
    done: bool,
}

impl Job {
    /// Could this job use another worker right now? (Registry-scan
    /// filter; racy reads are fine — `attach` re-checks under the lock.)
    fn wants_worker(&self) -> bool {
        let st = self.state.lock();
        !st.done && !st.failed && st.unclaimed > 0 && st.attached < self.dop
    }

    fn attach(&self, pool_worker: bool) -> Option<usize> {
        let mut st = self.state.lock();
        if st.done || st.failed || st.unclaimed == 0 || st.attached >= self.dop {
            return None;
        }
        st.attached += 1;
        st.pool_attached += usize::from(pool_worker);
        let lane = st.tickets % st.lanes.len();
        st.tickets += 1;
        self.peak_attached
            .fetch_max(st.pool_attached, Ordering::Relaxed);
        Some(lane)
    }

    fn detach(&self, pool_worker: bool) {
        let mut st = self.state.lock();
        st.attached -= 1;
        st.pool_attached -= usize::from(pool_worker);
    }

    /// Claim the next index for a worker on `lane`: own front first, then
    /// steal victims' backs. `None` once nothing is claimable (empty
    /// lanes, failure, or done). Claiming increments `running` under the
    /// same lock, which is what makes the body borrow safe to deref.
    fn claim(&self, lane: usize) -> Option<(usize, bool)> {
        let mut st = self.state.lock();
        if st.done || st.failed {
            return None;
        }
        let l = st.lanes.len();
        if let Some(i) = st.lanes[lane].pop_front() {
            st.unclaimed -= 1;
            st.running += 1;
            return Some((i, false));
        }
        for d in 1..l {
            let victim = (lane + d) % l;
            if let Some(i) = st.lanes[victim].pop_back() {
                st.unclaimed -= 1;
                st.running += 1;
                return Some((i, true));
            }
        }
        None
    }

    fn complete(&self, ok: bool) {
        let mut st = self.state.lock();
        st.running -= 1;
        if !ok {
            st.failed = true;
        }
        if st.running == 0 && (st.unclaimed == 0 || st.failed) {
            st.done = true;
            self.done_cv.notify_all();
        }
    }

    fn note_first_claim(&self) {
        if self.first_claim_us.load(Ordering::Relaxed) == u64::MAX {
            let us = self.submitted.elapsed().as_micros() as u64;
            let _ = self.first_claim_us.compare_exchange(
                u64::MAX,
                us,
                Ordering::Relaxed,
                Ordering::Relaxed,
            );
        }
    }

    /// Attach, drain claims, detach. `cross_job` tags the first claimed
    /// task for steal attribution; `pool_worker` says whether the calling
    /// thread is one of the pool's.
    fn run_on(&self, cross_job: bool, pool_worker: bool) {
        let Some(lane) = self.attach(pool_worker) else {
            return;
        };
        let mut cross = cross_job;
        while let Some((index, stolen)) = self.claim(lane) {
            self.note_first_claim();
            // SAFETY: running > 0 for this task, so `done` cannot be set
            // and the submitter cannot have returned (module safety docs).
            let body = unsafe { &*self.body };
            let task = JobTask {
                index,
                lane,
                stolen,
                cross_job: cross,
            };
            cross = false;
            let ok = catch_unwind(AssertUnwindSafe(|| body(task))).unwrap_or(false);
            self.complete(ok);
        }
        self.detach(pool_worker);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn run_job_executes_every_index_once() {
        let hits: Vec<AtomicUsize> = (0..40).map(|_| AtomicUsize::new(0)).collect();
        let stats = run_job(40, 4, &|t: JobTask| {
            hits[t.index].fetch_add(1, Ordering::SeqCst);
            true
        });
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(h.load(Ordering::SeqCst), 1, "index {i}");
        }
        assert!(stats.pool_size >= 1);
    }

    #[test]
    fn failed_body_stops_further_claims() {
        let ran = AtomicUsize::new(0);
        run_job(64, 2, &|t: JobTask| {
            ran.fetch_add(1, Ordering::SeqCst);
            t.index != 0
        });
        // Index 0 is the very first claim of lane 0; after it fails no
        // new claims start, so far fewer than 64 tasks run. In-flight
        // tasks on other workers may still finish — allow slack.
        assert!(
            ran.load(Ordering::SeqCst) < 64,
            "claims must stop on failure"
        );
    }

    #[test]
    fn panicking_body_fails_the_job_and_worker_survives() {
        run_job(8, 2, &|t: JobTask| {
            if t.index == 3 {
                panic!("boom");
            }
            true
        });
        // The pool must still execute new work afterwards.
        let ok = AtomicUsize::new(0);
        run_job(4, 2, &|_t: JobTask| {
            ok.fetch_add(1, Ordering::SeqCst);
            true
        });
        assert_eq!(ok.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn run_indexed_keeps_index_order_and_runs_inline_at_dop_one() {
        let (out, stats) = run_indexed(40, 4, |t: JobTask| Ok(t.index * 10));
        assert_eq!(out.unwrap(), (0..40).map(|i| i * 10).collect::<Vec<_>>());
        assert!(stats.is_some());
        let caller = std::thread::current().id();
        let (out, stats) = run_indexed(8, 1, |t: JobTask| {
            assert_eq!(std::thread::current().id(), caller, "DOP 1 runs inline");
            Ok(t.index)
        });
        assert_eq!(out.unwrap(), (0..8).collect::<Vec<_>>());
        assert!(stats.is_none());
    }

    #[test]
    fn run_indexed_returns_the_lowest_indexed_recorded_error() {
        for dop in [1, 4] {
            let ran = Mutex::new(Vec::new());
            let (out, _) = run_indexed(64, dop, |t: JobTask| -> Result<()> {
                ran.lock().push(t.index);
                Err(Error::PageNotFound(t.index as u64))
            });
            let lowest = *ran.lock().iter().min().unwrap();
            assert_eq!(out.unwrap_err(), Error::PageNotFound(lowest as u64));
            assert!(ran.lock().len() < 64, "claims must stop on failure");
        }
    }

    #[test]
    fn run_indexed_turns_a_task_panic_into_an_error() {
        let (out, _) = run_indexed(8, 2, |t: JobTask| {
            if t.index == 3 {
                panic!("boom");
            }
            Ok(t.index)
        });
        assert!(matches!(out, Err(Error::Plan(_))), "{out:?}");
    }

    /// An outside thread holding a lock that every pool worker waits on
    /// (a durable seal under the commit-order lock, with each worker
    /// running a turn blocked on that lock) still finishes its own job.
    #[test]
    fn submitter_finishes_its_job_while_every_worker_is_blocked() {
        let gate = Arc::new(Mutex::new(()));
        let held = gate.lock();
        let blocked = Arc::new(AtomicUsize::new(0));
        for _ in 0..pool_size() {
            let (gate, blocked) = (Arc::clone(&gate), Arc::clone(&blocked));
            spawn(move || {
                blocked.fetch_add(1, Ordering::SeqCst);
                drop(gate.lock());
            });
        }
        let deadline = Instant::now() + std::time::Duration::from_secs(10);
        while blocked.load(Ordering::SeqCst) < pool_size() && Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert_eq!(blocked.load(Ordering::SeqCst), pool_size());
        let (out, stats) = run_indexed(16, 4, |t: JobTask| Ok(t.index));
        assert_eq!(out.unwrap(), (0..16).collect::<Vec<_>>());
        assert_eq!(stats.unwrap().workers_attached, 0, "only the submitter ran");
        drop(held);
    }

    #[test]
    fn spawned_tasks_run_and_panics_are_counted() {
        let before = pool_stats().task_panics;
        let done = Arc::new(AtomicUsize::new(0));
        let d = Arc::clone(&done);
        spawn(move || {
            d.fetch_add(1, Ordering::SeqCst);
        });
        spawn(|| panic!("task boom"));
        let deadline = Instant::now() + std::time::Duration::from_secs(10);
        while (done.load(Ordering::SeqCst) < 1 || pool_stats().task_panics < before + 1)
            && Instant::now() < deadline
        {
            std::thread::yield_now();
        }
        assert_eq!(done.load(Ordering::SeqCst), 1);
        assert!(pool_stats().task_panics > before);
    }

    #[test]
    fn nested_run_job_from_spawned_task_helps_itself() {
        // A pool worker that submits a job must make progress even if it
        // is the only worker (help-before-wait).
        let done = Arc::new(AtomicUsize::new(0));
        let d = Arc::clone(&done);
        spawn(move || {
            let inner = AtomicUsize::new(0);
            run_job(16, 4, &|_t: JobTask| {
                inner.fetch_add(1, Ordering::SeqCst);
                true
            });
            if inner.load(Ordering::SeqCst) == 16 {
                d.fetch_add(1, Ordering::SeqCst);
            }
        });
        let deadline = Instant::now() + std::time::Duration::from_secs(10);
        while done.load(Ordering::SeqCst) == 0 && Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert_eq!(done.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn concurrent_jobs_share_the_pool() {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(|| {
                    let hits = AtomicUsize::new(0);
                    run_job(32, 4, &|_t: JobTask| {
                        hits.fetch_add(1, Ordering::SeqCst);
                        true
                    });
                    hits.load(Ordering::SeqCst)
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), 32);
        }
    }

    #[test]
    fn stats_report_fixed_size() {
        let s = pool_stats();
        assert!(s.size >= 1 && s.size <= MAX_POOL_THREADS);
        assert_eq!(s.cross_job_steals.len(), s.size);
        assert_eq!(pool_size(), s.size);
    }
}
