//! A hand-rolled, dependency-free async runtime: a single-threaded
//! mini-executor with a deterministic **virtual clock**.
//!
//! The federation's latency models describe *simulated* time; realising them
//! with `thread::sleep` (as the threaded executor's throughput harness
//! does) makes every measurement wall-clock-bound and every test slow. The
//! async runtime replaces real sleeps with a [`VirtualClock`]: `sleep`
//! futures register `(deadline, registration-sequence)` entries in a timer
//! wheel, and whenever the executor runs out of ready tasks it advances the
//! clock to the earliest pending deadline and wakes the timers that came
//! due — in deadline order, ties broken by registration order, so runs are
//! bit-for-bit reproducible and take microseconds of wall time regardless
//! of the simulated latencies.
//!
//! The pieces, all built on stable `std` only (no crates.io dependencies):
//!
//! * [`VirtualClock`] — shared virtual time plus the timer wheel;
//!   [`VirtualClock::sleep`] is the awaitable primitive the async sources
//!   build their latency/retry/paging state machines from. A `Sleep`
//!   registers its timer once: a later poll by a waker that
//!   [`Waker::will_wake`] the registered one leaves the entry alone.
//!   Dropping a `Sleep` future deregisters its timer, so cancelled tasks
//!   leak nothing.
//! * [`Executor`] — a single-threaded task queue. Tasks are plain boxed
//!   futures (not required to be `Send`; they never leave the thread).
//!   Each task gets one waker, built by [`Executor::spawn`] on the std
//!   [`std::task::Wake`] trait and handed to every poll of the task, so
//!   futures that keep a waker can tell by `will_wake` that they already
//!   hold it. Wakers are safe to invoke after the executor itself is gone
//!   (the wake becomes a no-op on a queue nobody drains). The ready queue
//!   is strict FIFO and a task re-waking itself goes to the back, so many
//!   ready tasks make round-robin progress (fairness is pinned by a unit
//!   test).
//! * `JoinAll` (crate-private) — the one batch join: a batch of source
//!   calls awaited together, outputs in batch order, re-polling only the
//!   calls woken since the last poll. The `Async` executor and every
//!   serving session await their batches through it.
//! * [`Semaphore`] — a FIFO async semaphore. Each batch call acquires a
//!   permit before it dials, so one semaphore caps a request's in-flight
//!   calls: `workers` permits for an `Async` run (the knob the F2
//!   throughput sweep turns), `max_in_flight_accesses` shared by every
//!   session of a serve.
//!
//! The executor is deliberately *not* `'static`-only: [`Executor::spawn`]
//! accepts futures borrowing from the caller's stack (an `Async` run is one
//! task borrowing the request and the federation), which is what lets the
//! whole runtime live inside one synchronous `execute` call.

use std::cell::RefCell;
use std::collections::{btree_map, BTreeMap, VecDeque};
use std::future::Future;
use std::pin::Pin;
use std::rc::Rc;
use std::sync::{Arc, Mutex};
use std::task::{Context, Poll, Wake, Waker};

/// A boxed, single-threaded task future (erased to `()`; results travel
/// through [`JoinHandle`] cells).
type TaskFuture<'env> = Pin<Box<dyn Future<Output = ()> + 'env>>;

// ---------------------------------------------------------------------------
// Virtual clock
// ---------------------------------------------------------------------------

#[derive(Debug, Default)]
struct ClockInner {
    /// Virtual time, in microseconds since the clock's creation.
    now_micros: u64,
    /// Registration sequence for deterministic same-deadline ordering.
    next_timer_id: u64,
    /// Pending timers: `(deadline, registration id) → waker`.
    timers: BTreeMap<(u64, u64), Waker>,
}

/// A shared, deterministic virtual clock with a timer wheel.
///
/// Cloning is cheap and shares the underlying state: the async federation
/// hands clones to its sources, and the executor driving their futures
/// advances the same clock. Time only moves through
/// [`VirtualClock::advance_to_next_timer`] (called by [`Executor::run`]
/// when no task is ready), never through wall-clock sleeps.
#[derive(Debug, Clone, Default)]
pub struct VirtualClock {
    inner: Arc<Mutex<ClockInner>>,
}

impl VirtualClock {
    /// A fresh clock at virtual time zero with no pending timers.
    pub fn new() -> Self {
        Self::default()
    }

    /// The current virtual time, in microseconds.
    pub fn now_micros(&self) -> u64 {
        self.lock().now_micros
    }

    /// Number of registered (not yet fired) timers.
    pub fn timer_count(&self) -> usize {
        self.lock().timers.len()
    }

    /// Advances virtual time by `micros` *without* waking any timer — the
    /// synchronous chaos pacing hook (`crate::chaos`): threaded federations
    /// have no executor draining this clock, so the chaos controller ticks
    /// it forward a fixed pace per wire attempt to give churn scripts a
    /// timeline. Panics if a timer is pending (an async run owns the clock;
    /// skipping its deadlines would deadlock the executor).
    pub fn advance_micros(&self, micros: u64) {
        let mut inner = self.lock();
        assert!(
            inner.timers.is_empty(),
            "advance_micros on a clock with pending timers (owned by an executor)"
        );
        inner.now_micros = inner.now_micros.saturating_add(micros);
    }

    /// A future that completes once virtual time has advanced `micros`
    /// microseconds past the moment of this call. A zero-length sleep is
    /// ready on first poll and never registers a timer.
    pub fn sleep(&self, micros: u64) -> Sleep {
        let mut inner = self.lock();
        let deadline = inner.now_micros.saturating_add(micros);
        let id = inner.next_timer_id;
        inner.next_timer_id += 1;
        Sleep {
            clock: self.clone(),
            key: (deadline, id),
        }
    }

    /// Advances virtual time to the earliest pending deadline and wakes
    /// every timer due at the new time (in `(deadline, registration)`
    /// order). Returns `false` when no timer is pending — time cannot
    /// advance on its own.
    pub fn advance_to_next_timer(&self) -> bool {
        let due: Vec<Waker> = {
            let mut inner = self.lock();
            let Some(&(deadline, _)) = inner.timers.keys().next() else {
                return false;
            };
            inner.now_micros = inner.now_micros.max(deadline);
            let now = inner.now_micros;
            let mut due = Vec::new();
            while let Some(entry) = inner.timers.first_entry() {
                if entry.key().0 > now {
                    break;
                }
                due.push(entry.remove());
            }
            due
        };
        // Wake outside the lock: a waker may (transitively) touch the clock.
        for waker in due {
            waker.wake();
        }
        true
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, ClockInner> {
        self.inner.lock().expect("virtual clock poisoned")
    }
}

/// The future returned by [`VirtualClock::sleep`]. Dropping it before
/// completion deregisters the timer, so cancellation leaks nothing.
#[derive(Debug)]
pub struct Sleep {
    clock: VirtualClock,
    key: (u64, u64),
}

impl Future for Sleep {
    type Output = ();

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        let mut inner = self.clock.lock();
        if inner.now_micros >= self.key.0 {
            inner.timers.remove(&self.key);
            return Poll::Ready(());
        }
        match inner.timers.entry(self.key) {
            btree_map::Entry::Occupied(mut timer) => {
                if !timer.get().will_wake(cx.waker()) {
                    timer.insert(cx.waker().clone());
                }
            }
            btree_map::Entry::Vacant(slot) => {
                slot.insert(cx.waker().clone());
            }
        }
        Poll::Pending
    }
}

impl Drop for Sleep {
    fn drop(&mut self) {
        self.clock.lock().timers.remove(&self.key);
    }
}

// ---------------------------------------------------------------------------
// Executor
// ---------------------------------------------------------------------------

#[derive(Debug, Default)]
struct ReadyQueue {
    /// Task indices ready to be polled, FIFO.
    queue: VecDeque<usize>,
    /// Deduplication flags: `queued[i]` ⇔ task `i` is already in `queue`.
    queued: Vec<bool>,
}

/// The waker-reachable half of the executor. It outlives the [`Executor`]
/// through the `Arc`s inside wakers, which is what makes late wakes (after
/// the executor and its tasks are gone) harmless no-ops.
#[derive(Debug, Default)]
struct ExecShared {
    ready: Mutex<ReadyQueue>,
}

impl ExecShared {
    fn push(&self, index: usize) {
        let mut ready = self.ready.lock().expect("executor queue poisoned");
        if let Some(flag) = ready.queued.get_mut(index) {
            if !*flag {
                *flag = true;
                ready.queue.push_back(index);
            }
        }
    }

    fn pop(&self) -> Option<usize> {
        let mut ready = self.ready.lock().expect("executor queue poisoned");
        let index = ready.queue.pop_front()?;
        ready.queued[index] = false;
        Some(index)
    }

    fn register(&self) -> usize {
        let mut ready = self.ready.lock().expect("executor queue poisoned");
        ready.queued.push(false);
        ready.queued.len() - 1
    }
}

/// The per-task waker: waking re-enqueues the task on the shared ready
/// queue. `Send + Sync` as the `Waker` contract requires, even though the
/// tasks themselves never cross threads.
struct TaskWaker {
    index: usize,
    shared: Arc<ExecShared>,
}

impl Wake for TaskWaker {
    fn wake(self: Arc<Self>) {
        self.shared.push(self.index);
    }

    fn wake_by_ref(self: &Arc<Self>) {
        self.shared.push(self.index);
    }
}

/// A spawned, unfinished task: its future and the one waker every poll of
/// it is handed.
struct Task<'env> {
    future: TaskFuture<'env>,
    waker: Waker,
}

/// A single-threaded mini-executor over a [`VirtualClock`].
///
/// `'env` is the lifetime tasks may borrow from: the `Async` executor
/// spawns its whole run as one task that borrows the request, the initial
/// configuration and the federation from its caller's stack, and awaits
/// each batch inside it as one batch join. Dropping the executor drops
/// every unfinished task (their `Sleep` timers deregister themselves), so
/// abandoning a run mid-batch leaks nothing.
pub struct Executor<'env> {
    clock: VirtualClock,
    shared: Arc<ExecShared>,
    tasks: RefCell<Vec<Option<Task<'env>>>>,
}

impl std::fmt::Debug for Executor<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Executor")
            .field("clock", &self.clock)
            .field("tasks", &self.tasks.borrow().len())
            .field("pending", &self.pending_tasks())
            .finish()
    }
}

impl<'env> Executor<'env> {
    /// An executor driving tasks against `clock`.
    pub fn new(clock: VirtualClock) -> Self {
        Self {
            clock,
            shared: Arc::new(ExecShared::default()),
            tasks: RefCell::new(Vec::new()),
        }
    }

    /// The clock this executor advances when idle.
    pub fn clock(&self) -> &VirtualClock {
        &self.clock
    }

    /// Spawns a task and returns a handle to its eventual result. The task
    /// is queued immediately (behind every task already ready) and first
    /// polled by the next [`Executor::step`] that reaches it.
    pub fn spawn<T, F>(&self, future: F) -> JoinHandle<T>
    where
        T: 'env,
        F: Future<Output = T> + 'env,
    {
        let cell: Rc<RefCell<Option<T>>> = Rc::new(RefCell::new(None));
        let out = Rc::clone(&cell);
        let index = self.shared.register();
        let waker = Waker::from(Arc::new(TaskWaker {
            index,
            shared: Arc::clone(&self.shared),
        }));
        {
            let mut tasks = self.tasks.borrow_mut();
            debug_assert_eq!(tasks.len(), index, "task and queue slots in step");
            tasks.push(Some(Task {
                future: Box::pin(async move {
                    *out.borrow_mut() = Some(future.await);
                }),
                waker,
            }));
        }
        self.shared.push(index);
        JoinHandle { cell }
    }

    /// Polls the first ready task, if any. Returns `false` when the ready
    /// queue is empty (only clock advancement can unblock progress).
    pub fn step(&self) -> bool {
        loop {
            let Some(index) = self.shared.pop() else {
                return false;
            };
            // A stale wake may point at a completed task; skip it.
            let Some(mut task) = self.tasks.borrow_mut()[index].take() else {
                continue;
            };
            // The task leaves its slot, waker included, for the poll: no
            // borrow of `tasks` is held, so a task spawning new tasks (or
            // waking itself) re-borrows it safely.
            let mut cx = Context::from_waker(&task.waker);
            if task.future.as_mut().poll(&mut cx).is_pending() {
                self.tasks.borrow_mut()[index] = Some(task);
            }
            return true;
        }
    }

    /// Runs until no task is ready (without advancing the clock).
    pub fn run_until_stalled(&self) {
        while self.step() {}
    }

    /// Runs tasks to completion, advancing the virtual clock whenever every
    /// remaining task is blocked on a timer. Returns the number of tasks
    /// still pending — zero on success; non-zero means the remaining tasks
    /// are blocked on something other than time (a deadlock under this
    /// single-threaded runtime), which callers should treat as a bug.
    pub fn run(&self) -> usize {
        loop {
            self.run_until_stalled();
            if self.pending_tasks() == 0 {
                return 0;
            }
            if !self.clock.advance_to_next_timer() {
                return self.pending_tasks();
            }
        }
    }

    /// Number of spawned tasks that have not completed.
    pub fn pending_tasks(&self) -> usize {
        self.tasks.borrow().iter().filter(|t| t.is_some()).count()
    }
}

/// A handle to a spawned task's result. This runtime has no blocking
/// `join`: drive the executor ([`Executor::run`]) and then
/// [`take`](JoinHandle::take) the value.
#[derive(Debug)]
pub struct JoinHandle<T> {
    cell: Rc<RefCell<Option<T>>>,
}

impl<T> JoinHandle<T> {
    /// Takes the task's result, if it has completed (subsequent calls
    /// return `None`).
    pub fn take(&self) -> Option<T> {
        self.cell.borrow_mut().take()
    }
}

// ---------------------------------------------------------------------------
// Batch join
// ---------------------------------------------------------------------------

/// Drives a vector of futures to completion concurrently, preserving input
/// order in the output (a dependency-free `join_all`; the futures are boxed
/// by the caller, which makes them `Unpin`). This is the runtime's one
/// batch join: the `Async` executor awaits each batch of source calls as
/// one `JoinAll`, and so does a serving session.
///
/// Each future has a waker of its own, built once, that marks it woken and
/// wakes the task polling the join. The first poll polls every future in
/// index order. A later poll polls the futures woken since, in index order,
/// and within that pass also any future of a higher index that an earlier
/// one woke, just as a pass over every future would reach it. A future not
/// woken would only return `Pending` again, so this polls the futures that
/// can progress in the order a join re-polling all of them does.
pub(crate) struct JoinAll<F: Future + Unpin> {
    slots: Vec<Option<F>>,
    outputs: Vec<Option<F::Output>>,
    wakers: Vec<Waker>,
    woken: Arc<JoinWoken>,
    remaining: usize,
}

// No self-references: the struct is a plain vector of `Unpin` futures and
// already-produced outputs, so it is safely `Unpin` regardless of whether
// the *output* type is.
impl<F: Future + Unpin> Unpin for JoinAll<F> {}

impl<F: Future + Unpin> JoinAll<F> {
    pub(crate) fn new(futures: Vec<F>) -> Self {
        let n = futures.len();
        // Every future starts woken, so the first poll polls them all.
        let woken = Arc::new(JoinWoken {
            state: Mutex::new(WokenState {
                woken: vec![true; n],
                parent: None,
            }),
        });
        let wakers = (0..n)
            .map(|index| {
                Waker::from(Arc::new(ChildWaker {
                    index,
                    join: Arc::clone(&woken),
                }))
            })
            .collect();
        Self {
            slots: futures.into_iter().map(Some).collect(),
            outputs: (0..n).map(|_| None).collect(),
            wakers,
            woken,
            remaining: n,
        }
    }
}

impl<F: Future + Unpin> Future for JoinAll<F> {
    type Output = Vec<F::Output>;

    fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        this.woken.set_parent(cx.waker());
        let mut from = 0;
        while let Some(index) = this.woken.take_next(from) {
            from = index + 1;
            let Some(future) = &mut this.slots[index] else {
                continue;
            };
            let mut child = Context::from_waker(&this.wakers[index]);
            if let Poll::Ready(value) = Pin::new(future).poll(&mut child) {
                this.outputs[index] = Some(value);
                this.slots[index] = None;
                this.remaining -= 1;
            }
        }
        if this.remaining > 0 {
            return Poll::Pending;
        }
        Poll::Ready(
            this.outputs
                .iter_mut()
                .map(|o| o.take().expect("all futures completed"))
                .collect(),
        )
    }
}

/// The wake state a [`JoinAll`] shares with its futures' wakers.
struct JoinWoken {
    state: Mutex<WokenState>,
}

struct WokenState {
    /// `woken[i]`: future `i` was woken since it was last polled.
    woken: Vec<bool>,
    /// The waker of the task polling the join.
    parent: Option<Waker>,
}

impl JoinWoken {
    fn lock(&self) -> std::sync::MutexGuard<'_, WokenState> {
        self.state.lock().expect("join state poisoned")
    }

    fn set_parent(&self, waker: &Waker) {
        let mut state = self.lock();
        if !state.parent.as_ref().is_some_and(|p| p.will_wake(waker)) {
            state.parent = Some(waker.clone());
        }
    }

    /// The lowest woken index at or above `from`, cleared.
    fn take_next(&self, from: usize) -> Option<usize> {
        let mut state = self.lock();
        let index = from + state.woken[from..].iter().position(|&w| w)?;
        state.woken[index] = false;
        Some(index)
    }
}

/// The waker of one future of a [`JoinAll`].
struct ChildWaker {
    index: usize,
    join: Arc<JoinWoken>,
}

impl Wake for ChildWaker {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        let parent = {
            let mut state = self.join.lock();
            state.woken[self.index] = true;
            state.parent.clone()
        };
        // Outside the lock: the parent may be another join's future.
        if let Some(parent) = parent {
            parent.wake();
        }
    }
}

// ---------------------------------------------------------------------------
// Semaphore
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct SemInner {
    permits: usize,
    next_waiter_id: u64,
    /// FIFO wait queue: `(waiter id, waker)`.
    waiters: VecDeque<(u64, Waker)>,
}

/// A FIFO async semaphore: `acquire().await` yields a [`Permit`] that
/// returns its permit on drop. Waiters are granted strictly in arrival
/// order (a late arrival never overtakes the queue even when a permit is
/// momentarily free), which keeps concurrency-limited schedules
/// deterministic.
#[derive(Debug, Clone)]
pub struct Semaphore {
    inner: Arc<Mutex<SemInner>>,
}

impl Semaphore {
    /// A semaphore with `permits` concurrent permits (`0` is treated as 1 —
    /// a zero-width semaphore could never be acquired).
    pub fn new(permits: usize) -> Self {
        Self {
            inner: Arc::new(Mutex::new(SemInner {
                permits: permits.max(1),
                next_waiter_id: 0,
                waiters: VecDeque::new(),
            })),
        }
    }

    /// A future resolving to a [`Permit`] once one is available.
    pub fn acquire(&self) -> Acquire {
        Acquire {
            sem: self.clone(),
            waiting_as: None,
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, SemInner> {
        self.inner.lock().expect("semaphore poisoned")
    }
}

/// The future returned by [`Semaphore::acquire`]. Dropping it mid-wait
/// leaves the queue clean (the waiter entry is removed, and the wake it
/// might have absorbed is passed on).
#[derive(Debug)]
pub struct Acquire {
    sem: Semaphore,
    /// `Some(id)` once enqueued as a waiter.
    waiting_as: Option<u64>,
}

impl Future for Acquire {
    type Output = Permit;

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Permit> {
        let sem = self.sem.clone();
        let mut inner = sem.lock();
        match self.waiting_as {
            None => {
                if inner.permits > 0 && inner.waiters.is_empty() {
                    inner.permits -= 1;
                    drop(inner);
                    return Poll::Ready(Permit {
                        sem: self.sem.clone(),
                    });
                }
                let id = inner.next_waiter_id;
                inner.next_waiter_id += 1;
                inner.waiters.push_back((id, cx.waker().clone()));
                self.waiting_as = Some(id);
                Poll::Pending
            }
            Some(id) => {
                let at_front = inner.waiters.front().map(|(w, _)| *w) == Some(id);
                if at_front && inner.permits > 0 {
                    inner.permits -= 1;
                    inner.waiters.pop_front();
                    self.waiting_as = None;
                    // The next waiter may also have a free permit (several
                    // releases can precede this poll).
                    if inner.permits > 0 {
                        if let Some((_, waker)) = inner.waiters.front() {
                            waker.wake_by_ref();
                        }
                    }
                    drop(inner);
                    return Poll::Ready(Permit {
                        sem: self.sem.clone(),
                    });
                }
                // Refresh the stored waker (the task may have moved).
                if let Some(entry) = inner.waiters.iter_mut().find(|(w, _)| *w == id) {
                    entry.1 = cx.waker().clone();
                }
                Poll::Pending
            }
        }
    }
}

impl Drop for Acquire {
    fn drop(&mut self) {
        let Some(id) = self.waiting_as else {
            return;
        };
        let mut inner = self.sem.lock();
        inner.waiters.retain(|(w, _)| *w != id);
        // If a release woke us and we die before polling, pass the wake on.
        if inner.permits > 0 {
            if let Some((_, waker)) = inner.waiters.front() {
                waker.wake_by_ref();
            }
        }
    }
}

/// An acquired semaphore permit; dropping it releases the permit and wakes
/// the longest-waiting acquirer.
#[derive(Debug)]
pub struct Permit {
    sem: Semaphore,
}

impl Drop for Permit {
    fn drop(&mut self) {
        let mut inner = self.sem.lock();
        inner.permits += 1;
        if let Some((_, waker)) = inner.waiters.front() {
            waker.wake_by_ref();
        }
    }
}

/// Yields the current task once: pending on the first poll (immediately
/// re-waking itself, which re-queues the task at the *back* of the strict
/// FIFO ready queue), ready on the second. Awaiting it between units of work
/// is therefore a round-robin fairness point: every other ready task gets a
/// poll before this one resumes. The serving layer yields between a
/// session's batches so concurrent sessions interleave on the virtual
/// clock.
pub fn yield_now() -> YieldNow {
    YieldNow { yielded: false }
}

/// The future returned by [`yield_now`].
#[derive(Debug)]
pub struct YieldNow {
    yielded: bool,
}

impl Future for YieldNow {
    type Output = ();

    fn poll(mut self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
        if self.yielded {
            Poll::Ready(())
        } else {
            self.yielded = true;
            cx.waker().wake_by_ref();
            Poll::Pending
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::cell::Cell;

    /// A future that stashes its waker and stays pending forever.
    struct StashWaker {
        slot: Rc<RefCell<Option<Waker>>>,
    }

    impl Future for StashWaker {
        type Output = ();
        fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
            *self.slot.borrow_mut() = Some(cx.waker().clone());
            Poll::Pending
        }
    }

    /// Sets its flag when dropped (leak probe for cancellation tests).
    struct DropFlag {
        flag: Rc<Cell<bool>>,
    }

    impl Drop for DropFlag {
        fn drop(&mut self) {
            self.flag.set(true);
        }
    }

    #[test]
    fn timers_fire_in_deadline_then_registration_order() {
        let clock = VirtualClock::new();
        let exec = Executor::new(clock.clone());
        let order: Rc<RefCell<Vec<&'static str>>> = Rc::new(RefCell::new(Vec::new()));
        for (label, micros) in [("c", 300u64), ("a", 100), ("b", 200), ("a2", 100)] {
            let clock = clock.clone();
            let order = Rc::clone(&order);
            exec.spawn(async move {
                clock.sleep(micros).await;
                order.borrow_mut().push(label);
            });
        }
        assert_eq!(exec.run(), 0);
        // Deadline order; the two 100µs timers tie and fire in registration
        // order ("a" was registered before "a2").
        assert_eq!(*order.borrow(), vec!["a", "a2", "b", "c"]);
        assert_eq!(clock.now_micros(), 300);
        assert_eq!(clock.timer_count(), 0);
    }

    #[test]
    fn sequential_sleeps_accumulate_virtual_time() {
        let clock = VirtualClock::new();
        let exec = Executor::new(clock.clone());
        let c = clock.clone();
        let handle = exec.spawn(async move {
            c.sleep(50).await;
            c.sleep(70).await;
            c.now_micros()
        });
        assert_eq!(exec.run(), 0);
        assert_eq!(handle.take(), Some(120));
    }

    #[test]
    fn waking_after_executor_drop_is_a_safe_no_op() {
        let slot: Rc<RefCell<Option<Waker>>> = Rc::new(RefCell::new(None));
        let exec = Executor::new(VirtualClock::new());
        exec.spawn(StashWaker {
            slot: Rc::clone(&slot),
        });
        exec.run_until_stalled();
        let waker = slot.borrow_mut().take().expect("task was polled");
        drop(exec);
        // The task (and the executor) are gone; the waker must not panic,
        // whether by value or by reference.
        waker.wake_by_ref();
        waker.wake();
    }

    #[test]
    fn many_ready_tasks_make_round_robin_progress() {
        let exec = Executor::new(VirtualClock::new());
        let log: Rc<RefCell<Vec<usize>>> = Rc::new(RefCell::new(Vec::new()));
        const TASKS: usize = 5;
        const YIELDS: usize = 3;
        for i in 0..TASKS {
            let log = Rc::clone(&log);
            exec.spawn(async move {
                for _ in 0..=YIELDS {
                    log.borrow_mut().push(i);
                    yield_now().await;
                }
            });
        }
        assert_eq!(exec.run(), 0);
        // Strict FIFO re-queueing ⇒ the poll log is 0..TASKS repeated: no
        // task gets a second poll before every other ready task got one.
        let expected: Vec<usize> = (0..=YIELDS).flat_map(|_| 0..TASKS).collect();
        assert_eq!(*log.borrow(), expected);
    }

    #[test]
    fn dropping_the_executor_cancels_tasks_and_their_timers() {
        let clock = VirtualClock::new();
        let exec = Executor::new(clock.clone());
        let flags: Vec<Rc<Cell<bool>>> = (0..3).map(|_| Rc::new(Cell::new(false))).collect();
        for flag in &flags {
            let clock = clock.clone();
            let guard = DropFlag {
                flag: Rc::clone(flag),
            };
            exec.spawn(async move {
                let _guard = guard;
                // An effectively-infinite timer chain.
                loop {
                    clock.sleep(1_000).await;
                }
            });
        }
        exec.run_until_stalled();
        assert_eq!(exec.pending_tasks(), 3);
        assert_eq!(clock.timer_count(), 3);
        drop(exec);
        // Every task future was dropped (no leaks)...
        assert!(flags.iter().all(|f| f.get()));
        // ...and their `Sleep` futures deregistered their timers.
        assert_eq!(clock.timer_count(), 0);
    }

    #[test]
    fn deadlocked_tasks_are_reported_not_spun() {
        let exec = Executor::new(VirtualClock::new());
        let slot = Rc::new(RefCell::new(None));
        exec.spawn(StashWaker {
            slot: Rc::clone(&slot),
        });
        // No timer exists, so the run cannot make progress: it must return
        // the number of stuck tasks instead of looping forever.
        assert_eq!(exec.run(), 1);
    }

    #[test]
    fn join_handle_returns_the_task_result_once() {
        let exec = Executor::new(VirtualClock::new());
        let handle = exec.spawn(async { 21 * 2 });
        assert_eq!(exec.run(), 0);
        assert_eq!(handle.take(), Some(42));
        assert_eq!(handle.take(), None);
    }

    #[test]
    fn semaphore_grants_permits_in_fifo_order() {
        let clock = VirtualClock::new();
        let exec = Executor::new(clock.clone());
        let sem = Semaphore::new(2);
        let order: Rc<RefCell<Vec<usize>>> = Rc::new(RefCell::new(Vec::new()));
        for i in 0..4 {
            let sem = sem.clone();
            let clock = clock.clone();
            let order = Rc::clone(&order);
            exec.spawn(async move {
                let _permit = sem.acquire().await;
                clock.sleep(100).await;
                order.borrow_mut().push(i);
            });
        }
        assert_eq!(exec.run(), 0);
        // Two waves of two: completion strictly in spawn order.
        assert_eq!(*order.borrow(), vec![0, 1, 2, 3]);
        // Wave 1 finishes at t=100, wave 2 at t=200.
        assert_eq!(clock.now_micros(), 200);
    }

    #[test]
    fn semaphore_zero_width_is_promoted_to_one() {
        let exec = Executor::new(VirtualClock::new());
        let sem = Semaphore::new(0);
        let handle = exec.spawn(async move {
            let _p = sem.acquire().await;
            7
        });
        assert_eq!(exec.run(), 0);
        assert_eq!(handle.take(), Some(7));
    }

    /// A waker that does nothing (for polling futures by hand).
    struct NoopWake;

    impl Wake for NoopWake {
        fn wake(self: Arc<Self>) {}
    }

    /// Counts the wakes it receives.
    #[derive(Default)]
    pub(crate) struct CountWake(std::sync::atomic::AtomicUsize);

    impl CountWake {
        pub(crate) fn wakes(&self) -> usize {
            self.0.load(std::sync::atomic::Ordering::SeqCst)
        }
    }

    impl Wake for CountWake {
        fn wake(self: Arc<Self>) {
            self.wake_by_ref();
        }

        fn wake_by_ref(self: &Arc<Self>) {
            self.0.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        }
    }

    /// Records the waker of every poll, re-waking itself until it has been
    /// polled `polls` times.
    struct RecordWakers {
        seen: Rc<RefCell<Vec<Waker>>>,
        polls: usize,
    }

    impl Future for RecordWakers {
        type Output = ();
        fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<()> {
            let mut seen = self.seen.borrow_mut();
            seen.push(cx.waker().clone());
            if seen.len() >= self.polls {
                return Poll::Ready(());
            }
            cx.waker().wake_by_ref();
            Poll::Pending
        }
    }

    #[test]
    fn a_task_sees_the_same_waker_on_every_poll() {
        let exec = Executor::new(VirtualClock::new());
        let logs: Vec<Rc<RefCell<Vec<Waker>>>> = (0..2).map(|_| Rc::default()).collect();
        for log in &logs {
            exec.spawn(RecordWakers {
                seen: Rc::clone(log),
                polls: 4,
            });
        }
        assert_eq!(exec.run(), 0);
        for log in &logs {
            let seen = log.borrow();
            assert_eq!(seen.len(), 4);
            assert!(seen.iter().all(|w| w.will_wake(&seen[0])));
        }
        // Each task has a waker of its own.
        assert!(!logs[0].borrow()[0].will_wake(&logs[1].borrow()[0]));
    }

    #[test]
    fn a_sleep_polled_before_its_deadline_keeps_one_timer() {
        let clock = VirtualClock::new();
        let mut sleep = Box::pin(clock.sleep(100));
        let first = Arc::new(CountWake::default());
        let first_waker = Waker::from(Arc::clone(&first));
        let mut cx = Context::from_waker(&first_waker);
        for _ in 0..5 {
            assert!(sleep.as_mut().poll(&mut cx).is_pending());
        }
        assert_eq!(clock.timer_count(), 1);
        // A poll from another waker replaces the registered one, so only
        // the newest waker hears the timer fire.
        let second = Arc::new(CountWake::default());
        let second_waker = Waker::from(Arc::clone(&second));
        assert!(sleep
            .as_mut()
            .poll(&mut Context::from_waker(&second_waker))
            .is_pending());
        assert_eq!(clock.timer_count(), 1);
        assert!(clock.advance_to_next_timer());
        assert_eq!((first.wakes(), second.wakes()), (0, 1));
        assert!(sleep.as_mut().poll(&mut cx).is_ready());
        assert_eq!(clock.timer_count(), 0);
    }

    #[test]
    fn dropping_a_waiting_acquire_passes_the_permit_on() {
        let exec = Executor::new(VirtualClock::new());
        let sem = Semaphore::new(1);
        let waker = Waker::from(Arc::new(NoopWake));
        let mut cx = Context::from_waker(&waker);
        // Take the only permit synchronously (no waiters yet).
        let mut first = Box::pin(sem.acquire());
        let Poll::Ready(held) = first.as_mut().poll(&mut cx) else {
            panic!("free permit resolves on first poll");
        };
        // Queue a waiter, then abandon it mid-wait: it must leave the FIFO
        // queue cleanly and not swallow the permit for the waiter behind it.
        let mut abandoned = Box::pin(sem.acquire());
        assert!(abandoned.as_mut().poll(&mut cx).is_pending());
        let done = Rc::new(Cell::new(false));
        let sem2 = sem.clone();
        let done2 = Rc::clone(&done);
        exec.spawn(async move {
            let _p = sem2.acquire().await;
            done2.set(true);
        });
        exec.run_until_stalled();
        assert!(!done.get());
        drop(abandoned);
        drop(held);
        assert_eq!(exec.run(), 0);
        assert!(done.get());
    }

    type Shared<T> = Rc<RefCell<T>>;

    /// A future that stays pending until released. It logs its index on
    /// every poll, keeps its latest waker, and may wake another gate when
    /// polled.
    #[derive(Default)]
    struct GateState {
        release: Option<Result<u32, &'static str>>,
        waker: Option<Waker>,
        wake_on_poll: Option<Shared<GateState>>,
    }

    struct Gate {
        index: usize,
        state: Shared<GateState>,
        log: Shared<Vec<usize>>,
    }

    impl Future for Gate {
        type Output = Result<u32, &'static str>;

        fn poll(self: Pin<&mut Self>, cx: &mut Context<'_>) -> Poll<Self::Output> {
            self.log.borrow_mut().push(self.index);
            let mut state = self.state.borrow_mut();
            if let Some(sibling) = state.wake_on_poll.take() {
                let waker = sibling.borrow().waker.clone();
                waker.expect("sibling was polled").wake();
            }
            if let Some(result) = state.release.take() {
                return Poll::Ready(result);
            }
            state.waker = Some(cx.waker().clone());
            Poll::Pending
        }
    }

    type GateJoin = JoinAll<Pin<Box<dyn Future<Output = Result<u32, &'static str>>>>>;

    fn gates(n: usize) -> (GateJoin, Vec<Shared<GateState>>, Shared<Vec<usize>>) {
        let log: Shared<Vec<usize>> = Rc::default();
        let states: Vec<Shared<GateState>> = (0..n).map(|_| Rc::default()).collect();
        let futures = states
            .iter()
            .enumerate()
            .map(|(index, state)| {
                Box::pin(Gate {
                    index,
                    state: Rc::clone(state),
                    log: Rc::clone(&log),
                }) as Pin<Box<dyn Future<Output = _>>>
            })
            .collect();
        (JoinAll::new(futures), states, log)
    }

    fn release(gate: &RefCell<GateState>, result: Result<u32, &'static str>) {
        gate.borrow_mut().release = Some(result);
        let waker = gate.borrow().waker.clone();
        waker.expect("gate was polled").wake();
    }

    #[test]
    fn join_all_polls_only_woken_futures_and_keeps_input_order() {
        let (mut join, states, log) = gates(4);
        let parent = Arc::new(CountWake::default());
        let parent_waker = Waker::from(Arc::clone(&parent));
        let mut cx = Context::from_waker(&parent_waker);
        let mut poll = |join: &mut GateJoin| {
            log.borrow_mut().clear();
            let outcome = Pin::new(join).poll(&mut cx);
            (outcome, log.borrow().clone())
        };
        // The first poll polls every future, in index order.
        assert_eq!(poll(&mut join), (Poll::Pending, vec![0, 1, 2, 3]));
        // Unwoken futures are not polled again.
        assert_eq!(poll(&mut join), (Poll::Pending, vec![]));
        release(&states[2], Ok(20));
        assert_eq!(parent.wakes(), 1, "a future's wake wakes the join's task");
        assert_eq!(poll(&mut join), (Poll::Pending, vec![2]));
        // Wakes are served in index order, not in wake order; a failed call
        // keeps its slot.
        release(&states[3], Ok(30));
        release(&states[0], Err("down"));
        assert_eq!(poll(&mut join), (Poll::Pending, vec![0, 3]));
        release(&states[1], Ok(10));
        assert_eq!(
            poll(&mut join),
            (
                Poll::Ready(vec![Err("down"), Ok(10), Ok(20), Ok(30)]),
                vec![1]
            )
        );
    }

    #[test]
    fn join_all_reaches_a_later_sibling_woken_in_the_same_pass() {
        let (mut join, states, log) = gates(3);
        let parent = Arc::new(CountWake::default());
        let parent_waker = Waker::from(Arc::clone(&parent));
        let mut cx = Context::from_waker(&parent_waker);
        assert!(Pin::new(&mut join).poll(&mut cx).is_pending());
        // Gate 1 wakes gate 2 (later: same pass) and gate 2 wakes gate 0
        // (earlier: next pass, like a pass over every future).
        states[1].borrow_mut().wake_on_poll = Some(Rc::clone(&states[2]));
        states[2].borrow_mut().wake_on_poll = Some(Rc::clone(&states[0]));
        release(&states[1], Ok(1));
        log.borrow_mut().clear();
        assert!(Pin::new(&mut join).poll(&mut cx).is_pending());
        assert_eq!(*log.borrow(), vec![1, 2]);
        log.borrow_mut().clear();
        assert!(Pin::new(&mut join).poll(&mut cx).is_pending());
        assert_eq!(*log.borrow(), vec![0]);
    }
}
