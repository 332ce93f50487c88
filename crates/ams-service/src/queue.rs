//! Bounded block queues with real backpressure.
//!
//! One queue per shard carries columnar [`OpBlock`] tasks from
//! producers to the shard's worker thread. Capacity is a hard bound,
//! enforced through *reservations*: a producer first reserves a slot on
//! every queue its submission targets (the hash-partition router splits
//! one block over many shards), and only then fills them. A reservation
//! counts against capacity, so the subsequent `push_reserved` calls
//! cannot block or fail, and a refused reservation on any queue
//! releases the others without having enqueued anything — a submission
//! lands on all of its shards or on none.
//!
//! A producer that meets a full queue either gives up ([`Wait::Try`])
//! or releases every reservation it holds and waits for room
//! ([`Wait::Block`], via [`BlockQueue::wait_for_room`]). It never waits
//! while holding a reservation: a reservation is not a task, so no
//! worker could ever free it.
//!
//! A caller that must never block either (a network reactor) parks the
//! refused block itself and learns of new room through the service's
//! wake hook: the first room event after a refusal rings it.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Instant;

use ams_stream::OpBlock;
use ams_telemetry::Gauge;

use crate::wake::WakeHook;

/// A producer/sequence tag carried by an ingest submission, making
/// resubmission after a reconnect idempotent: each shard worker keeps
/// a per-producer sequence high-water mark (persisted through the
/// durability layer) and skips blocks it has already applied. Producer
/// id `0` is reserved for untagged submissions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IngestTag {
    /// The producer's unique id (client-generated; never 0).
    pub producer: u64,
    /// The producer's monotonically increasing submission sequence.
    pub seq: u64,
}

/// What a submission does when a target shard queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wait {
    /// Wait for room — the backpressure that keeps service memory
    /// bounded under a fast producer. Each wait counts as one
    /// backpressure event.
    Block,
    /// Fail at once with `WouldBlock`, handing the block back — the
    /// path of callers that must never park, such as a network
    /// reactor. Each refusal counts as a rejection.
    Try,
}

/// A unit of shard work: one block destined for one attribute's shard
/// sketch.
#[derive(Debug)]
pub struct ShardTask {
    /// Index of the attribute within the service's registration order.
    pub attr: usize,
    /// The updates to apply.
    pub block: OpBlock,
    /// Idempotency tag, when the producer supplied one.
    pub tag: Option<IngestTag>,
    /// Trace id of the request this task belongs to (0 = untraced);
    /// the worker stamps queue/kernel/WAL spans for it (see
    /// `ams_telemetry::trace`).
    pub trace: u64,
    /// When the task was built for submission — the worker records
    /// `enqueued_at.elapsed()` at pop time as the queue-wait latency.
    pub enqueued_at: Instant,
}

impl ShardTask {
    /// A task stamped with the current time as its enqueue instant.
    pub fn new(attr: usize, block: OpBlock, tag: Option<IngestTag>, trace: u64) -> Self {
        Self {
            attr,
            block,
            tag,
            trace,
            enqueued_at: Instant::now(),
        }
    }
}

#[derive(Debug, Default)]
struct QueueState {
    tasks: VecDeque<ShardTask>,
    /// Slots promised to producers holding a reservation; counted
    /// against capacity alongside `tasks.len()`.
    reserved: usize,
    closed: bool,
    /// A reservation was refused at capacity since room last freed: the
    /// next room event rings the wake hook, and only that one, so a
    /// reactor parked on this queue wakes while a reactor's own
    /// reserve-then-release of a slot nobody waits for stays silent.
    refused: bool,
    /// High-water mark of `tasks.len() + reserved`, the bounded-memory
    /// witness (never exceeds capacity by construction).
    max_depth: usize,
}

impl QueueState {
    fn occupied(&self) -> usize {
        self.tasks.len() + self.reserved
    }
}

/// A bounded multi-producer single-consumer task queue.
#[derive(Debug)]
pub struct BlockQueue {
    capacity: usize,
    state: Mutex<QueueState>,
    /// Signalled when space frees or the queue closes.
    not_full: Condvar,
    /// Signalled when a task arrives or the queue closes.
    not_empty: Condvar,
    /// Rung after room frees for a refused reservation, and on close.
    wake: Arc<WakeHook>,
    /// Blocks successfully enqueued over the queue's lifetime.
    pushed: AtomicU64,
    /// Reservations that found the queue full, under either [`Wait`]
    /// mode: the backpressure event counter.
    backpressure_events: AtomicU64,
    /// The [`Wait::Try`] subset of backpressure events: reservations
    /// turned away at capacity — including automatic re-attempts of
    /// parked submissions, so this measures refusal pressure rather
    /// than distinct refused submissions. Blocking producers that
    /// merely waited are not counted here.
    rejections: AtomicU64,
    /// Telemetry gauge mirroring `tasks.len()`, updated under the queue
    /// lock on every push/pop so a metrics scrape sees the live depth
    /// without taking this queue's lock.
    depth_gauge: Arc<Gauge>,
}

impl BlockQueue {
    /// Creates an empty queue bounded at `capacity` blocks, with a
    /// private (unregistered) depth gauge and wake hook.
    pub fn new(capacity: usize) -> Self {
        Self::with_depth_gauge(capacity, Arc::new(Gauge::new()), Arc::default())
    }

    /// Creates an empty bounded queue whose live depth is mirrored into
    /// the given gauge (typically registered as
    /// `service_queue_depth{shard}`) and whose room and close events
    /// ring `wake`.
    pub(crate) fn with_depth_gauge(
        capacity: usize,
        depth_gauge: Arc<Gauge>,
        wake: Arc<WakeHook>,
    ) -> Self {
        debug_assert!(capacity > 0);
        Self {
            capacity,
            state: Mutex::new(QueueState::default()),
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
            wake,
            pushed: AtomicU64::new(0),
            backpressure_events: AtomicU64::new(0),
            rejections: AtomicU64::new(0),
            depth_gauge,
        }
    }

    /// The capacity bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of queued blocks (excluding reservations).
    pub fn depth(&self) -> usize {
        self.lock().tasks.len()
    }

    /// High-water mark of occupancy (queued + reserved) over the
    /// queue's lifetime; bounded by [`Self::capacity`] by construction.
    pub fn max_depth(&self) -> usize {
        self.lock().max_depth
    }

    /// Blocks successfully enqueued so far.
    pub fn pushed(&self) -> u64 {
        self.pushed.load(Ordering::Acquire)
    }

    /// Number of times a producer found the queue full.
    pub fn backpressure_events(&self) -> u64 {
        self.backpressure_events.load(Ordering::Acquire)
    }

    /// Number of [`Wait::Try`] reservations turned away at capacity
    /// (the subset of [`Self::backpressure_events`] that did not wait).
    pub fn rejections(&self) -> u64 {
        self.rejections.load(Ordering::Acquire)
    }

    fn lock(&self) -> MutexGuard<'_, QueueState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Announces freed room: wakes every blocked producer, then — once
    /// the lock is released — rings the wake hook if a reservation was
    /// refused since the last room event.
    fn room_freed(&self, mut state: MutexGuard<'_, QueueState>) {
        // Every waiter: a woken producer does not take the slot, so a
        // single wake-up could land on one that goes off to wait on
        // another shard and leave the rest asleep beside a free slot.
        self.not_full.notify_all();
        let refused = std::mem::take(&mut state.refused);
        drop(state);
        if refused {
            self.wake.wake();
        }
    }

    /// Reserves one slot without blocking: on success the slot counts
    /// against capacity until [`Self::push_reserved`] or
    /// [`Self::release_reserved`]. Returns whether the reservation was
    /// granted; closed queues refuse too (tell the cases apart with
    /// [`Self::is_closed`]). A refusal at capacity counts as a
    /// backpressure event, and under [`Wait::Try`] also as a rejection.
    pub fn try_reserve(&self, wait: Wait) -> bool {
        let mut state = self.lock();
        if state.closed {
            return false;
        }
        if state.occupied() >= self.capacity {
            state.refused = true;
            self.backpressure_events.fetch_add(1, Ordering::Relaxed);
            if wait == Wait::Try {
                self.rejections.fetch_add(1, Ordering::Relaxed);
            }
            return false;
        }
        state.reserved += 1;
        state.max_depth = state.max_depth.max(state.occupied());
        true
    }

    /// Blocks while the queue is full and open. The caller must hold no
    /// reservation on any queue while it waits.
    pub fn wait_for_room(&self) {
        let mut state = self.lock();
        while state.occupied() >= self.capacity && !state.closed {
            state = self.not_full.wait(state).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Fills a previously granted reservation; never blocks or fails.
    pub fn push_reserved(&self, task: ShardTask) {
        let mut state = self.lock();
        debug_assert!(state.reserved > 0, "push without reservation");
        state.reserved -= 1;
        state.tasks.push_back(task);
        self.depth_gauge.set(state.tasks.len() as i64);
        self.pushed.fetch_add(1, Ordering::Release);
        self.not_empty.notify_one();
    }

    /// Releases an unused reservation.
    pub fn release_reserved(&self) {
        let mut state = self.lock();
        debug_assert!(state.reserved > 0, "release without reservation");
        state.reserved -= 1;
        self.room_freed(state);
    }

    /// Dequeues, blocking while the queue is empty. Returns `None` once
    /// the queue is closed **and** drained — the consumer's shutdown
    /// signal.
    ///
    /// A consumer that had to wait yields its core once before taking
    /// on the task. The producer that woke it is often about to wake
    /// another thread in turn — a network reactor answers the client
    /// whose block it just queued — and on a small host the scheduler
    /// tends to queue that thread on the core this consumer just took,
    /// behind a whole block's work; the yield lets it go first. It
    /// costs one system call per wait, and nothing while the queue is
    /// backed up.
    pub fn pop(&self) -> Option<ShardTask> {
        let mut state = self.lock();
        let mut waited = false;
        loop {
            if let Some(task) = state.tasks.pop_front() {
                self.depth_gauge.set(state.tasks.len() as i64);
                self.room_freed(state);
                if waited {
                    std::thread::yield_now();
                }
                return Some(task);
            }
            if state.closed {
                return None;
            }
            state = self
                .not_empty
                .wait(state)
                .unwrap_or_else(|e| e.into_inner());
            waited = true;
        }
    }

    /// Moves up to `max` queued tasks, oldest first, onto the back of
    /// `out` under one lock, without waiting: the worker's batch path,
    /// which nets a backed-up queue in one sweep. Returns how many were
    /// taken; their slots free at once.
    pub fn take_queued(&self, max: usize, out: &mut Vec<ShardTask>) -> usize {
        let mut state = self.lock();
        let taken = max.min(state.tasks.len());
        if taken > 0 {
            out.extend(state.tasks.drain(..taken));
            self.depth_gauge.set(state.tasks.len() as i64);
            self.room_freed(state);
        }
        taken
    }

    /// Closes the queue: pending tasks remain poppable, further
    /// reservations fail, waiting producers and the consumer wake, and
    /// so does the wake hook.
    pub fn close(&self) {
        let mut state = self.lock();
        state.closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
        drop(state);
        self.wake.wake();
    }

    /// Whether the queue has been closed.
    pub fn is_closed(&self) -> bool {
        self.lock().closed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn task(attr: usize) -> ShardTask {
        ShardTask::new(attr, OpBlock::from_values([attr as u64]), None, 0)
    }

    /// The non-blocking push of a [`Wait::Try`] submission: reserve one
    /// slot, then fill it. Returns whether the queue took the task.
    fn try_push(q: &BlockQueue, attr: usize) -> bool {
        let granted = q.try_reserve(Wait::Try);
        if granted {
            q.push_reserved(task(attr));
        }
        granted
    }

    /// Reserves and fills one slot, as a submission does.
    fn push(q: &BlockQueue, attr: usize) {
        assert!(try_push(q, attr), "queue has room");
    }

    #[test]
    fn capacity_is_a_hard_bound_for_try_push() {
        let q = BlockQueue::new(2);
        assert!(try_push(&q, 0));
        assert!(try_push(&q, 1));
        assert!(!try_push(&q, 2), "refused at capacity");
        assert_eq!(q.depth(), 2);
        assert_eq!(q.max_depth(), 2);
        assert_eq!(q.backpressure_events(), 1);
        assert_eq!(q.rejections(), 1, "Try refusals count as rejections");
        // Popping frees a slot.
        let t = q.pop().unwrap();
        assert_eq!(t.attr, 0);
        assert!(try_push(&q, 2));
        assert_eq!(q.max_depth(), 2, "never exceeded capacity");
    }

    #[test]
    fn reservations_count_against_capacity() {
        let q = BlockQueue::new(2);
        assert!(q.try_reserve(Wait::Try));
        assert!(q.try_reserve(Wait::Try));
        assert!(!q.try_reserve(Wait::Try), "full by reservation alone");
        assert_eq!(q.backpressure_events(), 1);
        assert_eq!(q.rejections(), 1, "Try refusals count as rejections");
        assert!(!q.try_reserve(Wait::Block));
        assert_eq!(q.backpressure_events(), 2);
        assert_eq!(q.rejections(), 1, "Block refusals wait, not reject");
        q.push_reserved(task(0));
        q.release_reserved();
        assert_eq!(q.depth(), 1);
        // The released slot is usable again.
        assert!(q.try_reserve(Wait::Try));
        q.push_reserved(task(1));
        assert_eq!(q.depth(), 2);
        assert_eq!(q.max_depth(), 2);
        // Popping frees a slot.
        assert_eq!(q.pop().unwrap().attr, 0);
        push(&q, 2);
        assert_eq!(q.max_depth(), 2, "never exceeded capacity");
    }

    #[test]
    fn close_drains_then_signals_consumer() {
        let q = BlockQueue::new(4);
        push(&q, 0);
        push(&q, 1);
        q.close();
        assert!(!q.try_reserve(Wait::Try));
        assert!(!q.try_reserve(Wait::Block));
        assert!(q.is_closed());
        assert_eq!(q.backpressure_events(), 0, "closed is not backpressure");
        q.wait_for_room(); // returns at once on a closed queue
        assert_eq!(q.pop().unwrap().attr, 0);
        assert_eq!(q.pop().unwrap().attr, 1);
        assert!(q.pop().is_none(), "closed + drained");
        assert_eq!(q.pushed(), 2);
    }

    #[test]
    fn depth_gauge_tracks_push_and_pop() {
        use ams_telemetry::Gauge;
        use std::sync::Arc;
        let gauge = Arc::new(Gauge::new());
        let q = BlockQueue::with_depth_gauge(4, Arc::clone(&gauge), Arc::default());
        assert_eq!(gauge.get(), 0);
        push(&q, 0);
        push(&q, 1);
        assert_eq!(gauge.get(), 2);
        q.pop().unwrap();
        assert_eq!(gauge.get(), 1);
        assert!(q.try_reserve(Wait::Try));
        assert_eq!(gauge.get(), 1, "a reservation is not a queued block");
        q.push_reserved(task(2));
        assert_eq!(gauge.get(), 2);
    }

    #[test]
    fn blocking_push_waits_for_space() {
        use std::sync::Arc;
        let q = Arc::new(BlockQueue::new(1));
        push(&q, 0);
        let q2 = Arc::clone(&q);
        let producer = std::thread::spawn(move || {
            while !q2.try_reserve(Wait::Block) {
                q2.wait_for_room();
            }
            q2.push_reserved(task(1));
        });
        // Give the producer a moment to block, then free a slot.
        std::thread::sleep(std::time::Duration::from_millis(20));
        assert_eq!(q.pop().unwrap().attr, 0);
        producer.join().unwrap();
        assert_eq!(q.depth(), 1);
        assert!(q.backpressure_events() >= 1);
        assert_eq!(q.rejections(), 0, "a blocking wait is not a rejection");
        assert_eq!(q.max_depth(), 1);
    }
}
