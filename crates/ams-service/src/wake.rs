//! The wake hook: the one thing a caller waits on when the service
//! cannot take its work yet.
//!
//! The hook rings after each event such work waits on:
//! - room freeing on a queue that turned a submission away since the
//!   last such wake ([`BlockQueue`](crate::queue::BlockQueue));
//! - a queue closing;
//! - a shard publish (drain progress);
//! - a shard's durable watermark advance.
//!
//! A caller that may block a thread sleeps in [`WakeHook::wait_until`]
//! ([`AmsService::ingest_block`](crate::AmsService::ingest_block) and
//! [`AmsService::drain`](crate::AmsService::drain)). A front-end that
//! must never block — a network reactor waiting in its own readiness
//! call — registers a [`Waker`] instead, and every ring wakes it.
//!
//! A wake is rung only after the state change it announces is stored,
//! so a waiter that re-checks its condition after it starts listening
//! and before it sleeps never misses one.

use std::sync::{Condvar, Mutex, MutexGuard};
use std::task::Waker;

/// The wakers registered with
/// [`AmsService::add_waker`](crate::AmsService::add_waker), and the
/// threads asleep in [`Self::wait_until`].
#[derive(Debug, Default)]
pub(crate) struct WakeHook {
    state: Mutex<HookState>,
    /// Notified on a ring, only while a thread sleeps on it.
    rung: Condvar,
}

#[derive(Debug, Default)]
struct HookState {
    wakers: Vec<Waker>,
    /// Rings so far: a sleeper waits for it to move past the count it
    /// read before it checked its condition.
    rings: u64,
    /// Threads asleep in [`WakeHook::wait_until`].
    sleepers: usize,
}

impl WakeHook {
    fn lock(&self) -> MutexGuard<'_, HookState> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Registers one more waker; wakers stay registered for the
    /// service's lifetime.
    pub(crate) fn add(&self, waker: Waker) {
        self.lock().wakers.push(waker);
    }

    /// Rings every registered waker, and wakes the sleeping threads.
    pub(crate) fn wake(&self) {
        let mut state = self.lock();
        state.rings = state.rings.wrapping_add(1);
        for waker in &state.wakers {
            waker.wake_by_ref();
        }
        if state.sleepers > 0 {
            self.rung.notify_all();
        }
    }

    /// Blocks until `ready` returns a value, calling it again after
    /// every ring. `ready` must not wait on the hook itself.
    pub(crate) fn wait_until<T>(&self, mut ready: impl FnMut() -> Option<T>) -> T {
        loop {
            let seen = self.lock().rings;
            if let Some(done) = ready() {
                return done;
            }
            let mut state = self.lock();
            state.sleepers += 1;
            while state.rings == seen {
                state = self.rung.wait(state).unwrap_or_else(|e| e.into_inner());
            }
            state.sleepers -= 1;
        }
    }

    /// Threads asleep in [`Self::wait_until`] now.
    #[cfg(test)]
    pub(crate) fn sleepers(&self) -> usize {
        self.lock().sleepers
    }
}
