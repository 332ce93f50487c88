//! The wake hook: how a front-end that must never block — a network
//! reactor waiting in its own readiness call — hears about the service
//! events its parked work waits on.
//!
//! Blocking callers park on the service's condvars. A reactor cannot,
//! so it registers a [`Waker`] instead, and the hook rings every
//! registered waker next to those condvar notifications:
//! - room freeing on a queue that turned a submission away since the
//!   last such wake ([`BlockQueue`](crate::queue::BlockQueue));
//! - a queue closing;
//! - a shard publish (drain progress);
//! - a shard's durable watermark advancing.
//!
//! A wake is rung only after the state change it announces is stored,
//! so a waker that re-checks its conditions after being armed and
//! before it sleeps never misses one.

use std::sync::Mutex;
use std::task::Waker;

/// The wakers registered with
/// [`AmsService::add_waker`](crate::AmsService::add_waker).
#[derive(Debug, Default)]
pub(crate) struct WakeHook {
    wakers: Mutex<Vec<Waker>>,
}

impl WakeHook {
    /// Registers one more waker; wakers stay registered for the
    /// service's lifetime.
    pub(crate) fn add(&self, waker: Waker) {
        self.wakers
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(waker);
    }

    /// Rings every registered waker.
    pub(crate) fn wake(&self) {
        for waker in self.wakers.lock().unwrap_or_else(|e| e.into_inner()).iter() {
            waker.wake_by_ref();
        }
    }
}
