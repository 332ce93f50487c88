//! The self-pipe that ends a blocked readiness wait.
//!
//! Each waiting loop — the acceptor and every reactor — owns one
//! [`Wakeup`]: a pipe whose read end sits in the loop's `poll` set.
//! Another thread ends the wait by writing one byte to the write end:
//! the acceptor handing a reactor a socket, a stop or shutdown request,
//! or a shard worker through the service's wake hook
//! ([`Wakeup::service_waker`]).
//!
//! A pipe rather than a socket pair: both are std-only and take one
//! system call, but a pipe costs about half as much to create, which
//! keeps binding a server cheap. Both ends stay in blocking mode, which
//! saves two more calls: the owner reads only after `poll` reported
//! bytes, and at most a byte or two is ever pending, far below what
//! would make a write block.
//!
//! The protocol has two halves. The owner arms, re-checks every
//! condition a wake announces, and waits only if none holds; it disarms
//! once the wait returns. A waker first makes its condition visible,
//! then wakes; it writes its byte only if an atomic swap finds the
//! owner armed, so an event nobody waits for costs no syscall.
//!
//! Ordering: the owner's `armed` store and the waker's condition store
//! each precede a `SeqCst` fence, and each side's load of the other's
//! store follows its fence. The two fences are totally ordered, so
//! either the waker's fence comes first and the owner's re-check sees
//! the condition, or the owner's comes first and the waker sees `armed`
//! and writes the byte. A condition behind a mutex (a mailbox, a queue,
//! a publish register) is covered the same way: its unlock precedes the
//! waker's fence and the owner's lock follows its own. No wake-up is
//! lost between the re-check and the wait.

use std::io::{self, PipeReader, PipeWriter, Read, Write};
use std::sync::atomic::{fence, AtomicBool, Ordering};
use std::sync::Arc;
use std::task::{Wake, Waker};

/// One waiting loop's wake-up pipe and arming state.
#[derive(Debug)]
pub(crate) struct Wakeup {
    /// Polled for `POLLIN` by the owner.
    rx: PipeReader,
    /// Written by wakers. Both ends live as long as any waker, so a
    /// write never meets a closed reader.
    tx: PipeWriter,
    /// The owner is between [`Self::arm`] and the end of its wait.
    armed: AtomicBool,
    /// The owner holds work parked on the service, so service events
    /// concern it.
    parked: AtomicBool,
}

impl Wakeup {
    /// A disarmed wake-up over a fresh pipe (one system call).
    pub(crate) fn new() -> io::Result<Arc<Self>> {
        let (rx, tx) = io::pipe()?;
        Ok(Arc::new(Self {
            rx,
            tx,
            armed: AtomicBool::new(false),
            parked: AtomicBool::new(false),
        }))
    }

    /// The end the owner waits on for `POLLIN`.
    pub(crate) fn fd(&self) -> &PipeReader {
        &self.rx
    }

    /// The owner is about to wait; `parked` says whether it holds work
    /// parked on the service. The owner must then re-check every
    /// condition a wake announces, and wait only if none holds.
    pub(crate) fn arm(&self, parked: bool) {
        self.parked.store(parked, Ordering::Relaxed);
        self.armed.store(true, Ordering::Relaxed);
        // The owner's fence: orders the stores above before the
        // re-check's loads (see the module docs).
        fence(Ordering::SeqCst);
    }

    /// The owner's wait is over (or was skipped). `rang` says whether
    /// the wait reported the pipe readable; its bytes are drained then,
    /// in one read that cannot block.
    pub(crate) fn disarm(&self, rang: bool) {
        self.armed.store(false, Ordering::Relaxed);
        if rang {
            let mut sink = [0u8; 64];
            let _ = (&self.rx).read(&mut sink);
        }
    }

    /// Ends the owner's wait, if it is armed. Call after making the
    /// condition it should notice visible.
    pub(crate) fn wake(&self) {
        // The waker's fence: orders the caller's condition store before
        // the `armed` load (see the module docs).
        fence(Ordering::SeqCst);
        self.ring();
    }

    /// The waker to register with the service: it ends the owner's
    /// wait only while the owner holds parked work.
    pub(crate) fn service_waker(self: &Arc<Self>) -> Waker {
        Waker::from(Arc::new(ServiceWake(Arc::clone(self))))
    }

    fn ring(&self) {
        if self.armed.load(Ordering::Relaxed) && self.armed.swap(false, Ordering::Relaxed) {
            // The pipe holds at most a byte or two, so the write neither
            // blocks nor fails for lack of room.
            let _ = (&self.tx).write(&[1]);
        }
    }
}

/// The service-facing side of a [`Wakeup`].
struct ServiceWake(Arc<Wakeup>);

impl Wake for ServiceWake {
    fn wake(self: Arc<Self>) {
        self.wake_by_ref();
    }

    fn wake_by_ref(self: &Arc<Self>) {
        let wakeup = &self.0;
        // Same pairing as `Wakeup::wake`; `parked` was stored before
        // the owner's fence, next to `armed`.
        fence(Ordering::SeqCst);
        if wakeup.parked.load(Ordering::Relaxed) {
            wakeup.ring();
        }
    }
}
