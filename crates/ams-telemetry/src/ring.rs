//! The bounded single-writer ring behind the span and event logs.
//!
//! Each recording thread owns one [`Ring`] of fixed four-word records:
//! lock-free on the hot path, a fixed footprint, overwrite-oldest on
//! overflow with an exact drop counter. Each slot is guarded by a
//! sequence word that is odd while a write is in flight, even once it
//! settles, and zero until the first write — so a slot holds a record
//! exactly when its sequence word is settled and nonzero. A scrape-time
//! reader skips slots it raced with instead of observing a torn record;
//! every field is an atomic, so a race is a dropped observation, never
//! undefined behavior.
//!
//! [`RingHub`] is the per-process directory the trace and event hubs
//! are built on: it hands out one single-writer [`Recorder`] per thread,
//! gathers every resident record at scrape time, and arms or disarms
//! all its recorders at once. A disarmed recorder costs one relaxed
//! load and a branch (the noop twin used to price the instrumentation).

use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// A record a [`Ring`] holds: four words in, four words back out.
pub trait RingRecord: Copy {
    /// The record as four words.
    fn to_words(self) -> [u64; 4];

    /// The record back from its words; `None` for words no record
    /// encodes (never for words [`Self::to_words`] produced).
    fn from_words(words: [u64; 4]) -> Option<Self>;
}

/// Words per ring slot: the sequence word and the record's four.
const SLOT_WORDS: usize = 5;

#[derive(Debug)]
struct Slot {
    seq: AtomicU64,
    words: [AtomicU64; 4],
}

/// A bounded single-writer ring of records: fixed memory, relaxed
/// atomic writes, overwrite-oldest on overflow with an exact drop
/// counter (see the [module docs](self)).
#[derive(Debug)]
pub struct Ring<R> {
    slots: Box<[Slot]>,
    cursor: AtomicU64,
    dropped: AtomicU64,
    record: PhantomData<R>,
}

impl<R: RingRecord> Ring<R> {
    /// A ring holding at most `capacity` records (`capacity ≥ 1`).
    pub fn new(capacity: usize) -> Self {
        Self {
            slots: (0..capacity.max(1))
                .map(|_| Slot {
                    seq: AtomicU64::new(0),
                    words: Default::default(),
                })
                .collect(),
            cursor: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            record: PhantomData,
        }
    }

    /// Records one record, overwriting the oldest when full.
    pub fn push(&self, record: R) {
        let n = self.slots.len() as u64;
        let i = self.cursor.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        let slot = &self.slots[(i % n) as usize];
        slot.seq.fetch_add(1, Ordering::Release); // odd: write in flight
        for (cell, word) in slot.words.iter().zip(record.to_words()) {
            cell.store(word, Ordering::Relaxed);
        }
        slot.seq.fetch_add(1, Ordering::Release); // even: settled
    }

    /// Records pushed in total (including any later overwritten).
    pub fn pushed(&self) -> u64 {
        self.cursor.load(Ordering::Relaxed)
    }

    /// Records lost to overwrite-oldest — exactly
    /// `pushed().saturating_sub(capacity)` for a single writer.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Records currently resident.
    pub fn len(&self) -> usize {
        (self.pushed() as usize).min(self.slots.len())
    }

    /// Whether nothing was ever recorded.
    pub fn is_empty(&self) -> bool {
        self.pushed() == 0
    }

    /// Fixed footprint in 64-bit words, independent of traffic.
    pub fn memory_words(&self) -> usize {
        self.slots.len() * SLOT_WORDS + 2
    }

    /// A point-in-time copy of every resident record, skipping slots a
    /// concurrent writer had in flight.
    pub fn snapshot(&self) -> Vec<R> {
        let mut out = Vec::with_capacity(self.len());
        for slot in self.slots.iter().take(self.len()) {
            let s1 = slot.seq.load(Ordering::Acquire);
            let words = std::array::from_fn(|i| slot.words[i].load(Ordering::Relaxed));
            let s2 = slot.seq.load(Ordering::Acquire);
            if s1 == s2 && s1 != 0 && s1 % 2 == 0 {
                out.extend(R::from_words(words));
            }
        }
        out
    }
}

/// A cloneable handle recording into one [`Ring`]; each recording
/// thread holds its own (the ring is single-writer by construction when
/// each thread takes its own recorder from [`RingHub::recorder`]). The
/// trace and event modules add their recording methods.
#[derive(Debug, Clone)]
pub struct Recorder<R> {
    pub(crate) ring: Arc<Ring<R>>,
    pub(crate) enabled: Arc<AtomicBool>,
}

impl<R: RingRecord> Recorder<R> {
    /// Whether the hub is armed — callers that would otherwise pay a
    /// clock read to build a record can skip it when recording is off.
    #[inline]
    pub fn armed(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// The recorder's ring (for direct inspection in tests).
    pub fn ring(&self) -> &Ring<R> {
        &self.ring
    }
}

/// The per-process ring directory: hands out per-thread rings and
/// gathers every resident record at scrape time. Registration and
/// collection take a mutex; recording never does.
#[derive(Debug)]
pub struct RingHub<R> {
    rings: Mutex<Vec<Arc<Ring<R>>>>,
    ring_capacity: usize,
    enabled: Arc<AtomicBool>,
}

impl<R: RingRecord> RingHub<R> {
    /// A hub whose recorders hold `ring_capacity` records each.
    pub fn with_capacity(ring_capacity: usize) -> Self {
        Self {
            rings: Mutex::new(Vec::new()),
            ring_capacity: ring_capacity.max(1),
            enabled: Arc::new(AtomicBool::new(true)),
        }
    }

    fn rings(&self) -> std::sync::MutexGuard<'_, Vec<Arc<Ring<R>>>> {
        self.rings.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Creates and registers a new single-writer recorder; each
    /// recording thread should take exactly one.
    pub fn recorder(&self) -> Recorder<R> {
        let ring = Arc::new(Ring::new(self.ring_capacity));
        self.rings().push(Arc::clone(&ring));
        Recorder {
            ring,
            enabled: Arc::clone(&self.enabled),
        }
    }

    /// Globally arms or disarms recording (the noop twin for overhead
    /// pricing: a disarmed hub turns every record into one relaxed
    /// load + branch).
    pub fn set_enabled(&self, enabled: bool) {
        self.enabled.store(enabled, Ordering::Relaxed);
    }

    /// Whether recording is armed.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Records lost to ring overwrite, summed over recorders.
    pub fn dropped(&self) -> u64 {
        self.rings().iter().map(|r| r.dropped()).sum()
    }

    /// Total footprint in 64-bit words: every ring plus the arming flag
    /// — fixed once every recording thread has registered, independent
    /// of traffic.
    pub fn memory_words(&self) -> usize {
        self.rings().iter().map(|r| r.memory_words()).sum::<usize>() + 1
    }

    /// Every resident record across every ring, ring by ring.
    pub fn records(&self) -> Vec<R> {
        self.rings().iter().flat_map(|r| r.snapshot()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A test record whose first word must be nonzero.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    struct Word(u64);

    impl RingRecord for Word {
        fn to_words(self) -> [u64; 4] {
            [self.0, !self.0, 0, self.0]
        }

        fn from_words(words: [u64; 4]) -> Option<Self> {
            (words[0] != 0).then_some(Word(words[0]))
        }
    }

    #[test]
    fn settled_slots_hold_records_even_when_all_words_are_zero() {
        #[derive(Debug, Clone, Copy)]
        struct Zero;
        impl RingRecord for Zero {
            fn to_words(self) -> [u64; 4] {
                [0; 4]
            }
            fn from_words(_: [u64; 4]) -> Option<Self> {
                Some(Zero)
            }
        }
        let ring = Ring::new(4);
        assert!(ring.snapshot().is_empty(), "unwritten slots hold nothing");
        ring.push(Zero);
        assert_eq!(ring.snapshot().len(), 1);
    }

    #[test]
    fn hub_gathers_every_ring_and_disarms_all_recorders() {
        let hub = RingHub::with_capacity(2);
        let (a, b) = (hub.recorder(), hub.recorder());
        a.ring().push(Word(1));
        b.ring().push(Word(2));
        b.ring().push(Word(3));
        b.ring().push(Word(4));
        let mut all: Vec<u64> = hub.records().iter().map(|w| w.0).collect();
        all.sort_unstable();
        assert_eq!(all, vec![1, 3, 4]);
        assert_eq!(hub.dropped(), 1);
        assert_eq!(hub.memory_words(), 2 * (2 * SLOT_WORDS + 2) + 1);
        hub.set_enabled(false);
        assert!(!a.armed() && !b.armed() && !hub.enabled());
    }

    proptest! {
        /// Overflow never panics, the drop counter is exact, residency
        /// is capped at capacity, exactly the newest records stay
        /// resident, and the footprint never moves.
        #[test]
        fn ring_overflow_is_exact(
            capacity in 1usize..32,
            pushes in 0u64..2000,
        ) {
            let ring = Ring::new(capacity);
            let words = ring.memory_words();
            for i in 0..pushes {
                ring.push(Word(i + 1));
            }
            prop_assert_eq!(ring.pushed(), pushes);
            prop_assert_eq!(ring.dropped(), pushes.saturating_sub(capacity as u64));
            prop_assert_eq!(ring.len() as u64, pushes.min(capacity as u64));
            prop_assert_eq!(ring.memory_words(), words);
            let mut resident: Vec<u64> = ring.snapshot().iter().map(|w| w.0).collect();
            resident.sort_unstable();
            let newest: Vec<u64> =
                (pushes.saturating_sub(capacity as u64) + 1..=pushes).collect();
            prop_assert_eq!(resident, newest);
        }
    }
}
