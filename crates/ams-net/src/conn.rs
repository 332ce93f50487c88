//! Per-connection read/write state machines.
//!
//! Each accepted socket gets one [`Connection`]: a non-blocking read
//! side feeding the frame decoder, an ordered queue of response
//! *slots*, and a non-blocking write side. Responses must leave in
//! request order, but an ingest that hit service backpressure cannot
//! be answered yet — so its slot *parks* (the connection's retry ring),
//! and the write side simply stops at the first unfinished slot. Parked
//! ingests land in order: a later block of the same frame parks behind
//! them instead of being submitted, and the connection is not read
//! again until they have landed. So a connection parks at most one
//! frame, which keeps server memory bounded under a producer that
//! outruns the shard workers without ever refusing a block.
//!
//! The write side is a queue of encoded frames flushed with
//! `write_vectored`, so every ready response a pass produced leaves in
//! one batched syscall instead of one `write` per frame — and drained
//! frame buffers return to the reactor's [`FramePool`], so
//! steady-state response framing does zero heap allocations (the PR-3
//! scratch idiom applied to the wire).

use std::collections::VecDeque;
use std::io::{IoSlice, Read, Write};
use std::net::TcpStream;

use ams_service::{DrainCut, DurableCut, HealthWindow, IngestTag};
use ams_stream::OpBlock;
use ams_telemetry::TraceCtx;

use crate::codec::{FrameDecoder, MAX_FRAME_PAYLOAD};
use crate::poll::{PollFd, POLLIN, POLLOUT};

/// Per-pass cap on bytes read from one connection; together with the
/// read gate's decoder bound this bounds the decoder buffer at
/// roughly one maximum frame plus one burst.
const READ_BURST: usize = 256 * 1024;

/// Responses (ready or parked) one connection may have in flight
/// before the reactor stops reading and decoding its requests. A frame
/// is admitted whole and each of its blocks gets its own slot, so one
/// `Ingest` frame of up to
/// [`MAX_INGEST_BLOCKS`](crate::codec::MAX_INGEST_BLOCKS) blocks can
/// overshoot this bound: a connection holds at most
/// `MAX_INFLIGHT + MAX_INGEST_BLOCKS - 1` slots.
pub(crate) const MAX_INFLIGHT: usize = 64;

/// Unflushed response bytes beyond which the reactor stops reading a
/// connection's requests.
const MAX_UNFLUSHED: usize = 256 * 1024;

/// Most frames handed to one `write_vectored` call. 16 covers a whole
/// burst of ingest acks; anything beyond simply waits for the next
/// loop iteration of the same pump call.
const WRITE_VEC: usize = 16;

/// Most spare frame buffers a pool retains; beyond this, returned
/// buffers are simply dropped so an ack burst cannot pin memory
/// forever.
const POOL_CAP: usize = 64;

/// Largest buffer capacity a pool retains. Acks, errors, estimates,
/// drains and stats frames take well under 1 KiB, and a snapshot of a
/// few attributes at s = 256 (about 2 KiB each) fits too, so the
/// recurring responses keep reusing their buffers. A metrics dump
/// or a large snapshot (up to the 16 MiB frame limit) is freed after
/// its flush, instead of staying pinned for the reactor's life to carry
/// 20-byte acks.
const POOL_BUF_MAX: usize = 16 * 1024;

/// A reactor-owned free list of encoded-frame buffers. Responses are
/// encoded into a pooled buffer ([`take`](Self::take)), queued on the
/// connection, and returned ([`put`](Self::put)) once flushed — after
/// warm-up the response path recycles capacity instead of allocating.
/// The pool holds at most `POOL_CAP` buffers of at most `POOL_BUF_MAX`
/// bytes each: 1 MiB per reactor.
#[derive(Debug, Default)]
pub(crate) struct FramePool {
    free: Vec<Vec<u8>>,
}

impl FramePool {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// A cleared buffer, reusing a recycled one when available.
    pub(crate) fn take(&mut self) -> Vec<u8> {
        let mut buf = self.free.pop().unwrap_or_default();
        buf.clear();
        buf
    }

    /// Returns a drained buffer to the pool (dropped when the pool is
    /// full or the buffer is larger than `POOL_BUF_MAX`).
    pub(crate) fn put(&mut self, buf: Vec<u8>) {
        if self.free.len() < POOL_CAP && buf.capacity() <= POOL_BUF_MAX {
            self.free.push(buf);
        }
    }
}

/// One in-order response slot.
#[derive(Debug)]
pub(crate) enum Slot {
    /// The response frame is encoded and ready to flush.
    Ready(Vec<u8>),
    /// An ingest parked on the retry ring: the service said
    /// `WouldBlock` to it or to an earlier parked block of the same
    /// connection, and the reactor re-tries the ring in order whenever
    /// it wakes — the service's wake hook rings once room frees on the
    /// queue that refused it.
    PendingIngest {
        /// Attribute the block targets.
        attribute: String,
        /// The parked block; each attempt moves it into the service,
        /// which hands it back on refusal (no cloning).
        block: OpBlock,
        /// The peer asked for an ack only after the block is durable;
        /// once the retry lands, the slot parks again as
        /// [`Slot::PendingDurable`] instead of answering immediately.
        durable: bool,
        /// The submission's idempotency tag, carried through retries.
        tag: Option<IngestTag>,
        /// The request's trace context, carried through retries so the
        /// eventual acceptance and ack still stamp their spans.
        trace: TraceCtx,
    },
    /// An accepted durable-ack ingest waiting for its effects to reach
    /// stable storage; checked against the service's durable
    /// watermarks whenever the reactor wakes (every watermark advance
    /// rings the service's wake hook) and answered `Ingested` once the
    /// cut is covered.
    PendingDurable {
        /// The durability target recorded right after acceptance.
        cut: DurableCut,
        /// The request's trace context (for the ack span and the tail
        /// sampler's end-to-end offer).
        trace: TraceCtx,
        /// Trace-clock start of the `durable_wait` span, re-anchored on
        /// every unsuccessful check, and the span starts no earlier
        /// than the reactor's last wake-up, so it measures the
        /// reactor's *detection* latency and never double-counts the
        /// shard-side wal/fsync spans it would otherwise overlap. Zero
        /// when untraced.
        wait_from: u64,
    },
    /// A drain waiting for its cut; checked whenever the reactor wakes
    /// (every shard publish rings the service's wake hook). The cut is
    /// `None` while parked ingests precede it (they are not in the
    /// service yet, so recording the cut now would under-cover).
    PendingDrain {
        /// The recorded drain target, once every earlier parked ingest
        /// has landed.
        cut: Option<DrainCut>,
    },
}

impl Slot {
    fn is_pending(&self) -> bool {
        !matches!(self, Slot::Ready(_))
    }
}

/// One client connection's full state.
#[derive(Debug)]
pub(crate) struct Connection {
    stream: TcpStream,
    /// Incremental frame extraction over whatever bytes have arrived.
    pub(crate) decoder: FrameDecoder,
    /// In-order response slots (front = oldest request).
    pub(crate) slots: VecDeque<Slot>,
    /// Encoded frames staged for the socket (front = oldest), flushed
    /// with vectored writes; drained buffers go back to the pool.
    out: VecDeque<Vec<u8>>,
    /// Bytes of `out.front()` already written.
    front_pos: usize,
    /// Unflushed bytes across `out` (maintained incrementally).
    queued_bytes: usize,
    /// Reading has stopped for good (protocol error or shutdown); the
    /// connection dies once the write buffer flushes.
    pub(crate) closing: bool,
    /// The peer closed its write side (EOF on read); responses may
    /// still be deliverable on the half-open socket.
    peer_gone: bool,
    /// The socket failed hard (read or write error); nothing more can
    /// move in either direction.
    io_failed: bool,
    /// This connection asked for server shutdown and is owed the final
    /// `Goodbye`.
    pub(crate) wants_goodbye: bool,
    /// This connection's health baseline: its scrapes' windowed signals
    /// run from its previous health scrape, whatever other connections
    /// scrape in between.
    pub(crate) health: HealthWindow,
}

impl Connection {
    /// Adopts an accepted socket, switching it to non-blocking mode.
    pub(crate) fn new(stream: TcpStream) -> std::io::Result<Self> {
        stream.set_nonblocking(true)?;
        // Purely an ack-latency optimization; not load-bearing.
        let _ = stream.set_nodelay(true);
        Ok(Self {
            stream,
            decoder: FrameDecoder::new(),
            slots: VecDeque::new(),
            out: VecDeque::new(),
            front_pos: 0,
            queued_bytes: 0,
            closing: false,
            peer_gone: false,
            io_failed: false,
            wants_goodbye: false,
            health: HealthWindow::default(),
        })
    }

    /// Number of parked (non-ready) slots.
    pub(crate) fn pending(&self) -> usize {
        self.slots.iter().filter(|s| s.is_pending()).count()
    }

    /// Number of parked ingests specifically (the retry-ring
    /// occupancy).
    pub(crate) fn pending_ingests(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| matches!(s, Slot::PendingIngest { .. }))
            .count()
    }

    /// Whether every admission bound lets the reactor read more of
    /// this connection's requests: no ingest is parked, fewer than
    /// [`MAX_INFLIGHT`] responses are in flight, fewer than
    /// [`MAX_UNFLUSHED`] bytes sit unflushed, and the decoder holds
    /// less than the largest frame (its length prefix plus
    /// [`MAX_FRAME_PAYLOAD`]). Past that size the decoder surely holds
    /// a whole frame, which must be decoded before more is read; below
    /// it, reading goes on until the pending frame is complete.
    pub(crate) fn read_gate_open(&self) -> bool {
        self.pending_ingests() == 0
            && self.slots.len() < MAX_INFLIGHT
            && self.queued_bytes < MAX_UNFLUSHED
            && self.decoder.buffered() < 4 + MAX_FRAME_PAYLOAD
    }

    /// This connection's entry in the reactor's readiness wait:
    /// readable while `read` (the reactor would read it) and the peer
    /// may still send, writable while a write backlog exists. Readiness
    /// is level-triggered, so registering a socket the reactor would
    /// not act on would end every wait at once.
    pub(crate) fn poll_fd(&self, read: bool) -> PollFd {
        let mut events = 0;
        if read && !self.peer_gone {
            events |= POLLIN;
        }
        if !self.out.is_empty() {
            events |= POLLOUT;
        }
        PollFd::new(&self.stream, events)
    }

    /// Pulls bytes from the socket into the decoder — at most
    /// [`READ_BURST`] per call, so one firehosing peer cannot grow the
    /// decoder buffer faster than the dispatch loop drains it (the
    /// reactor additionally stops calling this while the decoder
    /// backlog exceeds a frame). Returns the number of bytes fed (0
    /// means no progress), so the caller can both detect progress and
    /// account `net_bytes_in`.
    pub(crate) fn fill_read(&mut self, scratch: &mut [u8]) -> usize {
        let mut fed = 0usize;
        let mut budget = READ_BURST;
        loop {
            if budget == 0 {
                break;
            }
            match self.stream.read(scratch) {
                Ok(0) => {
                    self.peer_gone = true;
                    break;
                }
                Ok(n) => {
                    self.decoder.feed(&scratch[..n]);
                    budget = budget.saturating_sub(n);
                    fed += n;
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.io_failed = true;
                    break;
                }
            }
        }
        fed
    }

    /// Moves leading ready slots onto the write queue (no copy — the
    /// encoded frame buffer itself is queued) and flushes as much as
    /// the socket accepts with vectored writes, so one pass's worth of
    /// responses leaves in one syscall rather than one per frame.
    /// Fully-flushed frame buffers return to `pool`. Returns `(frames
    /// staged, bytes flushed)` — either nonzero means progress, and
    /// the caller accounts them as `net_frames_encoded` /
    /// `net_bytes_out`.
    pub(crate) fn pump_writes(&mut self, pool: &mut FramePool) -> (usize, usize) {
        let mut frames = 0usize;
        let mut flushed = 0usize;
        while let Some(Slot::Ready(_)) = self.slots.front() {
            let Some(Slot::Ready(frame)) = self.slots.pop_front() else {
                unreachable!("front checked above");
            };
            self.queued_bytes += frame.len();
            self.out.push_back(frame);
            frames += 1;
        }
        while !self.out.is_empty() {
            let mut slices = [IoSlice::new(&[]); WRITE_VEC];
            let mut count = 0;
            for (i, frame) in self.out.iter().enumerate().take(WRITE_VEC) {
                let bytes = if i == 0 {
                    &frame[self.front_pos..]
                } else {
                    &frame[..]
                };
                slices[count] = IoSlice::new(bytes);
                count += 1;
            }
            match self.stream.write_vectored(&slices[..count]) {
                Ok(0) => {
                    self.io_failed = true;
                    break;
                }
                Ok(n) => {
                    flushed += n;
                    self.queued_bytes -= n;
                    let mut advanced = n;
                    while advanced > 0 {
                        let front_left = self.out[0].len() - self.front_pos;
                        if advanced >= front_left {
                            advanced -= front_left;
                            self.front_pos = 0;
                            let drained = self.out.pop_front().expect("front exists");
                            pool.put(drained);
                        } else {
                            self.front_pos += advanced;
                            advanced = 0;
                        }
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.io_failed = true;
                    break;
                }
            }
        }
        (frames, flushed)
    }

    /// Whether everything owed to the peer has left the process.
    pub(crate) fn flushed(&self) -> bool {
        self.slots.is_empty() && self.out.is_empty()
    }

    /// Whether the connection can be dropped: the socket failed hard,
    /// or everything owed has been delivered to a peer we will not
    /// read from again (server-side close or client EOF).
    pub(crate) fn dead(&self) -> bool {
        self.io_failed || ((self.closing || self.peer_gone) && self.flushed())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_pool_frees_oversized_buffers_and_stays_bounded() {
        let mut pool = FramePool::new();
        pool.put(Vec::with_capacity(POOL_BUF_MAX + 1));
        assert!(pool.free.is_empty(), "an oversized buffer is freed");
        pool.put(Vec::with_capacity(64));
        let reused = pool.take();
        assert!(reused.is_empty() && reused.capacity() >= 64);
        for _ in 0..2 * POOL_CAP {
            pool.put(Vec::with_capacity(POOL_BUF_MAX));
        }
        assert_eq!(pool.free.len(), POOL_CAP);
        let held: usize = pool.free.iter().map(Vec::capacity).sum();
        assert!(held <= POOL_CAP * POOL_BUF_MAX, "{held} bytes pooled");
    }
}
