//! Framed TCP front-end for the sharded AMS ingest service.
//!
//! The sketches exist to track join sizes *online*, over update streams
//! arriving from outside the process; this crate is the layer that lets
//! them: a length-prefixed, checksummed binary protocol ([`codec`],
//! with a slice-by-8 CRC-32 kernel in [`crc`]), a **multi-reactor**
//! non-blocking front-end ([`server`]) — one acceptor handing sockets
//! to N reactor threads, each owning a disjoint slice of the
//! connections over std non-blocking sockets — and a blocking client
//! library ([`client`]) with automatic retry on backpressure and
//! batch-coalesced zero-alloc pipelining.
//!
//! ```text
//!              ┌─ reactor 0 (poll: sockets + wake pipe) ───┐
//!  clients ──▶ acceptor ──least-connections──▶ reactor i ──┤ submit(Wait::Try) ─▶ AmsService
//!     ▲        (poll:      handoff + wake      ...         │   ├─ Ok        → Ingested
//!     │        listener)                                   │   ├─ WouldBlock→ park on the
//!     │        ┌─ reactor N-1 ─────────────────────────────┘   │   per-connection retry
//!     │        │  per-reactor `net_*{reactor="i"}` series      │   ring, retried on wake-ups
//!     │        │  pooled response frames, vectored writes      │   from the service's hook
//!     └──framed responses──────────────────────────────────────┴─ ring full → Busy{retry_hint}
//! ```
//!
//! Nothing waits on a timer. Each reactor blocks in one `poll(2)` over
//! its sockets and a self-pipe ([`std::io::pipe`]); the acceptor blocks
//! the same way over the listener and its own pipe. A socket's
//! readiness, a handoff, a shutdown, or — while the reactor holds
//! parked work — the service's wake hook
//! ([`AmsService::add_waker`](ams_service::AmsService::add_waker)) ends
//! the wait, so a request is served when it arrives and an idle server
//! costs no CPU.
//!
//! The key property is that **service backpressure never parks the
//! network thread**: a full shard queue turns into a parked entry on
//! that connection's bounded retry ring (retried when room frees on
//! the refusing queue, acknowledged once it lands). Parked blocks land in order — later
//! blocks park behind them, and the connection is not read until they
//! land — and only past the ring's bound is a block answered with an
//! explicit [`Response::Busy`] carrying a retry
//! hint. So a fast producer sees backpressure, memory stays bounded by
//! the service's bounded queues plus one parked frame per connection,
//! and every other connection keeps making progress. Queries (self-join, two-way join, full
//! snapshot, stats) answer from the service's merge-on-query snapshot
//! register; `Drain` uses the service's non-blocking drain cut and is
//! re-checked on every publish until it completes, and `Shutdown` gracefully
//! lands parked ingests, stops the service, and ships the final
//! snapshot and lifetime stats back over the wire.
//!
//! No async executor is involved (the workspace vendors no runtime):
//! each reactor is a readiness loop over `std::net` non-blocking
//! sockets, which is exactly enough for a protocol whose hot path is
//! CPU-bound sketch ingestion — parallelism comes from accept
//! sharding, not from an executor. The crate needs a unix target for
//! `poll(2)`.

// The only unsafe code is the `poll(2)` call in `poll`; everything
// else is denied it.
#![deny(unsafe_code)]
#![deny(missing_docs)]

pub mod client;
pub mod codec;
mod conn;
pub mod crc;
pub mod error;
#[allow(unsafe_code)]
mod poll;
mod reactor;
pub mod server;
mod wake;

pub use client::{AckMode, AmsClient, IngestOutcome, ReconnectPolicy, RetryPolicy};
pub use codec::{ErrorCode, FrameDecoder, FrameError, Request, Response};
pub use error::NetError;
pub use server::{NetServer, NetServerConfig, ServerHandle, StopHandle};

// Assembled traces travel over the wire (`Request::Traces`);
// re-exported so wire consumers can name the span types without a
// separate `ams-telemetry` dependency declaration.
pub use ams_telemetry::{AssembledTrace, TraceSpan};
