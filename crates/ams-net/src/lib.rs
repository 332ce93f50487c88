//! Framed TCP front-end for the sharded AMS ingest service.
//!
//! The sketches exist to track join sizes *online*, over update streams
//! arriving from outside the process; this crate is the layer that lets
//! them: a length-prefixed, checksummed binary protocol ([`codec`],
//! checksummed by the slice-by-8 CRC-32 kernel of `ams_stream::crc`),
//! a non-blocking server ([`server`]) whose one thread, the reactor,
//! accepts, serves every connection and shuts down over std
//! non-blocking sockets, and a blocking client library ([`client`])
//! with batch-coalesced zero-alloc pipelining.
//!
//! ```text
//!              ┌─ reactor (one thread; poll: listener + sockets + wake pipe) ─┐
//!  clients ──▶ │ accept ─▶ read + decode ─▶ dispatch ─▶ submit ───────────────┼─▶ AmsService
//!     ▲        │                                         ├─ Ok         → Ingested
//!     │        │                                         └─ WouldBlock → park on the
//!     │        │ `net_*` series, pooled response frames,    per-connection retry ring,
//!     │        │ vectored writes                            retried on wake-ups from
//!     │        └──────────────────────────────────────────  the service's hook
//!     └──framed responses, in request order
//! ```
//!
//! Nothing waits on a timer. Once 50 µs of passes found nothing to do,
//! the reactor blocks in one `poll(2)` over the listener, its sockets
//! and a self-pipe ([`std::io::pipe`]). A peer connecting, a socket's
//! readiness, a stop request, or — while the reactor holds parked work
//! — the service's wake hook
//! ([`AmsService::add_waker`](ams_service::AmsService::add_waker)) ends
//! the wait, so a request is served when it arrives and an idle server
//! costs no CPU.
//!
//! The key property is that **service backpressure never parks the
//! network thread**: a full shard queue turns into a parked entry on
//! that connection's retry ring (retried when room frees on the
//! refusing queue, acknowledged once it lands). Parked blocks land in
//! order: every later block of the frame parks behind them, and the
//! connection is not read until they land, so a connection parks at
//! most one frame and no block is ever refused for load. A fast
//! producer sees backpressure as slower acknowledgements, memory stays
//! bounded by the service's bounded queues plus one parked frame per
//! connection, and every other connection keeps making progress.
//! Queries (self-join, two-way join, full snapshot) answer from the
//! service's merge-on-query snapshot register; one `Scrape` answers
//! stats, metrics, traces, events and health as one document; `Drain`
//! uses the service's non-blocking drain cut and is re-checked on every
//! publish until it completes. `Shutdown` (or
//! [`StopHandle::stop`]) lands the parked ingests, closes the service,
//! answers the durable acks and drains still parked from its final
//! state — `Closed` for a cut no shard reached — and ships the final
//! snapshot and lifetime stats back over the wire.
//!
//! No async executor is involved (the workspace vendors no runtime):
//! the reactor is a readiness loop over `std::net` non-blocking
//! sockets, which is exactly enough for a protocol whose hot path is
//! CPU-bound sketch ingestion in the service's shard workers. The
//! crate needs a unix target for `poll(2)`.

// The only unsafe code is the `poll(2)` call in `poll`; everything
// else is denied it.
#![deny(unsafe_code)]
#![deny(missing_docs)]

pub mod client;
pub mod codec;
mod conn;
pub mod error;
#[allow(unsafe_code)]
mod poll;
mod reactor;
pub mod server;
mod wake;

pub use client::{AckMode, AmsClient, IngestOutcome, ReconnectPolicy};
pub use codec::{ErrorCode, FrameDecoder, FrameError, Request, Response};
pub use error::NetError;
pub use server::{NetServer, NetServerConfig, ServerHandle, StopHandle};

// The scrape document and the assembled traces in it travel over the
// wire (`Request::Scrape`); re-exported so wire consumers can name them
// without separate `ams-service` / `ams-telemetry` dependency
// declarations.
pub use ams_service::Scrape;
pub use ams_telemetry::{AssembledTrace, TraceSpan};
