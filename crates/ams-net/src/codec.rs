//! The framed binary wire protocol: request/response enums, the frame
//! header, and an incremental frame decoder.
//!
//! Every message travels as one frame (all integers little-endian):
//!
//! ```text
//! [0..4)   u32   payload length L (bytes after this field); 9 ≤ L ≤ 2^24
//! [4..8)   magic b"AMSN"
//! [8..9)   u8    protocol version (currently 4)
//! [9..13)  u32   CRC-32 (IEEE) of the body
//! [13..13+L-9) body: kind byte + kind-specific fields
//! ```
//!
//! The length prefix is bounded by [`MAX_FRAME_PAYLOAD`] **before**
//! anything is buffered, so a hostile peer cannot make the server
//! allocate unboundedly; the checksum rejects corruption before any
//! field is interpreted; and every body decoder validates lengths and
//! UTF-8 before materializing values, so arbitrary bytes produce a
//! clean [`FrameError`], never a panic. The checksum itself is the
//! slice-by-8 kernel from [`ams_stream::crc`], and both
//! sides encode into reusable buffers via the `*_into` entry points so
//! steady-state framing allocates nothing. Blocks reuse the columnar
//! [`OpBlock`] wire form from `ams-stream`, and snapshots the binary
//! form of [`ServiceSnapshot::encode`]: the stamps plus each attribute's
//! merged counters, with the shared seed standing in for the hash
//! functions. A scrape asks for its sections with one bit-set byte and
//! comes back as one JSON [`Scrape`] document inside the checksummed
//! frame (self-describing, so it can also be archived and diffed
//! offline); the `Goodbye` stats travel as JSON too. Each snapshot and
//! document rides behind a `u32` length, checked against the body
//! before anything is allocated for it.

use bytes::{Buf, BufMut};

use ams_service::{Scrape, ServiceSnapshot, ServiceStats, SketchError};
use ams_stream::crc::crc32;
use ams_stream::OpBlock;

/// Frame magic: "AMS" + "N" for the network protocol.
pub const MAGIC: [u8; 4] = *b"AMSN";

/// Current protocol version, carried in every frame header. Version 2
/// folded the four ingest requests of version 1 into one
/// [`Request::Ingest`]; version 3 folded the five scrape requests of
/// version 2 into one [`Request::Scrape`]; version 4 retired the `Busy`
/// load-shed answer (kind `0x82`, never reused): a refused block always
/// parks on the server until it lands.
pub const PROTOCOL_VERSION: u8 = 4;

/// Most blocks one [`Request::Ingest`] frame may carry — the client's
/// pipeline window (it sends at most `AmsClient::INGEST_BATCH`). The
/// server answers every block with its own response slot and reads no
/// further frame from a connection while any of its blocks is parked,
/// so this cap is also how many blocks one connection can park and how
/// far one frame can carry it past its in-flight bound. Larger counts
/// are rejected at decode, before any allocation.
pub const MAX_INGEST_BLOCKS: usize = 64;

/// Hard upper bound on a frame's payload (everything after the length
/// prefix). Frames declaring more are rejected before buffering. A
/// snapshot response costs 8 bytes per counter plus a few bytes per
/// attribute, so one frame carries about two million counters over all
/// attributes (4 attributes at s = 2¹⁸ take 8 MiB); per-connection
/// memory stays bounded at one frame plus one read burst.
pub const MAX_FRAME_PAYLOAD: usize = 16 << 20;

/// Bytes of header between the length prefix and the body
/// (magic + version + checksum).
const HEADER_LEN: usize = 9;

/// Largest admissible body (kind byte + fields).
pub const MAX_BODY: usize = MAX_FRAME_PAYLOAD - HEADER_LEN;

// Request kinds occupy 0x01.., response kinds 0x81.. so a stray
// response on the request path (or vice versa) fails loudly as an
// unknown kind.
const REQ_INGEST: u8 = 0x01;
const REQ_QUERY_SELF_JOIN: u8 = 0x02;
const REQ_QUERY_TWO_WAY_JOIN: u8 = 0x03;
const REQ_SNAPSHOT: u8 = 0x04;
const REQ_SCRAPE: u8 = 0x05;
const REQ_DRAIN: u8 = 0x06;
const REQ_SHUTDOWN: u8 = 0x07;

/// Ingest option flag: acknowledge only after the block's effects
/// are on stable storage (WAL appended + fsynced per the server's
/// policy), not merely enqueued. Against a server without a
/// durability layer the ack degrades to after-apply.
pub const INGEST_FLAG_DURABLE: u8 = 0x01;
/// Ingest option flag: the frame carries a `(producer, first_seq)`
/// idempotency tag, letting the service skip resubmitted blocks it
/// already logged (exactly-once resubmission after a lost ack).
pub const INGEST_FLAG_TAGGED: u8 = 0x02;
/// Ingest option flag: the frame carries a nonzero `u64` trace id —
/// the request is tail-sampling-eligible and every stage it touches
/// stamps a span for it (see `ams_telemetry::trace`). The id traces
/// the frame's first block.
pub const INGEST_FLAG_TRACED: u8 = 0x04;
const INGEST_FLAGS_KNOWN: u8 = INGEST_FLAG_DURABLE | INGEST_FLAG_TAGGED | INGEST_FLAG_TRACED;

const RESP_INGESTED: u8 = 0x81;
// 0x82 was `Busy` until version 4; it is never reused.
const RESP_SELF_JOIN: u8 = 0x83;
const RESP_TWO_WAY_JOIN: u8 = 0x84;
const RESP_SNAPSHOT: u8 = 0x85;
const RESP_SCRAPE: u8 = 0x86;
const RESP_DRAINED: u8 = 0x87;
const RESP_GOODBYE: u8 = 0x88;
const RESP_ERROR: u8 = 0xFF;

/// Why a frame (or its body) failed to decode. The framing layer is
/// byte-synchronous: after any error the stream position can no longer
/// be trusted, so peers drop the connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The declared payload length exceeds [`MAX_FRAME_PAYLOAD`].
    Oversized {
        /// The length the peer declared.
        declared: usize,
    },
    /// The declared payload length cannot even hold the header.
    Undersized {
        /// The length the peer declared.
        declared: usize,
    },
    /// The frame does not start with the protocol magic.
    BadMagic,
    /// The peer speaks a protocol version this build does not.
    BadVersion {
        /// The version byte received.
        got: u8,
    },
    /// The body checksum did not match — corruption in transit.
    ChecksumMismatch,
    /// The body's kind byte names no known message.
    UnknownKind {
        /// The kind byte received.
        kind: u8,
    },
    /// A body field was truncated, malformed, or left trailing bytes.
    Malformed {
        /// What was wrong.
        reason: &'static str,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Oversized { declared } => {
                write!(f, "frame payload of {declared} bytes exceeds the limit")
            }
            FrameError::Undersized { declared } => {
                write!(
                    f,
                    "frame payload of {declared} bytes is shorter than the header"
                )
            }
            FrameError::BadMagic => write!(f, "bad frame magic (not an AMSN frame)"),
            FrameError::BadVersion { got } => write!(f, "unsupported protocol version {got}"),
            FrameError::ChecksumMismatch => write!(f, "frame checksum mismatch"),
            FrameError::UnknownKind { kind } => write!(f, "unknown message kind {kind:#04x}"),
            FrameError::Malformed { reason } => write!(f, "malformed message body: {reason}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// Machine-readable class of a protocol-level [`Response::Error`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrorCode {
    /// The request frame or body was malformed; the server will close
    /// the connection after this response.
    Protocol = 1,
    /// The named attribute is not registered on the service.
    UnknownAttribute = 2,
    /// The service is shutting down; no further ingestion is accepted.
    Closed = 3,
    /// An internal service/sketch error.
    Internal = 4,
}

impl ErrorCode {
    fn from_u8(code: u8) -> Option<Self> {
        match code {
            1 => Some(ErrorCode::Protocol),
            2 => Some(ErrorCode::UnknownAttribute),
            3 => Some(ErrorCode::Closed),
            4 => Some(ErrorCode::Internal),
            _ => None,
        }
    }
}

impl std::fmt::Display for ErrorCode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            ErrorCode::Protocol => "protocol",
            ErrorCode::UnknownAttribute => "unknown-attribute",
            ErrorCode::Closed => "closed",
            ErrorCode::Internal => "internal",
        };
        f.write_str(name)
    }
}

/// A client-to-server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Submit one or more columnar blocks of updates for one
    /// attribute. The server answers with **one response per block**
    /// (`Ingested`, or an `Error`), in order — several blocks per frame
    /// amortize the header, checksum, and dispatch cost under
    /// pipelining without changing the backpressure contract. Block `i`
    /// carries the implicit sequence number `first_seq + i`, so one
    /// options header tags every block (see the `INGEST_FLAG_*`
    /// constants for the wire flags).
    Ingest {
        /// The registered attribute all blocks belong to.
        attribute: String,
        /// The blocks, in submission order: 1 to [`MAX_INGEST_BLOCKS`].
        blocks: Vec<OpBlock>,
        /// Acknowledge each block only once its effects are durable.
        durable: bool,
        /// Idempotency producer id; `0` means untagged.
        producer: u64,
        /// Sequence number of the first block; later blocks increment
        /// (meaningful when `producer != 0`).
        first_seq: u64,
        /// Trace id for the frame's **first block**; `0` means
        /// untraced (see [`INGEST_FLAG_TRACED`]).
        trace: u64,
    },
    /// Ask for the self-join size estimate of one attribute.
    QuerySelfJoin {
        /// The attribute to estimate.
        attribute: String,
    },
    /// Ask for the two-way equality-join size estimate of two
    /// attributes.
    QueryTwoWayJoin {
        /// The left attribute.
        left: String,
        /// The right attribute.
        right: String,
    },
    /// Ask for the full merged [`ServiceSnapshot`].
    Snapshot,
    /// Ask for one [`Scrape`] document (see
    /// [`AmsService::scrape`](ams_service::AmsService::scrape)); its
    /// health section is windowed over this connection's own baseline.
    Scrape {
        /// Which sections: a nonempty bit set of the [`Scrape`]
        /// constants ([`Scrape::STATS`] … [`Scrape::HEALTH`]). An empty
        /// set or an unknown bit fails to encode and to decode.
        sections: u8,
    },
    /// Wait (server-side, without blocking the reactor) until every
    /// block accepted before this request is reflected in snapshots.
    Drain,
    /// Gracefully stop the server; answered with
    /// [`Response::Goodbye`] carrying the final snapshot and stats.
    Shutdown,
}

/// A server-to-client message.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// The ingest landed in the service's shard queues (or, for a
    /// durable ingest, on stable storage). A block a full queue refused
    /// is answered only once it has landed.
    Ingested,
    /// Answer to [`Request::QuerySelfJoin`].
    SelfJoin {
        /// The estimate.
        estimate: f64,
    },
    /// Answer to [`Request::QueryTwoWayJoin`].
    TwoWayJoin {
        /// The estimate.
        estimate: f64,
    },
    /// Answer to [`Request::Snapshot`].
    Snapshot {
        /// The merged service snapshot.
        snapshot: ServiceSnapshot,
    },
    /// Answer to [`Request::Scrape`].
    Scrape {
        /// The document: its instant plus the sections asked for.
        scrape: Scrape,
    },
    /// Answer to [`Request::Drain`]: the drain cut was reached.
    Drained {
        /// The epoch the drain reached (see
        /// [`ams_service::AmsService::drain`]).
        epoch: u64,
    },
    /// Final answer to [`Request::Shutdown`], sent after the service
    /// stopped.
    Goodbye {
        /// The final merged snapshot.
        snapshot: ServiceSnapshot,
        /// The lifetime statistics.
        stats: ServiceStats,
    },
    /// The request failed; the connection stays usable unless the code
    /// is [`ErrorCode::Protocol`].
    Error {
        /// What class of failure.
        code: ErrorCode,
        /// Human-readable detail.
        message: String,
    },
}

/// Total bytes of prefix + header preceding the body in a frame.
const FRAME_PREFIX: usize = 4 + HEADER_LEN;

/// Starts a frame in `out`: clears the buffer and reserves space for
/// the length prefix and header, which [`finish_frame`] patches once
/// the body has been written after them. The clear/extend pair reuses
/// whatever capacity `out` already has, so encoding into a pooled
/// buffer does no steady-state allocation.
fn begin_frame(out: &mut Vec<u8>) {
    out.clear();
    out.resize(FRAME_PREFIX, 0);
}

/// Completes a frame started with [`begin_frame`]: validates the body
/// length and patches the length prefix, magic, version, and checksum
/// in place.
///
/// # Errors
/// [`FrameError::Oversized`] when the body exceeds [`MAX_BODY`] (the
/// buffer's contents are unspecified afterwards — restart with
/// [`begin_frame`]).
fn finish_frame(out: &mut [u8]) -> Result<(), FrameError> {
    let body_len = out.len() - FRAME_PREFIX;
    if body_len > MAX_BODY {
        return Err(FrameError::Oversized {
            declared: body_len + HEADER_LEN,
        });
    }
    let checksum = crc32(&out[FRAME_PREFIX..]);
    out[0..4].copy_from_slice(&((HEADER_LEN + body_len) as u32).to_le_bytes());
    out[4..8].copy_from_slice(&MAGIC);
    out[8] = PROTOCOL_VERSION;
    out[9..FRAME_PREFIX].copy_from_slice(&checksum.to_le_bytes());
    Ok(())
}

fn put_str(out: &mut Vec<u8>, s: &str) -> Result<(), FrameError> {
    if s.len() > u16::MAX as usize {
        return Err(FrameError::Malformed {
            reason: "string field longer than 64 KiB",
        });
    }
    out.put_u16_le(s.len() as u16);
    out.put_slice(s.as_bytes());
    Ok(())
}

fn get_str(data: &mut &[u8]) -> Result<String, FrameError> {
    if data.remaining() < 2 {
        return Err(FrameError::Malformed {
            reason: "truncated string length",
        });
    }
    let len = data.get_u16_le() as usize;
    if data.remaining() < len {
        return Err(FrameError::Malformed {
            reason: "truncated string bytes",
        });
    }
    let (head, tail) = data.split_at(len);
    let s = std::str::from_utf8(head)
        .map_err(|_| FrameError::Malformed {
            reason: "string field is not UTF-8",
        })?
        .to_string();
    *data = tail;
    Ok(s)
}

/// Writes what `write` appends behind its `u32` length (a snapshot or
/// a JSON document). A length past 4 GiB would wrap, but such a body
/// never leaves: `finish_frame` refuses anything past the frame limit.
fn put_sized(out: &mut Vec<u8>, write: impl FnOnce(&mut Vec<u8>)) {
    let at = out.len();
    out.put_u32_le(0);
    write(out);
    let len = (out.len() - at - 4) as u32;
    out[at..at + 4].copy_from_slice(&len.to_le_bytes());
}

/// Reads the bytes [`put_sized`] wrote.
fn get_sized<'a>(data: &mut &'a [u8]) -> Result<&'a [u8], FrameError> {
    if data.remaining() < 4 {
        return Err(FrameError::Malformed {
            reason: "truncated document length",
        });
    }
    let len = data.get_u32_le() as usize;
    if data.remaining() < len {
        return Err(FrameError::Malformed {
            reason: "truncated document bytes",
        });
    }
    let (head, tail) = data.split_at(len);
    *data = tail;
    Ok(head)
}

fn put_json<T: serde::Serialize>(out: &mut Vec<u8>, value: &T) -> Result<(), FrameError> {
    let json = serde_json::to_string(value).map_err(|_| FrameError::Malformed {
        reason: "unserializable document",
    })?;
    put_sized(out, |out| out.put_slice(json.as_bytes()));
    Ok(())
}

fn get_json<T: for<'de> serde::Deserialize<'de>>(data: &mut &[u8]) -> Result<T, FrameError> {
    let text = std::str::from_utf8(get_sized(data)?).map_err(|_| FrameError::Malformed {
        reason: "document is not UTF-8",
    })?;
    serde_json::from_str(text).map_err(|_| FrameError::Malformed {
        reason: "document failed validation",
    })
}

fn get_snapshot(data: &mut &[u8]) -> Result<ServiceSnapshot, FrameError> {
    ServiceSnapshot::decode(get_sized(data)?).map_err(|e| FrameError::Malformed {
        reason: match e {
            SketchError::Codec { reason } => reason,
            _ => "invalid snapshot",
        },
    })
}

fn get_block(data: &mut &[u8]) -> Result<OpBlock, FrameError> {
    OpBlock::decode_wire(data).map_err(|e| FrameError::Malformed { reason: e.reason })
}

fn finish(data: &[u8]) -> Result<(), FrameError> {
    if data.is_empty() {
        Ok(())
    } else {
        Err(FrameError::Malformed {
            reason: "trailing bytes after message body",
        })
    }
}

/// Checks a scrape's section set: nonempty, and no bit outside
/// [`Scrape::ALL`].
fn scrape_sections(sections: u8) -> Result<u8, FrameError> {
    if sections == 0 || sections & !Scrape::ALL != 0 {
        return Err(FrameError::Malformed {
            reason: "empty or unknown scrape sections",
        });
    }
    Ok(sections)
}

/// Reads the ingest option prefix written by
/// [`encode_ingest_frame_into`]: `(durable, producer, seq, trace)`.
fn get_ingest_options(data: &mut &[u8]) -> Result<(bool, u64, u64, u64), FrameError> {
    if data.remaining() < 1 {
        return Err(FrameError::Malformed {
            reason: "truncated ingest flags",
        });
    }
    let flags = data.get_u8();
    if flags & !INGEST_FLAGS_KNOWN != 0 {
        return Err(FrameError::Malformed {
            reason: "unknown ingest flag bits",
        });
    }
    let durable = flags & INGEST_FLAG_DURABLE != 0;
    let (producer, seq) = if flags & INGEST_FLAG_TAGGED != 0 {
        if data.remaining() < 16 {
            return Err(FrameError::Malformed {
                reason: "truncated ingest tag",
            });
        }
        let producer = data.get_u64_le();
        if producer == 0 {
            return Err(FrameError::Malformed {
                reason: "tagged ingest with zero producer id",
            });
        }
        (producer, data.get_u64_le())
    } else {
        (0, 0)
    };
    let trace = if flags & INGEST_FLAG_TRACED != 0 {
        if data.remaining() < 8 {
            return Err(FrameError::Malformed {
                reason: "truncated trace id",
            });
        }
        let trace = data.get_u64_le();
        if trace == 0 {
            return Err(FrameError::Malformed {
                reason: "traced ingest with zero trace id",
            });
        }
        trace
    } else {
        0
    };
    Ok((durable, producer, seq, trace))
}

/// Encodes an [`Request::Ingest`] into `out` as one complete frame
/// from borrowed parts — the client's ingest hot path: no owned
/// [`Request`] (so no block clone) and no per-call frame allocation
/// (the caller reuses one buffer across the pipeline).
///
/// # Errors
/// [`FrameError::Malformed`] for an empty batch or one over
/// [`MAX_INGEST_BLOCKS`]; [`FrameError`] when the attribute or the
/// blocks exceed the frame-size limits (split the batch and resubmit).
pub fn encode_ingest_frame_into(
    attribute: &str,
    blocks: &[OpBlock],
    durable: bool,
    producer: u64,
    first_seq: u64,
    trace: u64,
    out: &mut Vec<u8>,
) -> Result<(), FrameError> {
    if blocks.is_empty() {
        return Err(FrameError::Malformed {
            reason: "empty ingest batch",
        });
    }
    if blocks.len() > MAX_INGEST_BLOCKS {
        return Err(FrameError::Malformed {
            reason: "batch count exceeds the per-frame cap",
        });
    }
    begin_frame(out);
    out.put_u8(REQ_INGEST);
    // The options prefix: the flags byte, then the idempotency tag when
    // `producer != 0` and the trace id when `trace != 0`.
    let mut flags = 0u8;
    if durable {
        flags |= INGEST_FLAG_DURABLE;
    }
    if producer != 0 {
        flags |= INGEST_FLAG_TAGGED;
    }
    if trace != 0 {
        flags |= INGEST_FLAG_TRACED;
    }
    out.put_u8(flags);
    if producer != 0 {
        out.put_u64_le(producer);
        out.put_u64_le(first_seq);
    }
    if trace != 0 {
        out.put_u64_le(trace);
    }
    put_str(out, attribute)?;
    out.put_u32_le(blocks.len() as u32);
    for block in blocks {
        block.encode_wire(out);
    }
    finish_frame(out)
}

impl Request {
    /// Encodes this request into `out` as one complete frame, reusing
    /// the buffer's capacity (cleared first).
    ///
    /// # Errors
    /// [`FrameError`] when a field exceeds the frame-size limits (e.g.
    /// a block too large for one frame — split it and resubmit).
    pub fn encode_into(&self, out: &mut Vec<u8>) -> Result<(), FrameError> {
        match self {
            Request::Ingest {
                attribute,
                blocks,
                durable,
                producer,
                first_seq,
                trace,
            } => {
                return encode_ingest_frame_into(
                    attribute, blocks, *durable, *producer, *first_seq, *trace, out,
                );
            }
            Request::QuerySelfJoin { attribute } => {
                begin_frame(out);
                out.put_u8(REQ_QUERY_SELF_JOIN);
                put_str(out, attribute)?;
            }
            Request::QueryTwoWayJoin { left, right } => {
                begin_frame(out);
                out.put_u8(REQ_QUERY_TWO_WAY_JOIN);
                put_str(out, left)?;
                put_str(out, right)?;
            }
            Request::Snapshot => {
                begin_frame(out);
                out.put_u8(REQ_SNAPSHOT);
            }
            Request::Scrape { sections } => {
                begin_frame(out);
                out.put_u8(REQ_SCRAPE);
                out.put_u8(scrape_sections(*sections)?);
            }
            Request::Drain => {
                begin_frame(out);
                out.put_u8(REQ_DRAIN);
            }
            Request::Shutdown => {
                begin_frame(out);
                out.put_u8(REQ_SHUTDOWN);
            }
        }
        finish_frame(out)
    }

    /// Encodes this request as one complete frame, ready to write.
    ///
    /// # Errors
    /// As for [`Self::encode_into`].
    pub fn encode(&self) -> Result<Vec<u8>, FrameError> {
        let mut out = Vec::new();
        self.encode_into(&mut out)?;
        Ok(out)
    }

    /// The trace id this request carries (`0` = untraced). Only
    /// ingests can be traced.
    pub fn trace_id(&self) -> u64 {
        match self {
            Request::Ingest { trace, .. } => *trace,
            _ => 0,
        }
    }

    /// Decodes a request from a verified frame body (as returned by
    /// [`FrameDecoder::next_frame`]).
    ///
    /// # Errors
    /// [`FrameError`] on unknown kinds or malformed fields; never
    /// panics on arbitrary input.
    pub fn decode(body: &[u8]) -> Result<Request, FrameError> {
        let mut data = body;
        if data.is_empty() {
            return Err(FrameError::Malformed {
                reason: "empty message body",
            });
        }
        let kind = data.get_u8();
        let request = match kind {
            REQ_INGEST => {
                let (durable, producer, first_seq, trace) = get_ingest_options(&mut data)?;
                let attribute = get_str(&mut data)?;
                if data.remaining() < 4 {
                    return Err(FrameError::Malformed {
                        reason: "truncated batch count",
                    });
                }
                let count = data.get_u32_le() as usize;
                if count == 0 {
                    return Err(FrameError::Malformed {
                        reason: "empty ingest batch",
                    });
                }
                // Every block's wire form is at least 5 bytes, so a
                // declared count the remaining body cannot hold is
                // rejected before any allocation sized by it.
                if count > data.remaining() / 5 {
                    return Err(FrameError::Malformed {
                        reason: "batch count exceeds body",
                    });
                }
                if count > MAX_INGEST_BLOCKS {
                    return Err(FrameError::Malformed {
                        reason: "batch count exceeds the per-frame cap",
                    });
                }
                let mut blocks = Vec::with_capacity(count);
                for _ in 0..count {
                    blocks.push(get_block(&mut data)?);
                }
                Request::Ingest {
                    attribute,
                    blocks,
                    durable,
                    producer,
                    first_seq,
                    trace,
                }
            }
            REQ_QUERY_SELF_JOIN => Request::QuerySelfJoin {
                attribute: get_str(&mut data)?,
            },
            REQ_QUERY_TWO_WAY_JOIN => Request::QueryTwoWayJoin {
                left: get_str(&mut data)?,
                right: get_str(&mut data)?,
            },
            REQ_SNAPSHOT => Request::Snapshot,
            REQ_SCRAPE => {
                if data.is_empty() {
                    return Err(FrameError::Malformed {
                        reason: "truncated scrape sections",
                    });
                }
                Request::Scrape {
                    sections: scrape_sections(data.get_u8())?,
                }
            }
            REQ_DRAIN => Request::Drain,
            REQ_SHUTDOWN => Request::Shutdown,
            kind => return Err(FrameError::UnknownKind { kind }),
        };
        finish(data)?;
        Ok(request)
    }
}

impl Response {
    /// Encodes this response into `out` as one complete frame, reusing
    /// the buffer's capacity (cleared first) — the reactor's hot path,
    /// paired with its frame pool so steady-state response
    /// encoding allocates nothing.
    ///
    /// # Errors
    /// [`FrameError`] when the response exceeds the frame-size limit
    /// (e.g. a snapshot of a sketch too large for one frame).
    pub fn encode_into(&self, out: &mut Vec<u8>) -> Result<(), FrameError> {
        begin_frame(out);
        match self {
            Response::Ingested => out.put_u8(RESP_INGESTED),
            Response::SelfJoin { estimate } => {
                out.put_u8(RESP_SELF_JOIN);
                out.put_u64_le(estimate.to_bits());
            }
            Response::TwoWayJoin { estimate } => {
                out.put_u8(RESP_TWO_WAY_JOIN);
                out.put_u64_le(estimate.to_bits());
            }
            Response::Snapshot { snapshot } => {
                out.put_u8(RESP_SNAPSHOT);
                put_sized(out, |out| snapshot.encode(out));
            }
            Response::Scrape { scrape } => {
                out.put_u8(RESP_SCRAPE);
                put_json(out, scrape)?;
            }
            Response::Drained { epoch } => {
                out.put_u8(RESP_DRAINED);
                out.put_u64_le(*epoch);
            }
            Response::Goodbye { snapshot, stats } => {
                out.put_u8(RESP_GOODBYE);
                put_sized(out, |out| snapshot.encode(out));
                put_json(out, stats)?;
            }
            Response::Error { code, message } => {
                out.put_u8(RESP_ERROR);
                out.put_u8(*code as u8);
                put_str(out, message)?;
            }
        }
        finish_frame(out)
    }

    /// Encodes this response as one complete frame, ready to write.
    ///
    /// # Errors
    /// As for [`Self::encode_into`].
    pub fn encode(&self) -> Result<Vec<u8>, FrameError> {
        let mut out = Vec::new();
        self.encode_into(&mut out)?;
        Ok(out)
    }

    /// Decodes a response from a verified frame body.
    ///
    /// # Errors
    /// [`FrameError`] on unknown kinds or malformed fields; never
    /// panics on arbitrary input.
    pub fn decode(body: &[u8]) -> Result<Response, FrameError> {
        let mut data = body;
        if data.is_empty() {
            return Err(FrameError::Malformed {
                reason: "empty message body",
            });
        }
        let kind = data.get_u8();
        let need = |n: usize, data: &&[u8]| {
            if data.remaining() < n {
                Err(FrameError::Malformed {
                    reason: "truncated response fields",
                })
            } else {
                Ok(())
            }
        };
        let response = match kind {
            RESP_INGESTED => Response::Ingested,
            RESP_SELF_JOIN => {
                need(8, &data)?;
                Response::SelfJoin {
                    estimate: f64::from_bits(data.get_u64_le()),
                }
            }
            RESP_TWO_WAY_JOIN => {
                need(8, &data)?;
                Response::TwoWayJoin {
                    estimate: f64::from_bits(data.get_u64_le()),
                }
            }
            RESP_SNAPSHOT => Response::Snapshot {
                snapshot: get_snapshot(&mut data)?,
            },
            RESP_SCRAPE => Response::Scrape {
                scrape: get_json(&mut data)?,
            },
            RESP_DRAINED => {
                need(8, &data)?;
                Response::Drained {
                    epoch: data.get_u64_le(),
                }
            }
            RESP_GOODBYE => Response::Goodbye {
                snapshot: get_snapshot(&mut data)?,
                stats: get_json(&mut data)?,
            },
            RESP_ERROR => {
                need(1, &data)?;
                let code = data.get_u8();
                let code = ErrorCode::from_u8(code).ok_or(FrameError::Malformed {
                    reason: "unknown error code",
                })?;
                Response::Error {
                    code,
                    message: get_str(&mut data)?,
                }
            }
            kind => return Err(FrameError::UnknownKind { kind }),
        };
        finish(data)?;
        Ok(response)
    }
}

/// Incremental frame extractor: feed raw stream bytes in, take verified
/// frame bodies out. Both sides of the protocol use it — the client
/// over blocking reads, the server over non-blocking ones.
///
/// After [`next_frame`](Self::next_frame) returns an error the stream
/// is no longer byte-synchronized; the connection must be dropped.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
    pos: usize,
}

impl FrameDecoder {
    /// An empty decoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends raw bytes read from the stream.
    pub fn feed(&mut self, bytes: &[u8]) {
        // Reclaim the consumed prefix before growing, so the buffer
        // stays bounded by a few frames regardless of connection
        // lifetime.
        if self.pos > 0 && (self.pos >= self.buf.len() || self.pos > MAX_FRAME_PAYLOAD) {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes fed but not yet consumed by a returned frame.
    pub fn buffered(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Extracts the next complete frame, verifying the header and
    /// checksum, and returns its body **borrowed from the decoder's
    /// buffer** — the zero-copy hot path both the reactor and the
    /// client decode through. The returned slice is valid until the
    /// next call to [`feed`](Self::feed) or another extraction;
    /// decode it to an owned message within that window. `Ok(None)`
    /// means more bytes are needed.
    ///
    /// # Errors
    /// [`FrameError`] on any header, size, or checksum violation —
    /// after which the stream must be abandoned.
    pub fn next_frame_borrowed(&mut self) -> Result<Option<&[u8]>, FrameError> {
        let avail = &self.buf[self.pos..];
        if avail.len() < 4 {
            return Ok(None);
        }
        let declared = u32::from_le_bytes([avail[0], avail[1], avail[2], avail[3]]) as usize;
        if declared < HEADER_LEN {
            return Err(FrameError::Undersized { declared });
        }
        if declared > MAX_FRAME_PAYLOAD {
            return Err(FrameError::Oversized { declared });
        }
        if avail.len() < 4 + declared {
            return Ok(None);
        }
        let frame = &avail[4..4 + declared];
        if frame[..4] != MAGIC {
            return Err(FrameError::BadMagic);
        }
        if frame[4] != PROTOCOL_VERSION {
            return Err(FrameError::BadVersion { got: frame[4] });
        }
        let checksum = u32::from_le_bytes([frame[5], frame[6], frame[7], frame[8]]);
        let body = &frame[HEADER_LEN..];
        if crc32(body) != checksum {
            return Err(FrameError::ChecksumMismatch);
        }
        let body_start = self.pos + 4 + HEADER_LEN;
        self.pos += 4 + declared;
        Ok(Some(&self.buf[body_start..self.pos]))
    }

    /// Owned-body convenience over
    /// [`next_frame_borrowed`](Self::next_frame_borrowed) (one copy per
    /// frame).
    ///
    /// # Errors
    /// As for [`Self::next_frame_borrowed`].
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, FrameError> {
        Ok(self.next_frame_borrowed()?.map(<[u8]>::to_vec))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ams_service::{AssembledTrace, ServiceEvent};

    fn ingest(
        blocks: Vec<OpBlock>,
        durable: bool,
        producer: u64,
        first_seq: u64,
        trace: u64,
    ) -> Request {
        Request::Ingest {
            attribute: "clicks".into(),
            blocks,
            durable,
            producer,
            first_seq,
            trace,
        }
    }

    /// Runs a hand-built frame body through the decoder and the request
    /// decoder.
    fn decode_built(frame: &mut [u8]) -> Result<Request, FrameError> {
        finish_frame(frame).unwrap();
        let mut decoder = FrameDecoder::new();
        decoder.feed(frame);
        let body = decoder.next_frame().unwrap().unwrap();
        Request::decode(&body)
    }

    fn roundtrip_request(request: &Request) -> Request {
        let frame = request.encode().unwrap();
        let mut decoder = FrameDecoder::new();
        decoder.feed(&frame);
        let body = decoder.next_frame().unwrap().expect("one whole frame");
        assert!(decoder.next_frame().unwrap().is_none());
        Request::decode(&body).unwrap()
    }

    #[test]
    fn request_roundtrips() {
        let requests = [
            ingest(vec![OpBlock::from_values([1u64, 1, 2, 9])], false, 0, 0, 0),
            ingest(
                vec![
                    OpBlock::from_values([1u64, 1, 2, 9]),
                    OpBlock::from_values([7u64]),
                    OpBlock::from_values([3u64, 3, 3]),
                ],
                false,
                0,
                0,
                0,
            ),
            ingest(
                vec![OpBlock::from_values([4u64, 4])],
                true,
                0xDEAD_BEEF,
                17,
                0,
            ),
            ingest(
                vec![OpBlock::from_values([6u64, 6])],
                true,
                0xDEAD_BEEF,
                18,
                0xFACE_FEED,
            ),
            ingest(vec![OpBlock::from_values([8u64])], false, 0, 0, u64::MAX),
            ingest(
                vec![OpBlock::from_values([1u64]), OpBlock::from_values([2u64])],
                true,
                9,
                100,
                0,
            ),
            ingest(
                vec![OpBlock::from_values([3u64]); MAX_INGEST_BLOCKS],
                false,
                0,
                0,
                0x1234_5678_9ABC,
            ),
            Request::QuerySelfJoin {
                attribute: "π-ratio".into(),
            },
            Request::QueryTwoWayJoin {
                left: "l".into(),
                right: "r".into(),
            },
            Request::Snapshot,
            Request::Scrape {
                sections: Scrape::STATS,
            },
            Request::Scrape {
                sections: Scrape::METRICS | Scrape::HEALTH,
            },
            Request::Scrape {
                sections: Scrape::TRACES,
            },
            Request::Scrape {
                sections: Scrape::EVENTS,
            },
            Request::Scrape {
                sections: Scrape::ALL,
            },
            Request::Drain,
            Request::Shutdown,
        ];
        for request in requests {
            assert_eq!(roundtrip_request(&request), request);
        }
    }

    /// Encodes a scrape response, decodes it back, and returns the
    /// document (asserting the round trip is exact).
    fn roundtrip_scrape(scrape: Scrape) -> Scrape {
        let response = Response::Scrape { scrape };
        let frame = response.encode().unwrap();
        let mut decoder = FrameDecoder::new();
        decoder.feed(&frame);
        let body = decoder.next_frame().unwrap().unwrap();
        let back = Response::decode(&body).unwrap();
        assert_eq!(back, response);
        match back {
            Response::Scrape { scrape } => scrape,
            other => panic!("wrong kind: {other:?}"),
        }
    }

    #[test]
    fn scalar_responses_roundtrip() {
        let responses = [
            Response::Ingested,
            Response::SelfJoin { estimate: 42.5 },
            Response::TwoWayJoin {
                estimate: f64::INFINITY,
            },
            Response::Drained { epoch: 77 },
            Response::Error {
                code: ErrorCode::UnknownAttribute,
                message: "no such attribute: x".into(),
            },
        ];
        for response in responses {
            let frame = response.encode().unwrap();
            let mut decoder = FrameDecoder::new();
            decoder.feed(&frame);
            let body = decoder.next_frame().unwrap().unwrap();
            assert_eq!(Response::decode(&body).unwrap(), response);
        }
    }

    #[test]
    fn retired_busy_kind_is_an_unknown_response() {
        // The version-3 `Busy` body: kind, shard, retry hint.
        let mut body = vec![0x82];
        body.extend_from_slice(&3u32.to_le_bytes());
        body.extend_from_slice(&250u32.to_le_bytes());
        assert_eq!(
            Response::decode(&body),
            Err(FrameError::UnknownKind { kind: 0x82 })
        );
    }

    #[test]
    fn metrics_response_roundtrips() {
        let registry = ams_service::MetricsRegistry::new();
        registry.counter("net_frames_decoded", &[]).add(17);
        registry
            .gauge("service_queue_depth", &[("shard", "0")])
            .set(3);
        registry
            .histogram("service_ingest_ns", &[("shard", "0")])
            .record(12_345);
        let back = roundtrip_scrape(Scrape {
            at_ns: 41,
            metrics: Some(registry.snapshot()),
            ..Scrape::default()
        });
        let snapshot = back.metrics.unwrap();
        assert_eq!(snapshot.counter("net_frames_decoded", &[]), Some(17));
        let h = snapshot
            .histogram("service_ingest_ns", &[("shard", "0")])
            .unwrap();
        assert_eq!(h.count, 1);
        assert_eq!(back.at_ns, 41);
        assert!(back.health.is_none(), "only the sections asked for");
    }

    #[test]
    fn frames_resync_across_partial_feeds() {
        let a = Request::QuerySelfJoin {
            attribute: "a".into(),
        }
        .encode()
        .unwrap();
        let b = Request::Drain.encode().unwrap();
        let stream: Vec<u8> = [a, b].concat();
        let mut decoder = FrameDecoder::new();
        let mut decoded = Vec::new();
        for chunk in stream.chunks(3) {
            decoder.feed(chunk);
            while let Some(body) = decoder.next_frame().unwrap() {
                decoded.push(Request::decode(&body).unwrap());
            }
        }
        assert_eq!(decoded.len(), 2);
        assert_eq!(decoded[1], Request::Drain);
        assert_eq!(decoder.buffered(), 0);
    }

    #[test]
    fn corrupted_frames_rejected() {
        let frame = Request::Scrape {
            sections: Scrape::STATS,
        }
        .encode()
        .unwrap();
        // Body corruption → checksum mismatch.
        let mut bad = frame.clone();
        *bad.last_mut().unwrap() ^= 0xFF;
        let mut decoder = FrameDecoder::new();
        decoder.feed(&bad);
        assert_eq!(decoder.next_frame(), Err(FrameError::ChecksumMismatch));
        // Magic corruption.
        let mut bad = frame.clone();
        bad[4] ^= 0xFF;
        let mut decoder = FrameDecoder::new();
        decoder.feed(&bad);
        assert_eq!(decoder.next_frame(), Err(FrameError::BadMagic));
        // Version bump.
        let mut bad = frame.clone();
        bad[8] = 9;
        let mut decoder = FrameDecoder::new();
        decoder.feed(&bad);
        assert_eq!(decoder.next_frame(), Err(FrameError::BadVersion { got: 9 }));
        // Frames from version-1 and version-2 peers.
        for old in [1, 2] {
            let mut bad = frame.clone();
            bad[8] = old;
            let mut decoder = FrameDecoder::new();
            decoder.feed(&bad);
            assert_eq!(
                decoder.next_frame(),
                Err(FrameError::BadVersion { got: old })
            );
        }
        // Oversized declaration is rejected before buffering the body.
        let mut bad = frame;
        bad[0..4].copy_from_slice(&(MAX_FRAME_PAYLOAD as u32 + 1).to_le_bytes());
        let mut decoder = FrameDecoder::new();
        decoder.feed(&bad);
        assert!(matches!(
            decoder.next_frame(),
            Err(FrameError::Oversized { .. })
        ));
    }

    #[test]
    fn oversized_ingest_refused_at_encode_time() {
        let block = OpBlock::from_ops((0..(MAX_BODY / 16 + 2) as u64).map(ams_stream::Op::Insert));
        let request = Request::Ingest {
            attribute: "v".into(),
            blocks: vec![block],
            durable: false,
            producer: 0,
            first_seq: 0,
            trace: 0,
        };
        assert!(matches!(
            request.encode(),
            Err(FrameError::Oversized { .. })
        ));
    }

    #[test]
    fn malformed_ingest_options_rejected() {
        // (options prefix, then whether an attribute and one block
        // follow, expected rejection).
        let cases: [(&[u8], bool, &str); 5] = [
            // Unknown flag bits fail cleanly.
            (&[0x80], true, "unknown ingest flag bits"),
            // A tagged frame with producer 0 contradicts itself.
            (
                &[
                    INGEST_FLAG_TAGGED,
                    0,
                    0,
                    0,
                    0,
                    0,
                    0,
                    0,
                    0,
                    3,
                    0,
                    0,
                    0,
                    0,
                    0,
                    0,
                    0,
                ],
                true,
                "tagged ingest with zero producer id",
            ),
            // A tag cut off mid-field is caught before any block decode.
            (
                &[INGEST_FLAG_TAGGED, 7, 0, 0, 0],
                false,
                "truncated ingest tag",
            ),
            // A traced frame with trace id 0 contradicts itself.
            (
                &[INGEST_FLAG_TRACED, 0, 0, 0, 0, 0, 0, 0, 0],
                true,
                "traced ingest with zero trace id",
            ),
            // A trace id cut off mid-field is caught before any block
            // decode.
            (
                &[INGEST_FLAG_TRACED, 7, 0, 0, 0],
                false,
                "truncated trace id",
            ),
        ];
        for (options, with_block, reason) in cases {
            let mut frame = Vec::new();
            begin_frame(&mut frame);
            frame.put_u8(REQ_INGEST);
            frame.put_slice(options);
            if with_block {
                put_str(&mut frame, "v").unwrap();
                frame.put_u32_le(1);
                OpBlock::from_values([1u64]).encode_wire(&mut frame);
            }
            assert_eq!(
                decode_built(&mut frame),
                Err(FrameError::Malformed { reason })
            );
        }
    }

    #[test]
    fn traces_response_roundtrips() {
        use ams_telemetry::TraceSpan;
        let traces = vec![
            AssembledTrace {
                trace_id: 0xABCD,
                total_ns: 125_000,
                spans: vec![
                    TraceSpan {
                        stage: "decode".into(),
                        start_ns: 10,
                        dur_ns: 900,
                    },
                    TraceSpan {
                        stage: "wal_append".into(),
                        start_ns: 2_000,
                        dur_ns: 40_000,
                    },
                ],
            },
            AssembledTrace {
                trace_id: 7,
                total_ns: 0,
                spans: Vec::new(),
            },
        ];
        let back = roundtrip_scrape(Scrape {
            at_ns: 7,
            traces: Some(traces.clone()),
            ..Scrape::default()
        });
        assert_eq!(back.traces, Some(traces));
        // The empty section (nothing sampled yet) is distinct from a
        // section not asked for.
        let empty = roundtrip_scrape(Scrape {
            traces: Some(Vec::new()),
            ..Scrape::default()
        });
        assert_eq!(empty.traces, Some(Vec::new()));
        assert_eq!(roundtrip_scrape(Scrape::default()).traces, None);
    }

    #[test]
    fn events_response_roundtrips() {
        let events = vec![
            ServiceEvent {
                level: "info".into(),
                code: "shard_start".into(),
                at_ns: 10,
                key: 0,
                value: 0,
            },
            ServiceEvent {
                level: "error".into(),
                code: "wal_failed".into(),
                at_ns: 999,
                key: 3,
                value: 42,
            },
        ];
        let back = roundtrip_scrape(Scrape {
            at_ns: 1_000,
            events: Some(events.clone()),
            events_dropped: Some(3),
            ..Scrape::default()
        });
        assert_eq!(back.events, Some(events));
        assert_eq!(back.events_dropped, Some(3));
        // The empty section (no events resident) is also a valid frame.
        let empty = roundtrip_scrape(Scrape {
            events: Some(Vec::new()),
            events_dropped: Some(0),
            ..Scrape::default()
        });
        assert_eq!(empty.events, Some(Vec::new()));
    }

    #[test]
    fn health_response_roundtrips() {
        use ams_service::{AccuracyReport, HealthSignal, HealthVerdict};
        let health = ams_service::HealthReport {
            verdict: HealthVerdict::Degraded(vec!["queue_saturation 0.8000 >= 0.7500".into()]),
            signals: vec![HealthSignal::grade("queue_saturation", 0.8, 0.75, 0.95)],
            accuracy: vec![AccuracyReport {
                attribute: "clicks".into(),
                estimate: 1234.5,
                ci_lower: 900.0,
                ci_upper: 1600.0,
                error_bound: 0.5,
                audited_exact: Some(1200.0),
                observed_rel_error: Some(0.028),
                skew_score: 0.31,
            }],
        };
        let back = roundtrip_scrape(Scrape {
            at_ns: 99,
            stats: Some(ServiceStats { shards: Vec::new() }),
            health: Some(health),
            ..Scrape::default()
        });
        let health = back.health.unwrap();
        assert_eq!(health.verdict.name(), "Degraded");
        assert!(health.accuracy_for("clicks").unwrap().covers(1000.0));
        assert!(back.stats.is_some() && back.metrics.is_none());
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The classic IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn empty_ingest_batch_rejected_both_ways() {
        // Encode-time refusal.
        let mut out = Vec::new();
        assert_eq!(
            encode_ingest_frame_into("v", &[], false, 0, 0, 0, &mut out),
            Err(FrameError::Malformed {
                reason: "empty ingest batch",
            })
        );
        // Decode-time refusal of a hand-built zero-count frame.
        let mut frame = Vec::new();
        begin_frame(&mut frame);
        frame.put_u8(REQ_INGEST);
        frame.put_u8(0);
        put_str(&mut frame, "v").unwrap();
        frame.put_u32_le(0);
        assert_eq!(
            decode_built(&mut frame),
            Err(FrameError::Malformed {
                reason: "empty ingest batch",
            })
        );
    }

    #[test]
    fn overdeclared_batch_count_rejected_before_allocation() {
        // A count the remaining body cannot possibly hold, and a count
        // over the per-frame cap whose blocks would fit, must both fail
        // cleanly (and must not size an allocation).
        let over_cap = MAX_INGEST_BLOCKS + 1;
        let cases = [
            (u32::MAX, 1, "batch count exceeds body"),
            (
                over_cap as u32,
                over_cap,
                "batch count exceeds the per-frame cap",
            ),
        ];
        for (count, blocks, reason) in cases {
            let mut frame = Vec::new();
            begin_frame(&mut frame);
            frame.put_u8(REQ_INGEST);
            frame.put_u8(0);
            put_str(&mut frame, "v").unwrap();
            frame.put_u32_le(count);
            for _ in 0..blocks {
                OpBlock::from_values([1u64]).encode_wire(&mut frame);
            }
            assert_eq!(
                decode_built(&mut frame),
                Err(FrameError::Malformed { reason })
            );
        }
        // The encoder refuses the same over-cap batch.
        let blocks = vec![OpBlock::from_values([1u64]); over_cap];
        assert_eq!(
            encode_ingest_frame_into("v", &blocks, false, 0, 0, 0, &mut Vec::new()),
            Err(FrameError::Malformed {
                reason: "batch count exceeds the per-frame cap",
            })
        );
    }

    #[test]
    fn reused_encode_buffer_produces_identical_frames() {
        // The zero-alloc into-buffer encoder must be byte-identical to
        // the owned `Request` encoder, and reuse must not leak prior
        // contents.
        let mut buf = Vec::new();
        let inputs = [
            (
                "long-attribute-name",
                vec![OpBlock::from_values([1u64, 2, 3])],
                true,
                5,
                9,
                7,
            ),
            (
                "v",
                vec![OpBlock::from_values([9u64]), OpBlock::from_values([4u64])],
                false,
                0,
                0,
                0,
            ),
        ];
        for (attribute, blocks, durable, producer, first_seq, trace) in inputs {
            encode_ingest_frame_into(
                attribute, &blocks, durable, producer, first_seq, trace, &mut buf,
            )
            .unwrap();
            let request = Request::Ingest {
                attribute: attribute.into(),
                blocks,
                durable,
                producer,
                first_seq,
                trace,
            };
            assert_eq!(buf, request.encode().unwrap());
            assert_eq!(roundtrip_request(&request), request);
        }
    }
}
