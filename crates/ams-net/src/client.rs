//! The blocking client library: one connection, request/response
//! calls, automatic retry on `Busy`, and windowed-pipelined batch
//! helpers.

use std::collections::VecDeque;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::Arc;
use std::time::Duration;

use ams_service::{HealthReport, MetricsSnapshot, ServiceEvent, ServiceSnapshot, ServiceStats};
use ams_stream::OpBlock;
use ams_telemetry::{
    trace_clock_ns, AssembledTrace, Counter, EventCode, EventHub, EventRecorder, Gauge,
    MetricsRegistry, TraceHub, TraceRecorder, TraceStage,
};

use crate::codec::{encode_ingest_frame_into, FrameDecoder, Request, Response};
use crate::error::NetError;

/// How batch helpers overlap requests and responses: this many
/// requests (blocks, for ingest) are written ahead of the responses
/// being read, keeping the pipe full without risking a
/// both-sides-writing deadlock.
const PIPELINE_WINDOW: usize = 64;

/// How an auto-retrying ingest behaves under sustained `Busy` answers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Submissions attempted before giving up with
    /// [`NetError::Saturated`].
    pub max_attempts: usize,
    /// Upper bound on one backoff sleep (the server's hint is capped
    /// to this).
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 64,
            max_backoff: Duration::from_millis(50),
        }
    }
}

/// When an ingest submission is acknowledged by the server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AckMode {
    /// `Ingested` means the block landed in the shard queues (the
    /// pre-durability contract; the default). Fastest, but a server
    /// crash can lose acked blocks that were still queued.
    #[default]
    Enqueue,
    /// `Ingested` means the block's WAL record has reached stable
    /// storage: a crash after the ack cannot lose it. Requires the
    /// server to run with durability enabled; against a
    /// durability-off server this degrades to an applied-by-workers
    /// ack (still stronger than [`AckMode::Enqueue`]).
    Fsync,
}

/// How the client re-establishes a dropped connection.
///
/// Enabling reconnect also turns on *idempotency tagging*: every
/// ingest submission carries a `(producer, seq)` tag, and after a
/// reconnect the client resubmits exactly the unacknowledged suffix
/// with the **original** sequence numbers, so a server that already
/// applied a submission (the ack was lost, not the block) skips the
/// duplicate instead of double-counting it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReconnectPolicy {
    /// Redial attempts per reconnect before giving up with the last
    /// connection error.
    pub max_attempts: usize,
    /// Backoff before the first redial; doubles each failed attempt.
    pub base_backoff: Duration,
    /// Cap on one backoff sleep.
    pub max_backoff: Duration,
}

impl Default for ReconnectPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 8,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_secs(1),
        }
    }
}

/// Outcome of one non-retrying ingest submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestOutcome {
    /// The block landed in the service's shard queues.
    Ingested,
    /// The block was load-shed; nothing was applied.
    Busy {
        /// The saturated shard.
        shard: usize,
        /// The server's suggested backoff.
        retry_hint: Duration,
    },
}

/// The client's own instrument handles, backed by a private registry
/// (the server's registry is a separate scrape via [`AmsClient::metrics`]).
///
/// | metric | kind | meaning |
/// |---|---|---|
/// | `client_retries` | counter | ingest resubmissions after a `Busy` |
/// | `client_busy_responses` | counter | `Busy` answers received |
/// | `client_pipeline_peak` | gauge | high-water in-flight requests in batch pipelining |
/// | `client_reconnects` | counter | successful transport re-establishments |
#[derive(Debug)]
struct ClientTelemetry {
    registry: Arc<MetricsRegistry>,
    retries: Arc<Counter>,
    busy_responses: Arc<Counter>,
    pipeline_peak: Arc<Gauge>,
    reconnects: Arc<Counter>,
}

impl ClientTelemetry {
    fn new() -> Self {
        let registry = Arc::new(MetricsRegistry::new());
        let retries = registry.counter("client_retries", &[]);
        let busy_responses = registry.counter("client_busy_responses", &[]);
        let pipeline_peak = registry.gauge("client_pipeline_peak", &[]);
        let reconnects = registry.counter("client_reconnects", &[]);
        Self {
            registry,
            retries,
            busy_responses,
            pipeline_peak,
            reconnects,
        }
    }
}

/// A blocking client over one TCP connection to a [`crate::NetServer`].
///
/// ```no_run
/// use ams_net::AmsClient;
/// use ams_stream::OpBlock;
///
/// let mut client = AmsClient::connect("127.0.0.1:4100")?;
/// client.ingest_block("clicks", &OpBlock::from_values([1, 2, 2, 3]))?;
/// client.drain()?;
/// println!("self-join ≈ {}", client.self_join("clicks")?);
/// # Ok::<(), ams_net::NetError>(())
/// ```
#[derive(Debug)]
pub struct AmsClient {
    stream: TcpStream,
    decoder: FrameDecoder,
    retry: RetryPolicy,
    telemetry: ClientTelemetry,
    /// One encode buffer reused across every ingest frame this client
    /// sends — steady-state ingest encoding allocates nothing.
    encode_buf: Vec<u8>,
    /// Requested ack semantics for ingest submissions.
    ack_mode: AckMode,
    /// Redial behaviour on transport failure; `None` (the default)
    /// keeps the fail-fast contract and untagged ingest frames.
    reconnect: Option<ReconnectPolicy>,
    /// Resolved server addresses, kept for redialing.
    addrs: Vec<SocketAddr>,
    /// This client's idempotency producer id (nonzero once tagging is
    /// active; tags with producer 0 are never emitted).
    producer: u64,
    /// Next sequence number to assign to a tagged submission.
    next_seq: u64,
    /// xorshift state for backoff jitter and trace-id generation.
    rng: u64,
    /// Trace every `trace_every`-th ingest submission (0 = tracing
    /// off, 1 = every submission).
    trace_every: u64,
    /// Submissions since the last traced one.
    trace_tick: u64,
    /// Local span hub for the client-side stages of traced requests
    /// (`client_encode`, `client_recv`); the server's stages live in
    /// the server's hub and are scraped via [`Self::traces`].
    trace_hub: TraceHub,
    /// Recorder into `trace_hub` (one per client — the connection is
    /// driven by one thread).
    trace_recorder: TraceRecorder,
    /// Local structured-event hub: the client's own lifecycle events
    /// (reconnects) land here, readable via [`Self::local_events`].
    event_hub: EventHub,
    /// Recorder into `event_hub` (one per client).
    event_recorder: EventRecorder,
}

impl AmsClient {
    /// Blocks coalesced into one `Ingest` frame by
    /// [`Self::ingest_blocks`]: enough to amortize the frame header,
    /// checksum, per-frame dispatch, and (on small hosts) the
    /// client↔reactor scheduling ping-pong, while keeping several
    /// batches in flight inside the pipeline window.
    pub const INGEST_BATCH: usize = 16;

    /// Connects with the default [`RetryPolicy`].
    ///
    /// # Errors
    /// [`NetError::Io`] when the connection fails.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<Self, NetError> {
        let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
        let stream = TcpStream::connect(&addrs[..])?;
        let _ = stream.set_nodelay(true);
        // Producer id: wall-clock nanoseconds mixed with the pid, forced
        // nonzero (zero is the wire encoding's "untagged" sentinel). Two
        // clients colliding would need the same pid and the same
        // nanosecond — and even then they would only share a dedup
        // stream, not corrupt one.
        let producer = (std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0)
            ^ (u64::from(std::process::id()) << 32))
            | 1;
        let trace_hub = TraceHub::new();
        let trace_recorder = trace_hub.recorder();
        let event_hub = EventHub::new();
        let event_recorder = event_hub.recorder();
        Ok(Self {
            stream,
            decoder: FrameDecoder::new(),
            retry: RetryPolicy::default(),
            telemetry: ClientTelemetry::new(),
            encode_buf: Vec::new(),
            ack_mode: AckMode::Enqueue,
            reconnect: None,
            addrs,
            producer,
            next_seq: 1,
            rng: producer,
            trace_every: 0,
            trace_tick: 0,
            trace_hub,
            trace_recorder,
            event_hub,
            event_recorder,
        })
    }

    /// Replaces the retry policy.
    pub fn with_retry_policy(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Selects the ingest acknowledgement semantics (see [`AckMode`]).
    pub fn with_ack_mode(mut self, ack_mode: AckMode) -> Self {
        self.ack_mode = ack_mode;
        self
    }

    /// Enables transparent reconnect-and-resubmit (see
    /// [`ReconnectPolicy`] for the idempotency-tagging contract this
    /// switches on).
    pub fn with_reconnect(mut self, policy: ReconnectPolicy) -> Self {
        self.reconnect = Some(policy);
        self
    }

    /// Enables request tracing: every `every`-th ingest frame (1 = all,
    /// 0 = off) carries a fresh nonzero trace id for its first block,
    /// making it tail-sampling-eligible
    /// server-side; the client's own `client_encode`/`client_recv`
    /// stages land in a local hub readable via
    /// [`Self::local_traces`].
    pub fn with_tracing(mut self, every: u64) -> Self {
        self.trace_every = every;
        self
    }

    /// Whether `error` is a transport failure the reconnect machinery
    /// should absorb (remote/protocol errors are never retried).
    fn reconnectable(&self, error: &NetError) -> bool {
        self.reconnect.is_some() && matches!(error, NetError::Io(_) | NetError::Frame(_))
    }

    /// Advances the client's xorshift state one step.
    fn next_rng(&mut self) -> u64 {
        let mut x = self.rng;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng = x;
        x
    }

    /// A uniform sample in `[0, 1)` from the client's xorshift state.
    fn jitter(&mut self) -> f64 {
        (self.next_rng() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// The trace id for the next ingest frame: a fresh nonzero id
    /// every `trace_every`-th call, 0 (untraced) otherwise.
    fn next_trace_id(&mut self) -> u64 {
        if self.trace_every == 0 {
            return 0;
        }
        self.trace_tick += 1;
        if self.trace_tick < self.trace_every {
            return 0;
        }
        self.trace_tick = 0;
        // Forced nonzero: zero is the wire's "untraced" sentinel.
        self.next_rng() | 1
    }

    /// Re-establishes the connection with capped exponential backoff
    /// and jitter, resetting the frame decoder (any half-received
    /// response from the old socket is garbage).
    ///
    /// # Errors
    /// The last dial error once the policy's attempts are exhausted.
    fn reconnect_now(&mut self) -> Result<(), NetError> {
        let policy = self.reconnect.unwrap_or_default();
        let mut last: Option<std::io::Error> = None;
        for attempt in 0..policy.max_attempts {
            let exp = policy
                .base_backoff
                .saturating_mul(1u32 << attempt.min(20) as u32)
                .min(policy.max_backoff);
            // Jitter in [0.5, 1.0]× so a fleet of clients that died
            // together does not redial in lockstep.
            let sleep = exp.mul_f64(0.5 + 0.5 * self.jitter());
            std::thread::sleep(sleep);
            match TcpStream::connect(&self.addrs[..]) {
                Ok(stream) => {
                    let _ = stream.set_nodelay(true);
                    self.stream = stream;
                    self.decoder = FrameDecoder::new();
                    self.telemetry.reconnects.inc();
                    self.event_recorder
                        .emit(EventCode::Reconnect, attempt as u64, 0);
                    return Ok(());
                }
                Err(e) => last = Some(e),
            }
        }
        Err(NetError::Io(last.unwrap_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::TimedOut, "reconnect attempts exhausted")
        })))
    }

    fn send(&mut self, request: &Request) -> Result<(), NetError> {
        let frame = request.encode()?;
        self.stream.write_all(&frame)?;
        Ok(())
    }

    fn recv(&mut self) -> Result<Response, NetError> {
        let mut scratch = [0u8; 16 * 1024];
        loop {
            // Zero-copy extraction: the body is decoded straight out of
            // the decoder's buffer.
            if let Some(body) = self.decoder.next_frame_borrowed()? {
                return Ok(Response::decode(body)?);
            }
            let n = self.stream.read(&mut scratch)?;
            if n == 0 {
                return Err(NetError::Io(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                )));
            }
            self.decoder.feed(&scratch[..n]);
        }
    }

    /// One request/response round trip, mapping protocol-level error
    /// responses to [`NetError::Remote`]. With reconnect enabled, a
    /// transport failure triggers one redial-and-retry — safe because
    /// every request routed through here (queries, drain, shutdown) is
    /// idempotent.
    fn call(&mut self, request: &Request) -> Result<Response, NetError> {
        match self.call_once(request) {
            Err(e) if self.reconnectable(&e) => {
                self.reconnect_now()?;
                self.call_once(request)
            }
            other => other,
        }
    }

    fn call_once(&mut self, request: &Request) -> Result<Response, NetError> {
        self.send(request)?;
        match self.recv()? {
            Response::Error { code, message } => Err(NetError::Remote { code, message }),
            response => Ok(response),
        }
    }

    /// Submits one block without retrying: a load-shed submission
    /// surfaces as [`IngestOutcome::Busy`]. A one-block run of the
    /// [`Self::ingest_blocks`] pipeline.
    ///
    /// # Errors
    /// Transport or server errors ([`NetError`]); `Busy` is **not** an
    /// error on this path.
    pub fn try_ingest_block(
        &mut self,
        attribute: &str,
        block: &OpBlock,
    ) -> Result<IngestOutcome, NetError> {
        let outcomes = self.ingest_blocks(attribute, std::slice::from_ref(block))?;
        Ok(outcomes[0])
    }

    /// Maps the next response to an ingest outcome.
    fn recv_ingest_outcome(&mut self) -> Result<IngestOutcome, NetError> {
        match self.recv()? {
            Response::Error { code, message } => Err(NetError::Remote { code, message }),
            Response::Ingested => Ok(IngestOutcome::Ingested),
            Response::Busy {
                shard,
                retry_hint_micros,
            } => {
                self.telemetry.busy_responses.inc();
                Ok(IngestOutcome::Busy {
                    shard: shard as usize,
                    retry_hint: Duration::from_micros(retry_hint_micros as u64),
                })
            }
            _ => Err(NetError::UnexpectedResponse {
                expected: "Ingested or Busy",
            }),
        }
    }

    /// Capacity of the reused ingest encode buffer — a test probe: it
    /// must stabilize after warm-up (the zero-alloc pipelining pin),
    /// growing only when a larger block than any before arrives.
    pub fn ingest_encode_capacity(&self) -> usize {
        self.encode_buf.capacity()
    }

    /// Submits one block, sleeping out the server's `Busy` hints and
    /// resubmitting until it lands (bounded by the retry policy).
    ///
    /// # Errors
    /// [`NetError::Saturated`] after exhausting the attempt budget;
    /// transport or server errors as usual.
    pub fn ingest_block(&mut self, attribute: &str, block: &OpBlock) -> Result<(), NetError> {
        let policy = self.retry;
        for attempt in 1..=policy.max_attempts {
            match self.try_ingest_block(attribute, block)? {
                IngestOutcome::Ingested => return Ok(()),
                IngestOutcome::Busy { retry_hint, .. } => {
                    if attempt < policy.max_attempts {
                        self.telemetry.retries.inc();
                        std::thread::sleep(retry_hint.min(policy.max_backoff));
                    }
                }
            }
        }
        Err(NetError::Saturated {
            attempts: policy.max_attempts,
        })
    }

    /// Pipelined ingest **without retry** — the path every ingest
    /// takes. Blocks are coalesced into `Ingest` frames of up to
    /// [`Self::INGEST_BATCH`] (one frame header + checksum per batch
    /// instead of per block), streamed down the socket a bounded window
    /// of `PIPELINE_WINDOW` *blocks* ahead of the responses, and each
    /// block's outcome is returned in order — the server answers per
    /// block, so batching never changes the backpressure contract. One
    /// encode buffer is reused across the whole pipeline (zero
    /// steady-state allocations). The caller decides what to do with
    /// the `Busy` ones — resubmit, shed load, or back off.
    ///
    /// Every frame carries the client's ingest options: the durable-ack
    /// flag under [`AckMode::Fsync`], a `(producer, seq)` tag per block
    /// once a [`ReconnectPolicy`] is armed, and a trace id on every
    /// `trace_every`-th frame. With reconnect armed, a transport
    /// failure redials and resubmits the *unacknowledged suffix* — and
    /// nothing else — with its original sequence numbers: blocks whose
    /// ack was lost are deduped server-side, blocks never received are
    /// applied normally, and in either case exactly one outcome per
    /// block comes back.
    ///
    /// # Errors
    /// Transport or server errors; outcomes are only returned when the
    /// whole batch exchanged cleanly.
    pub fn ingest_blocks(
        &mut self,
        attribute: &str,
        blocks: &[OpBlock],
    ) -> Result<Vec<IngestOutcome>, NetError> {
        let budget = self.reconnect.map_or(0, |p| p.max_attempts);
        let mut outcomes: Vec<IngestOutcome> = Vec::with_capacity(blocks.len());
        // The in-flight window as `(seq, index into blocks, trace)`,
        // oldest first; survives reconnects so the suffix can be
        // replayed with its original seqs (and trace ids).
        let mut inflight: VecDeque<(u64, usize, u64)> = VecDeque::new();
        let mut next = 0usize;
        let mut resubmits = 0usize;
        loop {
            match self.pump_ingest(attribute, blocks, &mut inflight, &mut next, &mut outcomes) {
                Ok(()) => return Ok(outcomes),
                Err(e) if self.reconnectable(&e) && resubmits < budget => {
                    resubmits += 1;
                    self.reconnect_now()?;
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// One attempt at driving the pipeline to completion: first re-send
    /// whatever the window still holds (non-empty only right after a
    /// reconnect), then interleave submissions and outcome reads under
    /// the window bound.
    fn pump_ingest(
        &mut self,
        attribute: &str,
        blocks: &[OpBlock],
        inflight: &mut VecDeque<(u64, usize, u64)>,
        next: &mut usize,
        outcomes: &mut Vec<IngestOutcome>,
    ) -> Result<(), NetError> {
        let durable = self.ack_mode == AckMode::Fsync;
        let producer = if self.reconnect.is_some() {
            self.producer
        } else {
            0
        };
        // Resubmit the unacked suffix, one frame per block (reconnects
        // are rare; re-batching is not worth the bookkeeping). Original
        // seqs make already-applied duplicates a server-side skip.
        for &(seq, index, trace) in inflight.iter() {
            encode_ingest_frame_into(
                attribute,
                std::slice::from_ref(&blocks[index]),
                durable,
                producer,
                seq,
                trace,
                &mut self.encode_buf,
            )?;
            self.stream.write_all(&self.encode_buf)?;
        }
        while outcomes.len() < blocks.len() {
            while *next < blocks.len() && inflight.len() < PIPELINE_WINDOW {
                let room = PIPELINE_WINDOW - inflight.len();
                let end = (*next + Self::INGEST_BATCH.min(room)).min(blocks.len());
                let first_seq = self.next_seq;
                // The wire traces a frame's first block only.
                let trace = self.next_trace_id();
                let t0 = if trace != 0 { trace_clock_ns() } else { 0 };
                encode_ingest_frame_into(
                    attribute,
                    &blocks[*next..end],
                    durable,
                    producer,
                    first_seq,
                    trace,
                    &mut self.encode_buf,
                )?;
                if trace != 0 {
                    self.trace_recorder
                        .record_since(trace, TraceStage::ClientEncode, t0);
                }
                for (j, index) in (*next..end).enumerate() {
                    let block_trace = if j == 0 { trace } else { 0 };
                    inflight.push_back((first_seq + j as u64, index, block_trace));
                }
                self.next_seq += (end - *next) as u64;
                *next = end;
                self.telemetry.pipeline_peak.raise_to(inflight.len() as i64);
                self.stream.write_all(&self.encode_buf)?;
            }
            let trace = inflight.front().map_or(0, |&(_, _, trace)| trace);
            let t0 = if trace != 0 { trace_clock_ns() } else { 0 };
            let outcome = self.recv_ingest_outcome()?;
            inflight.pop_front();
            if trace != 0 {
                self.trace_recorder
                    .record_since(trace, TraceStage::ClientRecv, t0);
            }
            outcomes.push(outcome);
        }
        Ok(())
    }

    /// Windowed pipelining over pre-encoded frames: keeps up to
    /// [`PIPELINE_WINDOW`] requests in flight, reading responses in
    /// lockstep so neither side's buffers grow without bound.
    fn pipeline_frames(&mut self, frames: &[Vec<u8>]) -> Result<Vec<Response>, NetError> {
        let mut responses = Vec::with_capacity(frames.len());
        for (i, frame) in frames.iter().enumerate() {
            self.stream.write_all(frame)?;
            // After writing frame i there are i+1 - |responses| in
            // flight; read one back whenever the window is full so the
            // bound is exactly PIPELINE_WINDOW.
            let in_flight = (i + 1 - responses.len()) as i64;
            self.telemetry.pipeline_peak.raise_to(in_flight);
            if i + 1 >= PIPELINE_WINDOW {
                responses.push(self.recv()?);
            }
        }
        while responses.len() < frames.len() {
            responses.push(self.recv()?);
        }
        Ok(responses)
    }

    /// [`Self::pipeline_frames`] over owned requests (the query batch
    /// helpers' path, where requests are small).
    fn pipeline(&mut self, requests: &[Request]) -> Result<Vec<Response>, NetError> {
        let frames = requests
            .iter()
            .map(Request::encode)
            .collect::<Result<Vec<_>, _>>()?;
        self.pipeline_frames(&frames)
    }

    /// Self-join size estimate of one attribute.
    ///
    /// # Errors
    /// [`NetError::Remote`] with
    /// [`ErrorCode::UnknownAttribute`](crate::ErrorCode::UnknownAttribute)
    /// for unregistered names; transport errors as usual.
    pub fn self_join(&mut self, attribute: &str) -> Result<f64, NetError> {
        match self.call(&Request::QuerySelfJoin {
            attribute: attribute.to_string(),
        })? {
            Response::SelfJoin { estimate } => Ok(estimate),
            _ => Err(NetError::UnexpectedResponse {
                expected: "SelfJoin",
            }),
        }
    }

    /// Two-way join size estimate between two attributes.
    ///
    /// # Errors
    /// As for [`Self::self_join`].
    pub fn join(&mut self, left: &str, right: &str) -> Result<f64, NetError> {
        match self.call(&Request::QueryTwoWayJoin {
            left: left.to_string(),
            right: right.to_string(),
        })? {
            Response::TwoWayJoin { estimate } => Ok(estimate),
            _ => Err(NetError::UnexpectedResponse {
                expected: "TwoWayJoin",
            }),
        }
    }

    /// Batched self-join queries, pipelined; one estimate per
    /// attribute, in order.
    ///
    /// # Errors
    /// The first failing query fails the call.
    pub fn self_joins(&mut self, attributes: &[&str]) -> Result<Vec<f64>, NetError> {
        let requests: Vec<Request> = attributes
            .iter()
            .map(|a| Request::QuerySelfJoin {
                attribute: a.to_string(),
            })
            .collect();
        self.pipeline(&requests)?
            .into_iter()
            .map(|response| match response {
                Response::SelfJoin { estimate } => Ok(estimate),
                Response::Error { code, message } => Err(NetError::Remote { code, message }),
                _ => Err(NetError::UnexpectedResponse {
                    expected: "SelfJoin",
                }),
            })
            .collect()
    }

    /// Batched two-way join queries, pipelined; one estimate per pair,
    /// in order.
    ///
    /// # Errors
    /// The first failing query fails the call.
    pub fn joins(&mut self, pairs: &[(&str, &str)]) -> Result<Vec<f64>, NetError> {
        let requests: Vec<Request> = pairs
            .iter()
            .map(|(l, r)| Request::QueryTwoWayJoin {
                left: l.to_string(),
                right: r.to_string(),
            })
            .collect();
        self.pipeline(&requests)?
            .into_iter()
            .map(|response| match response {
                Response::TwoWayJoin { estimate } => Ok(estimate),
                Response::Error { code, message } => Err(NetError::Remote { code, message }),
                _ => Err(NetError::UnexpectedResponse {
                    expected: "TwoWayJoin",
                }),
            })
            .collect()
    }

    /// The full merged service snapshot, shipped over the wire.
    ///
    /// # Errors
    /// Transport or server errors.
    pub fn snapshot(&mut self) -> Result<ServiceSnapshot, NetError> {
        match self.call(&Request::Snapshot)? {
            Response::Snapshot { snapshot } => Ok(snapshot),
            _ => Err(NetError::UnexpectedResponse {
                expected: "Snapshot",
            }),
        }
    }

    /// The per-shard service statistics.
    ///
    /// # Errors
    /// Transport or server errors.
    pub fn stats(&mut self) -> Result<ServiceStats, NetError> {
        match self.call(&Request::Stats)? {
            Response::Stats { stats } => Ok(stats),
            _ => Err(NetError::UnexpectedResponse { expected: "Stats" }),
        }
    }

    /// Scrapes the server's metrics registry over the wire: every
    /// `service_*` series (per-shard counters, latency histograms,
    /// sketch memory gauges) plus the reactor's `net_*` series, as a
    /// typed [`MetricsSnapshot`]. Render it with
    /// [`MetricsSnapshot::render_text`] for a Prometheus-style dump.
    ///
    /// # Errors
    /// Transport or server errors.
    pub fn metrics(&mut self) -> Result<MetricsSnapshot, NetError> {
        match self.call(&Request::Metrics)? {
            Response::Metrics { snapshot } => Ok(snapshot),
            _ => Err(NetError::UnexpectedResponse {
                expected: "Metrics",
            }),
        }
    }

    /// Scrapes the server's tail-sampled request traces over the wire:
    /// the slowest-N traced requests of the current sampling window,
    /// each assembled from every server-side stage span still resident
    /// (decode, route, queue, kernel, and — durability on — wal_append,
    /// fsync, durable_wait, plus the ack). Slowest first.
    ///
    /// # Errors
    /// Transport or server errors.
    pub fn traces(&mut self) -> Result<Vec<AssembledTrace>, NetError> {
        match self.call(&Request::Traces)? {
            Response::Traces { traces } => Ok(traces),
            _ => Err(NetError::UnexpectedResponse { expected: "Traces" }),
        }
    }

    /// Scrapes the server's structured event rings over the wire:
    /// shard lifecycle (start/stop, recovery, publishes, checkpoints),
    /// WAL rotation and failures, dedup skips, sheds, read gates, and
    /// reactor start/stop — merged oldest first.
    ///
    /// # Errors
    /// Transport or server errors.
    pub fn events(&mut self) -> Result<Vec<ServiceEvent>, NetError> {
        match self.call(&Request::Events)? {
            Response::Events { events } => Ok(events),
            _ => Err(NetError::UnexpectedResponse { expected: "Events" }),
        }
    }

    /// Scrapes the server's health report over the wire: windowed
    /// derived signals graded against thresholds, per-attribute
    /// estimator accuracy (estimate, confidence interval, audited
    /// error, skew), and the folded Healthy/Degraded/Unhealthy
    /// verdict.
    ///
    /// # Errors
    /// Transport or server errors.
    pub fn health(&mut self) -> Result<HealthReport, NetError> {
        match self.call(&Request::Health)? {
            Response::Health { health } => Ok(health),
            _ => Err(NetError::UnexpectedResponse { expected: "Health" }),
        }
    }

    /// Assembles the client's *own* span rings (`client_encode`,
    /// `client_recv` stages of traced submissions) — no network round
    /// trip involved.
    pub fn local_traces(&self) -> Vec<AssembledTrace> {
        self.trace_hub.assemble_all()
    }

    /// The client's *own* structured events (reconnects) — no network
    /// round trip involved.
    pub fn local_events(&self) -> Vec<ServiceEvent> {
        self.event_hub.collect_wire()
    }

    /// Snapshot of the client's *own* instruments (`client_retries`,
    /// `client_busy_responses`, `client_pipeline_peak`) — no network
    /// round trip involved.
    pub fn local_metrics(&self) -> MetricsSnapshot {
        self.telemetry.registry.snapshot()
    }

    /// Waits (server-side) until every block this server accepted
    /// before the request is reflected in snapshots; returns the epoch
    /// of the cut (see [`ams_service::AmsService::drain`]).
    ///
    /// # Errors
    /// Transport or server errors.
    pub fn drain(&mut self) -> Result<u64, NetError> {
        match self.call(&Request::Drain)? {
            Response::Drained { epoch } => Ok(epoch),
            _ => Err(NetError::UnexpectedResponse {
                expected: "Drained",
            }),
        }
    }

    /// Gracefully shuts the server down, consuming the client, and
    /// returns the service's final snapshot and lifetime statistics.
    ///
    /// # Errors
    /// Transport or server errors.
    pub fn shutdown(mut self) -> Result<(ServiceSnapshot, ServiceStats), NetError> {
        match self.call(&Request::Shutdown)? {
            Response::Goodbye { snapshot, stats } => Ok((snapshot, stats)),
            _ => Err(NetError::UnexpectedResponse {
                expected: "Goodbye",
            }),
        }
    }
}
