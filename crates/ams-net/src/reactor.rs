//! The reactor: the server's one thread.
//!
//! [`run`] owns the listener, the service and every connection, and
//! loops over passes: (1) accept new peers, (2) service each
//! connection's parked retry ring, (3) read + dispatch new frames,
//! (4) flush writes (vectored, one syscall per connection per pass). A
//! pass that made progress is followed at once by another, and so is a
//! pass that found nothing, after yielding the CPU, until `LINGER`
//! (50 µs) has passed since the last progress. Then the reactor blocks
//! in one `poll(2)` over the listener, its sockets and its wake-up
//! pipe ([`Wakeup`](crate::wake::Wakeup)) until a peer connects, a
//! socket is ready, a stop is requested, or — while it holds parked
//! work — the service's wake hook reports room on a queue, a publish,
//! or a durable watermark advance. So a request is served when it
//! arrives and an idle server costs nothing. The crucial invariant is
//! that **nothing in a pass blocks**: service submission uses `submit`,
//! which never blocks, drains use the recorded-cut + poll pair, and
//! socket I/O is non-blocking throughout, so one slow or saturated
//! shard (or one stalled client) never parks the thread.
//!
//! An `accept` that finds no peer still costs a system call, so the
//! reactor does not try one on every pass: it accepts until
//! `WouldBlock` whenever its wait reports the listener readable, and at
//! most once per millisecond while passes keep running without a wait,
//! so a busy reactor still admits new peers. The only timeouts are the
//! farewell flush's deadline and a short back-off after a failed
//! `accept` (e.g. out of descriptors).
//!
//! Shutdown — a wire `Shutdown` or the stop flag — is one sequence on
//! the same thread: drop the listener and stop reading; land the parked
//! ingests; close the service, whose workers drain their queues and
//! stop; answer the durable acks and drains still parked from that
//! final state, with `Error { code: Closed }` for a cut no shard
//! reached (a wedged WAL writer's); then send the `Goodbye` the
//! shutdown's requester is owed and flush, within a deadline.

use std::io::ErrorKind;
use std::net::TcpListener;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ams_service::{AmsService, IngestTag, ServiceError, ServiceSnapshot, ServiceStats};
use ams_telemetry::{
    trace_clock_ns, Counter, EventCode, EventRecorder, Gauge, LatencyHistogram, MetricsRegistry,
    TraceCtx, TraceHub, TraceRecorder, TraceStage,
};

use crate::codec::{ErrorCode, Request, Response};
use crate::conn::{Connection, FramePool, Slot, MAX_INFLIGHT};
use crate::poll::{self, PollFd, POLLIN};
use crate::server::Stop;

/// Longest the farewell flush keeps writing after the service stopped.
const SHUTDOWN_FLUSH_DEADLINE: Duration = Duration::from_secs(2);

/// How long the reactor keeps re-running passes after the last one that
/// made progress before it blocks in `poll(2)`, yielding the CPU
/// between passes. A closed-loop peer's next request usually arrives
/// within it, so the reactor is still running when it lands and no
/// wake-up is paid for it. On a 2-vCPU host with the peer on the other
/// vCPU, that wake-up made up about a third of a query's round trip.
const LINGER: Duration = Duration::from_micros(50);

/// How often a reactor whose passes run without a wait tries `accept`
/// anyway.
const ACCEPT_INTERVAL: Duration = Duration::from_millis(1);

/// How long the reactor leaves the listener alone after `accept` failed
/// with something other than `WouldBlock` (e.g. out of descriptors):
/// the listener stays readable then, so waiting on it would spin.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(5);

/// The reactor's instrument handles, registered into the *service's*
/// registry so one scrape's metrics section (or one
/// [`AmsService::metrics_snapshot`] call) covers both layers.
///
/// | metric | kind | meaning |
/// |---|---|---|
/// | `net_tick_ns` | histogram | duration of each loop pass that made progress |
/// | `net_frames_decoded` | counter | request frames decoded |
/// | `net_frames_encoded` | counter | response frames staged for write |
/// | `net_bytes_in` | counter | bytes read off sockets |
/// | `net_bytes_out` | counter | bytes flushed to sockets |
/// | `net_read_gated` | counter | connection-passes reads were paused by admission bounds |
/// | `net_retry_ring_occupancy` | gauge | parked ingests across the connections |
struct NetInstruments {
    tick_ns: Arc<LatencyHistogram>,
    frames_decoded: Arc<Counter>,
    frames_encoded: Arc<Counter>,
    bytes_in: Arc<Counter>,
    bytes_out: Arc<Counter>,
    read_gated: Arc<Counter>,
    retry_ring: Arc<Gauge>,
    /// The reactor's structured-event recorder on the service's event
    /// hub: read gates land next to the shard lifecycle events in one
    /// scrape's events section. Per-thread rings mean a read-gate storm
    /// here can never evict a shard worker's events.
    events: EventRecorder,
}

impl NetInstruments {
    fn new(registry: &MetricsRegistry, events: EventRecorder) -> Self {
        Self {
            tick_ns: registry.histogram("net_tick_ns", &[]),
            frames_decoded: registry.counter("net_frames_decoded", &[]),
            frames_encoded: registry.counter("net_frames_encoded", &[]),
            bytes_in: registry.counter("net_bytes_in", &[]),
            bytes_out: registry.counter("net_bytes_out", &[]),
            read_gated: registry.counter("net_read_gated", &[]),
            retry_ring: registry.gauge("net_retry_ring_occupancy", &[]),
            events,
        }
    }

    /// Accounts one `pump_writes` outcome and returns whether it moved
    /// anything.
    fn note_pump(&self, (frames, bytes): (usize, usize)) -> bool {
        self.frames_encoded.add(frames as u64);
        self.bytes_out.add(bytes as u64);
        frames > 0 || bytes > 0
    }
}

/// The reactor's tracing handles: the service's [`TraceHub`] (shared
/// tail sampler + enable flag) and this thread's own span recorder.
/// Every helper is guarded so untraced requests — and every request
/// while the hub is disabled — never read the trace clock.
struct ReactorTracing {
    hub: Arc<TraceHub>,
    recorder: TraceRecorder,
}

impl ReactorTracing {
    /// The trace clock while the hub is enabled, else 0 — one clock
    /// read when armed, none at all when the hub is disabled.
    fn now(&self) -> u64 {
        if self.recorder.armed() {
            trace_clock_ns()
        } else {
            0
        }
    }

    /// A span-start timestamp for trace `id`, or 0 when the span
    /// should not be recorded (untraced, or hub disabled).
    fn start(&self, id: u64) -> u64 {
        if id != 0 {
            self.now()
        } else {
            0
        }
    }

    /// Records `stage` from a [`Self::start`] timestamp (0 = skip).
    fn span_since(&self, id: u64, stage: TraceStage, t0: u64) {
        if t0 != 0 {
            self.recorder.record_since(id, stage, t0);
        }
    }

    /// Records the `route` span as ending at the service's handoff
    /// instant (queue entry of the traced placement) rather than at
    /// call return: the shard worker may have dequeued — and preempted
    /// this thread — before the submit call came back, and that time
    /// belongs to the shard-side spans, not to routing.
    fn route_span(&self, id: u64, t0: u64, handoff: u64) {
        if t0 != 0 {
            self.recorder
                .record(id, TraceStage::Route, t0, handoff.saturating_sub(t0));
        }
    }

    /// Encodes the final response of a traced request: stamps the
    /// `ack` span around the encode and offers the request's
    /// end-to-end server latency to the tail sampler.
    fn finish(&self, ctx: TraceCtx, pool: &mut FramePool, response: &Response) -> Vec<u8> {
        let t0 = self.start(ctx.id);
        let frame = encoded(pool, response);
        if t0 != 0 {
            self.recorder.record_since(ctx.id, TraceStage::Ack, t0);
            self.hub
                .sampler()
                .offer(ctx.id, trace_clock_ns().saturating_sub(ctx.begin_ns));
        }
        frame
    }
}

/// Encodes a response into a pooled buffer, demoting encode failures
/// (e.g. a snapshot too large for one frame) to a small protocol-level
/// error frame.
fn encoded(pool: &mut FramePool, response: &Response) -> Vec<u8> {
    let mut frame = pool.take();
    if let Err(e) = response.encode_into(&mut frame) {
        Response::Error {
            code: ErrorCode::Internal,
            message: format!("response exceeded frame limits: {e}"),
        }
        .encode_into(&mut frame)
        .expect("error frames are tiny");
    }
    frame
}

/// Turns a service-side ingest failure into the matching wire answer.
/// A full queue never gets here: its refusal parks the block.
fn ingest_failure(error: ServiceError) -> Response {
    match error {
        ServiceError::UnknownAttribute { name } => Response::Error {
            code: ErrorCode::UnknownAttribute,
            message: format!("unknown attribute: {name}"),
        },
        ServiceError::Closed => Response::Error {
            code: ErrorCode::Closed,
            message: "service is shutting down".into(),
        },
        other => Response::Error {
            code: ErrorCode::Internal,
            message: other.to_string(),
        },
    }
}

/// Services one connection's parked slots: retries parked ingests in
/// submission order (stopping the ingest sweep at the first shard that
/// still refuses, to preserve per-connection ordering) and polls
/// parked durable acks and drains. A parked drain only records its cut
/// once no parked ingest precedes it, so the `Drained` answer really
/// covers every ingest acknowledged before it. `woke_ns` is the trace
/// clock at the reactor's last wake-up (0 when untraced). Returns
/// whether any slot resolved.
fn service_parked(
    conn: &mut Connection,
    service: &AmsService,
    tracing: &ReactorTracing,
    pool: &mut FramePool,
    woke_ns: u64,
) -> bool {
    let mut progress = false;
    let mut ingest_blocked = false;
    let mut ingest_parked_before = false;
    for slot in conn.slots.iter_mut() {
        match slot {
            Slot::Ready(_) => {}
            Slot::PendingIngest {
                attribute,
                block,
                durable,
                tag,
                trace,
            } => {
                if ingest_blocked {
                    ingest_parked_before = true;
                    continue;
                }
                // The service hands the block back on refusal, so a
                // parked entry is submitted without cloning.
                let attempt = std::mem::take(block);
                match service.submit(attribute, attempt, *tag, trace.id) {
                    Ok(_) => {
                        *slot = accepted(service, *durable, *trace, tracing, pool);
                        progress = true;
                    }
                    Err((returned, ServiceError::WouldBlock { .. })) => {
                        *block = returned;
                        ingest_blocked = true;
                        ingest_parked_before = true;
                    }
                    Err((_, other)) => {
                        *slot = Slot::Ready(encoded(pool, &ingest_failure(other)));
                        progress = true;
                    }
                }
            }
            Slot::PendingDurable {
                cut,
                trace,
                wait_from,
            } => {
                // Already accepted by the service (so it neither blocks
                // later parked ingests nor defers drain cuts); waiting
                // only for the shard workers' fsync watermarks.
                if service.poll_durable(cut) {
                    // The span measures detection latency, not the
                    // shard work it would overlap: it starts at the
                    // last unsuccessful check or, if later, at the
                    // wake-up that ended the reactor's wait.
                    let from = if *wait_from == 0 {
                        0
                    } else {
                        (*wait_from).max(woke_ns)
                    };
                    tracing.span_since(trace.id, TraceStage::DurableWait, from);
                    *slot = Slot::Ready(tracing.finish(*trace, pool, &Response::Ingested));
                    progress = true;
                } else {
                    *wait_from = tracing.start(trace.id);
                }
            }
            Slot::PendingDrain { cut } => {
                if cut.is_none() && !ingest_parked_before {
                    *cut = Some(service.drain_cut());
                }
                if let Some(recorded) = cut {
                    if let Some(epoch) = service.poll_drained(recorded) {
                        *slot = Slot::Ready(encoded(pool, &Response::Drained { epoch }));
                        progress = true;
                    }
                }
            }
        }
    }
    progress
}

/// The slot of an ingest the service just accepted: `Ingested` at
/// once, or — when the peer wants its ack only once the block is on
/// stable storage — a wait on the durability cut recorded right after
/// acceptance, which covers this submission.
fn accepted(
    service: &AmsService,
    durable: bool,
    trace: TraceCtx,
    tracing: &ReactorTracing,
    pool: &mut FramePool,
) -> Slot {
    if durable {
        Slot::PendingDurable {
            cut: service.durability_cut(),
            trace,
            wait_from: tracing.start(trace.id),
        }
    } else {
        Slot::Ready(tracing.finish(trace, pool, &Response::Ingested))
    }
}

/// Handles one decoded request, appending the resulting slot(s) to the
/// connection. Returns `true` when the request asked for server
/// shutdown.
fn dispatch(
    conn: &mut Connection,
    request: Request,
    recv_ns: u64,
    service: &AmsService,
    tracing: &ReactorTracing,
    pool: &mut FramePool,
) -> bool {
    match request {
        Request::Ingest {
            attribute,
            blocks,
            durable,
            producer,
            first_seq,
            trace,
        } => {
            // One response slot per block, in order: the frame amortizes
            // header + checksum + dispatch, while retry-ring semantics
            // stay exactly per-block. A frame is admitted whole, so its
            // blocks can carry the connection past `MAX_INFLIGHT` by at
            // most `MAX_INGEST_BLOCKS - 1` slots. Block i carries the
            // implicit tag (producer, first_seq + i); a traced frame
            // attributes its trace to the first block, so one trace
            // never owns overlapping per-block spans.
            //
            // Blocks reach the service in connection order: once one
            // block is parked, every later one parks behind it without
            // a submit attempt, so no later block (with a higher
            // sequence number) can land first and make a shard's dedup
            // skip the parked one. Nothing is ever refused for load:
            // the connection is not read while a block is parked, so it
            // parks at most this one frame.
            let mut parked = conn.pending_ingests() > 0;
            for (i, block) in blocks.into_iter().enumerate() {
                let tag = (producer != 0).then_some(IngestTag {
                    producer,
                    seq: first_seq.wrapping_add(i as u64),
                });
                let trace = if i == 0 {
                    TraceCtx {
                        id: trace,
                        begin_ns: recv_ns,
                    }
                } else {
                    TraceCtx::none()
                };
                let park = |block| Slot::PendingIngest {
                    attribute: attribute.clone(),
                    block,
                    durable,
                    tag,
                    trace,
                };
                let slot = if parked {
                    park(block)
                } else {
                    let route_t0 = tracing.start(trace.id);
                    match service.submit(&attribute, block, tag, trace.id) {
                        Ok(handoff) => {
                            tracing.route_span(trace.id, route_t0, handoff);
                            accepted(service, durable, trace, tracing, pool)
                        }
                        Err((block, error)) => {
                            // A refused submission did spend its time
                            // routing; the retry re-routes under its own
                            // span.
                            tracing.span_since(trace.id, TraceStage::Route, route_t0);
                            if let ServiceError::WouldBlock { .. } = error {
                                parked = true;
                                park(block)
                            } else {
                                Slot::Ready(encoded(pool, &ingest_failure(error)))
                            }
                        }
                    }
                };
                conn.slots.push_back(slot);
            }
        }
        Request::QuerySelfJoin { attribute } => {
            // Point queries merge only the queried attribute's shard
            // counters — not a full every-attribute snapshot.
            let response = match service.self_join(&attribute) {
                Ok(estimate) => Response::SelfJoin { estimate },
                Err(e) => Response::Error {
                    code: ErrorCode::UnknownAttribute,
                    message: e.to_string(),
                },
            };
            conn.slots.push_back(Slot::Ready(encoded(pool, &response)));
        }
        Request::QueryTwoWayJoin { left, right } => {
            let response = match service.join(&left, &right) {
                Ok(estimate) => Response::TwoWayJoin { estimate },
                Err(e) => Response::Error {
                    code: ErrorCode::UnknownAttribute,
                    message: e.to_string(),
                },
            };
            conn.slots.push_back(Slot::Ready(encoded(pool, &response)));
        }
        Request::Snapshot => {
            let snapshot = service.snapshot();
            conn.slots
                .push_back(Slot::Ready(encoded(pool, &Response::Snapshot { snapshot })));
        }
        Request::Scrape { sections } => {
            // One document from one registry read: the reactor
            // registers its instruments into the service's registry,
            // so the metrics section carries `service_*` and `net_*`
            // series alike. The health window is this connection's
            // own.
            let scrape = service.scrape(sections, &mut conn.health);
            conn.slots
                .push_back(Slot::Ready(encoded(pool, &Response::Scrape { scrape })));
        }
        Request::Drain => {
            // The cut must cover every ingest this connection was (or
            // will be) acknowledged for before the Drained answer —
            // including ones still parked on the retry ring, which the
            // service hasn't accepted yet. With parked ingests ahead,
            // defer recording the cut until they land (`service_parked`
            // records it once nothing pending precedes the drain).
            if conn.pending_ingests() > 0 {
                conn.slots.push_back(Slot::PendingDrain { cut: None });
            } else {
                let cut = service.drain_cut();
                // Often already satisfied (idle service): answer inline.
                match service.poll_drained(&cut) {
                    Some(epoch) => conn
                        .slots
                        .push_back(Slot::Ready(encoded(pool, &Response::Drained { epoch }))),
                    None => conn.slots.push_back(Slot::PendingDrain { cut: Some(cut) }),
                }
            }
        }
        Request::Shutdown => {
            conn.wants_goodbye = true;
            return true;
        }
    }
    false
}

/// The listening socket, and when the reactor next tries `accept`.
struct Listener {
    socket: TcpListener,
    /// When the next `accept` is due: at once after a wait that
    /// reported a peer, else `ACCEPT_INTERVAL` after the last try or
    /// the last wait that watched the listener.
    due: Instant,
    /// The last `accept` failed hard: the listener stays out of the
    /// wait until `due`.
    backing_off: bool,
}

impl Listener {
    /// Adopts every waiting peer into `conns`; returns whether any
    /// arrived.
    fn accept(&mut self, conns: &mut Vec<Connection>, now: Instant) -> bool {
        let mut adopted = false;
        self.backing_off = loop {
            match self.socket.accept() {
                // A socket that fails its setup is dropped unanswered.
                Ok((stream, _)) => {
                    if let Ok(conn) = Connection::new(stream) {
                        conns.push(conn);
                        adopted = true;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break false,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(_) => break true,
            }
        };
        self.due = now
            + if self.backing_off {
                ACCEPT_BACKOFF
            } else {
                ACCEPT_INTERVAL
            };
        adopted
    }

    /// The listener's entry in the reactor's wait, and how long the
    /// wait may last: readable without limit, or left out until the
    /// back-off ends.
    fn wait_entry(&self) -> (PollFd, Option<Duration>) {
        if self.backing_off {
            let left = self.due.saturating_duration_since(Instant::now());
            (PollFd::new(&self.socket, 0), Some(left))
        } else {
            (PollFd::new(&self.socket, POLLIN), None)
        }
    }

    /// The reactor's wait ended; `peer` says whether it reported the
    /// listener readable. A wait that watched the listener and saw no
    /// peer stands in for a try.
    fn watched(&mut self, peer: bool) {
        if peer {
            self.due = Instant::now();
        } else if !self.backing_off {
            self.due = Instant::now() + ACCEPT_INTERVAL;
        }
    }
}

/// Runs the server on the calling thread until a `Shutdown` frame
/// arrives or the stop flag is raised, then shuts down (see the module
/// docs) and returns the service's final snapshot and lifetime
/// statistics.
pub(crate) fn run(
    socket: TcpListener,
    mut service: AmsService,
    stop: &Stop,
) -> (ServiceSnapshot, ServiceStats) {
    let wakeup = &stop.wakeup;
    let net = NetInstruments::new(&service.registry(), service.event_hub().recorder());
    let tracing = ReactorTracing {
        hub: service.trace_hub(),
        recorder: service.trace_hub().recorder(),
    };
    // Parked work waits on service events: refused ingests on queue
    // room, durable acks on watermark advances, drains on publishes.
    service.add_waker(wakeup.service_waker());
    net.events.emit(EventCode::ReactorStart, 0, 0);
    let mut listener = Listener {
        socket,
        due: Instant::now(),
        backing_off: false,
    };
    let mut conns: Vec<Connection> = Vec::new();
    let mut scratch = vec![0u8; 16 * 1024];
    let mut pool = FramePool::new();
    let mut fds: Vec<PollFd> = Vec::new();
    // Trace clock at the last wake-up (0 while the hub is disabled).
    let mut woke_ns = 0u64;
    let mut last_progress = Instant::now();
    loop {
        let pass_start = Instant::now();
        if stop.requested.load(Ordering::Acquire) {
            break;
        }
        let mut progress = false;
        let mut shutdown = false;
        // 1. Admit new peers.
        if pass_start >= listener.due {
            progress |= listener.accept(&mut conns, pass_start);
        }
        for conn in conns.iter_mut() {
            // 2. Retry ring + parked durable acks and drains.
            progress |= service_parked(conn, &service, &tracing, &mut pool, woke_ns);
            // 3. Read and dispatch new requests, with per-connection
            //    admission bounds so one peer cannot balloon server
            //    memory: stop reading while ingests are parked, too many
            //    responses are in flight, responses sit unflushed, or
            //    undecoded bytes already cover a whole frame.
            if !shutdown && !conn.closing {
                // While ingests are parked the connection is neither read
                // nor decoded: its next frames wait in the socket until
                // the parked blocks land, so about one frame per
                // connection is ever parked. Otherwise the socket is
                // only read while every bound holds, and the decode loop
                // below always runs, so a gated decoder backlog still
                // drains.
                if conn.read_gate_open() {
                    let fed = conn.fill_read(&mut scratch);
                    net.bytes_in.add(fed as u64);
                    progress |= fed > 0;
                } else {
                    net.read_gated.inc();
                    net.events
                        .emit(EventCode::ReadGate, 0, conn.slots.len() as u64);
                }
                while conn.pending_ingests() == 0 && conn.slots.len() < MAX_INFLIGHT {
                    // One clock read per frame while tracing is armed;
                    // none at all when the hub is disabled — this is
                    // the whole per-frame cost of the tracing noop twin.
                    let recv_ns = tracing.now();
                    // Zero-copy decode: the frame body is borrowed from
                    // the decoder's buffer and turned into an owned
                    // Request in the same statement.
                    let decoded = match conn.decoder.next_frame_borrowed() {
                        Ok(Some(body)) => {
                            progress = true;
                            net.frames_decoded.inc();
                            Request::decode(body)
                        }
                        Ok(None) => break,
                        Err(e) => Err(e),
                    };
                    match decoded {
                        Ok(request) => {
                            let trace = request.trace_id();
                            if trace != 0 {
                                tracing.span_since(trace, TraceStage::Decode, recv_ns);
                            }
                            if dispatch(conn, request, recv_ns, &service, &tracing, &mut pool) {
                                // Shutdown: stop decoding this
                                // connection so no pipelined later
                                // request is answered ahead of the
                                // Goodbye (the in-order invariant),
                                // and read no other.
                                shutdown = true;
                                break;
                            }
                        }
                        Err(e) => {
                            // Framing violation: answer once, then close
                            // (the byte stream cannot be re-synchronized).
                            // Only this connection dies; every other one
                            // keeps serving.
                            let error = Response::Error {
                                code: ErrorCode::Protocol,
                                message: e.to_string(),
                            };
                            conn.slots
                                .push_back(Slot::Ready(encoded(&mut pool, &error)));
                            conn.closing = true;
                            break;
                        }
                    }
                }
            }
            // 4. Flush (one vectored write per connection per pass).
            progress |= net.note_pump(conn.pump_writes(&mut pool));
        }
        net.retry_ring
            .set(conns.iter().map(Connection::pending_ingests).sum::<usize>() as i64);
        conns.retain(|conn| !conn.dead());
        if shutdown {
            break;
        }
        if progress {
            // Only passes that did work are recorded, so the histogram
            // profiles the dispatch path rather than empty re-checks.
            net.tick_ns.record_duration(pass_start.elapsed());
            last_progress = pass_start;
            continue;
        }
        if pass_start.duration_since(last_progress) < LINGER {
            std::thread::yield_now();
            continue;
        }
        // Nothing moved: wait until something can. Arm first, then
        // re-check everything a wake announces — a stop, the parked
        // slots — so an event this pass missed is either seen here or
        // rings the pipe.
        wakeup.arm(conns.iter().any(|c| c.pending() > 0));
        let mut ready = stop.requested.load(Ordering::Acquire);
        for conn in conns.iter_mut() {
            ready |= service_parked(conn, &service, &tracing, &mut pool, woke_ns);
        }
        if ready {
            wakeup.disarm(false);
            continue;
        }
        let (listen, timeout) = listener.wait_entry();
        fds.clear();
        fds.push(PollFd::new(wakeup.fd(), POLLIN));
        fds.push(listen);
        fds.extend(
            conns
                .iter()
                .map(|conn| conn.poll_fd(!conn.closing && conn.read_gate_open())),
        );
        // A failed wait (`EINTR` is retried inside) acts as a spurious
        // wake-up: the next pass finds nothing to do and waits again.
        let _ = poll::wait(&mut fds, timeout);
        wakeup.disarm(fds[0].ready());
        listener.watched(fds[1].ready());
        woke_ns = tracing.now();
    }

    // Shutdown. 1. No new peers, and no more requests.
    drop(listener);
    net.events
        .emit(EventCode::ReactorStop, 0, conns.len() as u64);
    // 2. Land the parked ingests, each retried as its queue frees room.
    while conns.iter().any(|conn| conn.pending_ingests() > 0) {
        wakeup.arm(true);
        let mut landed = false;
        for conn in conns.iter_mut() {
            landed |= service_parked(conn, &service, &tracing, &mut pool, woke_ns);
        }
        let mut rang = false;
        if !landed {
            let mut fds = [PollFd::new(wakeup.fd(), POLLIN)];
            let _ = poll::wait(&mut fds, None);
            rang = fds[0].ready();
        }
        wakeup.disarm(rang);
    }
    // 3. Close the service: its workers drain their queues and stop.
    service.close();
    // 4. Answer every durable ack and drain still parked from the final
    //    state: the answer it waited for if its cut was reached, else
    //    `Closed` (a wedged WAL writer's watermark never moves).
    for conn in conns.iter_mut() {
        service_parked(conn, &service, &tracing, &mut pool, woke_ns);
        for slot in conn.slots.iter_mut().filter(|slot| slot.is_pending()) {
            *slot = Slot::Ready(encoded(&mut pool, &ingest_failure(ServiceError::Closed)));
        }
    }
    // 5. The Goodbye, then a farewell flush with a deadline: a peer that
    //    stopped reading cannot wedge the shutdown.
    let (snapshot, stats) = (service.snapshot(), service.stats());
    for conn in conns.iter_mut() {
        if conn.wants_goodbye {
            let goodbye = Response::Goodbye {
                snapshot: snapshot.clone(),
                stats: stats.clone(),
            };
            conn.slots
                .push_back(Slot::Ready(encoded(&mut pool, &goodbye)));
        }
        conn.closing = true;
    }
    let deadline = Instant::now() + SHUTDOWN_FLUSH_DEADLINE;
    loop {
        fds.clear();
        for conn in conns.iter_mut() {
            net.note_pump(conn.pump_writes(&mut pool));
            if !conn.dead() && !conn.flushed() {
                fds.push(conn.poll_fd(false));
            }
        }
        let left = deadline.saturating_duration_since(Instant::now());
        if fds.is_empty() || left.is_zero() {
            break;
        }
        let _ = poll::wait(&mut fds, Some(left));
    }
    (snapshot, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpStream;

    #[test]
    fn one_accept_call_adopts_every_waiting_peer() {
        let socket = TcpListener::bind("127.0.0.1:0").unwrap();
        socket.set_nonblocking(true).unwrap();
        let addr = socket.local_addr().unwrap();
        let now = Instant::now();
        let mut listener = Listener {
            socket,
            due: now,
            backing_off: false,
        };
        let mut conns = Vec::new();
        assert!(!listener.accept(&mut conns, now), "no peer waits yet");
        assert_eq!(listener.due, now + ACCEPT_INTERVAL);
        assert_eq!(listener.wait_entry().1, None, "the wait has no limit");
        // A loopback connect returns once the peer sits in the backlog.
        let _peers = [
            TcpStream::connect(addr).unwrap(),
            TcpStream::connect(addr).unwrap(),
        ];
        assert!(listener.accept(&mut conns, now));
        assert_eq!(conns.len(), 2, "accepts until `WouldBlock`");
        assert!(!listener.backing_off);
    }
}
