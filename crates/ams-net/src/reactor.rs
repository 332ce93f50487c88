//! The multi-reactor readiness front-end.
//!
//! One **acceptor** (the thread that called [`run`]) owns the
//! listener and hands each accepted socket to one of N **reactor**
//! threads — round-robin, with least-connections as the tiebreaker —
//! so frame decode + dispatch scales with cores instead of
//! serializing on one loop. Each reactor owns a disjoint slice of the
//! connections and loops over passes: (1) adopt handed-off sockets,
//! (2) service each connection's parked retry ring, (3) read +
//! dispatch new frames, (4) flush writes (vectored, one syscall per
//! connection per pass). A pass that made progress is followed at once
//! by another. Otherwise the reactor blocks in one `poll(2)` over its
//! sockets and its wake-up pipe ([`Wakeup`]) until a socket is ready,
//! the acceptor hands it a socket, shutdown begins, or — while it holds
//! parked work — the service's wake hook reports room on a queue, a
//! publish, or a durable watermark advance. So a request is served when
//! it arrives and an idle reactor costs nothing. The crucial invariant
//! is that **nothing in a pass blocks**: service submission uses
//! `submit` under `Wait::Try`, drains use the recorded-cut + poll
//! pair, and socket I/O is non-blocking throughout, so one slow or
//! saturated shard (or one stalled client) never parks a network
//! thread.
//!
//! The acceptor blocks the same way, over the listener and its own
//! wake-up. The only timeouts are the farewell flush's deadline and a
//! short back-off after a failed `accept` (e.g. out of descriptors).
//!
//! Shutdown is a two-phase rendezvous. Any reactor that sees a wire
//! `Shutdown` (or the acceptor, on the stop flag) raises the shared
//! `shutting_down` flag and wakes every loop; every reactor then lands
//! its parked work, drops its service handle, and checks in at the
//! quiesce barrier.
//! Once all N have checked in, the acceptor — the only remaining
//! holder — unwraps the service `Arc`, stops the service (closing
//! queues, joining workers), publishes the final snapshot + stats back
//! through the barrier, and the reactor that owes its peer a `Goodbye`
//! ships it during the farewell flush.

use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use ams_service::{AmsService, IngestTag, ServiceError, ServiceSnapshot, ServiceStats, Wait};
use ams_telemetry::{
    trace_clock_ns, Counter, EventCode, EventRecorder, Gauge, LatencyHistogram, MetricsRegistry,
    TraceCtx, TraceHub, TraceRecorder, TraceStage,
};

use crate::codec::{ErrorCode, Request, Response};
use crate::conn::{Connection, FramePool, Slot, MAX_INFLIGHT};
use crate::poll::{self, PollFd, POLLIN};
use crate::server::Stop;
use crate::wake::Wakeup;

/// Longest the finalizer keeps flushing farewell frames after the
/// service stopped.
const SHUTDOWN_FLUSH_DEADLINE: Duration = Duration::from_secs(2);

/// How long the acceptor waits before retrying after `accept` failed
/// with something other than `WouldBlock` (e.g. out of descriptors):
/// the listener stays readable then, so waiting on it would spin.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(5);

/// One reactor's instrument handles, registered into the *service's*
/// registry with a `reactor="i"` label so one scrape's metrics section
/// (or one [`AmsService::metrics_snapshot`] call) covers both layers,
/// per reactor.
///
/// | metric | kind | meaning |
/// |---|---|---|
/// | `net_tick_ns` | histogram | duration of each loop pass that made progress |
/// | `net_frames_decoded` | counter | request frames decoded |
/// | `net_frames_encoded` | counter | response frames staged for write |
/// | `net_bytes_in` | counter | bytes read off sockets |
/// | `net_bytes_out` | counter | bytes flushed to sockets |
/// | `net_read_gated` | counter | connection-passes reads were paused by admission bounds |
/// | `net_retry_ring_occupancy` | gauge | parked ingests across this reactor's connections |
struct NetInstruments {
    /// This reactor's index, the `key` of its structured events.
    reactor: u64,
    tick_ns: Arc<LatencyHistogram>,
    frames_decoded: Arc<Counter>,
    frames_encoded: Arc<Counter>,
    bytes_in: Arc<Counter>,
    bytes_out: Arc<Counter>,
    read_gated: Arc<Counter>,
    retry_ring: Arc<Gauge>,
    /// This thread's structured-event recorder on the service's event
    /// hub: read gates land next to the shard lifecycle events in one
    /// scrape's events section. Per-thread rings mean a read-gate storm
    /// here can never evict a shard worker's events.
    events: EventRecorder,
}

impl NetInstruments {
    fn new(registry: &MetricsRegistry, reactor: usize, events: EventRecorder) -> Self {
        let index = reactor.to_string();
        let labels: [(&str, &str); 1] = [("reactor", index.as_str())];
        Self {
            reactor: reactor as u64,
            tick_ns: registry.histogram("net_tick_ns", &labels),
            frames_decoded: registry.counter("net_frames_decoded", &labels),
            frames_encoded: registry.counter("net_frames_encoded", &labels),
            bytes_in: registry.counter("net_bytes_in", &labels),
            bytes_out: registry.counter("net_bytes_out", &labels),
            read_gated: registry.counter("net_read_gated", &labels),
            retry_ring: registry.gauge("net_retry_ring_occupancy", &labels),
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

/// One reactor's tracing handles: the service's [`TraceHub`] (shared
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
                match service.submit(attribute, attempt, *tag, trace.id, Wait::Try) {
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
                    match service.submit(&attribute, block, tag, trace.id, Wait::Try) {
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
            // One document from one registry read: each reactor
            // registers its labeled instruments into the service's
            // registry, so the metrics section carries `service_*` and
            // per-reactor `net_*` series alike. The health window is
            // this connection's own.
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

/// One reactor's accept-handoff inbox plus its load, read by the
/// acceptor for least-connections placement. `load` counts live
/// connections *and* not-yet-adopted handoffs (incremented by the
/// acceptor at handoff, decremented by the reactor when a connection
/// dies), so a burst of accepts spreads correctly even before any
/// reactor pass runs.
#[derive(Debug, Default)]
struct Mailbox {
    sockets: Mutex<Vec<TcpStream>>,
    load: AtomicUsize,
}

impl Mailbox {
    /// Takes every handed-off socket.
    fn take(&self) -> Vec<TcpStream> {
        let mut inbox = self.sockets.lock().expect("acceptor never panics");
        if inbox.is_empty() {
            Vec::new()
        } else {
            std::mem::take(&mut *inbox)
        }
    }

    /// Whether a handed-off socket waits for adoption.
    fn has_sockets(&self) -> bool {
        !self
            .sockets
            .lock()
            .expect("acceptor never panics")
            .is_empty()
    }
}

/// Shared shutdown state: the flag every loop checks, the wake-ups
/// that make them check it, and the quiesce barrier the final snapshot
/// travels back through.
struct Coordinator {
    shutting_down: AtomicBool,
    /// The acceptor's wake-up, then one per reactor.
    wakeups: Vec<Arc<Wakeup>>,
    state: Mutex<CoordState>,
    cv: Condvar,
}

impl Coordinator {
    /// Raises the shutdown flag and wakes every loop to notice it.
    fn begin_shutdown(&self) {
        self.shutting_down.store(true, Ordering::Release);
        for wakeup in &self.wakeups {
            wakeup.wake();
        }
    }
}

struct CoordState {
    /// Reactors that have landed all parked work and dropped their
    /// service handle.
    quiesced: usize,
    /// The stopped service's final snapshot + stats, published by the
    /// acceptor once every reactor quiesced.
    final_state: Option<Arc<(ServiceSnapshot, ServiceStats)>>,
}

/// One reactor thread: adopts handed-off sockets and runs passes —
/// waiting for readiness whenever one makes no progress — until
/// shutdown, then checks in at the quiesce barrier and flushes
/// farewells (including the `Goodbye` if one of its peers asked for
/// shutdown).
fn reactor_loop(
    index: usize,
    mailbox: Arc<Mailbox>,
    wakeup: Arc<Wakeup>,
    service: Arc<AmsService>,
    coord: Arc<Coordinator>,
) {
    let net = NetInstruments::new(&service.registry(), index, service.event_hub().recorder());
    let tracing = ReactorTracing {
        hub: service.trace_hub(),
        recorder: service.trace_hub().recorder(),
    };
    // Parked work waits on service events: refused ingests on queue
    // room, durable acks on watermark advances, drains on publishes.
    service.add_waker(wakeup.service_waker());
    net.events.emit(EventCode::ReactorStart, net.reactor, 0);
    let mut conns: Vec<Connection> = Vec::new();
    let mut scratch = vec![0u8; 16 * 1024];
    let mut pool = FramePool::new();
    let mut fds: Vec<PollFd> = Vec::new();
    // Trace clock at the last wake-up (0 while the hub is disabled).
    let mut woke_ns = 0u64;
    loop {
        let pass_start = Instant::now();
        let mut progress = false;
        let mut shutting_down = coord.shutting_down.load(Ordering::Acquire);
        // 1. Adopt whatever the acceptor handed off (unless closing up).
        if !shutting_down {
            for stream in mailbox.take() {
                match Connection::new(stream) {
                    Ok(conn) => {
                        conns.push(conn);
                        progress = true;
                    }
                    // The socket died before adoption: release its
                    // load share.
                    Err(_) => {
                        mailbox.load.fetch_sub(1, Ordering::Relaxed);
                    }
                }
            }
        }
        for conn in conns.iter_mut() {
            // 2. Retry ring + parked durable acks and drains.
            progress |= service_parked(conn, &service, &tracing, &mut pool, woke_ns);
            // 3. Read and dispatch new requests, with per-connection
            //    admission bounds so one peer cannot balloon server
            //    memory: stop reading while ingests are parked, too many
            //    responses are in flight, responses sit unflushed, or
            //    undecoded bytes already cover a whole frame.
            if !shutting_down && !conn.closing {
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
                        .emit(EventCode::ReadGate, net.reactor, conn.slots.len() as u64);
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
                                // and tell every other loop.
                                shutting_down = true;
                                coord.begin_shutdown();
                                break;
                            }
                        }
                        Err(e) => {
                            // Framing violation: answer once, then close
                            // (the byte stream cannot be re-synchronized).
                            // Only this reactor's connection dies; every
                            // other connection — on this reactor and all
                            // others — keeps serving.
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
        let before = conns.len();
        conns.retain(|conn| !conn.dead());
        let died = before - conns.len();
        if died > 0 {
            mailbox.load.fetch_sub(died, Ordering::Relaxed);
        }
        // Shutdown waits for every parked ingest/drain to land so no
        // acknowledged-later work is silently dropped, then breaks to
        // the quiesce barrier.
        if shutting_down && conns.iter().all(|c| c.pending() == 0) {
            break;
        }
        if progress {
            // Only passes that did work are recorded, so the histogram
            // profiles the dispatch path rather than empty re-checks.
            net.tick_ns.record_duration(pass_start.elapsed());
            continue;
        }
        // Nothing moved: wait until something can. Arm first, then
        // re-check everything a wake announces — shutdown, a handoff,
        // the parked slots — so an event this pass missed is either
        // seen here or rings the pipe.
        wakeup.arm(conns.iter().any(|c| c.pending() > 0));
        let mut ready = coord.shutting_down.load(Ordering::Acquire) != shutting_down
            || (!shutting_down && mailbox.has_sockets());
        for conn in conns.iter_mut() {
            ready |= service_parked(conn, &service, &tracing, &mut pool, woke_ns);
        }
        if ready {
            wakeup.disarm(false);
            continue;
        }
        fds.clear();
        fds.push(PollFd::new(wakeup.fd(), POLLIN));
        fds.extend(
            conns
                .iter()
                .map(|conn| conn.poll_fd(!shutting_down && !conn.closing && conn.read_gate_open())),
        );
        // A failed wait (`EINTR` is retried inside) acts as a spurious
        // wake-up: the next pass finds nothing to do and waits again.
        let _ = poll::wait(&mut fds, None);
        wakeup.disarm(fds[0].ready());
        woke_ns = tracing.now();
    }
    // Quiesce: drop this reactor's service handle *before* checking in,
    // so once the acceptor observes `quiesced == N` under the lock it
    // holds the only remaining `Arc` and can unwrap + stop the service.
    net.events
        .emit(EventCode::ReactorStop, net.reactor, conns.len() as u64);
    drop(service);
    let final_state = {
        let mut state = coord.state.lock().expect("coordinator never panics");
        state.quiesced += 1;
        coord.cv.notify_all();
        loop {
            if let Some(final_state) = &state.final_state {
                break Arc::clone(final_state);
            }
            state = coord.cv.wait(state).expect("coordinator never panics");
        }
    };
    let (snapshot, stats) = &*final_state;
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
    // Farewell flush with a deadline: a peer that stopped reading
    // cannot wedge the shutdown.
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
}

/// Runs the front-end until a `Shutdown` frame arrives or the stop
/// flag is raised, then gracefully stops the service and returns its
/// final snapshot and lifetime statistics. The calling thread is the
/// acceptor; one reactor thread per wake-up in `reactor_wakeups` does
/// the per-connection work.
pub(crate) fn run(
    listener: TcpListener,
    service: AmsService,
    stop: Arc<Stop>,
    reactor_wakeups: Vec<Arc<Wakeup>>,
) -> (ServiceSnapshot, ServiceStats) {
    let reactors = reactor_wakeups.len();
    let service = Arc::new(service);
    let coord = Arc::new(Coordinator {
        shutting_down: AtomicBool::new(false),
        wakeups: std::iter::once(&stop.acceptor)
            .chain(&reactor_wakeups)
            .cloned()
            .collect(),
        state: Mutex::new(CoordState {
            quiesced: 0,
            final_state: None,
        }),
        cv: Condvar::new(),
    });
    let mailboxes: Vec<Arc<Mailbox>> = (0..reactors)
        .map(|_| Arc::new(Mailbox::default()))
        .collect();
    let threads: Vec<std::thread::JoinHandle<()>> = (0..reactors)
        .map(|index| {
            let mailbox = Arc::clone(&mailboxes[index]);
            let wakeup = Arc::clone(&reactor_wakeups[index]);
            let service = Arc::clone(&service);
            let coord = Arc::clone(&coord);
            std::thread::Builder::new()
                .name(format!("ams-net-reactor-{index}"))
                .spawn(move || reactor_loop(index, mailbox, wakeup, service, coord))
                .expect("spawn reactor thread")
        })
        .collect();
    // Accept loop: place each socket on the least-loaded reactor,
    // breaking ties round-robin from a rotating cursor so equal-load
    // reactors share accepts instead of the first always winning.
    let mut cursor = 0usize;
    loop {
        if stop.requested.load(Ordering::Acquire) {
            coord.begin_shutdown();
        }
        if coord.shutting_down.load(Ordering::Acquire) {
            break;
        }
        let backoff = match listener.accept() {
            Ok((stream, _)) => {
                let mut best = cursor % reactors;
                let mut best_load = mailboxes[best].load.load(Ordering::Relaxed);
                for offset in 1..reactors {
                    let candidate = (cursor + offset) % reactors;
                    let load = mailboxes[candidate].load.load(Ordering::Relaxed);
                    if load < best_load {
                        best = candidate;
                        best_load = load;
                    }
                }
                cursor = cursor.wrapping_add(1);
                let mailbox = &mailboxes[best];
                mailbox.load.fetch_add(1, Ordering::Relaxed);
                mailbox
                    .sockets
                    .lock()
                    .expect("reactors never panic")
                    .push(stream);
                reactor_wakeups[best].wake();
                continue;
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => None,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            // Any other failure (e.g. out of descriptors) leaves the
            // listener readable, so waiting on it would spin.
            Err(_) => Some(ACCEPT_BACKOFF),
        };
        // Wait for a connection or a stop request: arm, re-check the
        // flags, then block.
        stop.acceptor.arm(false);
        if stop.requested.load(Ordering::Acquire) || coord.shutting_down.load(Ordering::Acquire) {
            stop.acceptor.disarm(false);
            continue;
        }
        let listen = if backoff.is_none() { POLLIN } else { 0 };
        let mut fds = [
            PollFd::new(stop.acceptor.fd(), POLLIN),
            PollFd::new(&listener, listen),
        ];
        let _ = poll::wait(&mut fds, backoff);
        stop.acceptor.disarm(fds[0].ready());
    }
    drop(listener);
    // Wait for every reactor to land parked work and release its
    // service handle.
    {
        let mut state = coord.state.lock().expect("reactors never panic");
        while state.quiesced < reactors {
            state = coord.cv.wait(state).expect("reactors never panic");
        }
    }
    let service = match Arc::try_unwrap(service) {
        Ok(service) => service,
        // Unreachable: every reactor drops its clone before its
        // `quiesced` increment becomes visible under the lock.
        Err(_) => unreachable!("a reactor quiesced while still holding the service"),
    };
    // Stop the service: closes the shard queues, drains the workers,
    // joins them, and yields the final state.
    let (snapshot, stats) = service.shutdown();
    {
        let mut state = coord.state.lock().expect("reactors never panic");
        state.final_state = Some(Arc::new((snapshot.clone(), stats.clone())));
    }
    coord.cv.notify_all();
    for thread in threads {
        let _ = thread.join();
    }
    (snapshot, stats)
}
