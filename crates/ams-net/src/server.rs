//! The server façade: bind, run (or spawn), stop.

use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use ams_service::{AmsService, ServiceSnapshot, ServiceStats};

use crate::error::NetError;
use crate::reactor;
use crate::wake::Wakeup;

/// The server's configuration: how many reactor threads share the
/// connections. A connection's admission bounds are fixed. A block a
/// full shard queue refuses parks until it lands, and so does every
/// later block of its frame; while any block is parked the connection
/// is not read, so it parks at most one frame of
/// [`MAX_INGEST_BLOCKS`](crate::codec::MAX_INGEST_BLOCKS) blocks, and
/// no ingest is ever answered with a refusal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NetServerConfig {
    /// How many reactor threads share the connections. The acceptor
    /// hands each new socket to the least-loaded reactor (round-robin
    /// on ties), so decode + dispatch scales with cores. `0` is
    /// treated as `1`. The default is 1 — scaling past one reactor is
    /// an explicit choice, sized to the host (e.g.
    /// `std::thread::available_parallelism()`).
    pub reactors: usize,
}

impl Default for NetServerConfig {
    fn default() -> Self {
        Self { reactors: 1 }
    }
}

/// A stop request: the flag, and the acceptor's wake-up that makes it
/// notice.
#[derive(Debug)]
pub(crate) struct Stop {
    pub(crate) requested: AtomicBool,
    pub(crate) acceptor: Arc<Wakeup>,
}

/// A handle that asks a running server to shut down gracefully (same
/// path as a wire-level `Shutdown` request, minus the `Goodbye`).
#[derive(Debug, Clone)]
pub struct StopHandle(Arc<Stop>);

impl StopHandle {
    /// Raises the stop flag and wakes the acceptor, which passes the
    /// shutdown on to every reactor.
    pub fn stop(&self) {
        self.0.requested.store(true, Ordering::Release);
        self.0.acceptor.wake();
    }
}

/// A bound, not-yet-running wire-protocol server.
///
/// ```no_run
/// use ams_net::NetServer;
/// use ams_service::{AmsService, ServiceConfig};
///
/// let service = AmsService::start(ServiceConfig::default(), &["clicks"])?;
/// let server = NetServer::bind("127.0.0.1:0")?;
/// println!("listening on {}", server.local_addr());
/// let (final_snapshot, stats) = server.run(service); // until Shutdown
/// # let _ = (final_snapshot, stats);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct NetServer {
    listener: TcpListener,
    addr: SocketAddr,
    stop: Arc<Stop>,
    /// One wake-up per reactor, made at bind time so a failure to
    /// create one surfaces here rather than in a running server.
    reactor_wakeups: Vec<Arc<Wakeup>>,
}

impl NetServer {
    /// Binds a listener with the default [`NetServerConfig`]. Use port
    /// 0 to let the OS pick (read it back with [`Self::local_addr`]).
    ///
    /// # Errors
    /// [`NetError::Io`] when binding fails.
    pub fn bind<A: ToSocketAddrs>(addr: A) -> Result<Self, NetError> {
        Self::bind_with(addr, NetServerConfig::default())
    }

    /// Binds a listener with an explicit configuration.
    ///
    /// # Errors
    /// [`NetError::Io`] when binding fails, or when a wake-up socket
    /// pair cannot be created.
    pub fn bind_with<A: ToSocketAddrs>(addr: A, config: NetServerConfig) -> Result<Self, NetError> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(Stop {
            requested: AtomicBool::new(false),
            acceptor: Wakeup::new()?,
        });
        let reactor_wakeups = (0..config.reactors.max(1))
            .map(|_| Wakeup::new())
            .collect::<Result<_, _>>()?;
        Ok(Self {
            listener,
            addr,
            stop,
            reactor_wakeups,
        })
    }

    /// The bound address (useful after binding port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A handle that can stop the running server from another thread.
    pub fn stop_handle(&self) -> StopHandle {
        StopHandle(Arc::clone(&self.stop))
    }

    /// Runs the front-end on the calling thread (which becomes the
    /// acceptor; the configured reactor threads own the connections)
    /// until a wire `Shutdown` request arrives or the stop handle
    /// fires, then returns the service's final snapshot and lifetime
    /// statistics.
    pub fn run(self, service: AmsService) -> (ServiceSnapshot, ServiceStats) {
        reactor::run(self.listener, service, self.stop, self.reactor_wakeups)
    }

    /// Spawns the acceptor (and its reactor threads) in the background
    /// and returns a handle carrying the address, a stop handle, and
    /// the join point.
    pub fn spawn(self, service: AmsService) -> ServerHandle {
        let addr = self.addr;
        let stop = self.stop_handle();
        let thread = std::thread::Builder::new()
            .name("ams-net-acceptor".into())
            .spawn(move || self.run(service))
            .expect("spawn acceptor thread");
        ServerHandle { addr, stop, thread }
    }
}

/// A running background server (from [`NetServer::spawn`]).
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    stop: StopHandle,
    thread: std::thread::JoinHandle<(ServiceSnapshot, ServiceStats)>,
}

impl ServerHandle {
    /// The server's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// A clonable stop handle.
    pub fn stop_handle(&self) -> StopHandle {
        self.stop.clone()
    }

    /// Asks the server to stop and waits for it, returning the final
    /// snapshot and statistics.
    ///
    /// # Panics
    /// Propagates a panic from the reactor thread (none are expected;
    /// the reactor is panic-free on arbitrary input by design).
    pub fn stop(self) -> (ServiceSnapshot, ServiceStats) {
        self.stop.stop();
        self.thread.join().expect("reactor thread panicked")
    }

    /// Waits for the server to finish on its own (wire `Shutdown`).
    ///
    /// # Panics
    /// Propagates a panic from the reactor thread.
    pub fn join(self) -> (ServiceSnapshot, ServiceStats) {
        self.thread.join().expect("reactor thread panicked")
    }
}
