//! The server façade: bind, run (or spawn), stop. A server is one
//! thread, the reactor, which accepts, serves and shuts down on one
//! loop.

use std::io;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use ams_service::{AmsService, ServiceSnapshot, ServiceStats};

use crate::error::NetError;
use crate::reactor;
use crate::wake::Wakeup;

/// A shim kept only because perfbench binds through
/// [`NetServer::bind_with`]. A server runs one reactor thread, so
/// `reactors` may be 0 or 1, and either binds exactly as
/// [`NetServer::bind`] does; a larger value is refused. Once perfbench
/// binds with [`NetServer::bind`], this type and `bind_with` go.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetServerConfig {
    /// Reactor threads: 0 or 1.
    pub reactors: usize,
}

/// A stop request: the flag, and the reactor's wake-up that makes it
/// notice.
#[derive(Debug)]
pub(crate) struct Stop {
    pub(crate) requested: AtomicBool,
    pub(crate) wakeup: Arc<Wakeup>,
}

/// A handle that asks a running server to shut down gracefully (same
/// path as a wire-level `Shutdown` request, minus the `Goodbye`).
#[derive(Debug, Clone)]
pub struct StopHandle(Arc<Stop>);

impl StopHandle {
    /// Raises the stop flag and wakes the reactor.
    pub fn stop(&self) {
        self.0.requested.store(true, Ordering::Release);
        self.0.wakeup.wake();
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
}

impl NetServer {
    /// Binds a listener. Use port 0 to let the OS pick (read it back
    /// with [`Self::local_addr`]). The reactor's wake-up pipe is made
    /// here too, so a failure to create it surfaces at bind time rather
    /// than in a running server.
    ///
    /// # Errors
    /// [`NetError::Io`] when binding fails, or when the wake-up pipe
    /// cannot be created.
    pub fn bind<A: ToSocketAddrs>(addr: A) -> Result<Self, NetError> {
        let listener = TcpListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(Stop {
            requested: AtomicBool::new(false),
            wakeup: Wakeup::new()?,
        });
        Ok(Self {
            listener,
            addr,
            stop,
        })
    }

    /// Binds as [`Self::bind`] does; see [`NetServerConfig`].
    ///
    /// # Errors
    /// [`NetError::Io`] of kind [`InvalidInput`](io::ErrorKind::InvalidInput)
    /// when `config.reactors` exceeds 1, before anything is bound;
    /// otherwise as [`Self::bind`].
    pub fn bind_with<A: ToSocketAddrs>(addr: A, config: NetServerConfig) -> Result<Self, NetError> {
        if config.reactors > 1 {
            return Err(NetError::Io(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("a server runs one reactor, not {}", config.reactors),
            )));
        }
        Self::bind(addr)
    }

    /// The bound address (useful after binding port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// A handle that can stop the running server from another thread.
    pub fn stop_handle(&self) -> StopHandle {
        StopHandle(Arc::clone(&self.stop))
    }

    /// Runs the server on the calling thread, which becomes the
    /// reactor: it accepts, serves every connection and owns the
    /// service until a wire `Shutdown` request arrives or the stop
    /// handle fires, then stops the service and returns its final
    /// snapshot and lifetime statistics.
    pub fn run(self, service: AmsService) -> (ServiceSnapshot, ServiceStats) {
        reactor::run(self.listener, service, &self.stop)
    }

    /// Spawns the reactor thread and returns a handle carrying the
    /// address, a stop handle, and the join point.
    pub fn spawn(self, service: AmsService) -> ServerHandle {
        let addr = self.addr;
        let stop = self.stop_handle();
        let thread = std::thread::Builder::new()
            .name("ams-net-reactor".into())
            .spawn(move || self.run(service))
            .expect("spawn reactor thread");
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
