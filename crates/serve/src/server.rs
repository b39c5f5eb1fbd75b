//! The TCP front-end: accept loop, fixed worker pool, request routing,
//! admission control and graceful drain.
//!
//! One listener serves two protocols, sniffed from the first bytes of
//! each connection: `RPSWIRE1` frames (the binary protocol) and a
//! minimal HTTP/1.0 `GET /metrics` responder exposing the process
//! metric registry in Prometheus text format.
//!
//! ## Threading
//!
//! The acceptor thread only accepts; accepted sockets go down an
//! in-process queue to `workers` handler threads, each of which owns a
//! connection for its whole lifetime (requests on one connection are
//! serial, matching the wire protocol's in-order replies). Reads run on
//! [`VersionedEngine`](rps_core::VersionedEngine) snapshots, which
//! never wait for a writer's copy-on-write work; writes serialize per
//! tenant (see [`crate::tenant`]).
//!
//! ## Shutdown
//!
//! A [`Opcode::Shutdown`] request (or [`ShutdownHandle::shutdown`])
//! flips the drain flag and wakes the acceptor, which blocks in
//! `accept`, with a throwaway connection. The acceptor stops accepting,
//! handlers finish the request in flight — connection reads poll with a
//! short timeout so idle keep-alive peers cannot stall the drain — and
//! [`Server::run`] then cuts a final checkpoint for every durable tenant
//! and returns a [`DrainReport`].

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use ndcube::Region;
use rps_storage::SnapshotPolicy;

use crate::obs;
use crate::quota::TenantQuota;
use crate::tenant::{Persistence, Registry, ServeError, Tenant};
use crate::wire::{self, Frame, Opcode, RejectCode, WireError};

/// Process-monotonic clock for the token buckets: nanoseconds since
/// server start.
#[derive(Debug, Clone)]
struct Clock {
    // The admission rate limiter must read a real monotonic clock even
    // when the rps_obs timing gate is off; gating it would turn quotas
    // off alongside telemetry.
    // lint:allow(L6): quota clock, must run with the timing gate off
    origin: std::time::Instant,
}

impl Clock {
    fn new() -> Clock {
        Clock {
            // lint:allow(L6): see the field note — quota clock, not a span.
            origin: std::time::Instant::now(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// Server tunables. `Default` is a development server: 4 workers, 1 MiB
/// frames, unlimited quotas, ephemeral tenants.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Handler threads (each owns one connection at a time).
    pub workers: usize,
    /// Cap on a frame's body (tenant + payload) in bytes.
    pub max_frame_bytes: u32,
    /// Hosted-tenant cap; creating past it evicts the LRU tenant
    /// (0 = unlimited).
    pub max_tenants: usize,
    /// Per-tenant admission limits.
    pub quota: TenantQuota,
    /// Tenant persistence (ephemeral, or durable under a data dir).
    pub persistence: Persistence,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            workers: 4,
            max_frame_bytes: wire::DEFAULT_MAX_FRAME_BYTES,
            max_tenants: 0,
            quota: TenantQuota::default(),
            persistence: Persistence::Ephemeral,
        }
    }
}

impl ServerConfig {
    /// Durable persistence under `root` with `policy` as the automatic
    /// checkpoint trigger.
    #[must_use]
    pub fn durable(mut self, root: std::path::PathBuf, policy: SnapshotPolicy) -> ServerConfig {
        self.persistence = Persistence::Durable { root, policy };
        self
    }
}

/// What the drain completed: per-tenant final checkpoints plus how many
/// worker threads exited cleanly.
#[derive(Debug)]
pub struct DrainReport {
    /// `(tenant, checkpoint LSN)` for every durable tenant whose final
    /// checkpoint succeeded.
    pub checkpoints: Vec<(String, u64)>,
    /// Durable tenants whose final checkpoint failed (state remains
    /// recoverable from the WAL).
    pub checkpoint_failures: Vec<String>,
    /// Worker threads joined.
    pub workers_joined: usize,
}

/// Cross-thread shutdown trigger (also available to library callers
/// embedding a server, e.g. the throughput bench).
#[derive(Debug, Clone)]
pub struct ShutdownHandle {
    flag: Arc<AtomicBool>,
    addr: SocketAddr,
}

impl ShutdownHandle {
    /// Flips the drain flag and wakes the acceptor.
    pub fn shutdown(&self) {
        self.flag.store(true, Ordering::SeqCst);
        wake_acceptor(self.addr);
    }

    /// Whether a drain has been requested.
    #[must_use]
    pub fn is_shutting_down(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
    }
}

struct Shared {
    registry: Registry,
    clock: Clock,
    shutdown: Arc<AtomicBool>,
    max_frame_bytes: u32,
    addr: SocketAddr,
}

impl Shared {
    fn draining(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }
}

/// A bound, not-yet-running server.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
    workers: usize,
}

impl std::fmt::Debug for Shared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Shared({})", self.addr)
    }
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port).
    pub fn bind(addr: &str, config: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let shared = Arc::new(Shared {
            registry: Registry::new(config.persistence, config.quota, config.max_tenants),
            clock: Clock::new(),
            shutdown: Arc::new(AtomicBool::new(false)),
            max_frame_bytes: config.max_frame_bytes,
            addr: local,
        });
        Ok(Server {
            listener,
            shared,
            workers: config.workers.max(1),
        })
    }

    /// The bound address (useful with port 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Provisions a tenant before serving (e.g. from `--tenant` flags).
    pub fn create_tenant(&self, name: &str, dims: &[usize]) -> Result<(), ServeError> {
        self.shared.registry.create(name, dims).map(|_| ())
    }

    /// A handle that can trigger the drain from another thread.
    #[must_use]
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle {
            flag: Arc::clone(&self.shared.shutdown),
            addr: self.shared.addr,
        }
    }

    /// Serves until shutdown, then drains and checkpoints.
    ///
    /// Blocks the calling thread. Returns the [`DrainReport`] once every
    /// worker has exited and final checkpoints are cut.
    pub fn run(self) -> std::io::Result<DrainReport> {
        let (tx, rx) = mpsc::channel::<TcpStream>();
        let rx = Arc::new(Mutex::new(rx));
        let mut handles = Vec::with_capacity(self.workers);
        for _ in 0..self.workers {
            let rx = Arc::clone(&rx);
            let shared = Arc::clone(&self.shared);
            handles.push(std::thread::spawn(move || worker_loop(&rx, &shared)));
        }
        // Accept blocks; both drain triggers set the flag and then wake
        // it with a throwaway connection (`wake_acceptor`).
        while !self.shared.shutdown.load(Ordering::SeqCst) {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    if tx.send(stream).is_err() {
                        break; // all workers gone — nothing can serve
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        drop(tx); // workers drain queued sockets, then see Err and exit
        let mut workers_joined = 0usize;
        for h in handles {
            if h.join().is_ok() {
                workers_joined += 1;
            }
        }
        let mut checkpoints = Vec::new();
        let mut checkpoint_failures = Vec::new();
        for tenant in self.shared.registry.all() {
            if tenant.is_durable() {
                match tenant.checkpoint() {
                    Ok(lsn) => checkpoints.push((tenant.name().to_string(), lsn)),
                    Err(_) => checkpoint_failures.push(tenant.name().to_string()),
                }
            }
        }
        checkpoints.sort();
        checkpoint_failures.sort();
        Ok(DrainReport {
            checkpoints,
            checkpoint_failures,
            workers_joined,
        })
    }
}

/// Wakes an acceptor blocked in `accept` with a throwaway connection, so
/// it sees the drain flag. A failed connect (out of descriptors, say) is
/// retried with a growing pause; if every try fails, stderr says so, and
/// the acceptor wakes at the next connection that reaches it.
fn wake_acceptor(addr: SocketAddr) {
    for pause_ms in [0, 10, 20, 40, 80] {
        std::thread::sleep(Duration::from_millis(pause_ms));
        if TcpStream::connect(addr).is_ok() {
            return;
        }
    }
    eprintln!("rps-serve: could not wake the acceptor at {addr}; the drain waits for a connection");
}

fn worker_loop(rx: &Arc<Mutex<mpsc::Receiver<TcpStream>>>, shared: &Arc<Shared>) {
    loop {
        let next = {
            let guard = match rx.lock() {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
            guard.recv()
        };
        let Ok(stream) = next else {
            return; // acceptor hung up: drain complete
        };
        let m = obs::serve();
        m.conns.inc();
        m.active_conns.add(1);
        handle_connection(stream, shared);
        m.active_conns.sub(1);
    }
}

/// Poll interval for connection reads during normal serving; bounds how
/// long an idle connection can delay a drain.
const READ_POLL: Duration = Duration::from_millis(50);

fn handle_connection(stream: TcpStream, shared: &Arc<Shared>) {
    if stream.set_read_timeout(Some(READ_POLL)).is_err() {
        return;
    }
    let mut conn = Prefixed {
        prefix: Vec::new(),
        pos: 0,
        stream,
        shared: Arc::clone(shared),
    };
    // The sniff polls like every frame read: a peer that stalls
    // mid-sniff cannot hold this worker through a drain.
    let mut first = [0u8; 4];
    if conn.read_exact(&mut first).is_err() {
        return;
    }
    if &first == b"GET " {
        serve_metrics_scrape(&mut conn.stream);
        return;
    }
    // Not HTTP: replay the sniffed bytes as the start of a frame stream.
    conn.prefix = first.to_vec();
    loop {
        let frame = match Frame::read_from(&mut conn, shared.max_frame_bytes) {
            Ok(Ok(Some(frame))) => frame,
            Ok(Err(wire_err)) => {
                reply_wire_error(&mut conn.stream, &wire_err);
                if wire_err.reject_code().closes_connection() {
                    return; // framing broken: the stream cannot be re-synced
                }
                // Non-closing decode failures (unknown opcode) consumed
                // the CRC-verified body, so the stream is still in sync.
                continue;
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::TimedOut
                    || e.kind() == std::io::ErrorKind::WouldBlock =>
            {
                if shared.shutdown.load(Ordering::SeqCst) {
                    return; // drain: close the idle connection
                }
                continue;
            }
            // Clean EOF between frames, or a dead socket: either way the
            // connection is finished.
            Ok(Ok(None)) | Err(_) => return,
        };
        let keep_open = dispatch(&mut conn.stream, &frame, shared);
        if !keep_open {
            return;
        }
    }
}

/// `Read` adapter replaying the protocol-sniff bytes before the socket.
/// Socket read timeouts (the 50 ms poll) are swallowed until a drain
/// begins, at which point they surface so the connection can close —
/// this is what bounds how long an idle keep-alive peer can stall a
/// graceful shutdown.
struct Prefixed {
    prefix: Vec<u8>,
    pos: usize,
    stream: TcpStream,
    shared: Arc<Shared>,
}

impl Read for Prefixed {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if self.pos < self.prefix.len() {
            let n = (self.prefix.len() - self.pos).min(buf.len());
            buf[..n].copy_from_slice(&self.prefix[self.pos..self.pos + n]);
            self.pos += n;
            return Ok(n);
        }
        loop {
            match self.stream.read(buf) {
                Err(e)
                    if e.kind() == std::io::ErrorKind::TimedOut
                        || e.kind() == std::io::ErrorKind::WouldBlock =>
                {
                    if self.shared.draining() {
                        return Err(e);
                    }
                }
                other => return other,
            }
        }
    }
}

fn serve_metrics_scrape(stream: &mut TcpStream) {
    // Drain the request line + headers before replying: closing with
    // unread bytes in the socket can RST the connection and tear the
    // response out from under the scraper. Bounded and best-effort —
    // the response does not depend on the request.
    let mut drained = Vec::new();
    let mut chunk = [0u8; 512];
    while drained.len() < 8192 {
        match stream.read(&mut chunk) {
            Ok(0) | Err(_) => break,
            Ok(n) => {
                drained.extend_from_slice(&chunk[..n]);
                if drained.windows(4).any(|w| w == b"\r\n\r\n") {
                    break;
                }
            }
        }
    }
    let body = rps_obs::registry().render();
    let head = format!(
        "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let _scrape_best_effort = stream
        .write_all(head.as_bytes())
        .and_then(|()| stream.write_all(body.as_bytes()));
}

fn reply_wire_error(stream: &mut TcpStream, err: &WireError) {
    let code = err.reject_code();
    obs::reject(code);
    let reply = Frame::admin(Opcode::Error, wire::encode_error(code, &err.to_string()));
    let _reply_best_effort = reply.write_to(stream);
}

fn reply(stream: &mut TcpStream, frame: &Frame) -> bool {
    frame.write_to(stream).is_ok()
}

fn reject_frame(code: RejectCode, message: &str) -> Frame {
    obs::reject(code);
    Frame::admin(Opcode::Error, wire::encode_error(code, message))
}

/// Routes one request. Returns whether the connection stays open.
fn dispatch(stream: &mut TcpStream, frame: &Frame, shared: &Arc<Shared>) -> bool {
    let m = obs::op(frame.opcode);
    m.requests.inc();
    let sw = rps_obs::Stopwatch::start();
    let (response, keep_open) = route(frame, shared);
    sw.record(&m.latency_ns);
    reply(stream, &response) && keep_open
}

fn route(frame: &Frame, shared: &Arc<Shared>) -> (Frame, bool) {
    if shared.shutdown.load(Ordering::SeqCst) && frame.opcode != Opcode::Shutdown {
        return (
            reject_frame(RejectCode::ShuttingDown, "server is draining"),
            false,
        );
    }
    match frame.opcode {
        Opcode::Shutdown => {
            shared.shutdown.store(true, Ordering::SeqCst);
            wake_acceptor(shared.addr);
            (Frame::admin(Opcode::Ack, wire::encode_u64(0)), false)
        }
        Opcode::CreateTenant => {
            let Some(dims) = wire::decode_create(&frame.payload) else {
                return (bad_payload("create payload"), true);
            };
            match shared.registry.create(&frame.tenant, &dims) {
                Ok(_evicted) => (Frame::admin(Opcode::Ack, wire::encode_u64(1)), true),
                Err(e) => (reject_err(&e), true),
            }
        }
        Opcode::Query
        | Opcode::QueryMany
        | Opcode::Update
        | Opcode::BatchUpdate
        | Opcode::Snapshot
        | Opcode::Stats => {
            let tenant = match shared.registry.get(&frame.tenant) {
                Ok(t) => t,
                Err(e) => return (reject_err(&e), true),
            };
            (route_tenant(frame, &tenant, shared), true)
        }
        // Reply opcodes are not requests.
        _ => (
            reject_frame(RejectCode::UnknownOpcode, "reply opcode sent as a request"),
            true,
        ),
    }
}

fn route_tenant(frame: &Frame, tenant: &Arc<Tenant>, shared: &Arc<Shared>) -> Frame {
    // Admission: in-flight slot, then the byte-rate bucket over the
    // whole frame (header + body + trailer).
    let _slot = match tenant.quota().admit() {
        Ok(g) => g,
        Err(code) => return reject_frame(code, "too many requests in flight"),
    };
    let frame_bytes =
        (wire::HEADER_LEN + wire::TRAILER_LEN + frame.tenant.len() + frame.payload.len()) as u64;
    if let Err(code) = tenant
        .quota()
        .take_bytes(frame_bytes, shared.clock.now_ns())
    {
        return reject_frame(code, "byte-rate quota exhausted");
    }
    match frame.opcode {
        Opcode::Query => {
            let Some((lo, hi)) = wire::decode_query(&frame.payload) else {
                return bad_payload("query payload");
            };
            match region(&lo, &hi).and_then(|r| {
                tenant
                    .versioned()
                    .snapshot()
                    .query(&r)
                    .map_err(ServeError::from)
            }) {
                Ok(sum) => Frame::admin(Opcode::Sums, wire::encode_sums(&[sum])),
                Err(e) => reject_err(&e),
            }
        }
        Opcode::QueryMany => {
            let Some(pairs) = wire::decode_query_many(&frame.payload) else {
                return bad_payload("query_many payload");
            };
            if let Err(code) = tenant.quota().check_batch(pairs.len()) {
                return reject_frame(code, &format!("batch of {}", pairs.len()));
            }
            let mut regions = Vec::with_capacity(pairs.len());
            for (lo, hi) in &pairs {
                match region(lo, hi) {
                    Ok(r) => regions.push(r),
                    Err(e) => return reject_err(&e),
                }
            }
            match tenant.versioned().snapshot().query_many(&regions) {
                Ok(sums) => Frame::admin(Opcode::Sums, wire::encode_sums(&sums)),
                Err(e) => reject_err(&ServeError::from(e)),
            }
        }
        Opcode::Update => {
            let Some((coords, delta)) = wire::decode_update(&frame.payload) else {
                return bad_payload("update payload");
            };
            match tenant.update(&coords, delta) {
                Ok(()) => Frame::admin(Opcode::Ack, wire::encode_u64(1)),
                Err(e) => reject_err(&e),
            }
        }
        Opcode::BatchUpdate => {
            let Some(updates) = wire::decode_batch_update(&frame.payload) else {
                return bad_payload("batch_update payload");
            };
            if let Err(code) = tenant.quota().check_batch(updates.len()) {
                return reject_frame(code, &format!("batch of {}", updates.len()));
            }
            match tenant.batch_update(&updates) {
                Ok(()) => Frame::admin(Opcode::Ack, wire::encode_u64(updates.len() as u64)),
                Err(e) => reject_err(&e),
            }
        }
        Opcode::Snapshot => match tenant.checkpoint() {
            Ok(lsn) => Frame::admin(Opcode::SnapshotDone, wire::encode_u64(lsn)),
            Err(e) => reject_err(&e),
        },
        Opcode::Stats => Frame::admin(Opcode::StatsReply, wire::encode_stats(&tenant.stats())),
        // route() only forwards the six tenant opcodes above.
        _ => reject_frame(RejectCode::UnknownOpcode, "not a tenant opcode"),
    }
}

fn region(lo: &[usize], hi: &[usize]) -> Result<Region, ServeError> {
    Region::new(lo, hi).map_err(ServeError::from)
}

fn bad_payload(what: &str) -> Frame {
    reject_frame(RejectCode::BadPayload, &format!("malformed {what}"))
}

fn reject_err(e: &ServeError) -> Frame {
    let (code, msg) = e.reject();
    reject_frame(code, &msg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_server_no_client_reached_drains_on_shutdown() {
        let server = Server::bind("127.0.0.1:0", ServerConfig::default()).unwrap();
        let handle = server.shutdown_handle();
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || tx.send(server.run()));
        std::thread::sleep(Duration::from_millis(50)); // the acceptor blocks in `accept`
        handle.shutdown();
        let report = rx.recv_timeout(Duration::from_secs(10)).unwrap().unwrap();
        assert_eq!(report.workers_joined, ServerConfig::default().workers);
    }
}
