//! A thin binary frame protocol over TCP for the locate service.
//!
//! One connection carries a sequence of request/response pairs, processed in
//! order. All integers are little-endian; samples are IEEE-754 `f32` LE,
//! matching the raw trace file format.
//!
//! Version 2 addresses models by registry **name** instead of a raw slot
//! index: an index is only meaningful for a frozen engine list, and the
//! registry's swap/evict operations made registration order a moving target
//! — a v1 client could silently hit the *wrong* model. Names resolve
//! through the service's [`ModelRegistry`](crate::ModelRegistry) at
//! admission, and stale or unknown names come back as the typed
//! [`Status::UnknownModel`] / [`Status::ModelUnavailable`] instead of a
//! misrouted answer.
//!
//! **Request frame** (`SCLQ`):
//!
//! | offset | size | field |
//! |-------:|-----:|-------|
//! | 0      | 4    | magic `b"SCLQ"` |
//! | 4      | 1    | protocol version (`2`) |
//! | 5      | 1    | model name length in bytes (`1..=255`) |
//! | 6      | 1    | flags — bit 0: streamed ingest (score while receiving) |
//! | 7      | 1    | reserved (zero) |
//! | 8      | 4    | deadline in ms (`0` = none) |
//! | 12     | 8    | sample count |
//! | 20     | m    | model name, UTF-8 |
//! | 20+m   | 4·n  | samples, `f32` LE |
//!
//! **Admin frame** (`SCLA`) — registry control; answered with a response
//! frame (a successful swap reports the new generation as `starts[0]`).
//! Refused with [`Status::AdminDenied`] unless [`ServerConfig::allow_admin`]
//! is set:
//!
//! | offset | size | field |
//! |-------:|-----:|-------|
//! | 0      | 4    | magic `b"SCLA"` |
//! | 4      | 1    | protocol version (`2`) |
//! | 5      | 1    | op — `1` swap, `2` evict |
//! | 6      | 1    | model name length in bytes (`1..=255`) |
//! | 7      | 1    | reserved (zero) |
//! | 8      | 2    | model file path length in bytes (`0` for evict) |
//! | 10     | m    | model name, UTF-8 |
//! | 10+m   | p    | model file path, UTF-8 |
//!
//! **Response frame** (`SCLR`):
//!
//! | offset | size | field |
//! |-------:|-----:|-------|
//! | 0      | 4    | magic `b"SCLR"` |
//! | 4      | 1    | protocol version (`2`) |
//! | 5      | 1    | [`Status`] |
//! | 6      | 2    | reserved (zero) |
//! | 8      | 8    | start count |
//! | 16     | 8·k  | located CO start samples, `u64` LE |
//!
//! Like the model and trace file readers, the parser never allocates from an
//! unvalidated length: sample and start counts are bounded *before* any
//! buffer is sized (names are bounded by their one-byte length, admin paths
//! by two), and violations surface as typed [`FrameError`]s.
//!
//! With the streamed-ingest flag set the payload is fed to the engine
//! through a [`sca_trace::SequentialTraceSource`] *while it arrives* — the
//! service never holds more than one chunk of the trace in memory, so a
//! client can ship a multi-gigabyte capture over a socket. Without the flag
//! the payload is buffered and scored as an in-memory trace (lowest latency
//! for small traces).
//!
//! # Failure domains
//!
//! Every accepted connection runs behind per-connection read/write socket
//! timeouts ([`ServerConfig::read_timeout`] / [`ServerConfig::write_timeout`],
//! 30 s by default) so a half-open or wedged peer can never pin a handler
//! thread forever; each reaped connection bumps the `conn_timeouts` metric.
//! When the service sheds load at admission (the unclaimed windows ahead,
//! plus the request's own, would outlast the request deadline at the
//! observed batch latency) the peer sees the typed [`Status::Overloaded`]. On the client side, [`Client::locate`] treats
//! transport failures (socket errors, truncated responses) as retryable —
//! it reconnects and retries with capped exponential backoff plus
//! deterministic jitter, giving up with the typed
//! [`ClientError::Exhausted`] after [`ClientConfig::max_attempts`] tries —
//! while admin calls never retry (a swap is not idempotent).
//!
//! For chaos testing, a non-empty [`FaultPlan`] in [`ServerConfig::faults`]
//! injects scheduled socket read/write faults at this layer (see
//! [`crate::faults`]).

use std::fmt;
use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::faults::{splitmix64, FaultKind, FaultPlan, FaultSite};
use crate::{LocatorService, RegistryError, Rejected, RequestOptions, ServiceError};

/// Request frame magic.
pub const REQUEST_MAGIC: [u8; 4] = *b"SCLQ";
/// Admin frame magic (registry swap/evict).
pub const ADMIN_MAGIC: [u8; 4] = *b"SCLA";
/// Response frame magic.
pub const RESPONSE_MAGIC: [u8; 4] = *b"SCLR";
/// Wire protocol version. Version 2 replaced the v1 raw model index with a
/// length-prefixed registry name and added admin frames.
pub const PROTOCOL_VERSION: u8 = 2;
/// Request flag bit 0: stream the payload into the engine as it arrives.
pub const FLAG_STREAMED: u8 = 1;

const REQUEST_HEADER_LEN: usize = 20;
const ADMIN_HEADER_LEN: usize = 10;
const RESPONSE_HEADER_LEN: usize = 16;

/// Why a frame could not be parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The frame does not start with the expected magic.
    BadMagic {
        /// The four bytes actually read.
        found: [u8; 4],
    },
    /// The peer speaks a protocol version this build does not.
    UnsupportedVersion(u8),
    /// A declared count exceeds the configured bound — refused before any
    /// allocation.
    Oversized {
        /// The declared element count.
        declared: u64,
        /// The configured maximum.
        max: u64,
    },
    /// The model name (or admin path) is empty or not valid UTF-8.
    InvalidName(String),
    /// The connection ended mid-frame.
    Truncated,
    /// Any other socket-level I/O failure.
    Io(String),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::BadMagic { found } => write!(f, "bad frame magic {found:02x?}"),
            FrameError::UnsupportedVersion(v) => write!(f, "unsupported protocol version {v}"),
            FrameError::Oversized { declared, max } => {
                write!(f, "declared count {declared} exceeds the frame bound {max}")
            }
            FrameError::InvalidName(msg) => write!(f, "invalid name field: {msg}"),
            FrameError::Truncated => write!(f, "connection closed mid-frame"),
            FrameError::Io(msg) => write!(f, "socket error: {msg}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            FrameError::Truncated
        } else {
            FrameError::Io(e.to_string())
        }
    }
}

/// Response status byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Status {
    /// Request completed; the frame carries the located starts (for a swap,
    /// the new generation).
    Ok = 0,
    /// Rejected by backpressure ([`Rejected::QueueFull`]); retry later.
    QueueFull = 1,
    /// The request's deadline passed before it was scored.
    DeadlineExceeded = 2,
    /// The request was malformed (over the length bound, bad parameter, …).
    Invalid = 3,
    /// The payload stream failed mid-request (e.g. truncated ingest).
    SourceFailed = 4,
    /// The service is shutting down and no longer accepts work.
    ShuttingDown = 5,
    /// No model is registered under the requested name (stale after a
    /// deregistration, or never registered).
    UnknownModel = 6,
    /// The model is registered but its backing file failed to load; the
    /// registration stays and a later request retries.
    ModelUnavailable = 7,
    /// A worker panicked while scoring this request's batch; the service
    /// kept serving and the request may be retried.
    WorkerFailed = 8,
    /// An admin frame was refused because [`ServerConfig::allow_admin`] is
    /// off.
    AdminDenied = 9,
    /// Shed at admission: the service's backlog already exceeded the
    /// request's deadline ([`Rejected::Overloaded`]); retry with backoff or
    /// a larger deadline.
    Overloaded = 10,
}

impl Status {
    fn from_byte(b: u8) -> Option<Self> {
        match b {
            0 => Some(Status::Ok),
            1 => Some(Status::QueueFull),
            2 => Some(Status::DeadlineExceeded),
            3 => Some(Status::Invalid),
            4 => Some(Status::SourceFailed),
            5 => Some(Status::ShuttingDown),
            6 => Some(Status::UnknownModel),
            7 => Some(Status::ModelUnavailable),
            8 => Some(Status::WorkerFailed),
            9 => Some(Status::AdminDenied),
            10 => Some(Status::Overloaded),
            _ => None,
        }
    }
}

/// A parsed response frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Outcome of the request.
    pub status: Status,
    /// Located CO start samples (empty unless [`Status::Ok`]; for an admin
    /// swap, one element holding the new generation).
    pub starts: Vec<u64>,
}

/// The parsed fixed-size part of a request frame plus the model name
/// (payload read separately).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestHeader {
    /// Registry name of the model the request targets.
    pub model: String,
    /// Flag byte (see [`FLAG_STREAMED`]).
    pub flags: u8,
    /// Deadline in milliseconds (`0` = none).
    pub deadline_ms: u32,
    /// Declared payload sample count.
    pub sample_count: u64,
}

impl RequestHeader {
    /// Whether the payload should be streamed into the engine as it arrives.
    pub fn streamed(&self) -> bool {
        self.flags & FLAG_STREAMED != 0
    }
}

/// A registry operation carried by an admin frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum AdminOp {
    /// Install the model file at `path` as the name's next generation
    /// ([`crate::ModelRegistry::swap`]).
    Swap = 1,
    /// Drop the name's resident weights
    /// ([`crate::ModelRegistry::evict`]).
    Evict = 2,
}

/// A parsed admin frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AdminRequest {
    /// The operation.
    pub op: AdminOp,
    /// Registry name the operation targets.
    pub name: String,
    /// Server-local model file path (empty for [`AdminOp::Evict`]).
    pub path: String,
}

// ---------------------------------------------------------------------------
// Codec
// ---------------------------------------------------------------------------

fn validated_name(bytes: Vec<u8>, what: &str) -> Result<String, FrameError> {
    if bytes.is_empty() {
        return Err(FrameError::InvalidName(format!("empty {what}")));
    }
    String::from_utf8(bytes)
        .map_err(|_| FrameError::InvalidName(format!("{what} is not valid UTF-8")))
}

/// Writes one request frame: header, model name, then the samples as
/// `f32` LE.
///
/// # Errors
///
/// Fails with [`io::ErrorKind::InvalidInput`] for an empty or over-long
/// (> 255 bytes) model name; otherwise propagates socket write failures.
pub fn write_request<W: Write>(
    mut w: W,
    model: &str,
    flags: u8,
    deadline_ms: u32,
    samples: &[f32],
) -> io::Result<()> {
    if model.is_empty() || model.len() > u8::MAX as usize {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("model name must be 1..=255 bytes, got {}", model.len()),
        ));
    }
    let mut header = [0u8; REQUEST_HEADER_LEN];
    header[..4].copy_from_slice(&REQUEST_MAGIC);
    header[4] = PROTOCOL_VERSION;
    header[5] = model.len() as u8;
    header[6] = flags;
    header[8..12].copy_from_slice(&deadline_ms.to_le_bytes());
    header[12..20].copy_from_slice(&(samples.len() as u64).to_le_bytes());
    w.write_all(&header)?;
    w.write_all(model.as_bytes())?;
    let mut buf = Vec::with_capacity(4096.min(samples.len() * 4));
    for block in samples.chunks(1024) {
        buf.clear();
        for s in block {
            buf.extend_from_slice(&s.to_le_bytes());
        }
        w.write_all(&buf)?;
    }
    w.flush()
}

/// Parses a request header whose magic was already consumed.
fn read_request_tail<R: Read>(mut r: R, max_samples: u64) -> Result<RequestHeader, FrameError> {
    let mut header = [0u8; REQUEST_HEADER_LEN - 4];
    r.read_exact(&mut header)?;
    if header[0] != PROTOCOL_VERSION {
        return Err(FrameError::UnsupportedVersion(header[0]));
    }
    let name_len = header[1] as usize;
    let flags = header[2];
    let deadline_ms = u32::from_le_bytes(header[4..8].try_into().expect("4-byte slice"));
    let sample_count = u64::from_le_bytes(header[8..16].try_into().expect("8-byte slice"));
    if sample_count > max_samples {
        return Err(FrameError::Oversized { declared: sample_count, max: max_samples });
    }
    let mut name = vec![0u8; name_len];
    r.read_exact(&mut name)?;
    let model = validated_name(name, "model name")?;
    Ok(RequestHeader { model, flags, deadline_ms, sample_count })
}

/// Reads and validates a request header (including the model name).
/// `max_samples` bounds the declared payload before anything is allocated.
///
/// # Errors
///
/// Returns a typed [`FrameError`] for bad magic, version or bound
/// violations, a bad name, truncation, or socket failures.
pub fn read_request_header<R: Read>(
    mut r: R,
    max_samples: u64,
) -> Result<RequestHeader, FrameError> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if magic != REQUEST_MAGIC {
        return Err(FrameError::BadMagic { found: magic });
    }
    read_request_tail(r, max_samples)
}

/// Writes one admin frame.
///
/// # Errors
///
/// Fails with [`io::ErrorKind::InvalidInput`] for an empty or over-long
/// (> 255 bytes) name or an over-long (> 65535 bytes) path; otherwise
/// propagates socket write failures.
pub fn write_admin_request<W: Write>(
    mut w: W,
    op: AdminOp,
    name: &str,
    path: &str,
) -> io::Result<()> {
    if name.is_empty() || name.len() > u8::MAX as usize {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("model name must be 1..=255 bytes, got {}", name.len()),
        ));
    }
    if path.len() > u16::MAX as usize {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("model path must be at most 65535 bytes, got {}", path.len()),
        ));
    }
    let mut header = [0u8; ADMIN_HEADER_LEN];
    header[..4].copy_from_slice(&ADMIN_MAGIC);
    header[4] = PROTOCOL_VERSION;
    header[5] = op as u8;
    header[6] = name.len() as u8;
    header[8..10].copy_from_slice(&(path.len() as u16).to_le_bytes());
    w.write_all(&header)?;
    w.write_all(name.as_bytes())?;
    w.write_all(path.as_bytes())?;
    w.flush()
}

/// Parses an admin frame whose magic was already consumed.
fn read_admin_tail<R: Read>(mut r: R) -> Result<AdminRequest, FrameError> {
    let mut header = [0u8; ADMIN_HEADER_LEN - 4];
    r.read_exact(&mut header)?;
    if header[0] != PROTOCOL_VERSION {
        return Err(FrameError::UnsupportedVersion(header[0]));
    }
    let op = match header[1] {
        1 => AdminOp::Swap,
        2 => AdminOp::Evict,
        other => return Err(FrameError::Io(format!("unknown admin op {other}"))),
    };
    let name_len = header[2] as usize;
    let path_len = u16::from_le_bytes(header[4..6].try_into().expect("2-byte slice")) as usize;
    let mut name = vec![0u8; name_len];
    r.read_exact(&mut name)?;
    let name = validated_name(name, "model name")?;
    let mut path = vec![0u8; path_len];
    r.read_exact(&mut path)?;
    let path = String::from_utf8(path)
        .map_err(|_| FrameError::InvalidName("model path is not valid UTF-8".into()))?;
    if op == AdminOp::Swap && path.is_empty() {
        return Err(FrameError::InvalidName("swap requires a model file path".into()));
    }
    Ok(AdminRequest { op, name, path })
}

/// Reads and validates an admin frame.
///
/// # Errors
///
/// Returns a typed [`FrameError`] for bad magic, version violations, bad
/// names, truncation, or socket failures.
pub fn read_admin_request<R: Read>(mut r: R) -> Result<AdminRequest, FrameError> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if magic != ADMIN_MAGIC {
        return Err(FrameError::BadMagic { found: magic });
    }
    read_admin_tail(r)
}

/// Writes one response frame.
///
/// # Errors
///
/// Propagates socket write failures.
pub fn write_response<W: Write>(mut w: W, status: Status, starts: &[usize]) -> io::Result<()> {
    let mut frame = Vec::with_capacity(RESPONSE_HEADER_LEN + starts.len() * 8);
    frame.extend_from_slice(&RESPONSE_MAGIC);
    frame.push(PROTOCOL_VERSION);
    frame.push(status as u8);
    frame.extend_from_slice(&[0u8; 2]);
    frame.extend_from_slice(&(starts.len() as u64).to_le_bytes());
    for s in starts {
        frame.extend_from_slice(&(*s as u64).to_le_bytes());
    }
    w.write_all(&frame)?;
    w.flush()
}

/// Reads one response frame. `max_starts` bounds the declared start count
/// before the result vector is allocated.
///
/// # Errors
///
/// Returns a typed [`FrameError`] for bad magic, version or bound
/// violations, an unknown status byte, truncation, or socket failures.
pub fn read_response<R: Read>(mut r: R, max_starts: u64) -> Result<Response, FrameError> {
    let mut header = [0u8; RESPONSE_HEADER_LEN];
    r.read_exact(&mut header)?;
    if header[..4] != RESPONSE_MAGIC {
        return Err(FrameError::BadMagic { found: [header[0], header[1], header[2], header[3]] });
    }
    if header[4] != PROTOCOL_VERSION {
        return Err(FrameError::UnsupportedVersion(header[4]));
    }
    let status = Status::from_byte(header[5])
        .ok_or_else(|| FrameError::Io(format!("unknown status byte {}", header[5])))?;
    let count = u64::from_le_bytes(header[8..16].try_into().expect("8-byte slice"));
    if count > max_starts {
        return Err(FrameError::Oversized { declared: count, max: max_starts });
    }
    let mut starts = vec![0u64; count as usize];
    let mut buf = [0u8; 8];
    for s in &mut starts {
        r.read_exact(&mut buf)?;
        *s = u64::from_le_bytes(buf);
    }
    Ok(Response { status, starts })
}

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

/// Server-side limits and failure-domain knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Largest sample count a request frame may declare (bounds both the
    /// in-memory buffer and the streamed drain).
    pub max_frame_samples: u64,
    /// Accept admin frames (registry swap/evict) on this listener. Off by
    /// default: admin frames name server-local files, so only enable it on
    /// listeners reachable solely by operators.
    pub allow_admin: bool,
    /// Per-connection socket read timeout. A client that stalls mid-frame
    /// (or goes half-open) for longer than this is reaped — its handler
    /// thread exits and the `conn_timeouts` metric is bumped — instead of
    /// holding a connection thread forever. `None` disables the timeout.
    pub read_timeout: Option<Duration>,
    /// Per-connection socket write timeout (a peer that stops draining its
    /// receive buffer is reaped the same way). `None` disables the timeout.
    pub write_timeout: Option<Duration>,
    /// Deterministic fault injection at the socket read/write sites (see
    /// [`crate::faults`]); the default empty plan injects nothing.
    pub faults: FaultPlan,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            // 2^28 samples = 1 GiB of payload; far above any test trace, far
            // below an allocation-of-death.
            max_frame_samples: 1 << 28,
            allow_admin: false,
            read_timeout: Some(Duration::from_secs(30)),
            write_timeout: Some(Duration::from_secs(30)),
            faults: FaultPlan::default(),
        }
    }
}

/// A running TCP front-end; stop with [`ServerHandle::stop`] (also run on
/// drop). The underlying [`LocatorService`] outlives the server and keeps
/// serving in-process submissions.
#[derive(Debug)]
pub struct ServerHandle {
    addr: SocketAddr,
    stopping: Arc<AtomicBool>,
    /// Live connection sockets, shut down on stop so handler threads
    /// blocked in a frame read wake up and exit. Handlers remove their own
    /// entry when their connection ends.
    conns: Arc<Mutex<std::collections::HashMap<u64, TcpStream>>>,
    accept: Option<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound listen address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting connections, waits for in-flight connections to
    /// finish their current request, and joins the server threads.
    pub fn stop(mut self) {
        self.stop_inner();
    }

    fn stop_inner(&mut self) {
        let Some(accept) = self.accept.take() else { return };
        self.stopping.store(true, Ordering::SeqCst);
        // Kick handler threads out of their blocking frame reads: a peer
        // idling between requests would otherwise block the join forever.
        for stream in crate::lock_poisoned(&self.conns).values() {
            let _ = stream.shutdown(std::net::Shutdown::Both);
        }
        // Unblock the accept loop with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        let _ = accept.join();
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.stop_inner();
    }
}

/// Serves the locate service on `listener`, one handler thread per
/// connection.
///
/// # Errors
///
/// Fails if the listener's local address cannot be read or the accept
/// thread cannot be spawned.
pub fn serve(
    service: Arc<LocatorService>,
    listener: TcpListener,
    cfg: ServerConfig,
) -> io::Result<ServerHandle> {
    let addr = listener.local_addr()?;
    let stopping = Arc::new(AtomicBool::new(false));
    let conns: Arc<Mutex<std::collections::HashMap<u64, TcpStream>>> =
        Arc::new(Mutex::new(std::collections::HashMap::new()));
    let accept = {
        let stopping = Arc::clone(&stopping);
        let conns = Arc::clone(&conns);
        std::thread::Builder::new().name("locsvc-accept".into()).spawn(move || {
            let mut handlers: Vec<std::thread::JoinHandle<()>> = Vec::new();
            let mut next_id = 0u64;
            for stream in listener.incoming() {
                if stopping.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                // A stalled or half-open peer is reaped by the socket
                // timeouts instead of pinning this connection's thread
                // forever.
                let _ = stream.set_read_timeout(cfg.read_timeout);
                let _ = stream.set_write_timeout(cfg.write_timeout);
                let id = next_id;
                next_id += 1;
                if let Ok(peer) = stream.try_clone() {
                    crate::lock_poisoned(&conns).insert(id, peer);
                }
                let service = Arc::clone(&service);
                let conns = Arc::clone(&conns);
                let cfg = cfg.clone();
                if let Ok(handle) =
                    std::thread::Builder::new().name("locsvc-conn".into()).spawn(move || {
                        let conn = ConnStream {
                            inner: stream,
                            faults: cfg.faults.clone(),
                            service: Arc::clone(&service),
                        };
                        handle_connection(&service, &conn, &cfg);
                        crate::lock_poisoned(&conns).remove(&id);
                    })
                {
                    // Reap finished handlers so the list stays bounded by
                    // the number of *live* connections.
                    handlers.retain(|h| !h.is_finished());
                    handlers.push(handle);
                }
            }
            for handle in handlers {
                let _ = handle.join();
            }
        })?
    };
    Ok(ServerHandle { addr, stopping, conns, accept: Some(accept) })
}

/// The server side of one connection: the socket wrapped with the
/// [`FaultSite::NetRead`]/[`FaultSite::NetWrite`] injection points and
/// timeout accounting (a read/write that trips the socket timeout bumps the
/// `conn_timeouts` metric as the connection is reaped). All handlers do
/// their socket I/O through this wrapper — with an empty plan it forwards
/// straight to the socket.
struct ConnStream {
    inner: TcpStream,
    faults: FaultPlan,
    service: Arc<LocatorService>,
}

impl ConnStream {
    fn try_clone(&self) -> io::Result<ConnStream> {
        Ok(ConnStream {
            inner: self.inner.try_clone()?,
            faults: self.faults.clone(),
            service: Arc::clone(&self.service),
        })
    }

    /// Tags a socket-level failure: a timeout kind means this connection is
    /// about to be reaped by the read/write deadline.
    fn note_if_timeout(&self, e: &io::Error) {
        if matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut) {
            self.service.note_conn_timeout();
        }
    }
}

impl Read for &ConnStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self.faults.check(FaultSite::NetRead) {
            Some(FaultKind::IoError) => {
                return Err(io::Error::new(
                    io::ErrorKind::ConnectionReset,
                    "injected socket read fault",
                ));
            }
            // A short read models a peer vanishing mid-frame: EOF now.
            Some(FaultKind::ShortRead) => return Ok(0),
            Some(FaultKind::Stall(ms)) => std::thread::sleep(Duration::from_millis(ms)),
            Some(_) | None => {}
        }
        match (&self.inner).read(buf) {
            Ok(n) => Ok(n),
            Err(e) => {
                self.note_if_timeout(&e);
                Err(e)
            }
        }
    }
}

impl Write for &ConnStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self.faults.check(FaultSite::NetWrite) {
            Some(FaultKind::IoError) => {
                return Err(io::Error::new(
                    io::ErrorKind::BrokenPipe,
                    "injected socket write fault",
                ));
            }
            // `write_all` turns the zero-length write into `WriteZero`.
            Some(FaultKind::ShortRead) => return Ok(0),
            Some(FaultKind::Stall(ms)) => std::thread::sleep(Duration::from_millis(ms)),
            Some(_) | None => {}
        }
        match (&self.inner).write(buf) {
            Ok(n) => Ok(n),
            Err(e) => {
                self.note_if_timeout(&e);
                Err(e)
            }
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        (&self.inner).flush()
    }
}

impl Read for ConnStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        (&*self).read(buf)
    }
}

impl Write for ConnStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        (&*self).write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        (&*self).flush()
    }
}

/// Byte counter around a reader, shared with the connection handler so it
/// knows how much of a streamed payload the service actually consumed.
struct CountingReader<R> {
    inner: R,
    consumed: Arc<AtomicU64>,
}

impl<R: Read> Read for CountingReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.consumed.fetch_add(n as u64, Ordering::Relaxed);
        Ok(n)
    }
}

fn handle_connection(service: &LocatorService, stream: &ConnStream, cfg: &ServerConfig) {
    loop {
        // No buffering on the request side: for streamed ingest the service
        // reads the payload straight off this socket, so the handler must
        // never read ahead of the frame. The magic dispatches between
        // locate and admin frames.
        let mut magic = [0u8; 4];
        if stream.take(4).read_exact(&mut magic).is_err() {
            return; // clean close between frames, or a dead socket
        }
        let ok = match magic {
            REQUEST_MAGIC => match read_request_tail(stream, cfg.max_frame_samples) {
                Ok(header) => serve_locate(service, stream, &header),
                // Malformed frame: no way to know where the payload ends,
                // so drop the connection.
                Err(_) => return,
            },
            ADMIN_MAGIC => match read_admin_tail(stream) {
                Ok(admin) => serve_admin(service, stream, &admin, cfg),
                Err(_) => return,
            },
            found => {
                // Out of sync; answer once so the peer sees a typed refusal.
                let _ = found;
                let _ = write_response(stream, Status::Invalid, &[]);
                return;
            }
        };
        if !ok {
            return;
        }
    }
}

fn serve_locate(service: &LocatorService, stream: &ConnStream, header: &RequestHeader) -> bool {
    let options = RequestOptions {
        deadline: (header.deadline_ms > 0)
            .then(|| Duration::from_millis(u64::from(header.deadline_ms))),
        ..RequestOptions::default()
    };
    if header.streamed() {
        serve_streamed(service, stream, header, options)
    } else {
        serve_buffered(service, stream, header, options)
    }
}

/// Executes an admin frame against the service's registry. A successful
/// swap answers `Ok` with the new generation as `starts[0]`.
fn serve_admin(
    service: &LocatorService,
    stream: &ConnStream,
    admin: &AdminRequest,
    cfg: &ServerConfig,
) -> bool {
    if !cfg.allow_admin {
        return write_response(stream, Status::AdminDenied, &[]).is_ok();
    }
    let registry = service.registry();
    let (status, starts): (Status, Vec<usize>) = match admin.op {
        AdminOp::Swap => match registry.swap(&admin.name, &admin.path) {
            Ok(generation) => (Status::Ok, vec![generation as usize]),
            Err(e) => (registry_status(&e), Vec::new()),
        },
        AdminOp::Evict => match registry.evict(&admin.name) {
            Ok(()) => (Status::Ok, Vec::new()),
            Err(e) => (registry_status(&e), Vec::new()),
        },
    };
    write_response(stream, status, &starts).is_ok()
}

fn registry_status(e: &RegistryError) -> Status {
    match e {
        RegistryError::UnknownModel { .. } => Status::UnknownModel,
        RegistryError::Load { .. } | RegistryError::Quarantined { .. } => Status::ModelUnavailable,
        RegistryError::AlreadyRegistered { .. } | RegistryError::NotEvictable { .. } => {
            Status::Invalid
        }
    }
}

/// In-memory path: buffer the payload, submit, answer. Returns `false` when
/// the connection should close.
fn serve_buffered(
    service: &LocatorService,
    stream: &ConnStream,
    header: &RequestHeader,
    options: RequestOptions,
) -> bool {
    let mut samples = vec![0.0f32; header.sample_count as usize];
    if sca_trace::io::read_f32s_le_into(stream, &mut samples).is_err() {
        return false; // truncated payload: peer is gone or out of sync
    }
    let trace = sca_trace::Trace::from_samples(samples);
    match service.submit_trace(&header.model, trace, options) {
        Ok(ticket) => respond_with_ticket(stream, ticket),
        Err(rejected) => write_response(stream, rejection_status(&rejected), &[]).is_ok(),
    }
}

/// Streamed path: hand the socket to the service through a
/// [`sca_trace::SequentialTraceSource`], wait, drain the unread payload
/// tail (samples past the last full window), answer.
fn serve_streamed(
    service: &LocatorService,
    stream: &ConnStream,
    header: &RequestHeader,
    options: RequestOptions,
) -> bool {
    let payload_bytes = header.sample_count * 4;
    let Ok(ingest) = stream.try_clone() else { return false };
    let consumed = Arc::new(AtomicU64::new(0));
    let reader =
        CountingReader { inner: ingest.take(payload_bytes), consumed: Arc::clone(&consumed) };
    match service.submit_reader(&header.model, reader, header.sample_count as usize, options) {
        Ok(ticket) => {
            let result = ticket.wait();
            // After a source failure the stream position is unknowable (the
            // ingest hit EOF or an error mid-payload): don't try to drain,
            // answer with the typed status, then close the connection.
            if let Err(ServiceError::Source(_)) = &result {
                let _ = write_response(stream, Status::SourceFailed, &[]);
                return false;
            }
            // The engine never reads the trailing samples that don't fill a
            // window; consume them so the next frame starts where the peer
            // thinks it does.
            let leftover = payload_bytes - consumed.load(Ordering::Relaxed).min(payload_bytes);
            if drain(stream, leftover).is_err() {
                return false;
            }
            respond_with_result(stream, result)
        }
        Err(rejected) => {
            // The peer sends the payload regardless; drain it to stay in
            // sync on the frame boundary.
            drain(stream, payload_bytes).is_ok()
                && write_response(stream, rejection_status(&rejected), &[]).is_ok()
        }
    }
}

fn respond_with_ticket(stream: &ConnStream, ticket: crate::Ticket) -> bool {
    respond_with_result(stream, ticket.wait())
}

fn respond_with_result(
    stream: &ConnStream,
    result: Result<crate::LocateResult, ServiceError>,
) -> bool {
    match result {
        Ok(located) => write_response(stream, Status::Ok, &located.starts).is_ok(),
        Err(e) => write_response(stream, failure_status(&e), &[]).is_ok(),
    }
}

fn rejection_status(rejected: &Rejected) -> Status {
    match rejected {
        Rejected::QueueFull { .. } => Status::QueueFull,
        Rejected::ShuttingDown => Status::ShuttingDown,
        Rejected::UnknownModel { .. } => Status::UnknownModel,
        Rejected::ModelUnavailable { .. } => Status::ModelUnavailable,
        Rejected::Overloaded { .. } => Status::Overloaded,
        Rejected::TooLong { .. } | Rejected::InvalidRequest(_) => Status::Invalid,
    }
}

fn failure_status(e: &ServiceError) -> Status {
    match e {
        ServiceError::DeadlineExceeded => Status::DeadlineExceeded,
        ServiceError::Source(_) => Status::SourceFailed,
        ServiceError::WorkerFailed => Status::WorkerFailed,
        ServiceError::Stopped => Status::ShuttingDown,
    }
}

fn drain(stream: &ConnStream, bytes: u64) -> io::Result<()> {
    let copied = io::copy(&mut stream.take(bytes), &mut io::sink())?;
    if copied < bytes {
        return Err(io::ErrorKind::UnexpectedEof.into());
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

/// Retry policy for [`Client`].
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Total attempts per `locate` call (first try included). `1` disables
    /// retrying entirely.
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles per retry.
    pub base_backoff: Duration,
    /// Ceiling on the per-retry backoff before jitter.
    pub max_backoff: Duration,
    /// Seed for the deterministic backoff jitter (each retry sleeps a
    /// pseudo-random fraction in `[1/2, 1]` of the capped backoff).
    pub backoff_seed: u64,
    /// Bound on the start count a response may declare.
    pub max_starts: u64,
}

impl Default for ClientConfig {
    fn default() -> Self {
        Self {
            max_attempts: 3,
            base_backoff: Duration::from_millis(20),
            max_backoff: Duration::from_millis(500),
            backoff_seed: 0,
            max_starts: 1 << 24,
        }
    }
}

/// Terminal failure from a retrying [`Client`] call.
#[derive(Debug)]
pub enum ClientError {
    /// Every transport attempt failed; `last` is the error from the final
    /// attempt.
    Exhausted {
        /// How many attempts were made before giving up.
        attempts: u32,
        /// The failure from the last attempt.
        last: FrameError,
    },
    /// The server answered with a frame the client refuses to accept
    /// (bad magic, oversized counts, unsupported version…). Never retried:
    /// the transport worked, the conversation is broken.
    Protocol(FrameError),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Exhausted { attempts, last } => {
                write!(f, "gave up after {attempts} attempts (last error: {last})")
            }
            Self::Protocol(e) => write!(f, "protocol error: {e}"),
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Exhausted { last, .. } | Self::Protocol(last) => Some(last),
        }
    }
}

impl ClientError {
    fn from_frame(e: FrameError, attempts: u32, exhausted: bool) -> Self {
        if exhausted {
            Self::Exhausted { attempts, last: e }
        } else {
            Self::Protocol(e)
        }
    }
}

/// A blocking client for the frame protocol with bounded reconnect.
///
/// `locate` is idempotent on the server, so transport failures (socket
/// errors, truncated responses — e.g. a connection reaped by the server's
/// read timeout) are retried up to [`ClientConfig::max_attempts`] times
/// with a fresh connection and exponential backoff plus deterministic
/// jitter. Admin calls (`swap`, `evict`) are *not* idempotent and always
/// run exactly one attempt.
#[derive(Debug)]
pub struct Client {
    addr: SocketAddr,
    cfg: ClientConfig,
    stream: Option<TcpStream>,
    rng: u64,
}

impl Client {
    /// Connects to a serving [`LocatorService`] with the default retry
    /// policy.
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        Self::connect_with(addr, ClientConfig::default())
    }

    /// Connects with an explicit retry policy.
    ///
    /// # Errors
    ///
    /// Propagates connection failures.
    pub fn connect_with(addr: SocketAddr, cfg: ClientConfig) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        let rng = cfg.backoff_seed;
        Ok(Self { addr, cfg, stream: Some(stream), rng })
    }

    fn ensure_connected(&mut self) -> Result<&TcpStream, FrameError> {
        if self.stream.is_none() {
            self.stream =
                Some(TcpStream::connect(self.addr).map_err(|e| FrameError::Io(e.to_string()))?);
        }
        Ok(self.stream.as_ref().expect("stream was just connected"))
    }

    /// Sleeps the capped exponential backoff for 0-based retry `retry`,
    /// jittered to a deterministic fraction in `[1/2, 1]`.
    fn backoff(&mut self, retry: u32) {
        let base = self.cfg.base_backoff.saturating_mul(1u32 << retry.min(16));
        let capped = base.min(self.cfg.max_backoff).as_nanos() as u64;
        self.rng = self.rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let jitter = splitmix64(self.rng);
        // Map to [1/2, 1]: half the range is fixed, half is scaled by rng.
        let nanos = capped / 2 + (((capped / 2) as u128 * (jitter as u128)) >> 64) as u64;
        std::thread::sleep(Duration::from_nanos(nanos));
    }

    /// Sends one locate request against the named model (buffered or
    /// streamed per `flags`) and blocks for the response, transparently
    /// reconnecting and retrying on transport failures.
    ///
    /// # Errors
    ///
    /// [`ClientError::Exhausted`] after `max_attempts` transport failures,
    /// [`ClientError::Protocol`] on a malformed response (never retried).
    pub fn locate(
        &mut self,
        model: &str,
        flags: u8,
        deadline_ms: u32,
        samples: &[f32],
    ) -> Result<Response, ClientError> {
        let max_starts = self.cfg.max_starts;
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            let result = self.ensure_connected().and_then(|stream| {
                write_request(stream, model, flags, deadline_ms, samples)?;
                read_response(stream, max_starts)
            });
            match result {
                Ok(response) => return Ok(response),
                Err(e @ (FrameError::Io(_) | FrameError::Truncated)) => {
                    // The connection is in an unknown state; retry on a
                    // fresh one.
                    self.stream = None;
                    if attempt >= self.cfg.max_attempts {
                        return Err(ClientError::from_frame(e, attempt, true));
                    }
                    self.backoff(attempt - 1);
                }
                Err(e) => return Err(ClientError::from_frame(e, attempt, false)),
            }
        }
    }

    /// Asks the server to hot-swap `model` to the model file at the
    /// server-local `path` and blocks for the response; on [`Status::Ok`]
    /// the new generation is `starts[0]`. Requires
    /// [`ServerConfig::allow_admin`]. Never retried (a lost response
    /// doesn't reveal whether the swap landed).
    ///
    /// # Errors
    ///
    /// Returns a typed [`FrameError`] on socket failure or a malformed
    /// response.
    pub fn swap(&mut self, model: &str, path: &str) -> Result<Response, FrameError> {
        let max_starts = self.cfg.max_starts;
        let stream = self.ensure_connected()?;
        write_admin_request(stream, AdminOp::Swap, model, path)?;
        read_response(stream, max_starts)
    }

    /// Asks the server to evict `model`'s resident weights and blocks for
    /// the response. Requires [`ServerConfig::allow_admin`]. Never retried.
    ///
    /// # Errors
    ///
    /// Returns a typed [`FrameError`] on socket failure or a malformed
    /// response.
    pub fn evict(&mut self, model: &str) -> Result<Response, FrameError> {
        let max_starts = self.cfg.max_starts;
        let stream = self.ensure_connected()?;
        write_admin_request(stream, AdminOp::Evict, model, "")?;
        read_response(stream, max_starts)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn request_header_roundtrip() {
        let mut frame = Vec::new();
        write_request(&mut frame, "xmega-aes", FLAG_STREAMED, 250, &[1.0, -2.5, 0.0]).unwrap();
        let mut cursor = Cursor::new(frame);
        let header = read_request_header(&mut cursor, 1 << 20).unwrap();
        assert_eq!(
            header,
            RequestHeader {
                model: "xmega-aes".into(),
                flags: FLAG_STREAMED,
                deadline_ms: 250,
                sample_count: 3
            }
        );
        assert!(header.streamed());
        let mut payload = [0.0f32; 3];
        sca_trace::io::read_f32s_le_into(&mut cursor, &mut payload).unwrap();
        assert_eq!(payload, [1.0, -2.5, 0.0]);
    }

    #[test]
    fn admin_frame_roundtrip() {
        let mut frame = Vec::new();
        write_admin_request(&mut frame, AdminOp::Swap, "xmega-aes", "/models/v2.sclm").unwrap();
        let got = read_admin_request(Cursor::new(frame)).unwrap();
        assert_eq!(
            got,
            AdminRequest {
                op: AdminOp::Swap,
                name: "xmega-aes".into(),
                path: "/models/v2.sclm".into()
            }
        );

        let mut frame = Vec::new();
        write_admin_request(&mut frame, AdminOp::Evict, "xmega-aes", "").unwrap();
        let got = read_admin_request(Cursor::new(frame)).unwrap();
        assert_eq!(
            got,
            AdminRequest { op: AdminOp::Evict, name: "xmega-aes".into(), path: String::new() }
        );
    }

    #[test]
    fn invalid_names_are_typed() {
        // An empty model name is refused at write time…
        let err = write_request(&mut Vec::new(), "", 0, 0, &[]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        // …and a hand-rolled frame with a zero name length at read time.
        let mut frame = Vec::new();
        write_request(&mut frame, "x", 0, 0, &[]).unwrap();
        frame[5] = 0; // name length
        frame.truncate(REQUEST_HEADER_LEN);
        let err = read_request_header(Cursor::new(frame), 10).unwrap_err();
        assert!(matches!(err, FrameError::InvalidName(_)), "{err:?}");
        // Swap without a path is refused too.
        let mut frame = Vec::new();
        write_admin_request(&mut frame, AdminOp::Swap, "x", "p").unwrap();
        frame[8..10].copy_from_slice(&0u16.to_le_bytes()); // path length
        frame.truncate(ADMIN_HEADER_LEN + 1);
        let err = read_admin_request(Cursor::new(frame)).unwrap_err();
        assert!(matches!(err, FrameError::InvalidName(_)), "{err:?}");
    }

    #[test]
    fn response_roundtrip() {
        let mut frame = Vec::new();
        write_response(&mut frame, Status::Ok, &[7, 4096, 0]).unwrap();
        let got = read_response(Cursor::new(frame), 1 << 20).unwrap();
        assert_eq!(got, Response { status: Status::Ok, starts: vec![7, 4096, 0] });
    }

    #[test]
    fn bad_magic_is_typed() {
        let err = read_request_header(Cursor::new(vec![0u8; REQUEST_HEADER_LEN]), 10).unwrap_err();
        assert_eq!(err, FrameError::BadMagic { found: [0, 0, 0, 0] });
    }

    #[test]
    fn oversized_declared_count_is_refused_before_allocation() {
        let mut frame = Vec::new();
        write_request(&mut frame, "m", 0, 0, &[0.0; 64]).unwrap();
        let err = read_request_header(Cursor::new(frame), 63).unwrap_err();
        assert_eq!(err, FrameError::Oversized { declared: 64, max: 63 });

        let mut resp = Vec::new();
        write_response(&mut resp, Status::Ok, &[1, 2, 3, 4]).unwrap();
        let err = read_response(Cursor::new(resp), 3).unwrap_err();
        assert_eq!(err, FrameError::Oversized { declared: 4, max: 3 });
    }

    #[test]
    fn truncated_frames_are_typed() {
        let mut frame = Vec::new();
        write_response(&mut frame, Status::Ok, &[1, 2, 3]).unwrap();
        for cut in [1, RESPONSE_HEADER_LEN - 1, RESPONSE_HEADER_LEN + 7] {
            let err = read_response(Cursor::new(&frame[..cut]), 10).unwrap_err();
            assert_eq!(err, FrameError::Truncated, "cut at {cut}");
        }
    }

    #[test]
    fn unsupported_version_is_typed() {
        let mut frame = Vec::new();
        write_request(&mut frame, "m", 0, 0, &[]).unwrap();
        frame[4] = 9;
        let err = read_request_header(Cursor::new(frame), 10).unwrap_err();
        assert_eq!(err, FrameError::UnsupportedVersion(9));
    }
}
