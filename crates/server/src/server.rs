//! The compression service: a bounded acceptor → worker architecture
//! over `std::net` + scoped threads.
//!
//! ```text
//!            accept()            bounded queue             workers
//!  clients ───────────▶ acceptor ─────────────▶ [conn conn] ─▶ pool job 0 (engine)
//!                        │  full? reject with Busy           ─▶ pool job 1 (engine)
//!                        ▼                                      …
//!                     metrics
//! ```
//!
//! The worker side runs on [`cuszp_parallel::WorkerPool::run_with_state`]:
//! each pool job is one worker loop owning a long-lived
//! [`PipelineEngine`], so every request a worker serves reuses the same
//! scratch arenas (the PR 3 engine contract, extended from
//! chunks-within-one-call to requests-within-one-process). Backpressure
//! is explicit — when the connection queue is full the acceptor answers
//! a typed `Busy` error frame instead of queueing unboundedly — and a
//! malformed frame is answered with a typed error and at worst a closed
//! connection, never a dead process. Shutdown is cooperative: the
//! `shutdown` op (or [`ServerHandle::shutdown`]) flips a flag, the
//! acceptor stops accepting, and workers drain queued + in-flight
//! connections until a drain deadline.

use crate::cache::SlabCache;
use crate::metrics::ServiceMetrics;
use crate::ring::Ring;
use crate::store::{ShardBackend, StoreBackendConfig};
use crate::wire::{
    fnv1a, read_frame, write_frame, ClusterIdentity, CompressRequest, DecompressMode,
    DecompressRequest, DecompressResponse, ErrorCode, ErrorResponse, GetRangeRequest,
    GetShardRequest, GetShardResponse, Op, PutShardRequest, RemoteInfo, ShardListResponse,
    WireError, FLAG_ERROR, FLAG_RESPONSE, MAX_FRAME_PAYLOAD, PUT_FLAG_REPAIR,
};
use cuszp_core::{
    is_chunked_archive, Archive, ChunkedArchive, Compressor, Config, CuszpError, Dims, Dtype,
    LosslessStage, PipelineEngine, PortableScanReport, Predictor, RangeSpec, ReconstructEngine,
    Scalar,
};
use cuszp_parallel::{WorkerPool, DEFAULT_CHUNK_ELEMS};
use std::collections::VecDeque;
use std::net::{TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// How often blocked workers and the acceptor re-check the shutdown
/// flag. Also the idle-poll granularity on open connections.
const POLL_INTERVAL: Duration = Duration::from_millis(100);

/// Server tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Worker threads (each owns one [`PipelineEngine`]).
    pub workers: usize,
    /// Connections allowed to wait in the queue; beyond this the
    /// acceptor answers `Busy`.
    pub queue_capacity: usize,
    /// A connection is closed after this long without a complete frame.
    pub read_timeout: Duration,
    /// Per-response write timeout.
    pub write_timeout: Duration,
    /// After shutdown begins, connected clients get this long to finish.
    pub drain_deadline: Duration,
    /// Frame payload cap for this server (≤ [`MAX_FRAME_PAYLOAD`]).
    pub max_frame_payload: usize,
    /// Byte budget for the hot-slab range cache; 0 disables caching.
    pub cache_bytes: usize,
    /// Backoff hint carried by `Busy` rejections (`retry_after_ms`).
    pub busy_retry_after: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            queue_capacity: 16,
            read_timeout: Duration::from_secs(10),
            write_timeout: Duration::from_secs(10),
            drain_deadline: Duration::from_secs(5),
            max_frame_payload: MAX_FRAME_PAYLOAD,
            cache_bytes: 64 << 20,
            busy_retry_after: Duration::from_millis(100),
        }
    }
}

/// Cluster membership for one node: its identity and the ring it
/// routes by. [`ServerConfig`] stays `Copy`-tunable; this rides
/// alongside it through [`Server::bind_cluster`].
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// This node's id. Must name a member of `ring`.
    pub node_id: u64,
    /// The topology this node serves and routes by.
    pub ring: Ring,
    /// Shard persistence: in-memory, or the durable log-structured
    /// store rooted at a data directory.
    pub backend: StoreBackendConfig,
}

/// Per-node cluster state: identity, topology, and the shard store.
#[derive(Debug)]
struct ClusterCtx {
    node_id: u64,
    ring: Ring,
    store: Mutex<Box<dyn ShardBackend>>,
}

/// State shared by the acceptor, the workers, and external handles.
#[derive(Debug)]
struct Shared {
    config: ServerConfig,
    metrics: ServiceMetrics,
    shutdown: AtomicBool,
    /// Set when shutdown begins: the instant the drain window closes.
    drain_until: Mutex<Option<Instant>>,
    queue: Mutex<VecDeque<TcpStream>>,
    queue_cv: Condvar,
    /// Hot-slab cache for `get_range`. Locked only for lookup/insert;
    /// chunk decoding always happens outside the critical section.
    cache: Mutex<SlabCache>,
    /// `Some` when serving as a cluster node: shard ops route here.
    cluster: Option<ClusterCtx>,
}

impl Shared {
    fn is_shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::Relaxed)
    }

    fn begin_shutdown(&self) {
        let mut until = self.drain_until.lock().expect("drain lock poisoned");
        if until.is_none() {
            *until = Some(Instant::now() + self.config.drain_deadline);
        }
        drop(until);
        self.shutdown.store(true, Ordering::Relaxed);
        self.queue_cv.notify_all();
    }

    fn drain_expired(&self) -> bool {
        self.drain_until
            .lock()
            .expect("drain lock poisoned")
            .is_some_and(|t| Instant::now() >= t)
    }

    /// The backoff hint to carry on shed requests. While draining, the
    /// hint is the remaining drain window (after which a restarted
    /// server could bind again); otherwise the configured busy backoff.
    fn retry_after_hint(&self) -> Duration {
        let drain_remaining = self
            .drain_until
            .lock()
            .expect("drain lock poisoned")
            .map(|t| t.saturating_duration_since(Instant::now()));
        match drain_remaining {
            Some(rem) => rem.max(self.config.busy_retry_after),
            None => self.config.busy_retry_after,
        }
    }
}

/// A cloneable control handle: shut the server down or sample its
/// metrics from outside the serve loop (e.g. a signal handler shim or a
/// test harness).
#[derive(Debug, Clone)]
pub struct ServerHandle(Arc<Shared>);

impl ServerHandle {
    /// Begins graceful shutdown: stop accepting, drain, return.
    pub fn shutdown(&self) {
        self.0.begin_shutdown();
    }

    /// True once shutdown has begun.
    pub fn is_shutting_down(&self) -> bool {
        self.0.is_shutting_down()
    }

    /// Samples the live metrics.
    pub fn stats(&self) -> crate::metrics::StatsSnapshot {
        self.0.metrics.snapshot()
    }

    /// Stored shard slots on this node (0 when not clustered).
    pub fn shard_count(&self) -> usize {
        self.0
            .cluster
            .as_ref()
            .map(|c| c.store.lock().expect("store lock poisoned").len())
            .unwrap_or(0)
    }

    /// Wipes the node's shard store — the test hook for simulating a
    /// node that lost its disk and must be healed by scrub. (The
    /// durable backend deletes its segment files too.)
    pub fn clear_shards(&self) {
        if let Some(c) = &self.0.cluster {
            let _ = c.store.lock().expect("store lock poisoned").clear();
        }
    }

    /// The shard backend kind (`"memory"` / `"durable"`); `None` when
    /// not clustered.
    pub fn store_kind(&self) -> Option<&'static str> {
        self.0
            .cluster
            .as_ref()
            .map(|c| c.store.lock().expect("store lock poisoned").kind())
    }

    /// The durable backend's boot-recovery summary (`None` for the
    /// memory backend or when not clustered).
    pub fn store_recovery_summary(&self) -> Option<String> {
        self.0.cluster.as_ref().and_then(|c| {
            c.store
                .lock()
                .expect("store lock poisoned")
                .recovery_summary()
        })
    }
}

/// The compression service.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    shared: Arc<Shared>,
}

impl Server {
    /// Binds the service (use port 0 for an ephemeral port; read it
    /// back with [`Server::local_addr`]).
    pub fn bind(addr: impl ToSocketAddrs, config: ServerConfig) -> std::io::Result<Server> {
        Server::bind_cluster(addr, config, None)
    }

    /// Binds the service as a cluster node: shard ops (`put`, `get`,
    /// `list_shards`) and the `ring` op are served, `health` carries
    /// the node id + ring epoch, and requests routed under a stale
    /// epoch or to a non-owner are answered `Redirect`/`NotMine`.
    pub fn bind_cluster(
        addr: impl ToSocketAddrs,
        config: ServerConfig,
        cluster: Option<ClusterConfig>,
    ) -> std::io::Result<Server> {
        let mut cluster_ctx = None;
        if let Some(c) = cluster {
            if c.ring.node(c.node_id).is_none() {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    format!("node id {} is not a member of the ring", c.node_id),
                ));
            }
            // Opening the durable backend replays its segments here, so
            // a node that binds has already re-verified every shard it
            // will serve (the boot scan is `list_shards`-equivalent).
            let store = c
                .backend
                .open()
                .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
            cluster_ctx = Some(ClusterCtx {
                node_id: c.node_id,
                ring: c.ring,
                store: Mutex::new(store),
            });
        }
        let listener = TcpListener::bind(addr)?;
        let config = ServerConfig {
            workers: config.workers.max(1),
            max_frame_payload: config.max_frame_payload.min(MAX_FRAME_PAYLOAD),
            ..config
        };
        Ok(Server {
            listener,
            shared: Arc::new(Shared {
                config,
                metrics: ServiceMetrics::new(),
                shutdown: AtomicBool::new(false),
                drain_until: Mutex::new(None),
                queue: Mutex::new(VecDeque::new()),
                queue_cv: Condvar::new(),
                cache: Mutex::new(SlabCache::new(config.cache_bytes)),
                cluster: cluster_ctx,
            }),
        })
    }

    /// The bound address.
    pub fn local_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// A control handle usable from other threads.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle(self.shared.clone())
    }

    /// Runs the service until graceful shutdown completes. The acceptor
    /// runs on the calling thread's scope; request workers run as pool
    /// jobs, each owning one reusable [`PipelineEngine`].
    pub fn serve(self) -> std::io::Result<()> {
        self.listener.set_nonblocking(true)?;
        let shared = &self.shared;
        let listener = &self.listener;
        std::thread::scope(|s| {
            let acceptor = s.spawn(move || accept_loop(listener, shared));
            let pool = WorkerPool::new(shared.config.workers);
            pool.run_with_state(shared.config.workers, PipelineEngine::new, |_, engine| {
                worker_loop(shared, engine)
            });
            acceptor.join().expect("acceptor panicked")
        });
        Ok(())
    }
}

/// Accepts connections until shutdown, enqueueing each for a worker —
/// or rejecting with a typed `Busy` frame when the queue is at
/// capacity (the explicit-backpressure contract).
fn accept_loop(listener: &TcpListener, shared: &Shared) {
    loop {
        if shared.is_shutting_down() {
            // Wake any workers parked on an empty queue.
            shared.queue_cv.notify_all();
            return;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                shared.metrics.connections_total.incr();
                // Accepted sockets must block again regardless of what
                // they inherited from the nonblocking listener.
                if stream.set_nonblocking(false).is_err() {
                    continue;
                }
                let mut queue = shared.queue.lock().expect("queue lock poisoned");
                if queue.len() >= shared.config.queue_capacity {
                    drop(queue);
                    shared.metrics.rejected_busy.incr();
                    reject_busy(stream, shared);
                } else {
                    queue.push_back(stream);
                    drop(queue);
                    shared.queue_cv.notify_one();
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(POLL_INTERVAL.min(Duration::from_millis(20)));
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => std::thread::sleep(POLL_INTERVAL),
        }
    }
}

/// Best-effort peek at the first frame header of a rejected connection
/// so the `Busy` answer can echo the request's id and op. Returns
/// `(op, req_id)` when a structurally valid header was already readable
/// within the (short) budget; pipelining clients then correlate the
/// rejection with the request that caused it.
fn peek_rejected_header(stream: &TcpStream, budget: Duration) -> Option<(u8, u64)> {
    use crate::wire::{FRAME_HEADER_BYTES, WIRE_MAGIC, WIRE_VERSION, WIRE_VERSION_MIN};
    stream.set_read_timeout(Some(budget)).ok()?;
    let mut header = [0u8; FRAME_HEADER_BYTES];
    // Peek (never consume): the client's frame stays intact on the
    // socket, and a header that doesn't fully arrive within the budget
    // just means we answer with id 0 as before.
    let deadline = Instant::now() + budget;
    loop {
        match stream.peek(&mut header) {
            Ok(got) if got >= FRAME_HEADER_BYTES => break,
            Ok(_) if Instant::now() < deadline => {
                std::thread::sleep(Duration::from_millis(2));
            }
            _ => return None,
        }
    }
    let magic = u32::from_le_bytes(header[0..4].try_into().unwrap());
    if magic != WIRE_MAGIC {
        return None;
    }
    let version = u16::from_le_bytes(header[4..6].try_into().unwrap());
    if !(WIRE_VERSION_MIN..=WIRE_VERSION).contains(&version) {
        return None;
    }
    let req_id = u64::from_le_bytes(header[8..16].try_into().unwrap());
    Some((header[6], req_id))
}

/// Answers one `Busy` error frame and drops the connection. When the
/// client's first frame header is already readable, its request id and
/// op are echoed so pipelining clients can correlate the rejection;
/// id 0 only when nothing parsed.
fn reject_busy(stream: TcpStream, shared: &Shared) {
    let _ = stream.set_write_timeout(Some(shared.config.write_timeout));
    let (op, req_id) =
        peek_rejected_header(&stream, Duration::from_millis(50)).unwrap_or((Op::Ping as u8, 0));
    let busy = ErrorResponse::new(
        ErrorCode::Busy,
        format!(
            "request queue full ({} waiting); retry later",
            shared.config.queue_capacity
        ),
    )
    .with_retry_after(shared.retry_after_hint());
    let mut stream = stream;
    let _ = write_frame(
        &mut stream,
        op,
        FLAG_RESPONSE | FLAG_ERROR,
        req_id,
        &busy.encode(),
    );
}

/// One worker: pull connections off the queue and serve each until the
/// client closes (or timeouts/drain end it). Exits when shutdown has
/// begun and the queue is drained — or immediately once the drain
/// deadline passes.
fn worker_loop(shared: &Shared, engine: &mut PipelineEngine) {
    loop {
        let conn = {
            let mut queue = shared.queue.lock().expect("queue lock poisoned");
            loop {
                if let Some(c) = queue.pop_front() {
                    break Some(c);
                }
                if shared.is_shutting_down() {
                    break None;
                }
                let (guard, _) = shared
                    .queue_cv
                    .wait_timeout(queue, POLL_INTERVAL)
                    .expect("queue lock poisoned");
                queue = guard;
            }
        };
        match conn {
            Some(stream) => serve_connection(stream, shared, engine),
            None => return,
        }
        if shared.drain_expired() {
            return;
        }
    }
}

/// Serves every frame on one connection. A malformed frame gets a typed
/// error response and closes the connection; request-level failures get
/// typed error responses and the connection keeps serving.
fn serve_connection(mut stream: TcpStream, shared: &Shared, engine: &mut PipelineEngine) {
    let _active = shared.metrics.connection_guard();
    let _ = stream.set_nodelay(true);
    if stream
        .set_write_timeout(Some(shared.config.write_timeout))
        .is_err()
    {
        return;
    }
    let mut last_frame = Instant::now();
    loop {
        if shared.drain_expired() {
            return;
        }
        // Idle-poll via peek so the frame reader never consumes partial
        // headers on a timeout: wait for the first byte of a frame under
        // a short poll, then grant the full read timeout to the frame.
        if stream.set_read_timeout(Some(POLL_INTERVAL)).is_err() {
            return;
        }
        let mut probe = [0u8; 1];
        match stream.peek(&mut probe) {
            Ok(0) => return, // clean close
            Ok(_) => {}
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if last_frame.elapsed() >= shared.config.read_timeout {
                    return; // idle connection
                }
                continue;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => return,
        }
        if stream
            .set_read_timeout(Some(shared.config.read_timeout))
            .is_err()
        {
            return;
        }
        match read_frame(&mut stream, shared.config.max_frame_payload) {
            Ok(frame) => {
                last_frame = Instant::now();
                if !handle_frame(&mut stream, &frame, shared, engine) {
                    return;
                }
            }
            Err(WireError::Closed) => return,
            Err(WireError::Io(_)) => return, // timeout mid-frame or hard I/O error
            Err(wire_err) => {
                // Structurally bad frame: answer with a typed error,
                // then close — the stream cannot be resynchronized.
                shared.metrics.malformed_frames.incr();
                let code = match wire_err {
                    WireError::UnsupportedVersion(_) => ErrorCode::UnsupportedVersion,
                    WireError::FrameTooLarge { .. } => ErrorCode::FrameTooLarge,
                    _ => ErrorCode::MalformedFrame,
                };
                let resp = ErrorResponse::new(code, wire_err.to_string());
                let _ = write_frame(
                    &mut stream,
                    Op::Ping as u8,
                    FLAG_RESPONSE | FLAG_ERROR,
                    0,
                    &resp.encode(),
                );
                return;
            }
        }
    }
}

/// Dispatches one well-framed request; returns false when the
/// connection should close. Every outcome is a response frame carrying
/// the request's id.
fn handle_frame(
    stream: &mut TcpStream,
    frame: &crate::wire::Frame,
    shared: &Shared,
    engine: &mut PipelineEngine,
) -> bool {
    let Some(op) = Op::from_u8(frame.op) else {
        shared.metrics.malformed_frames.incr();
        let resp = ErrorResponse::new(
            ErrorCode::UnknownOp,
            format!("op tag {} names no operation", frame.op),
        );
        return write_frame(
            stream,
            frame.op,
            FLAG_RESPONSE | FLAG_ERROR,
            frame.req_id,
            &resp.encode(),
        )
        .is_ok();
    };
    let t0 = Instant::now();
    let result = if frame.is_response() {
        Err(ErrorResponse::new(
            ErrorCode::BadRequest,
            "a server does not accept response frames",
        ))
    } else if shared.is_shutting_down() && sheds_while_draining(op) {
        // Graceful load shedding: a draining server refuses new work
        // with a typed, retryable answer instead of doing half a job
        // against the drain deadline. Probes (ping/health/stats) and
        // repeated shutdowns still get real answers.
        shared.metrics.rejected_unavailable.incr();
        Err(
            ErrorResponse::new(ErrorCode::Unavailable, "server is draining for shutdown")
                .with_retry_after(shared.retry_after_hint()),
        )
    } else {
        handle_op(op, &frame.payload, shared, engine)
    };
    let (payload, flags, errored) = match result {
        Ok(p) => (p, FLAG_RESPONSE, false),
        Err(e) => (e.encode(), FLAG_RESPONSE | FLAG_ERROR, true),
    };
    shared.metrics.record_request(
        op,
        frame.payload.len(),
        payload.len(),
        t0.elapsed(),
        errored,
    );
    if op == Op::Shutdown && !errored {
        // Flip the flag before the ack goes out: once the client sees
        // the response, the server is observably draining.
        shared.begin_shutdown();
    }
    write_frame(stream, frame.op, flags, frame.req_id, &payload).is_ok()
}

/// True for ops a draining server sheds with `Unavailable`: the heavy
/// pipeline work it can no longer promise to finish. Probes, shutdown
/// itself, and the `ring` topology op keep answering so clients can
/// watch the drain and re-route around the departing node.
fn sheds_while_draining(op: Op) -> bool {
    !matches!(
        op,
        Op::Ping | Op::Health | Op::Stats | Op::Shutdown | Op::Ring
    )
}

/// Maps a pipeline error to a typed response: request-shaped faults are
/// the client's (`BadRequest`), archive/pipeline faults are `Pipeline`.
fn pipeline_error(e: CuszpError) -> ErrorResponse {
    let code = match e {
        CuszpError::DimsMismatch { .. }
        | CuszpError::NonFiniteInput
        | CuszpError::InvalidErrorBound(_)
        | CuszpError::InvalidParityConfig(_)
        | CuszpError::DtypeMismatch { .. }
        | CuszpError::InvalidRange { .. } => ErrorCode::BadRequest,
        _ => ErrorCode::Pipeline,
    };
    ErrorResponse::new(code, e.to_string())
}

fn wire_error(e: WireError) -> ErrorResponse {
    ErrorResponse::new(ErrorCode::BadRequest, e.to_string())
}

/// Executes one op. All fallible work funnels into typed
/// [`ErrorResponse`]s; nothing here may panic on untrusted input.
fn handle_op(
    op: Op,
    payload: &[u8],
    shared: &Shared,
    engine: &mut PipelineEngine,
) -> Result<Vec<u8>, ErrorResponse> {
    match op {
        Op::Ping => Ok(Vec::new()),
        Op::Shutdown => Ok(Vec::new()),
        Op::Stats => Ok(shared.metrics.snapshot().encode()),
        Op::Health => {
            // Answered straight from shared state — never touches the
            // engine, so it stays cheap under full load.
            let queue_depth = shared.queue.lock().expect("queue lock poisoned").len();
            Ok(crate::wire::HealthResponse {
                queue_depth: queue_depth.min(u32::MAX as usize) as u32,
                queue_capacity: shared.config.queue_capacity.min(u32::MAX as usize) as u32,
                draining: shared.is_shutting_down(),
                active_connections: shared.metrics.active_connections().min(u32::MAX as u64) as u32,
                workers: shared.config.workers.min(u32::MAX as usize) as u32,
                retry_after_ms: shared.retry_after_hint().as_millis().min(u32::MAX as u128) as u32,
                cluster: shared.cluster.as_ref().map(|c| ClusterIdentity {
                    node_id: c.node_id,
                    ring_epoch: c.ring.epoch,
                }),
            }
            .encode())
        }
        Op::Compress => handle_compress(payload, shared, engine),
        Op::Decompress => handle_decompress(payload),
        Op::Scan => {
            let report = cuszp_core::scan(payload).map_err(pipeline_error)?;
            Ok(PortableScanReport::from(&report).to_bytes())
        }
        Op::Info => handle_info(payload),
        Op::GetRange => handle_get_range(payload, shared, engine),
        Op::Ring => Ok(cluster_ctx(shared)?.ring.encode()),
        Op::Put => handle_put_shard(payload, shared),
        Op::Get => handle_get_shard(payload, shared),
        Op::ListShards => handle_list_shards(shared),
    }
}

/// The cluster context, or a typed refusal on a non-cluster server.
fn cluster_ctx(shared: &Shared) -> Result<&ClusterCtx, ErrorResponse> {
    shared.cluster.as_ref().ok_or_else(|| {
        ErrorResponse::new(
            ErrorCode::BadRequest,
            "this server is not a cluster node (no ring configured)",
        )
    })
}

/// Routing gate shared by shard puts and gets: the request must carry
/// the node's ring epoch and target a stripe slot this node owns.
/// Stale epochs answer `Redirect`, wrong owners `NotMine` — both carry
/// the authoritative owner + epoch so one client hop fixes the route.
fn check_shard_route(
    cluster: &ClusterCtx,
    shared: &Shared,
    key: &str,
    shard_idx: u16,
    req_epoch: u64,
) -> Result<(), ErrorResponse> {
    let ring = &cluster.ring;
    let owner = ring.shard_owner(key, shard_idx).ok_or_else(|| {
        ErrorResponse::new(
            ErrorCode::BadRequest,
            format!(
                "shard index {shard_idx} out of range for a {}+{} stripe",
                ring.data_shards, ring.parity_shards
            ),
        )
    })?;
    if req_epoch != ring.epoch {
        shared.metrics.redirects.incr();
        return Err(ErrorResponse::new(
            ErrorCode::Redirect,
            format!(
                "request routed under epoch {req_epoch}, ring is at {}",
                ring.epoch
            ),
        )
        .with_redirect(ring.epoch, owner.id, owner.addr.clone()));
    }
    if owner.id != cluster.node_id {
        shared.metrics.redirects.incr();
        return Err(ErrorResponse::new(
            ErrorCode::NotMine,
            format!(
                "shard {shard_idx} of '{key}' belongs to node {}, this is node {}",
                owner.id, cluster.node_id
            ),
        )
        .with_redirect(ring.epoch, owner.id, owner.addr.clone()));
    }
    Ok(())
}

fn handle_put_shard(payload: &[u8], shared: &Shared) -> Result<Vec<u8>, ErrorResponse> {
    let cluster = cluster_ctx(shared)?;
    let req = PutShardRequest::decode(payload).map_err(wire_error)?;
    check_shard_route(cluster, shared, &req.key, req.shard_idx, req.ring_epoch)?;
    cluster
        .store
        .lock()
        .expect("store lock poisoned")
        .put(
            &req.key,
            req.shard_idx,
            req.shard,
            req.total_len,
            req.archive_fnv,
            req.flags & PUT_FLAG_REPAIR != 0,
        )
        .map_err(|e| ErrorResponse::new(ErrorCode::Pipeline, e.to_string()))?;
    if req.flags & PUT_FLAG_REPAIR != 0 {
        shared.metrics.scrub_repairs.incr();
    }
    Ok(Vec::new())
}

fn handle_get_shard(payload: &[u8], shared: &Shared) -> Result<Vec<u8>, ErrorResponse> {
    let cluster = cluster_ctx(shared)?;
    let req = GetShardRequest::decode(payload).map_err(wire_error)?;
    check_shard_route(cluster, shared, &req.key, req.shard_idx, req.ring_epoch)?;
    let mut store = cluster.store.lock().expect("store lock poisoned");
    let shard = store
        .get(&req.key, req.shard_idx)
        .map_err(|e| ErrorResponse::new(ErrorCode::Pipeline, e.to_string()))?
        .ok_or_else(|| {
            ErrorResponse::new(
                ErrorCode::NotFound,
                format!(
                    "shard {} of '{}' is not stored here",
                    req.shard_idx, req.key
                ),
            )
        })?;
    Ok(GetShardResponse {
        total_len: shard.total_len,
        archive_fnv: shard.archive_fnv,
        shard: shard.bytes,
    }
    .encode())
}

fn handle_list_shards(shared: &Shared) -> Result<Vec<u8>, ErrorResponse> {
    let cluster = cluster_ctx(shared)?;
    let (records, dropped) = cluster
        .store
        .lock()
        .expect("store lock poisoned")
        .verify_and_list()
        .map_err(|e| ErrorResponse::new(ErrorCode::Pipeline, e.to_string()))?;
    if dropped > 0 {
        shared.metrics.corrupt_shards_dropped.add(dropped);
    }
    Ok(ShardListResponse { records }.encode())
}

fn alloc_scalars<T: Scalar>(bytes: &[u8]) -> Result<Vec<T>, ErrorResponse> {
    let n = bytes.len() / T::BYTES;
    let mut out: Vec<T> = Vec::new();
    out.try_reserve_exact(n)
        .map_err(|_| ErrorResponse::new(ErrorCode::Pipeline, "field allocation refused"))?;
    out.extend(bytes.chunks_exact(T::BYTES).map(T::read_le));
    Ok(out)
}

fn handle_compress(
    payload: &[u8],
    shared: &Shared,
    engine: &mut PipelineEngine,
) -> Result<Vec<u8>, ErrorResponse> {
    let req = CompressRequest::decode(payload).map_err(wire_error)?;
    if let Some(p) = req.parity {
        p.validate().map_err(pipeline_error)?;
    }
    let config = Config {
        error_bound: req.error_bound,
        workflow: req.workflow,
        predictor: req.predictor,
        lossless: req.lossless,
        ..Config::default()
    };
    let compressor = Compressor::new(config);
    let target = if req.chunk_target == 0 {
        DEFAULT_CHUNK_ELEMS
    } else {
        usize::try_from(req.chunk_target)
            .map_err(|_| ErrorResponse::new(ErrorCode::BadRequest, "chunk target too large"))?
    };
    let mut arc = match req.dtype {
        Dtype::F32 => compressor.compress_chunked_with_engine(
            &alloc_scalars::<f32>(req.data)?,
            req.dims,
            target,
            engine,
        ),
        Dtype::F64 => compressor.compress_chunked_with_engine(
            &alloc_scalars::<f64>(req.data)?,
            req.dims,
            target,
            engine,
        ),
    }
    .map_err(pipeline_error)?;
    for chunk in &arc.chunks {
        let plan = chunk.plan();
        match plan.predictor {
            Predictor::Lorenzo => shared.metrics.plans_lorenzo.incr(),
            Predictor::Interpolation => shared.metrics.plans_interpolation.incr(),
        }
        if plan.lossless == LosslessStage::BitshuffleLz77 {
            shared.metrics.plans_lossless.incr();
        }
    }
    if let Some(parity) = req.parity {
        // Inside a pool job the default pool degrades to one worker;
        // parity bytes are width-independent either way.
        arc.add_parity(parity, &WorkerPool::with_default_workers());
    }
    Ok(arc.to_bytes())
}

/// A decoded field or sub-volume as the wire carries it: shape, the
/// per-chunk report of a resilient decode, and little-endian samples.
type Decoded = (Dims, Option<PortableScanReport>, Vec<u8>);

/// The archive's stored element type. An unusable header reads as
/// `f32`, whose decode then reports the parser's typed error.
fn stored_dtype(archive: &[u8]) -> Dtype {
    Dtype::of_archive(archive).unwrap_or(Dtype::F32)
}

fn respond(dtype: Dtype, decoded: Result<Decoded, CuszpError>) -> Result<Vec<u8>, ErrorResponse> {
    let (dims, report, data) = decoded.map_err(pipeline_error)?;
    Ok(DecompressResponse {
        dtype,
        dims,
        report,
        data,
    }
    .encode())
}

fn handle_decompress(payload: &[u8]) -> Result<Vec<u8>, ErrorResponse> {
    let req = DecompressRequest::decode(payload).map_err(wire_error)?;
    let dtype = stored_dtype(req.archive);
    let decoded = match dtype {
        Dtype::F32 => decode_field::<f32>(&req),
        Dtype::F64 => decode_field::<f64>(&req),
    };
    respond(dtype, decoded)
}

fn decode_field<T: Scalar>(req: &DecompressRequest) -> Result<Decoded, CuszpError> {
    match req.mode {
        DecompressMode::Strict => {
            let (data, dims) = cuszp_core::decompress::<T>(req.archive)?;
            Ok((dims, None, T::le_bytes(&data)))
        }
        DecompressMode::Recover(fill) => {
            let rf = cuszp_core::decompress_resilient::<T>(req.archive, fill)?;
            let report = PortableScanReport::from_recovered(&rf);
            Ok((rf.dims, Some(report), T::le_bytes(&rf.data)))
        }
    }
}

/// Serves a chunked-archive range read through the hot-slab cache.
///
/// The fetch/store hooks given to [`cuszp_core::decompress_range_with_fetch`]
/// lock the cache only for the lookup/insert itself — a miss decodes the
/// chunk with the worker's engine *outside* the lock, so a slow decode
/// never blocks other workers' hits. Slabs are stored as little-endian
/// scalar bytes (the wire encoding), making cached and fresh responses
/// byte-identical by construction.
fn serve_cached_range<T: Scalar>(
    arc: &ChunkedArchive,
    spec: &RangeSpec,
    key_hash: u64,
    shared: &Shared,
    engine: &mut PipelineEngine,
) -> Result<(Dims, Vec<u8>), CuszpError> {
    let caching = shared.config.cache_bytes > 0;
    let mut fetch = |i: usize| -> Option<Vec<T>> {
        if !caching {
            return None;
        }
        let hit = shared
            .cache
            .lock()
            .expect("cache lock poisoned")
            .get((key_hash, i as u32));
        match hit {
            Some(bytes) => {
                shared.metrics.cache_hits.incr();
                Some(bytes.chunks_exact(T::BYTES).map(T::read_le).collect())
            }
            None => {
                shared.metrics.cache_misses.incr();
                None
            }
        }
    };
    let mut store = |i: usize, slab: &[T]| {
        if !caching {
            return;
        }
        let evicted = shared
            .cache
            .lock()
            .expect("cache lock poisoned")
            .insert((key_hash, i as u32), Arc::new(T::le_bytes(slab)));
        shared.metrics.cache_evictions.add(evicted);
    };
    let (data, dims) = cuszp_core::decompress_range_with_fetch(
        arc,
        ReconstructEngine::FinePartialSum,
        spec,
        engine,
        &mut fetch,
        &mut store,
    )?;
    Ok((dims, T::le_bytes(&data)))
}

fn handle_get_range(
    payload: &[u8],
    shared: &Shared,
    engine: &mut PipelineEngine,
) -> Result<Vec<u8>, ErrorResponse> {
    let req = GetRangeRequest::decode(payload).map_err(wire_error)?;
    let dtype = stored_dtype(req.archive);
    let decoded = match dtype {
        Dtype::F32 => read_range::<f32>(&req, shared, engine),
        Dtype::F64 => read_range::<f64>(&req, shared, engine),
    };
    respond(dtype, decoded)
}

fn read_range<T: Scalar>(
    req: &GetRangeRequest,
    shared: &Shared,
    engine: &mut PipelineEngine,
) -> Result<Decoded, CuszpError> {
    match req.mode {
        DecompressMode::Strict if is_chunked_archive(req.archive) => {
            let arc = ChunkedArchive::from_bytes(req.archive)?;
            let key_hash = fnv1a(req.archive);
            let (dims, data) = serve_cached_range::<T>(&arc, &req.spec, key_hash, shared, engine)?;
            Ok((dims, None, data))
        }
        DecompressMode::Strict => {
            // v1 single-chunk archives: a range read is a full decode
            // plus a slice — nothing chunk-grained to cache.
            let (data, dims) = cuszp_core::decompress_range::<T>(req.archive, &req.spec)?;
            Ok((dims, None, T::le_bytes(&data)))
        }
        DecompressMode::Recover(fill) => {
            // Damaged archives must never seed the cache: the resilient
            // path decodes uncached and reports per-chunk outcomes.
            let rf = cuszp_core::decompress_range_resilient::<T>(req.archive, &req.spec, fill)?;
            let report = PortableScanReport::from_recovered(&rf);
            Ok((rf.dims, Some(report), T::le_bytes(&rf.data)))
        }
    }
}

fn handle_info(payload: &[u8]) -> Result<Vec<u8>, ErrorResponse> {
    let info = if is_chunked_archive(payload) {
        let arc = ChunkedArchive::from_bytes(payload).map_err(pipeline_error)?;
        RemoteInfo {
            format: "csz2".to_string(),
            dtype: arc.dtype,
            dims: arc.dims,
            eb: arc.eb,
            n_chunks: arc.n_chunks() as u64,
            parity: arc
                .parity
                .as_ref()
                .map(|p| (p.data_shards, p.parity_shards)),
            stored_bytes: payload.len() as u64,
        }
    } else {
        let archive = Archive::from_bytes(payload).map_err(pipeline_error)?;
        RemoteInfo {
            format: "v1".to_string(),
            dtype: archive.dtype,
            dims: archive.dims,
            eb: archive.eb,
            n_chunks: 1,
            parity: None,
            stored_bytes: payload.len() as u64,
        }
    };
    Ok(info.encode())
}
