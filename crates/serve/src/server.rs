//! The sweep service daemon.
//!
//! A [`SweepServer`] owns one TCP listener, a supervised pool of worker
//! threads, and one shared [`TraceCache`].  Each client connection is served
//! by its own handler thread speaking the frame protocol of
//! [`wire`](crate::wire); a SUBMIT admits a sweep, fans its cells out to the
//! workers, and streams every finished cell back **in grid order** before a
//! closing DONE frame.
//!
//! # Admission and backpressure
//!
//! Admission is explicit, never silent queueing: a SUBMIT is rejected up
//! front when the request itself is over budget
//! ([`ServerConfig::max_cells`] / [`ServerConfig::max_steps`]) or when
//! [`ServerConfig::queue_capacity`] sweeps are already in flight.  A
//! rejected request has performed no work and may simply be retried later.
//! The same explicitness extends to connections: past
//! [`ServerConfig::max_connections`] an accept is answered with a busy ERROR
//! frame instead of spawning an unbounded handler thread, and a client that
//! sends nothing for [`ServerConfig::idle_timeout_secs`] is told so and
//! closed.
//!
//! # Fault tolerance
//!
//! Every per-job step a worker performs — including the grid indexing and
//! lineup/scenario construction — runs inside panic containment, so a
//! malformed cell errors *that cell* and never the worker.  Should a worker
//! die anyway (the containment has a bug, or a chaos test poisons the pool
//! via [`SweepServer::poison_worker`]), a supervisor thread detects the dead
//! thread, joins it and spawns a replacement, counting each respawn in the
//! STATS `workers_respawned` field — the pool is always at full strength.
//! Finished connection handlers are reaped on every accept iteration instead
//! of accumulating until shutdown.
//!
//! # Deadlines
//!
//! With [`ServerConfig::max_request_secs`] set, a sweep that outlives its
//! wall-clock deadline is aborted with a DEADLINE-exceeded ERROR frame.  The
//! abort leaves the checkpoint journal intact, so a resubmission resumes the
//! finished cells instead of starting over.
//!
//! # Checkpoint / resume
//!
//! With [`ServerConfig::checkpoint_dir`] set, every finished cell is
//! journalled (and flushed) before it is streamed.  Resubmitting the same id
//! with the same grid and policy replays the journalled cells byte-for-byte
//! and solves only the remainder; a completed sweep deletes its journal.
//!
//! # Determinism
//!
//! Under [`RuntimePolicy::Fixed`] (with any lineup), the CELL and
//! DONE payloads of a request are a pure function of the request: repeat
//! submissions stream byte-identical results, and a resumed sweep's replayed
//! frames equal the ones the interrupted run streamed.  The DONE frame
//! reports the grid's *expected* cold-cache thermal-solve count rather than
//! live cache counters, precisely so that cache warmth cannot leak into the
//! stream.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use teg_sim::{
    run_cell, ComparisonReport, RuntimePolicy, ScenarioGrid, SimError, SolverPool, SweepCellReport,
    TraceCache,
};

use crate::checkpoint::{delete_checkpoint, load_checkpoint, CheckpointLoad, CheckpointWriter};
use crate::codec::encode_cell;
use crate::protocol::{
    policy_token, Accepted, Cancel, Done, ErrorReply, Rejected, StatsReply, SubmitRequest,
};
use crate::wire::{read_frame, write_frame, Frame, FrameKind, ReadOutcome, WireError, MAX_FRAME};

/// How long blocked threads sleep between checks of the shutdown flag.
const POLL: Duration = Duration::from_millis(50);

/// Tuning knobs of a [`SweepServer`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port.
    pub addr: String,
    /// Worker threads solving cells (at least 1).
    pub workers: usize,
    /// Sweeps admitted concurrently; further SUBMITs are rejected, not
    /// queued.
    pub queue_capacity: usize,
    /// Largest grid (in cells) a single request may submit.
    pub max_cells: usize,
    /// Largest total simulated-step budget (cells × schemes × drive seconds)
    /// a single request may submit.
    pub max_steps: usize,
    /// Capacity of the shared trace cache (0 = unbounded).  One entry
    /// costs about `modules × samples × 8 B`: 2.56 MB at 400 modules ×
    /// 800 s, so the default 256 entries hold at most about 0.66 GB.
    pub cache_capacity: usize,
    /// Directory for checkpoint journals; `None` disables checkpointing.
    pub checkpoint_dir: Option<PathBuf>,
    /// Largest frame accepted or emitted on any connection.
    pub max_frame: usize,
    /// Per-request wall-clock deadline in seconds; a sweep still streaming
    /// past it is aborted with a DEADLINE-exceeded ERROR frame that leaves
    /// the checkpoint journal intact for resume.  `None` means no deadline.
    pub max_request_secs: Option<f64>,
    /// Connections that send no frame for this many seconds are told so with
    /// an ERROR frame and closed.  `None` keeps idle clients forever.
    pub idle_timeout_secs: Option<f64>,
    /// Concurrent connections served; further accepts are answered with a
    /// busy ERROR frame and closed instead of spawning unbounded handler
    /// threads.  `0` means unlimited.
    pub max_connections: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_owned(),
            workers: thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            queue_capacity: 4,
            max_cells: 4096,
            max_steps: 2_000_000,
            cache_capacity: 256,
            checkpoint_dir: None,
            max_frame: MAX_FRAME,
            max_request_secs: None,
            idle_timeout_secs: None,
            max_connections: 256,
        }
    }
}

/// One admitted sweep.
struct ActiveRequest {
    grid: ScenarioGrid,
    policy: RuntimePolicy,
    cancelled: AtomicBool,
    /// Computed cells land here keyed by grid index; the handler drains them
    /// in order.
    results: Mutex<BTreeMap<usize, Result<ComparisonReport, SimError>>>,
    results_signal: Condvar,
}

impl ActiveRequest {
    fn cancel(&self) {
        self.cancelled.store(true, Ordering::Relaxed);
        self.results_signal.notify_all();
    }

    fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Relaxed)
    }

    fn push_result(&self, index: usize, outcome: Result<ComparisonReport, SimError>) {
        self.results
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(index, outcome);
        self.results_signal.notify_all();
    }
}

/// One unit of worker work.
enum Job {
    /// Run one cell of an admitted sweep.
    Cell {
        /// The owning request.
        request: Arc<ActiveRequest>,
        /// Index into the request grid's cells.
        index: usize,
    },
    /// Chaos-testing poison pill: panics *outside* the per-job panic
    /// containment, killing the worker thread exactly the way an escaped
    /// panic would.  Pushed by [`SweepServer::poison_worker`]; the
    /// supervisor respawns the victim.
    Poison,
}

impl Job {
    fn belongs_to(&self, target: &Arc<ActiveRequest>) -> bool {
        match self {
            Self::Cell { request, .. } => Arc::ptr_eq(request, target),
            Self::Poison => false,
        }
    }
}

/// State shared by the accept loop, handlers, workers and the supervisor.
struct Shared {
    config: ServerConfig,
    cache: TraceCache,
    queue: Mutex<VecDeque<Job>>,
    queue_signal: Condvar,
    /// Sweeps admitted and not yet finished (the backpressure gauge).
    active: AtomicUsize,
    /// Sweeps that ran to DONE.
    completed: AtomicUsize,
    /// Dead worker threads the supervisor replaced.
    workers_respawned: AtomicUsize,
    /// Connection handlers currently alive.
    connections: AtomicUsize,
    /// Accepts answered with a busy ERROR at the connection cap.
    connections_rejected: AtomicUsize,
    /// Admitted requests by id, for CANCEL and duplicate detection.
    registry: Mutex<HashMap<String, Arc<ActiveRequest>>>,
    shutdown: AtomicBool,
}

impl Shared {
    fn lock_queue(&self) -> std::sync::MutexGuard<'_, VecDeque<Job>> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn lock_registry(&self) -> std::sync::MutexGuard<'_, HashMap<String, Arc<ActiveRequest>>> {
        self.registry.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn shutting_down(&self) -> bool {
        self.shutdown.load(Ordering::Relaxed)
    }

    fn begin_shutdown(&self) {
        self.shutdown.store(true, Ordering::Relaxed);
        self.queue_signal.notify_all();
        for request in self.lock_registry().values() {
            request.cancel();
        }
    }

    /// Drops every queued job of `request`, so a cancelled sweep stops
    /// burning worker time as soon as its handler unwinds instead of making
    /// the workers pop and discard each stale job one by one.
    fn purge_jobs(&self, request: &Arc<ActiveRequest>) {
        self.lock_queue().retain(|job| !job.belongs_to(request));
    }
}

fn worker_loop(shared: &Shared) {
    let mut pool = SolverPool::new();
    loop {
        let job = {
            let mut queue = shared.lock_queue();
            loop {
                if shared.shutting_down() {
                    return;
                }
                if let Some(job) = queue.pop_front() {
                    break job;
                }
                queue = shared
                    .queue_signal
                    .wait_timeout(queue, POLL)
                    .unwrap_or_else(PoisonError::into_inner)
                    .0;
            }
        };
        match job {
            Job::Poison => panic!("chaos poison pill: simulated worker crash"),
            Job::Cell { request, index } => {
                if request.is_cancelled() {
                    continue;
                }
                // The same executor — and the same panic containment — as
                // SweepRunner's in-process workers, so service results match
                // runner results and a malformed cell errors the cell, never
                // the worker.
                let outcome = run_cell(&request.grid, index, request.policy, &mut pool);
                request.push_result(index, outcome);
            }
        }
    }
}

fn spawn_worker(shared: &Arc<Shared>) -> JoinHandle<()> {
    let shared = Arc::clone(shared);
    thread::spawn(move || worker_loop(&shared))
}

/// Keeps the worker pool at full strength.  A worker thread that dies — a
/// panic that escaped containment, or a [`Job::Poison`] pill — is joined and
/// replaced with a fresh worker; each replacement increments the
/// `workers_respawned` STATS counter.
fn supervisor_loop(shared: &Arc<Shared>, mut workers: Vec<JoinHandle<()>>) {
    while !shared.shutting_down() {
        for slot in &mut workers {
            if slot.is_finished() && !shared.shutting_down() {
                let dead = std::mem::replace(slot, spawn_worker(shared));
                let _ = dead.join();
                shared.workers_respawned.fetch_add(1, Ordering::Relaxed);
            }
        }
        thread::sleep(POLL);
    }
    for worker in workers {
        let _ = worker.join();
    }
}

/// A running sweep service.
///
/// Dropping the handle does *not* stop the daemon; call
/// [`SweepServer::shutdown`] (or send a SHUTDOWN frame and then
/// [`SweepServer::wait`]).
pub struct SweepServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept_thread: Option<JoinHandle<()>>,
    supervisor: Option<JoinHandle<()>>,
    handlers: Arc<Mutex<Vec<JoinHandle<()>>>>,
}

impl SweepServer {
    /// Binds the listener and starts the worker pool, its supervisor and the
    /// accept loop.
    ///
    /// # Errors
    ///
    /// Propagates socket errors from binding the configured address.
    pub fn start(config: ServerConfig) -> io::Result<Self> {
        let listener = TcpListener::bind(&config.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let cache = if config.cache_capacity == 0 {
            TraceCache::new()
        } else {
            TraceCache::with_capacity(config.cache_capacity)
        };
        let worker_count = config.workers.max(1);
        let shared = Arc::new(Shared {
            config,
            cache,
            queue: Mutex::new(VecDeque::new()),
            queue_signal: Condvar::new(),
            active: AtomicUsize::new(0),
            completed: AtomicUsize::new(0),
            workers_respawned: AtomicUsize::new(0),
            connections: AtomicUsize::new(0),
            connections_rejected: AtomicUsize::new(0),
            registry: Mutex::new(HashMap::new()),
            shutdown: AtomicBool::new(false),
        });
        let workers: Vec<JoinHandle<()>> =
            (0..worker_count).map(|_| spawn_worker(&shared)).collect();
        let supervisor = {
            let shared = Arc::clone(&shared);
            thread::spawn(move || supervisor_loop(&shared, workers))
        };
        let handlers: Arc<Mutex<Vec<JoinHandle<()>>>> = Arc::default();
        let accept_thread = {
            let shared = Arc::clone(&shared);
            let handlers = Arc::clone(&handlers);
            thread::spawn(move || accept_loop(&listener, &shared, &handlers))
        };
        Ok(Self {
            addr,
            shared,
            accept_thread: Some(accept_thread),
            supervisor: Some(supervisor),
            handlers,
        })
    }

    /// The bound address (useful with an ephemeral port).
    #[must_use]
    pub const fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared trace cache (live counters).
    #[must_use]
    pub fn cache(&self) -> &TraceCache {
        &self.shared.cache
    }

    /// Chaos-testing hook: enqueues a poison pill that kills one worker
    /// thread exactly the way a panic escaping containment would.  The
    /// supervisor detects the death and spawns a replacement (observable as
    /// `workers_respawned` in STATS); in-flight sweeps lose nothing but the
    /// dead worker's momentary throughput.
    pub fn poison_worker(&self) {
        self.shared.lock_queue().push_front(Job::Poison);
        self.shared.queue_signal.notify_all();
    }

    /// Blocks until the daemon shuts down (a client sent SHUTDOWN), then
    /// joins every thread.
    pub fn wait(mut self) {
        self.join_all();
    }

    /// Initiates shutdown and joins every thread.  In-flight sweeps are
    /// cancelled; their checkpoints (if enabled) survive for resumption.
    pub fn shutdown(mut self) {
        self.shared.begin_shutdown();
        self.join_all();
    }

    fn join_all(&mut self) {
        if let Some(accept) = self.accept_thread.take() {
            let _ = accept.join();
        }
        if let Some(supervisor) = self.supervisor.take() {
            let _ = supervisor.join();
        }
        let handlers =
            std::mem::take(&mut *self.handlers.lock().unwrap_or_else(PoisonError::into_inner));
        for handler in handlers {
            let _ = handler.join();
        }
    }
}

/// Joins every finished connection handler, so the handler list tracks live
/// connections instead of accumulating a handle per connection ever served.
fn reap_finished(handlers: &Mutex<Vec<JoinHandle<()>>>) {
    let mut handlers = handlers.lock().unwrap_or_else(PoisonError::into_inner);
    let mut index = 0;
    while index < handlers.len() {
        if handlers[index].is_finished() {
            let finished = handlers.swap_remove(index);
            let _ = finished.join();
        } else {
            index += 1;
        }
    }
}

fn accept_loop(
    listener: &TcpListener,
    shared: &Arc<Shared>,
    handlers: &Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    loop {
        if shared.shutting_down() {
            return;
        }
        reap_finished(handlers);
        match listener.accept() {
            Ok((mut stream, _)) => {
                let limit = shared.config.max_connections;
                if limit > 0 && shared.connections.load(Ordering::Relaxed) >= limit {
                    // Answer with a busy ERROR instead of spawning an
                    // unbounded handler; the write is best-effort and
                    // bounded so a stalled client cannot stall accepts.
                    shared.connections_rejected.fetch_add(1, Ordering::Relaxed);
                    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
                    let reply = ErrorReply {
                        id: String::new(),
                        reason: format!(
                            "server busy: {limit} connections already open; retry later"
                        ),
                    };
                    let _ = send(
                        &mut stream,
                        FrameKind::Error,
                        &reply.encode(),
                        shared.config.max_frame,
                    );
                    continue;
                }
                shared.connections.fetch_add(1, Ordering::Relaxed);
                let shared = Arc::clone(shared);
                let handle = thread::spawn(move || {
                    handle_connection(stream, &shared);
                    shared.connections.fetch_sub(1, Ordering::Relaxed);
                });
                handlers
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .push(handle);
            }
            Err(err) if err.kind() == io::ErrorKind::WouldBlock => thread::sleep(POLL),
            Err(_) => thread::sleep(POLL),
        }
    }
}

fn send(
    stream: &mut TcpStream,
    kind: FrameKind,
    payload: &str,
    max_frame: usize,
) -> Result<(), WireError> {
    write_frame(stream, kind, payload.as_bytes(), max_frame)
}

fn handle_connection(mut stream: TcpStream, shared: &Arc<Shared>) {
    let max_frame = shared.config.max_frame;
    let idle_limit = shared.config.idle_timeout_secs.map(Duration::from_secs_f64);
    let _ = stream.set_read_timeout(Some(Duration::from_millis(100)));
    let _ = stream.set_nodelay(true);
    let mut last_frame = Instant::now();
    loop {
        if shared.shutting_down() {
            return;
        }
        let frame = match read_frame(&mut stream, max_frame) {
            Ok(ReadOutcome::Frame(frame)) => {
                last_frame = Instant::now();
                frame
            }
            Ok(ReadOutcome::Idle) => {
                if let Some(limit) = idle_limit {
                    if last_frame.elapsed() >= limit {
                        // A silent client holds a connection slot for
                        // nothing; tell it why it is going away, then close.
                        let reply = ErrorReply {
                            id: String::new(),
                            reason: format!(
                                "idle timeout: no frame in {:.1}s; closing connection",
                                limit.as_secs_f64()
                            ),
                        };
                        let _ = send(&mut stream, FrameKind::Error, &reply.encode(), max_frame);
                        return;
                    }
                }
                continue;
            }
            Ok(ReadOutcome::Eof) => return,
            Err(
                WireError::UnknownKind(_) | WireError::EmptyFrame | WireError::Malformed { .. },
            ) => {
                // Frame sync is intact (the whole frame was consumed):
                // report and keep serving this client.
                let reply = ErrorReply {
                    id: String::new(),
                    reason: "unrecognised frame".to_owned(),
                };
                if send(&mut stream, FrameKind::Error, &reply.encode(), max_frame).is_err() {
                    return;
                }
                last_frame = Instant::now();
                continue;
            }
            Err(_) => {
                // Truncation / oversize / transport failure: frame sync is
                // lost, so the connection cannot continue.
                let reply = ErrorReply {
                    id: String::new(),
                    reason: "frame desynchronised; closing connection".to_owned(),
                };
                let _ = send(&mut stream, FrameKind::Error, &reply.encode(), max_frame);
                return;
            }
        };
        match frame.kind {
            FrameKind::Submit => {
                if !handle_submit(&mut stream, shared, &frame) {
                    return;
                }
                last_frame = Instant::now();
            }
            FrameKind::Stats => {
                let reply = stats_reply(shared).encode();
                if send(&mut stream, FrameKind::StatsReply, &reply, max_frame).is_err() {
                    return;
                }
            }
            FrameKind::Cancel => {
                if !handle_cancel(&mut stream, shared, &frame) {
                    return;
                }
            }
            FrameKind::Shutdown => {
                shared.begin_shutdown();
                let _ = send(&mut stream, FrameKind::ShutdownAck, "", max_frame);
                return;
            }
            // A client sending server-side kinds is confused; tell it so.
            _ => {
                let reply = ErrorReply {
                    id: String::new(),
                    reason: format!("unexpected client frame kind {:?}", frame.kind),
                };
                if send(&mut stream, FrameKind::Error, &reply.encode(), max_frame).is_err() {
                    return;
                }
            }
        }
    }
}

fn stats_reply(shared: &Shared) -> StatsReply {
    StatsReply {
        active: shared.active.load(Ordering::Relaxed),
        queued_cells: shared.lock_queue().len(),
        completed_requests: shared.completed.load(Ordering::Relaxed),
        cache_len: shared.cache.len(),
        cache_hits: shared.cache.hits(),
        cache_misses: shared.cache.misses(),
        cache_evictions: shared.cache.evictions(),
        workers: shared.config.workers.max(1),
        presolve_planned: 0,
        presolve_solved: 0,
        workers_respawned: shared.workers_respawned.load(Ordering::Relaxed),
        connections: shared.connections.load(Ordering::Relaxed),
        connections_rejected: shared.connections_rejected.load(Ordering::Relaxed),
    }
}

fn handle_cancel(stream: &mut TcpStream, shared: &Shared, frame: &Frame) -> bool {
    let max_frame = shared.config.max_frame;
    let cancel = frame.text().and_then(Cancel::decode);
    match cancel {
        Ok(cancel) => {
            let found = shared.lock_registry().get(&cancel.id).map(Arc::clone);
            if let Some(request) = found {
                request.cancel();
                let reply = Accepted {
                    id: cancel.id,
                    cells: 0,
                    resumed: 0,
                };
                send(stream, FrameKind::Accepted, &reply.encode(), max_frame).is_ok()
            } else {
                let reply = ErrorReply {
                    id: cancel.id,
                    reason: "no active request with that id".to_owned(),
                };
                send(stream, FrameKind::Error, &reply.encode(), max_frame).is_ok()
            }
        }
        Err(err) => {
            let reply = ErrorReply {
                id: String::new(),
                reason: format!("bad cancel payload: {err}"),
            };
            send(stream, FrameKind::Error, &reply.encode(), max_frame).is_ok()
        }
    }
}

/// Releases one admission slot and the registry entry on every exit path of
/// [`handle_submit`] past admission.
struct Admission<'a> {
    shared: &'a Shared,
    id: String,
    request: Arc<ActiveRequest>,
}

impl Drop for Admission<'_> {
    fn drop(&mut self) {
        // Stale queue entries and late worker results check this flag.
        self.request.cancel();
        // Queued jobs of a dead request are pure waste: purge them now so a
        // cancelled-by-disconnect sweep stops burning worker time the
        // moment its handler unwinds.
        self.shared.purge_jobs(&self.request);
        self.shared.lock_registry().remove(&self.id);
        self.shared.active.fetch_sub(1, Ordering::Relaxed);
    }
}

/// What the result-wait loop produced for one cell index.
enum Wait {
    Ready(Result<ComparisonReport, SimError>),
    Interrupted,
    Deadline,
}

/// Serves one SUBMIT end to end.  Returns `false` when the connection is no
/// longer usable.
fn handle_submit(stream: &mut TcpStream, shared: &Arc<Shared>, frame: &Frame) -> bool {
    let max_frame = shared.config.max_frame;
    let reject = |stream: &mut TcpStream, id: &str, reason: String| {
        let reply = Rejected {
            id: id.to_owned(),
            reason,
        };
        send(stream, FrameKind::Rejected, &reply.encode(), max_frame).is_ok()
    };

    let request = match frame.text().and_then(SubmitRequest::decode) {
        Ok(request) => request,
        Err(err) => return reject(stream, "", format!("bad submit payload: {err}")),
    };
    let id = request.id.clone();
    let started = Instant::now();
    let deadline = shared.config.max_request_secs.map(Duration::from_secs_f64);

    // Budget checks: refuse before building anything expensive.
    let cells = request.grid.cell_count();
    if cells == 0 {
        return reject(stream, &id, "grid has no cells".to_owned());
    }
    if cells > shared.config.max_cells {
        return reject(
            stream,
            &id,
            format!(
                "grid has {cells} cells, over the per-request budget of {}",
                shared.config.max_cells
            ),
        );
    }
    let steps = request.grid.total_steps();
    if steps > shared.config.max_steps {
        return reject(
            stream,
            &id,
            format!(
                "grid simulates {steps} scheme-steps, over the per-request budget of {}",
                shared.config.max_steps
            ),
        );
    }

    // Admission: reserve a slot or refuse outright.
    let capacity = shared.config.queue_capacity.max(1);
    if shared
        .active
        .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |active| {
            (active < capacity).then_some(active + 1)
        })
        .is_err()
    {
        return reject(
            stream,
            &id,
            format!("server busy: {capacity} sweeps already admitted; retry later"),
        );
    }
    // From here on an early return must release the slot.
    let release_slot = || {
        shared.active.fetch_sub(1, Ordering::Relaxed);
    };

    let grid_spec = match request.grid.spec() {
        Ok(spec) => spec,
        Err(err) => {
            release_slot();
            return reject(stream, &id, format!("grid is not spec-serialisable: {err}"));
        }
    };
    let policy = policy_token(request.policy);

    let grid = match request.grid.to_grid_with_cache(shared.cache.clone()) {
        Ok(grid) => grid,
        Err(err) => {
            release_slot();
            return reject(stream, &id, format!("grid rejected: {err}"));
        }
    };

    // Checkpoint recovery.
    let mut restored: BTreeMap<usize, String> = BTreeMap::new();
    if let Some(dir) = &shared.config.checkpoint_dir {
        match load_checkpoint(dir, &id, &grid_spec, &policy) {
            Ok(CheckpointLoad::Missing) => {}
            Ok(CheckpointLoad::Cells(cells)) => {
                restored = cells;
                restored.retain(|&index, _| index < grid.len());
            }
            Ok(CheckpointLoad::Mismatch { reason }) => {
                release_slot();
                return reject(stream, &id, format!("checkpoint mismatch: {reason}"));
            }
            Err(err) => {
                release_slot();
                return reject(stream, &id, format!("checkpoint unreadable: {err}"));
            }
        }
    }

    let active = Arc::new(ActiveRequest {
        grid,
        policy: request.policy,
        cancelled: AtomicBool::new(false),
        results: Mutex::new(BTreeMap::new()),
        results_signal: Condvar::new(),
    });
    {
        let mut registry = shared.lock_registry();
        if registry.contains_key(&id) {
            drop(registry);
            release_slot();
            return reject(
                stream,
                &id,
                "a request with this id is already running".to_owned(),
            );
        }
        registry.insert(id.clone(), Arc::clone(&active));
    }
    let admission = Admission {
        shared,
        id: id.clone(),
        request: Arc::clone(&active),
    };

    let mut journal = match &shared.config.checkpoint_dir {
        Some(dir) => match CheckpointWriter::open(dir, &id, &grid_spec, &policy) {
            Ok(writer) => Some(writer),
            Err(err) => {
                drop(admission);
                return reject(stream, &id, format!("checkpoint unwritable: {err}"));
            }
        },
        None => None,
    };

    // Fan the unfinished cells out to the workers, in grid order.  Cells
    // restored from the checkpoint are replayed from journalled bytes and
    // never run; the others solve their thermal traces on demand through
    // the shared cache.
    let total = active.grid.len();
    let resumed = restored.len();
    {
        let mut queue = shared.lock_queue();
        for index in (0..total).filter(|index| !restored.contains_key(index)) {
            queue.push_back(Job::Cell {
                request: Arc::clone(&active),
                index,
            });
        }
    }
    shared.queue_signal.notify_all();

    let accepted = Accepted {
        id: id.clone(),
        cells: total,
        resumed,
    };
    if send(stream, FrameKind::Accepted, &accepted.encode(), max_frame).is_err() {
        // The client vanished before even seeing ACCEPTED: no cell has been
        // journalled for this run, so a journal without any cell record is a
        // stale header-only file — delete it rather than leaving it behind.
        if restored.is_empty() {
            if let Some(dir) = &shared.config.checkpoint_dir {
                journal.take();
                let _ = delete_checkpoint(dir, &id);
            }
        }
        return false;
    }

    // Stream the cells strictly in grid index order.
    for index in 0..total {
        if let Some(payload) = restored.get(&index) {
            // Replay the journalled bytes verbatim — no re-solving, and the
            // frame equals the one the interrupted run streamed.
            if send(stream, FrameKind::Cell, payload, max_frame).is_err() {
                return false;
            }
            continue;
        }
        let outcome = {
            let mut results = active
                .results
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            loop {
                if let Some(outcome) = results.remove(&index) {
                    break Wait::Ready(outcome);
                }
                if shared.shutting_down() || active.is_cancelled() {
                    break Wait::Interrupted;
                }
                if let Some(limit) = deadline {
                    if started.elapsed() >= limit {
                        break Wait::Deadline;
                    }
                }
                results = active
                    .results_signal
                    .wait_timeout(results, POLL)
                    .unwrap_or_else(PoisonError::into_inner)
                    .0;
            }
        };
        let outcome = match outcome {
            Wait::Ready(outcome) => outcome,
            Wait::Interrupted => {
                let reply = ErrorReply {
                    id: id.clone(),
                    reason: "sweep interrupted by shutdown or cancellation".to_owned(),
                };
                // The journal survives for resumption.
                return send(stream, FrameKind::Error, &reply.encode(), max_frame).is_ok()
                    && !shared.shutting_down();
            }
            Wait::Deadline => {
                // Admission teardown cancels the sweep and purges its queued
                // jobs; the journal survives, so a resubmission resumes the
                // cells that finished inside the deadline.
                let reply = ErrorReply {
                    id: id.clone(),
                    reason: format!(
                        "deadline exceeded: request ran past {:.1}s; checkpoint journal intact for resume",
                        started.elapsed().as_secs_f64()
                    ),
                };
                return send(stream, FrameKind::Error, &reply.encode(), max_frame).is_ok();
            }
        };
        match outcome {
            Ok(report) => {
                let key = active.grid.cells()[index].key().clone();
                let payload = encode_cell(&SweepCellReport::from_parts(key, report));
                if let Some(journal) = &mut journal {
                    // Durable before visible: the client never sees a cell
                    // the journal could lose.
                    if let Err(err) = journal.append(index, &payload) {
                        let reply = ErrorReply {
                            id: id.clone(),
                            reason: format!("checkpoint append failed: {err}"),
                        };
                        return send(stream, FrameKind::Error, &reply.encode(), max_frame).is_ok();
                    }
                }
                if send(stream, FrameKind::Cell, &payload, max_frame).is_err() {
                    // Client went away mid-stream; the journal survives.
                    return false;
                }
            }
            Err(err) => {
                let reply = ErrorReply {
                    id: id.clone(),
                    reason: format!("cell {index} failed: {err}"),
                };
                return send(stream, FrameKind::Error, &reply.encode(), max_frame).is_ok();
            }
        }
    }

    let done = Done {
        id: id.clone(),
        thermal_solves: active.grid.expected_thermal_solves(),
        executed: total - resumed,
        resumed,
    };
    if let Some(dir) = &shared.config.checkpoint_dir {
        drop(journal);
        let _ = delete_checkpoint(dir, &id);
    }
    shared.completed.fetch_add(1, Ordering::Relaxed);
    drop(admission);
    send(stream, FrameKind::Done, &done.encode(), max_frame).is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_sane() {
        let config = ServerConfig::default();
        assert!(config.workers >= 1);
        assert_eq!(config.queue_capacity, 4);
        assert!(config.max_cells > 0);
        assert!(config.max_steps > config.max_cells);
        assert!(config.checkpoint_dir.is_none());
        assert_eq!(config.max_frame, MAX_FRAME);
        assert!(config.max_request_secs.is_none());
        assert!(config.idle_timeout_secs.is_none());
        assert!(config.max_connections >= 1);
    }

    #[test]
    fn server_starts_and_shuts_down_cleanly() {
        let server = SweepServer::start(ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        })
        .unwrap();
        assert_ne!(server.addr().port(), 0);
        server.shutdown();
    }
}
