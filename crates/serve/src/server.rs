//! The service: accept loop, worker pool, admission control, deadline
//! watchdog, hung-worker supervision, drain, and crash recovery.
//!
//! Concurrency model: one accept thread, blocked in `accept`, hands
//! connections to short-lived connection threads; a fixed worker pool
//! (`--workers`) drains the FIFO job queue; one watchdog thread enforces
//! deadlines and detects wedged workers. All mutable state lives behind a
//! single mutex ([`State`]) with two condvars — one waking workers, one
//! waking request threads blocked on job completion — so every transition
//! is a small critical section around the lock.
//!
//! The failure-mode contract (DESIGN.md §13): a full queue is an explicit
//! 503 with `Retry-After`, a deadline overrun is a structured error that
//! frees the worker at the next cycle-chunk boundary, a worker that refuses
//! to yield is failed by the watchdog without touching other jobs, a
//! SIGKILL loses nothing that was journaled, and drain parks in-flight
//! simulations behind `sas-snap` checkpoints and exits 0.

use crate::http::{self, json_escape, Request};
use crate::job::{self, JobEnd, JobSpec, Progress, RunPlan};
use crate::journal::{Journal, PendingJob};
use crate::metrics::ServeMetrics;
use crate::queue::JobQueue;
use sas_query::Val;
use sas_runner::{supervisor, sweep};
use sas_telemetry::expo;
use sas_telemetry::json::{self, Json};
use std::collections::HashMap;
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Service configuration.
#[derive(Debug, Clone)]
pub struct Config {
    /// Bind address (`127.0.0.1:0` for an ephemeral port).
    pub addr: String,
    /// Worker threads (default 2).
    pub workers: usize,
    /// Queue capacity (admission bound).
    pub queue_cap: usize,
    /// State directory: journal, job checkpoints, warm bases.
    pub state_dir: PathBuf,
    /// Deadline budget for requests that do not set `deadline_ms`.
    pub default_deadline: Duration,
    /// How long drain waits for workers to finish or park.
    pub drain_deadline: Duration,
    /// Extra time past its deadline a cancelled job may keep its worker
    /// before the watchdog declares the worker wedged.
    pub hang_grace: Duration,
    /// Checkpoint period of simulation jobs, in cycles.
    pub chunk: u64,
}

impl Config {
    /// Defaults for a daemon keeping state under `state_dir`.
    pub fn new(state_dir: PathBuf) -> Config {
        Config {
            addr: "127.0.0.1:0".into(),
            workers: 2,
            queue_cap: 32,
            state_dir,
            default_deadline: Duration::from_secs(120),
            drain_deadline: Duration::from_secs(30),
            hang_grace: Duration::from_secs(5),
            chunk: 1_000_000,
        }
    }
}

/// Monotonic service counters (all also surfaced by `status`).
#[derive(Debug, Default, Clone)]
pub struct Counters {
    /// Jobs journaled and enqueued.
    pub accepted: u64,
    /// Jobs resumed from the journal at startup.
    pub resumed: u64,
    /// Jobs that completed successfully.
    pub completed: u64,
    /// Jobs that failed (deadline, cancellation, simulator abort, …).
    pub failed: u64,
    /// Queued jobs cancelled before running.
    pub cancelled: u64,
    /// Jobs parked behind a checkpoint by drain.
    pub parked: u64,
    /// Workers declared wedged by the watchdog.
    pub stalled: u64,
    /// 503s: queue full.
    pub rejected_full: u64,
    /// 503s: draining.
    pub rejected_draining: u64,
}

#[derive(Debug)]
enum Phase {
    Queued,
    Running {
        deadline: Instant,
        progress: Progress,
    },
    /// Parked behind a checkpoint (drain); resumable after restart.
    Parked,
    Done {
        outcome: String,
        /// JSON result object for `completed`, human detail otherwise.
        body: String,
        ok: bool,
    },
}

#[derive(Debug)]
struct JobEntry {
    spec: JobSpec,
    deadline_ms: u64,
    cancel: Arc<AtomicBool>,
    phase: Phase,
    /// Set by the watchdog when it resolves this job out from under a
    /// wedged worker; tells that worker to retire instead of double-
    /// resolving (a replacement was already spawned).
    stalled: bool,
}

struct State {
    queue: JobQueue,
    jobs: HashMap<u64, JobEntry>,
    done_order: Vec<u64>,
    next_id: u64,
    running: usize,
    workers_alive: usize,
    counters: Counters,
}

struct Shared {
    cfg: Config,
    state: Mutex<State>,
    work_cv: Condvar,
    done_cv: Condvar,
    journal: Mutex<Journal>,
    draining: AtomicBool,
    park: Arc<AtomicBool>,
    connections: AtomicUsize,
    metrics: Mutex<ServeMetrics>,
    started: Instant,
}

/// Cap on concurrently-served connections (beyond it: immediate 503).
const MAX_CONNECTIONS: usize = 64;

/// Resolved jobs kept for `job`-method polling before the oldest is
/// forgotten.
const DONE_RETENTION: usize = 256;

/// A running service instance.
pub struct Server {
    shared: Arc<Shared>,
    port: u16,
}

impl Server {
    /// Recovers state, binds the listener, and spawns the accept loop,
    /// worker pool, and watchdog.
    pub fn start(cfg: Config) -> std::io::Result<Server> {
        std::fs::create_dir_all(&cfg.state_dir)?;
        // A SIGKILLed predecessor leaves staging temps; checkpoints and warm
        // bases are kept — they are the resumable state.
        let swept = sweep::sweep_stale_artifacts(&cfg.state_dir, true)?;
        if !swept.is_empty() {
            eprintln!("sas-serve: swept {} stale artifact(s)", swept.len());
        }
        let (journal, recovery) = Journal::open(&cfg.state_dir.join("journal.jsonl"))?;
        if recovery.truncated {
            eprintln!("sas-serve: truncated a torn journal line");
        }

        let mut state = State {
            // Recovered jobs must all re-enter the queue regardless of the
            // configured bound; admission control applies to new traffic.
            queue: JobQueue::new(cfg.queue_cap.max(recovery.pending.len())),
            jobs: HashMap::new(),
            done_order: Vec::new(),
            next_id: recovery.next_job_id,
            running: 0,
            workers_alive: cfg.workers,
            counters: Counters::default(),
        };
        for p in &recovery.pending {
            eprintln!("sas-serve: resuming journaled job {} ({})", p.id, p.spec.label());
            state.queue.push(p.id).expect("resume capacity reserved above");
            state.jobs.insert(
                p.id,
                JobEntry {
                    spec: p.spec.clone(),
                    deadline_ms: p.deadline_ms,
                    cancel: Arc::new(AtomicBool::new(false)),
                    phase: Phase::Queued,
                    stalled: false,
                },
            );
            state.counters.resumed += 1;
        }

        let listener = TcpListener::bind(&cfg.addr)?;
        let port = listener.local_addr()?.port();

        let workers = cfg.workers;
        let shared = Arc::new(Shared {
            cfg,
            state: Mutex::new(state),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
            journal: Mutex::new(journal),
            draining: AtomicBool::new(false),
            park: Arc::new(AtomicBool::new(false)),
            connections: AtomicUsize::new(0),
            metrics: Mutex::new(ServeMetrics::new()),
            started: Instant::now(),
        });
        for _ in 0..workers {
            spawn_worker(Arc::clone(&shared));
        }
        {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || watchdog_loop(shared));
        }
        {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || accept_loop(&shared, &listener));
        }
        Ok(Server { shared, port })
    }

    /// The bound port.
    pub fn port(&self) -> u16 {
        self.port
    }

    /// Jobs resumed from the journal at startup.
    pub fn resumed(&self) -> u64 {
        self.shared.state.lock().expect("state lock").counters.resumed
    }

    /// Starts draining: stop admitting, park in-flight simulations.
    pub fn drain(&self) {
        drain(&self.shared);
    }

    /// Whether a drain has been initiated (by [`Server::drain`] or by a
    /// client hitting `POST /drain`).
    pub fn draining(&self) -> bool {
        self.shared.draining.load(Ordering::SeqCst)
    }

    /// Waits for every worker to finish or park, up to the configured
    /// drain deadline. Returns whether the drain completed in time.
    pub fn drain_wait(&self) -> bool {
        let deadline = Instant::now() + self.shared.cfg.drain_deadline;
        let mut st = self.shared.state.lock().expect("state lock");
        while st.workers_alive > 0 {
            let Some(left) = deadline.checked_duration_since(Instant::now()) else {
                return false;
            };
            let (guard, _) =
                self.shared.done_cv.wait_timeout(st, left.min(Duration::from_millis(100)))
                    .expect("state lock");
            st = guard;
        }
        true
    }
}

fn drain(shared: &Shared) {
    if shared.draining.swap(true, Ordering::SeqCst) {
        return;
    }
    eprintln!("sas-serve: draining — no longer admitting jobs");
    shared.park.store(true, Ordering::SeqCst);
    shared.work_cv.notify_all();
    shared.done_cv.notify_all();
}

// ---------------------------------------------------------------------------
// Worker pool
// ---------------------------------------------------------------------------

fn spawn_worker(shared: Arc<Shared>) {
    std::thread::spawn(move || worker_loop(&shared));
}

fn worker_loop(shared: &Shared) {
    loop {
        // Claim the next job, or retire when draining finds the queue empty.
        let claimed = {
            let mut st = shared.state.lock().expect("state lock");
            loop {
                if let Some(id) = st.queue.pop() {
                    break Some(id);
                }
                if shared.draining.load(Ordering::SeqCst) {
                    st.workers_alive -= 1;
                    shared.done_cv.notify_all();
                    break None;
                }
                st = shared.work_cv.wait(st).expect("state lock");
            }
        };
        let Some(id) = claimed else { return };

        // Transition to Running and build the plan outside the lock.
        let (spec, cancel, plan) = {
            let mut st = shared.state.lock().expect("state lock");
            let Some(entry) = st.jobs.get_mut(&id) else { continue };
            let deadline = Instant::now() + Duration::from_millis(entry.deadline_ms);
            let progress = Progress::default();
            entry.phase = Phase::Running { deadline, progress: progress.clone() };
            let spec = entry.spec.clone();
            let cancel = Arc::clone(&entry.cancel);
            st.running += 1;
            let plan = RunPlan {
                checkpoint: spec
                    .wants_checkpoint()
                    .then(|| shared.cfg.state_dir.join(format!("job-{id}.ckpt.snap"))),
                warm_base: spec
                    .warm_key()
                    .map(|(suite, bench)| {
                        supervisor::warm_base_path(&shared.cfg.state_dir, suite, bench)
                    }),
                progress,
                chunk: shared.cfg.chunk,
                deadline: Some(deadline),
            };
            (spec, cancel, plan)
        };

        // A panic resolves the job as failed; the worker lives on.
        let end = job::catch_panic(|| job::run_job(&spec, &plan, &cancel, &shared.park));

        // Resolve (unless the watchdog already did, declaring us wedged).
        let mut st = shared.state.lock().expect("state lock");
        st.running = st.running.saturating_sub(1);
        let Some(entry) = st.jobs.get_mut(&id) else { continue };
        if entry.stalled {
            // The watchdog gave up on this worker, resolved the job, and
            // spawned a replacement; retire quietly.
            st.workers_alive -= 1;
            shared.done_cv.notify_all();
            return;
        }
        match end {
            JobEnd::Completed { result } => {
                entry.phase = Phase::Done { outcome: "completed".into(), body: result, ok: true };
                st.counters.completed += 1;
                finish_job(shared, &mut st, id, Some("completed"), true);
            }
            JobEnd::Parked => {
                entry.phase = Phase::Parked;
                st.counters.parked += 1;
                eprintln!("sas-serve: job {id} parked behind its checkpoint (drain)");
                finish_job(shared, &mut st, id, None, false);
            }
            JobEnd::Failed { code, detail } => {
                eprintln!("sas-serve: job {id} failed [{code}] {detail}");
                entry.phase = Phase::Done { outcome: code.clone(), body: detail, ok: false };
                st.counters.failed += 1;
                finish_job(shared, &mut st, id, Some(&code), true);
            }
        }
    }
}

/// Post-resolution bookkeeping under the state lock: journal the terminal
/// outcome (when there is one), drop a now-stale checkpoint, cap the done
/// backlog, and wake completion waiters.
fn finish_job(shared: &Shared, st: &mut State, id: u64, outcome: Option<&str>, drop_ckpt: bool) {
    if let Some(outcome) = outcome {
        if let Err(e) = shared.journal.lock().expect("journal lock").resolved(id, outcome) {
            eprintln!("sas-serve: journal append failed: {e}");
        }
    }
    if drop_ckpt {
        let path = shared.cfg.state_dir.join(format!("job-{id}.ckpt.snap"));
        let _ = std::fs::remove_file(sas_snap::temp_path(&path));
        let _ = std::fs::remove_file(path);
    }
    st.done_order.push(id);
    if st.done_order.len() > DONE_RETENTION {
        let drop_id = st.done_order.remove(0);
        if matches!(st.jobs.get(&drop_id).map(|e| &e.phase), Some(Phase::Done { .. })) {
            st.jobs.remove(&drop_id);
        }
    }
    shared.done_cv.notify_all();
}

// ---------------------------------------------------------------------------
// Watchdog: deadlines and wedged workers
// ---------------------------------------------------------------------------

fn watchdog_loop(shared: Arc<Shared>) {
    loop {
        std::thread::sleep(Duration::from_millis(50));
        let now = Instant::now();
        let mut replacements = 0;
        {
            let shared = &*shared;
            let mut st = shared.state.lock().expect("state lock");
            let mut to_fail: Vec<u64> = Vec::new();
            for (&id, entry) in &st.jobs {
                let Phase::Running { deadline, progress } = &entry.phase else { continue };
                if now < *deadline || entry.stalled {
                    continue;
                }
                // Past the deadline: request cooperative cancellation. A
                // healthy worker aborts at the next chunk boundary and
                // resolves the job itself with a `deadline` error.
                entry.cancel.store(true, Ordering::SeqCst);
                if now < *deadline + shared.cfg.hang_grace {
                    continue;
                }
                // Cancellation ignored through the whole grace window: the
                // worker is wedged. The log line names the last cycle the
                // job's progress recorded.
                let last = progress.latest().map(|h| h.cycle);
                eprintln!(
                    "sas-serve: job {id} ignored cancellation for {:?} (last heartbeat cycle {:?}); failing it and replacing the worker",
                    shared.cfg.hang_grace,
                    last
                );
                to_fail.push(id);
            }
            for id in to_fail {
                let entry = st.jobs.get_mut(&id).expect("selected above");
                entry.stalled = true;
                entry.phase = Phase::Done {
                    outcome: "stalled".into(),
                    body: "worker failed to honor cancellation within the hang grace".into(),
                    ok: false,
                };
                st.counters.failed += 1;
                st.counters.stalled += 1;
                finish_job(shared, &mut st, id, Some("stalled"), true);
                // The wedged worker retires itself when (if ever) it
                // returns; keep the pool at strength now.
                st.workers_alive += 1;
                replacements += 1;
            }
        }
        for _ in 0..replacements {
            spawn_worker(Arc::clone(&shared));
        }
    }
}

// ---------------------------------------------------------------------------
// HTTP front end
// ---------------------------------------------------------------------------

/// Blocks in `accept` for the life of the process: there is no poll
/// interval, and the thread ends when `main` returns.
fn accept_loop(shared: &Arc<Shared>, listener: &TcpListener) {
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if shared.connections.fetch_add(1, Ordering::SeqCst) >= MAX_CONNECTIONS {
                    shared.connections.fetch_sub(1, Ordering::SeqCst);
                    let mut stream = stream;
                    let _ = http::respond(
                        &mut stream,
                        503,
                        "Service Unavailable",
                        &[("retry-after", "1")],
                        "application/json",
                        "{\"error\":{\"message\":\"connection limit\"}}",
                    );
                    continue;
                }
                let shared = Arc::clone(shared);
                std::thread::spawn(move || {
                    handle_connection(&shared, stream);
                    shared.connections.fetch_sub(1, Ordering::SeqCst);
                });
            }
            Err(e) => {
                eprintln!("sas-serve: accept error: {e}");
                std::thread::sleep(Duration::from_millis(100));
            }
        }
    }
}

fn handle_connection(shared: &Shared, mut stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let _ = stream.set_write_timeout(Some(Duration::from_secs(30)));
    let t0 = Instant::now();
    let req = match http::read_request(&mut stream) {
        Ok(req) => req,
        Err(http::ReadError::Closed) => return,
        Err(http::ReadError::TooLarge) => {
            let _ = http::respond(
                &mut stream,
                413,
                "Payload Too Large",
                &[],
                "application/json",
                "{\"error\":{\"message\":\"request too large\"}}",
            );
            record_request(shared, "malformed", 413, t0);
            return;
        }
        Err(http::ReadError::Bad(msg)) => {
            let body = format!("{{\"error\":{{\"message\":\"{}\"}}}}", json_escape(&msg));
            let _ =
                http::respond(&mut stream, 400, "Bad Request", &[], "application/json", &body);
            record_request(shared, "malformed", 400, t0);
            return;
        }
        Err(http::ReadError::Io(_)) => return,
    };
    let path = req.path.split('?').next().unwrap_or("").to_string();
    // Two endpoints bypass the JSON router: /metrics is text exposition,
    // /watch/<job> streams server-sent events until the job resolves.
    if req.method == "GET" && path == "/metrics" {
        let body = metrics_body(shared);
        let _ = http::respond(
            &mut stream,
            200,
            "OK",
            &[],
            "text/plain; version=0.0.4; charset=utf-8",
            &body,
        );
        record_request(shared, "metrics", 200, t0);
        return;
    }
    if req.method == "GET" && path.starts_with("/watch/") {
        let status = serve_watch(shared, &mut stream, &path);
        record_request(shared, "watch", status, t0);
        return;
    }
    let ((status, reason, headers, body), label) = route(shared, &req);
    let header_refs: Vec<(&str, &str)> =
        headers.iter().map(|(n, v)| (n.as_str(), v.as_str())).collect();
    let _ = http::respond(&mut stream, status, reason, &header_refs, "application/json", &body);
    record_request(shared, &label, status, t0);
}

/// Metrics middleware: one counter bump + latency observation per request.
fn record_request(shared: &Shared, label: &str, status: u16, t0: Instant) {
    let micros = u64::try_from(t0.elapsed().as_micros()).unwrap_or(u64::MAX);
    shared.metrics.lock().expect("metrics lock").record(label, status, micros);
}

type Response = (u16, &'static str, Vec<(String, String)>, String);

fn ok(body: String) -> Response {
    (200, "OK", Vec::new(), body)
}

fn unavailable(message: &str, counters_bump: &str, shared: &Shared) -> Response {
    {
        let mut st = shared.state.lock().expect("state lock");
        match counters_bump {
            "full" => st.counters.rejected_full += 1,
            "draining" => st.counters.rejected_draining += 1,
            _ => {}
        }
    }
    (
        503,
        "Service Unavailable",
        vec![("retry-after".into(), "2".into())],
        format!(
            "{{\"error\":{{\"message\":\"{}\",\"kind\":\"{}\"}}}}",
            json_escape(message),
            counters_bump
        ),
    )
}

/// Dispatches one parsed request; the second element is the metrics label.
fn route(shared: &Shared, req: &Request) -> (Response, String) {
    match (req.method.as_str(), req.path.split('?').next().unwrap_or("")) {
        ("GET", "/healthz") => {
            let resp = if shared.draining.load(Ordering::SeqCst) {
                (
                    503,
                    "Service Unavailable",
                    vec![("retry-after".into(), "2".into())],
                    "{\"ok\":false,\"draining\":true}".into(),
                )
            } else {
                ok("{\"ok\":true}".into())
            };
            (resp, "healthz".into())
        }
        ("GET", "/status") => (ok(status_body(shared)), "status".into()),
        ("POST", "/drain") => {
            drain(shared);
            (ok("{\"draining\":true}".into()), "drain".into())
        }
        ("POST", "/rpc") => rpc(shared, req),
        _ => (
            (
                404,
                "Not Found",
                Vec::new(),
                "{\"error\":{\"message\":\"try POST /rpc, GET /status, GET /metrics, GET /watch/<job>, GET /healthz, POST /drain\"}}"
                    .into(),
            ),
            "other".into(),
        ),
    }
}

fn status_body(shared: &Shared) -> String {
    let st = shared.state.lock().expect("state lock");
    let c = &st.counters;
    format!(
        "{{\"schema\":\"sas-serve-status-v3\",\
         \"draining\":{},\"queued\":{},\"running\":{},\"workers\":{},\"queue_cap\":{},\
         \"accepted\":{},\"resumed\":{},\"completed\":{},\"failed\":{},\"cancelled\":{},\
         \"parked\":{},\"stalled\":{},\"rejected\":{{\"full\":{},\"draining\":{}}}}}",
        shared.draining.load(Ordering::SeqCst),
        st.queue.len(),
        st.running,
        st.workers_alive,
        st.queue.cap(),
        c.accepted,
        c.resumed,
        c.completed,
        c.failed,
        c.cancelled,
        c.parked,
        c.stalled,
        c.rejected_full,
        c.rejected_draining,
    )
}

/// Renders the full `GET /metrics` exposition: live gauges from the state
/// lock, monotonic job counters, the journal's on-disk size, and the
/// per-method request counters/latency histograms the middleware records.
fn metrics_body(shared: &Shared) -> String {
    let (queued, running, workers, queue_cap, c) = {
        let st = shared.state.lock().expect("state lock");
        (st.queue.len(), st.running, st.workers_alive, st.queue.cap(), st.counters.clone())
    };
    let mut out = String::new();
    expo::type_line(&mut out, "sas_serve_up", "gauge");
    expo::line(&mut out, "sas_serve_up", &[], 1.0);
    expo::type_line(&mut out, "sas_serve_uptime_seconds", "gauge");
    expo::line(&mut out, "sas_serve_uptime_seconds", &[], shared.started.elapsed().as_secs_f64());
    expo::type_line(&mut out, "sas_serve_draining", "gauge");
    expo::line(
        &mut out,
        "sas_serve_draining",
        &[],
        if shared.draining.load(Ordering::SeqCst) { 1.0 } else { 0.0 },
    );
    expo::type_line(&mut out, "sas_serve_queue_depth", "gauge");
    expo::line(&mut out, "sas_serve_queue_depth", &[], queued as f64);
    expo::type_line(&mut out, "sas_serve_queue_capacity", "gauge");
    expo::line(&mut out, "sas_serve_queue_capacity", &[], queue_cap as f64);
    expo::type_line(&mut out, "sas_serve_jobs_running", "gauge");
    expo::line(&mut out, "sas_serve_jobs_running", &[], running as f64);
    expo::type_line(&mut out, "sas_serve_workers_alive", "gauge");
    expo::line(&mut out, "sas_serve_workers_alive", &[], workers as f64);
    expo::type_line(&mut out, "sas_serve_worker_occupancy", "gauge");
    expo::line(
        &mut out,
        "sas_serve_worker_occupancy",
        &[],
        running as f64 / workers.max(1) as f64,
    );
    expo::type_line(&mut out, "sas_serve_connections", "gauge");
    expo::line(
        &mut out,
        "sas_serve_connections",
        &[],
        shared.connections.load(Ordering::SeqCst) as f64,
    );
    expo::type_line(&mut out, "sas_serve_jobs_total", "counter");
    for (outcome, n) in [
        ("accepted", c.accepted),
        ("resumed", c.resumed),
        ("completed", c.completed),
        ("failed", c.failed),
        ("cancelled", c.cancelled),
        ("parked", c.parked),
        ("stalled", c.stalled),
    ] {
        expo::line(&mut out, "sas_serve_jobs_total", &[("outcome", outcome)], n as f64);
    }
    expo::type_line(&mut out, "sas_serve_rejected_total", "counter");
    for (reason, n) in [("full", c.rejected_full), ("draining", c.rejected_draining)] {
        expo::line(&mut out, "sas_serve_rejected_total", &[("reason", reason)], n as f64);
    }
    let journal_bytes = {
        let journal = shared.journal.lock().expect("journal lock");
        std::fs::metadata(journal.path()).map(|m| m.len()).unwrap_or(0)
    };
    expo::type_line(&mut out, "sas_serve_journal_bytes", "gauge");
    expo::line(&mut out, "sas_serve_journal_bytes", &[], journal_bytes as f64);
    shared.metrics.lock().expect("metrics lock").render(&mut out);
    out
}

/// How long one `/watch` stream may stay open before the server closes it.
const WATCH_CAP: Duration = Duration::from_secs(600);

/// Poll period for the `/watch` bridge: phase + progress reads only, never
/// the worker hot path.
const WATCH_POLL: Duration = Duration::from_millis(50);

fn sse_send(stream: &mut TcpStream, event: &str, data: &str) -> std::io::Result<()> {
    write!(stream, "event: {event}\ndata: {data}\n\n")?;
    stream.flush()
}

/// `GET /watch/<job>`: streams `queued` / `progress` / `done` server-sent
/// events until the job resolves, the client hangs up, or [`WATCH_CAP`]
/// expires. Progress frames carry the job's in-memory progress record and
/// are deduplicated on cycle, so they are strictly monotonic.
fn serve_watch(shared: &Shared, stream: &mut TcpStream, path: &str) -> u16 {
    let Ok(job_id) = path["/watch/".len()..].parse::<u64>() else {
        let _ = http::respond(
            stream,
            400,
            "Bad Request",
            &[],
            "application/json",
            "{\"error\":{\"message\":\"watch target must be a numeric job id\"}}",
        );
        return 400;
    };
    if !shared.state.lock().expect("state lock").jobs.contains_key(&job_id) {
        let body = format!("{{\"error\":{{\"message\":\"unknown job {job_id}\"}}}}");
        let _ = http::respond(stream, 404, "Not Found", &[], "application/json", &body);
        return 404;
    }
    if http::stream_head(stream, "text/event-stream").is_err() {
        return 200;
    }
    enum Snap {
        Gone,
        Queued,
        Running(Progress),
        Terminal(String),
    }
    let opened = Instant::now();
    let mut last_cycle: Option<u64> = None;
    let mut announced_queued = false;
    loop {
        let snap = {
            let st = shared.state.lock().expect("state lock");
            match st.jobs.get(&job_id) {
                None => Snap::Gone,
                Some(e) => match &e.phase {
                    Phase::Queued => Snap::Queued,
                    Phase::Running { progress, .. } => Snap::Running(progress.clone()),
                    Phase::Parked | Phase::Done { .. } => {
                        Snap::Terminal(job_status_json(e, job_id))
                    }
                },
            }
        };
        let frame = match snap {
            Snap::Gone => {
                Some(("done", format!("{{\"job\":{job_id},\"status\":\"forgotten\"}}"), true))
            }
            Snap::Terminal(body) => Some(("done", body, true)),
            Snap::Queued if !announced_queued => {
                announced_queued = true;
                Some(("queued", format!("{{\"job\":{job_id},\"status\":\"queued\"}}"), false))
            }
            Snap::Queued => None,
            Snap::Running(progress) => match progress.latest() {
                Some(h) if last_cycle.is_none_or(|c| h.cycle > c) => {
                    last_cycle = Some(h.cycle);
                    Some((
                        "progress",
                        format!(
                            "{{\"job\":{job_id},\"cycle\":{},\"committed\":{},\"cpi\":\"{}\"}}",
                            h.cycle,
                            h.committed,
                            json_escape(&h.cpi)
                        ),
                        false,
                    ))
                }
                _ => None,
            },
        };
        if let Some((event, data, terminal)) = frame {
            if sse_send(stream, event, &data).is_err() {
                return 200; // client hung up; nothing more to do
            }
            shared.metrics.lock().expect("metrics lock").sse_event();
            if terminal {
                return 200;
            }
        }
        if opened.elapsed() > WATCH_CAP {
            let _ = sse_send(stream, "timeout", &format!("{{\"job\":{job_id}}}"));
            return 200;
        }
        std::thread::sleep(WATCH_POLL);
    }
}

/// Renders a JSON-RPC id value back out.
fn render_id(id: Option<&Json>) -> String {
    match id {
        Some(Json::Num(n)) if n.fract() == 0.0 => format!("{}", *n as i64),
        Some(Json::Num(n)) => format!("{n}"),
        Some(Json::Str(s)) => format!("\"{}\"", json_escape(s)),
        _ => "null".into(),
    }
}

fn rpc_error(id: &str, code: i64, message: &str, kind: Option<&str>) -> String {
    let data = match kind {
        Some(k) => format!(",\"data\":{{\"kind\":\"{}\"}}", json_escape(k)),
        None => String::new(),
    };
    format!(
        "{{\"jsonrpc\":\"2.0\",\"id\":{id},\"error\":{{\"code\":{code},\"message\":\"{}\"{data}}}}}",
        json_escape(message)
    )
}

fn rpc_result(id: &str, result: &str) -> String {
    format!("{{\"jsonrpc\":\"2.0\",\"id\":{id},\"result\":{result}}}")
}

fn rpc(shared: &Shared, req: &Request) -> (Response, String) {
    let text = String::from_utf8_lossy(&req.body);
    let doc = match json::parse(&text) {
        Ok(doc) => doc,
        Err(e) => {
            return (
                (
                    400,
                    "Bad Request",
                    Vec::new(),
                    rpc_error("null", -32700, &format!("parse error: {e}"), None),
                ),
                "rpc:invalid".into(),
            )
        }
    };
    let id = render_id(doc.get("id"));
    let Some(method) = doc.get("method").and_then(Json::as_str) else {
        return (
            (400, "Bad Request", Vec::new(), rpc_error(&id, -32600, "missing method", None)),
            "rpc:invalid".into(),
        );
    };
    let empty = Json::Obj(Default::default());
    let params = doc.get("params").unwrap_or(&empty);

    let label = format!("rpc:{method}");
    let resp = match method {
        "status" => ok(rpc_result(&id, &status_body(shared))),
        "drain" => {
            drain(shared);
            ok(rpc_result(&id, "{\"draining\":true}"))
        }
        "job" => rpc_job_query(shared, &id, params),
        "cancel" => rpc_cancel(shared, &id, params),
        "query" => rpc_query(shared, &id, params),
        "simulate" | "trace" | "lint" | "spin" => rpc_submit(shared, &id, method, params),
        other => {
            let msg = format!("unknown method {other:?}");
            return (
                (400, "Bad Request", Vec::new(), rpc_error(&id, -32601, &msg, None)),
                "rpc:unknown".into(),
            );
        }
    };
    (resp, label)
}

/// The `query` method: runs a `sas-query` expression over the service's
/// own artifacts — every journal line (accepted / resolved records) plus
/// one row per known job carrying its live status and, for completed
/// jobs, the flattened result metrics (`cycles`, `committed`,
/// `cpi.<bucket>`, …). The index is rebuilt per call: campaign-scale
/// corpora live in files, a daemon's job table is small.
fn rpc_query(shared: &Shared, id: &str, params: &Json) -> Response {
    let Some(q) = params.get("q").and_then(Json::as_str) else {
        return (
            400,
            "Bad Request",
            Vec::new(),
            rpc_error(id, -32602, "missing query string param \"q\"", None),
        );
    };
    let mut idx = sas_query::Index::new();
    let journal_path = shared.journal.lock().expect("journal lock").path().to_path_buf();
    if let Ok(text) = std::fs::read_to_string(&journal_path) {
        for row in sas_query::load::load_str(&text, "journal").rows {
            idx.push_row(&row);
        }
    }
    {
        let st = shared.state.lock().expect("state lock");
        let mut ids: Vec<u64> = st.jobs.keys().copied().collect();
        ids.sort_unstable();
        for jid in ids {
            let entry = &st.jobs[&jid];
            let mut row: sas_query::load::Row = vec![
                ("source".into(), Val::Str("jobs".into())),
                ("job".into(), Val::Num(jid as f64)),
                ("kind".into(), Val::Str(entry.spec.kind().into())),
                ("label".into(), Val::Str(entry.spec.label())),
            ];
            match &entry.phase {
                Phase::Queued => row.push(("status".into(), Val::Str("queued".into()))),
                Phase::Running { .. } => row.push(("status".into(), Val::Str("running".into()))),
                Phase::Parked => row.push(("status".into(), Val::Str("parked".into()))),
                Phase::Done { outcome, body, ok } => {
                    row.push(("status".into(), Val::Str(format!("done:{outcome}"))));
                    row.push(("ok".into(), Val::Str(ok.to_string())));
                    if *ok {
                        if let Ok(doc) = json::parse(body) {
                            sas_query::load::flatten("", &doc, &mut row);
                        }
                    }
                }
            }
            sas_query::load::enrich(&mut row);
            idx.push_row(&row);
        }
    }
    idx.seal();
    match sas_query::run_str(&idx, q) {
        Ok(table) => ok(rpc_result(id, &table.to_json())),
        Err(e) => (400, "Bad Request", Vec::new(), rpc_error(id, -32602, &e, None)),
    }
}

fn job_status_json(entry: &JobEntry, id: u64) -> String {
    let (status, extra) = match &entry.phase {
        Phase::Queued => ("queued".to_string(), String::new()),
        Phase::Running { .. } => ("running".to_string(), String::new()),
        Phase::Parked => ("parked".to_string(), String::new()),
        Phase::Done { outcome, body, ok } => {
            let payload = if *ok {
                format!(",\"result\":{body}")
            } else {
                format!(",\"error\":\"{}\"", json_escape(body))
            };
            (format!("done:{outcome}"), payload)
        }
    };
    format!(
        "{{\"job\":{id},\"kind\":\"{}\",\"label\":\"{}\",\"status\":\"{}\"{}}}",
        entry.spec.kind(),
        json_escape(&entry.spec.label()),
        status,
        extra
    )
}

fn rpc_job_query(shared: &Shared, id: &str, params: &Json) -> Response {
    let Some(job_id) = params.get("job").and_then(Json::as_num).map(|n| n as u64) else {
        return (400, "Bad Request", Vec::new(), rpc_error(id, -32600, "missing job id", None));
    };
    let st = shared.state.lock().expect("state lock");
    match st.jobs.get(&job_id) {
        Some(entry) => ok(rpc_result(id, &job_status_json(entry, job_id))),
        None => {
            let msg = format!("unknown job {job_id}");
            (404, "Not Found", Vec::new(), rpc_error(id, -32000, &msg, Some("unknown-job")))
        }
    }
}

fn rpc_cancel(shared: &Shared, id: &str, params: &Json) -> Response {
    let Some(job_id) = params.get("job").and_then(Json::as_num).map(|n| n as u64) else {
        return (400, "Bad Request", Vec::new(), rpc_error(id, -32600, "missing job id", None));
    };
    let mut st = shared.state.lock().expect("state lock");
    let Some(entry) = st.jobs.get_mut(&job_id) else {
        let msg = format!("unknown job {job_id}");
        return (404, "Not Found", Vec::new(), rpc_error(id, -32000, &msg, Some("unknown-job")));
    };
    match &entry.phase {
        Phase::Queued => {
            entry.phase =
                Phase::Done { outcome: "cancelled".into(), body: "cancelled while queued".into(), ok: false };
            st.queue.cancel(job_id);
            st.counters.cancelled += 1;
            finish_job(shared, &mut st, job_id, Some("cancelled"), true);
            ok(rpc_result(id, &format!("{{\"job\":{job_id},\"cancelled\":true}}")))
        }
        Phase::Running { .. } => {
            // Cooperative: the worker aborts at the next chunk boundary.
            entry.cancel.store(true, Ordering::SeqCst);
            ok(rpc_result(id, &format!("{{\"job\":{job_id},\"cancelling\":true}}")))
        }
        _ => ok(rpc_result(id, &format!("{{\"job\":{job_id},\"cancelled\":false}}"))),
    }
}

fn rpc_submit(shared: &Shared, id: &str, method: &str, params: &Json) -> Response {
    if shared.draining.load(Ordering::SeqCst) {
        return unavailable("draining: not admitting new jobs", "draining", shared);
    }
    let (spec, deadline_ms, wait) = match job::parse_request(method, params) {
        Ok(parsed) => parsed,
        Err(msg) => return (400, "Bad Request", Vec::new(), rpc_error(id, -32602, &msg, None)),
    };
    let deadline_ms =
        deadline_ms.unwrap_or(shared.cfg.default_deadline.as_millis() as u64).max(1);

    // Admission, under one critical section.
    let job_id = {
        let mut st = shared.state.lock().expect("state lock");
        let job_id = st.next_id;
        if st.queue.push(job_id).is_err() {
            drop(st);
            return unavailable("queue full", "full", shared);
        }
        st.next_id += 1;
        let pending = PendingJob { id: job_id, spec: spec.clone(), deadline_ms };
        // Journal before acknowledging: an accepted job must survive
        // SIGKILL. (A crash before this line loses only a job nobody was
        // told was accepted.)
        if let Err(e) = shared.journal.lock().expect("journal lock").accepted(&pending) {
            st.queue.cancel(job_id);
            let msg = format!("journal append failed: {e}");
            return (
                500,
                "Internal Server Error",
                Vec::new(),
                rpc_error(id, -32000, &msg, Some("journal")),
            );
        }
        st.jobs.insert(
            job_id,
            JobEntry {
                spec,
                deadline_ms,
                cancel: Arc::new(AtomicBool::new(false)),
                phase: Phase::Queued,
                stalled: false,
            },
        );
        st.counters.accepted += 1;
        job_id
    };
    shared.work_cv.notify_one();

    if !wait {
        return ok(rpc_result(id, &format!("{{\"job\":{job_id},\"status\":\"queued\"}}")));
    }

    // Block until the job leaves the live phases. The watchdog guarantees
    // termination (deadline → cancel → stall), so cap the wait well past
    // the job's own deadline.
    let wait_cap = Instant::now()
        + Duration::from_millis(deadline_ms)
        + shared.cfg.hang_grace
        + Duration::from_secs(30);
    let mut st = shared.state.lock().expect("state lock");
    loop {
        match st.jobs.get(&job_id).map(|e| &e.phase) {
            None => {
                return (
                    500,
                    "Internal Server Error",
                    Vec::new(),
                    rpc_error(id, -32000, "job entry vanished", None),
                )
            }
            Some(Phase::Done { outcome, body, ok: true }) => {
                let _ = outcome;
                let body = rpc_result(id, body);
                return (200, "OK", Vec::new(), body);
            }
            Some(Phase::Done { outcome, body, ok: false }) => {
                let msg = format!("job {job_id} failed: {body}");
                let kind = outcome.clone();
                return (200, "OK", Vec::new(), rpc_error(id, -32000, &msg, Some(&kind)));
            }
            Some(Phase::Parked) => {
                let msg = format!("job {job_id} parked for drain; resubmit or poll after restart");
                return (200, "OK", Vec::new(), rpc_error(id, -32000, &msg, Some("parked")));
            }
            Some(_) => {
                if Instant::now() >= wait_cap {
                    let msg = format!("timed out waiting for job {job_id}");
                    return (200, "OK", Vec::new(), rpc_error(id, -32000, &msg, Some("wait-timeout")));
                }
                let (guard, _) = shared
                    .done_cv
                    .wait_timeout(st, Duration::from_millis(100))
                    .expect("state lock");
                st = guard;
            }
        }
    }
}
