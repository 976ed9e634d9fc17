//! `sas-serve` — the persistent simulation daemon.
//!
//! ```text
//! sas-serve --state-dir runs/serve [--addr 127.0.0.1:0] [--workers N]
//! ```
//!
//! Speaks HTTP/1.1 + JSON-RPC (see DESIGN.md §13 and the README's
//! "Serving traffic" walkthrough). Prints `sas-serve: listening on
//! 127.0.0.1:<port>` on stdout once ready, then runs until SIGTERM/SIGINT
//! or a client posts `/drain`; either way it stops admitting, finishes or
//! parks in-flight jobs behind checkpoints, and exits 0 if the drain
//! completed inside the drain deadline.
//!
//! The workspace is `#![forbid(unsafe_code)]` throughout; the one
//! exception is the ~10 lines below wiring `signal(2)` to an atomic flag,
//! confined to this binary crate root.

use sas_serve::server::{Config, Server};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

/// Set from the signal handler; polled by the main loop.
static TERMINATE: AtomicBool = AtomicBool::new(false);

mod sig {
    //! The one unsafe corner: registering a `signal(2)` handler. Storing
    //! to a static `AtomicBool` is async-signal-safe; everything else
    //! happens on the main thread.
    use std::os::raw::c_int;

    const SIGINT: c_int = 2;
    const SIGTERM: c_int = 15;

    extern "C" {
        fn signal(signum: c_int, handler: usize) -> usize;
    }

    extern "C" fn on_signal(_signum: c_int) {
        super::TERMINATE.store(true, std::sync::atomic::Ordering::SeqCst);
    }

    pub fn install() {
        unsafe {
            signal(SIGTERM, on_signal as *const () as usize);
            signal(SIGINT, on_signal as *const () as usize);
        }
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "sas-serve — persistent SpecASan simulation service

USAGE:
  sas-serve --state-dir DIR [OPTIONS]

OPTIONS:
  --state-dir DIR            journal and job checkpoints (required)
  --addr HOST:PORT           bind address (default 127.0.0.1:0, ephemeral)
  --workers N                worker threads (default 2)
  --queue-cap N              admission queue bound (default 32)
  --default-deadline-ms N    deadline for requests that set none (default 120000)
  --drain-deadline-ms N      drain grace before giving up (default 30000)
  --hang-grace-ms N          cancellation grace before a worker is declared
                             wedged (default 5000)
  --chunk N                  checkpoint period of simulation jobs, in cycles
                             (default 1000000); cancel, deadline and drain
                             checks run every min(N, 100000) cycles

ENDPOINTS:
  POST /rpc          JSON-RPC: simulate, trace, lint, spin, job, cancel, query,
                     status, drain; simulate and trace take a \"target\"
                     (spectre-v1, a SPEC or a PARSEC name) or an inline
                     \"program\"
  GET  /status       counters and queue state (schema sas-serve-status-v3)
  GET  /metrics      Prometheus-style text exposition: request counters,
                     latency histograms + quantiles, queue/worker gauges
  GET  /watch/<job>  server-sent events: queued / progress / done frames
                     from the job's in-memory progress (cycle, committed,
                     CPI stack)
  GET  /healthz      200 ok / 503 draining
  POST /drain        start a graceful drain

The query method runs a sas-query expression over the daemon's journal and
live job table, e.g.
  {{\"method\":\"query\",\"params\":{{\"q\":\"where source=jobs sort cycles desc limit 5\"}}}}
"
    );
    ExitCode::from(2)
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter().position(|a| a == flag).and_then(|i| args.get(i + 1)).cloned()
}

fn parse_num<T: std::str::FromStr>(args: &[String], flag: &str) -> Result<Option<T>, String> {
    match flag_value(args, flag) {
        None => Ok(None),
        Some(v) => v.parse().map(Some).map_err(|_| format!("bad value for {flag}: {v:?}")),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        return usage();
    }
    let Some(state_dir) = flag_value(&args, "--state-dir") else {
        eprintln!("sas-serve: --state-dir is required\n");
        return usage();
    };
    let mut cfg = Config::new(state_dir.into());
    macro_rules! opt {
        ($flag:literal, $set:expr) => {
            match parse_num(&args, $flag) {
                Ok(Some(v)) => $set(v),
                Ok(None) => {}
                Err(e) => {
                    eprintln!("sas-serve: {e}");
                    return ExitCode::from(2);
                }
            }
        };
    }
    if let Some(addr) = flag_value(&args, "--addr") {
        cfg.addr = addr;
    }
    opt!("--workers", |v: usize| cfg.workers = v.max(1));
    opt!("--queue-cap", |v: usize| cfg.queue_cap = v.max(1));
    opt!("--default-deadline-ms", |v: u64| cfg.default_deadline = Duration::from_millis(v));
    opt!("--drain-deadline-ms", |v: u64| cfg.drain_deadline = Duration::from_millis(v));
    opt!("--hang-grace-ms", |v: u64| cfg.hang_grace = Duration::from_millis(v));
    opt!("--chunk", |v: u64| cfg.chunk = v.max(1));

    sig::install();
    let server = match Server::start(cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("sas-serve: failed to start: {e}");
            return ExitCode::FAILURE;
        }
    };
    // The readiness line scripts wait for (tier1.sh parses the port).
    println!("sas-serve: listening on 127.0.0.1:{}", server.port());
    use std::io::Write as _;
    let _ = std::io::stdout().flush();

    loop {
        std::thread::sleep(Duration::from_millis(50));
        if TERMINATE.load(Ordering::SeqCst) {
            eprintln!("sas-serve: caught termination signal");
            server.drain();
        }
        if server.draining() {
            break;
        }
    }
    let clean = server.drain_wait();
    if clean {
        eprintln!("sas-serve: drain complete, exiting");
        ExitCode::SUCCESS
    } else {
        eprintln!("sas-serve: drain deadline exceeded");
        ExitCode::FAILURE
    }
}
