//! `serve-rpc`: an open-loop client against a fresh `sas-serve --workers 2`.
//!
//! Requests go out on a seeded schedule at a fixed rate whatever the
//! daemon does, over at most two connections, and each is timed from the
//! moment it was due, so a stall shows in the requests behind it too.
//! Every simulation stays under the 50k-cycle warm-up, so the daemon never
//! takes a snapshot: this workload isolates the HTTP, accept, queue and
//! journal path. An op is one request.

use crate::common::{self, Ctx, Digest, Pass};
use crate::proc::{self, Guard};
use crate::report::Outcome;
use crate::spec_grid::COLUMNS;
use crate::stats;
use crate::trace::Tracer;
use sas_ptest::Rng;
use sas_serve::http::json_escape;
use sas_serve::job::{parse_request, run_job, JobEnd, RunPlan};
use sas_telemetry::json::{parse, Json};
use sas_workloads::spec_suite;
use std::collections::{BTreeMap, BTreeSet};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{ChildStdout, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Offered load, requests per second. Fixed when the benchmark was
/// defined (the highest multiple of 10 req/s at which the generator's
/// lateness p99 stayed under 5 ms on the reference machine); never change
/// it, or runs stop being comparable.
pub const RATE: f64 = 10.0;

/// Concurrent connections: one per core of the two-core reference machine.
const CONNS: usize = 2;

/// Daemon worker threads.
const WORKERS: usize = 2;

/// A request slower than this, counted from its due time, is a failed op.
const LIMIT_MS: f64 = 250.0;

/// Where the `lint` requests' programs come from.
const CORPUS: &str = "crates/fuzz/corpus";

/// The kinds of request in the mix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    /// `simulate` of a SPEC profile at 5 iterations.
    SimShort,
    /// `simulate` of a SPEC profile at 20 iterations.
    SimLong,
    /// `simulate` of the spectre-v1 proof of concept.
    Spectre,
    /// `lint` of a fuzz-corpus program.
    Lint,
}

/// The request mix: kind and percent.
pub const MIX: [(Kind, usize); 4] = [
    (Kind::SimShort, 40),
    (Kind::SimLong, 25),
    (Kind::Spectre, 15),
    (Kind::Lint, 20),
];

/// One scheduled request.
#[derive(Debug, Clone, PartialEq)]
pub struct Req {
    /// When it is due, seconds after the schedule starts.
    pub due_s: f64,
    /// What it asks for.
    pub kind: Kind,
    /// SPEC profile index (simulations) or corpus program index (lint).
    pub item: usize,
    /// Index into the fig6 columns.
    pub mitigation: usize,
}

/// `rate × seconds` requests in exactly the [`MIX`] proportions, with
/// targets, mitigations and lint programs spread evenly over each kind's
/// requests, so every seed asks for the same work. The seed decides the
/// order and the exponential gaps, which are scaled so the schedule spans
/// `seconds`.
pub fn schedule(seed: u64, rate: f64, seconds: f64, n_spec: usize, n_lint: usize) -> Vec<Req> {
    let n = (rate * seconds).round().max(1.0) as usize;
    let mut counts: Vec<(Kind, usize)> = MIX.iter().map(|&(k, pct)| (k, n * pct / 100)).collect();
    for i in 0..n - counts.iter().map(|c| c.1).sum::<usize>() {
        counts[i % MIX.len()].1 += 1;
    }
    let cols = COLUMNS.len();
    let mut reqs: Vec<Req> = counts
        .into_iter()
        .flat_map(|(kind, count)| {
            (0..count).map(move |j| {
                let (item, mitigation) = match kind {
                    Kind::Lint => (j % n_lint, 0),
                    Kind::Spectre => (0, j % cols),
                    // Walk the target × mitigation grid diagonally.
                    Kind::SimShort | Kind::SimLong => (j % n_spec, (j + j / n_spec) % cols),
                };
                Req {
                    due_s: 0.0,
                    kind,
                    item,
                    mitigation,
                }
            })
        })
        .collect();
    let mut rng = Rng::new(seed);
    common::shuffle(&mut reqs, &mut rng);
    let gaps: Vec<f64> = (0..n).map(|_| -(1.0 - rng.unit_f64()).ln()).collect();
    let scale = seconds / gaps.iter().sum::<f64>();
    let mut due = 0.0;
    for (r, gap) in reqs.iter_mut().zip(gaps) {
        r.due_s = due;
        due += gap * scale;
    }
    reqs
}

/// One request's timing on the open loop, milliseconds.
#[derive(Debug, Clone)]
pub struct Sent<R> {
    /// How late the generator sent it.
    pub late_ms: f64,
    /// From due time to the end of the response.
    pub latency_ms: f64,
    /// From sending to the end of the response.
    pub client_ms: f64,
    /// What `send` returned.
    pub result: R,
}

/// Sends request `i` at `start + dues[i]` over at most `conns` concurrent
/// connections: when every connection is busy the next request waits for
/// one, and that wait is its lateness.
pub fn open_loop<R: Send>(
    tr: &Tracer,
    dues: &[f64],
    conns: usize,
    send: impl Fn(usize) -> R + Sync,
) -> Vec<Sent<R>> {
    let start = Instant::now() + Duration::from_millis(20);
    let next = AtomicUsize::new(0);
    let out: Mutex<Vec<Option<Sent<R>>>> = Mutex::new((0..dues.len()).map(|_| None).collect());
    let open = tr.current();
    std::thread::scope(|s| {
        for _ in 0..conns {
            s.spawn(|| {
                tr.within(open, || loop {
                    let i = next.fetch_add(1, Ordering::SeqCst);
                    if i >= dues.len() {
                        return;
                    }
                    let due = start + Duration::from_secs_f64(dues[i]);
                    let sent = tr.group("hostbench.request", i as u64, || {
                        tr.span("gen.idle", || {
                            let now = Instant::now();
                            if now < due {
                                std::thread::sleep(due - now);
                            }
                        });
                        let sent = Instant::now();
                        let result = send(i);
                        let done = Instant::now();
                        Sent {
                            late_ms: sent.saturating_duration_since(due).as_secs_f64() * 1e3,
                            latency_ms: done.saturating_duration_since(due).as_secs_f64() * 1e3,
                            client_ms: (done - sent).as_secs_f64() * 1e3,
                            result,
                        }
                    });
                    out.lock().expect("results lock")[i] = Some(sent);
                })
            });
        }
    });
    out.into_inner()
        .expect("results lock")
        .into_iter()
        .map(|s| s.expect("every request was sent"))
        .collect()
}

/// One HTTP/1.1 exchange on a fresh connection; the daemon closes it after
/// the response. Returns the status code and the body.
fn http(port: u16, request: &str) -> Answer {
    let mut s = TcpStream::connect(("127.0.0.1", port)).map_err(|e| format!("connect: {e}"))?;
    s.set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| e.to_string())?;
    s.write_all(request.as_bytes())
        .map_err(|e| format!("send: {e}"))?;
    let mut buf = Vec::new();
    s.read_to_end(&mut buf)
        .map_err(|e| format!("receive: {e}"))?;
    let text = String::from_utf8_lossy(&buf);
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or("response without a header end")?;
    let status = head
        .split(' ')
        .nth(1)
        .and_then(|c| c.parse().ok())
        .ok_or("bad status line")?;
    Ok((status, body.to_string()))
}

/// Sends request `key` as JSON-RPC call `id`.
fn post_rpc(port: u16, id: usize, (method, params): &Key) -> Answer {
    let body =
        format!("{{\"jsonrpc\":\"2.0\",\"id\":{id},\"method\":\"{method}\",\"params\":{params}}}");
    http(
        port,
        &format!(
            "POST /rpc HTTP/1.1\r\nhost: hostbench\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        ),
    )
}

/// An HTTP status and body, or why there was none.
type Answer = Result<(u16, String), String>;

/// A request's JSON-RPC method and params: what it asks the daemon to do.
type Key = (&'static str, String);

/// The JSON-RPC method and params of a request.
fn rpc_parts(req: &Req, lint: &[String]) -> Key {
    let spec = spec_suite();
    let m = COLUMNS[req.mitigation].token();
    match req.kind {
        Kind::SimShort | Kind::SimLong => {
            let iters = if req.kind == Kind::SimShort { 5 } else { 20 };
            (
                "simulate",
                format!(
                    "{{\"target\":\"{}\",\"mitigation\":\"{m}\",\"iters\":{iters}}}",
                    spec[req.item].name
                ),
            )
        }
        Kind::Spectre => (
            "simulate",
            format!("{{\"target\":\"spectre-v1\",\"mitigation\":\"{m}\"}}"),
        ),
        Kind::Lint => (
            "lint",
            format!("{{\"program\":\"{}\"}}", json_escape(&lint[req.item])),
        ),
    }
}

/// What a request's answer must agree on: cycles and committed count for a
/// simulation, the gadget count for a lint.
fn facts(result: &Json) -> Option<Vec<u64>> {
    let n = |k: &str| result.get(k).and_then(Json::as_num).map(|v| v as u64);
    match result.get("gadgets") {
        Some(_) => Some(vec![n("gadgets")?]),
        None => Some(vec![n("cycles")?, n("committed")?]),
    }
}

/// A running daemon; killed and reaped on drop.
struct Daemon {
    guard: Guard,
    port: u16,
    _stdout: BufReader<ChildStdout>,
}

fn spawn_daemon(ctx: &Ctx, dir: &Path) -> Result<Daemon, String> {
    let log = std::fs::File::create(dir.with_extension("log")).map_err(|e| e.to_string())?;
    let mut cmd = Command::new(ctx.bin("sas-serve"));
    proc::clean_env(&mut cmd)
        .arg("--state-dir")
        .arg(dir)
        .args(["--workers", &WORKERS.to_string()])
        .stdout(Stdio::piped())
        .stderr(log);
    let mut guard = Guard::spawn(&mut cmd).map_err(|e| format!("cannot start sas-serve: {e}"))?;
    let mut stdout = BufReader::new(guard.child().stdout.take().expect("piped stdout"));
    let mut line = String::new();
    stdout.read_line(&mut line).map_err(|e| e.to_string())?;
    let port = line
        .trim()
        .strip_prefix("sas-serve: listening on 127.0.0.1:")
        .and_then(|p| p.parse().ok())
        .ok_or_else(|| format!("sas-serve did not start: {line:?}"))?;
    Ok(Daemon {
        guard,
        port,
        _stdout: stdout,
    })
}

/// The lint corpus, in file-name order.
fn corpus() -> Result<Vec<String>, String> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(CORPUS)
        .map_err(|e| format!("{CORPUS}: {e}"))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "sasm"))
        .collect();
    paths.sort();
    paths
        .iter()
        .map(|p| std::fs::read_to_string(p).map_err(|e| format!("{}: {e}", p.display())))
        .collect()
}

/// Spawns a daemon and sends one warm-up call per distinct target and
/// iteration count (mitigations share the daemon's workload cache).
fn setup(ctx: &Ctx, reqs: &[Req], lint: &[String]) -> Result<Daemon, String> {
    let d = spawn_daemon(ctx, &ctx.fresh_dir("serve")?)?;
    let mut seen = BTreeSet::new();
    for r in reqs {
        if seen.insert((r.kind, r.item)) {
            let key = rpc_parts(r, lint);
            match post_rpc(d.port, 0, &key) {
                Ok((200, _)) => {}
                other => return Err(format!("warm-up {key:?}: {other:?}")),
            }
        }
    }
    Ok(d)
}

fn pass(tr: &Tracer, port: u16, reqs: &[Req], lint: &[String]) -> (Vec<Sent<Answer>>, f64) {
    let dues: Vec<f64> = reqs.iter().map(|r| r.due_s).collect();
    let keys: Vec<Key> = reqs.iter().map(|r| rpc_parts(r, lint)).collect();
    let t = Instant::now();
    let sent = tr.group(crate::trace::ROOT, 0, || {
        open_loop(tr, &dues, CONNS, |i| {
            tr.span("serve.rpc", || post_rpc(port, i, &keys[i]))
        })
    });
    (sent, common::secs(t))
}

/// Checks every answer against the in-process reference and returns the
/// pass's op accounting.
fn judge(
    sent: &[Sent<Answer>],
    wall_s: f64,
    reqs: &[Req],
    lint: &[String],
    refs: &BTreeMap<Key, Reference>,
    problems: &mut Vec<String>,
    d: &mut Digest,
) -> Pass {
    let mut failed = 0;
    for (s, r) in sent.iter().zip(reqs) {
        let key = rpc_parts(r, lint);
        let got = match &s.result {
            Ok((200, body)) => parse(body)
                .ok()
                .and_then(|doc| doc.get("result").and_then(facts))
                .ok_or_else(|| {
                    format!(
                        "no result in {}",
                        body.chars().take(200).collect::<String>()
                    )
                }),
            Ok((code, body)) => Err(format!(
                "HTTP {code}: {}",
                body.chars().take(200).collect::<String>()
            )),
            Err(e) => Err(e.clone()),
        };
        let want = refs.get(&key).map(|r| &r.facts);
        let why = match got {
            Err(e) => Some(e),
            Ok(v) if Some(&v) != want => Some(format!("answered {v:?}, in process {want:?}")),
            Ok(v) if s.latency_ms > LIMIT_MS => {
                v.iter().for_each(|&x| d.u64(x));
                Some(format!("{:.1} ms from due time", s.latency_ms))
            }
            Ok(v) => {
                v.iter().for_each(|&x| d.u64(x));
                None
            }
        };
        if let Some(why) = why {
            failed += 1;
            problems.push(format!(
                "{} {}: {why}",
                key.0,
                key.1.chars().take(80).collect::<String>()
            ));
        }
    }
    // Requests do not repeat: the whole schedule is one round.
    Pass {
        rounds: vec![sent.iter().map(|s| s.latency_ms).collect()],
        round_s: vec![wall_s],
        failed,
    }
}

/// What `run_job` in this process answers for one request.
struct Reference {
    /// The answer's [`facts`].
    facts: Vec<u64>,
    /// Time of a second, warm run, ms.
    ms: f64,
}

/// Runs every distinct request in this process, twice: once to fill the
/// workload cache as the daemon's warm-up did, once to time it.
fn references(keys: &BTreeSet<Key>) -> Result<BTreeMap<Key, Reference>, String> {
    let plan = RunPlan {
        chunk: 1_000_000,
        ..RunPlan::default()
    };
    let (cancel, park) = (AtomicBool::new(false), AtomicBool::new(false));
    let mut refs = BTreeMap::new();
    for key in keys {
        let params = parse(&key.1).map_err(|e| format!("{}: {e}", key.1))?;
        let (spec, _, _) = parse_request(key.0, &params)?;
        run_job(&spec, &plan, &cancel, &park);
        let t = Instant::now();
        let answer = run_job(&spec, &plan, &cancel, &park);
        let ms = common::ms(t);
        let JobEnd::Completed { result } = answer else {
            return Err(format!("in-process {} {} ended {answer:?}", key.0, key.1));
        };
        let doc = parse(&result).map_err(|e| format!("{result}: {e}"))?;
        let facts = facts(&doc).ok_or_else(|| format!("no facts in {result}"))?;
        refs.insert(key.clone(), Reference { facts, ms });
    }
    Ok(refs)
}

/// The value of one `/metrics` sample line, e.g.
/// `sas_serve_request_latency_us_sum{method="rpc:lint"}`.
fn sample(metrics: &str, key: &str) -> f64 {
    metrics
        .lines()
        .find_map(|l| {
            l.strip_prefix(key)
                .and_then(|rest| rest.trim().parse().ok())
        })
        .unwrap_or(0.0)
}

fn scrape(port: u16) -> String {
    http(port, "GET /metrics HTTP/1.1\r\nhost: hostbench\r\n\r\n")
        .map(|(_, b)| b)
        .unwrap_or_default()
}

/// Server-side latency sum (µs) and count of the RPC methods.
fn server_totals(metrics: &str) -> (f64, f64) {
    ["simulate", "lint"].iter().fold((0.0, 0.0), |(s, n), m| {
        (
            s + sample(
                metrics,
                &format!("sas_serve_request_latency_us_sum{{method=\"rpc:{m}\"}}"),
            ),
            n + sample(
                metrics,
                &format!("sas_serve_request_latency_us_count{{method=\"rpc:{m}\"}}"),
            ),
        )
    })
}

/// Runs the workload.
pub fn run(ctx: &Ctx, trace: bool) -> Result<Outcome, String> {
    let mut o = Outcome::new("serve-rpc", ctx.seed, ctx.seconds, trace);
    let lint = corpus()?;
    let reqs = schedule(ctx.seed, RATE, ctx.seconds, spec_suite().len(), lint.len());
    let keys: BTreeSet<Key> = reqs.iter().map(|r| rpc_parts(r, &lint)).collect();
    let tr = Tracer::new(trace);
    let (daemon, setup_s) = common::setup(trace, &tr, |_| setup(ctx, &reqs, &lint))?;

    let (untraced, untraced_wall) = pass(&Tracer::new(false), daemon.port, &reqs, &lint);
    let before = scrape(daemon.port);
    let traced = trace.then(|| pass(&tr, daemon.port, &reqs, &lint));
    let after = scrape(daemon.port);
    let rss = proc::peak_rss_mb(Some(daemon.guard.id()));
    drop(daemon);

    let refs = references(&keys)?;
    let mut problems = Vec::new();
    let mut d = Digest::default();
    let base = judge(
        &untraced,
        untraced_wall,
        &reqs,
        &lint,
        &refs,
        &mut problems,
        &mut d,
    );
    o.digest = d.value();
    match traced {
        None => common::fill_e2e(&mut o, setup_s, &base, rss),
        Some((sent, wall)) => {
            let pass = judge(
                &sent,
                wall,
                &reqs,
                &lint,
                &refs,
                &mut problems,
                &mut Digest::default(),
            );
            for (kind, name) in [
                (Kind::SimShort, "serve.client_ms.sim_short.p50"),
                (Kind::SimLong, "serve.client_ms.sim_long.p50"),
                (Kind::Spectre, "serve.client_ms.spectre.p50"),
                (Kind::Lint, "serve.client_ms.lint.p50"),
            ] {
                let v: Vec<f64> = sent
                    .iter()
                    .zip(&reqs)
                    .filter(|(_, r)| r.kind == kind)
                    .map(|(s, _)| s.client_ms)
                    .collect();
                o.set(name, stats::pct(&v, 50.0));
            }
            o.set(
                "serve.server_us.simulate.p50",
                sample(
                    &after,
                    "sas_serve_request_latency_us{method=\"rpc:simulate\",quantile=\"0.5\"}",
                ),
            );
            o.set(
                "serve.server_us.lint.p50",
                sample(
                    &after,
                    "sas_serve_request_latency_us{method=\"rpc:lint\",quantile=\"0.5\"}",
                ),
            );
            let ((s0, n0), (s1, n1)) = (server_totals(&before), server_totals(&after));
            let server_ms = if n1 > n0 {
                (s1 - s0) / (n1 - n0) / 1e3
            } else {
                0.0
            };
            let client: Vec<f64> = sent.iter().map(|s| s.client_ms).collect();
            o.set(
                "serve.accept_wait_ms.mean",
                stats::mean(&client) - server_ms,
            );
            let svc: Vec<f64> = reqs.iter().map(|r| refs[&rpc_parts(r, &lint)].ms).collect();
            o.set("serve.service_ms.p50", stats::pct(&svc, 50.0));
            o.set(
                "serve.journal_bytes",
                sample(&after, "sas_serve_journal_bytes"),
            );
            let late: Vec<f64> = sent.iter().map(|s| s.late_ms).collect();
            o.set("gen.late_ms.p99", stats::pct(&late, 99.0));
            common::fill_trace(
                &mut o,
                &base,
                &pass,
                &tr.spans(),
                &ctx.state.join("spans.jsonl"),
            );
        }
    }
    problems.truncate(5);
    o.problems.extend(problems);
    Ok(o)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_seeded_and_keeps_the_mix() {
        let a = schedule(7, 50.0, 10.0, 15, 28);
        assert_eq!(a, schedule(7, 50.0, 10.0, 15, 28));
        assert_ne!(a, schedule(8, 50.0, 10.0, 15, 28));
        assert_eq!(a.len(), 500);
        for (kind, pct) in MIX {
            assert_eq!(
                a.iter().filter(|r| r.kind == kind).count(),
                500 * pct / 100,
                "{kind:?}"
            );
        }
        assert!(a.windows(2).all(|w| w[0].due_s <= w[1].due_s));
        assert_eq!(a[0].due_s, 0.0);
        assert!(a[a.len() - 1].due_s < 10.0);
        assert!(a
            .iter()
            .all(|r| r.mitigation < COLUMNS.len() && r.item < 28));
        assert!(a
            .iter()
            .filter(|r| r.kind != Kind::Lint)
            .all(|r| r.item < 15));
        // Another seed reorders and retimes the same requests.
        let key = |r: &Req| (r.kind, r.item, r.mitigation);
        let mut x: Vec<_> = a.iter().map(key).collect();
        let mut y: Vec<_> = schedule(8, 50.0, 10.0, 15, 28).iter().map(key).collect();
        x.sort_unstable();
        y.sort_unstable();
        assert_eq!(x, y);
        // Each simulated kind covers every target and every mitigation.
        let short: Vec<&Req> = a.iter().filter(|r| r.kind == Kind::SimShort).collect();
        assert!((0..15).all(|t| short.iter().any(|r| r.item == t)));
        assert!((0..5).all(|m| short.iter().any(|r| r.mitigation == m)));
    }

    #[test]
    fn open_loop_lateness_counts_waiting_for_a_connection() {
        let tr = Tracer::new(false);
        // Three requests due at once on two connections: the third waits
        // for a 60 ms request to finish.
        let sent = open_loop(&tr, &[0.0, 0.0, 0.0], 2, |_| {
            std::thread::sleep(Duration::from_millis(60))
        });
        let mut late: Vec<f64> = sent.iter().map(|s| s.late_ms).collect();
        late.sort_by(f64::total_cmp);
        assert!(late[0] < 30.0 && late[1] < 30.0, "{late:?}");
        assert!(late[2] >= 50.0, "{late:?}");
        assert!(sent.iter().all(|s| s.latency_ms >= s.client_ms));
        // With slack between due times nothing is late.
        let sent = open_loop(&tr, &[0.0, 0.15], 1, |_| {
            std::thread::sleep(Duration::from_millis(10))
        });
        assert!(
            sent.iter().all(|s| s.late_ms < 30.0),
            "{:?}",
            sent.iter().map(|s| s.late_ms).collect::<Vec<_>>()
        );
    }

    #[test]
    fn reads_metrics_samples() {
        let m = "# TYPE x counter\nsas_serve_journal_bytes 1234\n\
                 sas_serve_request_latency_us_sum{method=\"rpc:lint\"} 50\n\
                 sas_serve_request_latency_us_count{method=\"rpc:lint\"} 2\n";
        assert_eq!(sample(m, "sas_serve_journal_bytes"), 1234.0);
        assert_eq!(server_totals(m), (50.0, 2.0));
        assert_eq!(sample(m, "missing"), 0.0);
    }
}
