//! End-to-end service tests over a real loopback socket: smoke RPCs,
//! admission control, deadlines, cancellation, hung-worker supervision,
//! and the headline robustness guarantee — a drained (or killed) daemon's
//! journaled job resumes from its checkpoint with cycle counts identical
//! to an uninterrupted run.

use sas_serve::server::{Config, Server};
use sas_telemetry::json::{self, Json};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// A quick program: a handful of cycles, then HALT.
const QUICK: &str = ".entry main\nmain:\nMOVZ X1, #7\nMOVZ X2, #35\nADD X3, X1, X2\nHALT\n";

/// A well-formed program that never halts.
const FOREVER: &str = ".entry main\nmain:\nloop:\nADD X1, X1, #1\nB loop\n";

/// A long but terminating countdown (~1M committed instructions): big
/// enough to straddle many checkpoint boundaries, small enough for debug
/// builds to finish in seconds.
const LONG: &str = "\
.entry main
main:
MOVZ X2, #8
outer:
MOVZ X1, #60000
inner:
SUB X1, X1, #1
CBNZ X1, inner
SUB X2, X2, #1
CBNZ X2, outer
HALT
";

fn state_dir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("sas-serve-test-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn small_config(tag: &str) -> Config {
    let mut cfg = Config::new(state_dir(tag));
    cfg.workers = 1;
    cfg.queue_cap = 8;
    cfg.chunk = 2_000;
    cfg.hang_grace = Duration::from_millis(400);
    cfg.drain_deadline = Duration::from_secs(30);
    cfg
}

/// Sends one raw HTTP request, returns (status, raw headers, parsed body).
fn http(port: u16, method: &str, path: &str, body: &str, client: &str) -> (u16, String, Json) {
    let mut s = TcpStream::connect(("127.0.0.1", port)).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(180))).unwrap();
    let req = format!(
        "{method} {path} HTTP/1.1\r\nhost: t\r\nx-client: {client}\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    );
    s.write_all(req.as_bytes()).unwrap();
    let mut raw = Vec::new();
    s.read_to_end(&mut raw).expect("read response");
    let text = String::from_utf8_lossy(&raw).to_string();
    let (head, payload) = text.split_once("\r\n\r\n").expect("complete response");
    let status: u16 = head
        .split_ascii_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line in {head:?}"));
    let doc = json::parse(payload).unwrap_or_else(|e| panic!("bad body {payload:?}: {e}"));
    (status, head.to_ascii_lowercase(), doc)
}

fn rpc(port: u16, body: &str) -> (u16, String, Json) {
    http(port, "POST", "/rpc", body, "test")
}

fn rpc_as(port: u16, client: &str, body: &str) -> (u16, String, Json) {
    http(port, "POST", "/rpc", body, client)
}

fn result_of(doc: &Json) -> &Json {
    doc.get("result").unwrap_or_else(|| panic!("no result in {doc:?}"))
}

fn error_kind(doc: &Json) -> String {
    doc.get("error")
        .and_then(|e| e.get("data"))
        .and_then(|d| d.get("kind"))
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("no error kind in {doc:?}"))
        .to_string()
}

fn submit_async(port: u16, params_json: &str) -> u64 {
    let body = format!(
        "{{\"jsonrpc\":\"2.0\",\"id\":1,\"method\":\"simulate\",\"params\":{params_json}}}"
    );
    let (status, _, doc) = rpc(port, &body);
    assert_eq!(status, 200, "{doc:?}");
    result_of(&doc).get("job").and_then(Json::as_num).expect("job id") as u64
}

fn job_status(port: u16, id: u64) -> Json {
    let body =
        format!("{{\"jsonrpc\":\"2.0\",\"id\":1,\"method\":\"job\",\"params\":{{\"job\":{id}}}}}");
    let (status, _, doc) = rpc(port, &body);
    assert_eq!(status, 200, "{doc:?}");
    result_of(&doc).clone()
}

fn wait_for(port: u16, id: u64, want: &str, timeout: Duration) -> Json {
    let deadline = Instant::now() + timeout;
    loop {
        let st = job_status(port, id);
        let s = st.get("status").and_then(Json::as_str).unwrap_or("").to_string();
        if s == want {
            return st;
        }
        assert!(
            Instant::now() < deadline,
            "job {id} stuck in {s:?} waiting for {want:?}: {st:?}"
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

#[test]
fn smoke_simulate_trace_lint_status_healthz() {
    let server = Server::start(small_config("smoke")).unwrap();
    let port = server.port();

    let (status, _, doc) = rpc(
        port,
        &format!(
            "{{\"jsonrpc\":\"2.0\",\"id\":7,\"method\":\"simulate\",\"params\":{{\"program\":{}}}}}",
            json_string(QUICK)
        ),
    );
    assert_eq!(status, 200);
    let r = result_of(&doc);
    assert!(r.get("cycles").and_then(Json::as_num).unwrap_or(0.0) > 0.0, "{doc:?}");
    assert_eq!(doc.get("id").and_then(Json::as_num), Some(7.0));

    let (status, _, doc) = rpc(
        port,
        &format!(
            "{{\"jsonrpc\":\"2.0\",\"id\":1,\"method\":\"trace\",\"params\":{{\"program\":{},\"chrome\":true}}}}",
            json_string(QUICK)
        ),
    );
    assert_eq!(status, 200);
    let chrome = result_of(&doc).get("chrome").and_then(Json::as_str).expect("chrome doc");
    json::parse(chrome).expect("chrome export must itself be valid JSON");

    let (status, _, doc) = rpc(
        port,
        &format!(
            "{{\"jsonrpc\":\"2.0\",\"id\":1,\"method\":\"lint\",\"params\":{{\"program\":{},\"suggest\":true}}}}",
            json_string(".entry main\nmain:\nLDRW X1, [X2]\nLDRW X3, [X1]\nHALT\n")
        ),
    );
    assert_eq!(status, 200);
    assert!(result_of(&doc).get("gadgets").and_then(Json::as_num).is_some(), "{doc:?}");

    let (status, _, doc) = http(port, "GET", "/status", "", "test");
    assert_eq!(status, 200);
    assert!(doc.get("accepted").and_then(Json::as_num).unwrap_or(0.0) >= 3.0, "{doc:?}");

    let (status, _, doc) = http(port, "GET", "/healthz", "", "test");
    assert_eq!(status, 200);
    assert_eq!(doc.get("ok"), Some(&Json::Bool(true)));
}

#[test]
fn a_deeply_nested_body_is_a_parse_error_not_a_crash() {
    // Without the parser's depth cap, 10 KB of `[` overflows the connection
    // thread's stack and aborts the whole daemon.
    let server = Server::start(small_config("deep")).unwrap();
    let port = server.port();
    let (status, _, doc) = rpc(port, &"[".repeat(10_000));
    assert_eq!(status, 400, "{doc:?}");
    let code = doc.get("error").and_then(|e| e.get("code")).and_then(Json::as_num);
    assert_eq!(code, Some(-32700.0), "{doc:?}");
    let (status, _, doc) = http(port, "GET", "/healthz", "", "test");
    assert_eq!(status, 200);
    assert_eq!(doc.get("ok"), Some(&Json::Bool(true)));
}

fn json_string(s: &str) -> String {
    format!("\"{}\"", sas_serve::http::json_escape(s))
}

#[test]
fn a_saturated_queue_rejects_with_structured_503s() {
    let mut cfg = small_config("saturate");
    cfg.queue_cap = 2;
    cfg.per_client_cap = 64;
    let server = Server::start(cfg).unwrap();
    let port = server.port();

    // Occupy the single worker, then fill both queue slots.
    let occupy = format!(
        "{{\"program\":{},\"wait\":false,\"deadline_ms\":8000}}",
        json_string(FOREVER)
    );
    let id = submit_async(port, &occupy);
    wait_for(port, id, "running", Duration::from_secs(10));
    submit_async(port, &occupy);
    submit_async(port, &occupy);

    // Queue full: explicit 503 with Retry-After, never a hang or a drop.
    let (status, head, doc) = rpc(
        port,
        &format!(
            "{{\"jsonrpc\":\"2.0\",\"id\":1,\"method\":\"simulate\",\"params\":{}}}",
            occupy
        ),
    );
    assert_eq!(status, 503, "{doc:?}");
    assert!(head.contains("retry-after"), "{head}");
    assert_eq!(error_kind_top(&doc), "full");

    // Load shedding: with one of two slots taken, low priority sheds while
    // normal is still admitted (shed threshold = ¾ of the cap).
    let (_, _, _) = rpc(
        port,
        &format!(
            "{{\"jsonrpc\":\"2.0\",\"id\":1,\"method\":\"cancel\",\"params\":{{\"job\":{}}}}}",
            id + 2
        ),
    );
    let (status, _, doc) = rpc(
        port,
        &format!(
            "{{\"jsonrpc\":\"2.0\",\"id\":1,\"method\":\"simulate\",\"params\":{{\"program\":{},\"wait\":false,\"priority\":\"low\",\"deadline_ms\":8000}}}}",
            json_string(FOREVER)
        ),
    );
    assert_eq!(status, 503, "{doc:?}");
    assert_eq!(error_kind_top(&doc), "shed");
}

/// The 503 body shape for plain (non-JSON-RPC-level) rejections.
fn error_kind_top(doc: &Json) -> String {
    doc.get("error")
        .and_then(|e| e.get("kind"))
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("no rejection kind in {doc:?}"))
        .to_string()
}

#[test]
fn deadlines_fail_cleanly_and_queued_jobs_cancel() {
    let server = Server::start(small_config("deadline")).unwrap();
    let port = server.port();

    // A runaway simulation with a 300 ms budget: structured deadline error.
    let (status, _, doc) = rpc(
        port,
        &format!(
            "{{\"jsonrpc\":\"2.0\",\"id\":1,\"method\":\"simulate\",\"params\":{{\"program\":{},\"deadline_ms\":300}}}}",
            json_string(FOREVER)
        ),
    );
    assert_eq!(status, 200);
    assert_eq!(error_kind(&doc), "deadline", "{doc:?}");

    // Occupy the worker, queue a second job, cancel it while queued.
    let occupy = format!(
        "{{\"program\":{},\"wait\":false,\"deadline_ms\":5000}}",
        json_string(FOREVER)
    );
    let running = submit_async(port, &occupy);
    wait_for(port, running, "running", Duration::from_secs(10));
    let queued = submit_async(port, &occupy);
    let (status, _, doc) = rpc(
        port,
        &format!(
            "{{\"jsonrpc\":\"2.0\",\"id\":1,\"method\":\"cancel\",\"params\":{{\"job\":{queued}}}}}"
        ),
    );
    assert_eq!(status, 200);
    assert_eq!(result_of(&doc).get("cancelled"), Some(&Json::Bool(true)), "{doc:?}");
    let st = job_status(port, queued);
    assert_eq!(st.get("status").and_then(Json::as_str), Some("done:cancelled"), "{st:?}");
}

#[test]
fn the_per_client_cap_returns_429_for_the_greedy_client_only() {
    let mut cfg = small_config("clientcap");
    cfg.per_client_cap = 1;
    let server = Server::start(cfg).unwrap();
    let port = server.port();

    let body = format!(
        "{{\"jsonrpc\":\"2.0\",\"id\":1,\"method\":\"simulate\",\"params\":{{\"program\":{},\"wait\":false,\"deadline_ms\":5000}}}}",
        json_string(FOREVER)
    );
    let (status, _, _) = rpc_as(port, "greedy", &body);
    assert_eq!(status, 200);
    let (status, head, doc) = rpc_as(port, "greedy", &body);
    assert_eq!(status, 429, "{doc:?}");
    assert!(head.contains("retry-after"), "{head}");
    // A different client still gets in.
    let (status, _, _) = rpc_as(port, "patient", &body);
    assert_eq!(status, 200);
}

#[test]
fn a_wedged_worker_is_failed_and_the_pool_recovers() {
    let mut cfg = small_config("wedge");
    cfg.hang_grace = Duration::from_millis(300);
    let server = Server::start(cfg).unwrap();
    let port = server.port();

    // `spin` deliberately ignores cancellation: the deadline passes, the
    // grace passes, and the watchdog fails the job and replaces the worker.
    let (status, _, doc) = rpc(
        port,
        "{\"jsonrpc\":\"2.0\",\"id\":1,\"method\":\"spin\",\"params\":{\"millis\":0,\"deadline_ms\":200}}",
    );
    assert_eq!(status, 200);
    assert_eq!(error_kind(&doc), "stalled", "{doc:?}");

    // Only the affected job failed: the replacement worker serves traffic.
    let (status, _, doc) = rpc(
        port,
        &format!(
            "{{\"jsonrpc\":\"2.0\",\"id\":1,\"method\":\"simulate\",\"params\":{{\"program\":{}}}}}",
            json_string(QUICK)
        ),
    );
    assert_eq!(status, 200);
    assert!(result_of(&doc).get("cycles").is_some(), "{doc:?}");

    let (_, _, doc) = http(port, "GET", "/status", "", "test");
    assert_eq!(doc.get("stalled").and_then(Json::as_num), Some(1.0), "{doc:?}");
}

/// The headline guarantee: drain parks an in-flight simulation behind its
/// checkpoint; a fresh daemon over the same state directory replays the
/// journal, resumes mid-run, and reports cycle counts identical to an
/// uninterrupted run of the same job.
#[test]
fn drain_parks_in_flight_work_and_a_restart_resumes_bit_identically() {
    // Uninterrupted baseline.
    let baseline_server = Server::start(small_config("park-base")).unwrap();
    let (status, _, doc) = rpc(
        baseline_server.port(),
        &format!(
            "{{\"jsonrpc\":\"2.0\",\"id\":1,\"method\":\"simulate\",\"params\":{{\"program\":{},\"deadline_ms\":120000}}}}",
            json_string(LONG)
        ),
    );
    assert_eq!(status, 200);
    let base = result_of(&doc);
    let base_cycles = base.get("cycles").and_then(Json::as_num).expect("cycles");
    let base_committed = base.get("committed").and_then(Json::as_num).expect("committed");
    assert!(base_cycles > 100_000.0, "LONG is supposed to be long: {doc:?}");

    // Same job on a fresh state dir; drain while it runs.
    let dir = state_dir("park");
    let mut cfg = small_config("park");
    cfg.state_dir = dir.clone();
    let server = Server::start(cfg).unwrap();
    let port = server.port();
    let id = submit_async(
        port,
        &format!(
            "{{\"program\":{},\"wait\":false,\"deadline_ms\":120000}}",
            json_string(LONG)
        ),
    );
    wait_for(port, id, "running", Duration::from_secs(10));
    server.drain();
    assert!(server.drain_wait(), "drain deadline exceeded");
    let st = job_status(port, id);
    assert_eq!(st.get("status").and_then(Json::as_str), Some("parked"), "{st:?}");
    assert!(dir.join(format!("job-{id}.ckpt.snap")).exists(), "no checkpoint on disk");

    // Second daemon, same state dir: journal replays, checkpoint resumes.
    let mut cfg2 = small_config("park2");
    cfg2.state_dir = dir;
    let server2 = Server::start(cfg2).unwrap();
    assert_eq!(server2.resumed(), 1, "journaled job was not resumed");
    let st = wait_for(server2.port(), id, "done:completed", Duration::from_secs(120));
    let resumed = st.get("result").expect("resumed result");
    assert_eq!(resumed.get("restored"), Some(&Json::Bool(true)), "{st:?}");
    assert_eq!(
        resumed.get("cycles").and_then(Json::as_num),
        Some(base_cycles),
        "resumed cycle count diverged from the uninterrupted run: {st:?}"
    );
    assert_eq!(
        resumed.get("committed").and_then(Json::as_num),
        Some(base_committed),
        "resumed committed count diverged: {st:?}"
    );
}

/// Fetches a non-JSON endpoint (text exposition, SSE stream) raw: the
/// connection closes when the server finishes the body.
fn http_text(port: u16, path: &str) -> (u16, String) {
    let mut s = TcpStream::connect(("127.0.0.1", port)).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(180))).unwrap();
    let req = format!("GET {path} HTTP/1.1\r\nhost: t\r\ncontent-length: 0\r\n\r\n");
    s.write_all(req.as_bytes()).unwrap();
    let mut raw = Vec::new();
    s.read_to_end(&mut raw).expect("read response");
    let text = String::from_utf8_lossy(&raw).to_string();
    let (head, payload) = text.split_once("\r\n\r\n").expect("complete response");
    let status: u16 = head
        .split_ascii_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or_else(|| panic!("bad status line in {head:?}"));
    (status, payload.to_string())
}

#[test]
fn metrics_watch_and_query_expose_the_service() {
    let server = Server::start(small_config("obsv")).unwrap();
    let port = server.port();

    // The status document is schema-tagged.
    let (status, _, doc) = http(port, "GET", "/status", "", "test");
    assert_eq!(status, 200);
    assert_eq!(doc.get("schema").and_then(Json::as_str), Some("sas-serve-status-v2"), "{doc:?}");

    // One quick completed job gives the query corpus a result row.
    let (status, _, doc) = rpc(
        port,
        &format!(
            "{{\"jsonrpc\":\"2.0\",\"id\":1,\"method\":\"simulate\",\"params\":{{\"program\":{}}}}}",
            json_string(QUICK)
        ),
    );
    assert_eq!(status, 200, "{doc:?}");

    // Watch a long job end to end: the SSE stream must carry at least two
    // strictly monotonic progress frames and a terminal done frame.
    let id = submit_async(
        port,
        &format!("{{\"program\":{},\"wait\":false,\"deadline_ms\":120000}}", json_string(LONG)),
    );
    let (status, stream) = http_text(port, &format!("/watch/{id}"));
    assert_eq!(status, 200, "{stream:?}");
    let mut cycles: Vec<u64> = Vec::new();
    let mut done = 0;
    let mut lines = stream.lines();
    while let Some(line) = lines.next() {
        let Some(event) = line.strip_prefix("event: ") else { continue };
        let data = lines.next().and_then(|l| l.strip_prefix("data: ")).unwrap_or("{}");
        let frame = json::parse(data).unwrap_or_else(|e| panic!("bad frame {data:?}: {e}"));
        match event {
            "progress" => {
                cycles.push(frame.get("cycle").and_then(Json::as_num).expect("cycle") as u64);
                assert!(frame.get("committed").and_then(Json::as_num).is_some(), "{frame:?}");
            }
            "done" => {
                done += 1;
                let status = frame.get("status").and_then(Json::as_str).unwrap_or("");
                assert_eq!(status, "done:completed", "{frame:?}");
            }
            _ => {}
        }
    }
    assert_eq!(done, 1, "no terminal frame in {stream:?}");
    assert!(cycles.len() >= 2, "want >=2 progress frames, got {cycles:?}");
    assert!(cycles.windows(2).all(|w| w[0] < w[1]), "not monotonic: {cycles:?}");

    // The exposition reflects the traffic above.
    let (status, text) = http_text(port, "/metrics");
    assert_eq!(status, 200);
    for needle in [
        "# TYPE sas_serve_requests_total counter",
        "sas_serve_requests_total{method=\"rpc:simulate\"} 2",
        "sas_serve_requests_total{method=\"status\"} 1",
        "sas_serve_requests_total{method=\"watch\"} 1",
        "sas_serve_jobs_total{outcome=\"completed\"} 2",
        "sas_serve_request_latency_us_count{method=\"rpc:simulate\"} 2",
        "sas_serve_request_latency_us{method=\"rpc:simulate\",quantile=\"0.95\"}",
        "sas_serve_workers_alive 1",
        "sas_serve_up 1",
    ] {
        assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
    }
    // >= 2 progress frames + done + queued all counted as SSE events.
    let sse = text
        .lines()
        .find_map(|l| l.strip_prefix("sas_serve_sse_events_total "))
        .and_then(|v| v.parse::<f64>().ok())
        .expect("sse counter");
    assert!(sse >= 3.0, "sse counter {sse} too low:\n{text}");

    // The query method slices the journal + live job table.
    let (status, _, doc) = rpc(
        port,
        "{\"jsonrpc\":\"2.0\",\"id\":7,\"method\":\"query\",\"params\":{\"q\":\"show job,status,cycles where source=jobs sort job\"}}",
    );
    assert_eq!(status, 200, "{doc:?}");
    let table = result_of(&doc);
    let rows = table.get("rows").and_then(Json::as_arr).expect("rows");
    assert_eq!(rows.len(), 2, "{doc:?}");
    let statuses: Vec<&str> = rows
        .iter()
        .map(|r| r.as_arr().unwrap()[1].as_str().expect("status cell"))
        .collect();
    assert_eq!(statuses, ["done:completed", "done:completed"], "{doc:?}");
    assert!(
        rows.iter().all(|r| r.as_arr().unwrap()[2].as_num().is_some_and(|c| c > 0.0)),
        "cycles column not populated: {doc:?}"
    );

    // Journal rows are in the same corpus; malformed queries are 400s.
    let (status, _, doc) = rpc(
        port,
        "{\"jsonrpc\":\"2.0\",\"id\":8,\"method\":\"query\",\"params\":{\"q\":\"where source=journal group by event agg count\"}}",
    );
    assert_eq!(status, 200, "{doc:?}");
    let (status, _, doc) = rpc(
        port,
        "{\"jsonrpc\":\"2.0\",\"id\":9,\"method\":\"query\",\"params\":{\"q\":\"sort nonsense_column\"}}",
    );
    assert_eq!(status, 400, "{doc:?}");
}
