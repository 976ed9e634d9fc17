//! Chrome `trace_event` exporter (Perfetto / `chrome://tracing`).
//!
//! One *process* per core, one *thread* (track) per pipeline stage, plus
//! one counter track per sampled structure gauge. Timestamps are cycles
//! reported in the format's microsecond field — so "1 µs" in the UI is one
//! simulated cycle. Load the output at <https://ui.perfetto.dev>.

use crate::json::escape;
use crate::registry::GaugeSeries;
use crate::timeline::Timeline;

/// Stage tracks, in display order. Each instruction contributes one
/// complete (`ph:"X"`) slice per stage it reached.
const STAGE_TRACKS: [&str; 5] =
    ["fetch/decode", "dispatch/wait", "execute", "commit-wait", "squashed"];

fn slice(out: &mut Vec<String>, name: &str, pid: usize, tid: usize, ts: u64, end: u64) {
    let dur = end.saturating_sub(ts).max(1);
    out.push(format!(
        "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":{pid},\"tid\":{tid},\"ts\":{ts},\"dur\":{dur}}}",
        escape(name)
    ));
}

fn meta(out: &mut Vec<String>, kind: &str, pid: usize, tid: usize, label: &str) {
    out.push(format!(
        "{{\"name\":\"{kind}\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\"args\":{{\"name\":\"{}\"}}}}",
        escape(label)
    ));
}

/// Renders one core's instruction timeline plus the machine's gauge series
/// as a Chrome trace document. `gauges` are `(track_name, series)` pairs;
/// their track names become counter tracks on process `pid = 1000`.
pub fn export(
    timelines: &[(usize, &Timeline)],
    gauges: &[(&str, &GaugeSeries)],
) -> String {
    let mut ev: Vec<String> = Vec::new();
    for &(core, tl) in timelines {
        meta(&mut ev, "process_name", core, 0, &format!("core{core} pipeline"));
        for (tid, label) in STAGE_TRACKS.iter().enumerate() {
            meta(&mut ev, "thread_name", core, tid, label);
        }
        for r in tl.records() {
            let label = format!("#{} {}", r.seq, r.disasm);
            let end_of_life = r.commit.or(r.squashed);
            if let (Some(f), Some(d)) = (r.fetch, r.dispatch) {
                slice(&mut ev, &label, core, 0, f, d);
            }
            if let Some(d) = r.dispatch {
                // Dispatch-to-issue wait (or to end of life if never issued).
                let until = r.issue.or(end_of_life).unwrap_or(d + 1);
                slice(&mut ev, &label, core, 1, d, until);
            }
            if let Some(i) = r.issue {
                let until = r.complete.or(end_of_life).unwrap_or(i + 1);
                slice(&mut ev, &label, core, 2, i, until);
            }
            if let (Some(c), Some(cm)) = (r.complete, r.commit) {
                slice(&mut ev, &label, core, 3, c, cm);
            }
            if let Some(sq) = r.squashed {
                let from = r.dispatch.unwrap_or(sq);
                slice(&mut ev, &label, core, 4, from, sq);
            }
        }
    }
    if !gauges.is_empty() {
        meta(&mut ev, "process_name", 1000, 0, "structure occupancy");
        for (tid, (name, series)) in gauges.iter().enumerate() {
            for &(cycle, value) in series.points() {
                ev.push(format!(
                    "{{\"name\":\"{}\",\"ph\":\"C\",\"pid\":1000,\"tid\":{tid},\"ts\":{cycle},\"args\":{{\"value\":{value}}}}}",
                    escape(name)
                ));
            }
        }
    }
    format!(
        "{{\"traceEvents\":[\n{}\n],\"displayTimeUnit\":\"ms\"}}\n",
        ev.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::validate_chrome_trace;

    #[test]
    fn export_passes_the_checked_in_validator() {
        let mut tl = Timeline::new(16);
        tl.on_dispatch(1, 0, "movz x1, #7".into(), Some(0), 2);
        tl.on_issue(1, 3);
        tl.on_complete(1, 4);
        tl.on_commit(1, 6);
        tl.on_dispatch(2, 1, "ldr x2, [x1]".into(), Some(0), 2);
        tl.on_issue(2, 3);
        tl.on_squash(2, 9);
        let mut g = GaugeSeries::new(8);
        g.record(0, 1);
        g.record(64, 2);
        let doc = export(&[(0, &tl)], &[("core0.rob", &g)]);
        let n = validate_chrome_trace(&doc).expect("valid trace_event JSON");
        assert!(n > 6, "metadata + slices + counters expected, got {n}");
        assert!(doc.contains("\"ph\":\"C\""));
        assert!(doc.contains("squashed"));
    }
}
