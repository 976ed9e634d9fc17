//! The benchmark's metric definitions. `BENCHMARK.json` at the repository
//! root lists the same names, units, directions and bounds; a unit test
//! keeps the two in step.

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

/// One metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// End-to-end metrics: the share of the baseline median by which the
    /// metric may worsen before a change counts as a regression. 0 for
    /// per-layer metrics, which have no bound.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics, reported by every workload from its untraced run.
/// What an "op" is depends on the workload (see the README).
pub const END_TO_END: [Metric; 5] = [
    e2e("setup_s", "s", Lower, 0.20),
    e2e("op_p50_ms", "ms", Lower, 0.20),
    e2e("op_p90_ms", "ms", Lower, 0.20),
    e2e("ops_per_s", "1/s", Higher, 0.20),
    e2e("peak_rss_mb", "MiB", Lower, 0.10),
];

/// Layers that spans are recorded for, in the order they are reported.
pub const LAYERS: [&str; 10] = [
    "hostbench",
    "workloads",
    "core",
    "pipeline",
    "snap",
    "runner",
    "serve",
    "gen",
    "json",
    "query",
];

/// Per-layer metrics, reported by every workload from its traced run. A
/// layer a workload does not exercise reads 0 there.
pub const PER_LAYER: [Metric; 81] = [
    // workloads / core: set-up work (spec-grid, parsec-campaign).
    layer("workloads.build_ms", "ms", Lower),
    layer("core.build_system_ms", "ms", Lower),
    // pipeline: host time of System::run (spec-grid).
    layer("pipeline.run_s", "s", Lower),
    layer("pipeline.sim_ips", "1/s", Higher),
    layer("pipeline.ns_per_cycle.unsafe", "ns", Lower),
    layer("pipeline.ns_per_cycle.fence", "ns", Lower),
    layer("pipeline.ns_per_cycle.stt", "ns", Lower),
    layer("pipeline.ns_per_cycle.ghostminion", "ns", Lower),
    layer("pipeline.ns_per_cycle.specasan", "ns", Lower),
    layer("pipeline.ns_per_cycle.membound", "ns", Lower),
    layer("pipeline.ns_per_cycle.computebound", "ns", Lower),
    layer("policy.extra_ns_per_cycle.fence", "ns", Lower),
    layer("policy.extra_ns_per_cycle.stt", "ns", Lower),
    layer("policy.extra_ns_per_cycle.ghostminion", "ns", Lower),
    layer("policy.extra_ns_per_cycle.specasan", "ns", Lower),
    // sim: simulated statistics, which a host-speed change must not move.
    layer("sim.cycles", "count", Lower),
    layer("sim.committed", "count", Higher),
    layer("sim.squash_frac", "ratio", Lower),
    layer("sim.l1d_miss_rate", "ratio", Lower),
    layer("sim.l2_miss_rate", "ratio", Lower),
    layer("sim.delay_frac.fence", "ratio", Lower),
    layer("sim.delay_frac.stt", "ratio", Lower),
    layer("sim.delay_frac.ghostminion", "ratio", Lower),
    layer("sim.delay_frac.specasan", "ratio", Lower),
    layer("sim.specasan_err_pp", "pp", Lower),
    layer("sim.stt_gap_pp", "pp", Lower),
    // runner: the campaign supervisor (parsec-campaign).
    layer("runner.cell_ms.p50", "ms", Lower),
    layer("runner.cell_ms.max", "ms", Lower),
    layer("runner.slot_idle_frac", "ratio", Lower),
    layer("runner.overhead_ms_per_cell", "ms", Lower),
    // snap on the campaign's warm-fork images (parsec-campaign).
    layer("snap.warm_images", "count", Lower),
    layer("snap.warm_restores", "count", Lower),
    layer("snap.warm_image_mb", "MiB", Lower),
    layer("snap.warm_restore_ms.p50", "ms", Lower),
    // snap on checkpoint and restore (snapshot).
    layer("snap.encode_ms.mcf", "ms", Lower),
    layer("snap.encode_ms.canneal", "ms", Lower),
    layer("snap.frame_ms.mcf", "ms", Lower),
    layer("snap.frame_ms.canneal", "ms", Lower),
    layer("snap.write_ms.mcf", "ms", Lower),
    layer("snap.write_ms.canneal", "ms", Lower),
    layer("snap.read_ms.mcf", "ms", Lower),
    layer("snap.read_ms.canneal", "ms", Lower),
    layer("snap.restore_ms.mcf", "ms", Lower),
    layer("snap.restore_ms.canneal", "ms", Lower),
    layer("snap.rollback_image_ms.mcf", "ms", Lower),
    layer("snap.rollback_image_ms.canneal", "ms", Lower),
    layer("snap.image_mb.mcf", "MiB", Lower),
    layer("snap.image_mb.canneal", "MiB", Lower),
    // serve: the daemon's HTTP/accept/queue/journal path (serve-rpc).
    layer("serve.client_ms.sim_short.p50", "ms", Lower),
    layer("serve.client_ms.sim_long.p50", "ms", Lower),
    layer("serve.client_ms.spectre.p50", "ms", Lower),
    layer("serve.client_ms.lint.p50", "ms", Lower),
    layer("serve.server_us.simulate.p50", "us", Lower),
    layer("serve.server_us.lint.p50", "us", Lower),
    layer("serve.accept_wait_ms.mean", "ms", Lower),
    layer("serve.service_ms.p50", "ms", Lower),
    layer("serve.journal_bytes", "bytes", Lower),
    layer("gen.late_ms.p99", "ms", Lower),
    // json / query: artifact decoding and analytics (query).
    layer("json.parse_mb_per_s", "MiB/s", Higher),
    layer("query.load_rows_per_s", "1/s", Higher),
    layer("query.index_rows_per_s", "1/s", Higher),
    layer("query.exec_us.q1.p50", "us", Lower),
    layer("query.exec_us.q2.p50", "us", Lower),
    layer("query.exec_us.q3.p50", "us", Lower),
    layer("query.exec_us.q4.p50", "us", Lower),
    layer("query.exec_us.q5.p50", "us", Lower),
    layer("query.exec_us.q6.p50", "us", Lower),
    layer("query.exec_us.q7.p50", "us", Lower),
    // The trace itself.
    layer("trace.overhead_frac", "ratio", Lower),
    layer("trace.coverage_frac", "ratio", Higher),
    layer("trace.spans", "count", Lower),
    layer("self_frac.hostbench", "ratio", Lower),
    layer("self_frac.workloads", "ratio", Lower),
    layer("self_frac.core", "ratio", Lower),
    layer("self_frac.pipeline", "ratio", Lower),
    layer("self_frac.snap", "ratio", Lower),
    layer("self_frac.runner", "ratio", Lower),
    layer("self_frac.serve", "ratio", Lower),
    layer("self_frac.gen", "ratio", Lower),
    layer("self_frac.json", "ratio", Lower),
    layer("self_frac.query", "ratio", Lower),
];

/// Looks a metric up by name in either list.
pub fn find(name: &str) -> Option<&'static Metric> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|m| m.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sas_telemetry::json::{parse, Json};

    fn token(b: Better) -> &'static str {
        match b {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    fn valid_name(s: &str) -> bool {
        s.len() <= 64
            && s.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-')
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let all: Vec<&Metric> = END_TO_END.iter().chain(PER_LAYER.iter()).collect();
        for (i, m) in all.iter().enumerate() {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(
                all[i + 1..].iter().all(|o| o.name != m.name),
                "duplicate {}",
                m.name
            );
        }
        for l in LAYERS {
            assert!(find(&format!("self_frac.{l}")).is_some(), "{l}");
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    /// `BENCHMARK.json` at the repository root must describe exactly these
    /// metrics.
    #[test]
    fn benchmark_json_matches() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let doc = parse(&text).expect("BENCHMARK.json parses");
        let list = |key: &str| doc.get(key).and_then(Json::as_arr).expect(key).to_vec();
        let check = |key: &str, want: &[Metric]| {
            let got = list(key);
            assert_eq!(got.len(), want.len(), "{key}");
            for (g, w) in got.iter().zip(want) {
                assert_eq!(g.get("name").and_then(Json::as_str), Some(w.name));
                assert_eq!(
                    g.get("unit").and_then(Json::as_str),
                    Some(w.unit),
                    "{}",
                    w.name
                );
                assert_eq!(
                    g.get("better").and_then(Json::as_str),
                    Some(token(w.better))
                );
                if w.bound > 0.0 {
                    assert_eq!(
                        g.get("bound").and_then(Json::as_num),
                        Some(w.bound),
                        "{}",
                        w.name
                    );
                }
            }
        };
        check("end_to_end", &END_TO_END);
        check("per_layer", &PER_LAYER);
        let names: Vec<String> = list("workloads")
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(Json::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect();
        assert_eq!(names, crate::WORKLOADS);
    }

    /// `BENCHMARK.json` and `run.sh` state the run length the crate uses.
    #[test]
    fn run_length_is_the_same_everywhere() {
        let dir = env!("CARGO_MANIFEST_DIR");
        let text = std::fs::read_to_string(format!("{dir}/../BENCHMARK.json")).unwrap();
        let doc = parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_num),
            Some(crate::RUN_SECONDS)
        );
        let script = std::fs::read_to_string(format!("{dir}/run.sh")).unwrap();
        let line = format!("run_seconds={}", crate::RUN_SECONDS);
        assert!(script.lines().any(|l| l == line), "run.sh lacks {line}");
    }
}
