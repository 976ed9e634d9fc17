//! Prometheus-style text exposition.
//!
//! Renders the registry types ([`Histogram`], counters) into the plain
//! `name{label="value"} 123` line format scrapers expect:
//! cumulative `_bucket{le="..."}` lines over the log2 buckets, `_sum` /
//! `_count`, and `{quantile="..."}` summary lines estimated by
//! [`Histogram::quantile`]. `sas-serve` materializes its `GET /metrics`
//! endpoint from these helpers.
//!
//! Conventions (documented in DESIGN.md §14): metric names are
//! `snake_case` with a `sas_` prefix, dots in hierarchical registry
//! names become underscores, durations are microseconds (`_us`), sizes
//! bytes (`_bytes`), and label values are escaped per the exposition
//! format (`\\`, `\"`, `\n`).

use crate::registry::Histogram;

/// Makes a metric name exposition-safe: `[a-zA-Z0-9_:]` only, dots and
/// dashes become underscores, and a leading digit gets a `_` prefix.
pub fn sanitize(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for c in name.chars() {
        match c {
            'a'..='z' | 'A'..='Z' | '0'..='9' | '_' | ':' => out.push(c),
            '.' | '-' | '/' | ' ' => out.push('_'),
            _ => {}
        }
    }
    if out.is_empty() || out.as_bytes()[0].is_ascii_digit() {
        out.insert(0, '_');
    }
    out
}

/// Escapes a label value per the exposition format.
fn escape_label(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn label_block(labels: &[(&str, &str)]) -> String {
    if labels.is_empty() {
        return String::new();
    }
    let inner: Vec<String> =
        labels.iter().map(|(k, v)| format!("{}=\"{}\"", sanitize(k), escape_label(v))).collect();
    format!("{{{}}}", inner.join(","))
}

fn fmt_value(v: f64) -> String {
    if !v.is_finite() {
        return if v.is_nan() {
            "NaN".to_string()
        } else if v > 0.0 {
            "+Inf".to_string()
        } else {
            "-Inf".to_string()
        };
    }
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// Appends one `name{labels} value` sample line.
pub fn line(out: &mut String, name: &str, labels: &[(&str, &str)], value: f64) {
    out.push_str(&sanitize(name));
    out.push_str(&label_block(labels));
    out.push(' ');
    out.push_str(&fmt_value(value));
    out.push('\n');
}

/// Appends a `# TYPE` metadata line. Emit once per metric family,
/// before its samples.
pub fn type_line(out: &mut String, name: &str, kind: &str) {
    out.push_str("# TYPE ");
    out.push_str(&sanitize(name));
    out.push(' ');
    out.push_str(kind);
    out.push('\n');
}

/// Appends a full histogram family under `name`: cumulative
/// `_bucket{le="..."}` lines over the populated log2 bucket range, a
/// `+Inf` bucket, `_sum`, `_count`, and `{quantile="0.5|0.95|0.99"}`
/// summary lines (skipped while the histogram is empty).
pub fn histogram(out: &mut String, name: &str, labels: &[(&str, &str)], h: &Histogram) {
    let name = sanitize(name);
    let with = |extra: Option<(&str, &str)>| -> Vec<(String, String)> {
        let mut all: Vec<(String, String)> =
            labels.iter().map(|(k, v)| (k.to_string(), v.to_string())).collect();
        if let Some((k, v)) = extra {
            all.push((k.to_string(), v.to_string()));
        }
        all
    };
    let emit = |out: &mut String, suffix: &str, labels: &[(String, String)], value: f64| {
        let borrowed: Vec<(&str, &str)> =
            labels.iter().map(|(k, v)| (k.as_str(), v.as_str())).collect();
        line(out, &format!("{name}{suffix}"), &borrowed, value);
    };
    if h.count() > 0 {
        let nonzero = h.nonzero_buckets();
        let top = Histogram::bucket_of(h.max());
        let mut cum = 0u64;
        for i in 0..=top {
            cum += nonzero.iter().find(|(b, _)| *b == i).map(|(_, n)| *n).unwrap_or(0);
            let le = Histogram::bucket_upper(i).to_string();
            emit(out, "_bucket", &with(Some(("le", le.as_str()))), cum as f64);
        }
    }
    emit(out, "_bucket", &with(Some(("le", "+Inf"))), h.count() as f64);
    emit(out, "_sum", &with(None), h.sum() as f64);
    emit(out, "_count", &with(None), h.count() as f64);
    if h.count() > 0 {
        for (label, q) in [("0.5", 0.5), ("0.95", 0.95), ("0.99", 0.99)] {
            emit(out, "", &with(Some(("quantile", label))), h.quantile(q) as f64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sanitizes_names() {
        assert_eq!(sanitize("pipeline.core0.rob-occupancy"), "pipeline_core0_rob_occupancy");
        assert_eq!(sanitize("9lives"), "_9lives");
        assert_eq!(sanitize("ok_name:x"), "ok_name:x");
        assert_eq!(sanitize("héllo"), "hllo");
    }

    #[test]
    fn histogram_exposition_is_cumulative_and_quantiled() {
        let mut h = Histogram::new();
        for v in [1u64, 2, 3, 900] {
            h.observe(v);
        }
        let mut out = String::new();
        histogram(&mut out, "req_latency_us", &[("method", "simulate")], &h);
        // Buckets: 1 → b1 (le 1), 2,3 → b2 (le 3), 900 → b10 (le 1023).
        assert!(out.contains("req_latency_us_bucket{method=\"simulate\",le=\"1\"} 1\n"), "{out}");
        assert!(out.contains("req_latency_us_bucket{method=\"simulate\",le=\"3\"} 3\n"), "{out}");
        assert!(
            out.contains("req_latency_us_bucket{method=\"simulate\",le=\"1023\"} 4\n"),
            "{out}"
        );
        assert!(out.contains("req_latency_us_bucket{method=\"simulate\",le=\"+Inf\"} 4\n"));
        assert!(out.contains("req_latency_us_sum{method=\"simulate\"} 906\n"));
        assert!(out.contains("req_latency_us_count{method=\"simulate\"} 4\n"));
        assert!(out.contains("req_latency_us{method=\"simulate\",quantile=\"0.5\"} 3\n"));
        assert!(out.contains("req_latency_us{method=\"simulate\",quantile=\"0.99\"} 900\n"));
        // Cumulative counts never decrease.
        let mut last = 0.0;
        for line in out.lines().filter(|l| l.contains("_bucket")) {
            let v: f64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v >= last, "cumulative: {out}");
            last = v;
        }
    }

    #[test]
    fn empty_histogram_has_no_quantile_lines() {
        let mut out = String::new();
        histogram(&mut out, "x", &[], &Histogram::new());
        assert!(out.contains("x_bucket{le=\"+Inf\"} 0\n"));
        assert!(out.contains("x_count 0\n"));
        assert!(!out.contains("quantile"));
    }
}
