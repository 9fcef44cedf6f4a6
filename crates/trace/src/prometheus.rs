//! Prometheus-style text export, and the parser that reads it back.
//!
//! A flat, scrape-format dump of a [`TraceSnapshot`]: per-thread/per-kind
//! event totals, per-thread dropped totals, and a cumulative log2
//! histogram of serialize round-trip latency. This is a point-in-time
//! render of one snapshot, not a live endpoint — pipe it to a file and
//! let the scraper read that.
//!
//! The family renderers ([`render_counter_family`],
//! [`render_gauge_family`], [`render_histogram_family`]) are shared by
//! every crate that writes exposition text, and [`parse`] is the one
//! reader `lbmf-obs doctor`, `heat` and `pmu` use on a scrape or a
//! snapshot file.

use crate::{EventKind, TraceSnapshot};
use std::fmt::Write as _;

/// Escape a label *value* per the exposition format: backslash, double
/// quote, and line feed become `\\`, `\"`, and `\n`. Public so every
/// renderer in the workspace that writes a label value by hand (rather
/// than through [`render_counter_family`] and friends, which call this
/// internally) escapes identically — a store named `he said "42"\n`
/// must round-trip through any conformant parser, not truncate it.
pub fn label_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

/// Render one `counter` metric family in exposition format: a single
/// `# HELP` / `# TYPE` header pair followed by one sample line per label
/// set, appended to `out`.
///
/// This is the generic half of [`export`], made public so other crates'
/// counters — `lbmf-sim`'s `BusStats` and link-clear tallies in
/// particular — render through the same (conformance-tested) formatter
/// instead of hand-rolling exposition text. `name` and label keys must
/// already be legal metric/label names (`[a-zA-Z_:][a-zA-Z0-9_:]*` /
/// `[a-zA-Z_][a-zA-Z0-9_]*`); label *values* are escaped here.
pub fn render_counter_family(
    out: &mut String,
    name: &str,
    help: &str,
    samples: &[(&[(&str, &str)], u64)],
) {
    render_family(out, name, help, "counter", samples);
}

/// Render one `gauge` metric family in exposition format — the same
/// header-plus-samples shape as [`render_counter_family`], with `# TYPE
/// … gauge` and one convention difference the debug assertion enforces:
/// a gauge is not monotonic, so its name must **not** carry the
/// `_total` suffix the counter families use.
pub fn render_gauge_family(
    out: &mut String,
    name: &str,
    help: &str,
    samples: &[(&[(&str, &str)], u64)],
) {
    debug_assert!(
        !name.ends_with("_total"),
        "`_total` marks monotonic counters; gauge {name:?} must not use it"
    );
    render_family(out, name, help, "gauge", samples);
}

fn render_family(
    out: &mut String,
    name: &str,
    help: &str,
    kind: &str,
    samples: &[(&[(&str, &str)], u64)],
) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {kind}");
    for (labels, value) in samples {
        out.push_str(name);
        if !labels.is_empty() {
            out.push('{');
            for (k, (lk, lv)) in labels.iter().enumerate() {
                if k > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{lk}=\"{}\"", label_escape(lv));
            }
            out.push('}');
        }
        let _ = writeln!(out, " {value}");
    }
}

/// Render one `histogram` metric family (cumulative `_bucket{le=…}`
/// lines from the log2 buckets, `+Inf`, `_sum`, `_count`) with an
/// optional extra label pair applied to every sample — the exposition
/// shape [`export`] uses for serialize latency, shared so windowed
/// (SLO) histograms render identically.
pub fn render_histogram_family(
    out: &mut String,
    name: &str,
    help: &str,
    labels: &[(&str, &str)],
    h: &crate::Log2Histogram,
) {
    let label_text = |extra: Option<(&str, &str)>| -> String {
        let mut pairs: Vec<String> = labels
            .iter()
            .map(|(k, v)| format!("{k}=\"{}\"", label_escape(v)))
            .collect();
        if let Some((k, v)) = extra {
            pairs.push(format!("{k}=\"{}\"", label_escape(v)));
        }
        if pairs.is_empty() {
            String::new()
        } else {
            format!("{{{}}}", pairs.join(","))
        }
    };
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} histogram");
    let mut cumulative = 0;
    for (upper, count) in h.nonzero_buckets() {
        cumulative += count;
        let _ = writeln!(
            out,
            "{name}_bucket{} {cumulative}",
            label_text(Some(("le", &upper.to_string())))
        );
    }
    let _ = writeln!(out, "{name}_bucket{} {}", label_text(Some(("le", "+Inf"))), h.count());
    let _ = writeln!(out, "{name}_sum{} {}", label_text(None), h.sum());
    let _ = writeln!(out, "{name}_count{} {}", label_text(None), h.count());
}

/// Render a snapshot in Prometheus exposition format.
pub fn export(snap: &TraceSnapshot) -> String {
    let mut out = String::new();
    out.push_str("# HELP lbmf_trace_events_total Events recorded, by thread and kind.\n");
    out.push_str("# TYPE lbmf_trace_events_total counter\n");
    for t in &snap.threads {
        let name = label_escape(&t.name);
        for kind in EventKind::ALL {
            let n = t.events.iter().filter(|e| e.kind == kind).count();
            if n > 0 {
                let _ = writeln!(
                    out,
                    "lbmf_trace_events_total{{thread=\"{name}\",kind=\"{}\"}} {n}",
                    kind.name()
                );
            }
        }
    }
    out.push_str("# HELP lbmf_trace_dropped_total Events lost to ring wrap-around, by thread.\n");
    out.push_str("# TYPE lbmf_trace_dropped_total counter\n");
    for t in &snap.threads {
        let _ = writeln!(
            out,
            "lbmf_trace_dropped_total{{thread=\"{}\"}} {}",
            label_escape(&t.name),
            t.dropped
        );
    }
    let h = snap.latency_histogram(EventKind::SerializeDeliver);
    render_histogram_family(
        &mut out,
        "lbmf_trace_serialize_latency",
        "Serialize round-trip wait (ns real / cycles simulated), log2 buckets.",
        &[],
        &h,
    );
    out
}

/// One parsed sample line.
#[derive(Clone, Debug, PartialEq)]
pub struct Sample {
    /// Metric name.
    pub name: String,
    /// Label pairs in source order.
    pub labels: Vec<(String, String)>,
    /// The sample value.
    pub value: f64,
}

impl Sample {
    /// The value of label `key`, if present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

fn unescape(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    let mut chars = v.chars();
    while let Some(c) = chars.next() {
        if c == '\\' {
            match chars.next() {
                Some('n') => out.push('\n'),
                Some(other) => out.push(other),
                None => out.push('\\'),
            }
        } else {
            out.push(c);
        }
    }
    out
}

/// Parse exposition-format text into samples: metric lines
/// (`name{k="v",…} value`), `#` comments and blank lines skipped, label
/// values unescaped. Deliberately small — it reads what the renderers in
/// this module write, not every exposition dialect — and strict: an
/// unparseable line is an error carrying its 1-based line number.
pub fn parse(text: &str) -> Result<Vec<Sample>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let err = |what: &str| format!("line {}: {what}: {line:?}", i + 1);
        let (name_labels, value_text) = match line.find([' ', '\t']) {
            // `{` may hold spaces inside quoted values; split at the
            // whitespace *after* the closing brace when labels exist.
            Some(_) if line.contains('{') => {
                let close = line.rfind('}').ok_or_else(|| err("unclosed label set"))?;
                let (head, rest) = line.split_at(close + 1);
                (head, rest.trim())
            }
            Some(sp) => (&line[..sp], line[sp..].trim()),
            None => return Err(err("no value")),
        };
        let value: f64 = value_text
            .split_whitespace()
            .next()
            .ok_or_else(|| err("no value"))?
            .parse()
            .map_err(|_| err("bad value"))?;
        let (name, labels) = match name_labels.split_once('{') {
            None => (name_labels.to_string(), Vec::new()),
            Some((name, rest)) => {
                let body = rest.strip_suffix('}').ok_or_else(|| err("unclosed label set"))?;
                let mut labels = Vec::new();
                let mut remainder = body;
                while !remainder.is_empty() {
                    let eq = remainder.find('=').ok_or_else(|| err("label without ="))?;
                    let key = remainder[..eq].trim().to_string();
                    let after = remainder[eq + 1..]
                        .strip_prefix('"')
                        .ok_or_else(|| err("unquoted label value"))?;
                    // Find the closing quote, honoring backslash escapes.
                    let mut end = None;
                    let mut esc = false;
                    for (j, c) in after.char_indices() {
                        if esc {
                            esc = false;
                        } else if c == '\\' {
                            esc = true;
                        } else if c == '"' {
                            end = Some(j);
                            break;
                        }
                    }
                    let end = end.ok_or_else(|| err("unterminated label value"))?;
                    labels.push((key, unescape(&after[..end])));
                    remainder = after[end + 1..].trim_start_matches(',').trim();
                }
                (name.to_string(), labels)
            }
        };
        out.push(Sample { name, labels, value });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FenceEvent, ThreadTrace};

    #[test]
    fn export_has_counters_and_histogram() {
        let snap = TraceSnapshot {
            threads: vec![ThreadTrace {
                tid: 0,
                name: "w0".into(),
                events: vec![
                    FenceEvent {
                        nanos: 1,
                        thread: 0,
                        kind: EventKind::PrimaryFence,
                        guarded_addr: 0,
                        dur: 0,
                        corr: 0,
                    },
                    FenceEvent {
                        nanos: 2,
                        thread: 0,
                        kind: EventKind::SerializeDeliver,
                        guarded_addr: 0,
                        dur: 700,
                        corr: 0,
                    },
                ],
                dropped: 3,
            }],
        };
        let text = export(&snap);
        assert!(text
            .contains("lbmf_trace_events_total{thread=\"w0\",kind=\"primary-fence\"} 1"));
        assert!(text.contains("lbmf_trace_dropped_total{thread=\"w0\"} 3"));
        // 700 lands in the log2 bucket with inclusive upper bound 1023.
        assert!(text.contains("lbmf_trace_serialize_latency_bucket{le=\"1023\"} 1"));
        assert!(text.contains("lbmf_trace_serialize_latency_sum 700"));
        assert!(text.contains("lbmf_trace_serialize_latency_count 1"));
    }

    #[test]
    fn counter_family_renders_headers_labels_and_bare_samples() {
        let mut out = String::new();
        render_counter_family(
            &mut out,
            "lbmf_sim_bus_ops_total",
            "Bus transactions, by kind.",
            &[
                (&[("op", "BusRd")], 3),
                (&[("op", "BusRdX"), ("proto", "MESI")], 1),
            ],
        );
        render_counter_family(&mut out, "lbmf_sim_mfences_total", "mfences retired.", &[(&[], 2)]);
        assert!(out.contains("# HELP lbmf_sim_bus_ops_total Bus transactions, by kind.\n"));
        assert!(out.contains("# TYPE lbmf_sim_bus_ops_total counter\n"));
        assert!(out.contains("lbmf_sim_bus_ops_total{op=\"BusRd\"} 3\n"));
        assert!(out.contains("lbmf_sim_bus_ops_total{op=\"BusRdX\",proto=\"MESI\"} 1\n"));
        assert!(out.contains("lbmf_sim_mfences_total 2\n"), "no braces without labels");
        // Label values escape exposition-format specials.
        let mut esc = String::new();
        render_counter_family(&mut esc, "m_total", "h", &[(&[("k", "a\"b\\c")], 1)]);
        assert!(esc.contains("m_total{k=\"a\\\"b\\\\c\"} 1\n"));
    }

    #[test]
    fn gauge_family_renders_type_gauge_without_total_suffix() {
        let mut out = String::new();
        render_gauge_family(
            &mut out,
            "lbmf_store_shard_limbo_depth",
            "Retired tables awaiting reclamation.",
            &[(&[("store", "lbmf-signal"), ("shard", "0")], 5), (&[("shard", "1")], 0)],
        );
        assert!(out.contains("# HELP lbmf_store_shard_limbo_depth Retired tables awaiting reclamation.\n"));
        assert!(out.contains("# TYPE lbmf_store_shard_limbo_depth gauge\n"));
        assert!(out.contains("lbmf_store_shard_limbo_depth{store=\"lbmf-signal\",shard=\"0\"} 5\n"));
        assert!(out.contains("lbmf_store_shard_limbo_depth{shard=\"1\"} 0\n"), "zero samples render");
        assert!(!out.contains("counter"));
        // Bare (label-free) gauges render without braces, like counters.
        let mut bare = String::new();
        render_gauge_family(&mut bare, "up", "1 when serving.", &[(&[], 1)]);
        assert!(bare.contains("# TYPE up gauge\n"));
        assert!(bare.contains("\nup 1\n"));
        // Label values escape exposition-format specials.
        let mut esc = String::new();
        render_gauge_family(&mut esc, "g", "h", &[(&[("k", "a\nb")], 2)]);
        assert!(esc.contains("g{k=\"a\\nb\"} 2\n"));
    }

    #[test]
    #[should_panic(expected = "_total")]
    #[cfg(debug_assertions)]
    fn gauge_family_rejects_total_suffix() {
        let mut out = String::new();
        render_gauge_family(&mut out, "lbmf_oops_total", "h", &[(&[], 1)]);
    }

    #[test]
    fn histogram_family_is_cumulative_with_labels_on_every_sample() {
        let mut h = crate::Log2Histogram::new();
        for v in [3u64, 3, 700] {
            h.record(v);
        }
        let mut out = String::new();
        render_histogram_family(
            &mut out,
            "lbmf_store_window_latency",
            "Windowed latency.",
            &[("window", "10s")],
            &h,
        );
        assert!(out.contains("# TYPE lbmf_store_window_latency histogram\n"));
        // Buckets are cumulative: two 3s (bucket le=3), then the 700.
        assert!(out.contains("lbmf_store_window_latency_bucket{window=\"10s\",le=\"3\"} 2\n"));
        assert!(out.contains("lbmf_store_window_latency_bucket{window=\"10s\",le=\"1023\"} 3\n"));
        assert!(out.contains("lbmf_store_window_latency_bucket{window=\"10s\",le=\"+Inf\"} 3\n"));
        assert!(out.contains("lbmf_store_window_latency_sum{window=\"10s\"} 706\n"));
        assert!(out.contains("lbmf_store_window_latency_count{window=\"10s\"} 3\n"));
        // The label-free shape matches what `export` emits.
        let mut bare = String::new();
        render_histogram_family(&mut bare, "m", "h", &[], &h);
        assert!(bare.contains("m_bucket{le=\"+Inf\"} 3\n"));
        assert!(bare.contains("m_sum 706\n"));
        assert!(bare.contains("m_count 3\n"));
    }

    #[test]
    fn parses_names_labels_escapes_and_values() {
        let text = "\
# HELP x help text
# TYPE x gauge
x 3
y{a=\"b\"} 4.5
z{a=\"with \\\"quote\\\" and \\\\ back\",shard=\"7\"} 9
";
        let samples = parse(text).unwrap();
        assert_eq!(samples.len(), 3);
        assert_eq!((samples[0].name.as_str(), samples[0].value), ("x", 3.0));
        assert_eq!(samples[1].label("a"), Some("b"));
        assert_eq!(samples[2].label("a"), Some("with \"quote\" and \\ back"));
        assert_eq!(samples[2].label("shard"), Some("7"));
        assert_eq!(samples[2].value, 9.0);
        assert!(parse("garbage_without_value\n").is_err());
    }
}
