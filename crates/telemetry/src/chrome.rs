//! Chrome trace-event JSON export (Perfetto / `chrome://tracing`).
//!
//! Produces the [Trace Event Format] "JSON object" flavour: a
//! `traceEvents` array of `B`/`E`/`i`/`C` events with microsecond
//! timestamps, plus thread-name metadata so simulated processes show up
//! as labelled tracks. Open the file at <https://ui.perfetto.dev> or in
//! `chrome://tracing`.
//!
//! [Trace Event Format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU

use simkit::{escape_json, ArgValue, EventKind, TraceEvent};
use std::collections::HashMap;
use std::io::Write;
use std::path::Path;

fn num(out: &mut String, v: f64) {
    if v.is_finite() {
        out.push_str(&format!("{v}"));
    } else {
        out.push('0');
    }
}

fn push_args(out: &mut String, args: &[(&'static str, ArgValue)]) {
    out.push('{');
    for (i, (k, v)) in args.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('"');
        escape_json(out, k);
        out.push_str("\":");
        match v {
            ArgValue::U64(n) => out.push_str(&n.to_string()),
            ArgValue::F64(f) => num(out, *f),
            ArgValue::Str(s) => {
                out.push('"');
                escape_json(out, s);
                out.push('"');
            }
        }
    }
    out.push('}');
}

// One track per simulated process; events with no pid go to tid 0
// ("kernel"). Chrome pid is the constant 1: the whole simulation is one
// "process" in trace-viewer terms.
fn tid_of(ev: &TraceEvent) -> u32 {
    ev.pid.map(|p| p.0 + 1).unwrap_or(0)
}

fn push_common(out: &mut String, ev: &TraceEvent, ph: char) {
    out.push_str("{\"name\":\"");
    escape_json(out, &ev.name);
    out.push_str("\",\"cat\":\"");
    escape_json(out, ev.cat);
    out.push_str("\",\"ph\":\"");
    out.push(ph);
    out.push_str("\",\"ts\":");
    num(out, ev.time.as_nanos() as f64 / 1_000.0);
    out.push_str(&format!(",\"pid\":1,\"tid\":{}", tid_of(ev)));
}

/// Render a trace as a chrome trace-event JSON document.
///
/// `proc_names` (from [`simkit::Tracer::proc_names`]) labels each
/// process track; unknown pids fall back to `proc-N`.
pub fn chrome_trace(events: &[TraceEvent], proc_names: &HashMap<u32, String>) -> String {
    let mut out = String::with_capacity(events.len() * 96 + 256);
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
    let mut first = true;
    let mut sep = |out: &mut String| {
        if !std::mem::take(&mut first) {
            out.push(',');
        }
    };

    // thread-name metadata for every track that appears in the trace
    let mut tids: Vec<u32> = events.iter().map(tid_of).collect();
    tids.sort_unstable();
    tids.dedup();
    for tid in tids {
        let name = if tid == 0 {
            "kernel".to_string()
        } else {
            proc_names
                .get(&(tid - 1))
                .cloned()
                .unwrap_or_else(|| format!("proc-{}", tid - 1))
        };
        sep(&mut out);
        out.push_str(&format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\"args\":{{\"name\":\""
        ));
        escape_json(&mut out, &name);
        out.push_str("\"}}");
    }

    for ev in events {
        sep(&mut out);
        match &ev.kind {
            EventKind::Begin => {
                push_common(&mut out, ev, 'B');
                if !ev.args.is_empty() {
                    out.push_str(",\"args\":");
                    push_args(&mut out, &ev.args);
                }
                out.push('}');
            }
            EventKind::End => {
                push_common(&mut out, ev, 'E');
                if !ev.args.is_empty() {
                    out.push_str(",\"args\":");
                    push_args(&mut out, &ev.args);
                }
                out.push('}');
            }
            EventKind::Instant | EventKind::Message => {
                push_common(&mut out, ev, 'i');
                out.push_str(",\"s\":\"t\"");
                if !ev.args.is_empty() {
                    out.push_str(",\"args\":");
                    push_args(&mut out, &ev.args);
                }
                out.push('}');
            }
            EventKind::Counter(v) => {
                push_common(&mut out, ev, 'C');
                out.push_str(",\"args\":{\"value\":");
                num(&mut out, *v);
                out.push_str("}}");
            }
        }
    }
    out.push_str("]}");
    out
}

/// Write [`chrome_trace`] output to `path`.
pub fn write_chrome_trace(
    path: impl AsRef<Path>,
    events: &[TraceEvent],
    proc_names: &HashMap<u32, String>,
) -> std::io::Result<()> {
    let mut f = std::fs::File::create(path)?;
    f.write_all(chrome_trace(events, proc_names).as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use simkit::{ProcId, SimTime};

    fn ev(t: u64, pid: Option<u32>, cat: &'static str, name: &str, kind: EventKind) -> TraceEvent {
        TraceEvent {
            time: SimTime::from_nanos(t),
            pid: pid.map(ProcId),
            cat,
            name: name.to_string(),
            kind,
            args: Vec::new(),
        }
    }

    #[test]
    fn emits_all_phases_and_metadata() {
        let mut names = HashMap::new();
        names.insert(0u32, "worker".to_string());
        let evs = vec![
            ev(1_000, Some(0), "phase", "migrate", EventKind::Begin),
            ev(2_000, Some(0), "phase", "migrate", EventKind::End),
            ev(1_500, None, "ftb", "publish", EventKind::Instant),
            ev(1_750, None, "store", "dirty", EventKind::Counter(3.5)),
        ];
        let json = chrome_trace(&evs, &names);
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"ph\":\"B\""));
        assert!(json.contains("\"ph\":\"E\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"ph\":\"C\""));
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("worker"));
        // B/E at µs granularity: 1 µs and 2 µs
        assert!(json.contains("\"ts\":1,"));
        assert!(json.contains("\"ts\":2,"));
    }

    #[test]
    fn escapes_names() {
        let evs = vec![ev(
            0,
            None,
            "log",
            "quote \" and \\ back",
            EventKind::Message,
        )];
        let json = chrome_trace(&evs, &HashMap::new());
        assert!(json.contains("quote \\\" and \\\\ back"));
    }
}
