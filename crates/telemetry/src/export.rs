//! Exporter: Chrome trace-event JSON (loadable in Perfetto or
//! `chrome://tracing`). It is a deterministic function of the event
//! list so the golden test can pin its output byte-exact.

use crate::json::{self, Object};
use crate::{ArgValue, Event};

/// Microseconds (Chrome trace unit) from nanoseconds.
fn us(ns: u64) -> f64 {
    ns as f64 / 1000.0
}

fn write_event(o: &mut Object<'_>, ev: &Event) {
    match ev {
        Event::Span(s) => {
            o.put("name", &s.name)
                .put("cat", s.cat)
                .put("ph", "X")
                .put("pid", 1u32)
                .put("tid", s.tid)
                .put("ts", us(s.start_ns))
                .put("dur", us(s.dur_ns));
            if !s.args.is_empty() {
                o.object("args", |a| {
                    for (k, v) in &s.args {
                        match v {
                            ArgValue::Int(n) => a.put(k, n),
                            ArgValue::Num(x) => a.put(k, x),
                            ArgValue::Str(s) => a.put(k, s),
                        };
                    }
                });
            }
        }
        Event::Counter { name, t_ns, value } => {
            o.put("name", name)
                .put("ph", "C")
                .put("pid", 1u32)
                .put("tid", 0u32)
                .put("ts", us(*t_ns))
                .object("args", |a| {
                    a.put(name, value);
                });
        }
        Event::Instant {
            name,
            cat,
            tid,
            t_ns,
        } => {
            o.put("name", name)
                .put("cat", cat)
                .put("ph", "i")
                .put("s", "t")
                .put("pid", 1u32)
                .put("tid", tid)
                .put("ts", us(*t_ns));
        }
    }
}

/// Render events as a Chrome trace-event JSON document.
///
/// Spans become `"ph":"X"` complete events, counters `"ph":"C"`, and
/// instants `"ph":"i"`. Timestamps are microseconds since the
/// recorder's origin; lanes map to `tid` under a single `pid` 1.
pub fn chrome_trace(events: &[Event]) -> String {
    let mut doc = json::object(|doc| {
        doc.array_lines("traceEvents", |list| {
            for ev in events {
                list.object(|o| write_event(o, ev));
            }
        })
        .put("displayTimeUnit", "ms");
    });
    doc.push('\n');
    doc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{cat, Span};

    fn sample_events() -> Vec<Event> {
        vec![
            Event::Span(Span {
                name: "Parse".into(),
                cat: cat::PHASE,
                tid: 0,
                start_ns: 1000,
                dur_ns: 2000,
                args: vec![("queries", ArgValue::Int(2))],
            }),
            Event::Counter {
                name: "sim.latency_ns",
                t_ns: 4000,
                value: 12.5,
            },
            Event::Instant {
                name: "mark".into(),
                cat: cat::OP,
                tid: 3,
                t_ns: 5000,
            },
        ]
    }

    #[test]
    fn chrome_trace_has_complete_counter_and_instant_events() {
        let doc = chrome_trace(&sample_events());
        assert!(doc.starts_with("{\"traceEvents\":["), "{doc}");
        assert!(doc.contains("\"name\":\"Parse\",\"cat\":\"phase\",\"ph\":\"X\",\"pid\":1,\"tid\":0,\"ts\":1,\"dur\":2"));
        assert!(doc.contains("\"args\":{\"queries\":2}"));
        assert!(doc.contains("\"ph\":\"C\""));
        assert!(doc.contains("\"args\":{\"sim.latency_ns\":12.5}"));
        assert!(doc.contains("\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":3,\"ts\":5"));
        assert!(doc.trim_end().ends_with("],\"displayTimeUnit\":\"ms\"}"));
    }

    #[test]
    fn span_names_are_escaped() {
        let doc = chrome_trace(&[Event::Span(Span {
            name: "a\"b".into(),
            cat: cat::GRID,
            tid: 0,
            start_ns: 0,
            dur_ns: 0,
            args: vec![("s", ArgValue::Str("x\ny".into()))],
        })]);
        assert!(doc.contains("\"name\":\"a\\\"b\""));
        assert!(doc.contains("\"s\":\"x\\ny\""));
    }
}
