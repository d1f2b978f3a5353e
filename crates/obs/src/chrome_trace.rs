//! `chrome://tracing` (Trace Event Format) export of the event stream.
//!
//! The output is the JSON object form (`{"traceEvents": [...]}`) with
//! complete (`"ph": "X"`) slices for ops, transfers, and allreduces, and
//! instant (`"ph": "i"`) markers for control-plane events. It loads
//! directly in Perfetto (<https://ui.perfetto.dev>) or `chrome://tracing`:
//! each data-parallel replica renders as a process, each pipeline stage as
//! a thread, transfers on a separate per-replica track.
//!
//! Instants have no encoding of their own. A marker's `args` is the serde
//! form of its [`EventKind`] (the externally tagged `{"Morph": {...}}`
//! map a JSONL capture line carries under `"kind"`) and its `cat` is the
//! serde form of the emitting [`Source`], so the importer rebuilds every
//! control-plane event, source included, by decoding the two. The only
//! per-variant code is one `label` match, the marker's display name.

use serde::{Deserialize, Serialize, Value};

use crate::event::{Event, EventKind, Source};

/// Timestamps are microseconds in the trace event format.
const US: f64 = 1e6;

/// Thread-id offset separating the network track from stage tracks.
const NET_TID_BASE: u64 = 10_000;

fn complete(
    name: String,
    cat: &str,
    pid: u64,
    tid: u64,
    ts_us: f64,
    dur_us: f64,
    args: Vec<(String, Value)>,
) -> Value {
    Value::Map(vec![
        ("name".to_string(), Value::Str(name)),
        ("cat".to_string(), Value::Str(cat.to_string())),
        ("ph".to_string(), Value::Str("X".to_string())),
        ("ts".to_string(), Value::Float(ts_us)),
        ("dur".to_string(), Value::Float(dur_us)),
        ("pid".to_string(), Value::UInt(pid)),
        ("tid".to_string(), Value::UInt(tid)),
        ("args".to_string(), Value::Map(args)),
    ])
}

fn instant(e: &Event) -> Value {
    Value::Map(vec![
        ("name".to_string(), Value::Str(label(&e.kind))),
        ("cat".to_string(), e.source.to_value()),
        ("ph".to_string(), Value::Str("i".to_string())),
        ("s".to_string(), Value::Str("g".to_string())),
        ("ts".to_string(), Value::Float(e.t_sim * US)),
        ("pid".to_string(), Value::UInt(0)),
        ("tid".to_string(), Value::UInt(0)),
        ("args".to_string(), e.kind.to_value()),
    ])
}

/// The name Perfetto shows for an event's slice or marker.
fn label(kind: &EventKind) -> String {
    match kind {
        EventKind::OpStart { op, micro, .. } | EventKind::OpEnd { op, micro, .. } => {
            format!("{op}{micro}")
        }
        EventKind::Transfer {
            from_stage,
            to_stage,
            ..
        } => format!("xfer {from_stage}->{to_stage}"),
        EventKind::SendBusy { micro, .. } => format!("send m{micro}"),
        EventKind::Allreduce { .. } => "allreduce".to_string(),
        EventKind::Preemption { vm } => format!("preempt vm{vm}"),
        EventKind::HeartbeatMiss { vm } => format!("heartbeat-miss vm{vm}"),
        EventKind::Morph {
            p, d, reconfigured, ..
        } => {
            if *reconfigured {
                format!("morph {p}x{d}")
            } else {
                "replacement".to_string()
            }
        }
        EventKind::Checkpoint { step, .. } => format!("checkpoint @{step}"),
        EventKind::OomKill { .. } => "oom-kill".to_string(),
        EventKind::EpochLoss { step, .. } => format!("loss @{step}"),
        EventKind::EvictionNotice { vm, .. } => format!("eviction-notice vm{vm}"),
        EventKind::SilenceStart { vm } => format!("silence-start vm{vm}"),
        EventKind::SilenceEnd { vm } => format!("silence-end vm{vm}"),
        EventKind::CheckpointWriteFailed { step } => format!("checkpoint-failed @{step}"),
        EventKind::CheckpointFallback { from_step, to_step } => {
            format!("checkpoint-fallback {from_step}->{to_step}")
        }
        EventKind::VmExcluded { vm, .. } => format!("vm-excluded vm{vm}"),
        EventKind::VmReadmitted { vm } => format!("vm-readmitted vm{vm}"),
        EventKind::MorphRetry { attempt, .. } => format!("morph-retry #{attempt}"),
        EventKind::DegradedEnter { .. } => "degraded-enter".to_string(),
        EventKind::DegradedExit { .. } => "degraded-exit".to_string(),
        EventKind::LostWork { minibatches, .. } => format!("lost-work {minibatches}mb"),
        EventKind::PlanSearch { candidates, .. } => format!("plan-search {candidates}c"),
        EventKind::CheckpointTorn { step, .. } => format!("checkpoint-torn @{step}"),
        EventKind::RecoveryReplay { wal_records, .. } => {
            format!("recovery-replay {wal_records}rec")
        }
        EventKind::FaultInjected { fault, .. } => format!("fault {fault}"),
        EventKind::FleetAllocation { job, .. } => format!("alloc job{job}"),
        EventKind::JobPreempted { job, .. } => format!("job-preempt job{job}"),
        EventKind::FallbackProvisioned { job, .. } => format!("fallback job{job}"),
    }
}

fn op_category(code: char) -> &'static str {
    match code {
        'F' => "forward",
        'R' => "recompute",
        'B' => "backward",
        _ => "op",
    }
}

fn op_rank(code: char) -> u8 {
    match code {
        'F' => 0,
        'R' => 1,
        'B' => 2,
        _ => 3,
    }
}

/// Deterministic ordering key for events sharing a `t_sim`: data-plane
/// events sort by (stage, replica, micro, op); control-plane events sort
/// after them, keeping their arrival order (the sort is stable).
fn tie_key(e: &Event) -> (u8, u64, u64, u64, u8) {
    match &e.kind {
        EventKind::OpStart {
            stage,
            replica,
            op,
            micro,
        }
        | EventKind::OpEnd {
            stage,
            replica,
            op,
            micro,
            ..
        } => (
            0,
            *stage as u64,
            *replica as u64,
            *micro as u64,
            op_rank(*op),
        ),
        EventKind::SendBusy {
            stage,
            replica,
            micro,
            ..
        } => (0, *stage as u64, *replica as u64, *micro as u64, 4),
        EventKind::Transfer {
            from_stage,
            replica,
            micro,
            ..
        } => (0, *from_stage as u64, *replica as u64, *micro as u64, 5),
        EventKind::Allreduce { stage, .. } => (0, *stage as u64, 0, 0, 6),
        _ => (1, 0, 0, 0, 0),
    }
}

fn to_trace_event(e: &Event) -> Option<Value> {
    let name = || label(&e.kind);
    Some(match &e.kind {
        // OpStart is intentionally skipped: the matching OpEnd carries the
        // full interval, and duplicated slices would double-draw.
        EventKind::OpStart { .. } => return None,
        EventKind::OpEnd {
            stage,
            replica,
            op,
            micro,
            start,
        } => complete(
            name(),
            op_category(*op),
            *replica as u64,
            *stage as u64,
            start * US,
            (e.t_sim - start) * US,
            vec![("micro".to_string(), Value::UInt(*micro as u64))],
        ),
        EventKind::Transfer {
            from_stage,
            replica,
            micro,
            bytes,
            seconds,
            ..
        } => complete(
            name(),
            "transfer",
            *replica as u64,
            NET_TID_BASE + *from_stage as u64,
            e.t_sim * US,
            seconds * US,
            vec![
                ("micro".to_string(), Value::UInt(*micro as u64)),
                ("bytes".to_string(), Value::Float(*bytes)),
            ],
        ),
        EventKind::Allreduce {
            stage,
            bytes,
            ring,
            seconds,
        } => complete(
            name(),
            "allreduce",
            0,
            *stage as u64,
            (e.t_sim - seconds) * US,
            seconds * US,
            vec![
                ("bytes".to_string(), Value::Float(*bytes)),
                ("ring".to_string(), Value::UInt(*ring as u64)),
            ],
        ),
        EventKind::SendBusy {
            stage,
            replica,
            micro,
            seconds,
        } => complete(
            name(),
            "send",
            *replica as u64,
            *stage as u64,
            e.t_sim * US,
            seconds * US,
            vec![("micro".to_string(), Value::UInt(*micro as u64))],
        ),
        _ => instant(e),
    })
}

/// Renders events as one Perfetto-loadable JSON document.
///
/// Events are serialized in `t_sim` order with a deterministic tie-break
/// keyed on (stage, replica, micro, op) for data-plane events —
/// control-plane instants at the same timestamp come after them, in
/// arrival order. Data-plane output is therefore byte-stable across any
/// reordering of simultaneous events, which the golden test in
/// `varuna-exec` relies on.
pub fn chrome_trace_json(events: &[Event]) -> String {
    let mut order: Vec<usize> = (0..events.len()).collect();
    order.sort_by(|&a, &b| {
        events[a]
            .t_sim
            .total_cmp(&events[b].t_sim)
            .then_with(|| tie_key(&events[a]).cmp(&tie_key(&events[b])))
    });
    let trace_events: Vec<Value> = order
        .into_iter()
        .filter_map(|i| to_trace_event(&events[i]))
        .collect();
    let doc = Value::Map(vec![
        ("traceEvents".to_string(), Value::Seq(trace_events)),
        ("displayTimeUnit".to_string(), Value::Str("ms".to_string())),
    ]);
    serde_json::to_string_pretty(&doc).expect("trace documents always serialize")
}

fn num_f64(v: &Value) -> Option<f64> {
    match v {
        Value::Float(f) => Some(*f),
        Value::Int(i) => Some(*i as f64),
        Value::UInt(u) => Some(*u as f64),
        _ => None,
    }
}

fn num_u64(v: &Value) -> Option<u64> {
    match v {
        Value::UInt(u) => Some(*u),
        Value::Int(i) if *i >= 0 => Some(*i as u64),
        Value::Float(f) if *f >= 0.0 && f.fract() == 0.0 => Some(*f as u64),
        _ => None,
    }
}

fn slice_field_f64(s: &Value, key: &str) -> Result<f64, String> {
    s.get(key)
        .and_then(num_f64)
        .ok_or_else(|| format!("missing numeric `{key}`"))
}

/// Decodes a control-plane marker: the inverse of [`instant`].
fn instant_event(s: &Value) -> Result<Event, String> {
    let field = |key: &str| s.get(key).ok_or_else(|| format!("instant missing `{key}`"));
    Ok(Event {
        t_sim: slice_field_f64(s, "ts")? / US,
        source: Source::from_value(field("cat")?).map_err(|e| format!("`cat`: {e}"))?,
        kind: EventKind::from_value(field("args")?).map_err(|e| format!("`args`: {e}"))?,
    })
}

/// Decodes a data-plane slice, or `None` for a category this exporter
/// does not write.
fn slice_event(s: &Value) -> Result<Option<Event>, String> {
    let cat = match s.get("cat") {
        Some(Value::Str(c)) => c.as_str(),
        _ => return Ok(None),
    };
    let ts = slice_field_f64(s, "ts")? / US;
    let dur = slice_field_f64(s, "dur")? / US;
    let pid = s.get("pid").and_then(num_u64).unwrap_or(0) as usize;
    let tid = s.get("tid").and_then(num_u64).unwrap_or(0) as usize;
    let arg_u64 = |key: &str| {
        s.get("args")
            .and_then(|a| a.get(key))
            .and_then(num_u64)
            .unwrap_or(0)
    };
    let arg_f64 = |key: &str| {
        s.get("args")
            .and_then(|a| a.get(key))
            .and_then(num_f64)
            .unwrap_or(0.0)
    };
    let (t_sim, kind) = match cat {
        "forward" | "recompute" | "backward" => (
            ts + dur,
            EventKind::OpEnd {
                stage: tid,
                replica: pid,
                op: match cat {
                    "forward" => 'F',
                    "recompute" => 'R',
                    _ => 'B',
                },
                micro: arg_u64("micro") as usize,
                start: ts,
            },
        ),
        "send" => (
            ts,
            EventKind::SendBusy {
                stage: tid,
                replica: pid,
                micro: arg_u64("micro") as usize,
                seconds: dur,
            },
        ),
        "transfer" => {
            let from_stage = tid.saturating_sub(NET_TID_BASE as usize);
            // The destination only lives in the slice name
            // ("xfer a->b"); fall back to the downstream neighbour.
            let to_stage = match s.get("name") {
                Some(Value::Str(name)) => name
                    .rsplit("->")
                    .next()
                    .and_then(|t| t.trim().parse::<usize>().ok())
                    .unwrap_or(from_stage + 1),
                _ => from_stage + 1,
            };
            (
                ts,
                EventKind::Transfer {
                    from_stage,
                    to_stage,
                    replica: pid,
                    micro: arg_u64("micro") as usize,
                    bytes: arg_f64("bytes"),
                    seconds: dur,
                },
            )
        }
        "allreduce" => (
            ts + dur,
            EventKind::Allreduce {
                stage: tid,
                bytes: arg_f64("bytes"),
                ring: arg_u64("ring") as usize,
                seconds: dur,
            },
        ),
        _ => return Ok(None),
    };
    Ok(Some(Event::exec(t_sim, kind)))
}

/// Recovers the [`Event`]s from a chrome trace document (the inverse of
/// [`chrome_trace_json`]): `"ph": "X"` slices become the data-plane
/// events, `"ph": "i"` markers the control-plane ones, so a trace
/// round-tripped through this importer profiles identically — downtime
/// pricing included. Control-plane events come back exactly, kind, time
/// and source. `OpStart` events are not emitted (the exporter collapses
/// each op into its `OpEnd` slice) and data-plane sources normalize to
/// `Exec`; neither affects profiling or re-export.
///
/// # Errors
///
/// Input that is not JSON, has no `traceEvents` array, or holds a slice
/// that does not decode (a marker whose `cat` is not a [`Source`] or whose
/// `args` is not an [`EventKind`], a slice without a numeric `ts`, an
/// event naming a stage beyond [`MAX_STAGE`](crate::MAX_STAGE)) is an
/// error naming the offending slice's index.
pub fn events_from_chrome_trace(text: &str) -> Result<Vec<Event>, String> {
    let doc = serde_json::parse_value(text).map_err(|e| format!("not valid JSON: {e}"))?;
    let slices = doc
        .get("traceEvents")
        .ok_or_else(|| "missing `traceEvents` array".to_string())?
        .as_seq_for("traceEvents")
        .map_err(|e| e.to_string())?;
    let mut events = Vec::new();
    for (i, s) in slices.iter().enumerate() {
        let decoded = match s.get("ph") {
            Some(Value::Str(ph)) if ph == "i" => instant_event(s).map(Some),
            Some(Value::Str(ph)) if ph == "X" => slice_event(s),
            _ => Ok(None),
        }
        .and_then(|e| e.map(Event::within_bounds).transpose());
        events.extend(decoded.map_err(|e| format!("trace slice {i}: {e}"))?);
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Source;

    fn op_pair(stage: usize, micro: usize, start: f64, end: f64) -> Vec<Event> {
        vec![
            Event::exec(
                start,
                EventKind::OpStart {
                    stage,
                    replica: 0,
                    op: 'F',
                    micro,
                },
            ),
            Event::exec(
                end,
                EventKind::OpEnd {
                    stage,
                    replica: 0,
                    op: 'F',
                    micro,
                    start,
                },
            ),
        ]
    }

    #[test]
    fn op_end_becomes_a_complete_slice_and_start_is_skipped() {
        let events = op_pair(2, 5, 1.0, 1.5);
        let json = chrome_trace_json(&events);
        let doc = serde_json::parse_value(&json).unwrap();
        let slices = doc.get("traceEvents").unwrap().as_seq_for("t").unwrap();
        assert_eq!(slices.len(), 1, "OpStart must not double-draw");
        let s = &slices[0];
        assert_eq!(s.get("name"), Some(&Value::Str("F5".to_string())));
        assert_eq!(s.get("ph"), Some(&Value::Str("X".to_string())));
        assert_eq!(s.get("ts"), Some(&Value::Float(1.0e6)));
        assert_eq!(s.get("dur"), Some(&Value::Float(0.5e6)));
        assert_eq!(s.get("tid"), Some(&Value::UInt(2)));
    }

    #[test]
    fn output_is_deterministic() {
        let mut events = op_pair(0, 0, 0.0, 0.25);
        events.extend(op_pair(1, 0, 0.3, 0.6));
        assert_eq!(chrome_trace_json(&events), chrome_trace_json(&events));
    }

    #[test]
    fn source_does_not_change_rendering() {
        // The exporter keys on kind; a Bench-sourced op renders the same.
        let mut e = op_pair(0, 1, 0.0, 1.0).pop().unwrap();
        e.source = Source::Bench;
        let json = chrome_trace_json(&[e]);
        assert!(json.contains("\"F1\""));
    }

    #[test]
    fn send_busy_renders_as_a_send_slice() {
        let events = vec![Event::exec(
            2.0,
            EventKind::SendBusy {
                stage: 1,
                replica: 3,
                micro: 4,
                seconds: 0.5,
            },
        )];
        let json = chrome_trace_json(&events);
        let doc = serde_json::parse_value(&json).unwrap();
        let slices = doc.get("traceEvents").unwrap().as_seq_for("t").unwrap();
        assert_eq!(slices.len(), 1);
        let s = &slices[0];
        assert_eq!(s.get("name"), Some(&Value::Str("send m4".to_string())));
        assert_eq!(s.get("cat"), Some(&Value::Str("send".to_string())));
        assert_eq!(s.get("ph"), Some(&Value::Str("X".to_string())));
        assert_eq!(s.get("ts"), Some(&Value::Float(2.0e6)));
        assert_eq!(s.get("dur"), Some(&Value::Float(0.5e6)));
        assert_eq!(s.get("pid"), Some(&Value::UInt(3)));
        assert_eq!(s.get("tid"), Some(&Value::UInt(1)));
    }

    #[test]
    fn colliding_timestamps_serialize_in_canonical_order() {
        // Four data-plane events all ending at t=1.0, presented in two
        // different arrival orders, must render byte-identically with
        // slices keyed on (stage, replica, micro, op).
        let end = |stage: usize, replica: usize, op: char, micro: usize| {
            Event::exec(
                1.0,
                EventKind::OpEnd {
                    stage,
                    replica,
                    op,
                    micro,
                    start: 0.5,
                },
            )
        };
        let a = vec![
            end(1, 0, 'B', 0),
            end(0, 1, 'F', 2),
            end(0, 1, 'F', 1),
            end(0, 0, 'F', 0),
        ];
        let mut b = a.clone();
        b.reverse();
        let json_a = chrome_trace_json(&a);
        assert_eq!(json_a, chrome_trace_json(&b), "order must not leak");
        let doc = serde_json::parse_value(&json_a).unwrap();
        let slices = doc.get("traceEvents").unwrap().as_seq_for("t").unwrap();
        let names: Vec<_> = slices
            .iter()
            .map(|s| match s.get("name") {
                Some(Value::Str(n)) => n.clone(),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(names, vec!["F0", "F1", "F2", "B0"]);
    }

    #[test]
    fn importer_recovers_data_plane_events() {
        let events = vec![
            Event::exec(
                1.0,
                EventKind::OpEnd {
                    stage: 2,
                    replica: 1,
                    op: 'R',
                    micro: 3,
                    start: 0.25,
                },
            ),
            Event::exec(
                1.0,
                EventKind::Transfer {
                    from_stage: 2,
                    to_stage: 1,
                    replica: 1,
                    micro: 3,
                    bytes: 4096.0,
                    seconds: 0.125,
                },
            ),
            Event::exec(
                2.0,
                EventKind::SendBusy {
                    stage: 2,
                    replica: 1,
                    micro: 3,
                    seconds: 0.5,
                },
            ),
            Event::exec(
                3.0,
                EventKind::Allreduce {
                    stage: 0,
                    bytes: 1.5e9,
                    ring: 4,
                    seconds: 0.75,
                },
            ),
        ];
        let back = events_from_chrome_trace(&chrome_trace_json(&events)).unwrap();
        assert_eq!(back.len(), 4);
        assert_eq!(back[0].kind, events[0].kind);
        assert_eq!(back[0].t_sim, 1.0);
        assert_eq!(back[1].kind, events[1].kind);
        assert_eq!(back[2].kind, events[2].kind);
        assert_eq!(back[3].kind, events[3].kind);
        assert_eq!(back[3].t_sim, 3.0);
    }

    #[test]
    fn importer_rejects_garbage() {
        assert!(events_from_chrome_trace("not json").is_err());
        assert!(events_from_chrome_trace("{\"nope\": 1}").is_err());
    }
}
