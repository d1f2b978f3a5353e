//! The two capture importers, `events_from_chrome_trace` and
//! `events_from_jsonl`, against one event of every `EventKind`.
//!
//! - A chrome trace round-trips every kind with its time and source, and
//!   re-exports byte for byte. The exceptions are documented: `OpStart`
//!   folds into its `OpEnd` slice, and data-plane sources come back as
//!   `Exec`.
//! - A JSONL capture round-trips every event as is.
//! - Hostile input (deep nesting, flipped, truncated or spliced bytes)
//!   yields `Ok` or `Err`, never a panic or an abort, and whatever
//!   imports also profiles.

use proptest::prelude::*;
use serde::Value;
use varuna_obs::{
    chrome_trace_json, events_from_chrome_trace, events_from_jsonl, profile, Event, EventKind,
    MAX_STAGE,
};

/// One event of each of the 29 kinds, at distinct dyadic timestamps
/// (multiples of 1/64 s) so the µs scaling of the trace format is
/// float-exact. Several control-plane events carry a source other than
/// the one their kind usually comes from, so the trace must keep the
/// source rather than infer it from the kind.
fn every_kind() -> Vec<Event> {
    let dy = |k: u64| k as f64 / 64.0;
    vec![
        Event::exec(
            dy(32),
            EventKind::OpStart {
                stage: 0,
                replica: 0,
                op: 'F',
                micro: 0,
            },
        ),
        Event::exec(
            dy(64),
            EventKind::OpEnd {
                stage: 0,
                replica: 0,
                op: 'F',
                micro: 0,
                start: dy(32),
            },
        ),
        Event::exec(
            dy(80),
            EventKind::Transfer {
                from_stage: 0,
                to_stage: 1,
                replica: 0,
                micro: 0,
                bytes: 4096.0,
                seconds: 0.125,
            },
        ),
        Event::exec(
            dy(96),
            EventKind::SendBusy {
                stage: 1,
                replica: 2,
                micro: 3,
                seconds: 0.5,
            },
        ),
        Event::exec(
            dy(112),
            EventKind::Allreduce {
                stage: 1,
                bytes: 1.5e9,
                ring: 4,
                seconds: 0.75,
            },
        ),
        // The manager logs the preemptions it observes: the marker must
        // keep that source, not the `Cluster` this kind usually has.
        Event::manager(dy(128), EventKind::Preemption { vm: 3 }),
        Event::cluster(dy(144), EventKind::HeartbeatMiss { vm: 9 }),
        Event::fleet(
            dy(160),
            EventKind::FleetAllocation {
                job: 1,
                spot_gpus: 48,
                on_demand_gpus: 4,
                market_gpus: 96,
            },
        ),
        Event::fleet(
            dy(176),
            EventKind::JobPreempted {
                job: 2,
                gpus_revoked: 8,
                reason: "fair_share".to_string(),
            },
        ),
        Event::fleet(
            dy(192),
            EventKind::FallbackProvisioned {
                job: 2,
                gpus: 8,
                total_on_demand: 12,
            },
        ),
        Event::manager(
            dy(208),
            EventKind::Morph {
                p: 4,
                d: 12,
                gpus_held: 50,
                gpus_used: 48,
                examples_per_sec: 125.5,
                examples_per_sec_per_gpu: 2.615,
                reconfigured: false,
                restart_seconds: 0.0,
                migration_seconds: 11.25,
            },
        ),
        Event::recovery(
            dy(224),
            EventKind::Checkpoint {
                step: 700,
                gpus_held: 50,
                gpus_used: 48,
                p: 4,
                d: 12,
                examples_per_sec: 125.5,
                examples_per_sec_per_gpu: 2.615,
                write_seconds: 1.5,
                overlapped_seconds: 38.5,
                full: false,
            },
        ),
        Event::manager(
            dy(240),
            EventKind::CheckpointTorn {
                step: 700,
                bytes_written: 1024,
                bytes_expected: 4096,
            },
        ),
        Event::recovery(
            dy(256),
            EventKind::RecoveryReplay {
                wal_records: 512,
                torn: true,
                dropped_bytes: 96,
                replay_seconds: 0.75,
            },
        ),
        Event::manager(
            dy(272),
            EventKind::DegradedEnter {
                gpus: 3,
                reason: "below min config".to_string(),
            },
        ),
        Event::manager(
            dy(288),
            EventKind::DegradedExit {
                gpus: 16,
                paused_seconds: 0.5,
            },
        ),
        Event::manager(
            dy(304),
            EventKind::LostWork {
                minibatches: 3,
                seconds: 2.25,
            },
        ),
        Event::chaos(
            dy(320),
            EventKind::FaultInjected {
                fault: "preemption_burst".to_string(),
                vm: u64::MAX,
            },
        ),
        Event::cluster(
            dy(336),
            EventKind::EvictionNotice {
                vm: 9,
                lead_seconds: 30.0,
            },
        ),
        Event::cluster(dy(352), EventKind::SilenceStart { vm: 9 }),
        Event::cluster(dy(368), EventKind::SilenceEnd { vm: 9 }),
        Event::manager(dy(384), EventKind::CheckpointWriteFailed { step: 41 }),
        Event::recovery(
            dy(400),
            EventKind::CheckpointFallback {
                from_step: 41,
                to_step: 40,
            },
        ),
        Event::manager(
            dy(416),
            EventKind::VmExcluded {
                vm: 9,
                consecutive_misses: 3,
            },
        ),
        Event::manager(dy(432), EventKind::VmReadmitted { vm: 9 }),
        Event::manager(
            dy(448),
            EventKind::MorphRetry {
                attempt: 2,
                backoff_seconds: 4.0,
                gpus: 14,
            },
        ),
        Event::exec(
            dy(464),
            EventKind::OomKill {
                stage: 5,
                needed_bytes: 17.5e9,
                capacity_bytes: 16.0e9,
                what: "stage 5 of 4x12 \"quoted\"".to_string(),
            },
        ),
        Event::manager(
            dy(480),
            EventKind::PlanSearch {
                candidates: 24,
                simulated: 10,
                memo_hits: 12,
                analytic_fallbacks: 2,
            },
        ),
        Event::train(
            dy(496),
            EventKind::EpochLoss {
                step: 12,
                loss: 2.125,
                examples_per_sec: 96.0,
            },
        ),
    ]
}

fn jsonl(events: &[Event]) -> String {
    events
        .iter()
        .map(|e| serde_json::to_string(e).unwrap() + "\n")
        .collect()
}

#[test]
fn the_fixture_holds_one_event_of_each_kind() {
    let names: std::collections::BTreeSet<String> = every_kind()
        .iter()
        .map(|e| {
            format!("{:?}", e.kind)
                .split([' ', '{'])
                .next()
                .unwrap()
                .to_string()
        })
        .collect();
    assert_eq!(names.len(), 29, "{names:?}");
}

#[test]
fn chrome_trace_round_trips_every_kind_with_its_source() {
    let events = every_kind();
    let t1 = chrome_trace_json(&events);
    let back = events_from_chrome_trace(&t1).unwrap();
    // `OpStart` is not exported (its `OpEnd` slice carries the interval);
    // every other event comes back exactly, source included.
    let expected: Vec<Event> = events
        .into_iter()
        .filter(|e| !matches!(e.kind, EventKind::OpStart { .. }))
        .collect();
    assert_eq!(back, expected, "import must invert export exactly");
    let t2 = chrome_trace_json(&back);
    assert_eq!(t1, t2, "export -> import -> export must be byte-stable");
}

#[test]
fn data_plane_sources_normalize_to_exec() {
    let mut e = every_kind()[1].clone();
    e.source = varuna_obs::Source::Bench;
    let back = events_from_chrome_trace(&chrome_trace_json(&[e.clone()])).unwrap();
    assert_eq!(back[0].source, varuna_obs::Source::Exec);
    assert_eq!(back[0].kind, e.kind);
}

/// The parsed `traceEvents` of a chrome trace.
fn slices(trace: &str) -> Vec<Value> {
    let doc = serde_json::parse_value(trace).unwrap();
    doc.get("traceEvents")
        .unwrap()
        .as_seq_for("traceEvents")
        .unwrap()
        .to_vec()
}

#[test]
fn control_plane_markers_are_named_for_perfetto_and_carry_the_serde_form() {
    let morph = |reconfigured| EventKind::Morph {
        p: 9,
        d: 8,
        gpus_held: 80,
        gpus_used: 72,
        examples_per_sec: 100.0,
        examples_per_sec_per_gpu: 1.4,
        reconfigured,
        restart_seconds: 60.0,
        migration_seconds: 0.0,
    };
    let events = [
        Event::manager(7200.0, morph(true)),
        Event::manager(7250.0, morph(false)),
        Event::cluster(7300.0, EventKind::Preemption { vm: 3 }),
    ];
    let got = slices(&chrome_trace_json(&events));
    assert_eq!(got.len(), 3);
    let names = ["morph 9x8", "replacement", "preempt vm3"];
    let cats = ["Manager", "Manager", "Cluster"];
    for (i, (s, e)) in got.iter().zip(&events).enumerate() {
        assert_eq!(s.get("ph"), Some(&Value::Str("i".to_string())));
        assert_eq!(s.get("name"), Some(&Value::Str(names[i].to_string())));
        assert_eq!(s.get("cat"), Some(&Value::Str(cats[i].to_string())));
        // `args` is exactly what a JSONL capture line holds under "kind".
        let line = serde_json::parse_value(&serde_json::to_string(e).unwrap()).unwrap();
        assert_eq!(s.get("args"), line.get("kind"));
    }
}

#[test]
fn control_plane_markers_sort_after_data_plane_slices() {
    let op_end = every_kind()[1].clone();
    let events = [
        Event::cluster(op_end.t_sim, EventKind::Preemption { vm: 7 }),
        op_end,
    ];
    let got = slices(&chrome_trace_json(&events));
    assert_eq!(got[0].get("ph"), Some(&Value::Str("X".to_string())));
    assert_eq!(got[1].get("ph"), Some(&Value::Str("i".to_string())));
}

#[test]
fn an_undecodable_marker_is_an_error_naming_its_slice() {
    let events = [
        Event::manager(1.0, EventKind::VmReadmitted { vm: 4 }),
        Event::manager(2.0, EventKind::VmReadmitted { vm: 5 }),
    ];
    let good = serde_json::parse_value(&chrome_trace_json(&events)).unwrap();
    // Replaces field `key` of slice 1.
    let corrupt = |key: &str, value: &str| {
        let mut doc = good.clone();
        let Value::Map(top) = &mut doc else {
            unreachable!()
        };
        let Value::Seq(slices) = &mut top[0].1 else {
            unreachable!()
        };
        let Value::Map(fields) = &mut slices[1] else {
            unreachable!()
        };
        fields.iter_mut().find(|(k, _)| k == key).unwrap().1 =
            serde_json::parse_value(value).unwrap();
        serde_json::to_string(&doc).unwrap()
    };
    assert_eq!(
        events_from_chrome_trace(&corrupt("ts", "2000000.0")).unwrap(),
        events
    );
    for bad in [
        // A field of the wrong type.
        corrupt("args", r#"{"VmReadmitted": {"vm": "five"}}"#),
        // A missing field is an error, not a zero.
        corrupt("args", r#"{"VmReadmitted": {}}"#),
        corrupt("args", r#"{"VmGone": {"vm": 5}}"#),
        corrupt("args", "null"),
        corrupt("cat", r#""manager""#),
        corrupt("ts", r#""soon""#),
    ] {
        let err = events_from_chrome_trace(&bad).unwrap_err();
        assert!(err.starts_with("trace slice 1:"), "{err}");
    }
}

#[test]
fn jsonl_round_trips_every_kind() {
    let events = every_kind();
    assert_eq!(events_from_jsonl(&jsonl(&events)).unwrap(), events);
}

/// The JSONL bytes of one event of every kind, pinned: the compact
/// writer must not move a byte of any line.
#[test]
fn jsonl_bytes_of_every_kind_are_pinned() {
    let text = jsonl(&every_kind());
    let fnv = text.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    });
    assert_eq!(
        (text.len(), fnv),
        (3114, 0x5532_afec_80b6_4ead),
        "JSONL bytes moved"
    );
}

#[test]
fn a_stage_beyond_max_stage_is_an_error() {
    for stage in [MAX_STAGE + 1, 1 << 40] {
        let e = Event::exec(
            1.0,
            EventKind::OpEnd {
                stage,
                replica: 0,
                op: 'F',
                micro: 0,
                start: 0.0,
            },
        );
        let err = events_from_jsonl(&jsonl(std::slice::from_ref(&e))).unwrap_err();
        assert!(
            err.starts_with("line 1") && err.contains("MAX_STAGE"),
            "{err}"
        );
        let err = events_from_chrome_trace(&chrome_trace_json(&[e])).unwrap_err();
        assert!(
            err.starts_with("trace slice 0") && err.contains("MAX_STAGE"),
            "{err}"
        );
    }
    let deepest = Event::exec(
        1.0,
        EventKind::Allreduce {
            stage: MAX_STAGE,
            bytes: 1.0,
            ring: 1,
            seconds: 0.5,
        },
    );
    assert!(events_from_jsonl(&jsonl(&[deepest])).is_ok());
}

#[test]
fn deeply_nested_input_is_an_error_not_an_abort() {
    let deep = "[".repeat(1_000_000);
    assert!(events_from_chrome_trace(&deep).is_err());
    assert!(events_from_jsonl(&deep).is_err());
    // Nesting inside an otherwise valid trace and capture line too.
    let trace = format!("{{\"traceEvents\": [{{\"ph\": \"i\", \"args\": {deep}");
    assert!(events_from_chrome_trace(&trace).is_err());
    let line = format!("{{\"t_sim\": 1.0, \"source\": \"Exec\", \"kind\": {deep}");
    assert!(events_from_jsonl(&line).is_err());
}

/// Applies one byte-level mutation to `doc`: flip the bits of one byte,
/// truncate, or overwrite a run with a chunk copied from elsewhere in the
/// document (which duplicates or drops keys, brackets and quotes).
fn mutate(doc: &[u8], op: usize, at: usize, from: usize, len: usize, mask: u8) -> String {
    let n = doc.len();
    let at = at % (n + 1);
    let mut out = doc.to_vec();
    match op {
        0 => {
            if at < n {
                out[at] ^= mask.max(1);
            }
        }
        1 => out.truncate(at),
        _ => {
            let from = from % n;
            let chunk = doc[from..(from + len).min(n)].to_vec();
            out.splice(at..(at + len).min(n), chunk);
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// Every mutated chrome trace or JSONL capture imports to `Ok` or
    /// `Err`; whatever imports also re-exports and profiles without a
    /// panic.
    #[test]
    fn mutated_captures_never_panic_the_importers(
        op in 0usize..3,
        at in 0usize..1_000_000,
        from in 0usize..1_000_000,
        len in 1usize..48,
        mask in any::<u8>(),
    ) {
        let events = every_kind();
        let trace = mutate(chrome_trace_json(&events).as_bytes(), op, at, from, len, mask);
        let got = std::panic::catch_unwind(|| {
            events_from_chrome_trace(&trace).map(|back| (chrome_trace_json(&back), profile(&back)))
        });
        prop_assert!(got.is_ok(), "chrome importer panicked on:\n{trace}");

        let capture = mutate(jsonl(&events).as_bytes(), op, at, from, len, mask);
        let got = std::panic::catch_unwind(|| {
            events_from_jsonl(&capture).map(|back| (jsonl(&back), profile(&back)))
        });
        prop_assert!(got.is_ok(), "JSONL importer panicked on:\n{capture}");
    }
}
