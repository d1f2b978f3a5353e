//! End-to-end checks that the `varuna-obs` profiler attributes emulator
//! time correctly: every extracted span pairs with the `OpStart` emitted
//! when its op was dispatched, every lane's decomposition sums to the
//! makespan, blocking sends show up as send time, the critical path is
//! internally consistent, and a `StreamSink` on the live bus reports
//! exactly what `profile()` computes from the capture.

use std::collections::HashMap;

use varuna_exec::job::PlacedJob;
use varuna_exec::pipeline::{simulate_minibatch_on_bus, SimOptions};
use varuna_exec::placement::Placement;
use varuna_models::{CutpointGraph, GpuModel, ModelZoo};
use varuna_net::Topology;
use varuna_obs::{profile, EventBus, EventKind, StreamSink, VecSink};
use varuna_sched::policy::{GreedyPolicy, SchedulePolicy};

fn job(p: usize, d: usize, n_micro: usize, m: usize) -> PlacedJob {
    let graph = CutpointGraph::from_transformer(&ModelZoo::gpt2_355m());
    PlacedJob::uniform_from_graph(
        &graph,
        &GpuModel::v100(),
        p,
        d,
        m,
        n_micro,
        Topology::commodity_1gpu(p * d),
        Placement::one_stage_per_gpu(p, d),
    )
}

fn greedy() -> impl Fn(usize, usize) -> Box<dyn SchedulePolicy> {
    |_, _| Box::new(GreedyPolicy)
}

/// Runs a job capturing the full event stream, returns (events, result).
fn captured(
    j: &PlacedJob,
    opts: &SimOptions,
) -> (
    Vec<varuna_obs::Event>,
    varuna_exec::pipeline::MinibatchResult,
) {
    let sink = VecSink::new();
    let mut bus = EventBus::with_sink(Box::new(sink.clone()));
    let res = simulate_minibatch_on_bus(j, &greedy(), opts, &mut bus).expect("job completes");
    (sink.take(), res)
}

#[test]
fn profiler_spans_pair_with_the_emitted_op_starts() {
    let j = job(3, 2, 6, 2);
    let (events, _) = captured(&j, &SimOptions::default());
    let starts: HashMap<(usize, usize, char, usize), f64> = events
        .iter()
        .filter_map(|e| match e.kind {
            EventKind::OpStart {
                stage,
                replica,
                op,
                micro,
            } => Some(((stage, replica, op, micro), e.t_sim)),
            _ => None,
        })
        .collect();
    let derived = profile::spans(&events);
    assert_eq!(starts.len(), derived.len(), "one span per dispatched op");
    for s in &derived {
        let start = starts[&(s.stage, s.replica, s.op, s.micro)];
        assert_eq!(s.start, start, "start drift on {s:?}");
        assert!(s.end >= s.start, "span ends before it starts: {s:?}");
    }
    assert!(
        derived.windows(2).all(|w| w[0].end <= w[1].end),
        "spans arrive in completion order"
    );
}

#[test]
fn every_lane_decomposes_to_the_makespan() {
    let j = job(4, 2, 8, 2);
    let (events, res) = captured(&j, &SimOptions::default());
    let r = profile(&events);

    assert_eq!(r.lanes.len(), 4 * 2, "one lane per (stage, replica)");
    for lane in &r.lanes {
        assert!(
            (lane.total() - r.makespan).abs() < 1e-9 * r.makespan.max(1.0),
            "lane ({}, {}) leaks: total {} vs makespan {}",
            lane.stage,
            lane.replica,
            lane.total(),
            r.makespan
        );
        assert_eq!(lane.ops, 8 * 2 + if lane.stage < 3 { 8 } else { 0 });
    }
    // The full stream was captured, so the profiler's pipeline boundary
    // is the emulator's.
    assert!(
        (r.pipeline_end - res.pipeline_time).abs() < 1e-9 * res.pipeline_time.max(1.0),
        "pipeline_end {} vs pipeline_time {}",
        r.pipeline_end,
        res.pipeline_time
    );
    // First stage warms up instantly; later stages wait for activations.
    for lane in &r.lanes {
        if lane.stage == 0 {
            assert_eq!(lane.warmup, 0.0);
        } else {
            assert!(lane.warmup > 0.0, "stage {} never waited", lane.stage);
        }
    }
}

#[test]
fn blocking_sends_surface_as_send_time() {
    let j = job(3, 1, 6, 2);
    let overlapped = SimOptions::deterministic();
    let blocking = SimOptions {
        blocking_sends: true,
        ..SimOptions::deterministic()
    };
    let (ev_overlap, _) = captured(&j, &overlapped);
    let (ev_block, _) = captured(&j, &blocking);
    let r_overlap = profile(&ev_overlap);
    let r_block = profile(&ev_block);

    // Overlapped communication: no lane is ever send-blocked.
    assert!(r_overlap.lanes.iter().all(|l| l.send == 0.0));
    // Blocking sends: the non-final stages serialize activations on the
    // GPU, and the time is attributed (and the identity still holds).
    for lane in &r_block.lanes {
        if lane.stage < 2 {
            assert!(lane.send > 0.0, "stage {} shows no send time", lane.stage);
        }
        assert!((lane.total() - r_block.makespan).abs() < 1e-9 * r_block.makespan.max(1.0));
    }
    // Serializing on the critical path can only slow the pipeline down.
    assert!(r_block.makespan >= r_overlap.makespan - 1e-9);
}

#[test]
fn the_critical_path_is_consistent_with_the_timeline() {
    let j = job(4, 1, 8, 2);
    let (events, _) = captured(&j, &SimOptions::deterministic());
    let r = profile(&events);
    let cp = r.critical_path.as_ref().expect("ops were profiled");

    assert!(cp.length <= r.makespan + 1e-9);
    assert!(
        (cp.compute_seconds + cp.wait_seconds - cp.length).abs() < 1e-9 * cp.length.max(1.0),
        "compute {} + wait {} != length {}",
        cp.compute_seconds,
        cp.wait_seconds,
        cp.length
    );
    assert!(cp.bottleneck_stage < 4);
    assert!(cp.ops > 0);
    // The bubble is a fraction of real idle time: nonnegative and less
    // than the whole makespan.
    assert!(r.bubble_fraction >= 0.0 && r.bubble_fraction < 1.0);
    for lane in &r.lanes {
        assert!(lane.bubble() >= 0.0);
    }
}

#[test]
fn a_live_stream_sink_reports_what_profile_computes_from_the_capture() {
    let j = job(3, 2, 4, 2);
    let tape = VecSink::new();
    let live = StreamSink::default();
    let mut bus = EventBus::with_sink(Box::new(tape.clone()));
    bus.add_sink(Box::new(live.clone()));
    simulate_minibatch_on_bus(&j, &greedy(), &SimOptions::default(), &mut bus)
        .expect("minibatch simulates");

    let events = tape.take();
    assert!(!events.is_empty(), "emulator must emit events");
    let partial = live.take_partial();
    let counters = *partial.counters();
    assert_eq!(
        counters.violations(),
        0,
        "live emulator stream must profile cleanly: {counters:?}"
    );
    assert_eq!(
        partial.into_report().to_json(),
        profile(&events).to_json(),
        "live report must equal profile() of the capture byte-for-byte"
    );
}
