//! Re-timed layer calls. Some layers run inside one public call
//! (`replay_walled`, `run_fleet_walled`, a `SimSearch` sweep) where the
//! benchmark cannot put a span around them. These helpers call the
//! layers' own public functions again on the exact inputs the run used,
//! each inside a `retime.*` span, so their cost is measured rather than
//! assumed. The numbers are labelled re-timed wherever they are shown.

use std::cell::Cell;
use std::rc::Rc;

use varuna::simulator::SimInput;
use varuna::wal::Wal;
use varuna::{
    balanced_partition, estimate_minibatch_time, Calibration, ClusterTemplate, Config, Planner,
    SimSearch, TrainingJob,
};
use varuna_exec::pipeline::SimOptions;
use varuna_obs::{
    profile, Event, EventBus, EventKind, EventSink, StreamConfig, StreamSink, VecSink,
};

use crate::spans::{timed, SharedTracer};

/// Re-timed planning at a list of capacity levels.
#[derive(Debug, Default)]
pub struct PlannerRetime {
    /// `Planner::best_config_with_fallback` calls.
    pub sweeps: u64,
    /// Memory-feasible candidates those sweeps produce.
    pub configs: u64,
    /// Time in `Planner::best_config_with_fallback`, ms.
    pub planner_ms: f64,
    /// `balanced_partition` calls.
    pub partition_calls: u64,
    /// Time in `balanced_partition`, ms.
    pub partition_ms: f64,
    /// `estimate_minibatch_time` calls.
    pub analytic_calls: u64,
    /// Time in `estimate_minibatch_time`, ms.
    pub analytic_ms: f64,
    /// Each level's candidate configurations, as `Planner::sweep` builds
    /// them.
    pub candidates: Vec<Vec<Config>>,
}

/// Re-plans every level of `levels` the way the morph controller does
/// (`Planner::best_config_with_fallback` for a job of `m_total` examples
/// in micro-batches of `micro`), then walks the same sweep one candidate
/// at a time, timing the partitioner and the analytic simulator apart.
pub fn planner(
    tracer: &SharedTracer,
    calib: &Calibration,
    m_total: usize,
    micro: usize,
    levels: &[usize],
) -> PlannerRetime {
    let planner = Planner::new(&calib.model, calib)
        .batch_size(m_total)
        .micro_batch(micro);
    let k = calib.graph.len();
    let m = planner.chosen_m();
    let mut out = PlannerRetime::default();
    for &g in levels {
        let (_, ms) = timed(Some(tracer), "retime.planner", None, || {
            std::hint::black_box(planner.best_config_with_fallback(g))
        });
        out.sweeps += 1;
        out.planner_ms += ms;

        // The body of `Planner::sweep`/`Planner::evaluate`, one public
        // call at a time.
        let mut cands = Vec::new();
        for p in 1..=k.min(g) {
            let d = g / p;
            if d == 0 {
                break;
            }
            if m * d > m_total {
                continue;
            }
            let n_micro = m_total.div_ceil(m * d);
            let (assignment, ms) = timed(Some(tracer), "retime.partition", None, || {
                balanced_partition(&calib.graph, p)
            });
            out.partition_calls += 1;
            out.partition_ms += ms;
            let input = SimInput {
                calib,
                assignment: &assignment,
                d,
                m,
                n_micro,
                offload: false,
            };
            let (est, ms) = timed(Some(tracer), "retime.analytic", None, || {
                estimate_minibatch_time(&input)
            });
            out.analytic_calls += 1;
            out.analytic_ms += ms;
            if let Ok(est) = est {
                cands.push(Config {
                    p,
                    d,
                    m,
                    n_micro,
                    assignment,
                    offload: false,
                    est_minibatch_time: est,
                    examples: m_total,
                });
            }
        }
        out.configs += cands.len() as u64;
        out.candidates.push(cands);
    }
    out
}

/// Counts the ops an emulated mini-batch completes.
#[derive(Clone, Default)]
struct OpCounter(Rc<Cell<u64>>);

impl EventSink for OpCounter {
    fn record(&mut self, event: &Event) {
        if matches!(event.kind, EventKind::OpEnd { .. }) {
            self.0.set(self.0.get() + 1);
        }
    }
}

/// Re-timed emulation of a set of candidates.
#[derive(Debug, Default)]
pub struct EmulatorRetime {
    /// `SimSearch::simulate_candidate` calls.
    pub calls: u64,
    /// Time in them, ms.
    pub ms: f64,
    /// GPU ops the emulated mini-batches complete (`OpEnd` events of the
    /// same jobs run through `simulate_minibatch_on_bus`).
    pub ops: u64,
    /// Candidates the emulator rejected.
    pub errors: u64,
}

/// Emulates every candidate with `SimSearch::simulate_candidate` (timed),
/// then runs each once more on an event bus with a counting sink to
/// learn how many ops it executed (not timed).
pub fn emulator(tracer: &SharedTracer, calib: &Calibration, cands: &[Config]) -> EmulatorRetime {
    let template = ClusterTemplate::from_calibration(calib);
    let mut out = EmulatorRetime::default();
    for cfg in cands {
        let (res, ms) = timed(Some(tracer), "retime.emulator", None, || {
            SimSearch::simulate_candidate(calib, template, cfg)
        });
        out.calls += 1;
        out.ms += ms;
        if res.is_err() {
            out.errors += 1;
            continue;
        }
        let counter = OpCounter::default();
        let mut bus = EventBus::with_sink(Box::new(counter.clone()));
        let ran = TrainingJob::build(calib, &template.build(cfg.gpus_used()), cfg.clone())
            .and_then(|job| job.run_minibatch_on_bus(&SimOptions::deterministic(), &mut bus));
        if ran.is_err() {
            out.errors += 1;
        }
        out.ops += counter.0.get();
    }
    out
}

/// Re-timed `profile()` over each stream, ms.
pub fn profile_ms(tracer: &SharedTracer, streams: &[&[Event]]) -> f64 {
    streams
        .iter()
        .map(|s| {
            timed(Some(tracer), "retime.profile", None, || {
                std::hint::black_box(profile(s))
            })
            .1
        })
        .sum()
}

/// Re-timed streaming-profiler fold over each stream (a fresh
/// `StreamSink` per stream, sealed at the end), ms.
pub fn stream_fold_ms(tracer: &SharedTracer, streams: &[&[Event]]) -> f64 {
    streams
        .iter()
        .map(|s| {
            timed(Some(tracer), "retime.stream_fold", None, || {
                let mut sink = StreamSink::new(StreamConfig::default());
                for e in s.iter() {
                    sink.record(e);
                }
                std::hint::black_box(sink.take_partial().into_report())
            })
            .1
        })
        .sum()
}

/// Re-timed delivery of each stream into the sinks a fleet bus holds (a
/// `VecSink` and a `StreamSink`), ms.
pub fn fleet_sink_ms(tracer: &SharedTracer, streams: &[&[Event]]) -> f64 {
    streams
        .iter()
        .map(|s| {
            timed(Some(tracer), "retime.sink", None, || {
                let mut vec = VecSink::new();
                let mut live = StreamSink::new(StreamConfig::default());
                for e in s.iter() {
                    vec.record(e);
                    live.record(e);
                }
                std::hint::black_box(vec.len())
            })
            .1
        })
        .sum()
}

/// Re-timed appends of `records` into a fresh log, ms.
pub fn wal_append_ms<R: Clone>(tracer: &SharedTracer, records: &[R]) -> f64 {
    timed(Some(tracer), "retime.wal_append", None, || {
        let mut wal = Wal::<R>::new();
        for r in records {
            wal.append(r.clone());
        }
        std::hint::black_box(wal.len())
    })
    .1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spans::Tracer;
    use varuna::VarunaCluster;
    use varuna_models::ModelZoo;

    #[test]
    fn the_manual_sweep_matches_the_planner_sweep() {
        let model = ModelZoo::gpt2_355m();
        let calib = Calibration::profile(&model, &VarunaCluster::commodity_1gpu(16));
        let tr = Tracer::shared();
        let got = planner(&tr, &calib, 256, 4, &[8, 16]);
        let planner = Planner::new(&model, &calib).batch_size(256).micro_batch(4);
        for (i, g) in [8, 16].into_iter().enumerate() {
            let want = planner.sweep(g);
            let have = &got.candidates[i];
            assert_eq!(want.len(), have.len());
            for (w, h) in want.iter().zip(have) {
                assert_eq!((w.p, w.d, w.m, w.n_micro), (h.p, h.d, h.m, h.n_micro));
                assert_eq!(w.assignment, h.assignment);
                assert_eq!(w.est_minibatch_time, h.est_minibatch_time);
            }
        }
        assert_eq!(got.sweeps, 2);
        assert_eq!(tr.borrow().count("retime.planner"), 2);
        assert_eq!(
            tr.borrow().count("retime.analytic") as u64,
            got.analytic_calls
        );
    }
}
