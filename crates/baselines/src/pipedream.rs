//! PipeDream (SOSP'19): asynchronous 1F1B without recompute.
//!
//! PipeDream stores full activations for in-flight micro-batches and one
//! weight *version* per in-flight mini-batch — up to `P` fp32 copies —
//! which is why it cannot fit massive models (paper Table 6 reports OOM for
//! both GPT-2 2.5B and 8.3B). It also abandons synchronous-SGD semantics;
//! the staleness consequence is demonstrated for real in `varuna-train`.
//!
//! Run this policy with [`SimOptions::recompute`] = false.
//!
//! [`SimOptions::recompute`]: varuna_exec::pipeline::SimOptions

use varuna_sched::op::{Op, OpKind};
use varuna_sched::policy::{SchedulePolicy, StageView};

/// PipeDream's steady-state 1F1B discipline (no recompute).
#[derive(Debug, Default, Clone)]
pub struct PipeDreamPolicy;

impl SchedulePolicy for PipeDreamPolicy {
    fn pick(&mut self, view: &StageView<'_>) -> Option<Op> {
        let warmup = (view.p - view.stage).min(view.n_micro);
        let nf = view.forwards_done;
        let nb = (0..view.n_micro)
            .filter(|&mb| view.backwards_done[mb])
            .count();
        if nf < view.n_micro && nf - nb < warmup && view.forward_ready() {
            return Some(Op::new(OpKind::Forward, nf));
        }
        let mb = view.next_fifo_backward()?;
        view.backward_ready(mb)
            .then_some(Op::new(OpKind::Backward, mb))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use varuna_exec::job::PlacedJob;
    use varuna_exec::oom::check_pipedream;
    use varuna_exec::pipeline::{simulate_minibatch, simulate_minibatch_on_bus, SimOptions};
    use varuna_exec::placement::Placement;
    use varuna_models::{CutpointGraph, GpuModel, ModelZoo};
    use varuna_net::Topology;
    use varuna_obs::{profile::spans, EventBus, VecSink};

    #[test]
    fn pipedream_runs_without_recompute() {
        let graph = CutpointGraph::from_transformer(&ModelZoo::gpt2_355m());
        let job = PlacedJob::uniform_from_graph(
            &graph,
            &GpuModel::v100(),
            4,
            1,
            4,
            8,
            Topology::commodity_1gpu(4),
            Placement::one_stage_per_gpu(4, 1),
        );
        let opts = SimOptions {
            recompute: false,
            ..SimOptions::default()
        };
        let tape = VecSink::new();
        let mut bus = EventBus::with_sink(Box::new(tape.clone()));
        simulate_minibatch_on_bus(&job, &|_, _| Box::new(PipeDreamPolicy), &opts, &mut bus)
            .unwrap();
        let recs = spans(&tape.take()).iter().filter(|t| t.op == 'R').count();
        assert_eq!(recs, 0, "PipeDream stores activations, never recomputes");
    }

    #[test]
    fn pipedream_is_faster_per_minibatch_when_it_fits() {
        // Without the 33% recompute overhead PipeDream does strictly less
        // compute per GPU and never finishes later — its costs are memory
        // and staleness, not speed. Jitter is disabled because recompute on
        // non-critical stages hides inside pipeline bubbles: end-to-end
        // times can tie exactly, and noise would make the comparison a coin
        // flip rather than a property.
        let graph = CutpointGraph::from_transformer(&ModelZoo::gpt2_355m());
        let job = PlacedJob::uniform_from_graph(
            &graph,
            &GpuModel::v100(),
            4,
            1,
            4,
            16,
            Topology::commodity_1gpu(4),
            Placement::one_stage_per_gpu(4, 1),
        );
        let pd = simulate_minibatch(
            &job,
            &|_, _| Box::new(PipeDreamPolicy),
            &SimOptions {
                recompute: false,
                compute_jitter: 0.0,
                ..SimOptions::default()
            },
        )
        .unwrap();
        let greedy = simulate_minibatch(
            &job,
            &|_, _| Box::new(varuna_sched::policy::GreedyPolicy),
            &SimOptions {
                compute_jitter: 0.0,
                ..SimOptions::default()
            },
        )
        .unwrap();
        // Network jitter is still sampled per transfer, so allow a small
        // noise band on wall-clock; the strict property is total work.
        assert!(
            pd.pipeline_time <= 1.10 * greedy.pipeline_time,
            "PipeDream fell outside the noise band: {} vs {}",
            pd.pipeline_time,
            greedy.pipeline_time
        );
        let pd_work: f64 = pd.busy_time.iter().sum();
        let greedy_work: f64 = greedy.busy_time.iter().sum();
        assert!(
            pd_work < greedy_work,
            "PipeDream must do less total compute: {pd_work} vs {greedy_work}"
        );
    }

    #[test]
    fn table6_models_oom() {
        // Table 6: PipeDream reported OOM for 8.3B at 18x4 and 2.5B at 9x8.
        const GIB: f64 = 1024.0 * 1024.0 * 1024.0;
        let c83 = ModelZoo::gpt2_8_3b();
        assert!(check_pipedream(&c83, c83.total_params() / 18, 4, 4, 18, 16.0 * GIB).is_err());
        let c25 = ModelZoo::gpt2_2_5b();
        assert!(check_pipedream(&c25, c25.total_params() / 9, 6, 4, 9, 16.0 * GIB).is_err());
    }
}
