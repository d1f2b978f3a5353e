//! The 1F1B schedule used by Megatron-LM and DeepSpeed pipelines.
//!
//! Stage `s` performs `P - 1 - s` warmup forwards, then strictly alternates
//! one backward (with its recompute) and one forward, draining backwards at
//! the tail. The discipline is strict: if the designated op is not ready
//! the stage idles rather than reordering — the jitter-intolerance Varuna's
//! opportunistic deviation fixes (Table 6 shows Varuna 13-26% ahead).

use varuna_sched::op::{Op, OpKind};
use varuna_sched::policy::{SchedulePolicy, StageView};

/// Strict non-interleaved 1F1B.
#[derive(Debug, Default, Clone)]
pub struct OneF1BPolicy;

impl SchedulePolicy for OneF1BPolicy {
    fn pick(&mut self, view: &StageView<'_>) -> Option<Op> {
        if let Some(mb) = view.pending_recompute {
            return view
                .backward_ready(mb)
                .then_some(Op::new(OpKind::Backward, mb));
        }
        let warmup = (view.p - 1 - view.stage).min(view.n_micro);
        let nf = view.forwards_done;
        let nb = (0..view.n_micro)
            .filter(|&mb| view.backwards_done[mb])
            .count();

        // During warmup, and whenever we owe a forward in steady state
        // (in-flight forwards below the 1F1B watermark), forward next.
        let forwards_owed = nf < view.n_micro && nf - nb <= warmup;
        if forwards_owed {
            return view.forward_ready().then_some(Op::new(OpKind::Forward, nf));
        }
        // Otherwise the designated op is the FIFO backward.
        let mb = view.next_fifo_backward()?;
        if view.backward_ready(mb) {
            return Some(Op::new(OpKind::Backward, mb));
        }
        if view.grads_ready[mb] && view.recompute_ready(mb) {
            return Some(Op::new(OpKind::Recompute, mb));
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use varuna_exec::job::PlacedJob;
    use varuna_exec::pipeline::{simulate_minibatch_on_bus, MinibatchResult, SimOptions};
    use varuna_exec::placement::Placement;
    use varuna_models::{CutpointGraph, GpuModel, ModelZoo};
    use varuna_net::Topology;
    use varuna_obs::{profile::spans, EventBus, ProfileSpan, VecSink};

    fn job(p: usize, n_micro: usize) -> PlacedJob {
        let graph = CutpointGraph::from_transformer(&ModelZoo::gpt2_2_5b());
        PlacedJob::uniform_from_graph(
            &graph,
            &GpuModel::v100(),
            p,
            1,
            4,
            n_micro,
            Topology::commodity_1gpu(p),
            Placement::one_stage_per_gpu(p, 1),
        )
    }

    /// One 1F1B mini-batch and its per-op spans, from the captured events.
    fn run(p: usize, n: usize) -> (MinibatchResult, Vec<ProfileSpan>) {
        let tape = VecSink::new();
        let mut bus = EventBus::with_sink(Box::new(tape.clone()));
        let opts = SimOptions::default();
        let res =
            simulate_minibatch_on_bus(&job(p, n), &|_, _| Box::new(OneF1BPolicy), &opts, &mut bus)
                .unwrap();
        (res, spans(&tape.take()))
    }

    #[test]
    fn completes_all_microbatches() {
        let (_, trace) = run(4, 12);
        let bwd = trace.iter().filter(|t| t.op == 'B').count();
        assert_eq!(bwd, 4 * 12);
    }

    #[test]
    fn stash_is_bounded_by_warmup_depth() {
        // The defining 1F1B property: in-flight micro-batches per stage
        // stay at (P - stage), not N_m.
        let (res, _) = run(4, 16);
        assert!(
            res.peak_stash[0] <= 4 + 1,
            "stage 0 stash {} exceeds pipeline depth",
            res.peak_stash[0]
        );
        assert!(res.peak_stash[3] <= 2);
    }

    #[test]
    fn backwards_run_in_fifo_order() {
        let (_, trace) = run(3, 8);
        for s in 0..3 {
            let order: Vec<usize> = trace
                .iter()
                .filter(|t| t.stage == s && t.op == 'B')
                .map(|t| t.micro)
                .collect();
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(order, sorted, "stage {s} backwards out of order");
        }
    }

    #[test]
    fn steady_state_alternates_forward_and_backward() {
        let (_, trace) = run(4, 16);
        // Mid-schedule at stage 0: between consecutive backwards there is
        // exactly one forward.
        let mut seq: Vec<(f64, char)> = trace
            .iter()
            .filter(|t| t.stage == 0 && t.op != 'R')
            .map(|t| (t.start, t.op))
            .collect();
        seq.sort_by(|a, b| a.0.total_cmp(&b.0));
        let kinds: Vec<char> = seq.iter().map(|(_, k)| *k).collect();
        // Skip warmup (3 forwards) and tail (drain backwards); the middle
        // must alternate.
        let mid = &kinds[4..kinds.len() - 4];
        for w in mid.windows(2) {
            assert_ne!(w[0], w[1], "steady state should alternate F/B: {kinds:?}");
        }
    }
}
