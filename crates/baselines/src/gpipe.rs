//! The GPipe schedule (Huang et al., NeurIPS'19).
//!
//! [`GPipePolicy`] lives in [`varuna_sched::policy`] and is re-exported
//! here with the other baselines. Figure 4's GPipe schedule is the
//! emulator's unit-time render of it
//! (`varuna_exec::pipeline::render_unit_schedule`); the tests below run it
//! on the emulator at calibrated times.

pub use varuna_sched::policy::GPipePolicy;

#[cfg(test)]
mod tests {
    use super::*;
    use varuna_exec::job::PlacedJob;
    use varuna_exec::pipeline::{simulate_minibatch, simulate_minibatch_on_bus, SimOptions};
    use varuna_exec::placement::Placement;
    use varuna_models::{CutpointGraph, GpuModel, ModelZoo};
    use varuna_net::Topology;
    use varuna_obs::{profile::spans, EventBus, ProfileSpan, VecSink};
    use varuna_sched::policy::GreedyPolicy;

    fn job(p: usize, n_micro: usize) -> PlacedJob {
        let graph = CutpointGraph::from_transformer(&ModelZoo::bert_72());
        PlacedJob::uniform_from_graph(
            &graph,
            &GpuModel::v100(),
            p,
            1,
            16,
            n_micro,
            Topology::commodity_4gpu(p.div_ceil(4)),
            Placement::one_stage_per_gpu(p, 1),
        )
    }

    /// The per-op spans of one GPipe mini-batch, from its captured events.
    fn gpipe_spans(j: &PlacedJob) -> Vec<ProfileSpan> {
        let tape = VecSink::new();
        let mut bus = EventBus::with_sink(Box::new(tape.clone()));
        let opts = SimOptions::default();
        simulate_minibatch_on_bus(j, &|_, _| Box::new(GPipePolicy), &opts, &mut bus).unwrap();
        spans(&tape.take())
    }

    #[test]
    fn gpipe_completes_and_orders_phases() {
        let trace = gpipe_spans(&job(4, 5));
        // Every stage's last forward precedes its first backward.
        for s in 0..4 {
            let last_fwd = trace
                .iter()
                .filter(|t| t.stage == s && t.op == 'F')
                .map(|t| t.end)
                .fold(0.0f64, f64::max);
            let first_bwd = trace
                .iter()
                .filter(|t| t.stage == s && t.op == 'B')
                .map(|t| t.start)
                .fold(f64::INFINITY, f64::min);
            assert!(last_fwd <= first_bwd, "stage {s} interleaved phases");
        }
    }

    #[test]
    fn gpipe_backwards_run_in_reverse_order() {
        let bwd_order: Vec<usize> = gpipe_spans(&job(3, 4))
            .iter()
            .filter(|t| t.stage == 0 && t.op == 'B')
            .map(|t| t.micro)
            .collect();
        assert_eq!(bwd_order, vec![3, 2, 1, 0]);
    }

    #[test]
    fn last_stage_skips_recompute_only_for_final_microbatch() {
        let recs: Vec<usize> = gpipe_spans(&job(4, 5))
            .iter()
            .filter(|t| t.stage == 3 && t.op == 'R')
            .map(|t| t.micro)
            .collect();
        assert_eq!(recs, vec![3, 2, 1, 0], "all but micro-batch 4 recompute");
    }

    #[test]
    fn gpipe_is_slower_than_greedy() {
        // The bubble: GPipe idles mid-schedule where a work-conserving
        // policy does not (paper Figure 4 shows Varuna one slot shorter
        // even at N=5, P=4).
        let j = job(4, 8);
        let g =
            simulate_minibatch(&j, &|_, _| Box::new(GPipePolicy), &SimOptions::default()).unwrap();
        let v =
            simulate_minibatch(&j, &|_, _| Box::new(GreedyPolicy), &SimOptions::default()).unwrap();
        assert!(
            g.pipeline_time >= v.pipeline_time,
            "gpipe {} vs greedy {}",
            g.pipeline_time,
            v.pipeline_time
        );
    }

    #[test]
    fn gpipe_completes_under_a_tight_stash_window() {
        // Two stash slots for eight micro-batches: phase 2 drains what it
        // has forwarded instead of deadlocking on an unforwarded one.
        let opts = SimOptions {
            stash_window_override: Some(2),
            ..SimOptions::default()
        };
        let res = simulate_minibatch(&job(4, 8), &|_, _| Box::new(GPipePolicy), &opts).unwrap();
        assert!(
            res.peak_stash.iter().all(|&s| s <= 2),
            "{:?}",
            res.peak_stash
        );
    }

    #[test]
    fn gpipe_stash_grows_to_n_micro() {
        // GPipe stashes every micro-batch's input during phase 1.
        let j = job(4, 6);
        let res =
            simulate_minibatch(&j, &|_, _| Box::new(GPipePolicy), &SimOptions::default()).unwrap();
        assert_eq!(res.peak_stash[0], 6);
    }
}
