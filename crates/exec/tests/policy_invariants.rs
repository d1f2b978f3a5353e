//! Property-based invariants of the execution emulator, across policies
//! and job shapes.

use proptest::prelude::*;
use varuna_exec::job::PlacedJob;
use varuna_exec::pipeline::{simulate_minibatch, simulate_minibatch_on_bus, SimOptions};
use varuna_exec::placement::Placement;
use varuna_models::{CutpointGraph, GpuModel, ModelZoo};
use varuna_net::Topology;
use varuna_obs::{profile::spans, EventBus, EventKind, VecSink};
use varuna_sched::policy::GreedyPolicy;

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every mini-batch completes with exactly the right op counts, no
    /// overlapping spans on any GPU, and forwards in order — for arbitrary
    /// shapes, windows, and seeds.
    #[test]
    fn emulation_invariants_hold(
        p in 1usize..6,
        d in 1usize..4,
        n_micro in 1usize..12,
        m in 1usize..5,
        window in 1usize..6,
        seed in 0u64..1000,
    ) {
        let j = job(p, d, n_micro, m);
        let opts = SimOptions {
            seed,
            stash_window_override: Some(window),
            ..SimOptions::default()
        };
        let tape = VecSink::new();
        let mut bus = EventBus::with_sink(Box::new(tape.clone()));
        let res = simulate_minibatch_on_bus(&j, &|_, _| Box::new(GreedyPolicy), &opts, &mut bus)
            .expect("greedy completes any shape");
        let trace = spans(&tape.take());

        for s in 0..p {
            for r in 0..d {
                let mut lane: Vec<_> = trace
                    .iter()
                    .filter(|t| t.stage == s && t.replica == r)
                    .collect();
                lane.sort_by(|a, b| a.start.total_cmp(&b.start));
                // Exact op counts.
                let fwd = lane.iter().filter(|t| t.op == 'F').count();
                let bwd = lane.iter().filter(|t| t.op == 'B').count();
                prop_assert_eq!(fwd, n_micro);
                prop_assert_eq!(bwd, n_micro);
                // No overlap on one GPU.
                for w in lane.windows(2) {
                    prop_assert!(w[0].end <= w[1].start + 1e-9);
                }
                // Forwards strictly in micro-batch order.
                let fwd_order: Vec<usize> = lane
                    .iter()
                    .filter(|t| t.op == 'F')
                    .map(|t| t.micro)
                    .collect();
                let mut sorted = fwd_order.clone();
                sorted.sort_unstable();
                prop_assert_eq!(fwd_order, sorted);
                // Stash window respected.
                prop_assert!(res.peak_stash[s] <= window);
            }
        }
        prop_assert!(res.total_time.is_finite() && res.total_time > 0.0);
    }

    /// Throughput is monotone in resources: more micro-batches never lower
    /// per-micro-batch cost, and a fatter network never slows the batch.
    #[test]
    fn more_resources_never_hurt(
        p in 2usize..5,
        n_micro in 2usize..10,
    ) {
        let base = job(p, 1, n_micro, 2);
        let opts = SimOptions { compute_jitter: 0.0, ..SimOptions::default() };
        let t1 = simulate_minibatch(&base, &|_, _| Box::new(GreedyPolicy), &opts)
            .unwrap()
            .pipeline_time;
        // Double the micro-batches: per-micro-batch time must not rise.
        let bigger = job(p, 1, 2 * n_micro, 2);
        let t2 = simulate_minibatch(&bigger, &|_, _| Box::new(GreedyPolicy), &opts)
            .unwrap()
            .pipeline_time;
        // Network jitter is resampled per run, so allow a small sampling
        // slack on top of the expectation-level property.
        prop_assert!(
            t2 / (2.0 * n_micro as f64) <= 1.05 * t1 / n_micro as f64,
            "amortization failed: {} vs {}",
            t2 / (2.0 * n_micro as f64),
            t1 / n_micro as f64
        );
    }

    /// The emitted op event stream is well-formed: every `OpStart` has
    /// exactly one matching `OpEnd`, and per (stage, replica) GPU the op
    /// intervals never overlap.
    #[test]
    fn op_events_pair_up_and_never_overlap(
        p in 1usize..5,
        d in 1usize..4,
        n_micro in 1usize..10,
        seed in 0u64..1000,
    ) {
        let j = job(p, d, n_micro, 2);
        let opts = SimOptions { seed, ..SimOptions::default() };
        let sink = VecSink::new();
        let mut bus = EventBus::with_sink(Box::new(sink.clone()));
        simulate_minibatch_on_bus(&j, &|_, _| Box::new(GreedyPolicy), &opts, &mut bus)
            .expect("greedy completes any shape");
        let events = sink.take();

        // Pair every start with its end, per GPU.
        let mut open: std::collections::HashMap<(usize, usize), Vec<(char, usize)>> =
            std::collections::HashMap::new();
        let mut intervals: std::collections::HashMap<(usize, usize), Vec<(f64, f64)>> =
            std::collections::HashMap::new();
        for e in &events {
            match &e.kind {
                EventKind::OpStart { stage, replica, op, micro } => {
                    open.entry((*stage, *replica)).or_default().push((*op, *micro));
                }
                EventKind::OpEnd { stage, replica, op, micro, start } => {
                    let gpu = (*stage, *replica);
                    let opens = open.entry(gpu).or_default();
                    let pos = opens.iter().position(|&(o, m)| o == *op && m == *micro);
                    prop_assert!(pos.is_some(), "OpEnd without a matching OpStart: {e:?}");
                    opens.remove(pos.unwrap());
                    prop_assert!(*start <= e.t_sim, "op ends before it starts: {e:?}");
                    intervals.entry(gpu).or_default().push((*start, e.t_sim));
                }
                _ => {}
            }
        }
        for (gpu, opens) in &open {
            prop_assert!(opens.is_empty(), "unmatched OpStart on GPU {gpu:?}: {opens:?}");
        }
        // Every GPU completes each micro-batch's forward and backward
        // (recomputes are policy-dependent), and its ops never overlap.
        for s in 0..p {
            for r in 0..d {
                let ivs = intervals.get_mut(&(s, r)).expect("every GPU runs ops");
                prop_assert!(
                    ivs.len() >= 2 * n_micro && ivs.len() <= 3 * n_micro,
                    "GPU ({}, {}) ran {} ops for {} micro-batches",
                    s, r, ivs.len(), n_micro
                );
                ivs.sort_by(|a, b| a.0.total_cmp(&b.0));
                for w in ivs.windows(2) {
                    prop_assert!(
                        w[0].1 <= w[1].0 + 1e-9,
                        "overlapping ops on GPU ({}, {}): {:?} vs {:?}",
                        s, r, w[0], w[1]
                    );
                }
            }
        }
    }

    /// Determinism: the same job and seed give bit-identical results.
    #[test]
    fn emulation_is_deterministic(seed in 0u64..500) {
        let j = job(3, 2, 6, 2);
        let opts = SimOptions { seed, ..SimOptions::default() };
        let a = simulate_minibatch(&j, &|_, _| Box::new(GreedyPolicy), &opts).unwrap();
        let b = simulate_minibatch(&j, &|_, _| Box::new(GreedyPolicy), &opts).unwrap();
        prop_assert_eq!(a.total_time, b.total_time);
        prop_assert_eq!(a.stage_finish, b.stage_finish);
    }
}
