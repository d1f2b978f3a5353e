//! Cross-crate property-based tests on the system's core invariants.

use proptest::prelude::*;
use varuna::partition::{bottleneck_cost, partition_costs};
use varuna_exec::pipeline::render_unit_schedule;
use varuna_models::{CutpointGraph, ModelZoo};
use varuna_net::collective::{allreduce_time, AllreduceSpec};
use varuna_net::Link;
use varuna_sched::op::OpKind;
use varuna_sched::policy::GPipePolicy;
use varuna_sched::schedule::generate_schedule;
use varuna_train::data::{Corpus, VOCAB};
use varuna_train::model::ModelConfig;
use varuna_train::pipeline::PipelineTrainer;
use varuna_train::single::Trainer;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every generated schedule is complete and constraint-respecting for
    /// arbitrary (P, N_m, window).
    #[test]
    fn schedules_are_valid_for_arbitrary_shapes(
        p in 1usize..8,
        n in 1usize..24,
        window in 1usize..12,
    ) {
        let s = generate_schedule(p, n, window);
        for (stage, ops) in s.per_stage.iter().enumerate() {
            let f = ops.iter().filter(|o| o.kind == OpKind::Forward).count();
            let b = ops.iter().filter(|o| o.kind == OpKind::Backward).count();
            prop_assert_eq!(f, n, "stage {} forwards", stage);
            prop_assert_eq!(b, n, "stage {} backwards", stage);
            // Window invariant: outstanding forwards never exceed it.
            let mut outstanding = 0i64;
            for op in ops {
                match op.kind {
                    OpKind::Forward => outstanding += 1,
                    OpKind::Backward => outstanding -= 1,
                    OpKind::Recompute => {}
                }
                prop_assert!(outstanding as usize <= window);
            }
            // Order sanity: forward of m precedes its backward.
            for m in 0..n {
                let fi = ops.iter().position(|o| o.kind == OpKind::Forward && o.micro == m);
                let bi = ops.iter().position(|o| o.kind == OpKind::Backward && o.micro == m);
                prop_assert!(fi < bi);
            }
        }
        // The last stage never recomputes under Varuna's discipline.
        prop_assert!(s
            .per_stage
            .last()
            .unwrap()
            .iter()
            .all(|o| o.kind != OpKind::Recompute));
    }

    /// Varuna's offline makespan never loses to GPipe's, at any shape.
    #[test]
    fn varuna_never_loses_to_gpipe_offline(p in 2usize..7, n in 2usize..16) {
        let v = generate_schedule(p, n, usize::MAX);
        let g = render_unit_schedule(p, n, usize::MAX, true, &|_, _| Box::new(GPipePolicy))
            .expect("gpipe completes");
        prop_assert!(
            v.makespan <= g.makespan + 1e-9,
            "varuna {} vs gpipe {} at p={} n={}", v.makespan, g.makespan, p, n
        );
    }

    /// The DP partitioner never produces a worse bottleneck than the even
    /// split.
    #[test]
    fn balanced_partition_beats_even_split(p in 1usize..20) {
        let graph = CutpointGraph::from_transformer(&ModelZoo::gpt2_2_5b());
        prop_assume!(p <= graph.len());
        let costs: Vec<f64> = graph.cutpoints.iter().map(|c| c.fwd_flops).collect();
        let parts = partition_costs(&costs, p);
        let dp = bottleneck_cost(&graph, &parts);
        let k = graph.len();
        let even: f64 = (0..p)
            .map(|s| graph.range_fwd_flops(s * k / p, (s + 1) * k / p))
            .fold(0.0, f64::max);
        prop_assert!(dp <= even + 1e-6);
    }

    /// Allreduce cost is monotone: more bytes, bigger rings, and more
    /// contention never get cheaper; more bandwidth never gets slower.
    #[test]
    fn allreduce_cost_is_monotone(
        bytes in 1.0e6..1.0e9f64,
        d in 2usize..32,
        k in 1usize..8,
        scale in 1.01f64..4.0,
    ) {
        let link = Link::ethernet();
        let base = allreduce_time(AllreduceSpec { bytes, ring_size: d, in_flight: k }, link);
        let more_bytes =
            allreduce_time(AllreduceSpec { bytes: bytes * 2.0, ring_size: d, in_flight: k }, link);
        prop_assert!(more_bytes > base);
        let bigger_ring =
            allreduce_time(AllreduceSpec { bytes, ring_size: d + 1, in_flight: k }, link);
        prop_assert!(bigger_ring >= base);
        let more_contention =
            allreduce_time(AllreduceSpec { bytes, ring_size: d, in_flight: k + 1 }, link);
        prop_assert!(more_contention > base);
        let fat_link = link.scaled_bandwidth(scale);
        let faster = allreduce_time(AllreduceSpec { bytes, ring_size: d, in_flight: k }, fat_link);
        prop_assert!(faster < base);
    }

    /// Mini-batch accounting: for any (m, d) that divides it, the planner
    /// preserves M_total exactly.
    #[test]
    fn planner_preserves_m_total(
        d in 1usize..10,
        m_pow in 0u32..3,
    ) {
        use varuna::calibrate::Calibration;
        use varuna::planner::Planner;
        use varuna::VarunaCluster;
        let m = 2usize.pow(m_pow);
        let model = ModelZoo::gpt2_2_5b();
        let cluster = VarunaCluster::commodity_1gpu(9 * d);
        let calib = Calibration::profile(&model, &cluster);
        let cfg = Planner::new(&model, &calib)
            .batch_size(8192)
            .micro_batch(m)
            .evaluate(9, d);
        prop_assume!(cfg.is_ok());
        let cfg = cfg.unwrap();
        prop_assert_eq!(cfg.examples, 8192);
        prop_assert!(cfg.m * cfg.n_micro * cfg.d >= 8192);
        prop_assert!(cfg.m * (cfg.n_micro - 1) * cfg.d < 8192);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Correctness-preserving morphing over arbitrary shape pairs: train
    /// under (p1, d1, micro1), morph to (p2, d2, micro2), and match the
    /// never-morphed single-process oracle.
    #[test]
    fn morphing_is_semantics_preserving_for_random_shapes(
        p1 in 1usize..5,
        p2 in 1usize..5,
        d1_pow in 0u32..2,
        d2_pow in 0u32..2,
        micro1_pow in 0u32..2,
    ) {
        let d1 = 2usize.pow(d1_pow);
        let d2 = 2usize.pow(d2_pow);
        let micro1 = 2usize.pow(micro1_pow);
        let m_total = 8usize;
        prop_assume!(m_total.is_multiple_of(d1 * micro1));
        prop_assume!(m_total.is_multiple_of(d2));
        let micro2 = m_total / d2 / ((m_total / d2).min(2));
        prop_assume!(micro2 >= 1 && m_total.is_multiple_of(d2 * micro2));

        let cfg = ModelConfig {
            vocab: VOCAB,
            seq: 8,
            dim: 16,
            heads: 2,
            layers: 4,
            tied: true,
            seed: 31,
        };
        let corpus = Corpus::synthetic(3000, 41);
        let mut reference = Trainer::new(cfg, corpus.clone(), 0.1, m_total);
        let mut pipe = PipelineTrainer::new(cfg, corpus, 0.1, m_total, p1, d1, micro1);
        for _ in 0..2 {
            reference.train_minibatch(1);
            pipe.train_minibatch();
        }
        pipe.morph(p2, d2, micro2);
        for _ in 0..2 {
            reference.train_minibatch(1);
            pipe.train_minibatch();
        }
        let mut a = reference.model.clone();
        let mut b = pipe.reassemble();
        let diff = a
            .params_mut()
            .iter()
            .zip(b.params_mut().iter())
            .map(|(x, y)| x.w.max_abs_diff(&y.w))
            .fold(0.0f32, f32::max);
        prop_assert!(diff < 2e-3, "morph {p1}x{d1}(m{micro1}) -> {p2}x{d2}(m{micro2}) diverged by {diff}");
    }
}
