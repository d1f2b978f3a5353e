//! Cross-validation of the discrete-event emulator against the numeric
//! trainer, through the shared `varuna-sched` substrate.
//!
//! Both engines compute *legality* (input arrival, stash-window headroom,
//! gradients in hand, pending-recompute commitment) and delegate the
//! *discipline* to the same [`SchedulePolicy`] objects. For strict
//! disciplines — ones that idle rather than reorder when their designated
//! op is not ready — the per-stage op sequence is a pure function of the
//! executed prefix, so the emulator (modeled GPU/network times) and the
//! trainer (real matrix math on OS threads) must execute *identical*
//! per-stage op sequences. That is the paper's Table 7
//! simulation-faithful-to-execution claim, asserted op by op.
//!
//! Work-conserving policies (Greedy, opportunistic Varuna) react to actual
//! message timing by design, so their orders are only equal under identical
//! timing; they are exercised by the legality proptest below instead.

use proptest::prelude::*;
use varuna_baselines::{GPipePolicy, OneF1BPolicy, PipeDreamPolicy};
use varuna_exec::job::PlacedJob;
use varuna_exec::pipeline::{simulate_minibatch_on_bus, SimError, SimOptions};
use varuna_exec::placement::Placement;
use varuna_models::{CutpointGraph, GpuModel, ModelZoo};
use varuna_net::Topology;
use varuna_obs::{profile::spans, EventBus, VecSink};
use varuna_sched::op::Op;
use varuna_sched::schedule::{generate_schedule, VarunaPolicy};
use varuna_sched::{GreedyPolicy, OpKind, PolicyFactory};
use varuna_train::data::{Corpus, VOCAB};
use varuna_train::model::ModelConfig;
use varuna_train::pipeline::PipelineTrainer;

fn job(p: usize, n_micro: usize) -> PlacedJob {
    let graph = CutpointGraph::from_transformer(&ModelZoo::gpt2_355m());
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

/// Emulates one mini-batch and returns replica 0's ops as
/// `(stage, start, op)`, in completion order, from the captured `OpEnd`
/// events.
fn replica0_ops(
    job: &PlacedJob,
    factory: &PolicyFactory<'_>,
    opts: &SimOptions,
) -> Result<Vec<(usize, f64, Op)>, SimError> {
    let tape = VecSink::new();
    let mut bus = EventBus::with_sink(Box::new(tape.clone()));
    simulate_minibatch_on_bus(job, factory, opts, &mut bus)?;
    Ok(spans(&tape.take())
        .iter()
        .filter(|s| s.replica == 0)
        .map(|s| {
            let kind = OpKind::from_code(s.op).expect("the emulator emits valid op codes");
            (s.stage, s.start, Op::new(kind, s.micro))
        })
        .collect())
}

/// Runs the emulator at zero compute jitter and returns the per-stage op
/// sequence (replica 0), in execution order.
fn emulator_stage_orders(
    factory: &PolicyFactory<'_>,
    p: usize,
    n_micro: usize,
    window: usize,
    recompute: bool,
) -> Vec<Vec<Op>> {
    let opts = SimOptions {
        compute_jitter: 0.0,
        recompute,
        stash_window_override: Some(window),
        ..SimOptions::default()
    };
    let mut ops = replica0_ops(&job(p, n_micro), factory, &opts).expect("emulation completes");
    ops.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap());
    let mut orders = vec![Vec::new(); p];
    for (stage, _, op) in ops {
        orders[stage].push(op);
    }
    orders
}

/// Runs one real mini-batch through the numeric trainer and returns the
/// per-stage op sequence it recorded.
fn trainer_stage_orders(
    factory: &PolicyFactory<'_>,
    p: usize,
    n_micro: usize,
    window: usize,
    recompute: bool,
) -> Vec<Vec<Op>> {
    let cfg = ModelConfig {
        vocab: VOCAB,
        seq: 8,
        dim: 16,
        heads: 2,
        layers: 4,
        tied: true,
        seed: 5,
    };
    let corpus = Corpus::synthetic(3000, 23);
    let mut pipe = PipelineTrainer::new(cfg, corpus, 0.1, n_micro, p, 1, 1)
        .with_window(window)
        .with_recompute(recompute);
    pipe.train_minibatch_with(factory);
    pipe.last_op_order.clone()
}

fn assert_orders_match(
    name: &str,
    factory: &PolicyFactory<'_>,
    p: usize,
    n_micro: usize,
    window: usize,
    recompute: bool,
) {
    let emulated = emulator_stage_orders(factory, p, n_micro, window, recompute);
    let trained = trainer_stage_orders(factory, p, n_micro, window, recompute);
    for stage in 0..p {
        assert_eq!(
            emulated[stage], trained[stage],
            "{name} p={p} n={n_micro} window={window}: emulator and trainer \
             disagree on stage {stage}'s op order"
        );
    }
}

#[test]
fn gpipe_trainer_matches_emulator_op_for_op() {
    for (p, n) in [(2, 4), (4, 6)] {
        assert_orders_match(
            "gpipe",
            &|_, _| Box::new(GPipePolicy),
            p,
            n,
            usize::MAX,
            true,
        );
    }
}

#[test]
fn onef1b_trainer_matches_emulator_op_for_op() {
    for (p, n) in [(2, 4), (4, 6)] {
        assert_orders_match(
            "1f1b",
            &|_, _| Box::new(OneF1BPolicy),
            p,
            n,
            usize::MAX,
            true,
        );
    }
}

#[test]
fn pipedream_discipline_holds_in_both_engines() {
    // PipeDream stores activations instead of recomputing, and its policy
    // falls through from the owed forward to the FIFO backward when the
    // input has not arrived — it is work-conserving, so the exact
    // interleaving legitimately depends on message timing and the two
    // engines need not match op for op. What must hold in both is the
    // discipline itself: forwards in order, backwards FIFO, never more
    // than the warmup bound in flight, and not a single recompute.
    let (p, n) = (4, 6);
    let factory: &PolicyFactory<'_> = &|_, _| Box::new(PipeDreamPolicy);
    let emulated = emulator_stage_orders(factory, p, n, usize::MAX, false);
    let trained = trainer_stage_orders(factory, p, n, usize::MAX, false);
    for (engine, orders) in [("emulator", &emulated), ("trainer", &trained)] {
        for (stage, ops) in orders.iter().enumerate() {
            let warmup = (p - stage).min(n);
            let (mut nf, mut nb) = (0usize, 0usize);
            for op in ops {
                match op.kind {
                    OpKind::Forward => {
                        assert_eq!(op.micro, nf, "{engine} stage {stage}: forwards in order");
                        nf += 1;
                    }
                    OpKind::Backward => {
                        assert_eq!(op.micro, nb, "{engine} stage {stage}: backwards FIFO");
                        nb += 1;
                    }
                    OpKind::Recompute => {
                        panic!("{engine} stage {stage}: PipeDream never recomputes")
                    }
                }
                assert!(
                    nf - nb <= warmup,
                    "{engine} stage {stage}: {} in flight exceeds warmup {warmup}",
                    nf - nb
                );
            }
            assert_eq!((nf, nb), (n, n), "{engine} stage {stage} completes");
        }
    }
}

#[test]
fn strict_varuna_trainer_matches_emulator_op_for_op() {
    // Strict replay of the offline schedule — including under a tight
    // stash window, where the enumerator interleaves backwards early to
    // respect memory.
    for window in [usize::MAX, 2] {
        let (p, n) = (4, 6);
        let sched = generate_schedule(p, n, window);
        assert_orders_match(
            "varuna-strict",
            &|s, _| Box::new(VarunaPolicy::strict_for_stage(&sched, s)),
            p,
            n,
            window,
            true,
        );
    }
}

/// Counts ops of `kind` in one stage's sequence.
fn count(ops: &[Op], kind: OpKind) -> usize {
    ops.iter().filter(|o| o.kind == kind).count()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every policy only ever picks legal ops, at any jitter, seed, shape,
    /// and stash window: the emulator asserts `StageView::is_legal` on
    /// every dispatch, so completing the mini-batch with a full complement
    /// of forwards and backwards per stage *is* the property.
    #[test]
    fn every_policy_picks_only_legal_ops_under_jitter(
        p in 2usize..6,
        n in 2usize..10,
        window in 1usize..6,
        seed in 0u64..1024,
        jitter in 0.0f64..0.3,
    ) {
        let run = |name: &str, factory: &PolicyFactory<'_>, window: usize, recompute: bool| {
            let opts = SimOptions {
                seed,
                compute_jitter: jitter,
                recompute,
                stash_window_override: Some(window),
                ..SimOptions::default()
            };
            let trace = replica0_ops(&job(p, n), factory, &opts)
                .unwrap_or_else(|e| panic!("{name} failed: {e:?}"));
            for stage in 0..p {
                let ops: Vec<Op> = trace
                    .iter()
                    .filter(|s| s.0 == stage)
                    .map(|s| s.2)
                    .collect();
                assert_eq!(count(&ops, OpKind::Forward), n, "{name} stage {stage} forwards");
                assert_eq!(count(&ops, OpKind::Backward), n, "{name} stage {stage} backwards");
            }
        };

        run("greedy", &|_, _| Box::new(GreedyPolicy), window, true);
        let sched = generate_schedule(p, n, window);
        let varuna = |s: usize, _: usize| -> Box<dyn varuna_sched::SchedulePolicy> {
            Box::new(VarunaPolicy::for_stage(&sched, s))
        };
        run("varuna", &varuna, window, true);
        // GPipe's reverse-order drain assumes every forward fit in memory;
        // give it the window its discipline requires.
        run("gpipe", &|_, _| Box::new(GPipePolicy), n.max(window), true);
        // 1F1B keeps up to `p` micro-batches in flight during warmup.
        run("1f1b", &|_, _| Box::new(OneF1BPolicy), p.max(window), true);
        run("pipedream", &|_, _| Box::new(PipeDreamPolicy), window, false);
    }
}
