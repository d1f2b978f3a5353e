//! A trainer whose schedule policies cannot finish a mini-batch panics,
//! naming the stage, instead of leaving its stage threads blocked forever.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::time::Duration;

use varuna_baselines::OneF1BPolicy;
use varuna_sched::{GreedyPolicy, Op, OpKind, SchedulePolicy, StageView};
use varuna_train::data::{Corpus, VOCAB};
use varuna_train::model::ModelConfig;
use varuna_train::pipeline::PipelineTrainer;

/// Runs one mini-batch of 8 micro-batches through a 4-stage pipeline with
/// one-input stash windows under `factory`'s policies, on another thread,
/// and returns its panic message; fails if the run succeeds or does not
/// return within the harness timeout.
fn panic_of(factory: fn(usize, usize) -> Box<dyn SchedulePolicy>) -> String {
    let (tx, rx) = mpsc::channel();
    // Detached on purpose: a hung trainer must fail the test at the
    // timeout below, not block it in a join.
    std::thread::spawn(move || {
        let cfg = ModelConfig {
            vocab: VOCAB,
            seq: 12,
            dim: 24,
            heads: 4,
            layers: 4,
            tied: true,
            seed: 3,
        };
        let corpus = Corpus::synthetic(4000, 15);
        let mut pipe = PipelineTrainer::new(cfg, corpus, 0.1, 8, 4, 1, 1).with_window(1);
        let outcome = catch_unwind(AssertUnwindSafe(|| pipe.train_minibatch_with(&factory)));
        let _ = tx.send(
            outcome.map_err(|panic| panic.downcast_ref::<String>().cloned().unwrap_or_default()),
        );
    });
    rx.recv_timeout(Duration::from_secs(120))
        .expect("the trainer returns instead of hanging")
        .expect_err("the mini-batch cannot complete")
}

#[test]
fn a_wedged_policy_panics_naming_the_stage_instead_of_hanging() {
    // 1F1B's first stage owes `p - 1` warmup forwards before its first
    // backward; with a one-input window it can never start the second,
    // and every stage ends up idle waiting for a delivery. The emulator
    // returns `SimError::Deadlock` for the same shape.
    let message = panic_of(|_, _| Box::new(OneF1BPolicy));
    assert!(
        message.starts_with("stage 0 replica 0: the schedule policy wedged"),
        "{message}"
    );
}

#[test]
fn an_illegal_pick_panics_instead_of_hanging_the_other_stages() {
    struct BackwardFirst;
    impl SchedulePolicy for BackwardFirst {
        fn pick(&mut self, _: &StageView<'_>) -> Option<Op> {
            Some(Op::new(OpKind::Backward, 0))
        }
    }
    let message = panic_of(|s, _| {
        if s == 2 {
            Box::new(BackwardFirst)
        } else {
            Box::new(GreedyPolicy)
        }
    });
    assert!(message.starts_with("stage 2 picked illegal"), "{message}");
}
