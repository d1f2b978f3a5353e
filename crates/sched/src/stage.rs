//! One pipeline stage's run-time state: what it has done and may run next.
//!
//! The emulator, the trainer's stage threads and the [`crate::schedule`]
//! kernel each hold one [`StageState`] per `(stage, replica)`, feed it
//! arrivals and op transitions, and ask it for the [`StageView`] a policy
//! picks from. So the per-stage rules of paper §3.2 exist once: the stash
//! window, in-order forwards, live activations that survive only into
//! their consuming backward, and the pending-recompute commitment
//! (constraint 2).

use crate::op::{Op, OpKind};
use crate::policy::StageView;

/// One `(stage, replica)`'s counters and per-micro-batch flags.
#[derive(Debug)]
pub struct StageState {
    stage: usize,
    p: usize,
    n_micro: usize,
    window: usize,
    recompute: bool,
    forwards_done: usize,
    acts_arrived: usize,
    backwards_done: usize,
    stash_len: usize,
    peak_stash: usize,
    live_acts: Option<usize>,
    pending_recompute: Option<usize>,
    /// `3 · n_micro` flags: gradient ready, recompute done and backward
    /// done, each indexed by micro-batch.
    flags: Vec<bool>,
}

impl StageState {
    /// A stage `stage` of a `p`-deep pipeline at the start of a
    /// mini-batch of `n_micro` micro-batches, holding at most `window`
    /// input stashes. Stage 0's inputs are all in hand from the start.
    /// `recompute` is false for disciplines that store activations
    /// instead of rematerializing them (PipeDream).
    pub fn new(stage: usize, p: usize, n_micro: usize, window: usize, recompute: bool) -> Self {
        StageState {
            stage,
            p,
            n_micro,
            window,
            recompute,
            forwards_done: 0,
            acts_arrived: if stage == 0 { n_micro } else { 0 },
            backwards_done: 0,
            stash_len: 0,
            peak_stash: 0,
            live_acts: None,
            pending_recompute: None,
            flags: vec![false; 3 * n_micro],
        }
    }

    /// What a policy sees: the legality of every op right now.
    #[inline]
    pub fn view(&self) -> StageView<'_> {
        let n = self.n_micro;
        StageView {
            stage: self.stage,
            p: self.p,
            last_stage: self.stage + 1 == self.p,
            n_micro: n,
            forwards_done: self.forwards_done,
            next_forward_ready: self.forwards_done < self.acts_arrived
                && self.stash_len < self.window,
            grads_ready: &self.flags[..n],
            recomputes_done: &self.flags[n..2 * n],
            backwards_done: &self.flags[2 * n..],
            live_acts: self.live_acts,
            pending_recompute: self.pending_recompute,
            stash_len: self.stash_len,
            stash_window: self.window,
            recompute_enabled: self.recompute,
        }
    }

    /// The next forward's input arrived from the previous stage (inputs
    /// arrive in micro-batch order).
    #[inline]
    pub fn act_arrived(&mut self) {
        self.acts_arrived += 1;
    }

    /// Micro-batch `mb`'s gradient arrived from the next stage.
    #[inline]
    pub fn grad_arrived(&mut self, mb: usize) {
        self.flags[mb] = true;
    }

    /// Starts `op`. Starting any op but the backward that consumes them
    /// invalidates live activations; returns the micro-batch whose
    /// activations were dropped, if any.
    #[inline]
    pub fn start(&mut self, op: Op) -> Option<usize> {
        if op.kind == OpKind::Backward && self.live_acts == Some(op.micro) {
            return None;
        }
        self.live_acts.take()
    }

    /// Completes `op`. A forward stashes its input and leaves its
    /// activations live (on the last stage its loss gradient is then in
    /// hand); a recompute commits the stage to its backward; a backward
    /// frees the stash slot and the commitment.
    #[inline]
    pub fn complete(&mut self, op: Op) {
        let (n, mb) = (self.n_micro, op.micro);
        match op.kind {
            OpKind::Forward => {
                self.forwards_done += 1;
                self.stash_len += 1;
                self.peak_stash = self.peak_stash.max(self.stash_len);
                self.live_acts = Some(mb);
                if self.stage + 1 == self.p {
                    self.flags[mb] = true;
                }
            }
            OpKind::Recompute => {
                self.flags[n + mb] = true;
                self.pending_recompute = Some(mb);
                self.live_acts = Some(mb);
            }
            OpKind::Backward => {
                self.flags[mb] = false;
                self.flags[2 * n + mb] = true;
                self.backwards_done += 1;
                self.stash_len -= 1;
                if self.pending_recompute == Some(mb) {
                    self.pending_recompute = None;
                }
                self.live_acts = None;
            }
        }
    }

    /// Backwards completed.
    #[inline]
    pub fn backwards_done(&self) -> usize {
        self.backwards_done
    }

    /// Whether every micro-batch's backward has completed.
    #[inline]
    pub fn is_done(&self) -> bool {
        self.backwards_done == self.n_micro
    }

    /// The most input stashes held at once so far.
    pub fn peak_stash(&self) -> usize {
        self.peak_stash
    }
}
