//! The schedule policy interface and the greedy reference policy.
//!
//! A policy decides, whenever a stage's GPU goes idle, which legal
//! operation to run next. The engine computes legality; the policy picks
//! the discipline. GPipe (here, beside the greedy reference policy),
//! 1F1B and PipeDream (in `varuna-baselines`) and
//! Varuna's static+opportunistic schedule ([`crate::schedule`]) all
//! implement this trait, so they are compared on identical substrates.

use crate::op::{Op, OpKind};

/// What a stage can see when choosing its next operation.
///
/// All per-micro-batch slices are indexed by micro-batch id `0..n_micro`.
#[derive(Debug)]
pub struct StageView<'a> {
    /// This stage's index.
    pub stage: usize,
    /// Pipeline depth `P`.
    pub p: usize,
    /// Whether this is the last pipeline stage (computes the loss; its
    /// "gradient arrival" is its own forward completion).
    pub last_stage: bool,
    /// Micro-batches per mini-batch.
    pub n_micro: usize,
    /// Count of forwards completed (forwards always run in order).
    pub forwards_done: usize,
    /// Whether the input for the next forward has arrived and the stash
    /// has room.
    pub next_forward_ready: bool,
    /// Per-micro-batch: gradient available and backward not yet run.
    pub grads_ready: &'a [bool],
    /// Per-micro-batch: recompute completed.
    pub recomputes_done: &'a [bool],
    /// Per-micro-batch: backward completed.
    pub backwards_done: &'a [bool],
    /// Micro-batch whose forward/recompute activations are still live on
    /// the GPU (no other op has run since).
    pub live_acts: Option<usize>,
    /// Micro-batch that has been recomputed and is now unconditionally
    /// waiting for its backward (paper schedule constraint 2).
    pub pending_recompute: Option<usize>,
    /// Input stashes currently held.
    pub stash_len: usize,
    /// Maximum stashes memory allows.
    pub stash_window: usize,
    /// Whether this run rematerializes activations (false for PipeDream,
    /// which stores them instead).
    pub recompute_enabled: bool,
}

impl StageView<'_> {
    /// Whether a backward for `mb` may run now.
    #[inline]
    pub fn backward_ready(&self, mb: usize) -> bool {
        if mb >= self.n_micro || !self.grads_ready[mb] || self.backwards_done[mb] {
            return false;
        }
        if let Some(p) = self.pending_recompute {
            if p != mb {
                return false;
            }
        }
        if !self.recompute_enabled {
            return true;
        }
        self.recomputes_done[mb] || self.live_acts == Some(mb)
    }

    /// Whether a recompute for `mb` may run now.
    #[inline]
    pub fn recompute_ready(&self, mb: usize) -> bool {
        self.recompute_enabled
            && self.pending_recompute.is_none()
            && mb < self.forwards_done
            && !self.recomputes_done[mb]
            && !self.backwards_done[mb]
            && self.live_acts != Some(mb)
    }

    /// Whether the next forward may run now.
    #[inline]
    pub fn forward_ready(&self) -> bool {
        self.pending_recompute.is_none()
            && self.forwards_done < self.n_micro
            && self.next_forward_ready
    }

    /// Whether `op` is legal in this view (the engine asserts this on
    /// every pick).
    #[inline]
    pub fn is_legal(&self, op: Op) -> bool {
        match op.kind {
            OpKind::Forward => self.forward_ready() && op.micro == self.forwards_done,
            OpKind::Recompute => self.recompute_ready(op.micro),
            OpKind::Backward => self.backward_ready(op.micro),
        }
    }

    /// The smallest forwarded micro-batch whose backward has not run —
    /// the next backward under FIFO (in-order) backward disciplines.
    pub fn next_fifo_backward(&self) -> Option<usize> {
        (0..self.forwards_done).find(|&mb| !self.backwards_done[mb])
    }
}

/// A per-(stage, replica) schedule discipline.
pub trait SchedulePolicy: Send {
    /// Picks the next operation to run, or `None` to idle until the next
    /// event. Every returned op must satisfy [`StageView::is_legal`].
    fn pick(&mut self, view: &StageView<'_>) -> Option<Op>;
}

/// Builds a policy instance for each (stage, replica) of a job.
pub type PolicyFactory<'a> = dyn Fn(usize, usize) -> Box<dyn SchedulePolicy> + 'a;

/// Work-conserving greedy discipline: backward first (FIFO), then the
/// recompute for the next FIFO backward, then forward.
///
/// This is the engine's reference policy — close to Varuna's opportunistic
/// behavior but without the offline schedule's recompute lead-time
/// planning.
#[derive(Debug, Default, Clone)]
pub struct GreedyPolicy;

impl SchedulePolicy for GreedyPolicy {
    fn pick(&mut self, view: &StageView<'_>) -> Option<Op> {
        // Finish an unconditionally-pending recompute first (constraint 2).
        if let Some(mb) = view.pending_recompute {
            return view
                .backward_ready(mb)
                .then_some(Op::new(OpKind::Backward, mb));
        }
        // Prefer the oldest ready backward (constraint 3).
        if let Some(mb) = (0..view.n_micro).find(|&mb| view.backward_ready(mb)) {
            return Some(Op::new(OpKind::Backward, mb));
        }
        // Recompute for the next FIFO backward, but only once its gradient
        // has arrived — recomputing earlier would trip schedule
        // constraint 2 (the stage must then idle until that backward),
        // stalling the pipe. Varuna's offline schedule times recompute
        // more aggressively because it knows when gradients will land.
        if let Some(mb) = view.next_fifo_backward() {
            if view.recompute_ready(mb) && view.grads_ready[mb] {
                return Some(Op::new(OpKind::Recompute, mb));
            }
        }
        // Otherwise keep the pipe filled.
        if view.forward_ready() {
            return Some(Op::new(OpKind::Forward, view.forwards_done));
        }
        None
    }
}

/// GPipe's strict two-phase schedule (Huang et al., NeurIPS'19).
///
/// Phase 1: forward every micro-batch in order. Phase 2: walk the
/// forwarded micro-batches in *reverse* order, recomputing then
/// backpropagating each. The schedule is strict — when the designated
/// next op is not ready the stage idles — which is exactly why GPipe's
/// bubble is concentrated mid-schedule and why it degrades under jitter
/// (paper Figure 4 discussion and Table 5).
///
/// Only the last micro-batch at the last stage escapes recompute, because
/// its forward activations are still live ("S4 in Gpipe ... only avoids
/// recompute for the fifth micro-batch").
#[derive(Debug, Default, Clone)]
pub struct GPipePolicy;

impl SchedulePolicy for GPipePolicy {
    fn pick(&mut self, view: &StageView<'_>) -> Option<Op> {
        // A completed recompute commits us to its backward.
        if let Some(mb) = view.pending_recompute {
            return view
                .backward_ready(mb)
                .then_some(Op::new(OpKind::Backward, mb));
        }
        // Phase 1: all forwards first. GPipe's memory discipline stashes
        // every micro-batch's input; when the stash window is tighter than
        // N_m (GPipe would OOM on real hardware), fall through and drain
        // backwards to free stash space.
        if view.forwards_done < view.n_micro && view.stash_len < view.stash_window {
            return view
                .forward_ready()
                .then_some(Op::new(OpKind::Forward, view.forwards_done));
        }
        // Phase 2: strictly reverse order over the forwarded micro-batches.
        let mb = (0..view.forwards_done)
            .rev()
            .find(|&mb| !view.backwards_done[mb])?;
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

    struct ViewState {
        grads: Vec<bool>,
        recs: Vec<bool>,
        bwds: Vec<bool>,
    }

    impl ViewState {
        fn new(n: usize) -> Self {
            ViewState {
                grads: vec![false; n],
                recs: vec![false; n],
                bwds: vec![false; n],
            }
        }

        fn view(&self, forwards_done: usize, next_fwd_ready: bool) -> StageView<'_> {
            StageView {
                stage: 1,
                p: 4,
                last_stage: false,
                n_micro: self.grads.len(),
                forwards_done,
                next_forward_ready: next_fwd_ready,
                grads_ready: &self.grads,
                recomputes_done: &self.recs,
                backwards_done: &self.bwds,
                live_acts: None,
                pending_recompute: None,
                stash_len: 0,
                stash_window: usize::MAX,
                recompute_enabled: true,
            }
        }
    }

    #[test]
    fn greedy_prefers_backward_over_forward() {
        let mut st = ViewState::new(4);
        st.grads[0] = true;
        st.recs[0] = true;
        let v = st.view(2, true);
        assert_eq!(GreedyPolicy.pick(&v), Some(Op::new(OpKind::Backward, 0)));
    }

    #[test]
    fn greedy_recomputes_only_after_gradient_arrival() {
        let mut st = ViewState::new(4);
        let v = st.view(2, true);
        // No gradients yet: keep the pipe filled with forwards rather than
        // recompute speculatively (which would trip constraint 2).
        assert_eq!(GreedyPolicy.pick(&v), Some(Op::new(OpKind::Forward, 2)));
        st.grads[0] = true;
        let v = st.view(2, true);
        // Gradient 0 arrived: rematerialize its activations.
        assert_eq!(GreedyPolicy.pick(&v), Some(Op::new(OpKind::Recompute, 0)));
    }

    #[test]
    fn pending_recompute_blocks_everything_but_its_backward() {
        let mut st = ViewState::new(4);
        st.recs[0] = true;
        let mut v = st.view(2, true);
        v.pending_recompute = Some(0);
        assert_eq!(GreedyPolicy.pick(&v), None, "must wait for backward 0");
        st.grads[0] = true;
        let mut v = st.view(2, true);
        v.pending_recompute = Some(0);
        assert_eq!(GreedyPolicy.pick(&v), Some(Op::new(OpKind::Backward, 0)));
    }

    #[test]
    fn live_activations_let_backward_skip_recompute() {
        let mut st = ViewState::new(3);
        st.grads[1] = true;
        let mut v = st.view(2, false);
        v.live_acts = Some(1);
        assert!(v.backward_ready(1));
        assert!(!v.recompute_ready(1), "live activations need no recompute");
    }

    #[test]
    fn legality_checks_forward_index() {
        let st = ViewState::new(4);
        let v = st.view(1, true);
        assert!(v.is_legal(Op::new(OpKind::Forward, 1)));
        assert!(
            !v.is_legal(Op::new(OpKind::Forward, 2)),
            "forwards run in order"
        );
    }

    #[test]
    fn disabled_recompute_makes_backward_depend_only_on_grads() {
        let mut st = ViewState::new(2);
        st.grads[0] = true;
        let mut v = st.view(1, false);
        v.recompute_enabled = false;
        assert!(v.backward_ready(0));
        assert!(!v.recompute_ready(0));
    }
}
