//! Multi-threaded pipeline + data-parallel training.
//!
//! The model splits at cut-points (block boundaries) into `P` stage
//! partitions, each replicated `D` ways. Every (stage, replica) runs on its
//! own OS thread; activations and gradients flow through channels; stages
//! stash only their *input* activations and recompute the rest before
//! backward (paper Section 3.1); data-parallel gradients average through a
//! real ring allreduce; and the tied embedding gradient is summed between
//! the first and last stages every mini-batch (Section 5.2).
//!
//! Each stage thread is driven by a [`SchedulePolicy`] from `varuna-sched`
//! — the same trait the discrete-event emulator executes — with the same
//! split of responsibility: the thread feeds a [`StageState`] (the stage
//! state machine the emulator and the schedule kernel share) the messages
//! that arrive and the ops it runs, the state answers *legality* (which
//! inputs have arrived, stash-window headroom, which gradients are in
//! hand, pending-recompute commitment) as a [`varuna_sched::StageView`],
//! and the policy picks the *discipline*. Varuna, GPipe, 1F1B, PipeDream,
//! and the greedy reference policy therefore all run on real numerics.
//!
//! Per-micro-batch gradient contributions are reduced canonically (summed
//! in micro-batch-index order, whatever order the backwards actually ran
//! in), so the final weights are bit-identical across schedule disciplines
//! — the schedule-invariance the paper's correctness-preserving morphing
//! depends on — verified by the equivalence tests below.

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

use varuna_obs::{Event, EventBus, EventKind};
use varuna_sched::{GreedyPolicy, Op, OpKind, PolicyFactory, SchedulePolicy, StageState};

use crate::data::Corpus;
use crate::layers::{Block, LayerNorm, Param};
use crate::model::{MiniGpt, ModelConfig};
use crate::ops::{cross_entropy, matmul, matmul_nt, matmul_tn};
use crate::optim::{Optimizer, Sgd};
use crate::tensor::Tensor;
use varuna_net::ring::ring_allreduce_mean;

/// A contiguous slice of the model owned by one pipeline stage.
#[derive(Debug, Clone, PartialEq)]
pub struct StagePart {
    /// Stage index.
    pub stage: usize,
    /// Pipeline depth.
    pub p: usize,
    /// Model config.
    pub cfg: ModelConfig,
    /// Embedding tables (stage 0 only): `(wte, wpe)`.
    pub embed: Option<(Param, Param)>,
    /// The stage's transformer blocks.
    pub blocks: Vec<Block>,
    /// Global block index range `[lo, hi)` covered by this stage.
    pub block_range: (usize, usize),
    /// Final layer norm and LM head (last stage only). With tied
    /// embeddings the head is a *copy* of `wte` kept in sync by the
    /// shared-parameter allreduce.
    pub final_part: Option<(LayerNorm, Param)>,
}

/// Input to a stage's forward pass.
#[derive(Debug, Clone)]
pub enum StageInput {
    /// Token ids (stage 0).
    Tokens(Vec<usize>),
    /// Boundary activations from the previous stage.
    Act(Tensor),
}

/// Activation caches of one stage forward (dropped after the pipeline
/// forward; rebuilt by recompute before backward).
pub struct StageCache {
    block_caches: Vec<crate::layers::BlockCache>,
    lnf: Option<(crate::layers::LayerNormCache, Tensor)>,
    tokens: Option<Vec<usize>>,
}

impl StagePart {
    /// Splits a full model into `p` stage partitions with (nearly) equal
    /// block counts. With tied embeddings the last stage receives a copy
    /// of `wte` as its head.
    pub fn split(model: &MiniGpt, p: usize) -> Vec<StagePart> {
        let l = model.blocks.len();
        assert!(p >= 1 && p <= l, "pipeline depth must be in 1..=layers");
        (0..p)
            .map(|s| {
                let lo = s * l / p;
                let hi = (s + 1) * l / p;
                let head = if model.cfg.tied {
                    let mut h = model.wte.clone();
                    h.name = "head(tied-wte)".to_string();
                    h
                } else {
                    model.head.clone().expect("untied model has a head")
                };
                StagePart {
                    stage: s,
                    p,
                    cfg: model.cfg,
                    embed: (s == 0).then(|| (model.wte.clone(), model.wpe.clone())),
                    blocks: model.blocks[lo..hi].to_vec(),
                    block_range: (lo, hi),
                    final_part: (s == p - 1).then(|| (model.ln_f.clone(), head)),
                }
            })
            .collect()
    }

    /// Reassembles a full model from one replica's stage parts.
    ///
    /// # Panics
    ///
    /// Panics if the parts do not form a complete pipeline.
    pub fn reassemble(parts: &[StagePart]) -> MiniGpt {
        assert!(!parts.is_empty());
        let cfg = parts[0].cfg;
        let (wte, wpe) = parts[0].embed.clone().expect("stage 0 holds the embedding");
        let mut blocks = Vec::with_capacity(cfg.layers);
        for part in parts {
            blocks.extend(part.blocks.iter().cloned());
        }
        assert_eq!(blocks.len(), cfg.layers, "parts do not cover the model");
        let (ln_f, head) = parts
            .last()
            .unwrap()
            .final_part
            .clone()
            .expect("last stage holds the head");
        MiniGpt {
            cfg,
            wte,
            wpe,
            blocks,
            ln_f,
            head: (!cfg.tied).then_some(head),
        }
    }

    /// Forward pass over one micro-batch. Returns boundary activations
    /// (interior stages) or logits (last stage), plus the cache.
    pub fn forward(&self, input: &StageInput, batch: usize) -> (Tensor, StageCache) {
        let seq = self.cfg.seq;
        let (mut x, tokens) = match input {
            StageInput::Tokens(toks) => {
                let (wte, wpe) = self.embed.as_ref().expect("tokens only enter stage 0");
                let mut x = Tensor::zeros(batch * seq, self.cfg.dim);
                for (i, &t) in toks.iter().enumerate() {
                    let pos = i % seq;
                    for (v, (&e, &p)) in x
                        .row_mut(i)
                        .iter_mut()
                        .zip(wte.w.row(t).iter().zip(wpe.w.row(pos)))
                    {
                        *v = e + p;
                    }
                }
                (x, Some(toks.clone()))
            }
            StageInput::Act(a) => (a.clone(), None),
        };
        let mut block_caches = Vec::with_capacity(self.blocks.len());
        for b in &self.blocks {
            let (y, c) = b.forward(&x, batch, seq);
            block_caches.push(c);
            x = y;
        }
        let mut lnf = None;
        if let Some((ln_f, head)) = &self.final_part {
            let (out, c) = ln_f.forward(&x);
            x = matmul_nt(&out, &head.w);
            lnf = Some((c, out));
        }
        (
            x,
            StageCache {
                block_caches,
                lnf,
                tokens,
            },
        )
    }

    /// Backward pass. `dout` is `dlogits` for the last stage, otherwise
    /// the gradient of the boundary activations. Returns the gradient to
    /// send upstream (`None` from stage 0).
    pub fn backward(&mut self, cache: &StageCache, dout: &Tensor) -> Option<Tensor> {
        let mut dx = if let Some((ln_f, head)) = &mut self.final_part {
            let (lnf_cache, lnf_out) = cache.lnf.as_ref().expect("last stage cache carries ln_f");
            head.g.add_assign(&matmul_tn(dout, lnf_out));
            let d_lnf_out = matmul(dout, &head.w);
            ln_f.backward(lnf_cache, &d_lnf_out)
        } else {
            dout.clone()
        };
        for (b, c) in self.blocks.iter_mut().zip(&cache.block_caches).rev() {
            dx = b.backward(c, &dx);
        }
        if let Some((wte, wpe)) = &mut self.embed {
            let toks = cache.tokens.as_ref().expect("stage 0 cache carries tokens");
            let seq = self.cfg.seq;
            for (i, &t) in toks.iter().enumerate() {
                let pos = i % seq;
                let drow = dx.row(i).to_vec();
                for (g, v) in wte.g.row_mut(t).iter_mut().zip(&drow) {
                    *g += v;
                }
                for (g, v) in wpe.g.row_mut(pos).iter_mut().zip(&drow) {
                    *g += v;
                }
            }
            None
        } else {
            Some(dx)
        }
    }

    /// The stage's parameters (stable order).
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        let mut p = Vec::new();
        if let Some((wte, wpe)) = &mut self.embed {
            p.push(wte);
            p.push(wpe);
        }
        for b in &mut self.blocks {
            p.extend(b.params_mut());
        }
        if let Some((ln_f, head)) = &mut self.final_part {
            p.extend(ln_f.params_mut());
            p.push(head);
        }
        p
    }

    /// Zeroes all gradient accumulators.
    pub fn zero_grads(&mut self) {
        for p in self.params_mut() {
            p.zero_grad();
        }
    }
}

/// The pipeline + data-parallel trainer.
pub struct PipelineTrainer {
    /// `parts[replica][stage]`.
    pub parts: Vec<Vec<StagePart>>,
    opts: Vec<Vec<Optimizer>>,
    /// Model config.
    pub cfg: ModelConfig,
    /// Fixed mini-batch size in sequences (`M_total`).
    pub m_total: usize,
    /// Micro-batch size in sequences.
    pub micro: usize,
    /// Training data.
    pub corpus: Corpus,
    /// Mini-batches completed.
    pub step: u64,
    /// Maximum stashed micro-batch inputs per stage (memory backpressure);
    /// `usize::MAX` disables the bound.
    pub window: usize,
    /// Peak stash observed per stage (max over replicas) in the last
    /// mini-batch.
    pub peak_stash: Vec<usize>,
    /// Per-stage op sequence executed by replica 0 in the last mini-batch
    /// (the trainer-side record for emulator-vs-trainer cross-validation).
    pub last_op_order: Vec<Vec<Op>>,
    /// Whether stages rematerialize activations from stashed inputs before
    /// backward (`true`, Varuna/GPipe/1F1B) or store every forward's
    /// caches instead (`false`, PipeDream).
    pub recompute: bool,
    lr: f32,
    /// Wall-clock seconds spent inside `train_minibatch_observed`, used as
    /// the `t_sim` axis of emitted training events.
    elapsed_train_seconds: f64,
}

impl PipelineTrainer {
    /// Builds a `p × d` pipeline trainer from a fresh model.
    pub fn new(
        cfg: ModelConfig,
        corpus: Corpus,
        lr: f32,
        m_total: usize,
        p: usize,
        d: usize,
        micro: usize,
    ) -> Self {
        let model = MiniGpt::new(cfg);
        Self::from_model(model, corpus, lr, m_total, p, d, micro)
    }

    /// Builds a trainer around an existing model (used for morphing and
    /// checkpoint resume).
    pub fn from_model(
        model: MiniGpt,
        corpus: Corpus,
        lr: f32,
        m_total: usize,
        p: usize,
        d: usize,
        micro: usize,
    ) -> Self {
        assert!(d > 0 && micro > 0);
        assert!(
            m_total.is_multiple_of(d * micro),
            "m_total must split evenly into d * micro chunks"
        );
        let parts: Vec<Vec<StagePart>> = (0..d).map(|_| StagePart::split(&model, p)).collect();
        let opts = (0..d)
            .map(|_| (0..p).map(|_| Optimizer::Sgd(Sgd::new(lr, 0.0))).collect())
            .collect();
        PipelineTrainer {
            parts,
            opts,
            cfg: model.cfg,
            m_total,
            micro,
            corpus,
            step: 0,
            window: usize::MAX,
            peak_stash: vec![0; p],
            last_op_order: vec![Vec::new(); p],
            recompute: true,
            lr,
            elapsed_train_seconds: 0.0,
        }
    }

    /// Bounds the per-stage input-activation stash (GPU-memory
    /// backpressure). Semantics are unchanged; only scheduling is.
    pub fn with_window(mut self, window: usize) -> Self {
        assert!(window >= 1, "a stage must stash at least one input");
        self.window = window;
        self
    }

    /// Selects whether stages rematerialize activations before backward
    /// (the default) or store every forward's caches instead — the memory
    /// model PipeDream-style disciplines assume.
    pub fn with_recompute(mut self, recompute: bool) -> Self {
        self.recompute = recompute;
        self
    }

    /// Switches every stage's optimizer to Adam with learning rate `lr`
    /// (fresh state; call before training).
    pub fn with_adam(mut self, lr: f32) -> Self {
        for replica in &mut self.opts {
            for opt in replica.iter_mut() {
                *opt = Optimizer::adam(lr);
            }
        }
        self
    }

    /// Pipeline depth.
    pub fn p(&self) -> usize {
        self.parts[0].len()
    }

    /// Data-parallel width.
    pub fn d(&self) -> usize {
        self.parts.len()
    }

    /// Micro-batches per replica per mini-batch.
    pub fn n_micro(&self) -> usize {
        self.m_total / (self.d() * self.micro)
    }

    /// Reassembles the full model from replica 0 (all replicas are kept
    /// identical by construction).
    pub fn reassemble(&self) -> MiniGpt {
        StagePart::reassemble(&self.parts[0])
    }

    /// Morphs to a new `(p, d, micro)` configuration, preserving weights
    /// and `M_total` — the paper's job morphing (Section 4.2).
    pub fn morph(&mut self, p: usize, d: usize, micro: usize) {
        let model = self.reassemble();
        let step = self.step;
        let window = self.window;
        let recompute = self.recompute;
        let elapsed = self.elapsed_train_seconds;
        *self = PipelineTrainer::from_model(
            model,
            self.corpus.clone(),
            self.lr,
            self.m_total,
            p,
            d,
            micro,
        );
        self.window = window;
        self.recompute = recompute;
        self.step = step;
        self.elapsed_train_seconds = elapsed;
    }

    /// Runs one mini-batch across all stages and replicas under the greedy
    /// reference discipline; returns the mean loss.
    pub fn train_minibatch(&mut self) -> f32 {
        self.train_minibatch_with(&|_, _| Box::new(GreedyPolicy))
    }

    /// Runs one mini-batch with each (stage, replica) thread driven by a
    /// policy from `factory(stage, replica)`; returns the mean loss.
    ///
    /// The thread feeds a [`StageState`], which computes legality — input
    /// arrival, stash-window headroom, gradient availability,
    /// pending-recompute commitment — and the policy chooses among the
    /// legal ops, exactly as in the discrete-event emulator. Because
    /// per-micro-batch gradient deltas are reduced in canonical
    /// (micro-batch-index) order, the resulting weights are bit-identical
    /// for every discipline.
    ///
    /// # Panics
    ///
    /// Panics if a policy picks an illegal op, or wedges a replica (every
    /// unfinished stage idles waiting for a delivery, where the emulator
    /// returns a deadlock); the message names the stage and replica.
    pub fn train_minibatch_with(&mut self, factory: &PolicyFactory<'_>) -> f32 {
        let seq = self.cfg.seq;
        let p = self.p();
        let d = self.d();
        let micro = self.micro;
        let n_micro = self.n_micro();
        let recompute = self.recompute;
        let (tokens, targets) = self.corpus.batch(self.m_total, seq, self.step);

        for replica in &mut self.parts {
            for part in replica {
                part.zero_grads();
            }
        }

        let mut total_loss = 0.0f32;
        let mut peaks = vec![0usize; p];
        let mut op_order = vec![Vec::new(); p];
        let replicas: Vec<Replica> = (0..d)
            .map(|_| Replica::new(p, n_micro, self.window, recompute))
            .collect();
        let batch = Batch {
            tokens: &tokens,
            targets: &targets,
            n_micro,
            micro,
            seq,
            recompute,
        };
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for (r, (parts, replica)) in self.parts.iter_mut().zip(&replicas).enumerate() {
                for (s, part) in parts.iter_mut().enumerate() {
                    // Built on this thread: the factory need not be `Sync`,
                    // but the boxed policies are `Send`.
                    let policy = factory(s, r);
                    let run = move || run_stage(part, policy, replica, r, batch);
                    handles.push((r, s, scope.spawn(run)));
                }
            }
            for (r, stage, h) in handles {
                // A stage's own panic message, not a generic one.
                let (loss, peak, ops) = h
                    .join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
                total_loss += loss;
                peaks[stage] = peaks[stage].max(peak);
                if r == 0 {
                    op_order[stage] = ops;
                }
            }
        });

        self.peak_stash = peaks;
        self.last_op_order = op_order;

        // Average gradients: micro-batches within a replica were summed,
        // and replicas must average — overall each parameter's gradient
        // becomes the full mini-batch mean.
        let inv = 1.0 / n_micro as f32;
        for replica in &mut self.parts {
            for part in replica.iter_mut() {
                for prm in part.params_mut() {
                    prm.g.scale(inv);
                }
            }
        }
        self.allreduce_grads();
        self.sync_tied_embedding();

        for (replica, opts) in self.parts.iter_mut().zip(&mut self.opts) {
            for (part, opt) in replica.iter_mut().zip(opts.iter_mut()) {
                opt.step(&mut part.params_mut());
            }
        }
        self.step += 1;
        total_loss / (n_micro * d) as f32
    }

    /// Runs one mini-batch like [`PipelineTrainer::train_minibatch`] and
    /// reports it as an [`EventKind::EpochLoss`] on `bus` (source `Train`,
    /// `t_sim` = cumulative wall-clock seconds spent training through this
    /// method).
    pub fn train_minibatch_observed(&mut self, bus: &mut EventBus) -> f32 {
        let started = std::time::Instant::now();
        let loss = self.train_minibatch();
        let wall = started.elapsed().as_secs_f64();
        self.elapsed_train_seconds += wall;
        let examples_per_sec = self.m_total as f64 / wall.max(1e-12);
        bus.emit_with(|| {
            Event::train(
                self.elapsed_train_seconds,
                EventKind::EpochLoss {
                    step: self.step,
                    loss: loss as f64,
                    examples_per_sec,
                },
            )
        });
        loss
    }

    /// Ring-allreduce (mean) of every stage's gradients across replicas.
    fn allreduce_grads(&mut self) {
        let p = self.p();
        let d = self.d();
        if d == 1 {
            return;
        }
        for s in 0..p {
            let n_params = {
                let mut probe = std::mem::take(&mut self.parts[0][s]);
                let n = probe.params_mut().len();
                self.parts[0][s] = probe;
                n
            };
            for i in 0..n_params {
                let mut bufs: Vec<Vec<f32>> = (0..d)
                    .map(|r| {
                        let mut part = std::mem::take(&mut self.parts[r][s]);
                        let data = part.params_mut()[i].g.data.clone();
                        self.parts[r][s] = part;
                        data
                    })
                    .collect();
                ring_allreduce_mean(&mut bufs);
                for (r, buf) in bufs.into_iter().enumerate() {
                    let mut part = std::mem::take(&mut self.parts[r][s]);
                    part.params_mut()[i].g.data = buf;
                    self.parts[r][s] = part;
                }
            }
        }
    }

    /// Sums the tied-embedding gradient contributions from stage 0 (wte)
    /// and the last stage (head copy), writing the sum back to both — the
    /// shared-parameter allreduce of Section 5.2.
    fn sync_tied_embedding(&mut self) {
        if !self.cfg.tied {
            return;
        }
        let p = self.p();
        if p == 1 {
            // Single stage: wte and head are distinct Params here too.
            for replica in &mut self.parts {
                let part = &mut replica[0];
                let head_g = part.final_part.as_ref().unwrap().1.g.clone();
                let (wte, _) = part.embed.as_mut().unwrap();
                wte.g.add_assign(&head_g);
                let sum = wte.g.clone();
                part.final_part.as_mut().unwrap().1.g = sum;
            }
            return;
        }
        for replica in &mut self.parts {
            let head_g = replica[p - 1].final_part.as_ref().unwrap().1.g.clone();
            let (wte, _) = replica[0].embed.as_mut().unwrap();
            wte.g.add_assign(&head_g);
            let sum = wte.g.clone();
            replica[p - 1].final_part.as_mut().unwrap().1.g = sum;
        }
    }
}

/// One replica's pipeline, shared by its stage threads: every stage's
/// [`StageState`] and the boundary tensors delivered to it but not yet
/// consumed. A stage's output lands in its neighbour's state under the
/// same lock, so nothing is ever in flight: the replica has wedged
/// exactly when every unfinished stage sleeps waiting for a delivery.
struct Replica {
    post: Mutex<Post>,
    /// Signalled on every delivery and on abort.
    wake: Condvar,
}

struct Post {
    states: Vec<StageState>,
    /// Per stage, by micro-batch: the boundary tensor delivered and not
    /// yet consumed — the activation until the forward takes it, then the
    /// gradient (which cannot arrive before that forward has run).
    inbox: Vec<Vec<Option<Tensor>>>,
    /// Per stage: sleeping until its next delivery.
    asleep: Vec<bool>,
    /// A stage thread panicked: the others stop.
    aborted: bool,
}

impl Post {
    /// Panics, naming the first unfinished stage of replica `r`, if every
    /// unfinished stage sleeps: no delivery can ever wake them.
    fn check_wedge(&self, r: usize) {
        let mut unfinished = (0..self.states.len())
            .filter(|&s| !self.states[s].is_done())
            .peekable();
        if let Some(&s) = unfinished.peek() {
            assert!(
                !unfinished.all(|u| self.asleep[u]),
                "stage {s} replica {r}: the schedule policy wedged the pipeline \
                 (every unfinished stage idles waiting for a delivery)"
            );
        }
    }
}

impl Replica {
    fn new(p: usize, n_micro: usize, window: usize, recompute: bool) -> Self {
        Replica {
            post: Mutex::new(Post {
                states: (0..p)
                    .map(|s| StageState::new(s, p, n_micro, window, recompute))
                    .collect(),
                inbox: vec![vec![None; n_micro]; p],
                asleep: vec![false; p],
                aborted: false,
            }),
            wake: Condvar::new(),
        }
    }

    /// Locks the replica. A stage that panics under the lock (an illegal
    /// pick or a wedge) does so before any update, so a poisoned lock
    /// still guards valid data; it only means the replica is aborting.
    fn lock(&self) -> MutexGuard<'_, Post> {
        self.post.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Aborts the replica if its stage thread unwinds (on a wedge or an
/// illegal pick), so that no other stage sleeps forever.
struct AbortOnPanic<'a>(&'a Replica);

impl Drop for AbortOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.lock().aborted = true;
            self.0.wake.notify_all();
        }
    }
}

/// What every stage thread of a mini-batch reads.
#[derive(Clone, Copy)]
struct Batch<'a> {
    tokens: &'a [usize],
    targets: &'a [usize],
    n_micro: usize,
    /// Sequences per micro-batch.
    micro: usize,
    seq: usize,
    recompute: bool,
}

/// One stage thread's work for a mini-batch, driven by a
/// [`SchedulePolicy`]. The thread feeds its [`StageState`] the ops it
/// runs, and its neighbours feed it the tensors they deliver; the state
/// answers *legality* — input arrival, the stash window that gives
/// forwards backpressure exactly as on a memory-limited GPU, gradients in
/// hand, live activations and the pending-recompute commitment (paper
/// constraint 2) — and the policy owns the *discipline*, which legal op
/// runs next. Every pick is asserted legal against the
/// [`varuna_sched::StageView`].
///
/// Gradient contributions are kept as per-micro-batch deltas and reduced
/// in micro-batch-index order after the loop, so the accumulated gradient
/// (and therefore the weight update) is bit-identical regardless of the
/// order the policy ran the backwards in.
///
/// Returns `(summed loss, peak stash, executed op sequence)`, partial if
/// another stage of the replica panicked.
///
/// # Panics
///
/// Panics if the policy picks an illegal op, or if the stage idles or
/// finishes while every other unfinished stage of the replica sleeps
/// (the policies wedged the pipeline).
fn run_stage(
    part: &mut StagePart,
    mut policy: Box<dyn SchedulePolicy>,
    replica: &Replica,
    r: usize,
    batch: Batch<'_>,
) -> (f32, usize, Vec<Op>) {
    let _abort_on_panic = AbortOnPanic(replica);
    let s = part.stage;
    let first = s == 0;
    let last = part.final_part.is_some();

    // Inputs of forwarded-but-not-backwarded micro-batches.
    let mut inputs: Vec<Option<StageInput>> = (0..batch.n_micro).map(|_| None).collect();
    // Materialized caches (plus, on the last stage, the logits needed to
    // form the loss gradient). With recompute enabled at most one is held
    // — the live one; with it disabled every forward's cache is retained.
    let mut caches: Vec<Option<StageCache>> = (0..batch.n_micro).map(|_| None).collect();
    let mut outs: Vec<Option<Tensor>> = vec![None; batch.n_micro];
    // Per-micro-batch gradient deltas, reduced canonically after the loop.
    let mut deltas: Vec<Option<Vec<Tensor>>> = (0..batch.n_micro).map(|_| None).collect();
    let mut loss_sum = 0.0f32;
    let mut order: Vec<Op> = Vec::with_capacity(3 * batch.n_micro);

    // Replica r takes chunk r of the mini-batch, split into micro-batches:
    // the same examples the reference trainer sees.
    let span = batch.micro * batch.seq;
    let slice = |mb: usize| (r * batch.n_micro + mb) * span..(r * batch.n_micro + mb + 1) * span;

    let peak_stash = loop {
        let mut post = replica.lock();
        let op = loop {
            if post.aborted {
                break None;
            }
            if post.states[s].is_done() {
                // A finished stage delivers nothing more.
                post.check_wedge(r);
                break None;
            }
            let view = post.states[s].view();
            if let Some(op) = policy.pick(&view) {
                assert!(view.is_legal(op), "stage {s} picked illegal {op:?}");
                break Some(op);
            }
            // The policy idles: sleep until a neighbour delivers.
            post.asleep[s] = true;
            post.check_wedge(r);
            while post.asleep[s] && !post.aborted {
                post = replica
                    .wake
                    .wait(post)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        let Some(op) = op else {
            break post.states[s].peak_stash();
        };
        order.push(op);
        let mb = op.micro;
        // With recompute disabled every cache persists until its backward.
        if let Some(m) = post.states[s].start(op).filter(|_| batch.recompute) {
            caches[m] = None;
            outs[m] = None;
        }
        let arrived = match op.kind {
            OpKind::Recompute => None,
            _ => post.inbox[s][mb].take(),
        };
        drop(post);

        let delivery = match op.kind {
            OpKind::Forward => {
                let input = if first {
                    StageInput::Tokens(batch.tokens[slice(mb)].to_vec())
                } else {
                    StageInput::Act(arrived.expect("forward legality implies arrival"))
                };
                let (out, cache) = part.forward(&input, batch.micro);
                inputs[mb] = Some(input);
                caches[mb] = Some(cache);
                if last {
                    loss_sum += cross_entropy(&out, &batch.targets[slice(mb)]).0;
                    outs[mb] = Some(out);
                    None
                } else {
                    Some(out)
                }
            }
            OpKind::Recompute => {
                let input = inputs[mb].as_ref().expect("recompute reads the stash");
                let (out, cache) = part.forward(input, batch.micro);
                caches[mb] = Some(cache);
                if last {
                    outs[mb] = Some(out);
                }
                None
            }
            OpKind::Backward => {
                let cache = caches[mb].take().expect("backward needs a cache");
                let dout = if last {
                    let out = outs[mb].take().expect("last stage retains logits");
                    cross_entropy(&out, &batch.targets[slice(mb)]).1
                } else {
                    arrived.expect("backward legality implies grad")
                };
                let dinput = part.backward(&cache, &dout);
                // Extract this micro-batch's gradient delta and reset the
                // accumulators for the next backward.
                deltas[mb] = Some(
                    part.params_mut()
                        .iter_mut()
                        .map(|prm| {
                            let g = prm.g.clone();
                            prm.zero_grad();
                            g
                        })
                        .collect(),
                );
                inputs[mb] = None;
                dinput
            }
        };

        let mut post = replica.lock();
        post.states[s].complete(op);
        // Activations flow down, gradients up.
        let to = match (op.kind, delivery) {
            (OpKind::Forward, Some(out)) => {
                post.states[s + 1].act_arrived();
                post.inbox[s + 1][mb] = Some(out);
                s + 1
            }
            (OpKind::Backward, Some(dinput)) => {
                post.states[s - 1].grad_arrived(mb);
                post.inbox[s - 1][mb] = Some(dinput);
                s - 1
            }
            _ => continue,
        };
        post.asleep[to] = false;
        replica.wake.notify_all();
    };

    // Canonical reduction: sum the deltas in micro-batch-index order so
    // the accumulated gradient is independent of the execution order.
    for delta in deltas.into_iter().flatten() {
        for (prm, d) in part.params_mut().iter_mut().zip(&delta) {
            prm.g.add_assign(d);
        }
    }
    (loss_sum, peak_stash, order)
}

impl Default for StagePart {
    fn default() -> Self {
        StagePart {
            stage: 0,
            p: 1,
            cfg: ModelConfig::tiny(),
            embed: None,
            blocks: Vec::new(),
            block_range: (0, 0),
            final_part: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::VOCAB;
    use crate::single::Trainer;

    fn cfg() -> ModelConfig {
        ModelConfig {
            vocab: VOCAB,
            seq: 12,
            dim: 24,
            heads: 4,
            layers: 4,
            tied: true,
            seed: 3,
        }
    }

    fn max_weight_diff(a: &MiniGpt, b: &MiniGpt) -> f32 {
        let mut am = a.clone();
        let mut bm = b.clone();
        am.params_mut()
            .iter()
            .zip(bm.params_mut().iter())
            .map(|(x, y)| x.w.max_abs_diff(&y.w))
            .fold(0.0, f32::max)
    }

    #[test]
    fn split_reassemble_round_trip() {
        let m = MiniGpt::new(cfg());
        for p in [1, 2, 4] {
            let parts = StagePart::split(&m, p);
            assert_eq!(parts.len(), p);
            let back = StagePart::reassemble(&parts);
            assert_eq!(
                max_weight_diff(&m, &back),
                0.0,
                "p={p} round trip changed weights"
            );
        }
    }

    #[test]
    fn pipeline_forward_matches_single_process() {
        let m = MiniGpt::new(cfg());
        let corpus = Corpus::synthetic(3000, 5);
        let (tokens, _) = corpus.batch(2, 12, 0);
        let (want, _) = m.forward(&tokens, 2);
        // Chain the stage parts by hand.
        let mut parts = StagePart::split(&m, 4);
        let mut x = StageInput::Tokens(tokens);
        let mut out = None;
        for part in &mut parts {
            let (y, _) = part.forward(&x, 2);
            out = Some(y.clone());
            x = StageInput::Act(y);
        }
        assert_eq!(want, out.unwrap(), "stage chaining must be exact");
    }

    #[test]
    fn pipelined_training_matches_reference_trainer() {
        // The core sync-SGD-preservation claim: P=4, D=1 pipelined
        // training with recompute produces the same weights as the
        // single-process trainer.
        let corpus = Corpus::synthetic(4000, 6);
        let mut reference = Trainer::new(cfg(), corpus.clone(), 0.1, 8);
        let mut pipe = PipelineTrainer::new(cfg(), corpus, 0.1, 8, 4, 1, 2);
        for _ in 0..3 {
            let l_ref = reference.train_minibatch(2);
            let l_pipe = pipe.train_minibatch();
            assert!(
                (l_ref - l_pipe).abs() < 1e-4,
                "losses diverged: {l_ref} vs {l_pipe}"
            );
        }
        let diff = max_weight_diff(&reference.model, &pipe.reassemble());
        assert!(diff < 5e-5, "weights diverged by {diff}");
    }

    #[test]
    fn data_parallel_training_matches_reference_trainer() {
        // P=2, D=2 with ring allreduce equals the single-process result.
        let corpus = Corpus::synthetic(4000, 7);
        let mut reference = Trainer::new(cfg(), corpus.clone(), 0.1, 8);
        let mut pipe = PipelineTrainer::new(cfg(), corpus, 0.1, 8, 2, 2, 2);
        for _ in 0..3 {
            reference.train_minibatch(2);
            pipe.train_minibatch();
        }
        let diff = max_weight_diff(&reference.model, &pipe.reassemble());
        assert!(diff < 5e-4, "weights diverged by {diff}");
    }

    #[test]
    fn replicas_stay_in_lockstep() {
        let corpus = Corpus::synthetic(4000, 8);
        let mut pipe = PipelineTrainer::new(cfg(), corpus, 0.1, 8, 2, 2, 2);
        for _ in 0..2 {
            pipe.train_minibatch();
        }
        let a = StagePart::reassemble(&pipe.parts[0]);
        let b = StagePart::reassemble(&pipe.parts[1]);
        assert_eq!(max_weight_diff(&a, &b), 0.0, "replicas must be identical");
    }

    #[test]
    fn tied_embeddings_stay_tied_across_stages() {
        let corpus = Corpus::synthetic(4000, 9);
        let mut pipe = PipelineTrainer::new(cfg(), corpus, 0.1, 8, 4, 1, 2);
        for _ in 0..3 {
            pipe.train_minibatch();
        }
        let wte = &pipe.parts[0][0].embed.as_ref().unwrap().0.w;
        let head = &pipe.parts[0][3].final_part.as_ref().unwrap().1.w;
        assert_eq!(wte.max_abs_diff(head), 0.0, "tied weights drifted apart");
    }

    #[test]
    fn skipping_tied_sync_breaks_the_tie() {
        // Negative control for the tracer story: without the shared-param
        // allreduce the two copies drift — the silent-accuracy-bug the
        // paper's tracer exists to prevent.
        let corpus = Corpus::synthetic(4000, 10);
        let mut pipe = PipelineTrainer::new(cfg(), corpus, 0.1, 8, 4, 1, 2);
        // Train one normal step then one with sync suppressed by zeroing
        // the head's gradient path: emulate by manual steps.
        pipe.train_minibatch();
        let model = pipe.reassemble();
        let mut parts = StagePart::split(&model, 4);
        // One forward/backward without sync_tied_embedding.
        let corpus2 = Corpus::synthetic(4000, 10);
        let (tokens, targets) = corpus2.batch(8, 12, 1);
        let mut x = StageInput::Tokens(tokens[0..2 * 12].to_vec());
        let mut caches = Vec::new();
        for part in &mut parts {
            let (y, c) = part.forward(&x, 2);
            caches.push((c, y.clone()));
            x = StageInput::Act(y);
        }
        let (_, dlogits) = cross_entropy(&caches[3].1, &targets[0..24]);
        let mut dout = dlogits;
        for (part, (c, _)) in parts.iter_mut().zip(caches.iter()).rev() {
            match part.backward(c, &dout) {
                Some(d) => dout = d,
                None => break,
            }
        }
        let mut opt = Sgd::new(0.1, 0.0);
        for part in &mut parts {
            opt.step(&mut part.params_mut());
        }
        let wte = &parts[0].embed.as_ref().unwrap().0.w;
        let head = &parts[3].final_part.as_ref().unwrap().1.w;
        assert!(
            wte.max_abs_diff(head) > 0.0,
            "without sync the tied copies must drift"
        );
    }

    #[test]
    fn adam_pipeline_matches_single_process_adam() {
        // Optimizer-state equivalence: Adam's per-parameter moments evolve
        // identically when the model is pipelined, because gradients are
        // identical and every replica applies the same update.
        use crate::optim::Adam;
        let corpus = Corpus::synthetic(4000, 14);
        let mut reference = MiniGpt::new(cfg());
        let mut ref_opt = Adam::new(0.01);
        let mut pipe = PipelineTrainer::new(cfg(), corpus.clone(), 0.1, 8, 4, 1, 2).with_adam(0.01);
        for step in 0..3 {
            // Reference: replicate the trainer's slicing by hand.
            let (tokens, targets) = corpus.batch(8, 12, step);
            reference.zero_grads();
            for c in 0..4 {
                let lo = c * 2 * 12;
                let hi = (c + 1) * 2 * 12;
                reference.loss_step(&tokens[lo..hi], &targets[lo..hi], 2);
            }
            for p in reference.params_mut() {
                p.g.scale(0.25);
            }
            ref_opt.step(&mut reference.params_mut());
            pipe.train_minibatch();
        }
        let diff = max_weight_diff(&reference, &pipe.reassemble());
        assert!(diff < 5e-4, "Adam pipeline diverged by {diff}");
    }

    #[test]
    fn bounded_stash_window_preserves_semantics_and_memory() {
        // Varuna's memory discipline for real: with a stash window of 2
        // the same weights come out, and no stage ever held more than 2
        // input stashes.
        let corpus = Corpus::synthetic(4000, 12);
        let mut reference = Trainer::new(cfg(), corpus.clone(), 0.1, 8);
        let mut tight = PipelineTrainer::new(cfg(), corpus, 0.1, 8, 4, 1, 1).with_window(2);
        for _ in 0..3 {
            reference.train_minibatch(1);
            tight.train_minibatch();
        }
        assert!(
            tight.peak_stash.iter().all(|&p| p <= 2),
            "stash {:?}",
            tight.peak_stash
        );
        // Early stages actually hit the bound (8 micro-batches want more).
        assert_eq!(tight.peak_stash[0], 2);
        let diff = max_weight_diff(&reference.model, &tight.reassemble());
        assert!(diff < 5e-4, "windowed run diverged by {diff}");
    }

    #[test]
    fn unbounded_window_lets_early_stages_run_ahead() {
        let corpus = Corpus::synthetic(4000, 13);
        let mut pipe = PipelineTrainer::new(cfg(), corpus, 0.1, 8, 4, 1, 1);
        pipe.train_minibatch();
        // Stage 0 can forward all 8 micro-batches before backwards begin;
        // the last stage alternates and stays at 1.
        assert!(
            pipe.peak_stash[0] >= 4,
            "stage 0 should run ahead: {:?}",
            pipe.peak_stash
        );
        assert!(pipe.peak_stash[3] <= 2);
    }

    #[test]
    fn observed_training_emits_loss_events_and_matches_plain_training() {
        use varuna_obs::{EventBus, EventKind, Source, VecSink};
        let corpus = Corpus::synthetic(4000, 6);
        let mut plain = PipelineTrainer::new(cfg(), corpus.clone(), 0.1, 8, 2, 1, 2);
        let mut observed = PipelineTrainer::new(cfg(), corpus, 0.1, 8, 2, 1, 2);
        let sink = VecSink::new();
        let mut bus = EventBus::with_sink(Box::new(sink.clone()));
        for _ in 0..2 {
            let l_plain = plain.train_minibatch();
            let l_obs = observed.train_minibatch_observed(&mut bus);
            assert_eq!(l_plain, l_obs, "observation must not perturb training");
        }
        let events = sink.take();
        assert_eq!(events.len(), 2);
        let mut last_t = 0.0;
        for (i, e) in events.iter().enumerate() {
            assert_eq!(e.source, Source::Train);
            assert!(e.t_sim > last_t, "cumulative time must advance");
            last_t = e.t_sim;
            match &e.kind {
                EventKind::EpochLoss {
                    step,
                    loss,
                    examples_per_sec,
                } => {
                    assert_eq!(*step, i as u64 + 1);
                    assert!(loss.is_finite() && *loss > 0.0);
                    assert!(*examples_per_sec > 0.0);
                }
                other => panic!("unexpected event {other:?}"),
            }
        }
    }

    #[test]
    fn disciplines_are_bit_identical_to_the_reference_trainer() {
        // The acceptance bar for the policy-driven trainer: Varuna, GPipe,
        // and 1F1B all produce *bit-identical* final weights to the
        // single-process oracle, thanks to the canonical per-micro-batch
        // delta reduction shared by both trainers.
        //
        // Untied embeddings: the tied reference couples head and embedding
        // gradients inside each backward — a different float grouping than
        // the pipeline's end-of-batch tie sync — so exact equality is only
        // well-posed without weight tying.
        use varuna_baselines::{GPipePolicy, OneF1BPolicy};
        use varuna_sched::schedule::{generate_schedule, VarunaPolicy};
        let cfg = ModelConfig {
            tied: false,
            ..cfg()
        };
        for p in [2usize, 4] {
            let corpus = Corpus::synthetic(4000, 21);
            let mut reference = Trainer::new(cfg, corpus.clone(), 0.1, 8);
            for _ in 0..3 {
                reference.train_minibatch(2);
            }
            let run = |name: &str, factory: &PolicyFactory<'_>| {
                let mut pipe = PipelineTrainer::new(cfg, corpus.clone(), 0.1, 8, p, 1, 2);
                for _ in 0..3 {
                    pipe.train_minibatch_with(factory);
                }
                let diff = max_weight_diff(&reference.model, &pipe.reassemble());
                assert_eq!(diff, 0.0, "{name} at p={p} diverged by {diff}");
            };
            let sched = generate_schedule(p, 4, usize::MAX);
            run("varuna", &|s, _| {
                Box::new(VarunaPolicy::for_stage(&sched, s))
            });
            run("gpipe", &|_, _| Box::new(GPipePolicy));
            run("1f1b", &|_, _| Box::new(OneF1BPolicy));
        }
    }

    #[test]
    fn final_weights_are_schedule_invariant() {
        // Between disciplines the equivalence is unconditional — tied
        // embeddings, data parallelism, even PipeDream's no-recompute
        // memory model all yield the same bits, because the gradient each
        // micro-batch contributes does not depend on when it was scheduled.
        use varuna_baselines::{GPipePolicy, OneF1BPolicy, PipeDreamPolicy};
        use varuna_sched::schedule::{generate_schedule, VarunaPolicy};
        let corpus = Corpus::synthetic(4000, 22);
        let run = |factory: &PolicyFactory<'_>, recompute: bool| -> MiniGpt {
            let mut pipe = PipelineTrainer::new(cfg(), corpus.clone(), 0.1, 8, 2, 2, 1)
                .with_recompute(recompute);
            for _ in 0..2 {
                pipe.train_minibatch_with(factory);
            }
            pipe.reassemble()
        };
        let greedy = run(&|_, _| Box::new(GreedyPolicy), true);
        let sched = generate_schedule(2, 4, usize::MAX);
        for (name, model) in [
            (
                "varuna",
                run(&|s, _| Box::new(VarunaPolicy::for_stage(&sched, s)), true),
            ),
            ("gpipe", run(&|_, _| Box::new(GPipePolicy), true)),
            ("1f1b", run(&|_, _| Box::new(OneF1BPolicy), true)),
            ("pipedream", run(&|_, _| Box::new(PipeDreamPolicy), false)),
        ] {
            assert_eq!(
                max_weight_diff(&greedy, &model),
                0.0,
                "{name} diverged from the greedy reference discipline"
            );
        }
    }

    #[test]
    fn morphing_preserves_the_training_trajectory() {
        // Train 2 steps at 4x1, morph to 2x2 with a different micro size,
        // train 2 more — must match the reference trainer that never
        // changed shape (paper Section 4.2).
        let corpus = Corpus::synthetic(4000, 11);
        let mut reference = Trainer::new(cfg(), corpus.clone(), 0.1, 8);
        let mut pipe = PipelineTrainer::new(cfg(), corpus, 0.1, 8, 4, 1, 2);
        for _ in 0..2 {
            reference.train_minibatch(2);
            pipe.train_minibatch();
        }
        pipe.morph(2, 2, 1);
        assert_eq!(pipe.p(), 2);
        assert_eq!(pipe.d(), 2);
        for _ in 0..2 {
            reference.train_minibatch(2);
            pipe.train_minibatch();
        }
        let diff = max_weight_diff(&reference.model, &pipe.reassemble());
        assert!(diff < 1e-3, "morphing changed the trajectory by {diff}");
    }
}
