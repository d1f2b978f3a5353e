#![warn(missing_docs)]
//! The scheduling substrate of the Varuna reproduction.
//!
//! The paper's central comparisons (Figure 4, Tables 5–6) are between
//! *schedules* — Varuna's opportunistic static schedule vs. GPipe / 1F1B /
//! PipeDream — and its morphing-correctness argument rests on schedule
//! choice never changing training semantics. This crate is therefore the
//! single home of everything schedule-shaped, shared by every substrate
//! that executes one:
//!
//! - [`op`]: the `F`/`R`/`B` operation vocabulary.
//! - [`policy`]: the [`SchedulePolicy`] trait, the [`StageView`] legality
//!   interface, the greedy reference policy and GPipe.
//! - [`schedule`]: Varuna's schedule rules (paper §3.2), written once as
//!   the event-driven kernel [`varuna_schedule`] — the planner runs it at
//!   calibrated times, [`generate_schedule`] at unit times — plus the
//!   run-time [`VarunaPolicy`] that follows a static order
//!   opportunistically. Any other policy's unit-time schedule is rendered
//!   by the `varuna-exec` emulator (`render_unit_schedule`).
//! - [`stage`]: [`StageState`], the one state machine of a pipeline
//!   stage — which inputs have arrived, how full the activation stash is,
//!   which gradients are in hand, which activations are live, and whether
//!   a finished recompute has committed the stage (paper constraint 2).
//! - [`queue`]: the deterministic `(time, seq)` [`EventQueue`] that orders
//!   the kernel's events and the `varuna-exec` emulator's.
//!
//! The contract splits responsibility in two:
//!
//! - the **engine** (the discrete-event emulator in `varuna-exec`, the
//!   real numeric trainer in `varuna-train`, or the schedule kernel) owns
//!   *timing*: it feeds each stage's [`StageState`] the arrivals and op
//!   transitions it observes, and the state answers *legality* as a
//!   [`StageView`];
//! - the **policy** owns *discipline* — given the view, it picks which of
//!   the legal ops to run, or idles.
//!
//! Because both the emulator and the trainer drive the same policies
//! through the same view, emulated op order can be checked against real
//! execution (the paper's "simulation faithful to execution" premise,
//! Table 7), and final weights can be shown schedule-invariant on real
//! numerics.

pub mod drain;
pub mod op;
pub mod policy;
pub mod queue;
pub mod schedule;
pub mod stage;

pub use drain::{boundary_drain_legal, drain_in_place_legal};
pub use op::{Op, OpKind};
pub use policy::{GPipePolicy, GreedyPolicy, PolicyFactory, SchedulePolicy, StageView};
pub use queue::EventQueue;
pub use schedule::{generate_schedule, varuna_schedule, StageOrder, StaticSchedule, VarunaPolicy};
pub use stage::StageState;
