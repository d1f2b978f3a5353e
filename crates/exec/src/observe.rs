//! Adapters between the emulator and the `varuna-obs` event bus.
//!
//! The emulator keeps no private trace recorder: it emits
//! [`varuna_obs::Event`]s. Per-op spans (Gantt charts, Figure 7) come
//! from capturing the stream in a [`varuna_obs::VecSink`] and calling
//! [`varuna_obs::profile::spans`]; live attribution comes from
//! [`StreamingCapture`].

use varuna_obs::{
    EventBus, PartialReport, ProfileReport, StreamConfig, StreamCounters, StreamSink,
};

/// Live, bounded-memory profiler attachment for the emulator bus.
///
/// Where a [`varuna_obs::VecSink`] buffers every event for post-hoc
/// analysis, `StreamingCapture` folds events into a
/// [`varuna_obs::StreamingProfiler`] as they are emitted, keeping
/// O(stages × replicas) resident state and producing the *same report,
/// byte for byte*, that `varuna_obs::profile` would compute from the
/// full event vector. Attach it to the bus the emulator runs on, then
/// pull a live snapshot at any point or seal it at the end:
///
/// ```
/// use varuna_obs::EventBus;
/// use varuna_exec::observe::StreamingCapture;
///
/// let capture = StreamingCapture::new();
/// let mut bus = EventBus::new();
/// capture.attach(&mut bus);
/// // ... run simulate_minibatch_on_bus(job, policies, opts, &mut bus) ...
/// let report = capture.finish();
/// # let _ = (bus, report);
/// ```
#[derive(Debug, Clone, Default)]
pub struct StreamingCapture {
    sink: StreamSink,
}

impl StreamingCapture {
    /// A capture with an unbounded reorder window (exact on any event
    /// order the bus can produce).
    pub fn new() -> Self {
        StreamingCapture::default()
    }

    /// A capture with an explicit streaming configuration (finite
    /// window, pending cap).
    pub fn with_config(cfg: StreamConfig) -> Self {
        StreamingCapture {
            sink: StreamSink::new(cfg),
        }
    }

    /// Registers a clone of the underlying sink on `bus`; the capture
    /// keeps its handle, so state accumulated by the bus is visible
    /// through `self`.
    pub fn attach(&self, bus: &mut EventBus) {
        bus.add_sink(Box::new(self.sink.clone()));
    }

    /// Events held in the reorder/inflight buffers plus per-lane folds —
    /// the bounded resident state, not the stream length.
    pub fn resident(&self) -> usize {
        self.sink.resident()
    }

    /// Overflow / anomaly accounting for the stream so far.
    pub fn counters(&self) -> StreamCounters {
        *self.sink.snapshot().counters()
    }

    /// A live report over everything observed so far. Exact for the
    /// current prefix of the stream; cheap enough to call per step.
    pub fn report(&self) -> ProfileReport {
        self.sink.snapshot().into_report()
    }

    /// Drains the capture into a mergeable [`PartialReport`] shard
    /// (resets the capture to empty).
    pub fn take_partial(&self) -> PartialReport {
        self.sink.take_partial()
    }

    /// Seals the capture into its final report.
    pub fn finish(self) -> ProfileReport {
        self.sink.take_partial().into_report()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streaming_capture_matches_posthoc_profile_on_a_real_minibatch() {
        use crate::job::PlacedJob;
        use crate::pipeline::{simulate_minibatch_on_bus, SimOptions};
        use crate::placement::Placement;
        use varuna_models::{CutpointGraph, GpuModel, ModelZoo};
        use varuna_net::Topology;
        use varuna_obs::{profile, VecSink};
        use varuna_sched::policy::{GreedyPolicy, SchedulePolicy};

        let (p, d, n_micro) = (3, 2, 4);
        let graph = CutpointGraph::from_transformer(&ModelZoo::gpt2_2_5b());
        let job = PlacedJob::uniform_from_graph(
            &graph,
            &GpuModel::v100(),
            p,
            d,
            2,
            n_micro,
            Topology::commodity_1gpu(p * d),
            Placement::one_stage_per_gpu(p, d),
        );
        let greedy = |_: usize, _: usize| -> Box<dyn SchedulePolicy> { Box::new(GreedyPolicy) };

        let tape = VecSink::new();
        let capture = StreamingCapture::new();
        let mut bus = EventBus::with_sink(Box::new(tape.clone()));
        capture.attach(&mut bus);
        simulate_minibatch_on_bus(&job, &greedy, &SimOptions::default(), &mut bus)
            .expect("minibatch simulates");

        let events = tape.take();
        assert!(!events.is_empty(), "emulator must emit events");
        let counters = capture.counters();
        assert_eq!(
            counters.violations(),
            0,
            "live emulator stream must profile cleanly: {counters:?}"
        );
        assert_eq!(
            capture.finish().to_json(),
            profile(&events).to_json(),
            "streamed report must equal post-hoc byte-for-byte"
        );
    }
}
