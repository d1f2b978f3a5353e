//! The event bus and its pluggable sinks.

use std::collections::VecDeque;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;

use crate::event::{Event, EventKind};

/// A consumer of the event stream.
///
/// Sinks own no thread and see events synchronously, in emission order.
/// A sink that reports `enabled() == false` never receives events and,
/// when no enabled sink is attached, producers skip constructing payloads
/// entirely (see [`EventBus::emit_with`]).
pub trait EventSink {
    /// Consumes one event.
    fn record(&mut self, event: &Event);

    /// Whether this sink wants events at all. [`NullSink`] returns
    /// `false`, letting a wired-but-silent bus cost nothing.
    fn enabled(&self) -> bool {
        true
    }

    /// Flushes any buffered output (no-op by default).
    fn flush(&mut self) {}
}

/// Fans events out to the attached sinks.
#[derive(Default)]
pub struct EventBus {
    sinks: Vec<Box<dyn EventSink>>,
}

impl EventBus {
    /// An empty (inert) bus.
    pub fn new() -> Self {
        EventBus::default()
    }

    /// A bus with one sink attached.
    pub fn with_sink(sink: Box<dyn EventSink>) -> Self {
        let mut bus = EventBus::new();
        bus.add_sink(sink);
        bus
    }

    /// Attaches a sink.
    pub fn add_sink(&mut self, sink: Box<dyn EventSink>) {
        self.sinks.push(sink);
    }

    /// Whether any attached sink wants events. Producers use this (via
    /// [`EventBus::emit_with`]) to skip payload construction on inert
    /// buses — the emulator's hot loop depends on it.
    pub fn is_active(&self) -> bool {
        self.sinks.iter().any(|s| s.enabled())
    }

    /// Delivers an already-built event to every enabled sink.
    pub fn emit(&mut self, event: Event) {
        for sink in &mut self.sinks {
            if sink.enabled() {
                sink.record(&event);
            }
        }
    }

    /// Builds the event lazily and delivers it — the closure never runs
    /// when no enabled sink is attached.
    pub fn emit_with(&mut self, build: impl FnOnce() -> Event) {
        if self.is_active() {
            self.emit(build());
        }
    }

    /// Flushes every sink.
    pub fn flush(&mut self) {
        for sink in &mut self.sinks {
            sink.flush();
        }
    }
}

/// Discards every event while keeping the bus wired. Reports
/// `enabled() == false`, so producers skip even building payloads.
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl EventSink for NullSink {
    fn record(&mut self, _event: &Event) {}

    fn enabled(&self) -> bool {
        false
    }
}

/// Locks a sink's shared buffer. Every update under the lock is one push,
/// pop or drain, so a writer that panicked while holding it left the
/// buffer whole: the guard is recovered rather than the panic spread to
/// every reader.
fn lock<T>(buffer: &Mutex<T>) -> MutexGuard<'_, T> {
    buffer.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Buffers every event in memory behind a shared handle: clone the sink
/// before boxing it into the bus, then read the events back through the
/// clone.
#[derive(Debug, Clone, Default)]
pub struct VecSink {
    events: Arc<Mutex<Vec<Event>>>,
}

impl VecSink {
    /// An empty buffer.
    pub fn new() -> Self {
        VecSink::default()
    }

    /// Number of buffered events.
    pub fn len(&self) -> usize {
        lock(&self.events).len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drains and returns the buffered events.
    pub fn take(&self) -> Vec<Event> {
        std::mem::take(&mut *lock(&self.events))
    }

    /// Clones the buffered events without draining.
    pub fn snapshot(&self) -> Vec<Event> {
        lock(&self.events).clone()
    }
}

impl EventSink for VecSink {
    fn record(&mut self, event: &Event) {
        lock(&self.events).push(event.clone());
    }
}

/// A flight recorder: keeps only the newest `capacity` events. Shares its
/// buffer the same way [`VecSink`] does.
#[derive(Debug, Clone)]
pub struct RingBufferSink {
    events: Arc<Mutex<VecDeque<Event>>>,
    capacity: usize,
}

impl RingBufferSink {
    /// A ring holding at most `capacity` events.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "a ring buffer needs room for one event");
        RingBufferSink {
            events: Arc::new(Mutex::new(VecDeque::with_capacity(capacity))),
            capacity,
        }
    }

    /// Number of buffered events (at most the capacity).
    pub fn len(&self) -> usize {
        lock(&self.events).len()
    }

    /// Whether the ring is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The surviving (newest) events, oldest first.
    pub fn snapshot(&self) -> Vec<Event> {
        lock(&self.events).iter().cloned().collect()
    }
}

impl EventSink for RingBufferSink {
    fn record(&mut self, event: &Event) {
        let mut q = lock(&self.events);
        if q.len() == self.capacity {
            q.pop_front();
        }
        q.push_back(event.clone());
    }
}

/// Streams events as JSON Lines — one `Event` object per line — to any
/// writer.
pub struct JsonlSink<W: Write> {
    writer: W,
}

impl JsonlSink<BufWriter<File>> {
    /// Creates (truncating) a JSONL file at `path`.
    ///
    /// # Errors
    ///
    /// Propagates file-creation failures.
    pub fn create(path: &std::path::Path) -> std::io::Result<Self> {
        Ok(JsonlSink {
            writer: BufWriter::new(File::create(path)?),
        })
    }
}

impl<W: Write> JsonlSink<W> {
    /// Wraps an arbitrary writer.
    pub fn new(writer: W) -> Self {
        JsonlSink { writer }
    }

    /// Consumes the sink, flushing and returning the writer.
    ///
    /// # Errors
    ///
    /// Propagates flush failures.
    pub fn into_inner(mut self) -> std::io::Result<W> {
        self.writer.flush()?;
        Ok(self.writer)
    }
}

impl<W: Write> EventSink for JsonlSink<W> {
    fn record(&mut self, event: &Event) {
        let line = serde_json::to_string(event).expect("events always serialize");
        // I/O failures surface on flush; dropping mid-stream events keeps
        // the producer's hot path free of Result plumbing.
        let _ = writeln!(self.writer, "{line}");
    }

    fn flush(&mut self) {
        let _ = self.writer.flush();
    }
}

/// Where [`shard_route`] sends an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardRoute {
    /// Deliver to exactly one shard.
    One(usize),
    /// Deliver to every shard (per-stage allreduces: all of a stage's
    /// replica lanes participate, and the lanes of one stage may be
    /// spread across shards). Exactly one shard — [`allreduce_owner`] —
    /// *owns* the event for counting; the rest see a ghost copy.
    Broadcast,
}

/// The canonical event → shard routing the streaming profiler's
/// byte-identity proof rests on.
///
/// Data-plane events go to their replica's shard (`replica % shards`),
/// which keeps every per-`(stage, replica)` lane — and every critical-path
/// dependency, all of which are replica-local — on a single shard.
/// Everything else (control-plane events and transfers, whose profile
/// contributions are order-sensitive `f64` sums) goes to shard 0, so
/// those sums accumulate on one shard in arrival order and merging only
/// ever adds exact zeros from the others.
pub fn shard_route(event: &Event, shards: usize) -> ShardRoute {
    debug_assert!(shards > 0, "routing needs at least one shard");
    match &event.kind {
        EventKind::OpStart { replica, .. }
        | EventKind::OpEnd { replica, .. }
        | EventKind::SendBusy { replica, .. } => ShardRoute::One(replica % shards),
        EventKind::Allreduce { .. } => ShardRoute::Broadcast,
        _ => ShardRoute::One(0),
    }
}

/// The shard that *owns* (counts) a broadcast allreduce for `stage`.
pub fn allreduce_owner(stage: usize, shards: usize) -> usize {
    debug_assert!(shards > 0, "routing needs at least one shard");
    stage % shards
}

/// What a [`ShardedSink`] does when a shard's channel is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverflowPolicy {
    /// Block the producer until the shard drains — lossless
    /// backpressure; the profile stays exact.
    Block,
    /// Drop the newest event and count it — the producer never stalls;
    /// [`ShardedSink::dropped`] says exactly how much the profile is
    /// missing.
    DropNewest,
}

enum ShardMsg {
    Event(Event),
    Flush(mpsc::Sender<()>),
}

/// Fans events out to per-shard worker threads over bounded channels —
/// the async sink layer that keeps slow consumers (profilers, disk
/// writers) off the emulator's hot path.
///
/// Routing follows [`shard_route`]: data-plane events go to their
/// replica's shard, allreduces broadcast to every shard, everything else
/// to shard 0. Overflow is never silent: the policy either blocks or
/// drops-and-counts. [`EventSink::flush`] is a barrier — it returns only
/// after every shard has drained its queue and flushed its inner sink.
/// Dropping the `ShardedSink` closes the channels and joins the workers.
pub struct ShardedSink {
    txs: Vec<SyncSender<ShardMsg>>,
    workers: Vec<JoinHandle<()>>,
    policy: OverflowPolicy,
    dropped: Arc<AtomicU64>,
    forwarded: u64,
}

impl ShardedSink {
    /// Spawns one worker thread per inner sink, each behind a bounded
    /// channel of `capacity` messages.
    pub fn new(
        sinks: Vec<Box<dyn EventSink + Send>>,
        capacity: usize,
        policy: OverflowPolicy,
    ) -> Self {
        assert!(!sinks.is_empty(), "a sharded sink needs at least one shard");
        assert!(capacity > 0, "a sharded sink needs channel room");
        let mut txs = Vec::with_capacity(sinks.len());
        let mut workers = Vec::with_capacity(sinks.len());
        for mut sink in sinks {
            let (tx, rx): (SyncSender<ShardMsg>, Receiver<ShardMsg>) = mpsc::sync_channel(capacity);
            txs.push(tx);
            workers.push(std::thread::spawn(move || {
                while let Ok(msg) = rx.recv() {
                    match msg {
                        ShardMsg::Event(e) => sink.record(&e),
                        ShardMsg::Flush(ack) => {
                            sink.flush();
                            drop(ack); // hang-up is the ack
                        }
                    }
                }
                sink.flush();
            }));
        }
        ShardedSink {
            txs,
            workers,
            policy,
            dropped: Arc::new(AtomicU64::new(0)),
            forwarded: 0,
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.txs.len()
    }

    /// Events dropped on full channels (always 0 under
    /// [`OverflowPolicy::Block`]).
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Events successfully handed to a shard (broadcasts count once per
    /// receiving shard).
    pub fn forwarded(&self) -> u64 {
        self.forwarded
    }

    fn send_to(&mut self, shard: usize, event: &Event) {
        match self.policy {
            OverflowPolicy::Block => {
                if self.txs[shard].send(ShardMsg::Event(event.clone())).is_ok() {
                    self.forwarded += 1;
                }
            }
            OverflowPolicy::DropNewest => {
                match self.txs[shard].try_send(ShardMsg::Event(event.clone())) {
                    Ok(()) => self.forwarded += 1,
                    Err(TrySendError::Full(_)) => {
                        self.dropped.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(TrySendError::Disconnected(_)) => {}
                }
            }
        }
    }
}

impl EventSink for ShardedSink {
    fn record(&mut self, event: &Event) {
        match shard_route(event, self.txs.len()) {
            ShardRoute::One(k) => self.send_to(k, event),
            ShardRoute::Broadcast => {
                for k in 0..self.txs.len() {
                    self.send_to(k, event);
                }
            }
        }
    }

    fn flush(&mut self) {
        // Barrier: one ack channel per shard; a worker signals by
        // dropping its sender after flushing its inner sink.
        let mut acks = Vec::with_capacity(self.txs.len());
        for tx in &self.txs {
            let (ack_tx, ack_rx) = mpsc::channel();
            if tx.send(ShardMsg::Flush(ack_tx)).is_ok() {
                acks.push(ack_rx);
            }
        }
        for ack in acks {
            let _ = ack.recv(); // Err(hang-up) IS the signal
        }
    }
}

impl Drop for ShardedSink {
    fn drop(&mut self) {
        self.txs.clear(); // hang up every channel
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: f64, vm: u64) -> Event {
        Event::cluster(t, EventKind::Preemption { vm })
    }

    /// Poisons `buffer` the way a writer that panics mid-record would.
    fn poison<T: Send + 'static>(buffer: &Arc<Mutex<T>>) {
        let held = Arc::clone(buffer);
        let writer = std::thread::spawn(move || {
            let _guard = held.lock().unwrap();
            panic!("writer panicked holding the sink lock");
        });
        assert!(writer.join().is_err());
        assert!(buffer.is_poisoned());
    }

    #[test]
    fn a_poisoned_sink_still_reads_and_drains() {
        let vec = VecSink::new();
        let mut writer = vec.clone();
        writer.record(&ev(1.0, 1));
        poison(&vec.events);
        writer.record(&ev(2.0, 2));
        assert_eq!(vec.len(), 2);
        assert_eq!(vec.snapshot(), vec![ev(1.0, 1), ev(2.0, 2)]);
        assert_eq!(vec.take(), vec![ev(1.0, 1), ev(2.0, 2)]);
        assert!(vec.is_empty());

        let ring = RingBufferSink::new(2);
        let mut writer = ring.clone();
        writer.record(&ev(1.0, 1));
        poison(&ring.events);
        writer.record(&ev(2.0, 2));
        writer.record(&ev(3.0, 3));
        assert_eq!(ring.len(), 2);
        assert_eq!(ring.snapshot(), vec![ev(2.0, 2), ev(3.0, 3)]);
    }

    #[test]
    fn empty_bus_is_inert_and_skips_payload_construction() {
        let mut bus = EventBus::new();
        assert!(!bus.is_active());
        bus.emit_with(|| panic!("payload must not be built on an inert bus"));
    }

    #[test]
    fn null_sink_keeps_the_bus_inert() {
        let mut bus = EventBus::with_sink(Box::new(NullSink));
        assert!(!bus.is_active());
        bus.emit_with(|| panic!("payload must not be built for NullSink"));
        // Direct emit is also harmless.
        bus.emit(ev(0.0, 1));
    }

    #[test]
    fn vec_sink_buffers_in_order() {
        let sink = VecSink::new();
        let mut bus = EventBus::with_sink(Box::new(sink.clone()));
        assert!(bus.is_active());
        for i in 0..5 {
            bus.emit(ev(i as f64, i));
        }
        let events = sink.take();
        assert_eq!(events.len(), 5);
        assert!(events.windows(2).all(|w| w[0].t_sim < w[1].t_sim));
        assert!(sink.is_empty(), "take drains the buffer");
    }

    #[test]
    fn ring_buffer_keeps_only_the_newest() {
        let sink = RingBufferSink::new(3);
        let mut bus = EventBus::with_sink(Box::new(sink.clone()));
        for i in 0..10u64 {
            bus.emit(ev(i as f64, i));
        }
        let events = sink.snapshot();
        assert_eq!(events.len(), 3);
        let vms: Vec<f64> = events.iter().map(|e| e.t_sim).collect();
        assert_eq!(vms, vec![7.0, 8.0, 9.0]);
    }

    #[test]
    fn jsonl_sink_writes_one_object_per_line() {
        let mut sink = JsonlSink::new(Vec::new());
        sink.record(&ev(1.0, 7));
        sink.record(&ev(2.0, 8));
        let bytes = sink.into_inner().unwrap();
        let text = String::from_utf8(bytes).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in lines {
            let back: Event = serde_json::from_str(line).unwrap();
            assert!(matches!(back.kind, EventKind::Preemption { .. }));
        }
    }

    #[test]
    fn multiple_sinks_all_receive() {
        let a = VecSink::new();
        let b = RingBufferSink::new(2);
        let mut bus = EventBus::new();
        bus.add_sink(Box::new(a.clone()));
        bus.add_sink(Box::new(b.clone()));
        bus.add_sink(Box::new(NullSink));
        for i in 0..4u64 {
            bus.emit_with(|| ev(i as f64, i));
        }
        assert_eq!(a.len(), 4);
        assert_eq!(b.len(), 2);
    }

    fn op_end(stage: usize, replica: usize, micro: usize, start: f64, end: f64) -> Event {
        Event::exec(
            end,
            EventKind::OpEnd {
                stage,
                replica,
                op: 'F',
                micro,
                start,
            },
        )
    }

    #[test]
    fn canonical_routing_keeps_lanes_and_sums_local() {
        let e = op_end(3, 5, 0, 0.0, 1.0);
        assert_eq!(shard_route(&e, 4), ShardRoute::One(1), "replica % shards");
        let ar = Event::exec(
            1.0,
            EventKind::Allreduce {
                stage: 2,
                bytes: 1.0,
                ring: 2,
                seconds: 0.5,
            },
        );
        assert_eq!(shard_route(&ar, 4), ShardRoute::Broadcast);
        assert_eq!(allreduce_owner(2, 4), 2);
        assert_eq!(
            shard_route(&ev(2.0, 1), 4),
            ShardRoute::One(0),
            "control -> shard 0"
        );
    }

    #[test]
    fn sharded_sink_fans_out_by_replica_and_broadcasts_allreduces() {
        let shards: Vec<VecSink> = (0..2).map(|_| VecSink::new()).collect();
        let boxed: Vec<Box<dyn EventSink + Send>> = shards
            .iter()
            .map(|s| Box::new(s.clone()) as Box<dyn EventSink + Send>)
            .collect();
        let mut sink = ShardedSink::new(boxed, 64, OverflowPolicy::Block);
        sink.record(&op_end(0, 0, 0, 0.0, 1.0));
        sink.record(&op_end(0, 1, 0, 0.0, 1.0));
        sink.record(&op_end(1, 3, 0, 1.0, 2.0));
        sink.record(&Event::exec(
            3.0,
            EventKind::Allreduce {
                stage: 0,
                bytes: 1.0,
                ring: 2,
                seconds: 0.5,
            },
        ));
        sink.record(&ev(4.0, 9)); // control -> shard 0
        sink.flush();
        assert_eq!(sink.forwarded(), 6, "broadcast counts once per shard");
        assert_eq!(sink.dropped(), 0);
        let s0 = shards[0].snapshot();
        let s1 = shards[1].snapshot();
        assert_eq!(s0.len(), 3, "replica 0 op, allreduce, control");
        assert_eq!(s1.len(), 3, "replica 1 + 3 ops, allreduce");
        assert!(s1
            .iter()
            .all(|e| !matches!(e.kind, EventKind::Preemption { .. })));
    }

    #[test]
    fn sharded_sink_flush_is_a_barrier() {
        let inner = VecSink::new();
        let mut sink = ShardedSink::new(vec![Box::new(inner.clone())], 1024, OverflowPolicy::Block);
        for i in 0..500 {
            sink.record(&ev(i as f64, i));
        }
        sink.flush();
        assert_eq!(inner.len(), 500, "flush must drain the queue first");
    }

    /// An inner sink that parks on a shared gate — lets the test hold a
    /// worker mid-record so the bounded channel demonstrably fills.
    #[derive(Clone)]
    struct GateSink {
        gate: Arc<Mutex<()>>,
        seen: Arc<AtomicU64>,
    }

    impl EventSink for GateSink {
        fn record(&mut self, _event: &Event) {
            let _hold = self.gate.lock().expect("gate");
            self.seen.fetch_add(1, Ordering::SeqCst);
        }
    }

    #[test]
    fn drop_newest_counts_overflow_instead_of_stalling() {
        let gate = Arc::new(Mutex::new(()));
        let seen = Arc::new(AtomicU64::new(0));
        let inner = GateSink {
            gate: Arc::clone(&gate),
            seen: Arc::clone(&seen),
        };
        let mut sink = ShardedSink::new(vec![Box::new(inner)], 1, OverflowPolicy::DropNewest);
        {
            let _held = gate.lock().expect("gate");
            // Give the worker time to dequeue the first event and park
            // on the gate; afterwards one message fits the channel and
            // the rest must be dropped-and-counted, never blocking us.
            sink.record(&ev(0.0, 0));
            std::thread::sleep(std::time::Duration::from_millis(50));
            for i in 1..10u64 {
                sink.record(&ev(i as f64, i));
            }
            assert!(sink.dropped() >= 7, "dropped {}", sink.dropped());
            assert_eq!(sink.forwarded() + sink.dropped(), 10);
        }
        sink.flush();
        assert_eq!(seen.load(Ordering::SeqCst), sink.forwarded());
    }

    /// End-to-end: the async sharded fan-out feeding per-shard streaming
    /// profilers reproduces `profile()` of the whole stream byte-for-byte.
    #[test]
    fn sharded_streaming_profilers_match_posthoc_bytes() {
        use crate::stream::{merge_partials, StreamConfig, StreamSink};

        let mut events = Vec::new();
        for r in 0..3usize {
            for m in 0..5usize {
                let t0 = m as f64 + r as f64 * 0.25;
                events.push(op_end(0, r, m, t0, t0 + 0.5));
                events.push(op_end(1, r, m, t0 + 0.5, t0 + 1.0));
            }
        }
        events.push(Event::exec(
            9.0,
            EventKind::Allreduce {
                stage: 0,
                bytes: 1e9,
                ring: 3,
                seconds: 0.5,
            },
        ));
        events.push(ev(10.0, 2));

        let n = 3usize;
        let stream_sinks: Vec<StreamSink> = (0..n)
            .map(|k| StreamSink::for_shard(k, n, StreamConfig::default()))
            .collect();
        let boxed: Vec<Box<dyn EventSink + Send>> = stream_sinks
            .iter()
            .map(|s| Box::new(s.clone()) as Box<dyn EventSink + Send>)
            .collect();
        let sharded = ShardedSink::new(boxed, 256, OverflowPolicy::Block);
        let mut bus = EventBus::with_sink(Box::new(sharded));
        for e in &events {
            bus.emit(e.clone());
        }
        bus.flush();

        let merged = merge_partials(stream_sinks.iter().map(|s| s.take_partial()).collect())
            .expect("non-empty");
        assert_eq!(merged.counters().violations(), 0);
        assert_eq!(
            merged.into_report().to_json(),
            crate::profile::profile(&events).to_json()
        );
    }
}
