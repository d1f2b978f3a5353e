//! Timing wrappers around the program's public `EventSink` and `WalIo`
//! traits: every call is forwarded unchanged and recorded as a span.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use varuna::{WalIo, WalRecord};
use varuna_obs::{Event, EventSink};

use crate::spans::SharedTracer;

/// Times every call into an [`EventSink`] as an `obs.sink` span.
pub struct TimedSink<S> {
    inner: S,
    tracer: SharedTracer,
}

impl<S> TimedSink<S> {
    /// Wraps `inner`, recording into `tracer`.
    pub fn new(inner: S, tracer: SharedTracer) -> Self {
        TimedSink { inner, tracer }
    }
}

impl<S: EventSink> EventSink for TimedSink<S> {
    fn record(&mut self, event: &Event) {
        let s = self.tracer.borrow_mut().begin("obs.sink", None);
        self.inner.record(event);
        self.tracer.borrow_mut().end(s);
    }

    fn enabled(&self) -> bool {
        self.inner.enabled()
    }

    fn flush(&mut self) {
        let s = self.tracer.borrow_mut().begin("obs.sink", None);
        self.inner.flush();
        self.tracer.borrow_mut().end(s);
    }
}

/// Times every call into a [`WalIo`] as a `wal.append` or `wal.replay`
/// span.
pub struct TimedWal<W> {
    /// The wrapped log.
    pub inner: W,
    tracer: SharedTracer,
}

impl<W> TimedWal<W> {
    /// Wraps `inner`, recording into `tracer`.
    pub fn new(inner: W, tracer: SharedTracer) -> Self {
        TimedWal { inner, tracer }
    }
}

impl<W: WalIo> WalIo for TimedWal<W> {
    fn replay_next_attempt(&mut self) -> Option<WalRecord> {
        let s = self.tracer.borrow_mut().begin("wal.replay", None);
        let out = self.inner.replay_next_attempt();
        self.tracer.borrow_mut().end(s);
        out
    }

    fn append_record(&mut self, record: WalRecord) {
        let s = self.tracer.borrow_mut().begin("wal.append", None);
        self.inner.append_record(record);
        self.tracer.borrow_mut().end(s);
    }
}

/// Stamps the host time at which each event reached the bus, so the
/// benchmark can time work between two events from outside the call
/// that emits them.
#[derive(Clone, Default)]
pub struct ClockSink(Rc<RefCell<Vec<Instant>>>);

impl ClockSink {
    /// The stamps so far, one per event, in arrival order.
    pub fn take(&self) -> Vec<Instant> {
        std::mem::take(&mut self.0.borrow_mut())
    }
}

impl EventSink for ClockSink {
    fn record(&mut self, _event: &Event) {
        self.0.borrow_mut().push(Instant::now());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spans::Tracer;
    use varuna::ManagerWal;
    use varuna_obs::{EventKind, NullSink, VecSink};

    fn events() -> Vec<Event> {
        (0..5)
            .map(|i| {
                Event::manager(
                    i as f64,
                    EventKind::LostWork {
                        minibatches: i,
                        seconds: 0.5 * i as f64,
                    },
                )
            })
            .collect()
    }

    fn records() -> Vec<WalRecord> {
        vec![
            WalRecord::DegradedEnter {
                t_hours: 0.0,
                gpus: 2,
                reason: "too small".to_string(),
            },
            WalRecord::MorphRetry {
                t_hours: 0.1,
                attempt: 1,
                backoff_seconds: 30.0,
                gpus: 2,
            },
            WalRecord::VmReadmitted {
                t_hours: 0.2,
                vm: 4,
            },
            WalRecord::LostWork {
                t_hours: 0.3,
                minibatches: 3,
                seconds: 9.0,
            },
        ]
    }

    #[test]
    fn timed_sink_forwards_every_call_unchanged() {
        let tr = Tracer::shared();
        let direct = VecSink::new();
        let inner = VecSink::new();
        let mut plain = direct.clone();
        let mut timed = TimedSink::new(inner.clone(), tr.clone());
        for e in events() {
            plain.record(&e);
            timed.record(&e);
        }
        timed.flush();
        assert!(timed.enabled());
        assert_eq!(inner.take(), direct.take());
        assert_eq!(tr.borrow().count("obs.sink"), 6);
        assert!(!TimedSink::new(NullSink, tr).enabled());
    }

    #[test]
    fn clock_sink_stamps_every_event_in_order() {
        let clock = ClockSink::default();
        let mut bus = varuna_obs::EventBus::with_sink(Box::new(clock.clone()));
        for e in events() {
            bus.emit(e);
        }
        let stamps = clock.take();
        assert_eq!(stamps.len(), 5);
        assert!(stamps.windows(2).all(|w| w[0] <= w[1]));
        assert!(clock.take().is_empty());
    }

    #[test]
    fn timed_wal_forwards_appends_and_replays_unchanged() {
        let tr = Tracer::shared();
        let mut direct = ManagerWal::new();
        let mut timed = TimedWal::new(ManagerWal::new(), tr.clone());
        for r in records() {
            direct.append_record(r.clone());
            timed.append_record(r);
        }
        assert_eq!(timed.inner.to_bytes(), direct.to_bytes());
        assert_eq!(tr.borrow().count("wal.append"), 4);

        // Replays consume the same records in the same order, including
        // the refusal to consume a non-attempt record.
        let bytes = direct.to_bytes();
        let mut a = ManagerWal::from_bytes(&bytes).unwrap();
        let mut b = TimedWal::new(ManagerWal::from_bytes(&bytes).unwrap(), tr.clone());
        for _ in 0..3 {
            assert_eq!(a.replay_next_attempt(), b.replay_next_attempt());
        }
        assert_eq!(a.remaining(), b.inner.remaining());
        assert_eq!(tr.borrow().count("wal.replay"), 3);
    }
}
