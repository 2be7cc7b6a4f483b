//! One home's serving core, shared by the single-home gateway and the
//! fleet shard. A [`HomeSession`] owns the home's engine, its open window,
//! and its alarm-cooldown ledger, and writes each rule of the real-time
//! loop (Figure 3.1: close a window, check it, identify, alarm) once:
//!
//! - **Range:** only events in `[from, to)` are admitted.
//! - **Windows:** aligned to the model's window length; an event closes
//!   every window ending at or before it, and the tail is clipped at `to`.
//! - **Cooldown:** a report naming only devices alarmed within the
//!   cooldown is suppressed; a report naming no device always passes.
//!
//! The session records no metrics and carries no labels: each front end
//! counts the outcomes under its own metric families.
//
// lint-src: allow-file(hash-container) — the cooldown ledger is a point
// lookup keyed by device id; it is never iterated.

use std::borrow::Borrow;
use std::collections::HashMap;

use dice_core::{DiceEngine, DiceModel, FaultReport, WindowPrescan};
use dice_types::{DeviceId, Event, TimeDelta, Timestamp};

/// A window the session has closed: its bounds and its events in arrival
/// order.
#[derive(Debug)]
pub struct ClosedWindow {
    /// Window start (inclusive).
    pub start: Timestamp,
    /// Window end (exclusive); the range end for a clipped last window.
    pub end: Timestamp,
    /// The events that arrived while the window was open.
    pub events: Vec<Event>,
}

/// One home's engine, open window, and alarm-cooldown ledger; see the
/// module docs for the rules it applies.
#[derive(Debug)]
pub struct HomeSession<M: Borrow<DiceModel>> {
    engine: DiceEngine<M>,
    from: Timestamp,
    to: Timestamp,
    cooldown: TimeDelta,
    window_start: Timestamp,
    events: Vec<Event>,
    last_alarmed: HashMap<DeviceId, Timestamp>,
}

impl<M: Borrow<DiceModel>> HomeSession<M> {
    /// Wraps `engine` with an alarm cooldown. The monitored range is empty
    /// until [`HomeSession::begin`] sets it.
    pub fn new(engine: DiceEngine<M>, cooldown: TimeDelta) -> Self {
        HomeSession {
            engine,
            from: Timestamp::ZERO,
            to: Timestamp::ZERO,
            cooldown,
            window_start: Timestamp::ZERO,
            events: Vec::new(),
            last_alarmed: HashMap::new(),
        }
    }

    /// Starts serving `[from, to)`: the first window opens at `from`
    /// aligned down to the window length, and the open window and cooldown
    /// ledger start empty. The engine keeps its state.
    pub fn begin(&mut self, from: Timestamp, to: Timestamp) {
        self.from = from;
        self.to = to;
        self.window_start = from.align_down(self.engine.model().config().window());
        self.events.clear();
        self.last_alarmed.clear();
    }

    /// The home's engine.
    pub fn engine(&self) -> &DiceEngine<M> {
        &self.engine
    }

    /// Whether an event at `at` lies in the monitored range. An event
    /// outside it must be dropped, not pushed.
    pub fn admits(&self, at: Timestamp) -> bool {
        self.from <= at && at < self.to
    }

    /// Closes the open window if it ends at or before `at`. Call until it
    /// returns `None` before pushing an event at `at`.
    pub fn close_before(&mut self, at: Timestamp) -> Option<ClosedWindow> {
        let start = self.window_start;
        let end = (start + self.engine.model().config().window()).min(self.to);
        if start >= self.to || end > at {
            return None;
        }
        self.window_start = end;
        Some(ClosedWindow {
            start,
            end,
            events: std::mem::take(&mut self.events),
        })
    }

    /// Closes the next window left before the range end, the last one
    /// clipped at `to`. Call until it returns `None` at end of stream.
    pub fn drain(&mut self) -> Option<ClosedWindow> {
        self.close_before(self.to)
    }

    /// Buffers an admitted event into the open window.
    pub fn push(&mut self, event: Event) {
        debug_assert!(self.admits(event.at()), "push of an unadmitted event");
        self.events.push(event);
    }

    /// Runs a closed window through the engine, with its candidate scan
    /// already resolved when `prescan` is given. Returns the engine's
    /// report, not yet through the cooldown ([`HomeSession::deliver`]).
    pub fn process(
        &mut self,
        window: ClosedWindow,
        prescan: Option<WindowPrescan<'_>>,
    ) -> Option<FaultReport> {
        let ClosedWindow { start, end, events } = window;
        let report = match prescan {
            Some(prescan) => self
                .engine
                .process_window_prescanned(start, end, &events, prescan),
            None => self.engine.process_window(start, end, &events),
        };
        // Hand the buffer back so the next window reuses its allocation.
        if self.events.is_empty() {
            self.events = events;
            self.events.clear();
        }
        report
    }

    /// Flushes the engine's pending identification at end of stream.
    pub fn flush(&mut self) -> Option<FaultReport> {
        self.engine.flush()
    }

    /// Applies the cooldown rule: returns the report if it names a device
    /// not alarmed within the cooldown (or names none), recording its
    /// devices as alarmed now, and `None` if it is suppressed.
    pub fn deliver(&mut self, report: FaultReport) -> Option<FaultReport> {
        let now = report.identified_at;
        let fresh = report.devices.is_empty()
            || report.devices.iter().any(|d| {
                self.last_alarmed
                    .get(d)
                    .is_none_or(|&at| now - at > self.cooldown)
            });
        if !fresh {
            return None;
        }
        for &d in &report.devices {
            self.last_alarmed.insert(d, now);
        }
        Some(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dice_core::{CheckKind, ContextExtractor, DiceConfig};
    use dice_types::{DeviceRegistry, EventLog, Room, SensorId, SensorKind, SensorReading};

    fn trained() -> (SensorId, DiceModel) {
        let mut reg = DeviceRegistry::new();
        let s0 = reg.add_sensor(SensorKind::Motion, "s0", Room::Kitchen);
        let mut log = EventLog::new();
        for minute in 0..60 {
            let at = Timestamp::from_mins(minute) + TimeDelta::from_secs(5);
            log.push_sensor(SensorReading::new(s0, at, true.into()));
        }
        let model = ContextExtractor::new(DiceConfig::default())
            .extract(&reg, &mut log)
            .unwrap();
        (s0, model)
    }

    fn report(at: Timestamp, devices: Vec<DeviceId>) -> FaultReport {
        FaultReport {
            detected_at: at,
            identified_at: at,
            detected_by: CheckKind::Correlation,
            devices,
            conclusive: true,
            windows_examined: 1,
            detail: None,
            evidence: Vec::new(),
            lineage: None,
        }
    }

    #[test]
    fn cooldown_suppresses_through_its_end_and_delivers_after_it() {
        let (s0, model) = trained();
        let mut session = HomeSession::new(DiceEngine::new(&model), TimeDelta::from_mins(60));
        session.begin(Timestamp::ZERO, Timestamp::from_hours(4));
        let device = DeviceId::Sensor(s0);
        let first = Timestamp::from_mins(10);
        assert!(session.deliver(report(first, vec![device])).is_some());
        let at_cooldown = first + TimeDelta::from_mins(60);
        assert!(
            session.deliver(report(at_cooldown, vec![device])).is_none(),
            "a repeat at exactly the cooldown is suppressed"
        );
        let after = at_cooldown + TimeDelta::from_secs(1);
        assert!(session.deliver(report(after, vec![device])).is_some());
        // A report naming no device passes every time.
        assert!(session.deliver(report(after, Vec::new())).is_some());
        assert!(session.deliver(report(after, Vec::new())).is_some());
    }

    #[test]
    fn windows_align_and_the_tail_clips_at_an_unaligned_end() {
        let (s0, model) = trained();
        let mut session = HomeSession::new(DiceEngine::new(&model), TimeDelta::from_mins(60));
        let from = Timestamp::from_secs(30);
        let to = Timestamp::from_secs(150);
        session.begin(from, to);
        assert!(!session.admits(Timestamp::ZERO));
        assert!(!session.admits(to));
        let event = |secs| {
            Event::Sensor(SensorReading::new(
                s0,
                Timestamp::from_secs(secs),
                true.into(),
            ))
        };
        let mut closed = Vec::new();
        for secs in [40, 70, 130] {
            let at = Timestamp::from_secs(secs);
            assert!(session.admits(at));
            while let Some(window) = session.close_before(at) {
                closed.push(window);
            }
            session.push(event(secs));
        }
        while let Some(window) = session.drain() {
            closed.push(window);
        }
        let bounds: Vec<_> = closed
            .iter()
            .map(|w| (w.start.as_secs(), w.end.as_secs(), w.events.len()))
            .collect();
        // The first window opens at `from` aligned down; the last ends at
        // `to`, half a window in.
        assert_eq!(bounds, vec![(0, 60, 1), (60, 120, 1), (120, 150, 1)]);
        assert!(session.drain().is_none());
    }
}
