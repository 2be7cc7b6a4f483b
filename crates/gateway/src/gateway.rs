//! The home gateway: merges aggregator streams and drives the DICE engine
//! online.
//!
//! The gateway performs a k-way time-ordered merge over the aggregator
//! channels and feeds the merged stream to one [`HomeSession`], which
//! closes windows, drives the real-time engine, and applies the alarm
//! cooldown. Fault reports are pushed to an alarm channel the moment
//! identification completes — this is the deployment shape of Figure 3.1,
//! with threads and channels standing in for the CoAP fabric.
//
// lint-src: allow-file(wall-clock) — window close-to-verdict timing feeds
// the dice_gateway_window_ns observability sketch only; nothing downstream
// branches on it.

use std::borrow::Borrow;
use std::collections::BTreeSet;
use std::time::Instant;

use bytes::Bytes;
use crossbeam::channel::{Receiver, Sender};
use parking_lot::Mutex;

use dice_core::trace::{write_header_line, write_trace_line};
use dice_core::{DecisionTrace, DiceEngine, DiceModel, EngineOptions, FaultReport, TraceHeader};
use dice_telemetry::{saturating_ns, shard_label, Recorder, Telemetry};
use dice_types::{DeviceId, Event, Timestamp};

use crate::message::{decode_event, FrameError};
use crate::session::{ClosedWindow, HomeSession};

/// An alarm pushed by the gateway when a fault is identified.
#[derive(Debug, Clone, PartialEq)]
pub struct Alarm {
    /// The completed fault report.
    pub report: FaultReport,
}

impl Alarm {
    /// The identified faulty devices.
    pub fn devices(&self) -> BTreeSet<DeviceId> {
        self.report.devices.iter().copied().collect()
    }
}

/// Summary of one gateway run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GatewayStats {
    /// Windows processed.
    pub windows: u64,
    /// Merged events accepted into the monitored range.
    pub events: u64,
    /// Frames that failed to decode and were dropped.
    pub decode_errors: u64,
    /// Decoded events outside the monitored range, dropped.
    pub out_of_range: u64,
    /// Alarms raised.
    pub alarms: u64,
    /// Alarms suppressed by the cooldown.
    pub suppressed: u64,
}

/// The home gateway.
///
/// Holds its session (engine, open window, cooldown ledger) behind a mutex
/// so runs can take `&self`; a run holds the lock from start to finish, so
/// runs on one gateway serialize. The engine keeps its state across runs.
#[derive(Debug)]
pub struct HomeGateway<M: Borrow<DiceModel>> {
    session: Mutex<HomeSession<M>>,
    telemetry: Telemetry,
    /// The `home` label this gateway's dimensional metrics record under.
    home: String,
    /// When set, every alarm's trace evidence is appended here as JSONL
    /// (one layout header for the whole stream, then the evidence traces of
    /// each alarm in order). Requires tracing to be enabled in the engine
    /// options, or alarms carry no evidence and nothing is written.
    trace_snapshots: Option<Mutex<SnapshotWriter>>,
}

/// The alarm-snapshot sink: a boxed writer plus header/failure state.
struct SnapshotWriter {
    out: Box<dyn std::io::Write + Send>,
    header_written: bool,
    failed: bool,
}

impl std::fmt::Debug for SnapshotWriter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SnapshotWriter")
            .field("header_written", &self.header_written)
            .field("failed", &self.failed)
            .finish_non_exhaustive()
    }
}

impl SnapshotWriter {
    /// Appends one alarm's evidence. I/O errors latch `failed` and silence
    /// the writer — a full disk must not take the alarm path down.
    fn write_snapshot(
        &mut self,
        header: &TraceHeader,
        evidence: &[DecisionTrace],
        recorder: Option<&Recorder>,
    ) {
        if self.failed {
            return;
        }
        let mut text = String::new();
        if !self.header_written {
            write_header_line(&mut text, header);
            self.header_written = true;
        }
        for trace in evidence {
            write_trace_line(&mut text, trace);
        }
        match self
            .out
            .write_all(text.as_bytes())
            .and_then(|()| self.out.flush())
        {
            Ok(()) => {
                if let Some(rec) = recorder {
                    rec.metrics
                        .trace
                        .snapshot_bytes_total
                        .add(text.len() as u64);
                }
            }
            Err(_) => self.failed = true,
        }
    }
}

impl<M: Borrow<DiceModel>> HomeGateway<M> {
    /// Creates a gateway around a trained model handle with the default
    /// one-hour alarm cooldown.
    pub fn new(model: M) -> Self {
        Self::with_cooldown(model, dice_types::TimeDelta::from_mins(60))
    }

    /// Creates a gateway with an explicit alarm cooldown: repeat reports
    /// naming a device already alarmed within the cooldown are suppressed
    /// (an ongoing fault keeps violating until the device is fixed, but the
    /// user needs one alarm, not one per minute).
    pub fn with_cooldown(model: M, alarm_cooldown: dice_types::TimeDelta) -> Self {
        Self::with_telemetry(model, alarm_cooldown, Telemetry::global())
    }

    /// Creates a gateway reporting to an explicit telemetry sink; the inner
    /// engine shares the same sink, so one recorder sees both layers.
    pub fn with_telemetry(
        model: M,
        alarm_cooldown: dice_types::TimeDelta,
        telemetry: Telemetry,
    ) -> Self {
        Self::with_engine_options(
            model,
            alarm_cooldown,
            EngineOptions {
                telemetry,
                ..EngineOptions::default()
            },
        )
    }

    /// Creates a gateway with explicit engine options (weights, telemetry,
    /// tracing). The gateway's own metrics use the same telemetry sink as
    /// the engine.
    pub fn with_engine_options(
        model: M,
        alarm_cooldown: dice_types::TimeDelta,
        options: EngineOptions,
    ) -> Self {
        let telemetry = options.telemetry.clone();
        HomeGateway {
            session: Mutex::new(HomeSession::new(
                DiceEngine::with_options(model, options),
                alarm_cooldown,
            )),
            telemetry,
            home: "home0".to_string(),
            trace_snapshots: None,
        }
    }

    /// Sets the `home` label this gateway records its per-home metric
    /// family children under (default `home0`). A fleet runner gives each
    /// gateway its own label so one recorder separates the homes.
    #[must_use]
    pub fn with_home(mut self, home: impl Into<String>) -> Self {
        self.home = home.into();
        self
    }

    /// Persists every alarm's trace evidence to `out` as JSONL (see
    /// [`dice_core::parse_trace_jsonl`] for the format). Pair with engine
    /// options that enable tracing, or there is no evidence to persist.
    #[must_use]
    pub fn with_alarm_trace_writer(mut self, out: Box<dyn std::io::Write + Send>) -> Self {
        self.trace_snapshots = Some(Mutex::new(SnapshotWriter {
            out,
            header_written: false,
            failed: false,
        }));
        self
    }

    /// Runs the gateway loop over `[from, to)`: merges the aggregator
    /// streams, closes windows, drives the engine, and pushes alarms.
    ///
    /// Returns when every aggregator has disconnected and all windows up to
    /// `to` are processed (including a final engine flush). Undecodable
    /// frames are counted and dropped — a broken aggregator must not take
    /// the home down.
    pub fn run(
        &self,
        inputs: Vec<Receiver<Bytes>>,
        alarms: &Sender<Alarm>,
        from: Timestamp,
        to: Timestamp,
    ) -> GatewayStats {
        self.run_with_observer(inputs, alarms, from, to, |_| {})
    }

    /// [`HomeGateway::run`] with a window hook: `on_window` fires after
    /// every window close with the window's end timestamp, giving callers a
    /// sim-time clock edge (the `monitor` dashboard drives its
    /// time-series sampling from it).
    pub fn run_with_observer(
        &self,
        inputs: Vec<Receiver<Bytes>>,
        alarms: &Sender<Alarm>,
        from: Timestamp,
        to: Timestamp,
        mut on_window: impl FnMut(Timestamp),
    ) -> GatewayStats {
        let mut stats = GatewayStats::default();
        let recorder = self.telemetry.recorder();
        let metrics = recorder.map(|rec| &rec.metrics.gateway);
        // Resolve dimensional children once: the hot loop records through
        // plain Arc handles, never the family mutex.
        let home = [self.home.as_str()];
        let home_windows = metrics.map(|m| m.home_windows_total.with_label_values(&home));
        let home_alarms = metrics.map(|m| m.home_alarms_total.with_label_values(&home));
        let out_of_range =
            metrics.map(|m| m.dropped_events_total.with_label_values(&["out_of_range"]));
        let mut guard = self.session.lock();
        let session = &mut *guard;
        session.begin(from, to);
        let trace_header = self
            .trace_snapshots
            .is_some()
            .then(|| TraceHeader::from_layout(session.engine().model().layout()));

        // K-way merge state: one pending event per live stream.
        let mut streams: Vec<Option<Receiver<Bytes>>> = inputs.into_iter().map(Some).collect();
        let mut pending: Vec<Option<Event>> = vec![None; streams.len()];
        let shard_depths: Vec<_> = metrics
            .map(|m| {
                (0..streams.len())
                    .map(|shard| m.shard_depth.with_label_values(&[&shard_label(shard)]))
                    .collect()
            })
            .unwrap_or_default();
        if let Some(m) = metrics {
            m.streams_connected.set(streams.len() as i64);
        }

        // Passes a report through the session's cooldown and publishes it.
        let publish = |session: &mut HomeSession<M>, stats: &mut GatewayStats, report| {
            let Some(report) = session.deliver(report) else {
                stats.suppressed += 1;
                if let Some(m) = metrics {
                    m.alarms_suppressed_total.inc();
                }
                return;
            };
            stats.alarms += 1;
            if let (Some(m), Some(home)) = (metrics, &home_alarms) {
                m.alarms_total.inc();
                home.inc();
            }
            if let (Some(writer), Some(header)) = (&self.trace_snapshots, &trace_header) {
                if !report.evidence.is_empty() {
                    writer
                        .lock()
                        .write_snapshot(header, &report.evidence, recorder);
                }
            }
            let _ = alarms.send(Alarm { report });
        };
        // Runs one closed window through the engine and the alarm path.
        let mut close =
            |session: &mut HomeSession<M>, stats: &mut GatewayStats, window: ClosedWindow| {
                let end = window.end;
                let opened = recorder.map(|_| Instant::now());
                if let Some(report) = session.process(window, None) {
                    publish(session, stats, report);
                }
                stats.windows += 1;
                if let (Some(m), Some(home), Some(opened)) = (metrics, &home_windows, opened) {
                    m.windows_total.inc();
                    m.window_ns
                        .record(saturating_ns(opened.elapsed().as_nanos()));
                    home.inc();
                }
                on_window(end);
            };

        'merge: loop {
            // Sample fan-in pressure before draining: the high-water mark of
            // frames queued across all live aggregator channels.
            if let Some(m) = metrics {
                let mut depth = 0usize;
                for (shard, rx) in streams.iter().enumerate() {
                    let Some(rx) = rx else { continue };
                    let len = rx.len();
                    depth += len;
                    shard_depths[shard].set_max(len as i64);
                }
                m.channel_depth.set_max(depth as i64);
            }

            // Refill pending slots.
            for (slot, stream) in streams.iter_mut().enumerate() {
                while pending[slot].is_none() {
                    let Some(rx) = stream else { break };
                    match rx.recv() {
                        Ok(frame) => {
                            if let Some(m) = metrics {
                                m.frames_total.inc();
                            }
                            match decode_event(frame) {
                                Ok(event) => pending[slot] = Some(event),
                                Err(
                                    error @ (FrameError::Truncated
                                    | FrameError::UnknownTag(_)
                                    | FrameError::BadBool(_)),
                                ) => {
                                    stats.decode_errors += 1;
                                    if let Some(rec) = recorder {
                                        rec.metrics.gateway.decode_errors_total.inc();
                                        rec.events
                                            .push("decode_error", format!("slot {slot}: {error}"));
                                    }
                                }
                            }
                        }
                        Err(_) => {
                            *stream = None; // aggregator hung up
                            if let Some(m) = metrics {
                                m.streams_connected.add(-1);
                            }
                            break;
                        }
                    }
                }
            }

            // Pick the earliest pending event.
            let next = pending
                .iter()
                .enumerate()
                .filter_map(|(i, e)| e.map(|e| (i, e)))
                .min_by_key(|(_, e)| e.at());
            let Some((slot, event)) = next else {
                break 'merge; // all streams done
            };
            pending[slot] = None;

            if !session.admits(event.at()) {
                stats.out_of_range += 1;
                if let Some(dropped) = &out_of_range {
                    dropped.inc();
                }
                continue;
            }
            stats.events += 1;
            if let Some(m) = metrics {
                m.events_total.inc();
            }
            while let Some(window) = session.close_before(event.at()) {
                close(session, &mut stats, window);
            }
            session.push(event);
        }

        while let Some(window) = session.drain() {
            close(session, &mut stats, window);
        }
        if let Some(report) = session.flush() {
            publish(session, &mut stats, report);
        }
        stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregator::{partition_by_device, spawn_aggregator};
    use crossbeam::channel::unbounded;
    use dice_core::{ContextExtractor, DiceConfig};
    use dice_types::{DeviceRegistry, EventLog, Room, SensorKind, SensorReading, TimeDelta};

    fn training_home() -> (DeviceRegistry, Vec<dice_types::SensorId>, DiceModel) {
        let mut reg = DeviceRegistry::new();
        let s0 = reg.add_sensor(SensorKind::Motion, "s0", Room::Kitchen);
        let s1 = reg.add_sensor(SensorKind::Motion, "s1", Room::Kitchen);
        let s2 = reg.add_sensor(SensorKind::Motion, "s2", Room::Bedroom);
        let mut log = EventLog::new();
        for minute in 0..240 {
            let at = Timestamp::from_mins(minute) + TimeDelta::from_secs(5);
            if minute % 2 == 0 {
                log.push_sensor(SensorReading::new(s0, at, true.into()));
                log.push_sensor(SensorReading::new(s1, at, true.into()));
            } else {
                log.push_sensor(SensorReading::new(s2, at, true.into()));
            }
        }
        let model = ContextExtractor::new(DiceConfig::default())
            .extract(&reg, &mut log)
            .unwrap();
        (reg, vec![s0, s1, s2], model)
    }

    fn live_events(sensors: &[dice_types::SensorId], minutes: i64, drop_s1: bool) -> Vec<Event> {
        let mut log = EventLog::new();
        for minute in 0..minutes {
            let at = Timestamp::from_mins(minute) + TimeDelta::from_secs(5);
            if minute % 2 == 0 {
                log.push_sensor(SensorReading::new(sensors[0], at, true.into()));
                if !drop_s1 {
                    log.push_sensor(SensorReading::new(sensors[1], at, true.into()));
                }
            } else {
                log.push_sensor(SensorReading::new(sensors[2], at, true.into()));
            }
        }
        log.into_events().collect()
    }

    fn run_gateway(
        model: &DiceModel,
        events: Vec<Event>,
        minutes: i64,
    ) -> (GatewayStats, Vec<Alarm>) {
        let parts = partition_by_device(&events, 3);
        let mut receivers = Vec::new();
        let mut handles = Vec::new();
        for (i, part) in parts.into_iter().enumerate() {
            let (tx, rx) = unbounded();
            handles.push(spawn_aggregator(format!("a{i}"), part, tx));
            receivers.push(rx);
        }
        let (alarm_tx, alarm_rx) = unbounded();
        let gateway = HomeGateway::new(model);
        let stats = gateway.run(
            receivers,
            &alarm_tx,
            Timestamp::ZERO,
            Timestamp::from_mins(minutes),
        );
        for handle in handles {
            handle.join().unwrap();
        }
        drop(alarm_tx);
        let alarms: Vec<Alarm> = alarm_rx.iter().collect();
        (stats, alarms)
    }

    #[test]
    fn healthy_stream_raises_no_alarms() {
        let (_, sensors, model) = training_home();
        let (stats, alarms) = run_gateway(&model, live_events(&sensors, 60, false), 60);
        assert_eq!(stats.windows, 60);
        assert_eq!(stats.events, 90);
        assert!(alarms.is_empty(), "unexpected alarms: {alarms:?}");
    }

    #[test]
    fn fail_stop_raises_an_alarm_with_the_faulty_sensor() {
        let (_, sensors, model) = training_home();
        let (stats, alarms) = run_gateway(&model, live_events(&sensors, 60, true), 60);
        assert!(stats.alarms >= 1);
        assert!(!alarms.is_empty());
        assert!(alarms[0].devices().contains(&DeviceId::Sensor(sensors[1])));
    }

    #[test]
    fn streaming_matches_offline_replay() {
        let (_, sensors, model) = training_home();
        let events = live_events(&sensors, 60, true);
        // Offline.
        let mut log: EventLog = events.iter().copied().collect();
        let mut engine = DiceEngine::new(&model);
        let mut offline = engine.process_range(&mut log, Timestamp::ZERO, Timestamp::from_mins(60));
        offline.extend(engine.flush());
        // Streaming (the gateway deduplicates repeat alarms, so compare the
        // first report, which carries the detection).
        let (_, alarms) = run_gateway(&model, events, 60);
        let streamed: Vec<FaultReport> = alarms.into_iter().map(|a| a.report).collect();
        assert!(!streamed.is_empty());
        assert_eq!(streamed[0], offline[0]);
    }

    #[test]
    fn telemetry_sees_gateway_and_engine_layers_in_one_recorder() {
        let (_, sensors, model) = training_home();
        let telemetry = Telemetry::recording();
        let events = live_events(&sensors, 60, true);
        let parts = partition_by_device(&events, 3);
        let mut receivers = Vec::new();
        let mut handles = Vec::new();
        for (i, part) in parts.into_iter().enumerate() {
            let (tx, rx) = unbounded();
            handles.push(spawn_aggregator(format!("a{i}"), part, tx));
            receivers.push(rx);
        }
        let (alarm_tx, _alarm_rx) = unbounded();
        let gateway =
            HomeGateway::with_telemetry(&model, TimeDelta::from_mins(60), telemetry.clone());
        let stats = gateway.run(
            receivers,
            &alarm_tx,
            Timestamp::ZERO,
            Timestamp::from_mins(60),
        );
        for handle in handles {
            handle.join().unwrap();
        }
        let snapshot = telemetry.snapshot().unwrap();
        assert_eq!(
            snapshot.counter("dice_gateway_windows_total"),
            Some(stats.windows)
        );
        assert_eq!(
            snapshot.counter("dice_gateway_events_total"),
            Some(stats.events)
        );
        // Every frame carried one event; out-of-range events are received
        // but not accepted, so frames >= accepted events.
        assert!(snapshot.counter("dice_gateway_frames_total").unwrap() >= stats.events);
        assert_eq!(
            snapshot.counter("dice_gateway_alarms_total"),
            Some(stats.alarms)
        );
        // The engine shares the recorder: its windows match the gateway's.
        assert_eq!(
            snapshot.counter("dice_engine_windows_total"),
            Some(stats.windows)
        );
        // All aggregators hung up by the end of the run.
        assert_eq!(snapshot.gauge("dice_gateway_streams_connected"), Some(0));
        // Dimensional mirrors: the default home label carries the same
        // counts, and every window fed the latency sketch.
        assert_eq!(
            snapshot.family_value("dice_gateway_home_windows_total", &["home0"]),
            Some(i128::from(stats.windows))
        );
        assert_eq!(
            snapshot.family_value("dice_gateway_home_alarms_total", &["home0"]),
            Some(i128::from(stats.alarms))
        );
        let (count, _) = snapshot.sketch("dice_gateway_window_ns").unwrap();
        assert_eq!(count, stats.windows);
        assert!(snapshot
            .family_value("dice_gateway_shard_depth", &["s0"])
            .is_some());
    }

    #[test]
    fn observer_fires_once_per_window_in_order() {
        let (_, sensors, model) = training_home();
        let events = live_events(&sensors, 10, false);
        let (tx, rx) = unbounded();
        for event in &events {
            tx.send(crate::message::encode_event(event)).unwrap();
        }
        drop(tx);
        let (alarm_tx, _alarm_rx) = unbounded();
        let gateway = HomeGateway::new(&model).with_home("hX");
        let mut closed = Vec::new();
        let stats = gateway.run_with_observer(
            vec![rx],
            &alarm_tx,
            Timestamp::ZERO,
            Timestamp::from_mins(10),
            |end| closed.push(end),
        );
        assert_eq!(closed.len() as u64, stats.windows);
        assert!(
            closed.windows(2).all(|w| w[0] < w[1]),
            "out of order: {closed:?}"
        );
        assert_eq!(*closed.last().unwrap(), Timestamp::from_mins(10));
    }

    #[test]
    fn alarm_trace_snapshots_persist_as_parseable_jsonl() {
        let (_, sensors, model) = training_home();
        // A Write handle over a shared buffer, so the test can read back
        // what the gateway persisted.
        struct SharedBuf(std::sync::Arc<Mutex<Vec<u8>>>);
        impl std::io::Write for SharedBuf {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }
        let buffer = std::sync::Arc::new(Mutex::new(Vec::new()));
        let options = EngineOptions {
            trace: dice_core::TraceOptions::recording(),
            ..EngineOptions::default()
        };
        let gateway = HomeGateway::with_engine_options(&model, TimeDelta::from_mins(60), options)
            .with_alarm_trace_writer(Box::new(SharedBuf(std::sync::Arc::clone(&buffer))));

        let events = live_events(&sensors, 60, true);
        let parts = partition_by_device(&events, 3);
        let mut receivers = Vec::new();
        let mut handles = Vec::new();
        for (i, part) in parts.into_iter().enumerate() {
            let (tx, rx) = unbounded();
            handles.push(spawn_aggregator(format!("a{i}"), part, tx));
            receivers.push(rx);
        }
        let (alarm_tx, alarm_rx) = unbounded();
        let stats = gateway.run(
            receivers,
            &alarm_tx,
            Timestamp::ZERO,
            Timestamp::from_mins(60),
        );
        for handle in handles {
            handle.join().unwrap();
        }
        drop(alarm_tx);
        let alarms: Vec<Alarm> = alarm_rx.iter().collect();
        assert!(stats.alarms >= 1);
        assert!(!alarms[0].report.evidence.is_empty());

        let text = String::from_utf8(buffer.lock().clone()).unwrap();
        let log = dice_core::parse_trace_jsonl(&text).expect("snapshot parses");
        assert!(!log.traces.is_empty());
        assert!(log.traces.iter().any(|t| t.reported));
        // The evidence explains the alarm: the failed sensor is named.
        let rendered = dice_core::render_explain(&log, None).unwrap();
        assert!(
            rendered.contains(&format!("{}", DeviceId::Sensor(sensors[1]))),
            "explain must name the faulty sensor:\n{rendered}"
        );
    }

    #[test]
    fn every_frame_is_accepted_or_counted_as_a_drop() {
        let (_, sensors, model) = training_home();
        let events = live_events(&sensors, 10, true);
        let (from, to) = (Timestamp::from_mins(2), Timestamp::from_mins(8));
        let (tx, rx) = unbounded();
        tx.send(Bytes::from_static(&[0xFF])).unwrap(); // garbage
        for event in &events {
            tx.send(crate::message::encode_event(event)).unwrap();
        }
        drop(tx);
        let frames = events.len() as u64 + 1;
        let telemetry = Telemetry::recording();
        let (alarm_tx, _alarm_rx) = unbounded();
        let gateway =
            HomeGateway::with_telemetry(&model, TimeDelta::from_mins(60), telemetry.clone());
        let stats = gateway.run(vec![rx], &alarm_tx, from, to);
        assert_eq!(stats.decode_errors, 1);
        assert!(stats.events > 0 && stats.out_of_range > 0);
        assert_eq!(
            frames,
            stats.events + stats.decode_errors + stats.out_of_range
        );
        let snapshot = telemetry.snapshot().unwrap();
        assert_eq!(snapshot.counter("dice_gateway_frames_total"), Some(frames));
        assert_eq!(
            snapshot.family_value("dice_gateway_dropped_events_total", &["out_of_range"]),
            Some(i128::from(stats.out_of_range))
        );
    }

    #[test]
    fn undecodable_frames_are_counted_not_fatal() {
        let (_, sensors, model) = training_home();
        let (tx, rx) = unbounded();
        tx.send(Bytes::from_static(&[0xFF])).unwrap(); // garbage
        for event in live_events(&sensors, 4, false) {
            tx.send(crate::message::encode_event(&event)).unwrap();
        }
        drop(tx);
        let (alarm_tx, _alarm_rx) = unbounded();
        let gateway = HomeGateway::new(&model);
        let stats = gateway.run(
            vec![rx],
            &alarm_tx,
            Timestamp::ZERO,
            Timestamp::from_mins(4),
        );
        assert_eq!(stats.decode_errors, 1);
        assert_eq!(stats.events, 6);
    }
}
