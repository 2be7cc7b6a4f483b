//! The single-home path and its layers, timed through public calls:
//! gateway serving, frame decode, and the engine replayed window by
//! window, split into binarize, main-group lookup and candidate scan.
//
// Each layer is timed over every window of its inputs, pass by pass,
// and the median pass is reported.

use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver};
use dice_core::{
    BinarizeScratch, BitSet, Candidate, DiceEngine, DiceModel, FaultReport, WindowObservation,
};
use dice_gateway::{
    decode_event_slice, encode_event, partition_by_device, GatewayStats, HomeGateway,
};
use dice_types::{DeviceId, Event, TimeDelta, Timestamp};

use crate::measure::{allocs, median_pass};

/// The gateway's default alarm cooldown, applied to the offline reference.
const ALARM_COOLDOWN: TimeDelta = TimeDelta::from_mins(60);

/// One home's monitored stream and the model that serves it.
#[derive(Debug, Clone)]
pub struct HomeInput {
    /// The serving model.
    pub model: Arc<DiceModel>,
    /// The monitored events, in time order.
    pub events: Vec<Event>,
    /// Start of the monitored range (window-aligned).
    pub from: Timestamp,
    /// End of the monitored range.
    pub to: Timestamp,
}

impl HomeInput {
    /// The windows tiling `[from, to)` and each one's slice of `events`,
    /// exactly as the gateway closes them.
    pub fn windows(&self) -> Vec<(Timestamp, Timestamp, Range<usize>)> {
        let step = self.model.config().window();
        let mut out = Vec::new();
        let mut start = self.from.align_down(step);
        let mut lo = self.events.partition_point(|e| e.at() < start);
        while start < self.to {
            let end = (start + step).min(self.to);
            let hi = lo + self.events[lo..].partition_point(|e| e.at() < end);
            out.push((start, end, lo..hi));
            lo = hi;
            start = end;
        }
        out
    }

    /// The offline reference: an engine replay of the stream with the
    /// gateway's alarm cooldown applied to its reports.
    pub fn reference_alarms(&self) -> Vec<FaultReport> {
        let mut log = dice_types::EventLog::with_capacity(self.events.len());
        for event in &self.events {
            log.push(*event);
        }
        let mut engine = DiceEngine::new(Arc::clone(&self.model));
        let mut reports = engine.process_range(&mut log, self.from, self.to);
        reports.extend(engine.flush());
        cooldown(reports, ALARM_COOLDOWN)
    }
}

/// Keeps the reports a gateway with `cooldown` delivers: a report passes
/// if it names a device not alarmed within the cooldown, or no device.
pub fn cooldown(reports: Vec<FaultReport>, cooldown: TimeDelta) -> Vec<FaultReport> {
    let mut last: std::collections::BTreeMap<DeviceId, Timestamp> = Default::default();
    reports
        .into_iter()
        .filter(|report| {
            let now = report.identified_at;
            let fresh = report
                .devices
                .iter()
                .any(|d| last.get(d).is_none_or(|&at| now - at > cooldown));
            if fresh || report.devices.is_empty() {
                for &d in &report.devices {
                    last.insert(d, now);
                }
                true
            } else {
                false
            }
        })
        .collect()
}

/// A home's stream encoded as gateway frames over `streams` aggregators.
#[derive(Debug, Clone)]
pub struct GatewayFrames {
    /// Frames per aggregator stream, each in time order.
    pub parts: Vec<Vec<Bytes>>,
    /// Total frames.
    pub frames: u64,
}

impl GatewayFrames {
    /// Splits `events` by device over `streams` aggregators and encodes them.
    pub fn encode(events: &[Event], streams: usize) -> Self {
        let parts: Vec<Vec<Bytes>> = partition_by_device(events, streams)
            .iter()
            .map(|part| part.iter().map(encode_event).collect())
            .collect();
        let frames = parts.iter().map(|p| p.len() as u64).sum();
        GatewayFrames { parts, frames }
    }

    /// Queues every frame on fresh unbounded channels whose senders are
    /// closed, so a gateway run finds its whole input waiting.
    pub fn queue(&self) -> Vec<Receiver<Bytes>> {
        self.parts
            .iter()
            .map(|part| {
                let (tx, rx) = unbounded();
                for frame in part {
                    tx.send(frame.clone()).expect("receiver is alive");
                }
                rx
            })
            .collect()
    }
}

/// One gateway serving pass.
#[derive(Debug)]
pub struct GatewayRep {
    /// Wall time of `run_with_observer`, in ns.
    pub wall_ns: f64,
    /// Allocations made during the run (traced binary only).
    pub allocs: u64,
    /// The gateway's counters.
    pub stats: GatewayStats,
    /// Alarms delivered, in order.
    pub alarms: Vec<FaultReport>,
}

/// Serves queued input through `gateway` on this thread, pushing the gap
/// between successive window callbacks (µs) onto `gaps`. The gateway
/// should be fresh: its engine keeps state from earlier runs.
pub fn serve_gateway(
    gateway: &HomeGateway<Arc<DiceModel>>,
    inputs: Vec<Receiver<Bytes>>,
    from: Timestamp,
    to: Timestamp,
    gaps: &mut Vec<f64>,
) -> GatewayRep {
    let (alarm_tx, alarm_rx) = unbounded();
    let mut last: Option<Instant> = None;
    let a0 = allocs();
    let t0 = Instant::now();
    let stats = gateway.run_with_observer(inputs, &alarm_tx, from, to, |_| {
        let now = Instant::now();
        if let Some(prev) = last {
            gaps.push((now - prev).as_nanos() as f64 / 1e3);
        }
        last = Some(now);
    });
    let wall_ns = t0.elapsed().as_nanos() as f64;
    let allocs = allocs() - a0;
    drop(alarm_tx);
    GatewayRep {
        wall_ns,
        allocs,
        stats,
        alarms: alarm_rx.iter().map(|a| a.report).collect(),
    }
}

/// Failures of one gateway pass against its reference: dropped or
/// undecodable frames, missing windows, and alarm differences.
pub fn gateway_failures(
    rep: &GatewayRep,
    frames: u64,
    windows: u64,
    expected: &[FaultReport],
) -> u64 {
    let alarm_diff = rep.alarms.len().abs_diff(expected.len())
        + rep
            .alarms
            .iter()
            .zip(expected)
            .filter(|(a, b)| a != b)
            .count();
    rep.stats.decode_errors
        + frames.saturating_sub(rep.stats.events)
        + windows.abs_diff(rep.stats.windows)
        + alarm_diff as u64
}

/// Input properties: how many windows, events, and windows whose state
/// has no main group in the model.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Properties {
    /// Windows in the monitored ranges.
    pub windows: u64,
    /// Events in those windows.
    pub events: u64,
    /// Windows whose binarized state is not a trained group.
    pub no_main_group: u64,
}

impl Properties {
    /// Binarizes every window of `inputs` and looks up its main group.
    pub fn of(inputs: &[HomeInput]) -> Self {
        let mut props = Properties::default();
        for input in inputs {
            let binarizer = input.model.binarizer();
            let mut scratch = BinarizeScratch::default();
            let mut obs = WindowObservation::default();
            for (start, end, range) in input.windows() {
                binarizer.binarize_into(
                    start,
                    end,
                    &input.events[range.clone()],
                    &mut scratch,
                    &mut obs,
                );
                props.windows += 1;
                props.events += range.len() as u64;
                props.no_main_group += u64::from(input.model.groups().lookup(&obs.state).is_none());
            }
        }
        props
    }

    /// Mean events per window.
    pub fn events_per_window(&self) -> f64 {
        self.events as f64 / self.windows.max(1) as f64
    }

    /// Share of windows with no main group.
    pub fn no_main_group_share(&self) -> f64 {
        self.no_main_group as f64 / self.windows.max(1) as f64
    }
}

/// Per-window costs of the engine and its stages on a set of homes.
#[derive(Debug, Clone, Copy, Default)]
pub struct CoreLayers {
    /// Windows replayed per pass.
    pub windows: u64,
    /// `process_window` (plus the closing flush), ns per window.
    pub engine_ns: f64,
    /// Allocations per window in the engine replay.
    pub engine_allocs: f64,
    /// `binarize_into`, ns per window.
    pub binarize_ns: f64,
    /// Events per window.
    pub events_per_window: f64,
    /// Main-group `lookup`, ns per window.
    pub lookup_ns: f64,
    /// Scan ns per query.
    pub scan_ns_per_query: f64,
    /// Scan queries per window.
    pub queries_per_window: f64,
    /// Rows examined (not pruned) per query.
    pub rows_per_query: f64,
    /// Share of windows after which the engine is identifying.
    pub identifying_share: f64,
}

impl CoreLayers {
    /// Engine time not spent in binarize, lookup or scan, ns per window.
    pub fn rest_ns(&self) -> f64 {
        self.engine_ns
            - self.binarize_ns
            - self.lookup_ns
            - self.scan_ns_per_query * self.queries_per_window
    }

    /// Times every layer over every window of `inputs`.
    pub fn measure(inputs: &[HomeInput]) -> Self {
        let windows: Vec<_> = inputs.iter().map(HomeInput::windows).collect();
        let total: u64 = windows.iter().map(|w| w.len() as u64).sum();
        let per_window = |ns: f64| ns / total.max(1) as f64;

        let (engine_ns, engine_allocs) = median_pass(|| {
            for (input, wins) in inputs.iter().zip(&windows) {
                let mut engine = DiceEngine::new(Arc::clone(&input.model));
                for (start, end, range) in wins {
                    std::hint::black_box(engine.process_window(
                        *start,
                        *end,
                        &input.events[range.clone()],
                    ));
                }
                std::hint::black_box(engine.flush());
            }
        });

        let mut identifying = 0u64;
        for (input, wins) in inputs.iter().zip(&windows) {
            let mut engine = DiceEngine::new(Arc::clone(&input.model));
            for (start, end, range) in wins {
                let _ = engine.process_window(*start, *end, &input.events[range.clone()]);
                identifying += u64::from(engine.is_identifying());
            }
        }

        let mut scratch = BinarizeScratch::default();
        let mut obs = WindowObservation::default();
        let (binarize_ns, _) = median_pass(|| {
            for (input, wins) in inputs.iter().zip(&windows) {
                let binarizer = input.model.binarizer();
                for (start, end, range) in wins {
                    binarizer.binarize_into(
                        *start,
                        *end,
                        &input.events[range.clone()],
                        &mut scratch,
                        &mut obs,
                    );
                    std::hint::black_box(&obs);
                }
            }
        });

        // States per home, binarized once, for the lookup and scan passes.
        let states: Vec<Vec<BitSet>> = inputs
            .iter()
            .zip(&windows)
            .map(|(input, wins)| {
                wins.iter()
                    .map(|(start, end, range)| {
                        input.model.binarizer().binarize_into(
                            *start,
                            *end,
                            &input.events[range.clone()],
                            &mut scratch,
                            &mut obs,
                        );
                        obs.state.clone()
                    })
                    .collect()
            })
            .collect();
        let (lookup_ns, _) = median_pass(|| {
            for (input, home_states) in inputs.iter().zip(&states) {
                for state in home_states {
                    std::hint::black_box(input.model.groups().lookup(std::hint::black_box(state)));
                }
            }
        });

        // The engine scans a window's state when it has no main group,
        // and falls back to the nearest groups when no candidate is in
        // range.
        let misses: Vec<Vec<&BitSet>> = inputs
            .iter()
            .zip(&states)
            .map(|(input, home_states)| {
                home_states
                    .iter()
                    .filter(|s| input.model.groups().lookup(s).is_none())
                    .collect()
            })
            .collect();
        let mut out: Vec<Candidate> = Vec::new();
        let mut queries = 0u64;
        let mut rows = 0u64;
        for (input, home_misses) in inputs.iter().zip(&misses) {
            let scan = input.model.scan();
            for state in home_misses {
                let p = scan.candidates_into(state, input.model.candidate_distance(), &mut out);
                queries += 1;
                rows += u64::from(p.rows - p.pruned);
                if out.is_empty() {
                    let p = scan.nearest_into(state, &mut out);
                    queries += 1;
                    rows += u64::from(p.rows - p.pruned);
                }
            }
        }
        let (scan_ns, _) = median_pass(|| {
            for (input, home_misses) in inputs.iter().zip(&misses) {
                let scan = input.model.scan();
                for state in home_misses {
                    std::hint::black_box(scan.candidates_into(
                        state,
                        input.model.candidate_distance(),
                        &mut out,
                    ));
                    if out.is_empty() {
                        std::hint::black_box(scan.nearest_into(state, &mut out));
                    }
                }
            }
        });

        let events: usize = windows.iter().flatten().map(|(_, _, r)| r.len()).sum();
        CoreLayers {
            windows: total,
            engine_ns: per_window(engine_ns),
            engine_allocs: engine_allocs as f64 / total.max(1) as f64,
            binarize_ns: per_window(binarize_ns),
            events_per_window: events as f64 / total.max(1) as f64,
            lookup_ns: per_window(lookup_ns),
            scan_ns_per_query: scan_ns / queries.max(1) as f64,
            queries_per_window: queries as f64 / total.max(1) as f64,
            rows_per_query: rows as f64 / queries.max(1) as f64,
            identifying_share: identifying as f64 / total.max(1) as f64,
        }
    }
}

/// `decode_event_slice` over every frame, ns per frame.
pub fn gateway_decode_ns(homes: &[GatewayFrames]) -> f64 {
    let count: u64 = homes.iter().map(|f| f.frames).sum();
    let (ns, _) = median_pass(|| {
        for frame in homes.iter().flat_map(|home| home.parts.iter().flatten()) {
            std::hint::black_box(
                decode_event_slice(frame.as_slice()).expect("frame encodes an event"),
            );
        }
    });
    ns / count.max(1) as f64
}
