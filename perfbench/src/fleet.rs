//! The fleet path and its layers: wire-frame encode and decode, the
//! sender and its back-pressure, and the shard engine on one thread.

use std::sync::Arc;
use std::time::Instant;

use bytes::{Bytes, BytesMut};
use dice_core::DiceModel;
use dice_fleet::{
    decode_frames, encode_frame_into, Fleet, FleetConfig, FleetRun, HomeId, ShardEngine,
};
use dice_types::{Event, Timestamp};

use crate::measure::{median, median_pass, nproc, timed};
use crate::report::Metrics;

/// The serving configuration: one shard per core but one, which the
/// feeding thread keeps.
pub fn fleet_config() -> FleetConfig {
    FleetConfig {
        shards: nproc().saturating_sub(1).max(1),
        ..FleetConfig::default()
    }
}

/// A fleet's homes and the frames fed to it, generated before serving.
#[derive(Debug, Clone)]
pub struct FleetInput {
    /// Registered homes and their (shared) models.
    pub homes: Vec<(HomeId, Arc<DiceModel>)>,
    /// Events in send order.
    pub feed: Vec<(HomeId, Event)>,
    /// Start of the served range.
    pub from: Timestamp,
    /// End of the served range.
    pub to: Timestamp,
    /// Feed indices at which each timing slice starts.
    pub slices: Vec<usize>,
    /// Windows (home-minutes) per timing slice.
    pub slice_windows: f64,
}

impl FleetInput {
    /// A fleet of one home fed `events` in time order.
    pub fn single(model: Arc<DiceModel>, events: &[Event], from: Timestamp, to: Timestamp) -> Self {
        FleetInput {
            homes: vec![(0, model)],
            feed: events.iter().map(|e| (0, *e)).collect(),
            from,
            to,
            slices: vec![0],
            slice_windows: 1.0,
        }
    }

    /// A fresh fleet with every home registered.
    pub fn fleet(&self) -> Fleet {
        let mut fleet = Fleet::new(fleet_config());
        for (home, model) in &self.homes {
            fleet.register_home(*home, Arc::clone(model));
        }
        fleet
    }
}

/// One threaded fleet run.
#[derive(Debug)]
pub struct FleetRep {
    /// Wall time of `Fleet::run`, in ns.
    pub wall_ns: f64,
    /// Time the feed closure spent in `send` and `flush`, in ns.
    pub feed_ns: f64,
    /// The run's counters and alarms.
    pub run: FleetRun,
}

/// Serves `input` through `fleet`, pushing each slice's feed time per
/// window (µs) onto `slice_us`, except the first slice's, which also
/// covers shard start-up.
pub fn serve_fleet(fleet: Fleet, input: &FleetInput, slice_us: &mut Vec<f64>) -> FleetRep {
    let mut feed_ns = 0.0;
    let t0 = Instant::now();
    let run = fleet.run(input.from, input.to, |sender| {
        let f0 = Instant::now();
        let mut last = f0;
        let mut next = 1;
        for (i, (home, event)) in input.feed.iter().enumerate() {
            if input.slices.get(next) == Some(&i) {
                let now = Instant::now();
                if next > 1 {
                    slice_us.push((now - last).as_nanos() as f64 / 1e3 / input.slice_windows);
                }
                last = now;
                next += 1;
            }
            sender.send(*home, event);
        }
        sender.flush();
        feed_ns = f0.elapsed().as_nanos() as f64;
    });
    FleetRep {
        wall_ns: t0.elapsed().as_nanos() as f64,
        feed_ns,
        run,
    }
}

/// Failures of one fleet run: frames dropped or undecodable, windows
/// missing.
pub fn fleet_failures(rep: &FleetRep, input: &FleetInput, windows: u64) -> u64 {
    let stats = &rep.run.stats;
    stats.decode_errors
        + (input.feed.len() as u64).abs_diff(stats.frames)
        + stats.frames.saturating_sub(stats.events)
        + windows.abs_diff(stats.windows)
}

/// Records every `fleet.*` layer metric for `input`: frame encode and
/// decode into batches packed as the sender packs them, the shard engine
/// alone on this thread over those batches, and from `reps`, threaded
/// runs of the same input, the sender's cost per frame net of
/// back-pressure waits, the waits' share of wall time, and the residual.
pub fn record_layers(metrics: &mut Metrics, input: &FleetInput, reps: &[FleetRep]) {
    let config = FleetConfig::default();
    let frames = input.feed.len() as u64;
    let mut batches: Vec<Bytes> = Vec::new();
    let (encode_ns, _) = median_pass(|| {
        batches.clear();
        for chunk in input.feed.chunks(config.frames_per_batch) {
            let mut buf = BytesMut::with_capacity(4096);
            for (home, event) in chunk {
                encode_frame_into(*home, event, &mut buf);
            }
            batches.push(buf.freeze());
        }
    });
    let bytes: usize = batches.iter().map(Bytes::len).sum();
    let (decode_ns, _) = median_pass(|| {
        for batch in &batches {
            for frame in decode_frames(batch.as_slice()) {
                std::hint::black_box(frame.expect("frames were just encoded"));
            }
        }
    });

    let mut shard_ns = Vec::new();
    let mut shard_counts = (0, 0, 0);
    for _ in 0..3 {
        let homes = input
            .homes
            .iter()
            .map(|(h, m)| (*h, Arc::clone(m)))
            .collect();
        let ((windows, scans), ns, allocs) = timed(|| {
            let mut shard = ShardEngine::new(
                0,
                homes,
                config.batch_windows,
                config.alarm_cooldown,
                input.from,
                input.to,
                config.telemetry.clone(),
                config.tracing,
                config.clock.clone(),
            );
            for batch in &batches {
                shard.ingest_batch(batch.as_slice());
            }
            let (_, stats, _) = shard.finish();
            (stats.windows, stats.batched_scans)
        });
        shard_ns.push(ns);
        shard_counts = (windows, scans, allocs);
    }
    let (windows, scans, allocs) = shard_counts;
    let windows_f = windows.max(1) as f64;
    let shard_ns_per_window = median(&mut shard_ns) / windows_f;

    let mut send = Vec::new();
    let mut wait_share = Vec::new();
    let mut e2e = Vec::new();
    for rep in reps {
        let stats = &rep.run.stats;
        send.push(
            (rep.feed_ns - stats.backpressure_wait_ns as f64).max(0.0) / stats.frames.max(1) as f64,
        );
        wait_share.push(stats.backpressure_wait_ns as f64 / rep.wall_ns);
        e2e.push(rep.wall_ns / stats.windows.max(1) as f64);
    }
    let e2e_ns_per_window = median(&mut e2e);
    let frames_per_window = frames as f64 / windows_f;
    let encode_per_frame = encode_ns / frames.max(1) as f64;
    let reps_n = reps.len() as u64;

    metrics.put("fleet.frame.encode_ns_per_frame", encode_per_frame, frames);
    metrics.put(
        "fleet.frame.decode_ns_per_frame",
        decode_ns / frames.max(1) as f64,
        frames,
    );
    metrics.put(
        "fleet.frame.bytes_per_frame",
        bytes as f64 / frames.max(1) as f64,
        frames,
    );
    metrics.put("fleet.service.send_ns_per_frame", median(&mut send), reps_n);
    metrics.put(
        "fleet.service.backpressure_wait_share",
        median(&mut wait_share),
        reps_n,
    );
    metrics.put("fleet.shard.ns_per_window", shard_ns_per_window, windows);
    metrics.put(
        "fleet.shard.allocs_per_window",
        allocs as f64 / windows_f,
        windows,
    );
    metrics.put(
        "fleet.shard.scans_per_window",
        scans as f64 / windows_f,
        windows,
    );
    metrics.put(
        "fleet.residual_pct",
        100.0 * (e2e_ns_per_window - encode_per_frame * frames_per_window - shard_ns_per_window)
            / e2e_ns_per_window,
        reps_n,
    );
}
