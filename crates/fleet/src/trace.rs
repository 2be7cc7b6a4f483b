//! Causal tracing support for the fleet pipeline: the clock behind every
//! stage tick and the per-shard stage-sketch handles.
//!
//! All wall-clock reads in `dice-fleet` live in this module so the §5h
//! determinism lint can hold the rest of the crate clock-free. A
//! [`TraceClock`] is either wall time (an `Instant` anchor, nanoseconds
//! since construction) or a manually advanced atomic — tests and
//! `fleet-monitor --once` freeze the manual clock during the drain so
//! every stage delta renders as a stable zero.
//
// lint-src: allow-file(wall-clock) — the TraceClock wall variant is the
// one sanctioned Instant site in dice-fleet; stage deltas feed telemetry
// sketches and lineage stamps, never detection decisions.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use dice_telemetry::{shard_label, Counter, QuantileSketch, Telemetry};

/// The tick source behind every fleet stage measurement.
#[derive(Debug, Clone)]
pub enum TraceClock {
    /// Wall time: nanoseconds since the anchor `Instant`.
    Wall(Instant),
    /// A manually advanced tick counter (tests, byte-stable monitor runs).
    /// Clones share the counter, so a feed closure can advance the clock
    /// the shards read.
    Manual(Arc<AtomicU64>),
}

impl Default for TraceClock {
    fn default() -> Self {
        TraceClock::wall()
    }
}

impl TraceClock {
    /// A wall clock anchored now.
    pub fn wall() -> Self {
        TraceClock::Wall(Instant::now())
    }

    /// A manual clock starting at zero, plus the shared counter that
    /// advances it (`fetch_add` nanoseconds from the feed side).
    pub fn manual() -> (Self, Arc<AtomicU64>) {
        let ticks = Arc::new(AtomicU64::new(0));
        (TraceClock::Manual(Arc::clone(&ticks)), ticks)
    }

    /// Nanoseconds on this clock. Monotone for both variants (a manual
    /// clock only ever advances), so stage deltas are non-negative by
    /// construction.
    pub fn now_ns(&self) -> u64 {
        match self {
            TraceClock::Wall(anchor) => {
                u64::try_from(anchor.elapsed().as_nanos()).unwrap_or(u64::MAX)
            }
            TraceClock::Manual(ticks) => ticks.load(Ordering::Acquire),
        }
    }
}

/// Per-shard stage-sketch handles, resolved once at shard startup so the
/// hot path records without ever touching a family mutex. `None` when
/// telemetry is disabled or tracing is off.
#[derive(Debug)]
pub(crate) struct StageSketches {
    pub queue_wait: Arc<QuantileSketch>,
    pub dequeue: Arc<QuantileSketch>,
    pub scan: Arc<QuantileSketch>,
    pub verdict: Arc<QuantileSketch>,
    pub publish: Arc<QuantileSketch>,
}

impl StageSketches {
    /// Resolves shard `shard`'s children of the stage families, or `None`
    /// when `telemetry` is a no-op sink.
    pub fn resolve(telemetry: &Telemetry, shard: usize) -> Option<Self> {
        let rec = telemetry.recorder()?;
        let label = shard_label(shard);
        let values = [label.as_str()];
        let fleet = &rec.metrics.fleet;
        Some(StageSketches {
            queue_wait: fleet.stage_queue_wait_ns.with_label_values(&values),
            dequeue: fleet.stage_dequeue_ns.with_label_values(&values),
            scan: fleet.stage_scan_ns.with_label_values(&values),
            verdict: fleet.stage_verdict_ns.with_label_values(&values),
            publish: fleet.stage_publish_ns.with_label_values(&values),
        })
    }
}

/// Per-shard sender-side handles: the back-pressure wait counters and the
/// enqueue-wait stage sketch, resolved once per shard at sender setup.
#[derive(Debug)]
pub(crate) struct SenderShardTrace {
    pub waits: Arc<Counter>,
    pub wait_ns: Arc<Counter>,
    pub enqueue_wait: Arc<QuantileSketch>,
}

impl SenderShardTrace {
    /// Resolves shard `shard`'s sender-side handles, or `None` when
    /// `telemetry` is a no-op sink.
    pub fn resolve(telemetry: &Telemetry, shard: usize) -> Option<Self> {
        let rec = telemetry.recorder()?;
        let label = shard_label(shard);
        let values = [label.as_str()];
        let fleet = &rec.metrics.fleet;
        Some(SenderShardTrace {
            waits: fleet.shard_backpressure_waits.with_label_values(&values),
            wait_ns: fleet.shard_backpressure_wait_ns.with_label_values(&values),
            enqueue_wait: fleet.stage_enqueue_wait_ns.with_label_values(&values),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_clock_is_monotone() {
        let clock = TraceClock::wall();
        let a = clock.now_ns();
        let b = clock.now_ns();
        assert!(b >= a);
    }

    #[test]
    fn manual_clock_reads_what_was_advanced() {
        let (clock, ticks) = TraceClock::manual();
        assert_eq!(clock.now_ns(), 0);
        ticks.fetch_add(1_500, Ordering::Release);
        assert_eq!(clock.now_ns(), 1_500);
        // Clones share the counter.
        let clone = clock.clone();
        ticks.fetch_add(500, Ordering::Release);
        assert_eq!(clone.now_ns(), 2_000);
    }

    #[test]
    fn stage_handles_resolve_only_when_recording() {
        assert!(StageSketches::resolve(&Telemetry::noop(), 0).is_none());
        assert!(SenderShardTrace::resolve(&Telemetry::noop(), 0).is_none());
        let telemetry = Telemetry::recording();
        let stages = StageSketches::resolve(&telemetry, 3).unwrap();
        stages.scan.record(42);
        let snapshot = telemetry.snapshot().unwrap();
        let children = snapshot.sketch_family("dice_fleet_stage_scan_ns").unwrap();
        assert_eq!(children.len(), 1);
        assert_eq!(children[0].0, vec!["s3".to_string()]);
        assert_eq!(children[0].1.count, 1);
    }
}
