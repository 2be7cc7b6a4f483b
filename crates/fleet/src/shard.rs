//! The per-shard session pool: every home owns a [`HomeSession`] (engine,
//! open window, cooldown ledger), ready windows are detected in cross-home
//! batches.
//!
//! A shard receives packed frame batches for its subset of homes, feeds
//! each frame to its home's session, and parks the windows the sessions
//! close in a ready list. When the list
//! reaches the configured batch size (or the stream ends) the shard
//! resolves every violating window's candidate scan in one batched sweep
//! per distinct model — the natural batches PR 7's
//! `candidates_batch_into` was built for — and then drives each home's
//! session through [`HomeSession::process`] with the prescan, which is
//! bit-identical to the unbatched path. Identification state, alarm
//! cooldowns, and reports stay strictly per home, so shard composition
//! never leaks state across homes and alarm output is invariant under the
//! shard count.

use std::collections::BTreeMap;
use std::sync::Arc;

use dice_core::{
    BinarizeScratch, Candidate, Detector, DiceEngine, DiceModel, EngineOptions, FaultReport,
    LineageStamp, ScanProfile, WindowObservation, WindowPrescan,
};
use dice_gateway::{ClosedWindow, HomeSession};
use dice_telemetry::{shard_label, Counter, SlotRing, Telemetry};
use dice_types::{TimeDelta, Timestamp};

use crate::frame::{decode_frames, FleetFrame, HomeId};
use crate::service::ShardBatch;
use crate::trace::{StageSketches, TraceClock};

/// Stage-annotated lineage records a shard retains (flight-recorder
/// discipline: bounded ring, slots reused in place).
pub const LINEAGE_RING_CAPACITY: usize = 128;

/// What a finished shard hands back: each home's alarm reports (ascending
/// by registration slot), the shard's counters, and the retained lineage
/// records (oldest first).
pub type ShardFinish = (
    Vec<(HomeId, Vec<FaultReport>)>,
    ShardStats,
    Vec<LineageStamp>,
);

/// Counters one shard accumulates over a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Wire frames decoded.
    pub frames: u64,
    /// Frame batches dropped (from the first bad frame onward).
    pub decode_errors: u64,
    /// Events accepted into the monitored range.
    pub events: u64,
    /// Decoded frames outside the monitored range, dropped.
    pub out_of_range: u64,
    /// Decoded frames for homes not registered with this shard, dropped.
    pub unknown_home: u64,
    /// Windows closed and processed.
    pub windows: u64,
    /// Cross-home batched candidate scans issued.
    pub batched_scans: u64,
    /// Alarms delivered.
    pub alarms: u64,
    /// Alarms suppressed by the per-home cooldown.
    pub suppressed: u64,
}

/// One shard's session pool; see the module docs for the batching scheme.
#[derive(Debug)]
pub struct ShardEngine {
    homes: Vec<HomeSession<Arc<DiceModel>>>,
    /// Each slot's home id and delivered reports, in registration order.
    alarms: Vec<(HomeId, Vec<FaultReport>)>,
    slots: BTreeMap<HomeId, usize>,
    /// Closed windows waiting for the next batched detection sweep, with
    /// their home's slot.
    ready: Vec<(usize, ClosedWindow)>,
    batch_windows: usize,
    telemetry: Telemetry,
    stats: ShardStats,
    /// Resolved per-shard child of `dice_fleet_shard_windows_total`, so
    /// the sweep loop never touches the family mutex.
    shard_windows: Option<Arc<Counter>>,
    /// Resolved `out_of_range` and `unknown_home` children of
    /// `dice_fleet_dropped_events_total`.
    dropped: Option<[Arc<Counter>; 2]>,
    // Batch scratch, reused across sweeps.
    obs: Vec<WindowObservation>,
    bin_scratch: BinarizeScratch,
    // §5l causal tracing state.
    shard: u32,
    tracing: bool,
    clock: TraceClock,
    /// Per-shard stage-sketch children, resolved once; `None` when
    /// telemetry is disabled or tracing is off.
    stages: Option<StageSketches>,
    /// Stage-annotated lineage records, oldest-first bounded ring.
    ring: SlotRing<LineageStamp>,
    /// The in-flight batch's partial stamp (lineage block, queue wait).
    pending: LineageStamp,
    /// Clock tick when the in-flight batch's ingest started.
    batch_start_ns: u64,
    /// Sweep time already spent inside the in-flight batch's ingest, so
    /// the dequeue stage excludes detection work.
    sweep_ns_in_batch: u64,
    /// Scratch: slots whose homes received reports in the current sweep.
    stamp_slots: Vec<usize>,
}

impl ShardEngine {
    /// Creates shard `shard` serving `homes` over `[from, to)`. Homes
    /// sharing a model hand in clones of the same `Arc`. With `tracing`
    /// on, stage latencies are recorded against `clock` and lineage
    /// records retained (§5l).
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        shard: usize,
        homes: Vec<(HomeId, Arc<DiceModel>)>,
        batch_windows: usize,
        alarm_cooldown: TimeDelta,
        from: Timestamp,
        to: Timestamp,
        telemetry: Telemetry,
        tracing: bool,
        clock: TraceClock,
    ) -> Self {
        let mut sessions = Vec::with_capacity(homes.len());
        let mut alarms = Vec::with_capacity(homes.len());
        let mut slots = BTreeMap::new();
        for (home, model) in homes {
            let options = EngineOptions {
                telemetry: telemetry.clone(),
                ..EngineOptions::default()
            };
            let mut session =
                HomeSession::new(DiceEngine::with_options(model, options), alarm_cooldown);
            session.begin(from, to);
            slots.insert(home, sessions.len());
            sessions.push(session);
            alarms.push((home, Vec::new()));
        }
        let metrics = telemetry.recorder().map(|rec| &rec.metrics.fleet);
        let shard_windows = metrics.map(|m| {
            m.shard_windows_total
                .with_label_values(&[&shard_label(shard)])
        });
        let dropped = metrics.map(|m| {
            ["out_of_range", "unknown_home"]
                .map(|reason| m.dropped_events_total.with_label_values(&[reason]))
        });
        let stages = if tracing {
            StageSketches::resolve(&telemetry, shard)
        } else {
            None
        };
        ShardEngine {
            homes: sessions,
            alarms,
            slots,
            ready: Vec::new(),
            batch_windows: batch_windows.max(1),
            telemetry,
            stats: ShardStats::default(),
            shard_windows,
            dropped,
            obs: Vec::new(),
            bin_scratch: BinarizeScratch::default(),
            shard: u32::try_from(shard).unwrap_or(u32::MAX),
            tracing,
            clock,
            stages,
            ring: SlotRing::new(LINEAGE_RING_CAPACITY),
            pending: LineageStamp::default(),
            batch_start_ns: 0,
            sweep_ns_in_batch: 0,
            stamp_slots: Vec::new(),
        }
    }

    /// Decodes and ingests one packed batch of frames. A frame that fails
    /// to decode drops the remainder of its batch (the length framing is
    /// lost) and counts one decode error; the shard keeps serving.
    pub fn ingest_batch(&mut self, batch: &[u8]) {
        for result in decode_frames(batch) {
            match result {
                Ok(frame) => {
                    self.stats.frames += 1;
                    if let Some(rec) = self.telemetry.recorder() {
                        rec.metrics.fleet.frames_total.inc();
                    }
                    self.ingest(frame);
                }
                Err(error) => {
                    self.stats.decode_errors += 1;
                    if let Some(rec) = self.telemetry.recorder() {
                        rec.metrics.fleet.decode_errors_total.inc();
                        rec.events.push("fleet_decode_error", error.to_string());
                    }
                }
            }
        }
    }

    /// Ingests one lineage-stamped batch off the shard queue, attributing
    /// its wall-clock to the `queue_wait` (enqueue tick to now) and
    /// `dequeue` (decode + window ingestion, excluding any sweeps that
    /// fire mid-batch) stages.
    pub(crate) fn ingest_wire_batch(&mut self, batch: &ShardBatch) {
        if !self.tracing {
            self.ingest_batch(&batch.bytes);
            return;
        }
        let t0 = self.clock.now_ns();
        let queue_wait_ns = t0.saturating_sub(batch.enqueue_ns);
        if let Some(stages) = &self.stages {
            stages.queue_wait.record(queue_wait_ns);
        }
        self.pending = LineageStamp {
            lineage: batch.lineage,
            shard: self.shard,
            frames: batch.frames,
            enqueue_wait_ns: batch.enqueue_wait_ns,
            queue_wait_ns,
            ..LineageStamp::default()
        };
        self.batch_start_ns = t0;
        self.sweep_ns_in_batch = 0;
        self.ingest_batch(&batch.bytes);
        let dequeue_ns = self
            .clock
            .now_ns()
            .saturating_sub(self.batch_start_ns)
            .saturating_sub(self.sweep_ns_in_batch);
        self.pending.dequeue_ns = dequeue_ns;
        if let Some(stages) = &self.stages {
            stages.dequeue.record(dequeue_ns);
        }
    }

    /// The shard's retained lineage records, oldest first, plus how many
    /// older records the bounded ring evicted.
    pub fn lineage_log(&self) -> (Vec<LineageStamp>, u64) {
        (self.ring.iter().copied().collect(), self.ring.dropped())
    }

    /// Ingests one decoded frame: routes it to its home's session, parks
    /// the windows it closes, and sweeps a batch when enough windows are
    /// ready. Frames for unregistered homes or outside `[from, to)` are
    /// counted and dropped.
    pub fn ingest(&mut self, frame: FleetFrame) {
        let Some(&slot) = self.slots.get(&frame.home) else {
            self.stats.unknown_home += 1;
            if let Some([_, unknown_home]) = &self.dropped {
                unknown_home.inc();
            }
            return;
        };
        let at = frame.event.at();
        let session = &mut self.homes[slot];
        if !session.admits(at) {
            self.stats.out_of_range += 1;
            if let Some([out_of_range, _]) = &self.dropped {
                out_of_range.inc();
            }
            return;
        }
        self.stats.events += 1;
        if let Some(rec) = self.telemetry.recorder() {
            rec.metrics.fleet.events_total.inc();
        }
        while let Some(window) = session.close_before(at) {
            self.ready.push((slot, window));
        }
        session.push(frame.event);
        if self.ready.len() >= self.batch_windows {
            self.sweep();
        }
    }

    /// Runs one batched detection sweep over the ready windows: binarize
    /// and correlation-check each, resolve every violating window's
    /// candidate scan through one batched scan per distinct model, then
    /// drive each home's engine in arrival order.
    fn sweep(&mut self) {
        let n = self.ready.len();
        if n == 0 {
            return;
        }
        let sweep_start_ns = if self.tracing { self.clock.now_ns() } else { 0 };
        if self.obs.len() < n {
            self.obs.resize_with(n, WindowObservation::default);
        }

        // Binarize + correlation-check every ready window. `exact[i]`
        // means the window matched a main group and needs no scan.
        let mut exact = Vec::with_capacity(n);
        for (i, (slot, window)) in self.ready.iter().enumerate() {
            let model = self.homes[*slot].engine().model();
            model.binarizer().binarize_into(
                window.start,
                window.end,
                &window.events,
                &mut self.bin_scratch,
                &mut self.obs[i],
            );
            exact.push(
                Detector::new(model)
                    .correlation_check(&self.obs[i])
                    .is_some(),
            );
        }

        // Group the violating windows by model identity (a linear scan
        // over the handful of distinct models per shard, in first-seen
        // order so the sweep stays deterministic).
        let mut groups: Vec<(*const DiceModel, Vec<usize>)> = Vec::new();
        for (i, &is_exact) in exact.iter().enumerate() {
            if is_exact {
                continue;
            }
            let ptr: *const DiceModel = self.homes[self.ready[i].0].engine().model();
            match groups.iter_mut().find(|(p, _)| *p == ptr) {
                Some((_, idxs)) => idxs.push(i),
                None => groups.push((ptr, vec![i])),
            }
        }

        // One batched candidate scan per model, with the nearest-group
        // fallback batched over the slots that came back empty — exactly
        // what the engine's own per-window scan would have produced.
        let mut resolved: Vec<Vec<Candidate>> = Vec::new();
        resolved.resize_with(n, Vec::new);
        let mut profiles = vec![ScanProfile::default(); n];
        for (_, idxs) in &groups {
            let model = self.homes[self.ready[idxs[0]].0].engine().model();
            let queries: Vec<&dice_core::BitSet> =
                idxs.iter().map(|&i| &self.obs[i].state).collect();
            let mut cand_batch = Vec::new();
            let mut profile = model.scan().candidates_batch_into(
                &queries,
                model.candidate_distance(),
                &mut cand_batch,
            );
            let empty: Vec<usize> = (0..idxs.len())
                .filter(|&j| cand_batch[j].is_empty())
                .collect();
            if !empty.is_empty() {
                let fallback: Vec<&dice_core::BitSet> = empty.iter().map(|&j| queries[j]).collect();
                let mut near_batch = Vec::new();
                profile.absorb(model.scan().nearest_batch_into(&fallback, &mut near_batch));
                for (k, &j) in empty.iter().enumerate() {
                    cand_batch[j] = std::mem::take(&mut near_batch[k]);
                }
            }
            for (j, &i) in idxs.iter().enumerate() {
                resolved[i] = std::mem::take(&mut cand_batch[j]);
            }
            // Attribute the whole batch's scan work to its first window;
            // process-level totals stay accurate.
            profiles[idxs[0]] = profile;
            self.stats.batched_scans += 1;
            if let Some(rec) = self.telemetry.recorder() {
                rec.metrics.fleet.batched_scans_total.inc();
            }
        }

        // The scan stage covers everything from sweep entry through the
        // batched candidate resolution above.
        let scan_end_ns = if self.tracing { self.clock.now_ns() } else { 0 };
        let scan_ns = scan_end_ns.saturating_sub(sweep_start_ns);
        if let Some(stages) = &self.stages {
            stages.scan.record(scan_ns);
        }

        // Drive the engines in arrival order (per-home window order is a
        // suffix of arrival order, which is what the engines require).
        let mut publish_ns = 0u64;
        let mut ready = std::mem::take(&mut self.ready);
        for (i, (slot, window)) in ready.drain(..).enumerate() {
            let prescan = (!exact[i]).then(|| WindowPrescan {
                candidates: &resolved[i],
                profile: profiles[i],
            });
            let report = self.homes[slot].process(window, prescan);
            self.stats.windows += 1;
            if let Some(rec) = self.telemetry.recorder() {
                rec.metrics.fleet.windows_total.inc();
            }
            if let Some(counter) = &self.shard_windows {
                counter.inc();
            }
            if let Some(report) = report {
                let publish_start_ns = if self.tracing { self.clock.now_ns() } else { 0 };
                let delivered = self.publish(slot, report);
                if self.tracing {
                    let d = self.clock.now_ns().saturating_sub(publish_start_ns);
                    publish_ns += d;
                    if let Some(stages) = &self.stages {
                        stages.publish.record(d);
                    }
                    if delivered {
                        self.stamp_slots.push(slot);
                    }
                }
            }
        }
        self.ready = ready;

        if self.tracing {
            let verdict_end_ns = self.clock.now_ns();
            let verdict_ns = verdict_end_ns
                .saturating_sub(scan_end_ns)
                .saturating_sub(publish_ns);
            if let Some(stages) = &self.stages {
                stages.verdict.record(verdict_ns);
            }
            // The completed stage picture for this sweep, against the
            // batch whose ingest triggered it. `dequeue_ns` is the batch's
            // ingest time up to this sweep (the batch may still be
            // mid-decode).
            let stamp = LineageStamp {
                dequeue_ns: sweep_start_ns
                    .saturating_sub(self.batch_start_ns)
                    .saturating_sub(self.sweep_ns_in_batch),
                scan_ns,
                verdict_ns,
                publish_ns,
                ..self.pending
            };
            self.ring.push_with(|_, slot| *slot = stamp);
            // Stamp the reports this sweep delivered (every unstamped
            // report of a touched home is from this sweep; earlier sweeps
            // stamped theirs).
            while let Some(slot) = self.stamp_slots.pop() {
                let (home, reports) = &mut self.alarms[slot];
                for report in reports.iter_mut().rev() {
                    if report.lineage.is_some() {
                        break;
                    }
                    report.lineage = Some(stamp);
                    if let Some(rec) = self.telemetry.recorder() {
                        rec.events
                            .push("fleet_alarm_lineage", format!("home {home} {stamp}"));
                    }
                }
            }
            self.sweep_ns_in_batch += verdict_end_ns.saturating_sub(sweep_start_ns);
        }
    }

    /// Passes one of slot `slot`'s reports through its session's cooldown
    /// and records the outcome. Returns whether the report was delivered
    /// (vs suppressed).
    fn publish(&mut self, slot: usize, report: FaultReport) -> bool {
        let recorder = self.telemetry.recorder();
        match self.homes[slot].deliver(report) {
            Some(report) => {
                self.stats.alarms += 1;
                if let Some(rec) = recorder {
                    rec.metrics.fleet.alarms_total.inc();
                }
                self.alarms[slot].1.push(report);
                true
            }
            None => {
                self.stats.suppressed += 1;
                if let Some(rec) = recorder {
                    rec.metrics.fleet.alarms_suppressed_total.inc();
                }
                false
            }
        }
    }

    /// Closes every home's remaining windows up to `to`, sweeps the final
    /// batch, flushes the engines, and returns each home's alarm reports
    /// (ascending by registration slot), the shard's counters, and the
    /// retained lineage records (oldest first).
    pub fn finish(mut self) -> ShardFinish {
        for slot in 0..self.homes.len() {
            while let Some(window) = self.homes[slot].drain() {
                self.ready.push((slot, window));
                if self.ready.len() >= self.batch_windows {
                    self.sweep();
                }
            }
        }
        self.sweep();
        for slot in 0..self.homes.len() {
            if let Some(report) = self.homes[slot].flush() {
                self.publish(slot, report);
            }
        }
        let records = self.ring.iter().copied().collect();
        (self.alarms, self.stats, records)
    }
}
