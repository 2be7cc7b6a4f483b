//! Fleet-layer guarantees: the wire-frame codec is byte-stable and
//! panic-free on untrusted input, alarm output is invariant under the
//! shard count, a single-home fleet matches the single-home gateway, and
//! fleet model memory scales with distinct floor plans, not homes.

use std::sync::Arc;

use dice_core::{ContextExtractor, DiceConfig, DiceModel};
use dice_fleet::{
    decode_frame_slice, decode_frames, encode_frame, Fleet, FleetConfig, FleetRun, ModelCache,
    ShardEngine, TraceClock,
};
use dice_gateway::{encode_event, HomeGateway};
use dice_telemetry::{evaluate_health, standard_rules, HealthStatus, Telemetry};
use dice_types::{
    ActuatorEvent, ActuatorId, DeviceRegistry, Event, EventLog, Room, SensorId, SensorKind,
    SensorReading, TimeDelta, Timestamp,
};
use proptest::prelude::*;

/// Floor plan `extra`: `3 + extra` motion sensors, the first two trained
/// to fire together (one correlation group) — the gateway test fixture,
/// widened per plan.
fn plan_devices(extra: usize) -> (DeviceRegistry, Vec<SensorId>) {
    let mut registry = DeviceRegistry::new();
    let sensors = (0..3 + extra)
        .map(|i| {
            let room = if i < 2 { Room::Kitchen } else { Room::Bedroom };
            registry.add_sensor(SensorKind::Motion, format!("s{i}"), room)
        })
        .collect();
    (registry, sensors)
}

/// Trains floor plan `extra` on the deterministic alternating log.
fn train_plan(extra: usize) -> DiceModel {
    let (registry, sensors) = plan_devices(extra);
    let mut log = EventLog::new();
    for minute in 0..240 {
        let at = Timestamp::from_mins(minute) + TimeDelta::from_secs(5);
        if minute % 2 == 0 {
            log.push_sensor(SensorReading::new(sensors[0], at, true.into()));
            log.push_sensor(SensorReading::new(sensors[1], at, true.into()));
        } else {
            let idx = 2 + (minute as usize / 2) % (sensors.len() - 2);
            log.push_sensor(SensorReading::new(sensors[idx], at, true.into()));
        }
    }
    ContextExtractor::new(DiceConfig::default())
        .extract(&registry, &mut log)
        .expect("training log is non-empty")
}

/// The live schedule for one home over `minutes`: the training pattern,
/// with sensor 1 fail-stopped when `drop_s1` is set.
fn live_events(sensors: &[SensorId], minutes: i64, drop_s1: bool) -> Vec<Event> {
    let mut events = Vec::new();
    for minute in 0..minutes {
        let at = Timestamp::from_mins(minute) + TimeDelta::from_secs(5);
        if minute % 2 == 0 {
            events.push(Event::Sensor(SensorReading::new(
                sensors[0],
                at,
                true.into(),
            )));
            if !drop_s1 {
                events.push(Event::Sensor(SensorReading::new(
                    sensors[1],
                    at,
                    true.into(),
                )));
            }
        } else {
            let idx = 2 + (minute as usize / 2) % (sensors.len() - 2);
            events.push(Event::Sensor(SensorReading::new(
                sensors[idx],
                at,
                true.into(),
            )));
        }
    }
    events
}

/// Streams the same 24-home, 30-minute fleet through `shards` shards.
/// Homes alternate between two floor plans; every home with id ≡ 1
/// (mod 5) fail-stops its second sensor.
fn run_fleet(shards: usize, plans: &[Arc<DiceModel>; 2]) -> FleetRun {
    run_fleet_with(
        FleetConfig {
            shards,
            queue_capacity: 8,
            frames_per_batch: 16,
            batch_windows: 16,
            ..FleetConfig::default()
        },
        plans,
    )
}

/// The 24-home fixture stream under an arbitrary `config`.
fn run_fleet_with(config: FleetConfig, plans: &[Arc<DiceModel>; 2]) -> FleetRun {
    const HOMES: u32 = 24;
    const MINUTES: i64 = 30;
    let sensors = [plan_devices(0).1, plan_devices(1).1];
    let mut fleet = Fleet::new(config);
    for h in 0..HOMES {
        fleet.register_home(h, Arc::clone(&plans[h as usize % 2]));
    }
    fleet.run(
        Timestamp::from_mins(0),
        Timestamp::from_mins(MINUTES),
        |sender| {
            for minute in 0..MINUTES {
                for h in 0..HOMES {
                    let plan = &sensors[h as usize % 2];
                    let at = Timestamp::from_mins(minute) + TimeDelta::from_secs(5);
                    if minute % 2 == 0 {
                        let lead = SensorReading::new(plan[0], at, true.into());
                        sender.send(h, &Event::Sensor(lead));
                        if h % 5 != 1 {
                            let partner = SensorReading::new(plan[1], at, true.into());
                            sender.send(h, &Event::Sensor(partner));
                        }
                    } else {
                        let idx = 2 + (minute as usize / 2) % (plan.len() - 2);
                        let reading = SensorReading::new(plan[idx], at, true.into());
                        sender.send(h, &Event::Sensor(reading));
                    }
                }
            }
        },
    )
}

#[test]
fn alarms_are_invariant_under_shard_count() {
    let plans = [Arc::new(train_plan(0)), Arc::new(train_plan(1))];
    let one = run_fleet(1, &plans);
    let two = run_fleet(2, &plans);
    let eight = run_fleet(8, &plans);

    // The merged per-home alarm reports are bit-identical however the
    // homes were sharded.
    assert_eq!(one.alarms, two.alarms);
    assert_eq!(one.alarms, eight.alarms);

    // And they are the right alarms: exactly the seeded faulty homes.
    for home in &one.alarms {
        assert_eq!(
            !home.reports.is_empty(),
            home.home % 5 == 1,
            "home {} alarm state",
            home.home
        );
    }

    // Aggregate counters that don't depend on batching agree too.
    for other in [&two, &eight] {
        assert_eq!(one.stats.frames, other.stats.frames);
        assert_eq!(one.stats.events, other.stats.events);
        assert_eq!(one.stats.windows, other.stats.windows);
        assert_eq!(one.stats.alarms, other.stats.alarms);
        assert_eq!(one.stats.suppressed, other.stats.suppressed);
        assert_eq!(one.stats.decode_errors, 0);
    }
    assert_eq!(one.stats.windows, 24 * 30);
    assert_eq!(eight.stats.shards, 8);
}

#[test]
fn lineage_ids_are_monotone_per_shard_with_frozen_stage_deltas() {
    let plans = [Arc::new(train_plan(0)), Arc::new(train_plan(1))];
    for shards in [1usize, 2, 8] {
        // A frozen manual clock: every stage delta must come out exactly
        // zero (deltas are computed on one monotone clock, never from
        // mixed time sources), while lineage blocks stay monotone.
        let (clock, _ticks) = TraceClock::manual();
        let run = run_fleet_with(
            FleetConfig {
                shards,
                queue_capacity: 8,
                frames_per_batch: 16,
                batch_windows: 16,
                clock,
                ..FleetConfig::default()
            },
            &plans,
        );
        assert_eq!(run.lineage.len(), shards);
        assert!(run.lineage.iter().any(|records| !records.is_empty()));
        for (shard, records) in run.lineage.iter().enumerate() {
            // Consecutive sweeps of one batch share its lineage block;
            // whenever the block advances it must clear the previous one.
            for pair in records.windows(2) {
                assert!(
                    pair[1].lineage == pair[0].lineage
                        || pair[0].lineage + u64::from(pair[0].frames) <= pair[1].lineage,
                    "shard {shard}: lineage blocks must be monotone and disjoint"
                );
            }
            for record in records {
                assert!(record.frames > 0);
                assert_eq!(record.shard as usize, shard);
                let stages = [
                    record.enqueue_wait_ns,
                    record.queue_wait_ns,
                    record.dequeue_ns,
                    record.scan_ns,
                    record.verdict_ns,
                    record.publish_ns,
                ];
                assert_eq!(stages, [0; 6], "frozen clock must yield zero deltas");
            }
        }
        // Delivered alarms carry the lineage stamp of their sweep, and
        // the stamp names the shard that served the home.
        let stamped: Vec<_> = run
            .alarms
            .iter()
            .flat_map(|h| {
                h.reports
                    .iter()
                    .filter_map(|r| r.lineage.map(|s| (h.home, s)))
            })
            .collect();
        assert!(
            !stamped.is_empty(),
            "fleet alarms must carry lineage stamps"
        );
        for (home, stamp) in stamped {
            assert_eq!(
                stamp.shard as usize,
                dice_fleet::shard_for_home(home, shards),
                "stamp must name the serving shard"
            );
        }
    }
}

#[test]
fn preloaded_runs_are_reproducible_and_match_threaded_alarms() {
    let plans = [Arc::new(train_plan(0)), Arc::new(train_plan(1))];
    let config = |clock: TraceClock| FleetConfig {
        shards: 4,
        frames_per_batch: 16,
        batch_windows: 16,
        clock,
        ..FleetConfig::default()
    };
    const HOMES: u32 = 24;
    const MINUTES: i64 = 30;
    let sensors = [plan_devices(0).1, plan_devices(1).1];
    let preload = |clock: TraceClock| {
        let mut fleet = Fleet::new(config(clock));
        for h in 0..HOMES {
            fleet.register_home(h, Arc::clone(&plans[h as usize % 2]));
        }
        fleet.run_preloaded(
            Timestamp::from_mins(0),
            Timestamp::from_mins(MINUTES),
            |sender| {
                for minute in 0..MINUTES {
                    for h in 0..HOMES {
                        let plan = &sensors[h as usize % 2];
                        let at = Timestamp::from_mins(minute) + TimeDelta::from_secs(5);
                        if minute % 2 == 0 {
                            let lead = SensorReading::new(plan[0], at, true.into());
                            sender.send(h, &Event::Sensor(lead));
                            if h % 5 != 1 {
                                let partner = SensorReading::new(plan[1], at, true.into());
                                sender.send(h, &Event::Sensor(partner));
                            }
                        } else {
                            let idx = 2 + (minute as usize / 2) % (plan.len() - 2);
                            let reading = SensorReading::new(plan[idx], at, true.into());
                            sender.send(h, &Event::Sensor(reading));
                        }
                    }
                }
            },
        )
    };
    let a = preload(TraceClock::manual().0);
    let b = preload(TraceClock::manual().0);
    // With a frozen manual clock the whole run — stats, alarms, lineage
    // records — is deterministic, which is what byte-stable fleet-monitor
    // frames build on.
    assert_eq!(a, b);
    let threaded = run_fleet_with(config(TraceClock::manual().0), &plans);
    assert_eq!(a.alarms, threaded.alarms);
    assert_eq!(a.stats.windows, threaded.stats.windows);
}

#[test]
fn stalled_shard_grows_queue_waits_and_trips_the_straggler_rule() {
    let plans = [Arc::new(train_plan(0)), Arc::new(train_plan(1))];
    let telemetry = Telemetry::recording();
    // Shard 0 sleeps 3ms per batch behind a 2-deep queue: its queue-wait
    // sketch must grow and the producer must block (counted in
    // occurrences and nanoseconds), while the other shards stay prompt —
    // exactly the straggler shape the health rule grades.
    let run = run_fleet_with(
        FleetConfig {
            shards: 4,
            queue_capacity: 2,
            frames_per_batch: 4,
            batch_windows: 16,
            telemetry: telemetry.clone(),
            stall: Some((0, 3)),
            ..FleetConfig::default()
        },
        &plans,
    );
    assert!(run.stats.backpressure_waits > 0, "sender must have blocked");
    assert!(
        run.stats.backpressure_wait_ns > 0,
        "blocked time must be measured, not just counted"
    );

    let snapshot = telemetry.snapshot().unwrap();
    let children = snapshot
        .sketch_family("dice_fleet_stage_queue_wait_ns")
        .unwrap();
    let (_, stalled) = children
        .iter()
        .find(|(values, _)| values == &["s0"])
        .expect("stalled shard records queue waits");
    assert!(stalled.count > 0);
    let best_other = children
        .iter()
        .filter(|(values, _)| values != &["s0"])
        .map(|(_, summary)| summary.p99)
        .max()
        .expect("other shards record too");
    assert!(
        stalled.p99 > best_other.saturating_mul(4),
        "stalled shard p99 {} must dwarf the others' {best_other}",
        stalled.p99
    );

    // The injected slow shard drives the straggler rule to warn/crit.
    let report = evaluate_health(&standard_rules(), &snapshot, false);
    let row = report
        .rows
        .iter()
        .find(|r| r.id == "fleet_stage_straggler")
        .expect("straggler rule is a standard rule");
    assert!(
        matches!(row.status, Some(HealthStatus::Warn | HealthStatus::Crit)),
        "straggler rule must fire, got {:?} ({})",
        row.status,
        row.observed
    );

    // Per-shard back-pressure families point at the stalled shard.
    let waits = snapshot
        .family_series("dice_fleet_shard_backpressure_waits_total")
        .unwrap();
    let wait_ns = snapshot
        .family_series("dice_fleet_shard_backpressure_wait_ns_total")
        .unwrap();
    assert!(waits.iter().any(|(v, n)| v == &["s0"] && *n > 0));
    assert!(wait_ns.iter().any(|(v, n)| v == &["s0"] && *n > 0));
}

#[test]
fn single_home_fleet_matches_the_gateway() {
    let model = Arc::new(train_plan(0));
    let sensors = plan_devices(0).1;
    let events = live_events(&sensors, 120, true);
    let from = Timestamp::from_mins(0);
    let to = Timestamp::from_mins(120);

    // The single-home gateway, fed the same stream over one aggregator
    // channel.
    let (tx, rx) = crossbeam::channel::unbounded();
    for event in &events {
        tx.send(encode_event(event)).unwrap();
    }
    drop(tx);
    let (alarm_tx, alarm_rx) = crossbeam::channel::unbounded();
    let gateway = HomeGateway::new(Arc::clone(&model));
    let stats = gateway.run(vec![rx], &alarm_tx, from, to);
    drop(alarm_tx);
    let gateway_reports: Vec<_> = alarm_rx.iter().map(|a| a.report).collect();
    assert!(
        !gateway_reports.is_empty(),
        "the fail-stopped sensor must alarm"
    );

    // A one-home fleet over the wire-frame path.
    let mut fleet = Fleet::new(FleetConfig {
        shards: 1,
        ..FleetConfig::default()
    });
    fleet.register_home(0, model);
    let run = fleet.run(from, to, |sender| {
        for event in &events {
            sender.send(0, event);
        }
    });

    assert_eq!(run.alarms.len(), 1);
    assert_eq!(run.alarms[0].home, 0);
    assert_eq!(run.alarms[0].reports, gateway_reports);
    assert_eq!(run.stats.windows, stats.windows);
}

#[test]
fn every_decoded_frame_is_accepted_or_counted_as_a_drop() {
    let model = Arc::new(train_plan(0));
    let sensors = plan_devices(0).1;
    let from = Timestamp::from_mins(10);
    let to = Timestamp::from_mins(50);
    // 60 minutes of events for home 0, of which only [10, 50) is in
    // range, plus the same stream for home 9, which is not registered.
    let events = live_events(&sensors, 60, false);
    let in_range = events
        .iter()
        .filter(|e| from <= e.at() && e.at() < to)
        .count() as u64;

    // One shard, fed directly: decoded frames = events + out_of_range +
    // unknown_home.
    let mut batch = Vec::new();
    for home in [0, 9] {
        for event in &events {
            batch.extend_from_slice(&encode_frame(home, event));
        }
    }
    let mut shard = ShardEngine::new(
        0,
        vec![(0, Arc::clone(&model))],
        16,
        TimeDelta::from_mins(60),
        from,
        to,
        Telemetry::noop(),
        false,
        TraceClock::default(),
    );
    shard.ingest_batch(&batch);
    let (_, stats, _) = shard.finish();
    assert_eq!(stats.frames, 2 * events.len() as u64);
    assert_eq!(stats.events, in_range);
    assert_eq!(stats.out_of_range, events.len() as u64 - in_range);
    assert_eq!(stats.unknown_home, events.len() as u64);
    assert_eq!(
        stats.frames,
        stats.events + stats.out_of_range + stats.unknown_home
    );

    // Through the service: the same split reaches `FleetStats` and the
    // reason-labelled drop counters.
    let telemetry = Telemetry::recording();
    let mut fleet = Fleet::new(FleetConfig {
        shards: 2,
        telemetry: telemetry.clone(),
        ..FleetConfig::default()
    });
    fleet.register_home(0, model);
    let run = fleet.run(from, to, |sender| {
        for home in [0, 9] {
            for event in &events {
                sender.send(home, event);
            }
        }
    });
    let fleet_stats = run.stats;
    assert_eq!(fleet_stats.decode_errors, 0);
    assert_eq!(
        (
            fleet_stats.events,
            fleet_stats.out_of_range,
            fleet_stats.unknown_home
        ),
        (stats.events, stats.out_of_range, stats.unknown_home)
    );
    assert_eq!(
        fleet_stats.frames,
        fleet_stats.events + fleet_stats.out_of_range + fleet_stats.unknown_home
    );
    let snapshot = telemetry.snapshot().unwrap();
    for (reason, n) in [
        ("out_of_range", fleet_stats.out_of_range),
        ("unknown_home", fleet_stats.unknown_home),
    ] {
        assert_eq!(
            snapshot.family_value("dice_fleet_dropped_events_total", &[reason]),
            Some(i128::from(n)),
            "{reason}"
        );
    }
}

#[test]
fn fleet_memory_scales_with_distinct_models() {
    let cache = ModelCache::new();
    let mut fleet = Fleet::new(FleetConfig::default());
    for h in 0..100u32 {
        let plan = h as usize % 3;
        let model = cache.get_or_train(&format!("plan{plan}"), || train_plan(plan));
        fleet.register_home(h, model);
    }
    assert_eq!(fleet.homes(), 100);
    assert_eq!(cache.len(), 3);
    assert_eq!(
        fleet.models_resident(),
        3,
        "100 homes must share 3 model allocations"
    );
}

/// An arbitrary event covering all three frame tags. Numeric values stay
/// finite so decoded equality is well-defined.
fn event_strategy() -> impl Strategy<Value = Event> {
    (
        0u8..3,
        any::<u32>(),
        -1_000_000_000i64..1_000_000_000i64,
        any::<bool>(),
        -1.0e12f64..1.0e12,
    )
        .prop_map(|(tag, id, secs, b, v)| {
            let at = Timestamp::from_secs(secs);
            match tag {
                0 => Event::Sensor(SensorReading::new(SensorId::new(id), at, b.into())),
                1 => Event::Sensor(SensorReading::new(SensorId::new(id), at, v.into())),
                _ => Event::Actuator(ActuatorEvent::new(ActuatorId::new(id), at, b)),
            }
        })
}

proptest! {
    /// Encode → decode → re-encode is the identity on frames: the decoded
    /// frame equals the input and the re-encoded bytes are byte-identical
    /// (the wire format has one canonical encoding).
    #[test]
    fn frames_round_trip_byte_stably(home in any::<u32>(), event in event_strategy()) {
        let encoded = encode_frame(home, &event);
        let (frame, used) = decode_frame_slice(&encoded).expect("own encoding must decode");
        prop_assert_eq!(used, encoded.len());
        prop_assert_eq!(frame.home, home);
        prop_assert_eq!(&frame.event, &event);
        let again = encode_frame(frame.home, &frame.event);
        prop_assert_eq!(again.as_slice(), encoded.as_slice());
    }

    /// Decoding never panics on arbitrary bytes — truncated, corrupt, or
    /// oversized input returns an error (or a shorter valid frame), and
    /// the batch iterator terminates.
    #[test]
    fn arbitrary_bytes_never_panic_the_decoder(
        data in prop::collection::vec(any::<u8>(), 0..96),
    ) {
        let _ = decode_frame_slice(&data);
        let frames: Vec<_> = decode_frames(&data).collect();
        // The iterator stops at the first error, so it is finite and any
        // error is last.
        for result in &frames[..frames.len().saturating_sub(1)] {
            prop_assert!(result.is_ok());
        }
    }

    /// Flipping any single byte of a valid frame either still decodes (the
    /// flipped byte was payload, id, or timestamp) or returns an error —
    /// never a panic, and never a frame that re-encodes differently from a
    /// canonical encoding of itself.
    #[test]
    fn corrupted_frames_fail_closed(
        home in any::<u32>(),
        event in event_strategy(),
        flip_at in any::<usize>(),
        flip_bits in 1u8..=255,
    ) {
        let mut bytes = encode_frame(home, &event).as_slice().to_vec();
        let at = flip_at % bytes.len();
        bytes[at] ^= flip_bits;
        if let Ok((frame, used)) = decode_frame_slice(&bytes) {
            // Whatever decoded must re-encode to exactly the bytes it was
            // decoded from (bit-exact even for odd float payloads).
            let canonical = encode_frame(frame.home, &frame.event);
            prop_assert_eq!(canonical.as_slice(), &bytes[..used]);
        }
    }
}
