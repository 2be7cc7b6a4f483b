//! The single-home workloads: `home-hh102` (the catalog home) and
//! `home-wide` (a synthetic hh102-width home trained to thousands of
//! groups, so the candidate scan takes the bit-sliced route).

use std::sync::Arc;
use std::time::Instant;

use dice_core::{read_model, write_model, DiceConfig, DiceModel, ParallelTrainer};
use dice_datasets::DatasetId;
use dice_faults::{FaultInjector, FaultPlanner, FaultType, SensorFault};
use dice_gateway::HomeGateway;
use dice_sim::Simulator;
use dice_types::{
    ActuatorEvent, ActuatorId, ActuatorKind, DeviceRegistry, Event, EventLog, Room, SensorId,
    SensorKind, SensorReading, TimeDelta, Timestamp,
};

use crate::fleet::{serve_fleet, FleetInput};
use crate::layers::{
    gateway_decode_ns, gateway_failures, serve_gateway, CoreLayers, GatewayFrames, HomeInput,
    Properties,
};
use crate::measure::{median, quantile, RssProbe};
use crate::rng::Rng;
use crate::{repeat_setup, serve_for, Outcome, Scale, SetupTimes};

/// Aggregator streams the monitored home is split over.
const STREAMS: usize = 4;

/// The dataset seed the evaluation builds the catalog homes with.
const CATALOG_SEED: u64 = 42;

/// One home workload's generated input.
#[derive(Debug, Clone, PartialEq)]
pub struct HomeCase {
    /// Model label in the report.
    pub label: &'static str,
    /// The home's devices.
    pub registry: DeviceRegistry,
    /// The training log (sorted).
    pub training: EventLog,
    /// The monitored stream, in time order, faults injected.
    pub stream: Vec<Event>,
    /// Start of the monitored range.
    pub from: Timestamp,
    /// End of the monitored range.
    pub to: Timestamp,
    /// The injected sensor faults.
    pub faults: Vec<SensorFault>,
}

/// Splits `[from, from + segments * len)` into segments and injects one
/// seeded sensor fault into half of them, chosen by the seed. The planner
/// picks each fault's sensor and onset; the fault classes take turns, so
/// every seed injects the same mix of classes and the share of windows
/// that miss their main group varies little from seed to seed.
fn inject_faults(
    seed: u64,
    registry: &DeviceRegistry,
    from: Timestamp,
    segments: usize,
    len: TimeDelta,
    mut segment_log: impl FnMut(Timestamp, Timestamp) -> EventLog,
) -> (Vec<Event>, Vec<SensorFault>) {
    let mut rng = Rng::new(seed, 11);
    let mut order: Vec<usize> = (0..segments).collect();
    rng.shuffle(&mut order);
    let faulty = &order[..segments / 2];
    let classes = FaultType::all();
    let first_class = rng.below(classes.len() as u64) as usize;
    let planner = FaultPlanner::new(seed);
    let injector = FaultInjector::new(seed);
    let mut stream = Vec::new();
    let mut faults = Vec::new();
    for i in 0..segments {
        let start = from + TimeDelta::from_secs(len.as_secs() * i as i64);
        let mut log = segment_log(start, start + len);
        if faulty.contains(&i) {
            let fault = SensorFault {
                fault: classes[(first_class + faults.len()) % classes.len()],
                ..planner.sensor_fault(i as u64, registry, start, len)
            };
            log = injector.inject_sensor(log, registry, &fault);
            faults.push(fault);
        }
        stream.extend_from_slice(log.events());
    }
    (stream, faults)
}

impl HomeCase {
    /// The catalog hh102 home: trained on 300 h of its simulated routine,
    /// monitored over the following segments with faults in half of them.
    /// The home itself is the catalog's, built with the evaluation's
    /// dataset seed; `seed` picks the faults.
    pub fn hh102(scale: Scale, seed: u64) -> Self {
        let (train_hours, segments, segment_mins) = match scale {
            Scale::Full => (300, 16, 90),
            Scale::Small => (24, 2, 60),
        };
        let sim = Simulator::new(DatasetId::Hh102.scenario(CATALOG_SEED))
            .expect("catalog scenario is valid");
        let registry = sim.registry().clone();
        let from = Timestamp::from_hours(train_hours);
        let mut training = sim.log_between(Timestamp::ZERO, from);
        training.normalize();
        let len = TimeDelta::from_mins(segment_mins);
        let (stream, faults) = inject_faults(seed, &registry, from, segments, len, |a, b| {
            sim.log_between(a, b)
        });
        HomeCase {
            label: "hh102",
            registry,
            training,
            stream,
            from,
            to: from + TimeDelta::from_mins(segments as i64 * segment_mins),
            faults,
        }
    }

    /// A home at hh102 width (33 binary + 79 numeric sensors, 4
    /// actuators) whose routine rarely repeats a window, so the model
    /// holds thousands of groups. The home and its training log are
    /// fixed; `seed` picks the replayed part of the training span and the
    /// faults injected into half of its segments, so only the faulty
    /// share of windows misses its main group.
    pub fn wide(scale: Scale, seed: u64) -> Self {
        let (train_hours, segments, segment_hours) = match scale {
            Scale::Full => (240, 32, 3),
            Scale::Small => (36, 4, 3),
        };
        let mut registry = DeviceRegistry::new();
        let binary: Vec<SensorId> = (0..33)
            .map(|i| registry.add_sensor(SensorKind::Motion, format!("m{i}"), Room::Kitchen))
            .collect();
        let numeric: Vec<SensorId> = (0..79)
            .map(|i| registry.add_sensor(SensorKind::Temperature, format!("t{i}"), Room::Kitchen))
            .collect();
        let actuators: Vec<ActuatorId> = (0..4)
            .map(|i| registry.add_actuator(ActuatorKind::SmartBulb, format!("a{i}"), Room::Kitchen))
            .collect();
        let mut rng = Rng::new(seed, 7);

        let mut training = EventLog::new();
        for minute in 0..train_hours * 60 {
            let at = Timestamp::from_mins(minute) + TimeDelta::from_secs(11);
            let m = minute as usize;
            for k in 0..5 {
                let s = binary[(m * 7 + k * 13) % binary.len()];
                training.push_sensor(SensorReading::new(
                    s,
                    at + TimeDelta::from_secs(k as i64),
                    true.into(),
                ));
            }
            for k in 0..8 {
                let s = numeric[(m * 5 + k * 11) % numeric.len()];
                let v = 18.0 + ((m + k) % 17) as f64 * 0.5;
                training.push_sensor(SensorReading::new(s, at, v.into()));
                let drift = (m % 3) as f64 - 1.0;
                training.push_sensor(SensorReading::new(
                    s,
                    at + TimeDelta::from_secs(30),
                    (v + drift).into(),
                ));
            }
            if m.is_multiple_of(7) {
                let a = actuators[(m / 7) % actuators.len()];
                training.push_actuator(ActuatorEvent::new(a, at, true));
            }
        }
        training.normalize();

        let replay_hours = segments as i64 * segment_hours;
        let from = Timestamp::from_hours(rng.below((train_hours - replay_hours + 1) as u64) as i64);
        let len = TimeDelta::from_hours(segment_hours);
        let (stream, faults) = inject_faults(seed, &registry, from, segments, len, |a, b| {
            training.slice(a, b)
        });
        HomeCase {
            label: "wide",
            registry,
            training,
            stream,
            from,
            to: from + TimeDelta::from_hours(replay_hours),
            faults,
        }
    }
}

/// Trains the model, round-trips it through the model file format
/// (`read_model` verifies it), and builds the gateway. Returns the model
/// file's size too.
fn setup(
    case: &mut HomeCase,
    times: &mut SetupTimes,
) -> (HomeGateway<Arc<DiceModel>>, Arc<DiceModel>, usize) {
    let t0 = Instant::now();
    let trained = ParallelTrainer::new(DiceConfig::default())
        .extract(&case.registry, &mut case.training)
        .expect("training log is non-empty");
    times.train_ns.push(t0.elapsed().as_nanos() as f64);
    let mut file = Vec::new();
    write_model(&trained, &mut file).expect("writing to memory cannot fail");
    let t1 = Instant::now();
    let model = Arc::new(read_model(file.as_slice()).expect("a freshly trained model verifies"));
    times.read_ns.push(t1.elapsed().as_nanos() as f64);
    (HomeGateway::new(Arc::clone(&model)), model, file.len())
}

/// Runs one home workload: set-up several times, then serve the queued
/// stream for `seconds`, then check every pass against the offline
/// replay; with `traced`, time each layer on the same input.
pub fn run(mut case: HomeCase, seconds: f64, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    let frames = GatewayFrames::encode(&case.stream, STREAMS);
    let mut queued = Some(frames.queue());

    let mut times = SetupTimes::default();
    let (gateway, model, model_bytes) = repeat_setup(&mut times, |times| setup(&mut case, times));
    let mut first_gateway = Some(gateway);

    let mut gaps = Vec::new();
    let mut reps = Vec::new();
    let mut serving_bytes = 0;
    let probe = RssProbe::start();
    serve_for(seconds, || {
        let inputs = queued.take().unwrap_or_else(|| frames.queue());
        let gateway = first_gateway
            .take()
            .unwrap_or_else(|| HomeGateway::new(Arc::clone(&model)));
        reps.push(serve_gateway(
            &gateway, inputs, case.from, case.to, &mut gaps,
        ));
        if reps.len() == 1 {
            serving_bytes = probe.peak_growth();
        }
        reps[reps.len() - 1].wall_ns
    });

    // Correctness, outside the timed phase.
    let input = HomeInput {
        model: Arc::clone(&model),
        events: case.stream.clone(),
        from: case.from,
        to: case.to,
    };
    let expected = input.reference_alarms();
    let windows = input.windows().len() as u64;
    for rep in &reps {
        out.attempted += frames.frames + windows;
        out.failed += gateway_failures(rep, frames.frames, windows, &expected);
    }
    out.windows = reps[0].stats.windows;
    out.alarms = reps[0].alarms.len() as u64;

    let props = Properties::of(std::slice::from_ref(&input));
    out.info.push(crate::model_line(case.label, &model));
    out.info.push(format!(
        "input: homes=1 windows={} frames={} events_per_window={:.1} no_main_group_share={:.4} faults_injected={} alarms_delivered={} reference_alarms={}",
        props.windows,
        frames.frames,
        props.events_per_window(),
        props.no_main_group_share(),
        case.faults.len(),
        out.alarms,
        expected.len(),
    ));

    let served: u64 = reps.iter().map(|r| r.stats.windows).sum();
    let wall_ns: f64 = reps.iter().map(|r| r.wall_ns).sum();
    let n_reps = reps.len() as u64;
    let mut setup_s: Vec<f64> = times.total_ns.iter().map(|ns| ns / 1e9).collect();
    let gap_n = gaps.len() as u64;
    out.metrics
        .put("windows_per_s", served as f64 * 1e9 / wall_ns, n_reps);
    out.metrics
        .put("window_p50_us", quantile(&mut gaps, 0.5), gap_n);
    out.metrics
        .put("window_p99_us", quantile(&mut gaps, 0.99), gap_n);
    out.metrics
        .put("setup_s", median(&mut setup_s), setup_s.len() as u64);
    out.metrics.put(
        "rss_bytes_per_home",
        times.rss_bytes(serving_bytes),
        times.peak_bytes.len() as u64,
    );

    if traced {
        let core = CoreLayers::measure(std::slice::from_ref(&input));
        crate::record_core(&mut out.metrics, &core);
        let decode = gateway_decode_ns(std::slice::from_ref(&frames));
        let allocs: u64 = reps.iter().map(|r| r.allocs).sum();
        let frames_per_window = frames.frames as f64 / windows.max(1) as f64;
        out.metrics
            .put("gateway.decode_ns_per_frame", decode, frames.frames);
        out.metrics.put(
            "gateway.loop_ns_per_window",
            wall_ns / served as f64 - decode * frames_per_window - core.engine_ns,
            served,
        );
        out.metrics.put(
            "gateway.allocs_per_window",
            allocs as f64 / served as f64 - core.engine_allocs,
            served,
        );

        crate::record_setup_layers(
            &mut out.metrics,
            &mut times,
            &[Arc::clone(&model)],
            model_bytes,
        );

        // The same stream through a one-home fleet: the fleet path's
        // layers on this home's input.
        let fleet_input = FleetInput::single(Arc::clone(&model), &case.stream, case.from, case.to);
        let mut slices = Vec::new();
        let mut fleet_reps = Vec::new();
        serve_for(seconds.min(1.0), || {
            fleet_reps.push(serve_fleet(fleet_input.fleet(), &fleet_input, &mut slices));
            fleet_reps[fleet_reps.len() - 1].wall_ns
        });
        crate::fleet::record_layers(&mut out.metrics, &fleet_input, &fleet_reps);
    }
    out
}
