//! The `fleet-10k` workload: 10,000 homes on 4 shared floor plans, 1/16
//! of them fail-stopping a correlated sensor, served by the threaded
//! fleet.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

use dice_core::{read_model, write_model, DiceConfig, DiceModel, ParallelTrainer};
use dice_fleet::{Fleet, HomeAlarms, HomeId, ModelCache};
use dice_types::{
    DeviceRegistry, Event, EventLog, Room, SensorId, SensorKind, SensorReading, TimeDelta,
    Timestamp,
};

use crate::fleet::{fleet_failures, serve_fleet, FleetInput, FleetRep};
use crate::layers::{
    gateway_decode_ns, gateway_failures, serve_gateway, CoreLayers, GatewayFrames, HomeInput,
    Properties,
};
use crate::measure::{median, quantile, RssProbe};
use crate::rng::Rng;
use crate::{repeat_setup, serve_for, Outcome, Scale, SetupTimes};

/// Distinct floor plans; home `h` uses plan `h % FLOOR_PLANS`.
const FLOOR_PLANS: usize = 4;

/// Training span per floor plan, in minutes.
const TRAINING_MINUTES: i64 = 240;

/// One floor plan: its devices and training log.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// The plan's devices.
    pub registry: DeviceRegistry,
    /// Its motion sensors; the first two share the kitchen.
    pub sensors: Vec<SensorId>,
    /// The training log (sorted).
    pub training: EventLog,
}

/// Floor plan `k`: `3 + k` motion sensors; sensors 0 and 1 fire together
/// on even minutes, the rest take turns on odd minutes.
fn plan(k: usize) -> Plan {
    let mut registry = DeviceRegistry::new();
    let sensors: Vec<SensorId> = (0..3 + k)
        .map(|i| {
            let room = if i < 2 { Room::Kitchen } else { Room::Bedroom };
            registry.add_sensor(SensorKind::Motion, format!("s{i}"), room)
        })
        .collect();
    let mut training = EventLog::new();
    for minute in 0..TRAINING_MINUTES {
        let at = Timestamp::from_mins(minute) + TimeDelta::from_secs(5);
        if minute % 2 == 0 {
            training.push_sensor(SensorReading::new(sensors[0], at, true.into()));
            training.push_sensor(SensorReading::new(sensors[1], at, true.into()));
        } else {
            let idx = 2 + (minute as usize / 2) % (sensors.len() - 2);
            training.push_sensor(SensorReading::new(sensors[idx], at, true.into()));
        }
    }
    training.normalize();
    Plan {
        registry,
        sensors,
        training,
    }
}

/// The generated fleet input.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetCase {
    /// Homes in the fleet.
    pub homes: u32,
    /// Simulated minutes served.
    pub minutes: i64,
    /// The floor plans.
    pub plans: Vec<Plan>,
    /// Events in send order: minute by minute, home by home.
    pub feed: Vec<(HomeId, Event)>,
    /// Feed indices where each timing slice starts.
    pub slices: Vec<usize>,
    /// Home-minutes per timing slice.
    pub slice_windows: usize,
    /// Homes that fail-stop sensor 1.
    pub faulty: BTreeSet<HomeId>,
    /// Homes checked against a single-home gateway.
    pub sample: Vec<HomeId>,
}

impl FleetCase {
    /// Generates the fleet from `seed`: which homes are faulty and when
    /// their fault starts, each home's phase within the minute, and where
    /// its turn-taking sensors start.
    pub fn generate(scale: Scale, seed: u64) -> Self {
        let (homes, minutes, slice_windows, sample_healthy, sample_faulty) = match scale {
            Scale::Full => (10_000u32, 30i64, 1000usize, 56usize, 8usize),
            Scale::Small => (256, 20, 64, 12, 4),
        };
        let plans: Vec<Plan> = (0..FLOOR_PLANS).map(plan).collect();
        let mut rng = Rng::new(seed, 5);
        let mut ids: Vec<HomeId> = (0..homes).collect();
        rng.shuffle(&mut ids);
        let faulty_count = homes as usize / 16;
        let faulty: BTreeSet<HomeId> = ids[..faulty_count].iter().copied().collect();
        let mut sample: Vec<HomeId> = ids[..sample_faulty]
            .iter()
            .chain(&ids[faulty_count..faulty_count + sample_healthy])
            .copied()
            .collect();
        sample.sort_unstable();

        let schedule: Vec<(i64, usize, i64)> = (0..homes)
            .map(|_| {
                let phase = 5 + rng.below(50) as i64;
                let turn = rng.below(64) as usize;
                let onset = rng.below((minutes / 4).max(1) as u64) as i64;
                (phase, turn, onset)
            })
            .collect();

        let mut feed = Vec::new();
        let mut slices = Vec::new();
        for minute in 0..minutes {
            for h in 0..homes {
                if (minute as usize * homes as usize + h as usize).is_multiple_of(slice_windows) {
                    slices.push(feed.len());
                }
                let (phase, turn, onset) = schedule[h as usize];
                let sensors = &plans[h as usize % FLOOR_PLANS].sensors;
                let at = Timestamp::from_mins(minute) + TimeDelta::from_secs(phase);
                if minute % 2 == 0 {
                    feed.push((
                        h,
                        Event::Sensor(SensorReading::new(sensors[0], at, true.into())),
                    ));
                    if !(faulty.contains(&h) && minute >= onset) {
                        feed.push((
                            h,
                            Event::Sensor(SensorReading::new(sensors[1], at, true.into())),
                        ));
                    }
                } else {
                    let idx = 2 + (minute as usize / 2 + turn) % (sensors.len() - 2);
                    feed.push((
                        h,
                        Event::Sensor(SensorReading::new(sensors[idx], at, true.into())),
                    ));
                }
            }
        }
        FleetCase {
            homes,
            minutes,
            plans,
            feed,
            slices,
            slice_windows,
            faulty,
            sample,
        }
    }

    fn range(&self) -> (Timestamp, Timestamp) {
        (Timestamp::ZERO, Timestamp::from_mins(self.minutes))
    }

    /// One home's events, in time order.
    fn home_events(&self, home: HomeId) -> Vec<Event> {
        self.feed
            .iter()
            .filter(|(h, _)| *h == home)
            .map(|(_, e)| *e)
            .collect()
    }
}

/// Trains each floor plan once through the shared model cache (each
/// model round-trips through the model file format, and `read_model`
/// verifies it), then registers every home. Returns the model files'
/// total size too.
fn setup(case: &FleetCase, times: &mut SetupTimes) -> (Fleet, Vec<Arc<DiceModel>>, usize) {
    let cache = ModelCache::new();
    let (mut train_ns, mut read_ns, mut model_bytes) = (0.0, 0.0, 0);
    let models: Vec<Arc<DiceModel>> = case
        .plans
        .iter()
        .enumerate()
        .map(|(k, plan)| {
            cache.get_or_train(&format!("plan{k}"), || {
                let t = Instant::now();
                let trained = ParallelTrainer::new(DiceConfig::default())
                    .extract(&plan.registry, &mut plan.training.clone())
                    .expect("plan training log is non-empty");
                train_ns += t.elapsed().as_nanos() as f64;
                let mut file = Vec::new();
                write_model(&trained, &mut file).expect("writing to memory cannot fail");
                model_bytes += file.len();
                let t = Instant::now();
                let model = read_model(file.as_slice()).expect("a freshly trained model verifies");
                read_ns += t.elapsed().as_nanos() as f64;
                model
            })
        })
        .collect();
    let mut fleet = Fleet::new(crate::fleet::fleet_config());
    for h in 0..case.homes {
        fleet.register_home(h, Arc::clone(&models[h as usize % FLOOR_PLANS]));
    }
    times.train_ns.push(train_ns);
    times.read_ns.push(read_ns);
    (fleet, models, model_bytes)
}

/// Runs the fleet workload: set-up several times, serve for `seconds`,
/// check every run; with `traced`, time each layer on the same input.
pub fn run(case: FleetCase, seconds: f64, traced: bool) -> Outcome {
    let mut out = Outcome::default();
    let (from, to) = case.range();

    let mut times = SetupTimes::default();
    let (fleet, models, model_bytes) = repeat_setup(&mut times, |times| setup(&case, times));
    let mut first_fleet = Some(fleet);
    let input = FleetInput {
        homes: (0..case.homes)
            .map(|h| (h, Arc::clone(&models[h as usize % FLOOR_PLANS])))
            .collect(),
        feed: case.feed.clone(),
        from,
        to,
        slices: case.slices.clone(),
        slice_windows: case.slice_windows as f64,
    };

    // Each run is checked as soon as it ends, outside its timed span:
    // every window delivered, alarms on exactly the faulty homes, the
    // first run's alarms repeated. Only the first run's alarms are kept,
    // so earlier runs' memory does not shape later runs' heap.
    let windows = u64::from(case.homes) * case.minutes as u64;
    let mut slice_us = Vec::new();
    let mut reps: Vec<FleetRep> = Vec::new();
    let mut first_alarms: Vec<HomeAlarms> = Vec::new();
    let mut alarming_homes = 0;
    let mut serving_bytes = 0;
    let probe = RssProbe::start();
    serve_for(seconds, || {
        let fleet = first_fleet.take().unwrap_or_else(|| input.fleet());
        let mut rep = serve_fleet(fleet, &input, &mut slice_us);
        let ns = rep.wall_ns;
        let alarms = std::mem::take(&mut rep.run.alarms);
        rep.run.lineage = Vec::new();
        if reps.is_empty() {
            serving_bytes = probe.peak_growth();
            first_alarms = alarms.clone();
        }
        let alarming: BTreeSet<HomeId> = alarms
            .iter()
            .filter(|a| !a.reports.is_empty())
            .map(|a| a.home)
            .collect();
        alarming_homes = alarming.len();
        out.attempted += case.feed.len() as u64 + windows;
        out.failed += fleet_failures(&rep, &input, windows)
            + alarming.symmetric_difference(&case.faulty).count() as u64
            + alarms.len().abs_diff(first_alarms.len()) as u64
            + alarms
                .iter()
                .zip(&first_alarms)
                .filter(|(a, b)| a != b)
                .count() as u64;
        reps.push(rep);
        ns
    });
    out.windows = reps[0].run.stats.windows;
    out.alarms = reps[0].run.stats.alarms;

    // A seeded sample of homes served alone by the single-home gateway
    // must raise the alarms the fleet raised for them.
    let sample_inputs: Vec<HomeInput> = case
        .sample
        .iter()
        .map(|&h| HomeInput {
            model: Arc::clone(&models[h as usize % FLOOR_PLANS]),
            events: case.home_events(h),
            from,
            to,
        })
        .collect();
    let sample_frames: Vec<GatewayFrames> = sample_inputs
        .iter()
        .map(|input| GatewayFrames::encode(&input.events, 1))
        .collect();
    let sample_pass = |gaps: &mut Vec<f64>| -> (Vec<crate::layers::GatewayRep>, f64) {
        let mut wall = 0.0;
        let reps: Vec<_> = sample_inputs
            .iter()
            .zip(&sample_frames)
            .map(|(input, frames)| {
                let gateway = dice_gateway::HomeGateway::new(Arc::clone(&input.model));
                let rep = serve_gateway(&gateway, frames.queue(), from, to, gaps);
                wall += rep.wall_ns;
                rep
            })
            .collect();
        (reps, wall)
    };
    let mut sample_gaps = Vec::new();
    let (sample_reps, _) = sample_pass(&mut sample_gaps);
    for ((&home, rep), frames) in case.sample.iter().zip(&sample_reps).zip(&sample_frames) {
        let fleet_reports = first_alarms
            .iter()
            .find(|a| a.home == home)
            .map(|a| a.reports.clone())
            .unwrap_or_default();
        let home_windows = case.minutes as u64;
        out.attempted += frames.frames + home_windows;
        out.failed += gateway_failures(rep, frames.frames, home_windows, &fleet_reports);
    }

    let props = fleet_properties(&case, &models);
    for (k, model) in models.iter().enumerate() {
        out.info.push(crate::model_line(&format!("plan{k}"), model));
    }
    out.info.push(format!(
        "input: homes={} shards={} windows={} frames={} events_per_window={:.2} no_main_group_share={:.4} faulty_homes={} alarms_delivered={} alarming_homes={} sample_homes={}",
        case.homes,
        reps[0].run.stats.shards,
        props.windows,
        case.feed.len(),
        props.events_per_window(),
        props.no_main_group_share(),
        case.faulty.len(),
        out.alarms,
        alarming_homes,
        case.sample.len(),
    ));

    let served: u64 = reps.iter().map(|r| r.run.stats.windows).sum();
    let wall_ns: f64 = reps.iter().map(|r| r.wall_ns).sum();
    let mut setup_s: Vec<f64> = times.total_ns.iter().map(|ns| ns / 1e9).collect();
    let slice_n = slice_us.len() as u64;
    out.metrics.put(
        "windows_per_s",
        served as f64 * 1e9 / wall_ns,
        reps.len() as u64,
    );
    out.metrics
        .put("window_p50_us", quantile(&mut slice_us, 0.5), slice_n);
    out.metrics
        .put("window_p99_us", quantile(&mut slice_us, 0.99), slice_n);
    out.metrics
        .put("setup_s", median(&mut setup_s), setup_s.len() as u64);
    out.metrics.put(
        "rss_bytes_per_home",
        times.rss_bytes(serving_bytes) / f64::from(case.homes),
        times.peak_bytes.len() as u64,
    );

    if traced {
        crate::fleet::record_layers(&mut out.metrics, &input, &reps);
        let core = CoreLayers::measure(&sample_inputs);
        crate::record_core(&mut out.metrics, &core);
        let decode = gateway_decode_ns(&sample_frames);
        let mut service = Vec::new();
        let mut allocs = Vec::new();
        for _ in 0..3 {
            let (reps, wall) = sample_pass(&mut sample_gaps);
            let windows: u64 = reps.iter().map(|r| r.stats.windows).sum();
            service.push(wall / windows.max(1) as f64);
            allocs.push(reps.iter().map(|r| r.allocs).sum::<u64>() as f64 / windows.max(1) as f64);
        }
        let frames: u64 = sample_frames.iter().map(|f| f.frames).sum();
        let frames_per_window = frames as f64 / core.windows.max(1) as f64;
        out.metrics
            .put("gateway.decode_ns_per_frame", decode, frames);
        out.metrics.put(
            "gateway.loop_ns_per_window",
            median(&mut service) - decode * frames_per_window - core.engine_ns,
            3,
        );
        out.metrics.put(
            "gateway.allocs_per_window",
            median(&mut allocs) - core.engine_allocs,
            3,
        );

        crate::record_setup_layers(&mut out.metrics, &mut times, &models, model_bytes);
    }
    out
}

/// Input properties over every home, filling each home's events from the
/// feed in one sweep.
fn fleet_properties(case: &FleetCase, models: &[Arc<DiceModel>]) -> Properties {
    let (from, to) = case.range();
    let mut homes: Vec<HomeInput> = (0..case.homes)
        .map(|h| HomeInput {
            model: Arc::clone(&models[h as usize % FLOOR_PLANS]),
            events: Vec::new(),
            from,
            to,
        })
        .collect();
    for (h, event) in &case.feed {
        homes[*h as usize].events.push(*event);
    }
    Properties::of(&homes)
}
