//! `dice-repro monitor --once` end-to-end: the deterministic render mode
//! must be byte-stable across runs on the same replayed segment, carry the
//! sparkline dashboard, and grade every deterministic health rule.

use std::io::BufWriter;

use dice_core::{write_model, ContextExtractor, DiceConfig};
use dice_datasets::write_csv;
use dice_eval::experiments::run_command;
use dice_types::{DeviceRegistry, EventLog, Room, SensorKind, SensorReading, TimeDelta, Timestamp};

/// Trains a 3-sensor model and persists it plus a 60-minute live CSV (one
/// sensor failed-stop halfway) under a fresh temp directory named after
/// `test`, so tests running in parallel never share the files.
fn materialize(test: &str) -> (String, String) {
    let mut registry = DeviceRegistry::new();
    let s0 = registry.add_sensor(SensorKind::Motion, "s0", Room::Kitchen);
    let s1 = registry.add_sensor(SensorKind::Motion, "s1", Room::Kitchen);
    let s2 = registry.add_sensor(SensorKind::Motion, "s2", Room::Bedroom);
    let mut train = EventLog::new();
    for minute in 0..240 {
        let at = Timestamp::from_mins(minute) + TimeDelta::from_secs(5);
        if minute % 2 == 0 {
            train.push_sensor(SensorReading::new(s0, at, true.into()));
            train.push_sensor(SensorReading::new(s1, at, true.into()));
        } else {
            train.push_sensor(SensorReading::new(s2, at, true.into()));
        }
    }
    let model = ContextExtractor::new(DiceConfig::default())
        .extract(&registry, &mut train)
        .expect("training succeeds");

    let mut live = EventLog::new();
    for minute in 0..60 {
        let at = Timestamp::from_mins(minute) + TimeDelta::from_secs(5);
        if minute % 2 == 0 {
            live.push_sensor(SensorReading::new(s0, at, true.into()));
            if minute < 30 {
                live.push_sensor(SensorReading::new(s1, at, true.into()));
            }
        } else {
            live.push_sensor(SensorReading::new(s2, at, true.into()));
        }
    }

    let dir = std::env::temp_dir().join(format!("dice-test-monitor-{}-{test}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let model_path = dir.join("model.dice");
    let file = std::fs::File::create(&model_path).expect("model file");
    write_model(&model, BufWriter::new(file)).expect("model writes");
    let csv_path = dir.join("live.csv");
    let file = std::fs::File::create(&csv_path).expect("csv file");
    write_csv(&mut live, BufWriter::new(file)).expect("csv writes");
    (
        model_path.to_string_lossy().into_owned(),
        csv_path.to_string_lossy().into_owned(),
    )
}

#[test]
fn monitor_once_render_is_byte_stable() {
    let (model, csv) = materialize("once");
    let args = ["--once", "--health", model.as_str(), csv.as_str()];
    let first = run_command("monitor", &args).expect("monitor runs");
    let second = run_command("monitor", &args).expect("monitor runs again");
    assert_eq!(first, second, "--once render must be byte-stable");

    // The dashboard carries the fault, the series, and the health table.
    assert!(
        first.contains("ALARM:"),
        "faulty replay must alarm:\n{first}"
    );
    assert!(first.contains("series (one sample per 30 sim-minutes"));
    assert!(first.contains("events"), "missing series rows:\n{first}");
    assert!(
        first.chars().any(|c| "▂▃▄▅▆▇█".contains(c)),
        "sparklines must show activity:\n{first}"
    );
    assert!(
        first.contains("status: ok"),
        "healthy rules grade ok:\n{first}"
    );
    assert!(
        first.contains("status: n/a"),
        "wall-clock rules must be skipped in --once:\n{first}"
    );
    assert!(
        !first.contains("status: crit"),
        "no crit expected:\n{first}"
    );
    assert!(first.contains("overall: ok"));
    assert!(first.contains("telemetry_overhead"));
    // 60 full minutes plus the partial window after the last event.
    assert!(first.contains("processed 61 windows"), "{first}");
}

#[test]
fn monitor_live_mode_matches_once_totals() {
    let (model, csv) = materialize("live");
    let once =
        run_command("monitor", &["--once", model.as_str(), csv.as_str()]).expect("once mode runs");
    let live = run_command("monitor", &[model.as_str(), csv.as_str()]).expect("live mode runs");
    // Thread timing may shift the channel-depth series, but the replay's
    // totals and alarms are identical.
    let footer = |out: &str| {
        out.lines()
            .find(|l| l.starts_with("processed "))
            .expect("footer present")
            .to_string()
    };
    assert_eq!(footer(&once), footer(&live));
    assert_eq!(
        once.lines().filter(|l| l.starts_with("ALARM:")).count(),
        live.lines().filter(|l| l.starts_with("ALARM:")).count()
    );
    // No --health flag: the rule table must be absent.
    assert!(!once.contains("health rules"));
}
