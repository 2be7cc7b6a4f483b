//! The benchmark's own tests, on reduced inputs. Run them optimized:
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use perfbench::fleet10k::FleetCase;
use perfbench::home::HomeCase;
use perfbench::report::{END_TO_END, PER_LAYER};
use perfbench::{run, Scale, Workload};

#[test]
fn reduced_runs_report_every_metric_and_agree_traced_and_untraced() {
    for workload in Workload::ALL {
        let plain = run(workload, Scale::Small, 3, 0.0, false);
        let mut traced = run(workload, Scale::Small, 3, 0.0, true);
        let untraced = plain
            .metrics
            .get("windows_per_s")
            .expect("throughput is measured")
            .value;
        traced.record_trace_overhead(untraced);
        let name = workload.name();

        assert_eq!(plain.failed, 0, "{name}: untraced checks failed");
        assert_eq!(traced.failed, 0, "{name}: traced checks failed");
        assert!(
            plain.attempted > 0 && traced.attempted > 0,
            "{name}: nothing checked"
        );

        let e2e = plain
            .metrics
            .select(&END_TO_END)
            .unwrap_or_else(|| panic!("{name}: end-to-end metric missing"));
        let layers = traced
            .metrics
            .select(&PER_LAYER)
            .unwrap_or_else(|| panic!("{name}: per-layer metric missing"));
        for (m, (n, unit)) in e2e
            .iter()
            .chain(&layers)
            .zip(END_TO_END.iter().chain(&PER_LAYER))
        {
            assert_eq!(
                (m.name, m.unit),
                (*n, *unit),
                "{name}: metric order or unit"
            );
        }
        for m in &e2e {
            assert!(m.value > 0.0, "{name}: {} must be positive", m.name);
        }

        assert!(plain.windows > 0, "{name}: no windows served");
        assert!(
            plain.alarms > 0,
            "{name}: the injected faults raise no alarm"
        );
        assert_eq!(
            plain.windows, traced.windows,
            "{name}: window counts differ"
        );
        assert_eq!(plain.alarms, traced.alarms, "{name}: alarm counts differ");
    }
}

#[test]
fn the_wide_home_takes_the_bit_sliced_route_and_the_others_do_not() {
    let routes = |workload| {
        let out = run(workload, Scale::Small, 5, 0.0, false);
        out.info
            .iter()
            .filter(|l| l.starts_with("model "))
            .map(|l| l.contains("scan_route=bit-sliced"))
            .collect::<Vec<_>>()
    };
    assert_eq!(routes(Workload::HomeWide), [true]);
    assert_eq!(routes(Workload::HomeHh102), [false]);
    assert!(routes(Workload::Fleet10k).iter().all(|sliced| !sliced));
}

#[test]
fn a_fixed_seed_regenerates_identical_inputs() {
    assert_eq!(
        HomeCase::hh102(Scale::Small, 9),
        HomeCase::hh102(Scale::Small, 9)
    );
    assert_eq!(
        HomeCase::wide(Scale::Small, 9),
        HomeCase::wide(Scale::Small, 9)
    );
    assert_eq!(
        FleetCase::generate(Scale::Small, 9),
        FleetCase::generate(Scale::Small, 9)
    );

    assert_ne!(
        HomeCase::hh102(Scale::Small, 9).stream,
        HomeCase::hh102(Scale::Small, 10).stream
    );
    assert_ne!(
        HomeCase::wide(Scale::Small, 9).stream,
        HomeCase::wide(Scale::Small, 10).stream
    );
    assert_ne!(
        FleetCase::generate(Scale::Small, 9).feed,
        FleetCase::generate(Scale::Small, 10).feed
    );
}

#[test]
fn the_benchmark_file_names_every_metric_with_its_unit() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let file = std::fs::read_to_string(path)
        .expect("BENCHMARK.json sits beside the benchmark's directory");
    for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
        let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(file.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    assert_eq!(
        file.matches("\"unit\"").count(),
        END_TO_END.len() + PER_LAYER.len()
    );
    for workload in Workload::ALL {
        assert!(file.contains(&format!("{{\"name\": \"{}\", \"why\"", workload.name())));
    }
}
