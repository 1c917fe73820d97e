//! Catalog-loading cost: parsing + full `DeviceSpec::validate` for one
//! device file, and a whole committed-directory load (six devices plus
//! a grid). Loading happens once per CLI invocation, but a fleet
//! orchestrator resolving hundreds of device files cares about the
//! per-file cost staying flat as the format grows.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use std::path::PathBuf;
use std::time::Duration;
use usta_catalog::Catalog;
use usta_device::{device_to_toml, parse_device};

/// The committed catalog directory at the repository root.
fn committed_catalog_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../catalog")
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("catalog_load");
    group.measurement_time(Duration::from_secs(3));
    group.warm_up_time(Duration::from_millis(500));

    // Per-file parse+validate, from in-memory text: the paper's device
    // (smallest file) and the three-domain prime-flagship (largest).
    for id in ["nexus4", "prime-flagship"] {
        let spec = usta_device::by_id(id).expect("built-in id");
        let text = device_to_toml(spec);
        group.bench_function(format!("parse_device/{id}"), |b| {
            b.iter(|| parse_device(black_box(&text)).expect("round-trips"))
        });
    }

    // Serialization alone, for the round-trip's other half.
    let spec = usta_device::by_id("prime-flagship").expect("built-in id");
    group.bench_function("device_to_toml/prime-flagship", |b| {
        b.iter(|| device_to_toml(black_box(spec)))
    });

    // The full committed directory: read_dir + six device parses +
    // grid parse + validation — what `--catalog catalog/` costs a CLI.
    let dir = committed_catalog_dir();
    group.bench_function("load_dir/committed", |b| {
        b.iter(|| Catalog::load_dir(black_box(&dir)).expect("committed catalog loads"))
    });

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
