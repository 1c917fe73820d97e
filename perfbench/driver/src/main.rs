//! perfbench-driver: a traced replay of one `fleet_sweep` workload.
//!
//! Rebuilds the sweep's exact (user, device, scenario) triples from the
//! workspace crates' public calls and runs them on one thread, timing
//! every layer from outside: catalog load, input sampling, predictor
//! training, and per step the workload demand, the device, the
//! governors, USTA and the flight recorder, then the fleet's per-triple
//! bookkeeping, aggregation and triage dumps.
//!
//! It prints one JSON object of layer metrics on stdout. With
//! `--expect-csv` and `--expect-report` it also checks that its
//! per-triple outcomes reproduce the program's `triples.csv` and its
//! aggregate table byte for byte; `--dump-dir` writes the triage flight
//! dumps for the caller to compare with the program's.
//!
//! ```text
//! perfbench-driver --users 200 --seed 42 \
//!     --expect-csv run/triples.csv --expect-report run/stdout.txt
//! ```

mod mirror;
mod replay;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use rand::Rng;
use usta_core::{ComfortStats, UserPopulation, UstaGovernor, UstaPolicy};
use usta_fleet::{FleetAggregate, GridAxes, ScenarioCatalog, SweepConfig, TripleOutcome};
use usta_sim::{Device, Governor};
use usta_soc::PerDomain;
use usta_telemetry::FlightRecorder;

use replay::{Lap, StepLayers, TimedBaseline};

struct Args {
    config: SweepConfig,
    /// `--device` as given: a comma-separated id list or `all`,
    /// resolved once the catalog is installed.
    devices: String,
    catalog: Option<PathBuf>,
    grid: Option<String>,
    dump_dir: Option<PathBuf>,
    expect_csv: Option<PathBuf>,
    expect_report: Option<PathBuf>,
}

const USAGE: &str = "usage: perfbench-driver [--users N] [--scenarios N] [--seed N] \
[--device LIST|all] [--catalog DIR] [--grid NAME] [--no-usta] [--dump-dir DIR] \
[--expect-csv FILE] [--expect-report FILE]";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        config: SweepConfig::default(),
        devices: "nexus4".to_owned(),
        catalog: None,
        grid: None,
        dump_dir: None,
        expect_csv: None,
        expect_report: None,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        if flag == "--no-usta" {
            args.config.usta = false;
            continue;
        }
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: bad number {v:?}"))
        };
        match flag.as_str() {
            "--users" => args.config.users = number(&value)? as usize,
            "--scenarios" => args.config.scenarios = number(&value)? as usize,
            "--seed" => args.config.seed = number(&value)?,
            "--device" => args.devices = value,
            "--catalog" => args.catalog = Some(value.into()),
            "--grid" => args.grid = Some(value),
            "--dump-dir" => args.dump_dir = Some(value.into()),
            "--expect-csv" => args.expect_csv = Some(value.into()),
            "--expect-report" => args.expect_report = Some(value.into()),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(args)
}

/// Loads and installs the catalog directory, then resolves `--grid`
/// and `--device` against it, as `fleet_sweep` does.
fn load_catalog(args: &mut Args) -> Result<(), String> {
    let mut catalog = usta_catalog::Catalog::default();
    if let Some(dir) = &args.catalog {
        catalog = usta_catalog::Catalog::load_dir(dir).map_err(|e| e.to_string())?;
        catalog.install().map_err(|e| e.to_string())?;
    }
    if let Some(name) = &args.grid {
        let spec = catalog
            .grid(name)
            .ok_or_else(|| format!("unknown grid {name:?}"))?;
        args.config.grid = Some(GridAxes::from_spec(spec)?);
    }
    args.config.devices = if args.devices.eq_ignore_ascii_case("all") {
        usta_device::merged_ids()
            .iter()
            .map(|&id| id.to_owned())
            .collect()
    } else {
        args.devices
            .split(',')
            .map(|s| s.trim().to_owned())
            .collect()
    };
    Ok(())
}

/// Self times of the layers outside the step loop, plus their counts.
#[derive(Default)]
struct FleetLayers {
    catalog: Duration,
    inputs: Duration,
    training: Duration,
    prepare: Duration,
    finish: Duration,
    aggregate: Duration,
    dump: Duration,
    fits: u64,
    training_work: usta_sim::RunWork,
    dumps: u64,
    dump_bytes: u64,
}

/// Nearest-rank quantile of sorted values.
fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The highest whole percentile (50–99) with at least ten samples
/// above its nearest-rank position.
fn tail_percentile(n: usize) -> u32 {
    (50..=99)
        .rev()
        .find(|&p| {
            let rank = (p as f64 / 100.0 * n as f64).ceil() as usize;
            n.saturating_sub(rank) >= 10
        })
        .unwrap_or(50)
}

/// Share of triples the program's chunk body integrates in a
/// same-device group of two or more (its batched thermal path).
fn batched_share(catalog: &ScenarioCatalog, total: usize, chunk_size: usize) -> f64 {
    let mut batched = 0usize;
    for lo in (0..total).step_by(chunk_size) {
        let hi = (lo + chunk_size).min(total);
        let mut groups: Vec<(&str, usize)> = Vec::new();
        for index in lo..hi {
            let device = catalog.scenarios()[index % catalog.len()].device;
            match groups.iter_mut().find(|(d, _)| *d == device) {
                Some((_, n)) => *n += 1,
                None => groups.push((device, 1)),
            }
        }
        batched += groups
            .iter()
            .filter(|(_, n)| *n > 1)
            .map(|(_, n)| n)
            .sum::<usize>();
    }
    batched as f64 / total as f64
}

/// The first line where `got` and `want` differ, for the mismatch report.
fn first_difference(got: &str, want: &str) -> String {
    for (i, (g, w)) in got.lines().zip(want.lines()).enumerate() {
        if g != w {
            return format!("line {}: replay {g:?} vs program {w:?}", i + 1);
        }
    }
    format!(
        "lengths differ: replay {} lines vs program {} lines",
        got.lines().count(),
        want.lines().count()
    )
}

fn json_value(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_owned()
    }
}

fn run() -> Result<bool, String> {
    let mut args = parse_args()?;
    let wall = std::time::Instant::now();
    let mut clock = Lap::start();
    let mut fleet = FleetLayers::default();
    let mut steps = StepLayers::default();

    load_catalog(&mut args)?;
    fleet.catalog += clock.lap();

    let config = &args.config;
    let devices = config.resolved_devices().map_err(|e| e.to_string())?;
    let default_axes = GridAxes::default();
    let axes = config.grid.as_ref().unwrap_or(&default_axes);
    let catalog = ScenarioCatalog::sampled_grid_on(
        config.seed ^ 0x5CE4_A210,
        config.scenarios,
        axes,
        &devices,
    );
    let population = UserPopulation::sampled(config.seed, config.users);
    let total = population.len() * catalog.len();
    if total == 0 {
        return Err("the sweep has no triples".to_owned());
    }
    fleet.inputs += clock.lap();

    let mut pools = Vec::new();
    if config.usta {
        for &device in &devices {
            let pool = mirror::train_pool(config, device);
            fleet.fits += pool.fits;
            fleet.training_work.merge(&pool.work);
            pools.push((device, pool.predictors));
        }
        fleet.training += clock.lap();
    }

    // Triage records only when there is a directory to dump into.
    if let Some(dir) = &args.dump_dir {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let mut ring = (args.dump_dir.is_some() && config.flight_windows > 0)
        .then(|| FlightRecorder::new(config.flight_windows));
    let mut csv = String::from(mirror::TRACE_HEADER);
    let mut aggregate = FleetAggregate::new();
    let mut triple_ms = Vec::with_capacity(total);
    let mut work = usta_sim::RunWork::default();
    let chunk_size = config.chunk_size.max(1);
    fleet.prepare += clock.lap();

    for lo in (0..total).step_by(chunk_size) {
        let mut partial = FleetAggregate::new();
        for index in lo..(lo + chunk_size).min(total) {
            let triple_start = std::time::Instant::now();
            let user = &population.users()[index / catalog.len()];
            let scenario = &catalog.scenarios()[index % catalog.len()];
            let mut rng = mirror::triple_stream(config.seed, index as u64);
            let sensor_seed: u64 = rng.gen();
            let jitter_seed: u64 = rng.gen();
            let mut device = Device::new(scenario.device_config(sensor_seed))
                .map_err(|e| format!("triple {index}: {e}"))?;
            let mut workload = scenario.workload(jitter_seed, config.max_sim_seconds);
            let baseline =
                usta_governors::by_name(&config.governor).expect("the default governor exists");
            let mut governor = if config.usta {
                let predictors = &pools
                    .iter()
                    .find(|(d, _)| *d == scenario.device)
                    .expect("one pool per device")
                    .1;
                let pick = rng.gen_range(0..predictors.len());
                Governor::Usta(Box::new(UstaGovernor::new(
                    Box::new(TimedBaseline(baseline)),
                    predictors[pick].clone(),
                    UstaPolicy::new(user.skin_limit),
                )))
            } else {
                Governor::Baseline(baseline)
            };
            if let Some(ring) = ring.as_mut() {
                ring.clear();
            }
            fleet.prepare += clock.lap();

            let run = replay::run_traced(
                &mut device,
                &mut workload,
                &mut governor,
                ring.as_mut(),
                &mut clock,
                &mut steps,
            );

            let comfort =
                ComfortStats::from_trace(&run.skin_trace, run.log_period_s, user.skin_limit);
            let outcome = TripleOutcome {
                sim_seconds: run.duration,
                peak_skin_c: run.max_skin.value(),
                time_over_fraction: comfort.fraction_over,
                qos: 1.0 - run.unserved_fraction,
                device: scenario.device,
                domain_names: PerDomain::from_slice(&run.domain_names),
                domain_freq_ghz: PerDomain::from_slice(&run.avg_domain_freq_ghz),
                die_node_names: PerDomain::from_slice(&scenario.spec().thermal.die_nodes),
                peak_die_c: run.max_die.iter().map(|t| t.value()).collect(),
                avg_brightness: run
                    .domain_names
                    .iter()
                    .position(|name| *name == "display")
                    .map(|d| run.avg_domain_freq_ghz[d] * 1000.0),
                work: run.work,
            };
            work.merge(&run.work);
            csv.push_str(&mirror::trace_row(index, &catalog, &outcome));
            fleet.finish += clock.lap();

            partial.record(&outcome);
            fleet.aggregate += clock.lap();

            if let (Some(ring), Some(dir)) = (ring.as_ref(), &args.dump_dir) {
                if mirror::triage_hit(config, user.skin_limit.value(), &outcome) {
                    let json =
                        mirror::flight_json(config, &population, &catalog, index, &outcome, ring);
                    let path = dir.join(format!("flight-{index:06}.json"));
                    std::fs::write(&path, &json).map_err(|e| format!("{}: {e}", path.display()))?;
                    fleet.dumps += 1;
                    fleet.dump_bytes += json.len() as u64;
                }
                fleet.dump += clock.lap();
            }
            triple_ms.push(triple_start.elapsed().as_secs_f64() * 1e3);
        }
        aggregate.merge(&partial);
        fleet.aggregate += clock.lap();
    }
    let wall_s = wall.elapsed().as_secs_f64();

    let mut matches = true;
    if let Some(path) = &args.expect_csv {
        let want = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        if csv != want {
            eprintln!(
                "perfbench-driver: triples.csv mismatch, {}",
                first_difference(&csv, &want)
            );
            matches = false;
        }
    }
    if let Some(path) = &args.expect_report {
        let want = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let table = aggregate.table();
        if !want.contains(&table) {
            eprintln!(
                "perfbench-driver: aggregate table mismatch, {}",
                first_difference(&table, &want)
            );
            matches = false;
        }
    }

    let s = |d: Duration| d.as_secs_f64();
    let per = |d: Duration, n: u64| if n == 0 { 0.0 } else { s(d) * 1e9 / n as f64 };
    let n = steps.steps;
    let layer_sum = s(fleet.catalog)
        + s(fleet.inputs)
        + s(fleet.training)
        + s(fleet.prepare)
        + s(fleet.finish)
        + s(fleet.aggregate)
        + s(fleet.dump)
        + s(steps.demand)
        + s(steps.apply)
        + s(steps.observe)
        + s(steps.tick)
        + s(steps.governors)
        + s(steps.usta_decide)
        + s(steps.record)
        + s(steps.step_self);
    triple_ms.sort_by(f64::total_cmp);
    let tail = tail_percentile(triple_ms.len());
    let metrics: Vec<(&str, f64)> = vec![
        ("catalog.load_ms", s(fleet.catalog) * 1e3),
        ("fleet.inputs_ms", s(fleet.inputs) * 1e3),
        ("training.pool_s", s(fleet.training)),
        ("ml.fits", fleet.fits as f64),
        ("workloads.demand_at_ns", per(steps.demand, n)),
        ("device.apply_ns", per(steps.apply, n)),
        ("device.observe_ns", per(steps.observe, n)),
        ("governors.decide_ns", per(steps.governors, n)),
        ("core.tick_ns", per(steps.tick, steps.usta_steps)),
        (
            "core.usta_decide_ns",
            per(steps.usta_decide, steps.usta_steps),
        ),
        ("core.predictions", work.predictions as f64),
        ("core.arbiter_invocations", work.arbiter_invocations as f64),
        (
            "core.capped_fraction",
            work.capped_decisions as f64 / work.governor_decisions.max(1) as f64,
        ),
        ("flight.record_ns", per(steps.record, steps.records)),
        (
            "flight.dump_ms",
            if fleet.dumps == 0 {
                0.0
            } else {
                s(fleet.dump) * 1e3 / fleet.dumps as f64
            },
        ),
        ("flight.dumps", fleet.dumps as f64),
        ("flight.bytes", fleet.dump_bytes as f64),
        ("fleet.prepare_us", s(fleet.prepare) * 1e6 / total as f64),
        ("fleet.finish_us", s(fleet.finish) * 1e6 / total as f64),
        (
            "fleet.aggregate_ns",
            s(fleet.aggregate) * 1e9 / total as f64,
        ),
        ("fleet.triple_ms_p50", nearest_rank(&triple_ms, 0.5)),
        (
            "fleet.triple_ms_tail",
            nearest_rank(&triple_ms, tail as f64 / 100.0),
        ),
        ("fleet.triple_tail_pct", tail as f64),
        ("fleet.triples", total as f64),
        ("sim.step_self_ns", per(steps.step_self, n)),
        ("sim.steps", (work.steps + fleet.training_work.steps) as f64),
        (
            "sim.log_windows",
            (work.log_windows + fleet.training_work.log_windows) as f64,
        ),
        (
            "thermal.batched_share",
            batched_share(&catalog, total, chunk_size),
        ),
        ("trace.layer_share", layer_sum / wall_s),
        ("trace.wall_s", wall_s),
    ];
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v)| format!("\"{name}\": {}", json_value(*v)))
        .collect();
    println!(
        "{{\"matches\": {matches}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
    Ok(matches)
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("perfbench-driver: {message}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
