//! Copies of the private derivations `fleet_sweep` makes between its
//! public calls: the per-triple seed stream, the predictor-pool
//! training campaign, the triage rule, and the two file formats the
//! sweep writes (`triples.csv` rows and `flight-<index>.json` dumps).
//!
//! Nothing here is trusted on its own: the benchmark compares the
//! replay's `triples.csv`, aggregate table and flight dumps byte for
//! byte with the program's, which is what proves each copy right.

use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use usta_core::predictor::PredictionTarget;
use usta_core::training::TrainingLog;
use usta_core::{TemperaturePredictor, UserPopulation};
use usta_fleet::{AmbientBand, CaseKind, Scenario, ScenarioCatalog, SweepConfig, TripleOutcome};
use usta_ml::reptree::RepTreeParams;
use usta_ml::Learner;
use usta_sim::{run_workload, Governor, RunConfig, RunWork};
use usta_telemetry::json::{json_number, json_string};
use usta_telemetry::FlightRecorder;

/// The per-triple ChaCha8 stream: the run seed mixed with the triple
/// index by the splitmix odd constant.
pub fn triple_stream(run_seed: u64, index: u64) -> ChaCha8Rng {
    let mixed = run_seed ^ (index + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    ChaCha8Rng::seed_from_u64(mixed)
}

/// One device's trained predictor pool plus what the campaign cost.
pub struct TrainedPool {
    pub predictors: Vec<TemperaturePredictor>,
    /// The data-collection campaign's work counters.
    pub work: RunWork,
    /// `TemperaturePredictor::train` calls.
    pub fits: u64,
}

/// The fleet's per-device training campaign: one ondemand run per
/// training benchmark on an office-ambient naked phone, then one
/// REPTree per pool slot fitted on a seeded subset of those logs.
pub fn train_pool(config: &SweepConfig, device: &'static str) -> TrainedPool {
    let spec = usta_device::by_id(device).expect("device resolved before training");
    let mut per_benchmark: Vec<TrainingLog> = Vec::new();
    let mut work = RunWork::default();
    for (i, &benchmark) in config.training_benchmarks.iter().enumerate() {
        let mut device =
            usta_sim::experiments::common::device_on(spec, config.seed ^ ((i as u64 + 1) << 48));
        let mut workload = Scenario {
            device: spec.id,
            benchmark,
            ambient: AmbientBand::Office,
            case: CaseKind::Naked,
            charging: false,
            hand_held: false,
        }
        .workload(config.seed ^ i as u64, config.training_cap_seconds);
        let mut governor =
            Governor::Baseline(usta_governors::by_name("ondemand").expect("ondemand exists"));
        let result = run_workload(
            &mut device,
            &mut workload,
            &mut governor,
            &RunConfig::default(),
        );
        work.merge(&result.work);
        per_benchmark.push(result.training_log);
    }

    let mut predictors = Vec::with_capacity(config.predictor_pool);
    for k in 0..config.predictor_pool {
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed ^ 0x7001 ^ ((k as u64) << 32));
        let history_len = rng.gen_range(1..per_benchmark.len() + 1);
        let mut indices: Vec<usize> = (0..per_benchmark.len()).collect();
        indices.shuffle(&mut rng);
        let mut log = TrainingLog::new();
        for &idx in indices.iter().take(history_len) {
            log.extend_from(&per_benchmark[idx]);
        }
        let predictor = TemperaturePredictor::train(
            &Learner::RepTree(RepTreeParams::default()),
            &log,
            PredictionTarget::Skin,
            config.seed ^ k as u64,
        )
        .expect("training campaign yields samples");
        predictors.push(predictor);
    }
    TrainedPool {
        predictors,
        work,
        fits: config.predictor_pool as u64,
    }
}

/// Whether an outcome trips the triage thresholds.
pub fn triage_hit(config: &SweepConfig, limit_c: f64, outcome: &TripleOutcome) -> bool {
    outcome.time_over_fraction >= config.triage_over_fraction
        || outcome.peak_skin_c >= limit_c + config.triage_peak_margin_c
}

/// Header of `triples.csv`.
pub const TRACE_HEADER: &str = "triple,user,scenario,device,peak_skin_c,time_over_fraction,qos\n";

/// One `triples.csv` row (shortest round-trip floats).
pub fn trace_row(index: usize, catalog: &ScenarioCatalog, outcome: &TripleOutcome) -> String {
    let scenario = &catalog.scenarios()[index % catalog.len()];
    format!(
        "{},{},{},{},{},{},{}\n",
        index,
        index / catalog.len(),
        scenario.name(),
        scenario.device,
        outcome.peak_skin_c,
        outcome.time_over_fraction,
        outcome.qos,
    )
}

/// The `usta-flight/v1` document for one triaged triple.
pub fn flight_json(
    config: &SweepConfig,
    population: &UserPopulation,
    catalog: &ScenarioCatalog,
    index: usize,
    outcome: &TripleOutcome,
    ring: &FlightRecorder,
) -> String {
    let user_index = index / catalog.len();
    let user = &population.users()[user_index];
    let scenario = &catalog.scenarios()[index % catalog.len()];
    let domains: Vec<String> = outcome
        .domain_names
        .as_slice()
        .iter()
        .map(|name| json_string(name))
        .collect();
    let governor = if config.usta {
        format!("usta({})", config.governor)
    } else {
        config.governor.clone()
    };
    format!(
        "{{\n  \"schema\": \"usta-flight/v1\",\n  \"triple\": {index},\n  \
         \"user\": {user_index},\n  \"user_limit_c\": {},\n  \
         \"scenario\": {},\n  \"device\": {},\n  \"governor\": {},\n  \
         \"peak_skin_c\": {},\n  \"time_over_fraction\": {},\n  \
         \"qos\": {},\n  \"windows\": {{\"recorded\": {}, \"kept\": {}, \
         \"capacity\": {}}},\n  \"domains\": [{}],\n  \"events\": {}\n}}\n",
        json_number(user.skin_limit.value()),
        json_string(&scenario.name()),
        json_string(scenario.device),
        json_string(&governor),
        json_number(outcome.peak_skin_c),
        json_number(outcome.time_over_fraction),
        json_number(outcome.qos),
        ring.recorded(),
        ring.len(),
        ring.capacity(),
        domains.join(", "),
        ring.events_json(),
    )
}
