//! The traced per-step loop: the sim runner's step, rebuilt from the
//! layers' public calls with a timestamp at every layer boundary.
//!
//! One `Instant` read per boundary (a running lap clock), so every
//! nanosecond between two reads lands in exactly one layer and the
//! layer self times add up to the wall time they cover.

use std::cell::Cell;
use std::time::{Duration, Instant};

use usta_governors::{CpuGovernor, DomainSample, DvfsDecision, FreqDomain, GovernorInput};
use usta_sim::{Device, Governor, RunConfig, RunWork};
use usta_soc::PerDomain;
use usta_telemetry::{DecisionEvent, FlightRecorder};
use usta_thermal::Celsius;
use usta_workloads::Workload;

/// A running lap clock: `lap` returns the time since the previous lap.
pub struct Lap(Instant);

impl Lap {
    pub fn start() -> Lap {
        Lap(Instant::now())
    }

    pub fn lap(&mut self) -> Duration {
        let now = Instant::now();
        let elapsed = now - self.0;
        self.0 = now;
        elapsed
    }
}

thread_local! {
    /// Nanoseconds spent inside `TimedBaseline::decide` on this thread.
    static BASELINE_NS: Cell<u64> = const { Cell::new(0) };
}

fn baseline_ns() -> u64 {
    BASELINE_NS.with(Cell::get)
}

/// USTA's wrapped baseline governor with its decide calls timed, so
/// the baseline's share of a USTA decision can be split from USTA's
/// own (band, cap split, arbiter). Delegates every trait method.
#[derive(Debug)]
pub struct TimedBaseline(pub Box<dyn CpuGovernor>);

impl CpuGovernor for TimedBaseline {
    fn name(&self) -> &str {
        self.0.name()
    }

    fn decide(&mut self, input: &GovernorInput<'_>) -> DvfsDecision {
        let start = Instant::now();
        let decision = self.0.decide(input);
        let ns = start.elapsed().as_nanos() as u64;
        BASELINE_NS.with(|c| c.set(c.get() + ns));
        decision
    }

    fn reset(&mut self) {
        self.0.reset();
    }

    fn sampling_period(&self) -> f64 {
        self.0.sampling_period()
    }
}

/// Self time and work counts of the per-step layers, summed over every
/// replayed triple.
#[derive(Debug, Default)]
pub struct StepLayers {
    /// `Workload::demand_at` (usta-workloads).
    pub demand: Duration,
    /// `Device::apply`: power model plus thermal integration.
    pub apply: Duration,
    /// `Device::observe`.
    pub observe: Duration,
    /// USTA's per-step sensor feed: die temperatures, `tick`, scoring.
    pub tick: Duration,
    /// The baseline governor's `decide` (usta-governors).
    pub governors: Duration,
    /// `UstaGovernor::decide` minus its baseline's share (usta-core).
    pub usta_decide: Duration,
    /// Building and recording a `DecisionEvent` (flight recorder).
    pub record: Duration,
    /// The loop's own code: governor input, cap clamp, trace upkeep.
    pub step_self: Duration,
    /// Steps run.
    pub steps: u64,
    /// Steps run under a USTA stack.
    pub usta_steps: u64,
    /// Flight events recorded.
    pub records: u64,
}

/// What a traced run hands back to the fleet layer.
pub struct Run {
    pub duration: f64,
    pub log_period_s: f64,
    pub domain_names: Vec<&'static str>,
    pub skin_trace: Vec<(f64, Celsius)>,
    pub max_skin: Celsius,
    pub max_die: Vec<Celsius>,
    pub avg_domain_freq_ghz: Vec<f64>,
    pub unserved_fraction: f64,
    pub work: RunWork,
}

/// Runs `workload` on `device` under `governor` exactly as the sim
/// runner's step loop does, timing each layer on `clock`.
pub fn run_traced(
    device: &mut Device,
    workload: &mut dyn Workload,
    governor: &mut Governor,
    mut recorder: Option<&mut FlightRecorder>,
    clock: &mut Lap,
    layers: &mut StepLayers,
) -> Run {
    let config = RunConfig::default();
    let dt = config.governor_period_s;
    let duration = workload.duration();
    let domains = device.freq_domains();
    let n_domains = domains.len();
    let n_dies = device.die_node_names().len();
    let caps: Vec<usize> = domains.iter().map(FreqDomain::max_index).collect();
    device.reset_qos_accounting();
    let usta_before = match governor {
        Governor::Usta(g) => (
            g.predictions_made(),
            g.capped_decisions(),
            g.arbiter_invocations(),
        ),
        Governor::Baseline(_) => (0, 0, 0),
    };
    let steps_per_log = (config.log_period_s / dt).round().max(1.0) as u64;
    let total_steps = (duration / dt).round() as u64;

    let mut levels: PerDomain<usize> = PerDomain::splat(n_domains, 0);
    let mut work = RunWork::default();
    let mut t = 0.0;
    let mut skin_trace = Vec::new();
    let mut screen_trace = Vec::new();
    let mut freq_trace = Vec::new();
    let mut domain_freq_traces: Vec<Vec<(f64, f64)>> = vec![Vec::new(); n_domains];
    let mut brightness_trace = Vec::new();
    let mut die_temp_traces: Vec<Vec<(f64, Celsius)>> = vec![Vec::new(); n_dies];
    let mut predictions = Vec::new();
    let mut training_log = usta_core::TrainingLog::new();
    let mut freq_time_khz = 0.0;
    let mut domain_freq_time_khz = vec![0.0f64; n_domains];
    let mut max_skin = Celsius(f64::NEG_INFINITY);
    let mut max_screen = Celsius(f64::NEG_INFINITY);
    let mut max_die = vec![Celsius(f64::NEG_INFINITY); n_dies];
    layers.step_self += clock.lap();

    for step_no in 0..total_steps {
        work.steps += 1;
        let demand = workload.demand_at(t, dt);
        layers.demand += clock.lap();
        device.apply(&demand, levels.as_slice(), dt);
        layers.apply += clock.lap();
        let obs = device.observe();
        layers.observe += clock.lap();

        if let Governor::Usta(usta) = governor {
            usta.observe_die_temperatures(obs.die_temps().as_slice());
            let previous = usta.last_prediction();
            if usta.tick(&obs.features(), dt).is_some() {
                if let Some(previous) = previous {
                    usta.score_prediction(previous, obs.skin_true);
                }
                if let Some(p) = usta.last_prediction() {
                    predictions.push((obs.t, p));
                }
            }
            layers.usta_steps += 1;
            layers.tick += clock.lap();
        }

        let samples: PerDomain<DomainSample> = PerDomain::from_fn(n_domains, |d| DomainSample {
            avg_utilization: obs.domains[d].avg_utilization,
            max_utilization: obs.domains[d].max_utilization,
            current_level: levels[d],
        });
        let input = GovernorInput {
            domains: &domains,
            samples: samples.as_slice(),
            max_allowed_levels: &caps,
            die_temp_c: Some(obs.hottest_die().value()),
        };
        work.governor_decisions += 1;
        layers.step_self += clock.lap();
        let decision = match governor {
            Governor::Baseline(g) => {
                let decision = g.decide(&input);
                layers.governors += clock.lap();
                decision
            }
            Governor::Usta(g) => {
                let before = baseline_ns();
                let decision = g.decide(&input);
                let total = clock.lap();
                let inner = Duration::from_nanos(baseline_ns() - before);
                layers.governors += inner;
                layers.usta_decide += total.saturating_sub(inner);
                decision
            }
        };
        levels = PerDomain::from_slice(decision.clamped_to(&caps).levels());

        if let Some(ring) = recorder.as_deref_mut() {
            layers.step_self += clock.lap();
            let mut event = DecisionEvent::new(step_no, t, n_domains);
            event.skin_c = obs.skin_true.value();
            event.dies = n_dies as u8;
            for d in 0..n_domains {
                event.util[d] = obs.domains[d].avg_utilization;
                event.freq_khz[d] = obs.domains[d].freq_khz;
                event.level[d] = levels[d] as u16;
                event.max_level[d] = caps[d] as u16;
                event.cap[d] = caps[d] as u16;
            }
            for d in 0..n_dies {
                event.die_c[d] = obs.domains[d].die_temp.value();
            }
            if let Governor::Usta(g) = governor {
                if let Some(record) = g.last_decision_record() {
                    event.band = record.band.code();
                    if let Some(p) = record.predicted_skin {
                        event.predicted_skin_c = p.value();
                    }
                    if let Some(r) = record.residual_c {
                        event.residual_c = r;
                    }
                    if let Some(share) = record.arbiter {
                        event.budget_w = share.budget_w;
                        event.allocated_w = share.allocated_w;
                    }
                    for (d, &cap) in caps.iter().enumerate() {
                        event.cap[d] = record.usta_caps[d].min(cap) as u16;
                    }
                }
            }
            ring.record(event);
            layers.records += 1;
            layers.record += clock.lap();
        }

        freq_time_khz += obs.freq_khz * dt;
        for (acc, state) in domain_freq_time_khz.iter_mut().zip(obs.domains.iter()) {
            *acc += state.freq_khz * dt;
        }
        max_skin = max_skin.max(obs.skin_true);
        max_screen = max_screen.max(obs.screen_true);
        for (peak, state) in max_die.iter_mut().zip(obs.domains.iter().take(n_dies)) {
            *peak = peak.max(state.die_temp);
        }
        if step_no.is_multiple_of(steps_per_log) {
            work.log_windows += 1;
            skin_trace.push((t, obs.skin_true));
            screen_trace.push((t, obs.screen_true));
            freq_trace.push((t, obs.freq_khz));
            for (trace, state) in domain_freq_traces.iter_mut().zip(obs.domains.iter()) {
                trace.push((t, state.freq_khz));
            }
            if let Some(panel) = obs
                .domains
                .iter()
                .find(|s| s.kind == usta_soc::DomainKind::Display)
            {
                brightness_trace.push((t, panel.freq_khz / 1000.0));
            }
            for (trace, state) in die_temp_traces
                .iter_mut()
                .zip(obs.domains.iter().take(n_dies))
            {
                trace.push((t, state.die_temp));
            }
            training_log.push(usta_core::LoggedSample {
                t,
                features: obs.features(),
                skin: obs.skin_thermistor,
                screen: obs.screen_thermistor,
            });
        }
        t += dt;
        layers.steps += 1;
        layers.step_self += clock.lap();
    }

    if let Governor::Usta(g) = governor {
        work.predictions = g.predictions_made() - usta_before.0;
        work.capped_decisions = g.capped_decisions() - usta_before.1;
        work.arbiter_invocations = g.arbiter_invocations() - usta_before.2;
    }
    // The sim runner returns these on its result; the fleet outcome
    // never reads them, but the replay builds them all so its step
    // costs what the program's does.
    std::hint::black_box((
        &screen_trace,
        &freq_trace,
        &domain_freq_traces,
        &brightness_trace,
        &die_temp_traces,
        &predictions,
        &training_log,
        freq_time_khz,
        max_screen,
    ));
    Run {
        duration,
        log_period_s: config.log_period_s,
        domain_names: domains.iter().map(|d| d.name).collect(),
        skin_trace,
        max_skin,
        max_die,
        avg_domain_freq_ghz: domain_freq_time_khz
            .iter()
            .map(|khz_s| khz_s / duration / 1e6)
            .collect(),
        unserved_fraction: device.unserved_fraction(),
        work,
    }
}
