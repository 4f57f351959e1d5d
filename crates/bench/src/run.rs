//! Shared trial execution: generate → simulate → validate → measure.

use mmsec_analysis::{run_indexed, Summary};
use mmsec_core::PolicyKind;
use mmsec_platform::obs::json::Json;
use mmsec_platform::obs::{failure_dir, Log2Histogram, PhaseProfiler};
use mmsec_platform::{
    validate_with, EngineError, EngineOptions, FaultPlan, Instance, Simulation, StretchReport,
    ValidateOptions, Violation,
};
use mmsec_sim::seed;
use std::fmt;
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::Duration;

/// Outcome of one policy on one instance.
#[derive(Clone, Copy, Debug)]
pub struct TrialResult {
    /// The objective: maximum stretch.
    pub max_stretch: f64,
    /// Mean stretch (secondary metric).
    pub mean_stretch: f64,
    /// Wall-clock time spent inside the policy's `decide` (the trial
    /// runs with a phase profiler attached to measure it).
    pub decide_time: Duration,
    /// Number of re-executions.
    pub restarts: u64,
}

/// Why a trial could not produce a usable result.
#[derive(Clone, Debug)]
pub enum TrialError {
    /// The engine aborted (stall or event-limit).
    Engine {
        /// Policy that was running.
        kind: PolicyKind,
        /// The engine's error.
        error: EngineError,
    },
    /// The produced schedule failed validation.
    InvalidSchedule {
        /// Policy that was running.
        kind: PolicyKind,
        /// Every violated constraint.
        violations: Vec<Violation>,
    },
}

impl TrialError {
    /// Policy the failing trial was running.
    pub fn kind(&self) -> PolicyKind {
        match self {
            TrialError::Engine { kind, .. } => *kind,
            TrialError::InvalidSchedule { kind, .. } => *kind,
        }
    }

    /// Writes the offending instance and the full violation list to a
    /// dump file (under `$MMSEC_FAILURE_DIR`, default `target/failures`)
    /// so the failure can be replayed with
    /// `mmsec run --instance <dump> --policy <kind>`. Returns the path,
    /// or `None` when even the dump could not be written.
    pub fn dump(&self, instance: &Instance, policy_seed: u64) -> Option<PathBuf> {
        let dir = failure_dir();
        std::fs::create_dir_all(&dir).ok()?;
        let path = dir.join(format!("{}-seed{}.txt", self.kind(), policy_seed));
        let mut report = String::new();
        report.push_str(&format!("# trial failure: {self}\n"));
        report.push_str(&format!("# policy seed: {policy_seed}\n"));
        if let TrialError::InvalidSchedule { violations, .. } = self {
            report.push_str(&format!("# {} violation(s):\n", violations.len()));
            for v in violations {
                report.push_str(&format!("#   {v}\n"));
            }
        }
        report.push_str("# offending instance follows:\n");
        report.push_str(&instance.to_text());
        std::fs::write(&path, report).ok()?;
        Some(path)
    }
}

impl fmt::Display for TrialError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrialError::Engine { kind, error } => write!(f, "{kind} failed: {error}"),
            TrialError::InvalidSchedule { kind, violations } => write!(
                f,
                "{kind} produced an invalid schedule ({} violations; first: {})",
                violations.len(),
                violations[0]
            ),
        }
    }
}

impl std::error::Error for TrialError {}

/// Fallible form of [`run_policy`]: returns the structured error instead
/// of aborting, leaving dump/abort policy to the caller.
pub fn try_run_policy(
    instance: &Instance,
    kind: PolicyKind,
    policy_seed: u64,
    opts: EngineOptions,
    validate: bool,
) -> Result<TrialResult, TrialError> {
    try_run_policy_impl(instance, kind, policy_seed, opts, None, validate)
}

/// [`try_run_policy`] under a compiled fault plan (the robustness
/// experiment, see `docs/faults.md`). An empty plan is exactly
/// [`try_run_policy`].
pub fn try_run_policy_with_faults(
    instance: &Instance,
    kind: PolicyKind,
    policy_seed: u64,
    opts: EngineOptions,
    faults: &FaultPlan,
    validate: bool,
) -> Result<TrialResult, TrialError> {
    try_run_policy_impl(instance, kind, policy_seed, opts, Some(faults), validate)
}

fn try_run_policy_impl(
    instance: &Instance,
    kind: PolicyKind,
    policy_seed: u64,
    opts: EngineOptions,
    faults: Option<&FaultPlan>,
    validate: bool,
) -> Result<TrialResult, TrialError> {
    let mut policy = kind.build(policy_seed);
    let mut profiler = PhaseProfiler::new();
    let sim = Simulation::of(instance)
        .policy(policy.as_mut())
        .options(opts)
        .profiler(&mut profiler);
    let out = match faults {
        None => sim.run(),
        Some(plan) => sim.faults(plan).run(),
    }
    .map_err(|error| TrialError::Engine { kind, error })?;
    if validate {
        let vopts = ValidateOptions {
            check_ports: !opts.infinite_ports,
            ..ValidateOptions::default()
        };
        if let Err(violations) = validate_with(instance, &out.schedule, vopts) {
            return Err(TrialError::InvalidSchedule { kind, violations });
        }
    }
    let report = StretchReport::new(instance, &out.schedule);
    Ok(TrialResult {
        max_stretch: report.max_stretch,
        mean_stretch: report.mean_stretch,
        decide_time: out.stats.decide_time.expect("profiled"),
        restarts: out.stats.restarts,
    })
}

/// Runs `kind` on `instance`; aborts if the schedule is invalid —
/// experiments must never aggregate invalid runs. Before aborting, the
/// offending instance and the full violation list are dumped to a file
/// (see [`TrialError::dump`]) so the failure can be replayed offline.
pub fn run_policy(
    instance: &Instance,
    kind: PolicyKind,
    policy_seed: u64,
    opts: EngineOptions,
    validate: bool,
) -> TrialResult {
    try_run_policy(instance, kind, policy_seed, opts, validate).unwrap_or_else(|e| {
        match e.dump(instance, policy_seed) {
            Some(path) => panic!("{e}\n(instance + violations dumped to {})", path.display()),
            None => panic!("{e}\n(failure dump could not be written)"),
        }
    })
}

/// Decide-time histograms collected per [`evaluate_point`] call while
/// collection is enabled (the `repro --metrics-dir` flag).
pub struct PointMetrics {
    /// Base seed of the point (ties the entry to the experiment sweep).
    pub base_seed: u64,
    /// Policy names, parallel to `decide_hist`.
    pub policies: Vec<String>,
    /// Per-policy histogram of per-trial total decide time (seconds).
    pub decide_hist: Vec<Log2Histogram>,
}

static POINT_METRICS: Mutex<Option<Vec<PointMetrics>>> = Mutex::new(None);

/// Starts collecting per-point decide-time histograms (idempotent).
pub fn enable_point_metrics() {
    let mut guard = POINT_METRICS.lock().expect("metrics mutex poisoned");
    if guard.is_none() {
        *guard = Some(Vec::new());
    }
}

/// Takes every point collected since the last drain (empty when
/// collection was never enabled).
pub fn drain_point_metrics() -> Vec<PointMetrics> {
    let mut guard = POINT_METRICS.lock().expect("metrics mutex poisoned");
    match guard.as_mut() {
        Some(points) => std::mem::take(points),
        None => Vec::new(),
    }
}

fn record_point_metrics(make: impl FnOnce() -> PointMetrics) {
    let mut guard = POINT_METRICS.lock().expect("metrics mutex poisoned");
    if let Some(points) = guard.as_mut() {
        points.push(make());
    }
}

/// Serializes drained points as a JSON document (one entry per
/// `evaluate_point` call, in execution order).
pub fn point_metrics_to_json(points: &[PointMetrics]) -> String {
    let entries: Vec<Json> = points
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let per_policy: Vec<Json> = p
                .policies
                .iter()
                .zip(&p.decide_hist)
                .map(|(name, hist)| {
                    Json::obj(vec![
                        ("policy", Json::str(name.clone())),
                        ("decide_time", hist.to_json()),
                    ])
                })
                .collect();
            Json::obj(vec![
                ("point", Json::int(i)),
                ("base_seed", Json::Num(p.base_seed as f64)),
                ("policies", Json::Arr(per_policy)),
            ])
        })
        .collect();
    Json::obj(vec![
        ("schema", Json::str("mmsec-bench-metrics/2")),
        ("points", Json::Arr(entries)),
    ])
    .to_string_pretty()
}

/// One point of a figure: per-policy summaries of max-stretch over `reps`
/// independently seeded instances (plus decide-time summaries for E6).
pub struct PointResult {
    /// Per policy (parallel to the input slice): summary of max-stretch.
    pub max_stretch: Vec<Summary>,
    /// Per policy: summary of decide-time in milliseconds.
    pub decide_ms: Vec<Summary>,
    /// Per policy: summary of mean stretch.
    pub mean_stretch: Vec<Summary>,
    /// Per policy: summary of re-executions per trial (always 0 for
    /// policies that never restart; nonzero under fault injection).
    pub restarts: Vec<Summary>,
}

/// Evaluates every policy on `reps` instances generated by `make`
/// (instance `i` uses seed `derive(base_seed, "instance", i)`).
pub fn evaluate_point<F>(
    make: F,
    policies: &[PolicyKind],
    reps: usize,
    threads: usize,
    base_seed: u64,
    opts: EngineOptions,
    validate: bool,
) -> PointResult
where
    F: Fn(u64) -> Instance + Sync,
{
    evaluate_point_impl(
        make,
        |_, _| None,
        policies,
        reps,
        threads,
        base_seed,
        opts,
        validate,
    )
}

/// [`evaluate_point`] under fault injection: `fault_plan` compiles a plan
/// for each generated instance from the per-instance fault seed
/// `derive(base_seed, "faults", i)` — so trial `i` keeps its instance and
/// policy seeds from the fault-free runner and results are comparable
/// point-to-point across failure rates (the robustness experiment).
#[allow(clippy::too_many_arguments)]
pub fn evaluate_point_with_faults<F, G>(
    make: F,
    fault_plan: G,
    policies: &[PolicyKind],
    reps: usize,
    threads: usize,
    base_seed: u64,
    opts: EngineOptions,
    validate: bool,
) -> PointResult
where
    F: Fn(u64) -> Instance + Sync,
    G: Fn(&Instance, u64) -> FaultPlan + Sync,
{
    evaluate_point_impl(
        make,
        |inst, fseed| Some(fault_plan(inst, fseed)),
        policies,
        reps,
        threads,
        base_seed,
        opts,
        validate,
    )
}

#[allow(clippy::too_many_arguments)]
fn evaluate_point_impl<F, G>(
    make: F,
    fault_plan: G,
    policies: &[PolicyKind],
    reps: usize,
    threads: usize,
    base_seed: u64,
    opts: EngineOptions,
    validate: bool,
) -> PointResult
where
    F: Fn(u64) -> Instance + Sync,
    G: Fn(&Instance, u64) -> Option<FaultPlan> + Sync,
{
    let trials: Vec<Vec<TrialResult>> = run_indexed(reps, threads, |i| {
        let inst = make(seed::derive(base_seed, "instance", i as u64));
        let plan = fault_plan(&inst, seed::derive(base_seed, "faults", i as u64));
        policies
            .iter()
            .map(|&kind| {
                let pseed = seed::derive(base_seed, "policy", i as u64);
                let result = match &plan {
                    None => try_run_policy(&inst, kind, pseed, opts, validate),
                    Some(p) => try_run_policy_with_faults(&inst, kind, pseed, opts, p, validate),
                };
                result.unwrap_or_else(|e| match e.dump(&inst, pseed) {
                    Some(path) => {
                        panic!("{e}\n(instance + violations dumped to {})", path.display())
                    }
                    None => panic!("{e}\n(failure dump could not be written)"),
                })
            })
            .collect()
    });
    record_point_metrics(|| {
        let mut decide_hist: Vec<Log2Histogram> = vec![Log2Histogram::default(); policies.len()];
        for trial in &trials {
            for (p, r) in trial.iter().enumerate() {
                decide_hist[p].record(r.decide_time.as_secs_f64());
            }
        }
        PointMetrics {
            base_seed,
            policies: policies.iter().map(|p| p.name().to_string()).collect(),
            decide_hist,
        }
    });
    let column = |f: &dyn Fn(&TrialResult) -> f64, p: usize| -> Summary {
        let values: Vec<f64> = trials.iter().map(|t| f(&t[p])).collect();
        Summary::of(&values)
    };
    PointResult {
        max_stretch: (0..policies.len())
            .map(|p| column(&|t| t.max_stretch, p))
            .collect(),
        decide_ms: (0..policies.len())
            .map(|p| column(&|t| t.decide_time.as_secs_f64() * 1e3, p))
            .collect(),
        mean_stretch: (0..policies.len())
            .map(|p| column(&|t| t.mean_stretch, p))
            .collect(),
        restarts: (0..policies.len())
            .map(|p| column(&|t| t.restarts as f64, p))
            .collect(),
    }
}

/// Adaptive variant of [`evaluate_point`]: runs instances until the 95%
/// CI of each policy's mean max-stretch is below `rule.rel_ci_target`
/// (or the cap). Sequential by nature (the stopping decision depends on
/// the prefix); trial `i` uses the same seed as the fixed-size runner,
/// so adaptive results are prefixes of full runs.
pub fn evaluate_point_adaptive<F>(
    make: F,
    policies: &[PolicyKind],
    rule: mmsec_analysis::Convergence,
    base_seed: u64,
    opts: EngineOptions,
    validate: bool,
) -> Vec<mmsec_analysis::AdaptiveResult>
where
    F: Fn(u64) -> Instance,
{
    policies
        .iter()
        .map(|&kind| {
            mmsec_analysis::run_until_converged(rule, |i| {
                let inst = make(seed::derive(base_seed, "instance", i as u64));
                let pseed = seed::derive(base_seed, "policy", i as u64);
                run_policy(&inst, kind, pseed, opts, validate).max_stretch
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmsec_workload::RandomCcrConfig;

    fn small_cfg() -> RandomCcrConfig {
        RandomCcrConfig {
            n: 40,
            num_cloud: 4,
            slow_edges: 2,
            fast_edges: 2,
            ..RandomCcrConfig::default()
        }
    }

    #[test]
    fn trial_error_dump_is_a_replayable_report() {
        use mmsec_platform::JobId;
        let inst = small_cfg().generate(3);
        let err = TrialError::InvalidSchedule {
            kind: PolicyKind::Srpt,
            violations: vec![
                mmsec_platform::Violation::Unfinished(JobId(0)),
                mmsec_platform::Violation::Unallocated(JobId(1)),
            ],
        };
        let dir = std::env::temp_dir().join(format!("mmsec-dump-{}", std::process::id()));
        // The env var is process-global; keep the whole suite honest by
        // restoring it even though no other test currently reads it.
        std::env::set_var("MMSEC_FAILURE_DIR", &dir);
        let path = err.dump(&inst, 7).expect("dump written");
        std::env::remove_var("MMSEC_FAILURE_DIR");
        assert!(path.starts_with(&dir));
        assert!(path
            .file_name()
            .unwrap()
            .to_str()
            .unwrap()
            .contains("seed7"));
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.contains("invalid schedule"), "{text}");
        assert!(text.contains("2 violation(s)"), "{text}");
        // The dumped instance round-trips, so the failure is replayable.
        let tail = text
            .lines()
            .filter(|l| !l.starts_with('#'))
            .collect::<Vec<_>>();
        let back = Instance::from_text(&tail.join("\n")).expect("replayable instance");
        assert_eq!(back, inst);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn run_policy_produces_valid_metrics() {
        let inst = small_cfg().generate(1);
        for kind in PolicyKind::ALL {
            let r = run_policy(&inst, kind, 7, EngineOptions::default(), true);
            assert!(r.max_stretch >= 1.0 - 1e-9, "{kind}: {}", r.max_stretch);
            assert!(r.mean_stretch <= r.max_stretch + 1e-9);
        }
    }

    #[test]
    fn evaluate_point_shapes() {
        let cfg = small_cfg();
        let policies = [PolicyKind::Srpt, PolicyKind::SsfEdf];
        let point = evaluate_point(
            |seed| cfg.generate(seed),
            &policies,
            4,
            2,
            99,
            EngineOptions::default(),
            true,
        );
        assert_eq!(point.max_stretch.len(), 2);
        assert_eq!(point.decide_ms.len(), 2);
        assert_eq!(point.max_stretch[0].n, 4);
        assert!(point.max_stretch.iter().all(|s| s.mean >= 1.0 - 1e-9));
    }

    #[test]
    fn faulted_point_reports_restarts_and_matches_fault_free_seeds() {
        use mmsec_platform::FaultConfig;
        use mmsec_sim::Time;
        let cfg = small_cfg();
        let policies = [PolicyKind::Srpt, PolicyKind::SsfEdf];
        let faulted = evaluate_point_with_faults(
            |s| cfg.generate(s),
            |inst, fseed| {
                FaultConfig::uniform_exponential(
                    inst.spec.num_edge(),
                    inst.spec.num_cloud(),
                    60.0,
                    5.0,
                )
                .compile(fseed, Time::new(5_000.0))
            },
            &policies,
            4,
            2,
            99,
            EngineOptions::default(),
            true,
        );
        assert!(
            faulted.restarts.iter().any(|s| s.mean > 0.0),
            "exponential crashes at MTBF 60 never forced a restart"
        );
        // An always-empty plan reproduces the fault-free runner exactly
        // (same instance/policy seeds, same engine path).
        let empty = evaluate_point_with_faults(
            |s| cfg.generate(s),
            |inst, _| FaultPlan::empty(inst.spec.num_edge(), inst.spec.num_cloud()),
            &policies,
            4,
            2,
            99,
            EngineOptions::default(),
            true,
        );
        let plain = evaluate_point(
            |s| cfg.generate(s),
            &policies,
            4,
            2,
            99,
            EngineOptions::default(),
            true,
        );
        for p in 0..policies.len() {
            assert_eq!(empty.max_stretch[p].mean, plain.max_stretch[p].mean);
            assert!(faulted.max_stretch[p].mean >= plain.max_stretch[p].mean - 1e-9);
        }
    }

    #[test]
    fn adaptive_point_is_prefix_of_fixed() {
        let cfg = small_cfg();
        let policies = [PolicyKind::Srpt];
        let rule = mmsec_analysis::Convergence {
            min_trials: 3,
            max_trials: 6,
            rel_ci_target: 1e-9, // force the cap: exactly 6 trials
        };
        let adaptive = evaluate_point_adaptive(
            |s| cfg.generate(s),
            &policies,
            rule,
            42,
            EngineOptions::default(),
            false,
        );
        assert_eq!(adaptive.len(), 1);
        assert_eq!(adaptive[0].values.len(), 6);
        assert!(!adaptive[0].converged);
        // Same values as the fixed runner's first six trials.
        let fixed = evaluate_point(
            |s| cfg.generate(s),
            &policies,
            6,
            1,
            42,
            EngineOptions::default(),
            false,
        );
        assert!((adaptive[0].summary.mean - fixed.max_stretch[0].mean).abs() < 1e-12);
    }

    #[test]
    fn evaluation_is_reproducible_across_thread_counts() {
        let cfg = small_cfg();
        let policies = [PolicyKind::Greedy];
        let a = evaluate_point(
            |s| cfg.generate(s),
            &policies,
            6,
            1,
            5,
            EngineOptions::default(),
            false,
        );
        let b = evaluate_point(
            |s| cfg.generate(s),
            &policies,
            6,
            4,
            5,
            EngineOptions::default(),
            false,
        );
        assert_eq!(a.max_stretch[0].mean, b.max_stretch[0].mean);
    }
}
