//! The batch workloads: instance file → `mmsec run` → validated report.
//!
//! The timed pass spawns the release `mmsec run` binary on every
//! generated instance file, exactly as a user would, and reads its
//! printed report. The traced pass repeats each instance in-process
//! through the same public library calls the CLI makes, with a span
//! around each layer, and attributes the process wall time to them.

use crate::hostref::{HostRef, REF_MS};
use crate::inputs::{self, BatchCase, BatchInputs, Workload};
use crate::spans::{Spans, TimedPolicy};
use crate::stats::{self, median, percentile_checked, Summary};
use crate::{Ctx, Metrics, Outcome};
use mmsec_core::PolicyKind;
use mmsec_platform::obs::{EnginePhase, Fanout, FlightRecorder, PhaseProfiler, Shared};
use mmsec_platform::{
    validate, FaultConfig, FaultPlan, Instance, OnlineScheduler, Simulation, StretchReport,
};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

/// Set-ups timed per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Host reference runs after each set-up (and before the first).
const SETUP_REFS: usize = 3;
/// Runs per chunk of the timed loop, enough for a p90 with ten samples
/// beyond it. `instance_p90_ms` is the median over chunks, so a host
/// stall that covers one chunk moves that chunk only.
const CHUNK: usize = 100;
/// Runs whose peak RSS is sampled; `peak_rss_mb` is the largest reading.
const RSS_PROBES: usize = 5;

struct Pool {
    inputs: BatchInputs,
    paths: Vec<PathBuf>,
}

fn write_pool(inputs: BatchInputs, dir: &Path) -> std::io::Result<Pool> {
    std::fs::create_dir_all(dir)?;
    let paths = inputs
        .cases
        .iter()
        .map(|c| {
            let path = dir.join(&c.name);
            std::fs::write(&path, &c.text)?;
            Ok(path)
        })
        .collect::<std::io::Result<_>>()?;
    Ok(Pool { inputs, paths })
}

/// Generates and writes the pool `SETUPS` times, each into an emptied
/// directory, with `SETUP_REFS` host reference runs before the first and
/// after each; returns the last pool and the median set-up time, each
/// scaled by the reference runs on either side of it. Every repetition
/// must give the same digest.
fn setup(
    workload: Workload,
    ctx: &Ctx,
    host: &HostRef,
    out: &mut Outcome,
) -> std::io::Result<(Pool, f64)> {
    let mut times = Vec::new();
    let mut generate = Vec::new();
    let mut refs = Vec::new();
    let reference = |refs: &mut Vec<f64>| -> std::io::Result<()> {
        for _ in 0..SETUP_REFS {
            refs.push(host.time().map_err(std::io::Error::other)?);
        }
        Ok(())
    };
    // The first runs page the reference in; they are not kept.
    reference(&mut refs)?;
    refs.clear();
    reference(&mut refs)?;
    let mut pool: Option<Pool> = None;
    let dir = ctx.work.join("pool");
    for _ in 0..SETUPS {
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        let t0 = Instant::now();
        let inputs = inputs::batch(workload, ctx.seed);
        generate.push(t0.elapsed().as_secs_f64());
        let p = write_pool(inputs, &dir)?;
        let s = t0.elapsed().as_secs_f64();
        reference(&mut refs)?;
        times.push(s * HostRef::scale(&refs[refs.len() - 2 * SETUP_REFS..]));
        if let Some(prev) = &pool {
            out.check(
                prev.inputs.digest == p.inputs.digest,
                "set-up repetitions generated different inputs",
            );
        }
        pool = Some(p);
    }
    let pool = pool.expect("at least one set-up");
    out.note(format!(
        "inputs digest {} ({} instances, seed {})",
        pool.inputs.digest.hex(),
        pool.paths.len(),
        ctx.seed
    ));
    out.note(format!(
        "set-ups {times:.4?} s scaled ({generate:.4?} s of them generating, unscaled), \
         host reference {refs:.3?} ms"
    ));
    Ok((pool, median(&times)))
}

/// One `mmsec run` process.
struct CliRun {
    wall_ms: f64,
    /// The printed max stretch, as printed.
    max_stretch: Option<String>,
    problem: Option<String>,
}

fn field<'a>(stdout: &'a str, label: &str) -> Option<&'a str> {
    stdout
        .lines()
        .find_map(|l| l.strip_prefix(label))
        .map(str::trim)
}

fn run_cli(mmsec: &Path, path: &Path, case: &BatchCase) -> CliRun {
    let t0 = Instant::now();
    let result = Command::new(mmsec)
        .arg("run")
        .arg("--instance")
        .arg(path)
        .args(&case.args)
        .output();
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let fail = |why: String| CliRun {
        wall_ms,
        max_stretch: None,
        problem: Some(format!("{}: {why}", case.name)),
    };
    let output = match result {
        Ok(o) => o,
        Err(e) => return fail(format!("cannot spawn mmsec: {e}")),
    };
    if !output.status.success() {
        let err = String::from_utf8_lossy(&output.stderr);
        return fail(format!("exit {}: {}", output.status, err.trim()));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    if field(&stdout, "jobs") != Some(case.jobs.to_string().as_str()) {
        return fail(format!("report does not list {} jobs", case.jobs));
    }
    match field(&stdout, "max stretch") {
        Some(s) if s.parse::<f64>().is_ok_and(|x| x >= 1.0) => CliRun {
            wall_ms,
            max_stretch: Some(s.to_string()),
            problem: None,
        },
        other => fail(format!("bad max stretch {other:?}")),
    }
}

/// Peak RSS of `mmsec run` on `case`, MB: its `VmHWM`, polled every
/// 250 µs until it exits. Runs apart from the timed loop, as the
/// polling costs CPU.
fn cli_peak_rss_mb(mmsec: &Path, path: &Path, case: &BatchCase) -> std::io::Result<f64> {
    let exe = std::fs::canonicalize(mmsec)?;
    let mut child = Command::new(mmsec)
        .arg("run")
        .arg("--instance")
        .arg(path)
        .args(&case.args)
        .stdout(std::process::Stdio::null())
        .spawn()?;
    let mut peak = f64::NAN;
    loop {
        match child.try_wait() {
            Ok(Some(_)) => return Ok(peak),
            Ok(None) => {}
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(e);
            }
        }
        // Until it has exec'd `mmsec`, the child shows this process's
        // memory (some 150 MB holding the pool), not its own.
        let exec_done =
            std::fs::read_link(format!("/proc/{}/exe", child.id())).is_ok_and(|p| p == exe);
        if let Some(mb) = crate::peak_rss_mb(child.id()).filter(|_| exec_done) {
            peak = mb.max(peak);
        }
        std::thread::sleep(std::time::Duration::from_micros(250));
    }
}

/// Records one CLI run: failures, and the same instance must always
/// print the same max stretch.
fn account(out: &mut Outcome, printed: &mut [Option<String>], index: usize, run: &CliRun) {
    out.attempted += 1;
    if let Some(p) = &run.problem {
        out.fail(p.clone());
        return;
    }
    let s = run.max_stretch.clone();
    match &printed[index] {
        None => printed[index] = s,
        Some(prev) if Some(prev) != s.as_ref() => out.fail(format!(
            "instance {index} printed max stretch {prev} and {s:?}"
        )),
        Some(_) => {}
    }
}

fn policy_of(case: &BatchCase) -> PolicyKind {
    let name = case
        .args
        .windows(2)
        .find(|w| w[0] == "--policy")
        .map(|w| w[1].as_str())
        .unwrap_or("ssf-edf");
    PolicyKind::parse(name).expect("generated policy name")
}

fn flag(case: &BatchCase, name: &str) -> Option<f64> {
    case.args
        .windows(2)
        .find(|w| w[0] == name)
        .and_then(|w| w[1].parse().ok())
}

/// The fault plan `mmsec run` compiles from the case's flags.
fn fault_plan(case: &BatchCase, inst: &Instance) -> Option<FaultPlan> {
    let mtbf = flag(case, "--fault-mtbf")?;
    let mttr = flag(case, "--fault-mttr").unwrap_or(10.0);
    let seed = flag(case, "--fault-seed").unwrap_or(1.0) as u64;
    let horizon = mmsec_bench::experiments::fault_horizon(inst);
    Some(
        FaultConfig::uniform_exponential(inst.spec.num_edge(), inst.spec.num_cloud(), mtbf, mttr)
            .compile(seed, horizon),
    )
}

pub fn timed(workload: Workload, ctx: &Ctx) -> std::io::Result<Outcome> {
    let mut out = Outcome::default();
    let host = HostRef::new()?;
    let (pool, setup_s) = setup(workload, ctx, &host, &mut out)?;
    let k = pool.paths.len();
    let mut printed = vec![None; k];
    let mut wall_ms = Vec::new();
    let mut scaled = Vec::new();
    let mut jobs = 0;
    let mut before = host.time().map_err(std::io::Error::other)?;
    let mut ref_ms = vec![before];
    let t0 = Instant::now();
    let mut i = 0;
    // Host reference runs alternate with `mmsec run`s; each run is scaled
    // by the two reference runs on either side of it, which sample the
    // host's speed at that moment.
    while i < CHUNK.max(k) || t0.elapsed().as_secs_f64() < ctx.seconds {
        let case = &pool.inputs.cases[i % k];
        let run = run_cli(&ctx.mmsec, &pool.paths[i % k], case);
        let after = host.time().map_err(std::io::Error::other)?;
        account(&mut out, &mut printed, i % k, &run);
        if run.problem.is_none() {
            wall_ms.push(run.wall_ms);
            scaled.push(run.wall_ms * HostRef::scale(&[before, after]));
            jobs += case.jobs;
        }
        ref_ms.push(after);
        before = after;
        i += 1;
    }
    let stretches: Vec<f64> = printed
        .iter()
        .flatten()
        .filter_map(|s| s.parse().ok())
        .collect();
    out.check(stretches.len() == k, "not every instance produced a report");
    out.note(format!(
        "`mmsec run` wall, unscaled: {}",
        Summary::of(&wall_ms).describe("ms")
    ));
    out.note(format!(
        "host reference: {} (nominal {REF_MS} ms)",
        Summary::of(&ref_ms).describe("ms")
    ));
    let mut p90s = Vec::new();
    for w in scaled.chunks_exact(CHUNK) {
        p90s.push(out.tail(percentile_checked(&stats::sorted(w), 90.0)));
    }
    out.check(!p90s.is_empty(), "fewer successful runs than one chunk");
    let all = Summary::of(&scaled);
    out.note(format!("`mmsec run` wall, scaled: {}", all.describe("ms")));
    out.note(format!("chunk p90s {p90s:.3?} ms (chunks of {CHUNK} runs)"));
    let mut m = Metrics::default();
    m.set("setup_s", setup_s);
    m.set(
        "jobs_per_s",
        jobs as f64 / (scaled.iter().sum::<f64>() / 1e3),
    );
    m.set("instance_p50_ms", all.p50);
    m.set("instance_p90_ms", median(&p90s));
    m.set("max_stretch_gmean", stats::geomean(&stretches));
    // The largest instance by file size, a few times.
    let big = (0..k)
        .max_by_key(|&j| pool.inputs.cases[j].text.len())
        .expect("a pool");
    let mut rss = Vec::new();
    for _ in 0..RSS_PROBES {
        rss.push(cli_peak_rss_mb(
            &ctx.mmsec,
            &pool.paths[big],
            &pool.inputs.cases[big],
        )?);
    }
    out.note(format!("`mmsec run` peak RSS {rss:?} MB"));
    // A poll can read the high-water mark before its last rise, never
    // above it: the largest reading is the closest.
    m.set("peak_rss_mb", rss.iter().copied().fold(0.0, f64::max));
    out.metrics = m;
    Ok(out)
}

/// Per-instance layer measurements of the traced pass.
#[derive(Default)]
struct Layers {
    cli_wall: Vec<f64>,
    parse: Vec<f64>,
    compile: Vec<f64>,
    run: Vec<f64>,
    engine_self: Vec<f64>,
    decide: Vec<f64>,
    validate: Vec<f64>,
    report: Vec<f64>,
    gap: Vec<f64>,
    flight: Vec<f64>,
    decides: Vec<f64>,
    skip_ratio: Vec<f64>,
    steps: Vec<f64>,
    restarts: Vec<f64>,
    phases: [Vec<f64>; 6],
    traced_total: f64,
    untraced_total: f64,
}

fn span(spans: &mut Option<&mut Spans>, name: &'static str, key: u32, f: &mut dyn FnMut()) {
    match spans {
        Some(s) => s.time(name, None, key, f),
        None => f(),
    }
}

/// Runs one instance through the CLI's library calls. With `spans`, each
/// layer call is a span and the policy is wrapped in [`TimedPolicy`];
/// `flight` attaches the CLI's flight recorder; `profiler` the engine's
/// phase profiler.
fn pipeline(
    text: &str,
    case: &BatchCase,
    key: u32,
    mut spans: Option<&mut Spans>,
    flight: bool,
    profiler: Option<&mut PhaseProfiler>,
) -> Result<(StretchReport, mmsec_platform::RunStats), String> {
    let mut parsed = None;
    span(&mut spans, "platform.instance.parse", key, &mut || {
        parsed = Some(Instance::from_text(text))
    });
    let inst = parsed
        .expect("ran")
        .map_err(|e| format!("{}: {e}", case.name))?;
    let mut plan = None;
    if flag(case, "--fault-mtbf").is_some() {
        span(&mut spans, "faults.compile", key, &mut || {
            plan = fault_plan(case, &inst)
        });
    }

    let mut policy = policy_of(case).build(0);
    let fan = Shared::new(Fanout::new());
    if flight {
        fan.with(|f| f.push(Box::new(Shared::new(FlightRecorder::default()))));
        policy.attach_observer(fan.handle());
    }
    let mut engine_side = fan.clone();
    let run_span = spans
        .as_mut()
        .map(|s| s.open("platform.engine.run", None, key));
    let result = {
        let mut timed;
        let policy: &mut dyn OnlineScheduler = match spans.as_mut() {
            Some(s) => {
                timed = TimedPolicy {
                    inner: policy.as_mut(),
                    spans: s,
                    parent: run_span,
                    key,
                };
                &mut timed
            }
            None => policy.as_mut(),
        };
        let mut sim = Simulation::of(&inst).policy(policy);
        if flight {
            sim = sim.observer(&mut engine_side);
        }
        if let Some(p) = &plan {
            sim = sim.faults(p);
        }
        if let Some(p) = profiler {
            sim = sim.profiler(p);
        }
        sim.run()
    };
    if let (Some(s), Some(id)) = (spans.as_mut(), run_span) {
        s.close(id);
    }
    let run = result.map_err(|e| format!("{}: engine: {e}", case.name))?;
    let mut valid = Ok(());
    span(&mut spans, "platform.validate", key, &mut || {
        valid = validate(&inst, &run.schedule)
    });
    if let Err(v) = valid {
        return Err(format!("{}: {} violation(s)", case.name, v.len()));
    }
    let mut report = None;
    span(&mut spans, "platform.metrics.report", key, &mut || {
        report = Some(StretchReport::new(&inst, &run.schedule))
    });
    Ok((report.expect("ran"), run.stats))
}

fn timed_ms<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64() * 1e3)
}

pub fn traced(workload: Workload, ctx: &Ctx) -> std::io::Result<Outcome> {
    let mut out = Outcome::default();
    let inputs = inputs::batch(workload, ctx.seed);
    out.note(format!("inputs digest {}", inputs.digest.hex()));
    let pool = write_pool(inputs, &ctx.work.join("pool"))?;
    let mut spans = Spans::default();
    let mut l = Layers::default();
    let mut keys = Vec::new();
    let t0 = Instant::now();
    // One pass over the pool, cut short at `--seconds`.
    for (i, (case, path)) in pool.inputs.cases.iter().zip(&pool.paths).enumerate() {
        if i > 0 && t0.elapsed().as_secs_f64() >= ctx.seconds {
            break;
        }
        let key = i as u32;
        out.attempted += 1;
        let cli = run_cli(&ctx.mmsec, path, case);
        if let Some(p) = cli.problem {
            out.fail(p);
            continue;
        }
        let text = std::fs::read_to_string(path)?;
        let (traced, traced_ms) =
            timed_ms(|| pipeline(&text, case, key, Some(&mut spans), true, None));
        let (untraced, untraced_ms) = timed_ms(|| pipeline(&text, case, key, None, true, None));
        let (bare, bare_ms) = timed_ms(|| pipeline(&text, case, key, None, false, None));
        let mut prof = PhaseProfiler::new();
        let profiled = pipeline(&text, case, key, None, true, Some(&mut prof));
        let (report, run_stats) = match (traced, untraced, bare, profiled) {
            (Ok(a), Ok(b), Ok(c), Ok(d)) => {
                let same = [&b.0, &c.0, &d.0]
                    .iter()
                    .all(|r| r.stretches == a.0.stretches);
                out.check(
                    same,
                    "tracing, the flight recorder or the profiler changed a schedule",
                );
                a
            }
            (a, b, c, d) => {
                for e in [a.err(), b.err(), c.err(), d.err()].into_iter().flatten() {
                    out.fail(e);
                }
                continue;
            }
        };
        let printed = cli.max_stretch.unwrap_or_default();
        let own = format!("{:.4}", report.max_stretch);
        out.check(
            printed == own,
            &format!(
                "{}: CLI printed max stretch {printed}, library {own}",
                case.name
            ),
        );
        keys.push(key);
        l.cli_wall.push(cli.wall_ms);
        l.flight.push(untraced_ms - bare_ms);
        l.decides.push(run_stats.decides as f64);
        l.restarts.push(run_stats.restarts as f64);
        l.steps.push(prof.steps() as f64);
        l.skip_ratio.push(prof.skip_ratio());
        for (v, p) in l.phases.iter_mut().zip(EnginePhase::ALL) {
            v.push(prof.phase(p).sum() * 1e3);
        }
        l.traced_total += traced_ms;
        l.untraced_total += untraced_ms;
    }

    // Self time per (layer, instance); the CLI gap is what the process
    // wall time leaves after every in-process layer.
    let table = spans.self_ms_table();
    let at = |name: &'static str, key: u32| table.get(&(name, key)).copied().unwrap_or(0.0);
    for (&key, &wall) in keys.iter().zip(&l.cli_wall) {
        let parts = [
            at("platform.instance.parse", key),
            at("faults.compile", key),
            at("platform.engine.run", key),
            at("core.decide", key),
            at("platform.validate", key),
            at("platform.metrics.report", key),
        ];
        l.parse.push(parts[0]);
        l.compile.push(parts[1]);
        l.engine_self.push(parts[2]);
        l.decide.push(parts[3]);
        l.run.push(parts[2] + parts[3]);
        l.validate.push(parts[4]);
        l.report.push(parts[5]);
        l.gap.push(wall - parts.iter().sum::<f64>());
    }
    out.note(format!(
        "{} instances traced, {} spans",
        l.cli_wall.len(),
        spans.len()
    ));
    let decide_us: Vec<f64> = spans
        .durations_ms("core.decide")
        .into_iter()
        .map(|ms| ms * 1e3)
        .collect();
    let mut m = Metrics::default();
    layer_metrics(&mut m, &mut out, &l, &decide_us);
    // ssf-edf is also the policy of every serving lane: this workload's
    // traced pass measures the serving layers too, on the serve stream of
    // the same seed.
    if workload == Workload::BatchSsfEdf {
        crate::serve::layers(ctx, &mut spans, &mut m, &mut out)?;
    }
    out.metrics = m;
    spans.write_csv(&ctx.spans_file(workload))?;
    Ok(out)
}

fn layer_metrics(m: &mut Metrics, out: &mut Outcome, l: &Layers, decide_us: &[f64]) {
    let sorted_us = stats::sorted(decide_us);
    let decide = Summary::of(decide_us);
    out.note(format!("decide call: {}", decide.describe("us")));
    let wall = median(&l.cli_wall);
    out.note(format!(
        "`mmsec run` wall p50 {wall:.3} ms = parse {:.3} + faults {:.3} + decide {:.3} \
         + engine self {:.3} + validate {:.3} + report {:.3} + CLI gap {:.3} (medians)",
        median(&l.parse),
        median(&l.compile),
        median(&l.decide),
        median(&l.engine_self),
        median(&l.validate),
        median(&l.report),
        median(&l.gap),
    ));
    m.set("core.decide_ms", median(&l.decide));
    m.set("core.decide_p50_us", decide.p50);
    let p99 = out.tail(percentile_checked(&sorted_us, 99.0));
    m.set("core.decide_p99_us", p99);
    m.set("core.decides", median(&l.decides));
    m.set("core.decide_skip_ratio", median(&l.skip_ratio));
    m.set("platform.engine.run_ms", median(&l.run));
    m.set("platform.engine.self_ms", median(&l.engine_self));
    m.set("platform.engine.steps", median(&l.steps));
    m.set("platform.engine.restarts", median(&l.restarts));
    for (v, p) in l.phases.iter().zip(EnginePhase::ALL) {
        if p != EnginePhase::Decide {
            m.set(phase_metric(p), median(v));
        }
    }
    m.set("platform.instance.parse_ms", median(&l.parse));
    m.set("platform.validate_ms", median(&l.validate));
    m.set("platform.metrics.report_ms", median(&l.report));
    m.set("faults.compile_ms", median(&l.compile));
    m.set("obs.flight_ms", median(&l.flight));
    m.set("apps.cli.wall_ms", wall);
    m.set("apps.cli.gap_ms", median(&l.gap));
    m.set(
        "trace.overhead_frac",
        l.traced_total / l.untraced_total.max(f64::MIN_POSITIVE) - 1.0,
    );
}

fn phase_metric(p: EnginePhase) -> &'static str {
    match p {
        EnginePhase::EventPop => "platform.engine.phase.event_pop_ms",
        EnginePhase::FaultReplay => "platform.engine.phase.fault_replay_ms",
        EnginePhase::Decide => "platform.engine.phase.decide_ms",
        EnginePhase::Sanitize => "platform.engine.phase.sanitize_ms",
        EnginePhase::Grant => "platform.engine.phase.grant_ms",
        EnginePhase::Commit => "platform.engine.phase.commit_ms",
    }
}
