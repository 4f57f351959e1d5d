//! `perfbench` — the mmsec benchmark: seeded workloads over the batch
//! `mmsec run` pipeline, end-to-end metrics with tracing off, per-layer
//! metrics (the sharded socket server's too) from a separate traced pass.
//!
//! ```text
//! perfbench --mmsec PATH --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! `perfbench/run.sh` builds `mmsec` and this program from the checkout
//! and passes `--mmsec`. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. The exit
//! code is nonzero when any output check failed.
//!
//! `perfbench --host-reference` runs the host-speed reference kernel
//! (`hostref`) once and prints its checksum; the timed pass spawns it
//! between `mmsec run`s.

mod batch;
mod hostref;
mod inputs;
mod loadgen;
mod reply;
mod serve;
mod spans;
mod stats;

use inputs::Workload;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// End-to-end metrics (printed with `--trace 0`), with units; the gated
/// list in `BENCHMARK.json`.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("jobs_per_s", "1/s"),
    ("instance_p50_ms", "ms"),
    ("instance_p90_ms", "ms"),
    ("max_stretch_gmean", "1"),
    ("ok_frac", "frac"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (printed with `--trace 1`). A layer a workload does
/// not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 29] = [
    ("core.decide_ms", "ms"),
    ("core.decide_p50_us", "us"),
    ("core.decide_p99_us", "us"),
    ("core.decides", "count"),
    ("core.decide_skip_ratio", "frac"),
    ("platform.engine.run_ms", "ms"),
    ("platform.engine.self_ms", "ms"),
    ("platform.engine.steps", "count"),
    ("platform.engine.restarts", "count"),
    ("platform.engine.phase.event_pop_ms", "ms"),
    ("platform.engine.phase.fault_replay_ms", "ms"),
    ("platform.engine.phase.sanitize_ms", "ms"),
    ("platform.engine.phase.grant_ms", "ms"),
    ("platform.engine.phase.commit_ms", "ms"),
    ("platform.instance.parse_ms", "ms"),
    ("platform.validate_ms", "ms"),
    ("platform.metrics.report_ms", "ms"),
    ("faults.compile_ms", "ms"),
    ("obs.flight_ms", "ms"),
    ("apps.cli.wall_ms", "ms"),
    ("apps.cli.gap_ms", "ms"),
    ("apps.ndjson.parse_us_per_line", "us"),
    ("apps.serve.lane_us_per_line", "us"),
    ("apps.server.fabric_us_per_line", "us"),
    ("apps.server.burst_lines_per_s", "1/s"),
    ("apps.server.shed", "count"),
    ("apps.server.rejected", "count"),
    ("loadgen.late_p99_ms", "ms"),
    ("trace.overhead_frac", "frac"),
];

/// Where a run works and what it measures.
pub struct Ctx {
    pub mmsec: PathBuf,
    /// Scratch directory of this process, inside the checkout.
    pub work: PathBuf,
    pub seed: u64,
    pub seconds: f64,
}

impl Ctx {
    /// The span file of a traced pass (kept after the run).
    pub fn spans_file(&self, workload: Workload) -> PathBuf {
        self.work
            .parent()
            .unwrap_or(&self.work)
            .join(format!("spans-{}.csv", workload.name()))
    }
}

/// Metric values by name.
#[derive(Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }
}

/// What one run measured and what its checks found.
#[derive(Default)]
pub struct Outcome {
    pub metrics: Metrics,
    pub attempted: usize,
    pub failed: usize,
    pub problems: Vec<String>,
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.problems.push(why);
    }

    pub fn check(&mut self, ok: bool, why: &str) {
        if !ok {
            self.fail(why.to_string());
        }
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// A tail percentile, or a failure when the sample cannot support it.
    pub fn tail(&mut self, p: Result<f64, String>) -> f64 {
        p.unwrap_or_else(|why| {
            self.fail(why);
            f64::NAN
        })
    }
}

/// Peak resident set (`VmHWM`) of a live process, MB. The high-water
/// mark of the process image itself: unlike `getrusage` of children, it
/// does not inherit the spawning process's memory.
pub fn peak_rss_mb(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let kb = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kb: f64 = kb.trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kb / 1024.0)
}

struct Args {
    mmsec: PathBuf,
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<String, String> {
        let i = args
            .iter()
            .position(|a| a == flag)
            .ok_or_else(|| format!("missing {flag}"))?;
        args.get(i + 1)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    let workload = get("--workload")?;
    let bad = |flag: &str| format!("bad value for {flag}");
    Ok(Args {
        mmsec: PathBuf::from(get("--mmsec")?),
        workload: Workload::parse(&workload).ok_or_else(|| {
            let names: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
            format!(
                "unknown workload {workload:?} (one of {})",
                names.join(", ")
            )
        })?,
        seed: get("--seed")?.parse().map_err(|_| bad("--seed"))?,
        seconds: get("--seconds")?
            .parse::<f64>()
            .ok()
            .filter(|s| *s > 0.0)
            .ok_or_else(|| bad("--seconds"))?,
        trace: match get("--trace")?.as_str() {
            "0" => false,
            "1" => true,
            _ => return Err(bad("--trace")),
        },
    })
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn main() {
    if std::env::args().nth(1).as_deref() == Some(hostref::FLAG) {
        println!("{:016x}", hostref::kernel());
        return;
    }
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    });
    let ctx = Ctx {
        mmsec: args.mmsec,
        work: PathBuf::from(".bench_build")
            .join("perfbench")
            .join(format!("run-{}", std::process::id())),
        seed: args.seed,
        seconds: args.seconds,
    };
    let result = if args.trace {
        batch::traced(args.workload, &ctx)
    } else {
        batch::timed(args.workload, &ctx)
    };
    let _ = std::fs::remove_dir_all(&ctx.work);
    let mut out = result.unwrap_or_else(|e| {
        eprintln!("perfbench: {}: {e}", args.workload.name());
        std::process::exit(1);
    });

    let list: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    if !args.trace {
        let ok = 1.0 - out.failed as f64 / out.attempted.max(1) as f64;
        out.metrics.set("ok_frac", ok);
    }
    println!(
        "workload {} seed {} seconds {} trace {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for n in &out.notes {
        println!("  {n}");
    }
    for p in &out.problems {
        println!("  FAILED: {p}");
    }
    let mut fields = Vec::new();
    for (name, unit) in list {
        let v = match out.metrics.0.get(name) {
            Some(v) => *v,
            None if args.trace => 0.0,
            None => panic!("end-to-end metric {name} was not measured"),
        };
        println!("  {name:<40} {v:>14.6} {unit}");
        fields.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(v)
        ));
    }
    let correct = out.failed == 0 && out.problems.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        fields.join(", ")
    );
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric lists and workloads here and in the repository's
    /// BENCHMARK.json agree.
    #[test]
    fn metric_lists_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(text.contains(&entry), "{entry} missing from BENCHMARK.json");
        }
        let names = text.matches("\"unit\"").count();
        assert_eq!(names, END_TO_END.len() + PER_LAYER.len());
        for w in Workload::ALL {
            let entry = format!("\"name\": \"{}\"", w.name());
            assert!(text.contains(&entry), "{entry} missing from BENCHMARK.json");
        }
    }

    #[test]
    fn peak_rss_is_read() {
        let own = peak_rss_mb(std::process::id()).expect("VmHWM of this process");
        assert!(own > 0.0);
        assert_eq!(peak_rss_mb(u32::MAX), None);
    }
}
