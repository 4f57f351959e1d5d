//! Shared command-line failure handling for the workspace binaries
//! (`mmsec`, `repro`).
//!
//! Every failure path funnels into [`CliError`], which fixes the exit
//! codes scripts can rely on:
//!
//! | code | meaning                                    |
//! |------|--------------------------------------------|
//! | 1    | runtime failure (stalled run, event limit) |
//! | 2    | usage error (bad flags, unknown command)   |
//! | 3    | I/O error (missing or unwritable file)     |
//! | 4    | validation error (bad input data, invalid schedule) |
//!
//! [`run_or_replay`] is `mmsec run`'s engine call: a successful run
//! carries no flight recorder, and a failed one is replayed with a
//! recorder attached so the failure still leaves a flight recording.

use mmsec_platform::obs::{FlightRecorder, PhaseProfiler, Shared};
use mmsec_platform::{
    EngineError, EngineOptions, FaultPlan, Instance, ObserverHandle, OnlineScheduler, RunOutcome,
    Simulation,
};
use std::fmt;
use std::path::PathBuf;

/// A fatal CLI failure with a stable exit code.
#[derive(Debug)]
pub enum CliError {
    /// Bad invocation: unknown command, unknown flag, missing value.
    /// Exit code 2.
    Usage(String),
    /// A file could not be read or written. Exit code 3.
    Io(String),
    /// Input parsed but is semantically invalid (bad instance, bad job,
    /// invalid schedule). Exit code 4.
    Validation(String),
    /// The run itself failed (stalled policy, event-limit livelock).
    /// Exit code 1.
    Failure(String),
}

impl CliError {
    /// The process exit code for this error class.
    pub fn exit_code(&self) -> i32 {
        match self {
            CliError::Failure(_) => 1,
            CliError::Usage(_) => 2,
            CliError::Io(_) => 3,
            CliError::Validation(_) => 4,
        }
    }

    /// Convenience constructor for file I/O failures.
    pub fn io(path: &str, err: impl fmt::Display) -> CliError {
        CliError::Io(format!("{path}: {err}"))
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Usage(m)
            | CliError::Io(m)
            | CliError::Validation(m)
            | CliError::Failure(m) => f.write_str(m),
        }
    }
}

impl std::error::Error for CliError {}

/// Prints the error to stderr and exits with its stable code.
pub fn fail(err: CliError) -> ! {
    eprintln!("{err}");
    std::process::exit(err.exit_code());
}

/// A failed run, with what its flight-recorded replay saw.
#[derive(Debug)]
pub struct RunFailure {
    /// The error the run hit.
    pub error: EngineError,
    /// The error the replay hit — equal to `error`, since a run is
    /// deterministic given its policy seed; `None` if the replay finished.
    pub replay: Option<EngineError>,
    /// The replay's flight recording, when the dump was written.
    pub flight: Option<PathBuf>,
}

impl fmt::Display for RunFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "simulation failed: {}", self.error)?;
        if let Some(path) = &self.flight {
            write!(f, " (flight recording: {})", path.display())?;
        }
        Ok(())
    }
}

/// Runs `instance` under a policy from `make_policy`, with `faults`
/// injected and `observer` attached to both the engine and the policy.
///
/// On failure, the same instance, a fresh policy from `make_policy`
/// (which must build it from the same seed) and the same fault plan are
/// replayed with a [`FlightRecorder`] attached, and its ring is dumped
/// as `run-flight.json` under the failure directory. Observers never
/// change a run, so the replay fails the same way and a successful run
/// pays nothing for the recording.
pub fn run_or_replay(
    instance: &Instance,
    make_policy: &mut dyn FnMut() -> Box<dyn OnlineScheduler>,
    options: EngineOptions,
    faults: Option<&FaultPlan>,
    observer: Option<ObserverHandle>,
    profiler: Option<&mut PhaseProfiler>,
) -> Result<RunOutcome, RunFailure> {
    let run = |policy: &mut dyn OnlineScheduler,
               observer: Option<ObserverHandle>,
               profiler: Option<&mut PhaseProfiler>| {
        let mut engine_side = observer.map(|o| {
            policy.attach_observer(o.clone());
            o
        });
        let mut sim = Simulation::of(instance).policy(policy).options(options);
        if let Some(o) = engine_side.as_mut() {
            sim = sim.observer(o);
        }
        if let Some(plan) = faults {
            sim = sim.faults(plan);
        }
        if let Some(p) = profiler {
            sim = sim.profiler(p);
        }
        sim.run()
    };
    let error = match run(make_policy().as_mut(), observer, profiler) {
        Ok(out) => return Ok(out),
        Err(e) => e,
    };
    let flight = Shared::new(FlightRecorder::default());
    let replay = run(make_policy().as_mut(), Some(flight.handle()), None).err();
    Err(RunFailure {
        error,
        replay,
        flight: flight.with(|f| f.dump("run")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exit_codes_are_stable() {
        assert_eq!(CliError::Failure("x".into()).exit_code(), 1);
        assert_eq!(CliError::Usage("x".into()).exit_code(), 2);
        assert_eq!(CliError::Io("x".into()).exit_code(), 3);
        assert_eq!(CliError::Validation("x".into()).exit_code(), 4);
    }

    /// Decides nothing, so every run with a job stalls.
    struct Stall;

    impl OnlineScheduler for Stall {
        fn name(&self) -> String {
            "stall".into()
        }

        fn decide(
            &mut self,
            _view: &mmsec_platform::SimView<'_>,
            _out: &mut mmsec_platform::DirectiveBuffer,
        ) {
        }
    }

    fn one_job(release: f64) -> Instance {
        use mmsec_platform::{EdgeId, Job, PlatformSpec};
        let spec = PlatformSpec::builder()
            .edges(vec![1.0])
            .cloud_pool(1)
            .build();
        Instance::new(spec, vec![Job::new(EdgeId(0), release, 1.0, 0.5, 0.5)]).unwrap()
    }

    /// One test, not two: `MMSEC_FAILURE_DIR` is process-global.
    #[test]
    fn only_a_failed_run_is_replayed_into_a_flight_recording() {
        use mmsec_platform::obs::json::{self, Json};
        let dir = std::env::temp_dir().join(format!("mmsec-cli-replay-{}", std::process::id()));
        std::env::set_var("MMSEC_FAILURE_DIR", &dir);
        let mut srpt = || mmsec_core::PolicyKind::Srpt.build(0);
        let ok = run_or_replay(
            &one_job(0.0),
            &mut srpt,
            Default::default(),
            None,
            None,
            None,
        );
        let dir_after_ok = dir.exists();
        let mut stall = || Box::new(Stall) as Box<dyn OnlineScheduler>;
        let inst = one_job(2.5);
        let result = run_or_replay(&inst, &mut stall, Default::default(), None, None, None);
        std::env::remove_var("MMSEC_FAILURE_DIR");

        assert!(ok.unwrap().schedule.all_finished());
        assert!(!dir_after_ok, "a successful run wrote a recording");
        let failure = result.expect_err("a policy that never decides stalls");
        let EngineError::Stalled { time, .. } = &failure.error else {
            panic!("expected a stall, got {:?}", failure.error);
        };
        assert_eq!(failure.replay.as_ref(), Some(&failure.error));
        let path = failure.flight.clone().expect("dump written");
        assert!(path.starts_with(&dir), "{}", path.display());
        assert!(
            failure.to_string().contains("flight recording:"),
            "{failure}"
        );

        // The ring ends with the stalled run's last decision, an empty
        // decide at the stall instant, after the job's release.
        let doc = json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let events = doc.get("events").and_then(Json::as_arr).unwrap();
        let tag = |e: &Json| e.get("tag").and_then(Json::as_str).map(str::to_owned);
        let t = |e: &Json| e.get("t").and_then(Json::as_f64);
        let last = events.last().unwrap();
        assert_eq!(tag(last).as_deref(), Some("decide-end"));
        assert_eq!(t(last), Some(time.seconds()));
        assert!(events
            .iter()
            .any(|e| tag(e).as_deref() == Some("job-released") && t(e) == Some(2.5)));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn io_helper_includes_the_path() {
        let e = CliError::io("inst.txt", "no such file");
        assert_eq!(e.to_string(), "inst.txt: no such file");
        assert_eq!(e.exit_code(), 3);
    }
}
