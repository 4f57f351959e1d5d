//! Quickstart: build a small edge-cloud instance, schedule it with the
//! paper's best heuristic (SSF-EDF), validate the schedule, and print a
//! per-job report.
//!
//! Run with: `cargo run --example quickstart`

use mmsec_core::SsfEdf;
use mmsec_platform::{
    validate, EdgeId, Instance, Job, JobId, PlatformSpec, Simulation, StretchReport,
};

fn main() {
    // A toy platform: two edge units (a fast one at speed 0.5 and a slow
    // one at 0.2) coupled to two unit-speed cloud processors.
    let spec = PlatformSpec::builder()
        .edges(vec![0.5, 0.2])
        .cloud_pool(2)
        .build();

    // Six jobs: (origin, release, work, uplink, downlink).
    let jobs = vec![
        Job::new(EdgeId(0), 0.0, 2.0, 0.5, 0.5), // cloud-friendly
        Job::new(EdgeId(0), 0.0, 4.0, 6.0, 6.0), // heavy comms: stay local
        Job::new(EdgeId(1), 1.0, 3.0, 0.2, 0.2), // slow edge: offload
        Job::new(EdgeId(1), 2.0, 0.5, 0.1, 0.1),
        Job::new(EdgeId(0), 3.0, 1.0, 0.3, 0.3),
        Job::new(EdgeId(1), 3.5, 2.5, 0.4, 0.4),
    ];
    let instance = Instance::new(spec, jobs).expect("valid instance");

    // Schedule online with SSF-EDF (§V-D).
    let mut policy = SsfEdf::new();
    let out = Simulation::of(&instance)
        .policy(&mut policy)
        .run()
        .expect("simulation completes");

    // Check every constraint of §III-B before trusting the numbers.
    validate(&instance, &out.schedule).expect("schedule is valid");

    let report = StretchReport::new(&instance, &out.schedule);
    println!("scheduled {} jobs with SSF-EDF\n", instance.num_jobs());
    println!("job  placed-on  release  completion  response  stretch");
    for (id, job) in instance.iter_jobs() {
        let c = out.schedule.completion[id.0].expect("finished");
        println!(
            "{:<4} {:<10} {:>7.2} {:>11.2} {:>9.2} {:>8.3}",
            id.to_string(),
            out.schedule.alloc[id.0].expect("allocated").to_string(),
            job.release.seconds(),
            c.seconds(),
            report.responses[id.0],
            report.stretches[id.0],
        );
    }
    println!(
        "\nmax stretch = {:.3} (achieved by {})",
        report.max_stretch,
        report
            .argmax
            .map_or("-".to_string(), |j: JobId| j.to_string()),
    );
    println!("mean stretch = {:.3}", report.mean_stretch);
    println!(
        "events = {}, decides = {}",
        out.stats.events, out.stats.decides
    );
}
