//! Host-speed reference: a fixed CPU kernel, independent of the mmsec
//! crates, timed next to the program so the gated timings can be stated
//! at one nominal host speed.
//!
//! On a shared VM the same `mmsec run` takes 15 ms in one minute and 28 ms
//! a few minutes later, in CPU time as much as in wall time: neighbours
//! slow the core, not only steal it. No statistic inside one run removes
//! that. A second program on the same core at the same moment slows by
//! nearly the same factor, so the timed loop alternates each `mmsec run`
//! with one run of this kernel (spawned like `mmsec`, as
//! `perfbench --host-reference`) and scales the program's times by
//! `REF_MS / reference time`. The kernel is a small event simulation
//! (binary heap of releases, scan over servers, a sort), so its mix of
//! branches, heap traffic and cache footprint resembles the engine's.
//! Over five minutes of a busy host, 2-second blocks of `mmsec run` time
//! spread by 21–24% (inter-quartile range over median) and their ratio to
//! this kernel's time by 6%.
//!
//! The kernel runs no mmsec code, so a change to the program under test
//! moves the program's times and not the scale.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::path::PathBuf;
use std::process::Command;
use std::time::Instant;

/// Jobs simulated by one kernel run.
const JOBS: usize = 60_000;
/// Servers the kernel schedules on.
const SERVERS: usize = 30;
/// Nominal time of one reference run (spawn to exit), ms: about its time
/// on an idle 2.1 GHz Xeon vCPU. Scaled timings read as if the reference
/// had taken exactly this long.
pub const REF_MS: f64 = 16.0;
/// The argument that makes `perfbench` run the kernel and exit.
pub const FLAG: &str = "--host-reference";

/// The reference kernel: a fixed event simulation of [`JOBS`] jobs on
/// [`SERVERS`] servers. Returns a checksum of its result.
pub fn kernel() -> u64 {
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut rnd = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        (x >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut release = Vec::with_capacity(JOBS);
    let mut work = Vec::with_capacity(JOBS);
    let mut t = 0.0;
    for _ in 0..JOBS {
        t += rnd() * 2.0;
        release.push(t);
        work.push(1.0 + rnd() * 50.0);
    }
    let mut heap: BinaryHeap<Reverse<(u64, u32)>> = (0..JOBS)
        .map(|i| Reverse(((release[i] * 1e6) as u64, i as u32)))
        .collect();
    let mut free = [0.0f64; SERVERS];
    let mut finish = vec![0.0f64; JOBS];
    let mut pending: Vec<u32> = Vec::new();
    let mut kept: Vec<u32> = Vec::new();
    while let Some(Reverse((at, i))) = heap.pop() {
        let now = at as f64 / 1e6;
        pending.push(i);
        for &j in &pending {
            let w = work[j as usize];
            let (mut best, mut server) = (f64::INFINITY, 0);
            for (s, f) in free.iter().enumerate() {
                let end = f.max(now) + w * (1.0 + s as f64 * 0.01);
                if end < best {
                    best = end;
                    server = s;
                }
            }
            if best - now < 200.0 {
                free[server] = best;
                finish[j as usize] = best;
            } else {
                kept.push(j);
            }
        }
        std::mem::swap(&mut pending, &mut kept);
        kept.clear();
    }
    let mut stretch: Vec<f64> = (0..JOBS)
        .map(|i| (finish[i] - release[i]) / work[i])
        .collect();
    stretch.sort_by(f64::total_cmp);
    stretch
        .iter()
        .fold(0u64, |h, s| (h ^ s.to_bits()).wrapping_mul(0x100_0000_01b3))
}

/// Runs the kernel in child processes of this executable and times them.
pub struct HostRef {
    exe: PathBuf,
    expected: String,
}

impl HostRef {
    pub fn new() -> std::io::Result<HostRef> {
        Ok(HostRef {
            exe: std::env::current_exe()?,
            expected: format!("{:016x}", kernel()),
        })
    }

    /// Wall time of one reference process, ms, or why it failed (it
    /// must print the kernel's checksum).
    pub fn time(&self) -> Result<f64, String> {
        let t0 = Instant::now();
        let out = Command::new(&self.exe)
            .arg(FLAG)
            .output()
            .map_err(|e| format!("cannot spawn the host reference: {e}"))?;
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let printed = String::from_utf8_lossy(&out.stdout);
        if !out.status.success() || printed.trim() != self.expected {
            return Err(format!(
                "host reference exited {} printing {:?}, expected {}",
                out.status,
                printed.trim(),
                self.expected
            ));
        }
        Ok(ms)
    }

    /// `REF_MS` over the median of `ref_ms`: the factor that states times
    /// measured beside those reference runs at the nominal host speed.
    pub fn scale(ref_ms: &[f64]) -> f64 {
        REF_MS / crate::stats::median(ref_ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic() {
        assert_eq!(kernel(), kernel());
    }

    #[test]
    fn scale_states_times_at_nominal_speed() {
        assert_eq!(HostRef::scale(&[REF_MS]), 1.0);
        // A host twice as slow halves every scaled time.
        assert_eq!(HostRef::scale(&[2.0 * REF_MS, 9.0, 2.0 * REF_MS]), 0.5);
    }
}
