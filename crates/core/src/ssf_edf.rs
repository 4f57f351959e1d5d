//! The **SSF-EDF** heuristic (paper §V-D) — stretch-so-far
//! earliest-deadline-first, extended to the edge-cloud platform.
//!
//! At each *release* event:
//! 1. binary-search the smallest target stretch `S` such that the deadline
//!    set `d_i = r_i + S · min(t^e_i, t^c_i)` is *schedulable* by the EDF
//!    placement rule: walk jobs by non-decreasing deadline, assign each to
//!    the processor where the contention-profile projection completes it
//!    earliest, and check every forecast completion against its deadline;
//! 2. fix the plan (deadline order + chosen targets) computed at
//!    `S_c = α · S` (α = 1 in the paper) and follow it until the next
//!    release.
//!
//! EDF is *not* optimal on this platform (the paper gives a two-job
//! counterexample, reproduced in the tests below), so the binary search
//! may settle above the true optimum — SSF-EDF remains a heuristic.
//!
//! # Cost of a replan
//!
//! Each probe of the binary search sorts the pending jobs by deadline
//! under its `S`, then places them in that order. The placement never
//! reads `S` or a deadline: it depends on the EDF *order* alone. Probes
//! of one replan therefore share a memo keyed by that order; a probe
//! whose order an earlier probe already placed reuses its targets and
//! forecast completions and only re-checks them against its own
//! deadlines. A placement pass reuses one run-long [`Projection`], and
//! its target choice visits the clouds by [`CloudClasses`]: a class whose
//! pristine closed form cannot beat the committed or edge candidate is
//! skipped outright, and clouds of one class the pass has not placed on
//! yet forecast identically, so each remaining class is scanned only up
//! to its first such cloud. The winner's forecast is booked as is. The
//! search's lower bound reads one cloud per class too. Every shortcut is
//! exact — the `#[cfg(test)]` reference probe (fresh projection, full
//! ascending scan), the reference lower bound and an end-to-end reference
//! policy pin them bit for bit. See `docs/performance.md` ("SSF-EDF
//! replan").

use mmsec_platform::obs::Event as ObsEvent;
use mmsec_platform::projection::{Forecast, Projection};
use mmsec_platform::{
    CloudClasses, CloudId, DecisionCadence, DirectiveBuffer, Instance, Job, JobId, JobState,
    ObserverHandle, OnlineScheduler, PlatformSpec, SimView, Target,
};
use mmsec_sim::Time;

/// SSF-EDF policy.
#[derive(Clone, Debug)]
pub struct SsfEdf {
    /// Deadline multiplier α (paper default 1).
    alpha: f64,
    /// Relative precision ε of the stretch binary search.
    eps_rel: f64,
    /// Plan: deadline per job (valid while it is pending).
    deadlines: Vec<Option<Time>>,
    /// Plan: chosen target per job.
    targets: Vec<Option<Target>>,
    /// Pending jobs sorted by (deadline, id); kept alive across decide
    /// calls and maintained from the view's pending delta.
    order: Vec<(Time, JobId)>,
    /// Maintain `order` incrementally (default). `false` rebuilds and
    /// re-sorts it at every decide and demotes the policy to
    /// `DecisionCadence::EveryEvent` — the reference mode the
    /// gating-equivalence proptest compares against.
    incremental: bool,
    /// Platform version the current plan was computed against; a mismatch
    /// (units joined, left, or were re-provisioned) voids every deadline
    /// and target, forcing a full replan.
    platform_version: u64,
    /// Sink for `BinarySearchProbe` events, when attached.
    observer: Option<ObserverHandle>,
    /// Run-long probe scratch, sized for one platform: built at the
    /// first replan, rebuilt when the platform version moves, dropped by
    /// `on_start` (two static instances both report version 0).
    replanner: Option<Replanner>,
    /// Work counters of the replan path, for tests.
    work: Work,
}

/// Work the replan path performed, summed over the policy's lifetime.
/// Deterministic, so tests can gate the probe shortcuts on work done
/// instead of on wall-clock time.
#[derive(Clone, Copy, Debug, Default)]
#[cfg_attr(not(test), allow(dead_code))]
struct Work {
    /// Feasibility probes of the stretch binary search.
    probes: u64,
    /// Probes whose EDF order an earlier probe of the replan had placed.
    memo_hits: u64,
    /// Placement passes (probes that missed the memo).
    placements: u64,
    /// Jobs placed by those passes.
    jobs_placed: u64,
    /// Projection forecasts on cloud targets while choosing targets.
    cloud_forecasts: u64,
    /// Cloud classes skipped whole by their pristine bound.
    classes_pruned: u64,
}

impl Default for SsfEdf {
    fn default() -> Self {
        Self::new()
    }
}

impl SsfEdf {
    /// Policy with the paper's parameters (α = 1, ε = 10⁻³).
    pub fn new() -> Self {
        Self::with_params(1.0, 1e-3)
    }

    /// Policy with explicit α and binary-search precision (the α ablation
    /// of the experiment suite).
    pub fn with_params(alpha: f64, eps_rel: f64) -> Self {
        assert!(alpha > 0.0 && eps_rel > 0.0);
        SsfEdf {
            alpha,
            eps_rel,
            deadlines: Vec::new(),
            targets: Vec::new(),
            order: Vec::new(),
            incremental: true,
            platform_version: 0,
            observer: None,
            replanner: None,
            work: Work::default(),
        }
    }

    /// Disables the incremental order maintenance *and* decision-epoch
    /// gating (the policy reports `DecisionCadence::EveryEvent`): every
    /// decide rebuilds the EDF order from scratch. Schedules are
    /// bit-identical to the default mode; used as the reference in
    /// equivalence tests.
    pub fn with_recompute(mut self) -> Self {
        self.incremental = false;
        self
    }

    /// Full recomputation at a release event.
    fn replan(&mut self, view: &SimView<'_>) {
        if self
            .replanner
            .as_ref()
            .is_some_and(|r| r.version != view.platform_version())
        {
            self.replanner = None;
        }
        let rp = self.replanner.get_or_insert_with(|| Replanner::new(view));
        rp.begin(view);
        let lo = rp.lower_bound(view);
        let work = &mut self.work;
        let observer = &self.observer;
        let chosen = search(lo, self.alpha, self.eps_rel, |s| {
            let probe = rp.probe(view, s, work);
            if let Some(obs) = observer {
                obs.with(|o| {
                    o.on_event(&ObsEvent::BinarySearchProbe {
                        t: view.now,
                        stretch: s,
                        feasible: probe.feasible,
                    })
                });
            }
            (probe.feasible, probe)
        });
        let (order, placed) = rp.memo.entry(chosen.entry);
        for (&id, &(target, _)) in order.iter().zip(placed) {
            self.deadlines[id.0] = Some(view.deadline_under_stretch(id, chosen.s));
            self.targets[id.0] = Some(target);
        }
    }
}

/// The stretch binary search of one replan, starting from the lower
/// bound `lo`. `probe(s)` reports whether target stretch `s` is feasible,
/// plus a payload; the chosen probe's payload is returned.
fn search<P>(lo: f64, alpha: f64, eps_rel: f64, mut probe: impl FnMut(f64) -> (bool, P)) -> P {
    let (feasible, at_lo) = probe(lo);
    if feasible {
        return at_lo;
    }
    // Find a feasible upper bound by doubling.
    let mut hi = lo.max(1.0) * 2.0;
    for _ in 0..64 {
        let (feasible, mut attempt) = probe(hi);
        if feasible {
            let mut lo = lo;
            while hi - lo > eps_rel * lo {
                let mid = 0.5 * (lo + hi);
                let (mid_feasible, mid_attempt) = probe(mid);
                if mid_feasible {
                    hi = mid;
                    attempt = mid_attempt;
                } else {
                    lo = mid;
                }
            }
            if alpha != 1.0 {
                attempt = probe(alpha * hi).1;
            }
            return attempt;
        }
        hi *= 2.0;
    }
    // Pathological: never feasible (EDF anomaly). Fall back to the last
    // attempt's ordering as a best effort.
    probe(hi).1
}

/// One probe's outcome: its stretch, whether every forecast completion
/// met its deadline, and the memo entry holding its placement.
#[derive(Clone, Copy, Debug)]
struct Probe {
    s: f64,
    feasible: bool,
    entry: usize,
}

/// Probe scratch of the replans, reused for a whole run on one platform.
#[derive(Clone, Debug)]
struct Replanner {
    /// Platform version the projection and the class table were built for.
    version: u64,
    placer: Placer,
    /// Pending jobs of the current replan.
    pending: Vec<JobId>,
    /// The current probe's `(deadline, id)` pairs in EDF order.
    keys: Vec<(Time, JobId)>,
    memo: Memo,
}

impl Replanner {
    fn new(view: &SimView<'_>) -> Self {
        Replanner {
            version: view.platform_version(),
            placer: Placer::new(view),
            pending: Vec::new(),
            keys: Vec::new(),
            memo: Memo::default(),
        }
    }

    /// Starts a replan: snapshots the pending set and empties the memo,
    /// whose placements hold only for the view they were made against.
    fn begin(&mut self, view: &SimView<'_>) {
        self.pending.clear();
        self.pending.extend(view.pending_jobs());
        self.memo.clear(self.pending.len());
    }

    /// Lower bound of the stretch search: the stretch each pending job is
    /// already forced to (finishing as early as physically possible,
    /// alone), and at least 1.
    fn lower_bound(&self, view: &SimView<'_>) -> f64 {
        self.pending.iter().fold(1.0f64, |lo, &id| {
            let job = view.job(id);
            let forced = (view.now + Time::new(self.best_duration(view, id)) - job.release)
                .seconds()
                / view.min_time(id);
            lo.max(forced)
        })
    }

    /// Smallest contention-free remaining duration of `id` over the edge
    /// and every live cloud. Fresh durations depend on a cloud only
    /// through its class, so the committed cloud (its remaining volumes)
    /// and one other live member per class stand for every cloud; `min`
    /// is exact, so this is bit-identical to a fold over all clouds.
    fn best_duration(&self, view: &SimView<'_>, id: JobId) -> f64 {
        let committed = view.jobs.committed[id.0];
        let mut best = view.duration_if_placed(id, Target::Edge);
        if let Some(Target::Cloud(k)) = committed {
            if view.cloud_live(k) {
                best = best.min(view.duration_if_placed(id, Target::Cloud(k)));
            }
        }
        for class in self.placer.classes.groups() {
            let fresh = class
                .iter()
                .find(|&&k| committed != Some(Target::Cloud(k)) && view.cloud_live(k));
            if let Some(&k) = fresh {
                best = best.min(view.duration_if_placed(id, Target::Cloud(k)));
            }
        }
        best
    }

    /// EDF feasibility probe under target stretch `s`. Places the jobs
    /// only when no earlier probe of this replan produced the same order.
    fn probe(&mut self, view: &SimView<'_>, s: f64, work: &mut Work) -> Probe {
        work.probes += 1;
        self.keys.clear();
        self.keys.extend(
            self.pending
                .iter()
                .map(|&id| (view.deadline_under_stretch(id, s), id)),
        );
        self.keys.sort_unstable();
        let entry = match self.memo.find(&self.keys) {
            Some(entry) => {
                work.memo_hits += 1;
                entry
            }
            None => {
                work.placements += 1;
                work.jobs_placed += self.keys.len() as u64;
                self.placer.begin_pass(view.now);
                for &(_, id) in &self.keys {
                    let job = view.job(id);
                    let st = view.state(id);
                    let (target, forecast) = self.placer.choose_target(view, job, &st, work);
                    let completion = match forecast {
                        Some(f) => self.placer.place_forecast(job, &f, target),
                        None => self.placer.place(view.spec(), job, &st, target, view.now),
                    };
                    self.memo.push(id, target, completion);
                }
                self.memo.seal()
            }
        };
        let (_, placed) = self.memo.entry(entry);
        let feasible = self
            .keys
            .iter()
            .zip(placed)
            .all(|(&(d, _), &(_, completion))| completion.approx_le(d));
        Probe { s, feasible, entry }
    }
}

/// Placements of one replan, keyed by EDF order. Every entry orders the
/// same pending set, so entries are fixed-width rows of flat buffers.
#[derive(Clone, Debug, Default)]
struct Memo {
    /// Jobs per entry (the replan's pending count).
    width: usize,
    /// Sealed entries.
    entries: usize,
    /// Entry `e`'s EDF order is `orders[e * width..(e + 1) * width]`.
    orders: Vec<JobId>,
    /// `placed[i]` is the (target, forecast completion) of `orders[i]`.
    placed: Vec<(Target, Time)>,
}

impl Memo {
    fn clear(&mut self, width: usize) {
        self.width = width;
        self.entries = 0;
        self.orders.clear();
        self.placed.clear();
    }

    /// The entry whose order is the id sequence of `keys`, if any.
    fn find(&self, keys: &[(Time, JobId)]) -> Option<usize> {
        (0..self.entries).find(|&e| {
            let order = &self.orders[e * self.width..(e + 1) * self.width];
            order.iter().zip(keys).all(|(&a, &(_, b))| a == b)
        })
    }

    /// Appends one placement to the entry being built.
    fn push(&mut self, id: JobId, target: Target, completion: Time) {
        self.orders.push(id);
        self.placed.push((target, completion));
    }

    /// Closes the entry being built and returns its index.
    fn seal(&mut self) -> usize {
        debug_assert_eq!(self.orders.len(), (self.entries + 1) * self.width);
        self.entries += 1;
        self.entries - 1
    }

    fn entry(&self, e: usize) -> (&[JobId], &[(Target, Time)]) {
        let range = e * self.width..(e + 1) * self.width;
        (&self.orders[range.clone()], &self.placed[range])
    }
}

/// One placement pass's projection and target choice.
#[derive(Clone, Debug)]
struct Placer {
    proj: Projection,
    classes: CloudClasses,
    /// Cloud `k` was placed on in the current pass iff
    /// `placed_in[k] == pass`.
    placed_in: Vec<u64>,
    pass: u64,
}

impl Placer {
    fn new(view: &SimView<'_>) -> Self {
        Placer {
            proj: Projection::from_view(view),
            classes: CloudClasses::of(view.spec()),
            placed_in: vec![0; view.spec().num_cloud()],
            pass: 0,
        }
    }

    /// Frees every resource from `now` on: equivalent to a fresh
    /// projection, and no cloud counts as placed on.
    fn begin_pass(&mut self, now: Time) {
        self.proj.reset(now);
        self.pass += 1;
    }

    /// Books `job` on `target` and returns its forecast completion.
    fn place(
        &mut self,
        spec: &PlatformSpec,
        job: &Job,
        st: &JobState,
        target: Target,
        now: Time,
    ) -> Time {
        let f = self.proj.forecast(job, st, target, spec, now);
        self.place_forecast(job, &f, target)
    }

    /// Books `job` on `target` from `f`, a forecast made against the
    /// current profiles, and returns its completion.
    fn place_forecast(&mut self, job: &Job, f: &Forecast, target: Target) -> Time {
        if let Target::Cloud(k) = target {
            self.placed_in[k.0] = self.pass;
        }
        self.proj.place_forecast(job, f, target);
        f.completion
    }

    /// Earliest-projected-completion target with a *hysteresis*
    /// re-execution guard. Two failure modes bracket the design space:
    /// comparing raw projections lets every replan reshuffle in-flight
    /// jobs (>100 re-executions per 600 jobs, the lost progress
    /// dominating the stretch), while an optimistic never-switch bar
    /// ratchets jobs onto congested processors they can never leave. The
    /// middle ground: a switch must beat the *projected* (queue-aware)
    /// continuation by more than the progress the job would throw away.
    ///
    /// The choice is the first minimum of the committed target, the
    /// edge, then the clouds by ascending index, each compared with
    /// strict `<`. The clouds are visited by class instead: the
    /// lexicographic `(completion, index)` minimum over them is the same
    /// cloud, and within a class the scan stops at the first available
    /// cloud this pass has not placed on — every later member forecasts
    /// no earlier (an untouched one identically, a placed-on one later,
    /// since forecasts are monotone in the profiles) and has a higher
    /// index.
    ///
    /// A class is skipped whole when its pristine closed form (fresh
    /// volumes on profiles all at `now`) is no earlier than the
    /// incumbent's completion or the bar. Every member the scan would
    /// score is fresh (the committed cloud is scored above, not in the
    /// class loop), and a fresh forecast is never below its pristine
    /// form: forecasts are monotone in the profile free times and IEEE
    /// addition rounds monotonically. Such a member could neither clear
    /// the bar nor beat the incumbent, which needs strict `<`.
    ///
    /// Returns the target and, when one was available, the forecast it
    /// won with, so the pass can book it without forecasting again.
    fn choose_target(
        &self,
        view: &SimView<'_>,
        job: &Job,
        st: &JobState,
        work: &mut Work,
    ) -> (Target, Option<Forecast>) {
        let spec = view.spec();
        let now = view.now;
        let proj = &self.proj;
        // Time already invested in the committed attempt (what a switch
        // wastes).
        let sunk = match st.committed {
            Some(Target::Edge) => st.work_done / spec.edge_speed(job.origin),
            Some(Target::Cloud(k)) => st.up_done + st.work_done / spec.cloud_speed(k) + st.dn_done,
            None => 0.0,
        };
        let mut best: Option<(Target, Forecast)> = None;
        let mut bar: Option<Time> = None;
        if let Some(t) = st.committed {
            let f = proj.forecast(job, st, t, spec, now);
            if let Target::Cloud(_) = t {
                work.cloud_forecasts += 1;
            }
            bar = Some(f.completion - Time::new(sunk));
            // A down unit (fault injection) is never a placement target.
            if view.target_available(job.origin, t) {
                best = Some((t, f));
            }
        }
        // A switch must beat the bar; the committed target itself is
        // scored once above (a re-evaluation would tie and lose).
        let clears_bar = |completion: Time| bar.map_or(true, |bar| completion < bar);
        if st.committed != Some(Target::Edge) && view.target_available(job.origin, Target::Edge) {
            let f = proj.forecast(job, st, Target::Edge, spec, now);
            if clears_bar(f.completion) && best.map_or(true, |(_, b)| f.completion < b.completion) {
                best = Some((Target::Edge, f));
            }
        }
        let cut = match (best.map(|(_, f)| f.completion), bar) {
            (Some(c), Some(b)) => Some(c.min(b)),
            (c, b) => c.or(b),
        };
        let mut cloud_best: Option<(Forecast, CloudId)> = None;
        for class in self.classes.groups() {
            if let Some(cut) = cut {
                let k = class[0];
                let (up, dn) = (job.up * spec.path_up(k), job.dn * spec.path_dn(k));
                let bound = Forecast::pristine(
                    Target::Cloud(k),
                    up,
                    job.work,
                    dn,
                    spec.cloud_speed(k),
                    now,
                );
                if bound.completion >= cut {
                    work.classes_pruned += 1;
                    continue;
                }
            }
            for &k in class {
                let target = Target::Cloud(k);
                if st.committed == Some(target) || !view.target_available(job.origin, target) {
                    continue;
                }
                let f = proj.forecast(job, st, target, spec, now);
                work.cloud_forecasts += 1;
                if clears_bar(f.completion)
                    && cloud_best.map_or(true, |(b, bk)| {
                        f.completion < b.completion || (f.completion == b.completion && k.0 < bk.0)
                    })
                {
                    cloud_best = Some((f, k));
                }
                if self.placed_in[k.0] != self.pass {
                    break;
                }
            }
        }
        if let Some((f, k)) = cloud_best {
            if best.map_or(true, |(_, b)| f.completion < b.completion) {
                best = Some((Target::Cloud(k), f));
            }
        }
        // Every unit can be down at once under fault injection; park the
        // job on its committed target (or the edge) until something
        // recovers — the engine's resource blocking keeps it from
        // actually starting there.
        match best {
            Some((t, f)) => (t, Some(f)),
            None => (st.committed.unwrap_or(Target::Edge), None),
        }
    }
}

impl OnlineScheduler for SsfEdf {
    fn name(&self) -> String {
        if self.alpha == 1.0 {
            "ssf-edf".into()
        } else {
            format!("ssf-edf(a={})", self.alpha)
        }
    }

    fn cadence(&self) -> DecisionCadence {
        if self.incremental {
            DecisionCadence::OnEpochChange
        } else {
            DecisionCadence::EveryEvent
        }
    }

    fn on_start(&mut self, instance: &Instance) {
        self.deadlines = vec![None; instance.num_jobs()];
        self.targets = vec![None; instance.num_jobs()];
        self.order.clear();
        self.replanner = None;
    }

    fn attach_observer(&mut self, observer: ObserverHandle) {
        self.observer = Some(observer);
    }

    fn decide(&mut self, view: &SimView<'_>, out: &mut DirectiveBuffer) {
        // Streaming sessions admit jobs after `on_start`.
        if self.deadlines.len() < view.jobs.len() {
            self.deadlines.resize(view.jobs.len(), None);
            self.targets.resize(view.jobs.len(), None);
        }
        // Platform mutation: the plan's targets may point at removed
        // units and its deadlines assume stale speeds — void it all.
        if self.platform_version != view.platform_version() {
            self.platform_version = view.platform_version();
            self.deadlines.fill(None);
            self.targets.fill(None);
            self.order.clear();
        }
        // Release event ⇔ some pending job has no deadline yet.
        let replanned = if view.pending_jobs().any(|id| self.deadlines[id.0].is_none()) {
            self.replan(view);
            true
        } else {
            false
        };
        if replanned || !self.incremental {
            // A replan rewrote every pending deadline: rebuild the order.
            self.order.clear();
            self.order.extend(
                view.pending_jobs()
                    .map(|id| (self.deadlines[id.0].expect("planned"), id)),
            );
            self.order.sort();
        } else {
            // Deadlines unchanged since the last call: the order only
            // shrinks by the jobs that completed in between. Newly
            // released jobs cannot appear here — they have no deadline
            // yet, which forces the replan branch above (stale inserts
            // from a prior rebuild are already in the order). A `None`
            // deadline means a platform bump voided the plan after the
            // job was planned — `order` was cleared with it, nothing to
            // drop.
            for &id in view.delta_removed() {
                let Some(d) = self.deadlines[id.0] else {
                    continue;
                };
                let key = (d, id);
                if let Ok(pos) = self.order.binary_search(&key) {
                    self.order.remove(pos);
                }
            }
        }
        for &(_, id) in &self.order {
            out.push(id, self.targets[id.0].expect("planned"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmsec_platform::{
        figure1_instance, max_stretch, validate, CloudId, EdgeId, EngineOptions, FaultConfig,
        Instance, Job, JobArena, PendingSet, PlatformSpec, PlatformState, RunOutcome, Simulation,
        StretchReport,
    };
    use mmsec_workload::{KangConfig, RandomCcrConfig};

    /// Reference best duration: the edge and every live cloud, one by
    /// one.
    fn best_duration(view: &SimView<'_>, id: JobId) -> f64 {
        let mut best = view.duration_if_placed(id, Target::Edge);
        for k in view.spec().clouds() {
            if view.cloud_live(k) {
                best = best.min(view.duration_if_placed(id, Target::Cloud(k)));
            }
        }
        best
    }

    /// Reference forced stretch of `id`, from [`best_duration`].
    fn forced_stretch(view: &SimView<'_>, id: JobId) -> f64 {
        let job = view.job(id);
        (view.now + Time::new(best_duration(view, id)) - job.release).seconds() / view.min_time(id)
    }

    /// Reference target choice: the committed target, the edge, then
    /// every cloud by ascending index, each forecast against `proj`.
    fn choose_target(
        proj: &Projection,
        view: &SimView<'_>,
        id: JobId,
        spec: &PlatformSpec,
    ) -> Target {
        let st = &view.state(id);
        let job = view.job(id);
        let sunk = match st.committed {
            Some(Target::Edge) => st.work_done / spec.edge_speed(job.origin),
            Some(Target::Cloud(k)) => st.up_done + st.work_done / spec.cloud_speed(k) + st.dn_done,
            None => 0.0,
        };
        let bar: Option<Time> = st
            .committed
            .map(|t| proj.completion(job, st, t, spec, view.now) - Time::new(sunk));
        let mut best: Option<(Target, Time)> = None;
        let consider = |target: Target, best: &mut Option<(Target, Time)>| {
            if !view.target_available(job.origin, target) {
                return;
            }
            let completion = proj.completion(job, st, target, spec, view.now);
            if st.committed != Some(target) {
                if let Some(bar) = bar {
                    if completion >= bar {
                        return;
                    }
                }
            }
            if best.map_or(true, |(_, c)| completion < c) {
                *best = Some((target, completion));
            }
        };
        if let Some(t) = st.committed {
            consider(t, &mut best);
        }
        consider(Target::Edge, &mut best);
        for k in spec.clouds() {
            consider(Target::Cloud(k), &mut best);
        }
        best.map_or(st.committed.unwrap_or(Target::Edge), |(t, _)| t)
    }

    #[derive(Debug, PartialEq)]
    struct PlanEntry {
        id: JobId,
        deadline: Time,
        target: Target,
    }

    /// Reference probe: a fresh projection, the full ascending cloud
    /// scan, and a plan built per probe.
    fn try_stretch(view: &SimView<'_>, s: f64) -> (bool, Vec<PlanEntry>) {
        let spec = view.spec();
        let mut jobs: Vec<(Time, JobId)> = view
            .pending_jobs()
            .map(|id| (view.deadline_under_stretch(id, s), id))
            .collect();
        jobs.sort();
        let mut proj = Projection::from_view(view);
        let mut feasible = true;
        let mut plan = Vec::with_capacity(jobs.len());
        for (d, id) in jobs {
            let job = view.job(id);
            let st = &view.state(id);
            let target = choose_target(&proj, view, id, spec);
            let completion = proj.place(job, st, target, spec, view.now);
            if !completion.approx_le(d) {
                feasible = false;
            }
            plan.push(PlanEntry {
                id,
                deadline: d,
                target,
            });
        }
        (feasible, plan)
    }

    /// The plan a production probe fixes, in its EDF order.
    fn plan_of(rp: &Replanner, view: &SimView<'_>, probe: &Probe) -> Vec<PlanEntry> {
        let (order, placed) = rp.memo.entry(probe.entry);
        order
            .iter()
            .zip(placed)
            .map(|(&id, &(target, _))| PlanEntry {
                id,
                deadline: view.deadline_under_stretch(id, probe.s),
                target,
            })
            .collect()
    }

    /// Reference policy: the same stretch search over reference probes,
    /// with the EDF order rebuilt at every decide.
    struct SsfEdfNaive {
        alpha: f64,
        deadlines: Vec<Option<Time>>,
        targets: Vec<Option<Target>>,
    }

    impl SsfEdfNaive {
        fn new(alpha: f64) -> Self {
            SsfEdfNaive {
                alpha,
                deadlines: Vec::new(),
                targets: Vec::new(),
            }
        }
    }

    impl OnlineScheduler for SsfEdfNaive {
        fn name(&self) -> String {
            "ssf-edf-naive".into()
        }

        fn on_start(&mut self, instance: &Instance) {
            self.deadlines = vec![None; instance.num_jobs()];
            self.targets = vec![None; instance.num_jobs()];
        }

        fn decide(&mut self, view: &SimView<'_>, out: &mut DirectiveBuffer) {
            if view.pending_jobs().any(|id| self.deadlines[id.0].is_none()) {
                let mut lo = 1.0f64;
                for id in view.pending_jobs() {
                    lo = lo.max(forced_stretch(view, id));
                }
                let plan = search(lo, self.alpha, 1e-3, |s| try_stretch(view, s));
                for entry in plan {
                    self.deadlines[entry.id.0] = Some(entry.deadline);
                    self.targets[entry.id.0] = Some(entry.target);
                }
            }
            let mut order: Vec<(Time, JobId)> = view
                .pending_jobs()
                .map(|id| (self.deadlines[id.0].expect("planned"), id))
                .collect();
            order.sort();
            for (_, id) in order {
                out.push(id, self.targets[id.0].expect("planned"));
            }
        }
    }

    #[test]
    fn single_job_gets_stretch_one() {
        let spec = PlatformSpec::builder()
            .edges(vec![0.5])
            .cloud_pool(1)
            .build();
        let jobs = vec![Job::new(EdgeId(0), 0.0, 2.0, 10.0, 10.0)];
        let inst = Instance::new(spec, jobs).unwrap();
        let out = Simulation::of(&inst)
            .policy(&mut SsfEdf::new())
            .run()
            .unwrap();
        assert!(validate(&inst, &out.schedule).is_ok());
        assert!((max_stretch(&inst, &out.schedule) - 1.0).abs() < 1e-9);
        assert_eq!(out.schedule.alloc[0], Some(Target::Edge));
    }

    #[test]
    fn paper_edf_counterexample_still_schedules() {
        // §V-D: two jobs w=3 with deadlines 5 and 6 on one cloud
        // (up=dn=... the example uses uplink 1 implicitly): EDF order can
        // miss a deadline that another order meets. SSF-EDF still produces
        // a valid schedule, possibly with a larger stretch.
        let spec = PlatformSpec::builder()
            .edges(vec![0.1])
            .cloud_pool(1)
            .build();
        let jobs = vec![
            Job::new(EdgeId(0), 0.0, 3.0, 1.0, 0.0),
            Job::new(EdgeId(0), 0.0, 3.0, 1.0, 0.0),
        ];
        let inst = Instance::new(spec, jobs).unwrap();
        let out = Simulation::of(&inst)
            .policy(&mut SsfEdf::new())
            .run()
            .unwrap();
        assert!(validate(&inst, &out.schedule).is_ok());
        assert!(out.schedule.all_finished());
    }

    #[test]
    fn intro_example_short_first() {
        let spec = PlatformSpec::builder()
            .edges(vec![1.0])
            .cloud_pool(0)
            .build();
        let jobs = vec![
            Job::new(EdgeId(0), 0.0, 10.0, 0.0, 0.0),
            Job::new(EdgeId(0), 0.0, 1.0, 0.0, 0.0),
        ];
        let inst = Instance::new(spec, jobs).unwrap();
        let out = Simulation::of(&inst)
            .policy(&mut SsfEdf::new())
            .run()
            .unwrap();
        let ms = max_stretch(&inst, &out.schedule);
        assert!((ms - 1.1).abs() < 1e-2, "max stretch {ms}");
    }

    #[test]
    fn figure1_instance_reasonable_stretch() {
        // The optimal max-stretch of the Figure 1 instance is 3/2; SSF-EDF
        // should land reasonably close (it is a heuristic).
        let inst = figure1_instance();
        let out = Simulation::of(&inst)
            .policy(&mut SsfEdf::new())
            .run()
            .unwrap();
        assert!(validate(&inst, &out.schedule).is_ok());
        let ms = max_stretch(&inst, &out.schedule);
        assert!(ms < 2.5, "max stretch {ms}");
    }

    #[test]
    fn balances_over_cloud_processors() {
        // Four identical cloud-friendly jobs from different edges, two
        // clouds: the plan must spread them.
        let spec = PlatformSpec::builder()
            .edges(vec![0.05; 4])
            .cloud_pool(2)
            .build();
        let jobs: Vec<_> = (0..4)
            .map(|i| Job::new(EdgeId(i), 0.0, 4.0, 0.5, 0.5))
            .collect();
        let inst = Instance::new(spec, jobs).unwrap();
        let out = Simulation::of(&inst)
            .policy(&mut SsfEdf::new())
            .run()
            .unwrap();
        assert!(validate(&inst, &out.schedule).is_ok());
        let on_cloud0 = out
            .schedule
            .alloc
            .iter()
            .filter(|a| **a == Some(Target::Cloud(CloudId(0))))
            .count();
        let on_cloud1 = out
            .schedule
            .alloc
            .iter()
            .filter(|a| **a == Some(Target::Cloud(CloudId(1))))
            .count();
        assert_eq!(on_cloud0 + on_cloud1, 4, "all jobs offloaded");
        assert_eq!(on_cloud0, 2);
        assert_eq!(on_cloud1, 2);
    }

    #[test]
    fn online_stream_keeps_stretch_bounded() {
        // Staggered stream: SSF-EDF keeps the max-stretch modest.
        let spec = PlatformSpec::builder()
            .edges(vec![0.5, 0.5])
            .cloud_pool(2)
            .build();
        let mut jobs = Vec::new();
        for i in 0..12 {
            jobs.push(Job::new(
                EdgeId(i % 2),
                i as f64 * 1.5,
                2.0 + (i % 3) as f64,
                0.5,
                0.5,
            ));
        }
        let inst = Instance::new(spec, jobs).unwrap();
        let out = Simulation::of(&inst)
            .policy(&mut SsfEdf::new())
            .run()
            .unwrap();
        assert!(validate(&inst, &out.schedule).is_ok());
        let report = StretchReport::new(&inst, &out.schedule);
        assert!(
            report.max_stretch < 3.0,
            "max stretch {}",
            report.max_stretch
        );
    }

    #[test]
    fn alpha_ablation_runs() {
        let spec = PlatformSpec::builder()
            .edges(vec![0.5])
            .cloud_pool(1)
            .build();
        let jobs = vec![
            Job::new(EdgeId(0), 0.0, 2.0, 0.5, 0.5),
            Job::new(EdgeId(0), 1.0, 1.0, 0.5, 0.5),
        ];
        let inst = Instance::new(spec, jobs).unwrap();
        for alpha in [0.5, 1.0, 2.0] {
            let mut pol = SsfEdf::with_params(alpha, 1e-3);
            let out = Simulation::of(&inst).policy(&mut pol).run().unwrap();
            assert!(validate(&inst, &out.schedule).is_ok(), "alpha {alpha}");
        }
        assert_eq!(SsfEdf::with_params(2.0, 1e-3).name(), "ssf-edf(a=2)");
    }

    #[test]
    fn is_deterministic() {
        let inst = figure1_instance();
        let a = Simulation::of(&inst)
            .policy(&mut SsfEdf::new())
            .run()
            .unwrap();
        let b = Simulation::of(&inst)
            .policy(&mut SsfEdf::new())
            .run()
            .unwrap();
        assert_eq!(a.schedule, b.schedule);
    }

    #[test]
    fn hysteresis_switches_only_when_gain_exceeds_sunk_progress() {
        let spec = PlatformSpec::builder()
            .edges(vec![0.01])
            .cloud_pool(2)
            .build();
        // Job: work 4, up 1, dn 1; committed to cloud 0 with its uplink
        // done (sunk = 1), except where a case overrides `up_done`.
        let job = Job::new(EdgeId(0), 0.0, 4.0, 1.0, 1.0);
        let inst = Instance::new(spec, vec![job]).unwrap();
        let state_with_up_done = |up_done: f64| JobState {
            released: true,
            committed: Some(Target::Cloud(CloudId(0))),
            up_done,
            ..JobState::default()
        };
        // Both the reference choice and the class scan, after a phantom
        // booking occupies cloud 0's CPU for `busy` seconds.
        let choices = |up_done: f64, busy: f64| -> (Target, Target) {
            let states = vec![state_with_up_done(up_done)];
            let arena = JobArena::from_states(&inst, &states);
            let pending = PendingSet::from_states(&inst, &states);
            let view = SimView::new(&inst, Time::new(10.0), &arena, &pending);
            let phantom = Job::new(EdgeId(0), 0.0, busy, 0.0, 0.0);
            let fresh = JobState {
                released: true,
                ..JobState::default()
            };
            let cloud0 = Target::Cloud(CloudId(0));
            let mut proj = Projection::from_view(&view);
            proj.place(&phantom, &fresh, cloud0, view.spec(), view.now);
            let reference = choose_target(&proj, &view, JobId(0), view.spec());
            let mut placer = Placer::new(&view);
            placer.begin_pass(view.now);
            placer.place(view.spec(), &phantom, &fresh, cloud0, view.now);
            let st = view.state(JobId(0));
            let (scanned, _) =
                placer.choose_target(&view, view.job(JobId(0)), &st, &mut Work::default());
            (reference, scanned)
        };

        // Case 1: cloud 0 lightly queued (2 seconds) — continuation
        // projects 2 + 5 = 7 from now; switching to idle cloud 1 projects
        // 6, a gain of 1 which does NOT exceed... it must beat
        // (projected − sunk) = 7 − 1 = 6 strictly: 6 ≥ 6 → stay.
        let stay = Target::Cloud(CloudId(0));
        assert_eq!(
            choices(1.0, 2.0),
            (stay, stay),
            "small gain must not switch"
        );
        // Case 2: cloud 0 deeply queued (10 seconds) — continuation
        // projects 15, bar = 14; fresh cloud 1 projects 6 < 14 → switch.
        let switch = Target::Cloud(CloudId(1));
        assert_eq!(
            choices(1.0, 10.0),
            (switch, switch),
            "large gain must switch"
        );
        // Case 3: no progress — free to pick the projected best.
        assert_eq!(choices(0.0, 3.0), (switch, switch));
    }

    /// The scanned and the reference choice for one fresh job on an
    /// idle platform, with the scan's work.
    fn choose_fresh(spec: PlatformSpec, job: Job) -> (Target, Target, Work) {
        let inst = Instance::new(spec, vec![job]).unwrap();
        let states = vec![JobState {
            released: true,
            ..JobState::default()
        }];
        let arena = JobArena::from_states(&inst, &states);
        let pending = PendingSet::from_states(&inst, &states);
        let view = SimView::new(&inst, Time::new(1.0), &arena, &pending);
        let reference = choose_target(&Projection::from_view(&view), &view, JobId(0), view.spec());
        let mut placer = Placer::new(&view);
        placer.begin_pass(view.now);
        let mut work = Work::default();
        let st = view.state(JobId(0));
        let (scanned, f) = placer.choose_target(&view, view.job(JobId(0)), &st, &mut work);
        let own = placer
            .proj
            .forecast(view.job(JobId(0)), &st, scanned, view.spec(), view.now);
        assert_eq!(f, Some(own), "the returned forecast is the winner's");
        (reference, scanned, work)
    }

    #[test]
    fn prune_skips_every_class_behind_a_fast_edge() {
        // Edge: 1 / 10 = 0.1. Every cloud class needs at least the
        // 1 + 1 transfer, so no cloud is forecast at all.
        let spec = PlatformSpec::builder()
            .edges(vec![10.0])
            .tier(1.0, 1.0)
            .clouds([1.0, 2.0, 1.0])
            .tier(2.0, 2.0)
            .cloud(4.0)
            .build();
        let classes = CloudClasses::of(&spec).len() as u64;
        let job = Job::new(EdgeId(0), 0.0, 1.0, 1.0, 1.0);
        let (reference, scanned, work) = choose_fresh(spec, job);
        assert_eq!((reference, scanned), (Target::Edge, Target::Edge));
        assert_eq!(work.cloud_forecasts, 0, "{work:?}");
        assert_eq!(work.classes_pruned, classes, "{work:?}");
    }

    #[test]
    fn prune_keeps_a_class_that_can_win() {
        // Edge: 4 / 0.8 = 5. The speed-0.5 class needs 0.5 + 8 + 0.5 = 9
        // and is skipped; the speed-2 class needs 3 and wins.
        let spec = PlatformSpec::builder()
            .edges(vec![0.8])
            .clouds([0.5, 2.0, 0.5, 2.0])
            .build();
        let job = Job::new(EdgeId(0), 0.0, 4.0, 0.5, 0.5);
        let (reference, scanned, work) = choose_fresh(spec, job);
        let fast = Target::Cloud(CloudId(1));
        assert_eq!((reference, scanned), (fast, fast));
        assert_eq!(work.classes_pruned, 1, "{work:?}");
        assert_eq!(work.cloud_forecasts, 1, "{work:?}");
    }

    #[test]
    fn best_duration_skips_removed_clouds() {
        let spec = PlatformSpec::builder()
            .edges(vec![0.5])
            .cloud_pool(2)
            .build();
        // min_time = min(4/0.5, 2+4+1) = min(8, 7) = 7.
        let job = Job::new(EdgeId(0), 1.0, 4.0, 2.0, 1.0);
        let inst = Instance::new(spec, vec![job]).unwrap();
        let states = vec![JobState {
            released: true,
            ..JobState::default()
        }];
        let arena = JobArena::from_states(&inst, &states);
        let pending = PendingSet::from_states(&inst, &states);
        let mut platform = PlatformState::new(inst.spec.clone());
        let both = |platform: &PlatformState| {
            let view = SimView::new(&inst, Time::ZERO, &arena, &pending).with_platform(platform);
            let rp = Replanner::new(&view);
            (
                best_duration(&view, JobId(0)),
                rp.best_duration(&view, JobId(0)),
            )
        };
        // Fresh on the speed-4 cloud: 2 + 1 + 1 = 4.
        let fast = platform.add_cloud(4.0).unwrap();
        assert_eq!(both(&platform), (4.0, 4.0));
        // Removed, it no longer bounds the job: back to the pool's 7.
        platform.remove_cloud(fast).unwrap();
        assert_eq!(both(&platform), (7.0, 7.0));
    }

    #[test]
    fn memo_reuses_a_repeated_order_without_placing() {
        // Three identical jobs released together on one cloud: no
        // stretch below 3 is feasible, so the search probes several
        // stretches, yet every stretch sorts them by id alone — one
        // placement pass serves every probe.
        let spec = PlatformSpec::builder()
            .edges(vec![0.1])
            .cloud_pool(1)
            .build();
        let jobs = vec![Job::new(EdgeId(0), 0.0, 2.0, 0.5, 0.5); 3];
        let inst = Instance::new(spec, jobs).unwrap();
        let mut policy = SsfEdf::new();
        Simulation::of(&inst).policy(&mut policy).run().unwrap();
        let w = policy.work;
        assert!(w.probes > 1, "{w:?}");
        assert_eq!(w.probes, w.memo_hits + w.placements, "{w:?}");
        assert_eq!(w.placements, 1, "{w:?}");
    }

    /// A tiered Kang instance under the uniform exponential fault plan:
    /// Kang's edges and clouds, the clouds placed round-robin over a
    /// 3-hop tier graph with hop factors (1, 1), (1.5, 2), (2, 3).
    fn tiered_kang_with_faults(n: usize, seed: u64) -> (Instance, mmsec_platform::FaultPlan) {
        let flat = KangConfig {
            n,
            ..KangConfig::default()
        }
        .generate(seed);
        let spec = &flat.spec;
        let mut b = PlatformSpec::builder()
            .edges(spec.edges().map(|j| spec.edge_speed(j)))
            .tier(1.0, 1.0)
            .tier(1.5, 2.0)
            .tier(2.0, 3.0);
        for (i, k) in spec.clouds().enumerate() {
            b = b.cloud_at(spec.cloud_speed(k), 1 + i % 3);
        }
        let inst = Instance::new(b.build(), flat.jobs.clone()).unwrap();
        let volume: f64 = inst.jobs.iter().map(|j| j.up + j.work + j.dn).sum();
        let last_release = inst
            .jobs
            .iter()
            .map(|j| j.release.seconds())
            .fold(0.0f64, f64::max);
        let horizon = Time::new(last_release + 8.0 * volume / inst.spec.total_speed());
        let plan = FaultConfig::uniform_exponential(
            inst.spec.num_edge(),
            inst.spec.num_cloud(),
            20_000.0,
            20.0,
        )
        .compile(seed, horizon);
        (inst, plan)
    }

    #[test]
    fn probe_shortcuts_cut_placement_work() {
        // Deterministic work gate on one benchmark-shaped instance:
        // tiered Kang, n = 2000, seeded faults. Most probes of a replan
        // repeat an EDF order an earlier probe placed; the class bound
        // skips nearly every cloud class, since the committed target or
        // the edge almost always wins.
        let (inst, plan) = tiered_kang_with_faults(2000, 11);
        let mut policy = SsfEdf::new();
        let out = Simulation::of(&inst)
            .policy(&mut policy)
            .faults(&plan)
            .run()
            .unwrap();
        assert!(out.schedule.all_finished());
        assert!(validate(&inst, &out.schedule).is_ok());
        let w = policy.work;
        assert_eq!(w.probes, w.memo_hits + w.placements, "{w:?}");
        assert!(
            10 * w.placements <= 4 * w.probes,
            "placement passes above 40% of probes: {w:?}"
        );
        // Measured: 248 cloud forecasts for 16,273 placed jobs (0.0152
        // per job; a full scan of the 10 clouds would be 162,730), with
        // 48,777 classes skipped by their bound. The gate allows 10%.
        assert!(w.classes_pruned > 0, "{w:?}");
        assert!(
            10_000 * w.cloud_forecasts <= 168 * w.jobs_placed,
            "cloud forecasts above 0.0168 per placed job: {w:?}"
        );
    }

    #[test]
    fn policy_reused_across_platforms_matches_fresh_policy() {
        // Both instances are static (platform version 0), so only
        // `on_start` can tell the policy its platform-sized scratch is
        // stale: different cloud counts, tier depths and speeds.
        let two_tier = {
            let spec = PlatformSpec::builder()
                .edges(vec![0.3, 0.6])
                .tier(1.0, 1.0)
                .clouds([1.0, 2.0])
                .tier(1.5, 2.0)
                .cloud(1.0)
                .build();
            let jobs = (0..24)
                .map(|i| {
                    let w = 1.0 + (i % 5) as f64;
                    Job::new(EdgeId(i % 2), 0.4 * i as f64, w, 0.3, 0.2)
                })
                .collect();
            Instance::new(spec, jobs).unwrap()
        };
        let flat = {
            let spec = PlatformSpec::builder()
                .edges(vec![0.5, 0.2, 0.4])
                .clouds([1.0, 1.0, 1.5, 1.0, 1.5, 1.0])
                .build();
            let jobs = (0..30)
                .map(|i| {
                    let w = 0.5 + (i % 7) as f64;
                    Job::new(EdgeId(i % 3), 0.25 * i as f64, w, 0.6, 0.4)
                })
                .collect();
            Instance::new(spec, jobs).unwrap()
        };
        let run = |policy: &mut SsfEdf, inst: &Instance| {
            Simulation::of(inst).policy(policy).run().unwrap().schedule
        };
        let mut reused = SsfEdf::new();
        for inst in [&two_tier, &flat, &two_tier, &flat] {
            let fresh = run(&mut SsfEdf::new(), inst);
            assert_eq!(run(&mut reused, inst), fresh);
        }
    }

    mod reference {
        use super::*;
        use mmsec_platform::Availability;
        use proptest::prelude::*;

        /// A platform with heterogeneous cloud speeds (repeats form
        /// classes), flat or on a 1–3 hop tier graph.
        fn spec_of(speed_picks: &[usize], depth: usize, hops: &[(f64, f64)]) -> PlatformSpec {
            let speeds = speed_picks.iter().map(|&p| [0.5, 1.0, 2.0][p % 3]);
            let b = PlatformSpec::builder().edges(vec![1.0, 0.5]);
            if depth == 0 {
                return b.clouds(speeds).build();
            }
            let mut b = hops[..depth].iter().fold(b, |b, &(up, dn)| b.tier(up, dn));
            for (i, s) in speeds.enumerate() {
                // Tier from the pick too, so one speed lands on several
                // tiers (same speed, different class).
                b = b.cloud_at(s, 1 + (i + speed_picks[i] / 3) % depth);
            }
            b.build()
        }

        fn run(
            inst: &Instance,
            policy: &mut dyn OnlineScheduler,
            faults: Option<(f64, f64, u64)>,
        ) -> RunOutcome {
            let plan = faults.map(|(mtbf, mttr, seed)| {
                FaultConfig::uniform_exponential(
                    inst.spec.num_edge(),
                    inst.spec.num_cloud(),
                    mtbf,
                    mttr,
                )
                .compile(seed, Time::new(1e5))
            });
            let mut sim = Simulation::of(inst)
                .policy(policy)
                .options(EngineOptions::default());
            if let Some(plan) = &plan {
                sim = sim.faults(plan);
            }
            sim.run().expect("ssf-edf completes")
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Memoized, class-scanned probes equal the reference probe
            /// bit for bit — feasibility, and the plan's targets and
            /// deadlines — over heterogeneous speeds, 1–3 tier paths,
            /// every committed/progress state and down units. Stretches
            /// repeat (and nearby stretches sort alike), so the memo
            /// serves many of the probes; a second replan at a later
            /// instant must not see the first one's placements.
            #[test]
            fn memoized_probes_match_reference(
                speed_picks in proptest::collection::vec(0usize..9, 1..8),
                depth in 0usize..4,
                hops in proptest::collection::vec((0.5f64..3.0, 0.5f64..3.0), 3),
                job_descs in proptest::collection::vec(
                    (0.0f64..4.0, 0.5f64..8.0, 0.0f64..3.0, 0.0f64..3.0, 0u8..2, 0u8..4),
                    1..12,
                ),
                down in proptest::collection::vec(any::<bool>(), 10),
                pool in proptest::collection::vec(1.0f64..8.0, 4),
                picks in proptest::collection::vec(0usize..4, 1..16),
                now in 4.0f64..6.0,
            ) {
                let spec = spec_of(&speed_picks, depth, &hops);
                let num_cloud = spec.num_cloud();
                let jobs: Vec<Job> = job_descs
                    .iter()
                    .map(|&(rel, work, up, dn, origin, _)| {
                        Job::new(EdgeId(origin as usize), rel, work, up, dn)
                    })
                    .collect();
                let inst = Instance::new(spec, jobs).unwrap();
                let mut states = vec![JobState::default(); inst.num_jobs()];
                for (i, (st, &(_, work, up, _, _, kind))) in
                    states.iter_mut().zip(job_descs.iter()).enumerate()
                {
                    st.released = true;
                    match kind {
                        1 => {
                            st.committed = Some(Target::Edge);
                            st.work_done = 0.5 * work;
                        }
                        2 => {
                            st.committed = Some(Target::Cloud(CloudId(i % num_cloud)));
                            st.up_done = 0.5 * up;
                        }
                        3 => {
                            st.committed = Some(Target::Cloud(CloudId(i % num_cloud)));
                            st.up_done = up;
                            st.work_done = 0.25 * work;
                        }
                        _ => {}
                    }
                }
                let mut avail = Availability::all_up(2, num_cloud);
                for (up, d) in avail.cloud_up.iter_mut().zip(down.iter()) {
                    *up = !d;
                }
                avail.edge_up[0] = !down[8];
                avail.edge_up[1] = !down[9];
                let arena = JobArena::from_states(&inst, &states);
                let pending = PendingSet::from_states(&inst, &states);
                let stretches: Vec<f64> = picks.iter().map(|&p| pool[p]).collect();
                let repeats = stretches.len()
                    - picks.iter().collect::<std::collections::BTreeSet<_>>().len();
                let mut rp: Option<Replanner> = None;
                for at in [now, now + 1.5] {
                    let view = SimView::new(&inst, Time::new(at), &arena, &pending)
                        .with_availability(&avail);
                    let rp = rp.get_or_insert_with(|| Replanner::new(&view));
                    rp.begin(&view);
                    let mut work = Work::default();
                    for &s in &stretches {
                        let probe = rp.probe(&view, s, &mut work);
                        let (feasible, plan) = try_stretch(&view, s);
                        prop_assert_eq!(probe.feasible, feasible, "feasibility at s = {}", s);
                        prop_assert_eq!(plan_of(rp, &view, &probe), plan, "plan at s = {}", s);
                    }
                    prop_assert!(work.memo_hits as usize >= repeats, "{:?}", work);
                    prop_assert_eq!(work.probes, work.memo_hits + work.placements);
                }
            }

            /// The per-class lower bound equals the reference fold over
            /// every live cloud bit for bit: flat and 1–3 tier specs,
            /// clouds removed through the platform runtime, and jobs
            /// committed with progress to the edge or to a cloud (a
            /// removed one included).
            #[test]
            fn class_lower_bound_matches_reference(
                speed_picks in proptest::collection::vec(0usize..9, 1..8),
                depth in 0usize..4,
                hops in proptest::collection::vec((0.5f64..3.0, 0.5f64..3.0), 3),
                job_descs in proptest::collection::vec(
                    (0.0f64..4.0, 0.5f64..8.0, 0.0f64..3.0, 0.0f64..3.0, 0u8..2, 0u8..4),
                    1..12,
                ),
                removed in proptest::collection::vec(any::<bool>(), 8),
                now in 4.0f64..6.0,
            ) {
                let spec = spec_of(&speed_picks, depth, &hops);
                let num_cloud = spec.num_cloud();
                let jobs: Vec<Job> = job_descs
                    .iter()
                    .map(|&(rel, work, up, dn, origin, _)| {
                        Job::new(EdgeId(origin as usize), rel, work, up, dn)
                    })
                    .collect();
                let inst = Instance::new(spec, jobs).unwrap();
                let mut platform = PlatformState::new(inst.spec.clone());
                for k in (0..num_cloud).filter(|&k| removed[k]) {
                    platform.remove_cloud(CloudId(k)).unwrap();
                }
                let mut states = vec![JobState::default(); inst.num_jobs()];
                for (i, (st, &(_, work, up, dn, _, kind))) in
                    states.iter_mut().zip(job_descs.iter()).enumerate()
                {
                    st.released = true;
                    match kind {
                        1 => {
                            st.committed = Some(Target::Edge);
                            st.work_done = 0.5 * work;
                        }
                        2 => {
                            st.committed = Some(Target::Cloud(CloudId(i % num_cloud)));
                            st.up_done = up;
                            st.work_done = 0.25 * work;
                        }
                        3 => {
                            st.committed = Some(Target::Cloud(CloudId(i % num_cloud)));
                            st.up_done = up;
                            st.work_done = work;
                            st.dn_done = 0.5 * dn;
                        }
                        _ => {}
                    }
                }
                let arena = JobArena::from_states(&inst, &states);
                let pending = PendingSet::from_states(&inst, &states);
                let view = SimView::new(&inst, Time::new(now), &arena, &pending)
                    .with_platform(&platform);
                let mut rp = Replanner::new(&view);
                rp.begin(&view);
                let mut lo = 1.0f64;
                for id in view.pending_jobs() {
                    prop_assert_eq!(
                        rp.best_duration(&view, id).to_bits(),
                        best_duration(&view, id).to_bits(),
                        "{:?}", id
                    );
                    lo = lo.max(forced_stretch(&view, id));
                }
                prop_assert_eq!(rp.lower_bound(&view).to_bits(), lo.to_bits());
            }

            /// End to end: the production policy and the reference
            /// policy give the same schedule over Kang and Random-CCR
            /// instances, flat or re-homed on a tier graph, with and
            /// without fault plans, at α = 1 and α ≠ 1.
            #[test]
            fn memoized_policy_matches_naive(
                kang in any::<bool>(),
                n in 2usize..30,
                seed in 0u64..1000,
                num_cloud in 1usize..6,
                depth in 0usize..4,
                hops in proptest::collection::vec((0.5f64..3.0, 0.5f64..3.0), 3),
                faults in prop_oneof![
                    2 => Just(None),
                    3 => (20.0f64..200.0, 1.0f64..10.0, 0u64..1000).prop_map(Some),
                ],
                alpha in prop_oneof![3 => Just(1.0f64), 1 => Just(1.5f64)],
            ) {
                let inst = if kang {
                    KangConfig { num_edge: 4, num_cloud, n, ..KangConfig::default() }
                        .generate(seed)
                } else {
                    RandomCcrConfig {
                        n,
                        num_cloud,
                        slow_edges: 2,
                        fast_edges: 2,
                        ..RandomCcrConfig::default()
                    }
                    .generate(seed)
                };
                let inst = if depth == 0 {
                    inst
                } else {
                    let spec = &inst.spec;
                    let b = PlatformSpec::builder()
                        .edges(spec.edges().map(|j| spec.edge_speed(j)));
                    let mut b = hops[..depth].iter().fold(b, |b, &(up, dn)| b.tier(up, dn));
                    for (i, k) in spec.clouds().enumerate() {
                        b = b.cloud_at(spec.cloud_speed(k), 1 + i % depth);
                    }
                    Instance::new(b.build(), inst.jobs.clone()).unwrap()
                };
                let fast = run(&inst, &mut SsfEdf::with_params(alpha, 1e-3), faults);
                let naive = run(&inst, &mut SsfEdfNaive::new(alpha), faults);
                prop_assert_eq!(&fast.schedule, &naive.schedule);
                prop_assert_eq!(fast.stats.restarts, naive.stats.restarts);
            }
        }
    }
}
