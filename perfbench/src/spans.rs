//! In-memory span recording for the traced pass, and the delegating
//! policy wrapper that times every `decide` call.
//!
//! A span has a name, a start, an end, a parent, and a key (the instance
//! index or stream line it belongs to). Spans stay in memory while the
//! benchmark runs and are written out once at the end. A span's self time
//! is its duration minus the part of it its children cover.

use mmsec_platform::engine::{DecisionCadence, OnlineScheduler};
use mmsec_platform::{DirectiveBuffer, Instance, ObserverHandle, SimView};
use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of a recorded span.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SpanId(u32);

#[derive(Clone, Copy, Debug)]
struct Span {
    name: &'static str,
    parent: Option<SpanId>,
    key: u32,
    start_ns: u64,
    end_ns: u64,
}

/// The span store of one traced pass.
pub struct Spans {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Spans {
    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Records a finished span.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        key: u32,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let id = SpanId(self.spans.len() as u32);
        self.spans.push(Span {
            name,
            parent,
            key,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
        id
    }

    /// Opens a span now; [`Spans::close`] sets its end.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, key: u32) -> SpanId {
        let now = Instant::now();
        self.record(name, parent, key, now, now)
    }

    pub fn close(&mut self, id: SpanId) {
        let end = self.ns(Instant::now());
        self.spans[id.0 as usize].end_ns = end;
    }

    /// Times `f` as a span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        key: u32,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, key);
        let out = f();
        self.close(id);
        out
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Self time of every span, in ns: its duration minus the part of
    /// its interval that its children cover.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                let ps = &self.spans[p.0 as usize];
                let lo = s.start_ns.max(ps.start_ns);
                let hi = s.end_ns.min(ps.end_ns);
                covered[p.0 as usize] += hi.saturating_sub(lo);
            }
        }
        self.spans
            .iter()
            .zip(covered)
            .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(c))
            .collect()
    }

    /// Self time (ms) summed per `(name, key)`.
    pub fn self_ms_table(&self) -> HashMap<(&'static str, u32), f64> {
        let mut out = HashMap::new();
        for (s, ns) in self.spans.iter().zip(self.self_ns()) {
            *out.entry((s.name, s.key)).or_insert(0.0) += ns as f64 / 1e6;
        }
        out
    }

    /// Durations (ms) of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect()
    }

    /// Writes every span as CSV: `id,parent,name,key,start_ns,end_ns,self_ns`.
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        let own = self.self_ns();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id,parent,name,key,start_ns,end_ns,self_ns")?;
        for (i, (s, own)) in self.spans.iter().zip(own).enumerate() {
            let parent = s.parent.map(|p| p.0 as i64).unwrap_or(-1);
            writeln!(
                out,
                "{i},{parent},{},{},{},{},{own}",
                s.name, s.key, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Delegates to a policy and records each `decide` call as a
/// `core.decide` span under `parent`. `cadence`, `on_start` and
/// `attach_observer` are forwarded unchanged, so decision gating and the
/// resulting schedule are exactly those of the bare policy.
pub struct TimedPolicy<'a> {
    pub inner: &'a mut dyn OnlineScheduler,
    pub spans: &'a mut Spans,
    pub parent: Option<SpanId>,
    pub key: u32,
}

impl OnlineScheduler for TimedPolicy<'_> {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn cadence(&self) -> DecisionCadence {
        self.inner.cadence()
    }

    fn on_start(&mut self, instance: &Instance) {
        self.inner.on_start(instance);
    }

    fn decide(&mut self, view: &SimView<'_>, out: &mut DirectiveBuffer) {
        let start = Instant::now();
        self.inner.decide(view, out);
        let end = Instant::now();
        self.spans
            .record("core.decide", self.parent, self.key, start, end);
    }

    fn attach_observer(&mut self, observer: ObserverHandle) {
        self.inner.attach_observer(observer);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children() {
        let mut s = Spans::default();
        let t0 = s.epoch;
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let root = s.record("root", None, 0, at(0), at(10));
        s.record("child", Some(root), 0, at(1), at(3));
        let c2 = s.record("child", Some(root), 0, at(4), at(8));
        s.record("grandchild", Some(c2), 0, at(5), at(6));
        let own = s.self_ns();
        assert_eq!(own[0], 4_000_000);
        assert_eq!(own[1], 2_000_000);
        assert_eq!(own[2], 3_000_000);
        assert_eq!(own[3], 1_000_000);
        assert_eq!(s.self_ms_table()[&("child", 0)], 5.0);
        assert_eq!(s.durations_ms("child"), vec![2.0, 4.0]);
    }

    #[test]
    fn timed_policy_keeps_the_schedule() {
        use mmsec_core::PolicyKind;
        use mmsec_platform::{max_stretch, Simulation};
        let inst = mmsec_workload::RandomCcrConfig {
            n: 300,
            ..Default::default()
        }
        .generate(5);
        for kind in [PolicyKind::Srpt, PolicyKind::SsfEdf] {
            let mut bare = kind.build(0);
            let a = Simulation::of(&inst).policy(bare.as_mut()).run().unwrap();
            let mut inner = kind.build(0);
            let mut spans = Spans::default();
            let mut timed = TimedPolicy {
                inner: inner.as_mut(),
                spans: &mut spans,
                parent: None,
                key: 0,
            };
            let b = Simulation::of(&inst).policy(&mut timed).run().unwrap();
            assert_eq!(a.schedule, b.schedule, "{kind:?}");
            assert_eq!(a.stats.decides, b.stats.decides);
            assert_eq!(spans.len() as u64, b.stats.decides);
            let ms = max_stretch(&inst, &a.schedule);
            assert_eq!(ms.to_bits(), max_stretch(&inst, &b.schedule).to_bits());
        }
    }
}
