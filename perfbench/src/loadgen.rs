//! The open-loop load generator and the checks on what comes back.
//!
//! One paced writer thread sends each line when it is due, whatever the
//! server is doing; the calling thread reads the replies. A request's
//! latency runs from its *due* time to the arrival of its reply, so a
//! stall that makes the writer late is charged to every request queued
//! behind it, and the writer's own lateness is reported next to it.

use crate::reply::Record;
use std::collections::{BTreeMap, HashMap};
use std::io::{BufRead, BufReader, Read, Write};
use std::time::{Duration, Instant};

/// What a stream line asks for, and so which reply it expects.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReqKind {
    Spec,
    Job,
    Platform,
}

/// The lines of one connection with their due times.
pub struct Plan {
    bytes: Vec<u8>,
    ends: Vec<usize>,
    due_ns: Vec<u64>,
    tenant: Vec<u16>,
    kind: Vec<ReqKind>,
    /// Per tenant, the request indices in stream order (index 0 is the
    /// tenant's spec line, index k its k-th line after that).
    by_tenant: Vec<Vec<u32>>,
    /// Per tenant, the virtual time from which a completion may report a
    /// stretch below 1: that of its first platform record able to
    /// undercut the stretch denominator (infinite when it sends none).
    undercut_from: Vec<f64>,
}

impl Plan {
    /// `lines` are `(text, tenant, kind)`; `due_s` gives each line's due
    /// time in seconds from the start; `undercut_from` each tenant's
    /// virtual time from which a stretch below 1 is allowed.
    pub fn new<'a>(
        lines: impl IntoIterator<Item = (&'a str, usize, ReqKind)>,
        due_s: &[f64],
        undercut_from: Vec<f64>,
    ) -> Plan {
        let mut plan = Plan {
            bytes: Vec::new(),
            ends: Vec::new(),
            due_ns: Vec::new(),
            tenant: Vec::new(),
            kind: Vec::new(),
            by_tenant: vec![Vec::new(); undercut_from.len()],
            undercut_from,
        };
        for (i, (text, tenant, kind)) in lines.into_iter().enumerate() {
            plan.bytes.extend_from_slice(text.as_bytes());
            plan.bytes.push(b'\n');
            plan.ends.push(plan.bytes.len());
            plan.due_ns.push((due_s[i] * 1e9) as u64);
            plan.tenant.push(tenant as u16);
            plan.kind.push(kind);
            plan.by_tenant[tenant].push(i as u32);
        }
        plan
    }

    pub fn len(&self) -> usize {
        self.ends.len()
    }

    fn line(&self, i: usize) -> &[u8] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.bytes[start..self.ends[i]]
    }

    /// The same lines, all due at once (an unpaced burst).
    pub fn unpaced(&self) -> Plan {
        Plan {
            bytes: self.bytes.clone(),
            ends: self.ends.clone(),
            due_ns: vec![0; self.len()],
            tenant: self.tenant.clone(),
            kind: self.kind.clone(),
            by_tenant: self.by_tenant.clone(),
            undercut_from: self.undercut_from.clone(),
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Admit,
    Shed,
    Reject,
    PlatformOk,
    SpecOk,
    Completion,
    Summary,
    ServerSummary,
    Error,
    Other,
}

/// One record read back, reduced to what the checks need.
pub struct Reply {
    pub at_ns: u64,
    pub kind: Kind,
    /// Tenant index (`tNN`), or `None` for untagged records.
    pub tenant: Option<u16>,
    pub line: Option<u32>,
    pub job: Option<u32>,
    /// `stretch` of a completion.
    pub stretch: f64,
    /// Virtual completion time of a completion.
    pub completion: f64,
    /// `code` of a reject, `reason` of a shed.
    pub code: Option<String>,
    /// Count fields of `summary`/`server-summary` records.
    pub counts: [usize; 5],
}

const COUNT_FIELDS: [&str; 5] = ["lines", "admitted", "shed", "rejected", "completed"];

fn tenant_index(name: &str) -> Option<u16> {
    name.strip_prefix('t')?.parse().ok()
}

fn reply(at_ns: u64, line: &str) -> Result<Reply, String> {
    let r = Record::parse(line)?;
    let kind = match r.str("type").unwrap_or("") {
        "admit" => Kind::Admit,
        "shed" => Kind::Shed,
        "reject" => Kind::Reject,
        "platform-ok" => Kind::PlatformOk,
        "spec-ok" => Kind::SpecOk,
        "completion" => Kind::Completion,
        "summary" => Kind::Summary,
        "server-summary" => Kind::ServerSummary,
        "error" => Kind::Error,
        _ => Kind::Other,
    };
    let mut counts = [0; 5];
    if matches!(kind, Kind::Summary | Kind::ServerSummary) {
        for (c, f) in counts.iter_mut().zip(COUNT_FIELDS) {
            *c = r.num(f).ok_or_else(|| format!("{f} missing in {line}"))? as usize;
        }
    }
    Ok(Reply {
        at_ns,
        kind,
        tenant: r.str("tenant").and_then(tenant_index),
        line: r.num("line").map(|x| x as u32),
        job: r.num("job").map(|x| x as u32),
        stretch: r.num("stretch").unwrap_or(f64::NAN),
        completion: r.num("completion").unwrap_or(f64::NAN),
        code: r
            .str("code")
            .or_else(|| r.str("reason"))
            .map(str::to_string),
        counts,
    })
}

/// What one connection observed.
pub struct Observed {
    /// When each line's write returned, ns from the start.
    pub sent_ns: Vec<u64>,
    pub replies: Vec<Reply>,
    /// Records that did not parse.
    pub garbled: Vec<String>,
}

/// Lines batched into one write when several are due at once.
const MAX_BATCH: usize = 256;

/// Sends `plan` on its schedule through `writer` (then hands it to
/// `close`, which must end the input side), while this thread reads every
/// record from `reader` until EOF.
pub fn drive<W, R>(
    plan: &Plan,
    mut writer: W,
    close: impl FnOnce(W) + Send,
    reader: R,
) -> std::io::Result<Observed>
where
    W: Write + Send,
    R: Read,
{
    // A short lead lets the reader start before the first line is due.
    let start = Instant::now() + Duration::from_millis(2);
    let since = move || Instant::now().saturating_duration_since(start).as_nanos() as u64;
    std::thread::scope(|s| {
        let sender = s.spawn(move || -> std::io::Result<Vec<u64>> {
            let n = plan.len();
            let mut sent = vec![0u64; n];
            let mut buf = Vec::with_capacity(64 * 1024);
            let mut i = 0;
            while i < n {
                let now = since();
                if plan.due_ns[i] > now {
                    std::thread::sleep(Duration::from_nanos(plan.due_ns[i] - now));
                    continue;
                }
                let first = i;
                buf.clear();
                while i < n && i - first < MAX_BATCH && plan.due_ns[i] <= now {
                    buf.extend_from_slice(plan.line(i));
                    i += 1;
                }
                writer.write_all(&buf)?;
                writer.flush()?;
                let done = since();
                sent[first..i].fill(done);
            }
            close(writer);
            Ok(sent)
        });

        let mut replies = Vec::with_capacity(plan.len() * 2);
        let mut garbled = Vec::new();
        let mut input = BufReader::with_capacity(64 * 1024, reader);
        let mut line = String::new();
        loop {
            line.clear();
            if input.read_line(&mut line)? == 0 {
                break;
            }
            let at = since();
            match reply(at, line.trim_end()) {
                Ok(r) => replies.push(r),
                Err(e) => garbled.push(e),
            }
        }
        let sent_ns = sender
            .join()
            .map_err(|_| std::io::Error::other("writer thread panicked"))??;
        Ok(Observed {
            sent_ns,
            replies,
            garbled,
        })
    })
}

/// One connection, judged.
#[derive(Debug, Default)]
pub struct Scored {
    pub requests: usize,
    /// Due-to-reply latency per request, ms; infinite for a request that
    /// failed (no reply, a duplicate, a shed, a reject, the wrong kind).
    pub latency_ms: Vec<f64>,
    /// How late the writer sent each request, ms.
    pub late_ms: Vec<f64>,
    pub failed: usize,
    pub problems: Vec<String>,
    pub shed: usize,
    pub rejected: BTreeMap<String, usize>,
    /// Completions reporting a stretch below 1 after a platform record
    /// able to undercut the stretch denominator (a removed cloud, a
    /// slower hop, a link faster than 1): allowed, and counted.
    pub below_one_undercut: usize,
    /// From the first due time to the last request's reply, ms.
    pub span_ms: f64,
}

impl Scored {
    fn problem(&mut self, what: String) {
        self.failed += 1;
        if self.problems.len() < 8 {
            self.problems.push(what);
        }
    }
}

/// Judges one connection: every line gets exactly one reply of the kind
/// it asks for, the summary counts add up, and every admitted job
/// completes exactly once, at a stated time, with a stretch of at least 1
/// (below 1 only after a record able to undercut the denominator).
pub fn score(plan: &Plan, obs: &Observed) -> Scored {
    let n = plan.len();
    let mut sc = Scored {
        requests: n,
        latency_ms: vec![f64::INFINITY; n],
        late_ms: (0..n)
            .map(|i| obs.sent_ns[i].saturating_sub(plan.due_ns[i]) as f64 / 1e6)
            .collect(),
        ..Scored::default()
    };
    for g in &obs.garbled {
        sc.problem(format!("unparseable record: {g}"));
    }
    let mut answers = vec![0u32; n];
    let mut ok = vec![false; n];
    let mut last_reply = 0u64;
    let mut admitted: HashMap<(u16, u32), u32> = HashMap::new();
    let mut completions = Vec::new();
    let mut counted = [0usize; 5];
    let mut server_summaries = Vec::new();
    let mut tenant_summaries = 0;
    for r in &obs.replies {
        let request = match (r.kind, r.tenant) {
            (Kind::Admit | Kind::Shed | Kind::Reject | Kind::PlatformOk | Kind::SpecOk, t) => {
                let seq = match r.kind {
                    Kind::SpecOk => Some(0),
                    // A reject without a line number refused the spec.
                    Kind::Reject => Some(r.line.unwrap_or(0)),
                    _ => r.line,
                };
                let found = t.zip(seq).and_then(|(t, k)| {
                    plan.by_tenant
                        .get(t as usize)
                        .and_then(|v| v.get(k as usize))
                });
                match found {
                    Some(&i) => i as usize,
                    None => {
                        sc.problem(format!("{:?} record matches no request", r.kind));
                        continue;
                    }
                }
            }
            (Kind::Completion, Some(t)) => {
                completions.push((t, r.job.unwrap_or(u32::MAX), r.stretch, r.completion));
                continue;
            }
            (Kind::Summary, _) => {
                tenant_summaries += 1;
                continue;
            }
            (Kind::ServerSummary, _) => {
                server_summaries.push(r.counts);
                continue;
            }
            (Kind::Error, _) => {
                sc.problem("the server reported a lane error".to_string());
                continue;
            }
            _ => continue,
        };
        answers[request] += 1;
        if answers[request] > 1 {
            continue;
        }
        last_reply = last_reply.max(r.at_ns);
        let expected = match plan.kind[request] {
            ReqKind::Spec => Kind::SpecOk,
            ReqKind::Job => Kind::Admit,
            ReqKind::Platform => Kind::PlatformOk,
        };
        match r.kind {
            Kind::Admit => {
                counted[1] += 1;
                admitted.insert((plan.tenant[request], r.job.unwrap_or(u32::MAX)), 0);
            }
            Kind::Shed => {
                counted[2] += 1;
                sc.shed += 1;
            }
            Kind::Reject => {
                counted[3] += 1;
                *sc.rejected
                    .entry(r.code.clone().unwrap_or_default())
                    .or_default() += 1;
            }
            _ => {}
        }
        if r.kind == expected {
            ok[request] = true;
            sc.latency_ms[request] = r.at_ns.saturating_sub(plan.due_ns[request]) as f64 / 1e6;
        }
    }
    for i in 0..n {
        match answers[i] {
            1 if ok[i] => {}
            0 => sc.problem(format!("request {i} got no reply")),
            1 => sc.problem(format!("request {i} was refused")),
            k => sc.problem(format!("request {i} got {k} replies")),
        }
    }
    for (t, job, stretch, at) in completions {
        counted[4] += 1;
        match admitted.get_mut(&(t, job)) {
            Some(c) => *c += 1,
            None => sc.problem(format!("completion of unknown job {job} of tenant {t}")),
        }
        if at.is_nan() {
            sc.problem(format!("completion of job {job} of tenant {t} has no time"));
            continue;
        }
        let allowed = plan
            .undercut_from
            .get(t as usize)
            .is_some_and(|&from| at >= from);
        if stretch.is_nan() || (stretch < 1.0 - 1e-9 && !allowed) {
            sc.problem(format!("job {job} of tenant {t} has stretch {stretch}"));
        } else if stretch < 1.0 - 1e-9 {
            sc.below_one_undercut += 1;
        }
    }
    let wrong = admitted.values().filter(|&&c| c != 1).count();
    if wrong > 0 {
        sc.problem(format!(
            "{wrong} admitted job(s) without exactly one completion"
        ));
    }
    let jobs = plan.kind.iter().filter(|k| **k == ReqKind::Job).count();
    let job_answers = (0..n)
        .filter(|&i| plan.kind[i] == ReqKind::Job && answers[i] > 0)
        .count();
    if job_answers != jobs {
        sc.problem(format!(
            "{job_answers} of {jobs} submissions were admitted, shed or rejected"
        ));
    }
    match server_summaries.as_slice() {
        [s] => {
            counted[0] = n;
            if *s != counted {
                sc.problem(format!(
                    "server-summary {s:?} disagrees with the records {counted:?} \
                     (lines, admitted, shed, rejected, completed)"
                ));
            }
        }
        other => sc.problem(format!("{} server-summary records", other.len())),
    }
    let tenants = plan.by_tenant.iter().filter(|v| !v.is_empty()).count();
    if tenant_summaries != tenants {
        sc.problem(format!(
            "{tenant_summaries} summaries for {tenants} tenants"
        ));
    }
    let first_due = plan.due_ns.first().copied().unwrap_or(0);
    sc.span_ms = last_reply.saturating_sub(first_due) as f64 / 1e6;
    sc
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    /// A pipe with room for one write: a writer blocks while the far side
    /// is not reading, as on a full socket buffer.
    struct PipeWriter(mpsc::SyncSender<Vec<u8>>);
    struct PipeReader {
        rx: mpsc::Receiver<Vec<u8>>,
        pending: Vec<u8>,
        at: usize,
    }

    impl Write for PipeWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0
                .send(buf.to_vec())
                .map_err(|_| std::io::Error::from(std::io::ErrorKind::BrokenPipe))?;
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    impl Read for PipeReader {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.at == self.pending.len() {
                match self.rx.recv() {
                    Ok(chunk) => {
                        self.pending = chunk;
                        self.at = 0;
                    }
                    Err(_) => return Ok(0),
                }
            }
            let k = buf.len().min(self.pending.len() - self.at);
            buf[..k].copy_from_slice(&self.pending[self.at..self.at + k]);
            self.at += k;
            Ok(k)
        }
    }

    fn pipe(room: usize) -> (PipeWriter, PipeReader) {
        let (tx, rx) = mpsc::sync_channel(room);
        (
            PipeWriter(tx),
            PipeReader {
                rx,
                pending: Vec::new(),
                at: 0,
            },
        )
    }

    /// Answers every line of a one-tenant stream like the server would,
    /// but stops reading for `stall` before line `stall_at`.
    fn fake_server(input: PipeReader, mut out: PipeWriter, stall_at: usize, stall: Duration) {
        let mut jobs = 0;
        for (i, line) in BufReader::new(input).lines().enumerate() {
            let line = line.unwrap();
            if i == stall_at {
                std::thread::sleep(stall);
            }
            let rec = if line.contains("spec") {
                r#"{"type":"spec-ok","tenant":"t00"}"#.to_string()
            } else {
                jobs += 1;
                format!(
                    r#"{{"type":"admit","tenant":"t00","line":{i},"job":{}}}"#,
                    jobs - 1
                )
            };
            out.write_all(format!("{rec}\n").as_bytes()).unwrap();
        }
        for j in 0..jobs {
            let rec = format!(
                r#"{{"type":"completion","tenant":"t00","job":{j},"completion":{j},"stretch":1.5}}"#
            );
            out.write_all(format!("{rec}\n").as_bytes()).unwrap();
        }
        let summary = format!(
            "{{\"type\":\"summary\",\"tenant\":\"t00\",\"lines\":{jobs},\"admitted\":{jobs},\
             \"shed\":0,\"rejected\":0,\"completed\":{jobs},\"max_stretch\":1.5}}\n\
             {{\"type\":\"server-summary\",\"lines\":{},\"admitted\":{jobs},\"shed\":0,\
             \"rejected\":0,\"completed\":{jobs},\"tenants\":1}}\n",
            jobs + 1
        );
        out.write_all(summary.as_bytes()).unwrap();
    }

    fn one_tenant_plan(n: usize, rate: f64) -> (Vec<String>, Vec<f64>) {
        let mut lines = vec![r#"{"type":"spec","tenant":"t00","edges":1}"#.to_string()];
        lines.extend((1..n).map(|i| format!(r#"{{"tenant":"t00","origin":0,"work":{i}}}"#)));
        let due = (0..n).map(|i| i as f64 / rate).collect();
        (lines, due)
    }

    fn run(stall_at: usize, stall: Duration) -> (Plan, Observed) {
        let (lines, due) = one_tenant_plan(400, 2_000.0);
        let kinds = lines.iter().enumerate().map(|(i, l)| {
            let k = if i == 0 { ReqKind::Spec } else { ReqKind::Job };
            (l.as_str(), 0, k)
        });
        let plan = Plan::new(kinds, &due, vec![f64::INFINITY]);
        let (to_server, server_in) = pipe(1);
        let (server_out, from_server) = pipe(1 << 16);
        let server =
            std::thread::spawn(move || fake_server(server_in, server_out, stall_at, stall));
        let obs = drive(&plan, to_server, drop, from_server).unwrap();
        server.join().unwrap();
        (plan, obs)
    }

    #[test]
    fn a_clean_run_passes_every_check() {
        let (plan, obs) = run(usize::MAX, Duration::ZERO);
        let sc = score(&plan, &obs);
        assert_eq!(sc.failed, 0, "{:?}", sc.problems);
        assert!(sc.latency_ms.iter().all(|l| l.is_finite()));
    }

    #[test]
    fn a_stalled_reader_inflates_the_requests_queued_behind_it() {
        let stall = Duration::from_millis(100);
        let (plan, obs) = run(100, stall);
        let sc = score(&plan, &obs);
        assert_eq!(sc.failed, 0, "{:?}", sc.problems);
        // Line 100 is due at 50 ms and waits out the whole stall.
        assert!(sc.latency_ms[100] >= 90.0, "{}", sc.latency_ms[100]);
        // Lines due during the stall are charged the rest of it, counted
        // from when they were due ...
        for i in [110, 150, 190] {
            let left = 150.0 - i as f64 / 2.0;
            assert!(
                sc.latency_ms[i] >= left - 10.0,
                "line {i}: {} ms, stall left {left} ms",
                sc.latency_ms[i]
            );
        }
        // ... even though the writer, blocked, sent them late: timed from
        // the send, the stall would vanish.
        let from_send = |i: usize| sc.latency_ms[i] - sc.late_ms[i];
        assert!(
            sc.late_ms[150] >= 40.0,
            "writer lateness {}",
            sc.late_ms[150]
        );
        assert!(from_send(150) < sc.latency_ms[150] / 2.0);
        // Lines well before the stall are unaffected.
        assert!(sc.latency_ms[20] < 20.0, "{}", sc.latency_ms[20]);
        let late = crate::stats::Summary::of(&sc.late_ms);
        assert!(late.tail.unwrap().1 >= 40.0);
    }

    #[test]
    fn low_stretches_and_missing_times_fail_unless_undercut() {
        let (mut plan, mut obs) = run(usize::MAX, Duration::ZERO);
        let first = obs
            .replies
            .iter()
            .position(|r| r.kind == Kind::Completion)
            .unwrap();
        // Job 0 completes at virtual time 0, job 1 at 1.
        obs.replies[first].stretch = 0.9;
        obs.replies[first + 1].completion = f64::NAN;
        let sc = score(&plan, &obs);
        assert_eq!(sc.failed, 2, "{:?}", sc.problems);
        assert!(sc.problems.iter().any(|p| p.contains("stretch 0.9")));
        assert!(sc.problems.iter().any(|p| p.contains("has no time")));
        // An undercutting record later than the completion does not help.
        plan.undercut_from = vec![0.5];
        assert_eq!(score(&plan, &obs).failed, 2);
        // One at or before it allows the low stretch, not the missing time.
        plan.undercut_from = vec![0.0];
        let sc = score(&plan, &obs);
        assert_eq!(sc.failed, 1, "{:?}", sc.problems);
        assert_eq!(sc.below_one_undercut, 1);
    }

    #[test]
    fn missing_and_duplicate_replies_fail() {
        let (plan, mut obs) = run(usize::MAX, Duration::ZERO);
        let dup = obs
            .replies
            .iter()
            .position(|r| r.kind == Kind::Admit)
            .unwrap();
        let copy = Reply {
            code: None,
            ..obs.replies[dup]
        };
        obs.replies.remove(dup + 1);
        obs.replies.push(copy);
        let sc = score(&plan, &obs);
        assert!(sc.failed >= 2, "{:?}", sc.problems);
        assert!(sc.problems.iter().any(|p| p.contains("no reply")));
        assert!(sc.problems.iter().any(|p| p.contains("2 replies")));
    }
}
