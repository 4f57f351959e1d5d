//! The serving layers, measured in the traced pass of `batch-ssf-edf`:
//! one connection at a time to the release `mmsec serve --shards 2
//! --listen unix:…` server, 16 tenants per connection, lines sent open
//! loop on a due-time schedule and then as an unpaced burst; in memory,
//! the same stream through the public library entry points (the NDJSON
//! parser, `serve`, `run_sharded`) with spans.

use crate::inputs::{self, Rate, ServeInputs, Tenant, HIGH, SHARDS};
use crate::loadgen::{self, Plan, ReqKind, Scored};
use crate::spans::Spans;
use crate::stats::{self, percentile_checked, Summary};
use crate::{Ctx, Metrics, Outcome};
use mmsec_apps::ndjson::{parse_object_into, ObjBuf};
use mmsec_apps::serve::{serve, ServeConfig};
use mmsec_apps::server::{run_sharded, ServerConfig};
use mmsec_core::PolicyKind;
use mmsec_platform::{Instance, PlatformSpec};
use std::io::{BufRead, Read};
use std::net::Shutdown;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// The server process. Dropping it kills the server and waits for it.
struct Server {
    child: Child,
    sock: PathBuf,
}

impl Server {
    fn start(ctx: &Ctx, instance: &Path) -> std::io::Result<Server> {
        let sock = ctx.work.join("serve.sock");
        let _ = std::fs::remove_file(&sock);
        let child = Command::new(&ctx.mmsec)
            .arg("serve")
            .arg("--instance")
            .arg(instance)
            .args([
                "--shards",
                &SHARDS.to_string(),
                "--server-heartbeat-ms",
                "0",
            ])
            .arg("--listen")
            .arg(format!("unix:{}", sock.display()))
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()?;
        let mut server = Server { child, sock };
        // Ready once a connection is accepted.
        let t0 = Instant::now();
        loop {
            if UnixStream::connect(&server.sock).is_ok() {
                return Ok(server);
            }
            if let Some(status) = server.child.try_wait()? {
                return Err(std::io::Error::other(format!(
                    "mmsec serve exited during start-up: {status}"
                )));
            }
            if t0.elapsed() > Duration::from_secs(30) {
                return Err(std::io::Error::other("mmsec serve did not start in 30 s"));
            }
            std::thread::sleep(Duration::from_micros(500));
        }
    }

    /// Sends `plan` on one connection and judges the replies.
    fn connection(&self, plan: &Plan) -> std::io::Result<Scored> {
        let stream = UnixStream::connect(&self.sock)?;
        let reader = stream.try_clone()?;
        let close = |s: UnixStream| {
            let _ = s.shutdown(Shutdown::Write);
        };
        let observed = loadgen::drive(plan, stream, close, reader)?;
        Ok(loadgen::score(plan, &observed))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.sock);
    }
}

/// The spec lines, then the stream, due on a seeded open-loop schedule
/// at `rate`.
fn plan(inputs: &ServeInputs, seed: u64, label: &str, rate: Rate) -> Plan {
    let specs = inputs
        .tenants
        .iter()
        .enumerate()
        .map(|(t, ten)| (ten.spec_line.as_str(), t, ReqKind::Spec));
    let stream = inputs.lines.iter().map(|l| {
        let kind = if l.job.is_some() {
            ReqKind::Job
        } else {
            ReqKind::Platform
        };
        (l.text.as_str(), l.tenant, kind)
    });
    // A platform record applies at the lane's virtual clock, which the
    // tenant's last submission moved to its release.
    let mut last_release = vec![0.0; inputs.tenants.len()];
    let mut undercut_from = vec![f64::INFINITY; inputs.tenants.len()];
    for l in &inputs.lines {
        if let Some(job) = l.job {
            last_release[l.tenant] = job.release.seconds();
        } else if l.undercuts {
            undercut_from[l.tenant] = undercut_from[l.tenant].min(last_release[l.tenant]);
        }
    }
    let n = inputs.tenants.len() + inputs.lines.len();
    let due = inputs::due_times(seed, label, rate.lines_per_s, n);
    Plan::new(specs.chain(stream), &due, undercut_from)
}

/// The server's default platform (every tenant brings its own spec).
fn default_instance(dir: &Path) -> std::io::Result<PathBuf> {
    let spec = PlatformSpec::builder().edges([1.0]).clouds([1.0]).build();
    let inst = Instance::new(spec, Vec::new()).expect("valid platform");
    let path = dir.join("default.txt");
    std::fs::write(&path, inst.to_text())?;
    Ok(path)
}

/// Folds one connection's checks into the outcome.
fn account(out: &mut Outcome, what: &str, sc: &Scored) {
    out.attempted += sc.requests;
    out.failed += sc.failed;
    for p in &sc.problems {
        out.problems.push(format!("{what}: {p}"));
    }
    if sc.below_one_undercut > 0 {
        out.note(format!(
            "{what}: {} completion(s) after a platform record that can undercut \
             the stretch denominator report stretch < 1",
            sc.below_one_undercut
        ));
    }
}

/// A reader over one tenant's lines that records a span per line: from
/// the lane reading line k to it reading line k + 1, i.e. the lane's
/// handling of line k.
struct SpanReader<'a> {
    lines: std::slice::Iter<'a, (u32, &'a str)>,
    current: Vec<u8>,
    at: usize,
    spans: &'a mut Spans,
    parent: crate::spans::SpanId,
    open: Option<crate::spans::SpanId>,
}

impl SpanReader<'_> {
    fn close(&mut self) {
        if let Some(id) = self.open.take() {
            self.spans.close(id);
        }
    }
}

impl Read for SpanReader<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.fill_buf()?.len().min(buf.len());
        buf[..n].copy_from_slice(&self.current[self.at..self.at + n]);
        self.consume(n);
        Ok(n)
    }
}

impl BufRead for SpanReader<'_> {
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        if self.at == self.current.len() {
            self.close();
            self.current.clear();
            self.at = 0;
            if let Some((key, text)) = self.lines.next() {
                self.current.extend_from_slice(text.as_bytes());
                self.current.push(b'\n');
                self.open = Some(self.spans.open("apps.serve.line", Some(self.parent), *key));
            }
        }
        Ok(&self.current[self.at..])
    }

    fn consume(&mut self, n: usize) {
        self.at += n;
    }
}

fn lane_config() -> ServeConfig {
    ServeConfig {
        policy: PolicyKind::SsfEdf,
        ..ServeConfig::default()
    }
}

/// One tenant's stream lines (after its spec), keyed by stream position.
fn tenant_lines(inputs: &ServeInputs, t: usize) -> Vec<(u32, &str)> {
    inputs
        .lines
        .iter()
        .enumerate()
        .filter(|(_, l)| l.tenant == t)
        .map(|(i, l)| (i as u32, l.text.as_str()))
        .collect()
}

/// Runs every tenant's stream through the public single-lane `serve`,
/// with per-line spans when `spans` is given. Returns the total wall ms.
fn lanes(inputs: &ServeInputs, mut spans: Option<&mut Spans>, out: &mut Outcome) -> f64 {
    let cfg = lane_config();
    let mut total = 0.0;
    for (t, tenant) in inputs.tenants.iter().enumerate() {
        let own = tenant_lines(inputs, t);
        let text: String = own.iter().map(|(_, l)| format!("{l}\n")).collect();
        let mut sink = Vec::new();
        let t0 = Instant::now();
        let result = match spans.as_mut() {
            Some(s) => {
                let parent = s.open("apps.serve.lane", None, t as u32);
                let mut reader = SpanReader {
                    lines: own.iter(),
                    current: Vec::new(),
                    at: 0,
                    spans: s,
                    parent,
                    open: None,
                };
                let r = serve(&tenant.platform, &cfg, &mut reader, &mut sink, None);
                reader.close();
                s.close(parent);
                r
            }
            None => serve(&tenant.platform, &cfg, text.as_bytes(), &mut sink, None),
        };
        total += t0.elapsed().as_secs_f64() * 1e3;
        match result {
            Ok(s) => out.check(
                s.rejected == 0 && s.shed == 0 && s.completed == s.admitted,
                &format!("in-memory lane {} refused or lost work", tenant.name),
            ),
            Err(e) => out.fail(format!("in-memory lane {}: {e}", tenant.name)),
        }
    }
    total
}

/// The serving layers on the serve stream of `ctx.seed`: the paced high
/// rate and the same lines unpaced over the socket, then in memory the
/// NDJSON parser, each tenant's lane alone (`serve`, a span per line) and
/// the whole fabric (`run_sharded`). Adds their metrics and spans.
pub fn layers(
    ctx: &Ctx,
    spans: &mut Spans,
    m: &mut Metrics,
    out: &mut Outcome,
) -> std::io::Result<()> {
    std::fs::create_dir_all(&ctx.work)?;
    let inputs = inputs::serve(ctx.seed);
    out.note(format!("serve inputs digest {}", inputs.digest.hex()));
    let high = plan(&inputs, ctx.seed, "high", HIGH);
    let lines = inputs.lines.len();
    let server = Server::start(ctx, &default_instance(&ctx.work)?)?;

    // Over the socket: the paced high rate, then the same lines unpaced.
    let paced = server.connection(&high)?;
    account(out, "paced", &paced);
    out.note(format!(
        "admit latency at {} lines/s: {}",
        HIGH.lines_per_s,
        Summary::of(&paced.latency_ms).describe("ms")
    ));
    let late = Summary::of(&paced.late_ms);
    out.note(format!("generator lateness: {}", late.describe("ms")));
    let late_p99 = out.tail(percentile_checked(&stats::sorted(&paced.late_ms), 99.0));
    let burst = server.connection(&high.unpaced())?;
    account(out, "burst", &burst);
    drop(server);
    let shed = paced.shed + burst.shed;
    let mut rejected = 0;
    for (code, n) in paced.rejected.iter().chain(&burst.rejected) {
        out.note(format!("rejected with code {code}: {n}"));
        rejected += n;
    }
    m.set("loadgen.late_p99_ms", late_p99);
    m.set("apps.server.shed", shed as f64);
    m.set("apps.server.rejected", rejected as f64);
    m.set(
        "apps.server.burst_lines_per_s",
        high.len() as f64 / (burst.span_ms / 1e3),
    );

    // In memory: the NDJSON parser, each lane alone, and the whole fabric.
    let all: Vec<&str> = inputs
        .tenants
        .iter()
        .map(|t: &Tenant| t.spec_line.as_str())
        .chain(inputs.lines.iter().map(|l| l.text.as_str()))
        .collect();
    let mut buf = ObjBuf::new();
    let parse_id = spans.open("apps.ndjson.parse", None, 0);
    let mut parse_ok = true;
    for line in &all {
        parse_ok &= parse_object_into(line, &mut buf).is_ok();
    }
    spans.close(parse_id);
    out.check(parse_ok, "the NDJSON parser refused a generated line");
    let parse_ms = spans.durations_ms("apps.ndjson.parse")[0];

    let traced_ms = lanes(&inputs, Some(spans), out);
    let untraced_ms = lanes(&inputs, None, out);
    let line_spans = spans.durations_ms("apps.serve.line").len();
    out.check(line_spans == lines, "a lane line went untraced");

    let cfg = ServerConfig {
        serve: lane_config(),
        shards: 1,
        heartbeat_ms: 0,
        ..ServerConfig::default()
    };
    let text: String = all.iter().map(|l| format!("{l}\n")).collect();
    let default = Instance::new(
        PlatformSpec::builder().edges([1.0]).clouds([1.0]).build(),
        Vec::new(),
    )
    .expect("valid platform");
    let fabric_id = spans.open("apps.server.run_sharded", None, 0);
    let summary = run_sharded(&default, &cfg, text.as_bytes(), std::io::sink());
    spans.close(fabric_id);
    let fabric_ms = spans.durations_ms("apps.server.run_sharded")[0];
    match summary {
        Ok(s) => out.check(
            s.lines == all.len() && s.rejected == 0 && s.shed == 0,
            "in-memory run_sharded refused or lost lines",
        ),
        Err(e) => out.fail(format!("in-memory run_sharded: {e}")),
    }
    let n = all.len() as f64;
    m.set("apps.ndjson.parse_us_per_line", parse_ms * 1e3 / n);
    m.set(
        "apps.serve.lane_us_per_line",
        untraced_ms * 1e3 / lines as f64,
    );
    m.set(
        "apps.server.fabric_us_per_line",
        (fabric_ms - untraced_ms) * 1e3 / n,
    );
    out.note(format!(
        "lane tracing overhead {:.4}",
        traced_ms / untraced_ms - 1.0
    ));
    Ok(())
}
