//! The `serve` workload: open-loop traffic against a self-hosted
//! `xlac-server`.
//!
//! The load generator holds one connection. A sender thread writes each request
//! when it falls due on a fixed-rate schedule, whatever the replies are
//! doing; a reader thread timestamps every reply as it arrives. Latency
//! is measured from the request's **due** time, so a stall that delays
//! later sends is charged to them, and the sender's own lateness is
//! reported beside it.
//!
//! `loadgen::run` is not used for latency: its connection thread reads
//! replies only when it sends, so under `--rate` every latency it reports
//! is its window divided by the rate (6.40 ms at 10k/s with window 64,
//! 2.13 ms at 30k/s, 199 µs at 5k/s with window 1), and its closed-loop
//! p50 is Little's law applied to its own request window.
//!
//! Every reply is checked bit-exactly against the library's scalar model
//! at the configuration it names: products through `loadgen::mul_tables`,
//! SAD, FIR and DCT through their accelerators' scalar paths.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

use xlac_core::rng::{DefaultRng, Rng};
use xlac_core::wire::{self, FrameDecoder};
use xlac_server::engine;
use xlac_server::ladder::Ladders;
use xlac_server::loadgen::mul_tables;
use xlac_server::proto::{
    decode_reply, decode_request, encode_reply, encode_request, Kernel, Reply, Request,
    RequestBody, SadPair, Values, DCT_BLOCK, SAD_PIXELS,
};
use xlac_server::tenant::{ShardTenants, TenantPolicy};

use crate::stats;
use crate::trace::Tracer;

/// A reply later than this after its due time counts as failed.
pub const DEADLINE_NS: u64 = 1_000_000_000;
/// Tenants of the traffic mix.
const TENANTS: u32 = 40;
/// Items per multiplier request.
const MUL_ITEMS: usize = 8;
/// Tenant quality targets as a multiple of the certified MED bound of
/// the ladder entry each is meant to select.
const TARGET_HEADROOM: f64 = 1.5;

/// The nanosecond offset at which request `k` falls due at `rate`.
#[must_use]
pub fn due_ns(k: usize, rate: f64) -> u64 {
    (k as f64 * 1e9 / rate).round() as u64
}

/// How late each request was written, given its due and send offsets.
#[must_use]
pub fn lateness_ns(due: &[u64], sent: &[u64]) -> Vec<u64> {
    due.iter().zip(sent).map(|(&d, &s)| s.saturating_sub(d)).collect()
}

/// The fate of one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fate {
    /// A value reply within the deadline; latency from due time.
    Ok(u64),
    /// No reply, or a reply later than [`DEADLINE_NS`] after due.
    TimedOut,
    /// An `Overloaded` reply.
    Overloaded,
    /// An `Error` reply, or a reply of the wrong kind.
    Error,
}

/// Classifies a request from its due offset and the offset at which its
/// reply arrived (if it did).
#[must_use]
pub fn classify(due: u64, reply: Option<(u64, &Reply)>) -> Fate {
    match reply {
        None => Fate::TimedOut,
        Some((at, _)) if at.saturating_sub(due) > DEADLINE_NS => Fate::TimedOut,
        Some((_, Reply::Overloaded { .. })) => Fate::Overloaded,
        Some((at, Reply::Values { .. })) => Fate::Ok(at.saturating_sub(due)),
        Some(_) => Fate::Error,
    }
}

/// Deterministic traffic: mostly 8-item products, some small SAD, FIR
/// and DCT requests, spread over [`TENANTS`] tenants whose quality
/// targets select different ladder entries.
#[must_use]
pub fn generate(seed: u64, tag: u32, n: usize, targets: &[f64]) -> Vec<Request> {
    let mut rng = DefaultRng::seed_from_u64(seed ^ (u64::from(tag) << 40) ^ 0x5E4E);
    (0..n)
        .map(|k| {
            let tenant = (rng.next_u64() % u64::from(TENANTS)) as u32;
            let body = match rng.next_u64() % 20 {
                0 => RequestBody::Sad(
                    (0..2)
                        .map(|_| {
                            let mut p = SadPair { cur: [0; SAD_PIXELS], refb: [0; SAD_PIXELS] };
                            p.cur
                                .iter_mut()
                                .chain(p.refb.iter_mut())
                                .for_each(|v| *v = rng.next_u64() as u8);
                            p
                        })
                        .collect(),
                ),
                1 => RequestBody::Fir((0..16).map(|_| rng.next_u64() as u8).collect()),
                2 => RequestBody::Dct(
                    (0..2)
                        .map(|_| {
                            let mut b = [0i16; DCT_BLOCK];
                            b.iter_mut().for_each(|v| *v = (rng.next_u64() % 511) as i16 - 255);
                            b
                        })
                        .collect(),
                ),
                _ => RequestBody::Mul(
                    (0..MUL_ITEMS)
                        .map(|_| (rng.next_u64() as u8, (rng.next_u64() >> 8) as u8))
                        .collect(),
                ),
            };
            Request {
                req_id: (u64::from(tag) << 32) | k as u64,
                tenant,
                max_med: targets[tenant as usize % targets.len()],
                body,
            }
        })
        .collect()
}

/// One ping per request slot, for the transport round-trip baseline.
#[must_use]
pub fn pings(tag: u32, n: usize) -> Vec<Request> {
    (0..n)
        .map(|k| Request {
            req_id: (u64::from(tag) << 32) | k as u64,
            tenant: 0,
            max_med: 0.0,
            body: RequestBody::Ping,
        })
        .collect()
}

/// Rebuilds every reply from the library's scalar models.
pub struct Oracle {
    ladders: Ladders,
    tables: Vec<Vec<u16>>,
}

/// Outcome of checking one value reply.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Check {
    /// Bit-exact; for a product request, `Σ|served − a·b|` and items.
    Exact { mul_err: u64, mul_items: u64 },
    /// The reply disagrees with the scalar model.
    Mismatch,
}

impl Oracle {
    /// Builds the ladders and the product tables (set-up work).
    #[must_use]
    pub fn build() -> Oracle {
        let ladders = Ladders::build();
        let tables = mul_tables(&ladders);
        Oracle { ladders, tables }
    }

    /// The ladders the oracle checks against.
    #[must_use]
    pub fn ladders(&self) -> &Ladders {
        &self.ladders
    }

    /// Quality targets that select each multiplier ladder entry once:
    /// 1.5 × each entry's certified MED bound. The headroom keeps the
    /// sampling monitor from ratcheting a tenant to the exact entry on
    /// one noisy window of samples.
    #[must_use]
    pub fn targets(&self) -> Vec<f64> {
        self.ladders.mul.iter().map(|e| TARGET_HEADROOM * e.info.med_bound).collect()
    }

    /// Checks a value reply against the scalar model of the
    /// configuration it names.
    #[must_use]
    pub fn check(&self, body: &RequestBody, config: u32, values: &Values) -> Check {
        let c = config as usize;
        let exact = |ok: bool| {
            if ok {
                Check::Exact { mul_err: 0, mul_items: 0 }
            } else {
                Check::Mismatch
            }
        };
        match (body, values) {
            (RequestBody::Mul(pairs), Values::Mul(v))
                if c < self.tables.len() && v.len() == pairs.len() =>
            {
                let table = &self.tables[c];
                let mut mul_err = 0u64;
                for (&(a, b), &got) in pairs.iter().zip(v) {
                    if table[(a as usize) << 8 | b as usize] != got {
                        return Check::Mismatch;
                    }
                    mul_err += u64::from(got).abs_diff(u64::from(a) * u64::from(b));
                }
                Check::Exact { mul_err, mul_items: pairs.len() as u64 }
            }
            (RequestBody::Sad(blocks), Values::Sad(v))
                if c < self.ladders.sad.len() && v.len() == blocks.len() =>
            {
                let sad = &self.ladders.sad[c].sad;
                exact(blocks.iter().zip(v).all(|(b, &got)| {
                    let cur: Vec<u64> = b.cur.iter().map(|&p| u64::from(p)).collect();
                    let refb: Vec<u64> = b.refb.iter().map(|&p| u64::from(p)).collect();
                    sad.sad(&cur, &refb).is_ok_and(|want| want == u64::from(got))
                }))
            }
            (RequestBody::Fir(samples), Values::Fir(v)) if c < self.ladders.fir.len() => {
                let wide: Vec<u64> = samples.iter().map(|&s| u64::from(s)).collect();
                let want = self.ladders.fir[c].fir.apply(&wide);
                exact(want.len() == v.len() && want.iter().zip(v).all(|(&w, &got)| w as i32 == got))
            }
            (RequestBody::Dct(blocks), Values::Dct(v))
                if c < self.ladders.dct.len() && v.len() == blocks.len() =>
            {
                let dct = &self.ladders.dct[c].dct;
                exact(blocks.iter().zip(v).all(|(blk, got)| {
                    let mut grid = [[0i64; 4]; 4];
                    for (i, &x) in blk.iter().enumerate() {
                        grid[i / 4][i % 4] = i64::from(x);
                    }
                    let y = dct.forward(&grid);
                    (0..DCT_BLOCK).all(|i| y[i / 4][i % 4] as i16 == got[i])
                }))
            }
            _ => Check::Mismatch,
        }
    }
}

/// Arrival offset and reply per request, `None` while unanswered.
type Replies = Vec<Option<(u64, Reply)>>;

/// Raw timings of one phase, offsets in nanoseconds from its start.
#[derive(Debug)]
pub struct PhaseRun {
    /// Due offset per request.
    pub due: Vec<u64>,
    /// Offset at which the write carrying the request completed.
    pub sent: Vec<u64>,
    /// Arrival offset and reply per request.
    pub replies: Replies,
    /// Replies for a request that already had one.
    pub duplicates: u64,
}

fn req_id_of(reply: &Reply) -> u64 {
    match reply {
        Reply::Values { req_id, .. }
        | Reply::Error { req_id, .. }
        | Reply::Overloaded { req_id, .. }
        | Reply::Pong { req_id } => *req_id,
    }
}

/// Nanoseconds from `start` to now; zero while `start` lies ahead.
fn since(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).expect("phases last under 584 years")
}

/// Runs one phase on `stream`: the calling thread's scope holds a sender
/// and a reader thread, and both are joined before this returns.
///
/// # Errors
///
/// Propagates socket failures and undecodable replies.
pub fn run_phase(
    stream: &TcpStream,
    reqs: &[Request],
    tag: u32,
    rate: f64,
) -> std::io::Result<PhaseRun> {
    let n = reqs.len();
    let frames: Vec<Vec<u8>> = reqs
        .iter()
        .map(|r| wire::frame(&encode_request(r)).expect("generated requests fit a frame"))
        .collect();
    let due: Vec<u64> = (0..n).map(|k| due_ns(k, rate)).collect();
    let end_ns = due.last().copied().unwrap_or(0) + DEADLINE_NS;
    let mut writer = stream.try_clone()?;
    let mut reader = stream.try_clone()?;
    reader.set_read_timeout(Some(Duration::from_millis(5)))?;
    let start = Instant::now() + Duration::from_millis(2);
    let (due_r, frames_r) = (&due, &frames);

    let (sent, (replies, duplicates)) = std::thread::scope(|scope| {
        let sender = scope.spawn(move || -> std::io::Result<Vec<u64>> {
            let (due, frames) = (due_r, frames_r);
            let mut sent = vec![0u64; n];
            let mut buf = Vec::with_capacity(1 << 16);
            let mut k = 0;
            while k < n {
                let now = since(start);
                if Instant::now() < start || due[k] > now {
                    let wait = if Instant::now() < start {
                        start - Instant::now()
                    } else {
                        Duration::from_nanos(due[k] - now)
                    };
                    std::thread::sleep(wait);
                    continue;
                }
                buf.clear();
                let first = k;
                while k < n && due[k] <= now {
                    buf.extend_from_slice(&frames[k]);
                    k += 1;
                }
                writer.write_all(&buf)?;
                let at = since(start);
                sent[first..k].iter_mut().for_each(|s| *s = at);
            }
            Ok(sent)
        });
        let receiver = scope.spawn(move || -> std::io::Result<(Replies, u64)> {
            let mut replies: Replies = (0..n).map(|_| None).collect();
            let mut decoder = FrameDecoder::new(0);
            let mut buf = vec![0u8; 1 << 16];
            let (mut got, mut duplicates) = (0usize, 0u64);
            while got < n && (Instant::now() < start || since(start) < end_ns) {
                match reader.read(&mut buf) {
                    Ok(0) => return Err(std::io::ErrorKind::UnexpectedEof.into()),
                    Ok(m) => {
                        let at = since(start);
                        decoder.feed(&buf[..m]);
                        while let Some(frame) =
                            decoder.next_frame().map_err(std::io::Error::other)?
                        {
                            let reply =
                                decode_reply(&frame).map_err(|e| std::io::Error::other(e.msg))?;
                            let id = req_id_of(&reply);
                            let seq = (id & 0xFFFF_FFFF) as usize;
                            if id >> 32 != u64::from(tag) || seq >= n {
                                continue; // a straggler from an earlier phase
                            }
                            if replies[seq].is_some() {
                                duplicates += 1;
                            } else {
                                replies[seq] = Some((at, reply));
                                got += 1;
                            }
                        }
                    }
                    Err(e)
                        if matches!(
                            e.kind(),
                            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                        ) => {}
                    Err(e) => return Err(e),
                }
            }
            Ok((replies, duplicates))
        });
        let sent = sender.join().expect("sender thread panicked");
        let received = receiver.join().expect("reader thread panicked");
        Ok::<_, std::io::Error>((sent?, received?))
    })?;
    Ok(PhaseRun { due, sent, replies, duplicates })
}

/// The accounting of one phase.
#[derive(Debug, Clone, Default)]
pub struct PhaseReport {
    /// Requests sent.
    pub sent: u64,
    /// Bit-exact value replies within the deadline.
    pub ok: u64,
    /// Timed out, overloaded, error or mismatched requests.
    pub failed: u64,
    /// Of the failed: no reply within the deadline.
    pub timed_out: u64,
    /// Of the failed: `Overloaded` replies.
    pub overloaded: u64,
    /// Of the failed: replies disagreeing with the scalar model.
    pub mismatched: u64,
    /// Duplicate replies (also a correctness failure).
    pub duplicates: u64,
    /// Windows the phase was split into.
    pub windows: usize,
    /// Median over the windows of each window's median latency from due
    /// time; failed requests count as infinitely late.
    pub p50_ns: Option<u64>,
    /// Median over the windows of each window's 99th-percentile latency,
    /// same convention.
    pub p99_ns: Option<u64>,
    /// 99th-percentile latency over the whole phase, same convention.
    pub p99_all_ns: Option<u64>,
    /// 99th-percentile sender lateness.
    pub late_p99_ns: Option<u64>,
    /// Median latency of the phase's last quarter minus its first's.
    pub drift_ns: i128,
    /// `Σ|served − a·b|` over delivered product items.
    pub mul_err: u64,
    /// Delivered product items.
    pub mul_items: u64,
    /// Latency per request in send order (`u64::MAX` when failed).
    pub latency: Vec<u64>,
    /// Sender lateness per request.
    lateness: Vec<u64>,
}

fn p50_of(lat: &[u64]) -> u64 {
    let mut v = lat.to_vec();
    v.sort_unstable();
    v.get(v.len() / 2).copied().unwrap_or(0)
}

/// Requests per latency window: enough for a p99 with ten samples
/// beyond it.
pub const WINDOW: usize = 1_250;

/// The `p`-th percentile of each window of [`WINDOW`] consecutive
/// requests (of the whole of `lat` when it is shorter); `None` when a
/// window has too few samples.
#[must_use]
pub fn per_window(lat: &[u64], p: f64) -> Option<Vec<u64>> {
    lat.chunks_exact(WINDOW.min(lat.len()).max(1))
        .map(|w| {
            let mut w = w.to_vec();
            w.sort_unstable();
            stats::percentile(&w, p)
        })
        .collect()
}

/// The median over windows of [`per_window`].
fn windowed(lat: &[u64], p: f64) -> Option<u64> {
    per_window(lat, p).filter(|v| !v.is_empty()).map(|v| stats::lower_median(&v))
}

impl PhaseReport {
    /// Derives the percentiles and the drift from the raw latencies. The
    /// percentiles are medians over windows of [`WINDOW`] consecutive
    /// requests, so the stalls a shared host inflicts on a minority of
    /// windows cannot set the phase's figures.
    fn finish(mut self) -> PhaseReport {
        let lat = &self.latency;
        self.windows = (lat.len() / WINDOW).max(1);
        let q = lat.len() / 4;
        if q > 0 {
            self.drift_ns =
                i128::from(p50_of(&lat[lat.len() - q..])) - i128::from(p50_of(&lat[..q]));
        }
        self.p50_ns = windowed(lat, 0.50);
        self.p99_ns = windowed(lat, 0.99);
        let mut sorted = lat.clone();
        sorted.sort_unstable();
        self.p99_all_ns = stats::percentile(&sorted, 0.99);
        let mut late = self.lateness.clone();
        late.sort_unstable();
        self.late_p99_ns = stats::percentile(&late, 0.99);
        self
    }

    /// Joins phases of whole windows, in order, into one.
    #[must_use]
    pub fn join(parts: &[PhaseReport]) -> PhaseReport {
        let mut r = PhaseReport::default();
        for p in parts {
            r.sent += p.sent;
            r.ok += p.ok;
            r.failed += p.failed;
            r.timed_out += p.timed_out;
            r.overloaded += p.overloaded;
            r.mismatched += p.mismatched;
            r.duplicates += p.duplicates;
            r.mul_err += p.mul_err;
            r.mul_items += p.mul_items;
            r.latency.extend_from_slice(&p.latency);
            r.lateness.extend_from_slice(&p.lateness);
        }
        r.finish()
    }
}

/// Accounts a finished phase: classifies, verifies and ranks every
/// request.
#[must_use]
pub fn account(run: &PhaseRun, reqs: &[Request], oracle: &Oracle) -> PhaseReport {
    let mut r = PhaseReport {
        sent: reqs.len() as u64,
        duplicates: run.duplicates,
        ..PhaseReport::default()
    };
    r.latency.reserve(reqs.len());
    for (k, req) in reqs.iter().enumerate() {
        let reply = run.replies[k].as_ref().map(|(at, rep)| (*at, rep));
        let fate = match (classify(run.due[k], reply), reply) {
            (Fate::Ok(l), Some((_, Reply::Values { config, values, .. }))) => {
                match oracle.check(&req.body, *config, values) {
                    Check::Exact { mul_err, mul_items } => {
                        r.mul_err += mul_err;
                        r.mul_items += mul_items;
                        Fate::Ok(l)
                    }
                    Check::Mismatch => {
                        r.mismatched += 1;
                        Fate::Error
                    }
                }
            }
            (Fate::Error, Some((at, Reply::Pong { .. }))) if req.body == RequestBody::Ping => {
                Fate::Ok(at.saturating_sub(run.sent[k]))
            }
            (fate, _) => fate,
        };
        r.latency.push(match fate {
            Fate::Ok(l) => {
                r.ok += 1;
                l
            }
            Fate::TimedOut => {
                r.timed_out += 1;
                u64::MAX
            }
            Fate::Overloaded => {
                r.overloaded += 1;
                u64::MAX
            }
            Fate::Error => u64::MAX,
        });
    }
    r.failed = r.sent - r.ok;
    r.lateness = lateness_ns(&run.due, &run.sent);
    r.finish()
}

/// A phase meets the latency limit when nothing failed and the median of
/// its window p99s is within `limit_ns`. That also rules out a growing
/// backlog: at 1% over capacity the queue adds 10 ms of wait per second,
/// so the later half of the windows of a phase of a second or more
/// would miss a limit of a few milliseconds.
#[must_use]
pub fn meets_limit(r: &PhaseReport, limit_ns: u64) -> bool {
    r.failed == 0 && r.p99_ns.is_some_and(|p| p <= limit_ns)
}

/// Span names of the serving layers.
pub mod layer {
    /// `proto::decode_request`.
    pub const DECODE: &str = "server.proto.decode_request";
    /// `proto::encode_reply`.
    pub const ENCODE: &str = "server.proto.encode_reply";
    /// `wire::frame`.
    pub const FRAME: &str = "core.wire.frame";
    /// `Ladders::select`.
    pub const SELECT: &str = "server.ladder.select";
    /// `TenantKernelState::decide`.
    pub const DECIDE: &str = "server.tenant.decide";
    /// `engine::eval_mul`.
    pub const EVAL_MUL: &str = "server.engine.eval_mul";
    /// `engine::eval_sad`.
    pub const EVAL_SAD: &str = "server.engine.eval_sad";
    /// `engine::eval_fir`.
    pub const EVAL_FIR: &str = "server.engine.eval_fir";
    /// `engine::eval_dct`.
    pub const EVAL_DCT: &str = "server.engine.eval_dct";
    /// Root of the replay.
    pub const ROOT: &str = "serve";
}

fn evaluate(ladders: &Ladders, body: &RequestBody, config: usize) -> Values {
    match body {
        RequestBody::Mul(p) => Values::Mul(engine::eval_mul(&ladders.mul[config], p)),
        RequestBody::Sad(b) => Values::Sad(engine::eval_sad(&ladders.sad[config], b)),
        RequestBody::Fir(s) => Values::Fir(
            engine::eval_fir(&ladders.fir[config], &[s.as_slice()])
                .pop()
                .expect("one stream in, one out"),
        ),
        RequestBody::Dct(b) => Values::Dct(engine::eval_dct(&ladders.dct[config], b)),
        RequestBody::Ping => unreachable!("the replay carries kernel requests only"),
    }
}

fn eval_layer(kernel: Kernel) -> &'static str {
    match kernel {
        Kernel::Mul => layer::EVAL_MUL,
        Kernel::Sad => layer::EVAL_SAD,
        Kernel::Fir => layer::EVAL_FIR,
        Kernel::Dct => layer::EVAL_DCT,
    }
}

/// One request through the server's per-request public functions, in
/// the order a worker applies them. `span` wraps each call; the untraced
/// replay passes a wrapper that only calls through. Returns the request,
/// the configuration served and the values, or `None` when the payload
/// does not decode to a kernel request or the reply cannot be framed.
fn serve_one(
    ladders: &Ladders,
    tenants: &mut ShardTenants,
    payload: &[u8],
    span: &mut dyn FnMut(&'static str, &mut dyn FnMut()),
) -> Option<(Request, u32, Values)> {
    let mut req = None;
    span(layer::DECODE, &mut || req = decode_request(payload).ok());
    let req = req?;
    let kernel = req.body.kernel()?;
    let mut base = 0;
    span(layer::SELECT, &mut || base = ladders.select(kernel, req.max_med));
    let mut config = 0;
    span(layer::DECIDE, &mut || {
        config = tenants
            .state(req.tenant, kernel, req.max_med)
            .decide(base, req.max_med, req.body.items())
            .config;
    });
    let mut values = None;
    span(eval_layer(kernel), &mut || values = Some(evaluate(ladders, &req.body, config)));
    let reply = Reply::Values {
        req_id: req.req_id,
        config: config as u32,
        values: values.expect("evaluated"),
    };
    let mut encoded = Vec::new();
    span(layer::ENCODE, &mut || encoded = encode_reply(&reply));
    let mut framed = Ok(Vec::new());
    span(layer::FRAME, &mut || framed = wire::frame(&encoded));
    framed.ok()?;
    let Reply::Values { config, values, .. } = reply else { unreachable!("built as values") };
    Some((req, config, values))
}

/// What the serving replay measured.
#[derive(Debug, Clone)]
pub struct ReplayReport {
    /// Requests replayed.
    pub requests: u64,
    /// Items replayed per kernel, in [`Kernel::ALL`] order.
    pub items: [u64; 4],
    /// Wall time of the untraced replay.
    pub untraced_s: f64,
    /// Wall time of the traced replay (the root span).
    pub traced_s: f64,
    /// Every replayed reply checked against the oracle.
    pub ok: bool,
}

/// Replays `reqs` through the public per-request functions, once
/// untraced and once under `t`, each with fresh tenant state, and checks
/// every traced reply against the oracle after the clock stops.
#[must_use]
pub fn replay(oracle: &Oracle, t: &mut Tracer, reqs: &[Request]) -> ReplayReport {
    let ladders = oracle.ladders();
    let payloads: Vec<Vec<u8>> = reqs.iter().map(encode_request).collect();
    let mut items = [0u64; 4];
    for r in reqs {
        if let Some(k) = r.body.kernel() {
            items[k.index()] += r.body.items() as u64;
        }
    }
    let start = Instant::now();
    let mut tenants = ShardTenants::new(TenantPolicy::default());
    for p in &payloads {
        std::hint::black_box(serve_one(ladders, &mut tenants, p, &mut |_, f| f()));
    }
    let untraced_s = start.elapsed().as_secs_f64();

    let before = t.root_ns(layer::ROOT);
    let served: Vec<_> = t.span(layer::ROOT, |t| {
        let mut tenants = ShardTenants::new(TenantPolicy::default());
        payloads
            .iter()
            .map(|p| serve_one(ladders, &mut tenants, p, &mut |name, f| t.span(name, |_| f())))
            .collect()
    });
    let traced_s = (t.root_ns(layer::ROOT) - before) as f64 / 1e9;
    let ok = served.iter().zip(reqs).all(|(s, want)| {
        s.as_ref().is_some_and(|(req, config, values)| {
            req == want && oracle.check(&req.body, *config, values) != Check::Mismatch
        })
    });
    ReplayReport { requests: reqs.len() as u64, items, untraced_s, traced_s, ok }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_evenly_spaced_from_zero() {
        assert_eq!(due_ns(0, 5_000.0), 0);
        assert_eq!(due_ns(1, 5_000.0), 200_000);
        assert_eq!(due_ns(5_000, 5_000.0), 1_000_000_000);
        assert_eq!(due_ns(3, 30_000.0), 100_000);
    }

    #[test]
    fn lateness_is_send_minus_due_never_negative() {
        let due = [0, 100, 200, 300];
        // A stall until 450 makes the two requests due at 200 and 300
        // go out together, late by 250 and 150.
        let sent = [10, 100, 450, 450];
        assert_eq!(lateness_ns(&due, &sent), vec![10, 0, 250, 150]);
        assert_eq!(lateness_ns(&[500], &[400]), vec![0]);
    }

    #[test]
    fn a_missing_or_late_reply_is_a_timeout_failure() {
        let values = Reply::Values { req_id: 1, config: 0, values: Values::Mul(vec![1]) };
        assert_eq!(classify(1_000, None), Fate::TimedOut);
        assert_eq!(classify(1_000, Some((1_000 + DEADLINE_NS + 1, &values))), Fate::TimedOut);
        assert_eq!(classify(1_000, Some((1_000 + DEADLINE_NS, &values))), Fate::Ok(DEADLINE_NS));
        let over = Reply::Overloaded { req_id: 1, queue_depth: 4 };
        assert_eq!(classify(0, Some((5, &over))), Fate::Overloaded);
    }

    #[test]
    fn accounting_counts_timeouts_and_mismatches_as_failed() {
        let oracle = Oracle::build();
        let targets = oracle.targets();
        let reqs = generate(7, 1, 2_000, &targets);
        let rate = 10_000.0;
        let due: Vec<u64> = (0..reqs.len()).map(|k| due_ns(k, rate)).collect();
        let ladders = oracle.ladders();
        let mut replies: Vec<Option<(u64, Reply)>> = reqs
            .iter()
            .zip(&due)
            .map(|(r, &d)| {
                let values = evaluate(ladders, &r.body, 0);
                Some((d + 50_000, Reply::Values { req_id: r.req_id, config: 0, values }))
            })
            .collect();
        replies[3] = None; // never answered
        let mul = reqs.iter().position(|r| matches!(r.body, RequestBody::Mul(_))).unwrap();
        if let Some((_, Reply::Values { values: Values::Mul(v), .. })) = &mut replies[mul] {
            v[0] ^= 1; // one flipped product bit
        }
        let run = PhaseRun { sent: due.clone(), due, replies, duplicates: 0 };
        let r = account(&run, &reqs, &oracle);
        assert_eq!(r.sent, 2_000);
        assert_eq!(r.timed_out, 1);
        assert_eq!(r.mismatched, 1);
        assert_eq!((r.ok, r.failed), (1_998, 2));
        // Failed requests rank as infinitely late, beyond the p99.
        assert_eq!(r.p50_ns, Some(50_000));
        assert_eq!(r.p99_ns, Some(50_000));
        assert!(!meets_limit(&r, 1_000_000));
        assert_eq!(r.mul_err, 0, "config 0 is exact");
    }

    #[test]
    fn window_medians_ignore_a_minority_of_stalled_windows() {
        // Five windows; two caught a stall that pushed their tail to 9 ms.
        let mut lat = Vec::new();
        for w in 0..5 {
            let tail = if w == 1 || w == 3 { 9_000_000 } else { 300_000 };
            lat.extend((0..WINDOW).map(|i| if i % 50 == 0 { tail } else { 100_000 }));
        }
        assert_eq!(
            per_window(&lat, 0.99).unwrap(),
            vec![300_000, 9_000_000, 300_000, 9_000_000, 300_000]
        );
        let report = |lat: &[u64]| {
            PhaseReport {
                latency: lat.to_vec(),
                lateness: vec![0; lat.len()],
                ..PhaseReport::default()
            }
            .finish()
        };
        let r = report(&lat);
        assert_eq!((r.windows, r.p50_ns, r.p99_ns), (5, Some(100_000), Some(300_000)));
        // Joining phases keeps every window.
        let joined = PhaseReport::join(&[report(&lat[..2 * WINDOW]), report(&lat[2 * WINDOW..])]);
        assert_eq!((joined.windows, joined.p99_ns), (5, Some(300_000)));
    }

    #[test]
    fn open_loop_generator_times_from_due_and_fails_unanswered_requests() {
        use std::net::TcpListener;
        let oracle = Oracle::build();
        let reqs = generate(3, 9, 40, &oracle.targets());
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        std::thread::scope(|scope| {
            // A server that answers every request at config 0, stalls
            // 30 ms before answering request 10, and never answers 20.
            let server = scope.spawn(|| {
                let (mut conn, _) = listener.accept().unwrap();
                let mut decoder = FrameDecoder::new(0);
                let mut buf = vec![0u8; 4096];
                let mut seen = 0;
                while seen < reqs.len() {
                    let n = conn.read(&mut buf).unwrap();
                    decoder.feed(&buf[..n]);
                    while let Some(frame) = decoder.next_frame().unwrap() {
                        let req = decode_request(&frame).unwrap();
                        seen += 1;
                        match req.req_id & 0xFFFF_FFFF {
                            10 => std::thread::sleep(Duration::from_millis(30)),
                            20 => continue,
                            _ => {}
                        }
                        let values = evaluate(oracle.ladders(), &req.body, 0);
                        let reply = Reply::Values { req_id: req.req_id, config: 0, values };
                        conn.write_all(&wire::frame(&encode_reply(&reply)).unwrap()).unwrap();
                    }
                }
                conn // held open until joined, so the reader sees no EOF
            });
            let stream = TcpStream::connect(addr).unwrap();
            stream.set_nodelay(true).unwrap();
            // 1 000 requests per second: due every millisecond.
            let run = run_phase(&stream, &reqs, 9, 1_000.0).unwrap();
            server.join().unwrap();
            assert_eq!(run.due[7], 7_000_000);
            let r = account(&run, &reqs, &oracle);
            assert_eq!((r.sent, r.ok, r.failed, r.timed_out), (40, 39, 1, 1));
            // Request 11 was sent on time but queued behind the stall, so
            // its latency from due time carries the rest of the stall.
            let (at11, _) = run.replies[11].as_ref().unwrap();
            assert!(run.sent[11] - run.due[11] < 20_000_000, "sender kept to its schedule");
            assert!(at11 - run.due[11] >= 15_000_000, "stall charged to the queued request");
        });
    }

    #[test]
    fn the_replay_reproduces_the_oracle() {
        let oracle = Oracle::build();
        let reqs = generate(11, 2, 300, &oracle.targets());
        let mut t = Tracer::new();
        let r = replay(&oracle, &mut t, &reqs);
        assert!(r.ok);
        assert_eq!(r.requests, 300);
        assert_eq!(t.layers()[layer::DECODE].count, 300);
    }
}
