//! `wire-mix`: the adaptive 12×12 production backend behind a
//! `WireServer` on loopback, driven by this benchmark's own closed loop.
//!
//! [`SUBSCRIBERS`] subscribers live in a seeded 7-cell cluster (nine per
//! cell: each keeps about one call at all times, so a cell carries 0.9
//! Erlang per primary channel, the load of `des-schemes`) and never think.
//! Each repeats one cycle: a new call at home; after each grant, with
//! probability [`HANDOFF_P`] a handoff to a random neighbour of the granted
//! cell (the priority path), which is experiment e10's random-walk
//! mobility seen at its grants; once the call settles, it is kept and the
//! call kept from the previous cycle is explicitly released. So the
//! client's Theorem-1 ledger has real holdings to check each grant
//! against. [`DRIVERS`] driver threads share
//! the subscribers, each over its own connection. Holds are declared
//! longer than any run, so only the client releases.
//!
//! The measured pass is a fixed amount of work, sized by `--seconds` (see
//! [`NOMINAL_CYCLES_PER_S`]), in [`SEGMENTS`] segments: every subscriber
//! runs the same number of cycles and the segment drains before the next
//! one starts. `cpu_us_per_op` is the median over segments of the CPU
//! time of every thread of the process (drivers, client readers, server,
//! backend workers) per answered request. The warm-up is cut into
//! segments the same way; its CPU time is part of `setup_s`.
//!
//! The traced run first drives half the work in-process against the same
//! backend through the `AllocService` trait (the `backend.*` figures),
//! then the other half over the server: one backend lifecycle per process
//! either way, because production-backend RSS grows across lifecycles.

use crate::ledger::Ledger;
use crate::spans::Spans;
use crate::{alloc, cpu_per_rep, host, median, peak_rss_mib, quantile, Args, Outcome};
use adca_core::AdaptiveNode;
use adca_harness::Scenario;
use adca_hexgrid::{CellId, Channel, Topology};
use adca_serve::{
    AllocService, ChannelRequest, Confirm, Indication, ProductionAllocService, ProductionConfig,
    Ticket,
};
use adca_simkit::rng::SplitMix64;
use adca_simkit::RequestKind;
use adca_wire::{
    deadline_wheel, decode, encode, WireClient, WireClientConfig, WireEvent, WireMsg, WireServer,
};
use std::collections::{HashMap, HashSet};
use std::sync::Mutex;
use std::time::{Duration, Instant};

const ROWS: u32 = 12;
const COLS: u32 = 12;
/// Subscribers: nine per cell of the 7-cell cluster, ρ = 0.9 on a cell's
/// ten primaries.
const SUBSCRIBERS: usize = 63;
/// Driver threads, one connection each.
const DRIVERS: usize = 2;
/// Backend worker threads (fixed, so the figures do not follow the host's
/// core count).
const WORKERS: usize = 2;
/// Mean call holding time and mean cell dwell time of experiment e10's
/// random-walk mobility at its longest dwell (`WorkloadSpec::uniform(0.8,
/// 10_000.0, ..).with_mobility(12_000.0)`), in engine ticks.
const E10_HOLD_MEAN: f64 = 10_000.0;
const E10_DWELL_MEAN: f64 = 12_000.0;
/// Chance that a call hands off before it ends, after each grant. With
/// exponential holding and dwell times the next event of a call is a hop
/// with probability H/(H+D), whatever happened before (about 0.45, so
/// H/D = 0.83 handoffs per call on average, as in e10).
const HANDOFF_P: f64 = E10_HOLD_MEAN / (E10_HOLD_MEAN + E10_DWELL_MEAN);
/// Declared hold in backend ticks (100 ns each): 1000 s, longer than any
/// run, so a channel returns only when the client releases it.
const HOLD_TICKS: u64 = 10_000_000_000;
/// Warm-up before measuring (part of set-up): this many segments of
/// [`WARMUP_CYCLES`] cycles per subscriber, each followed by a probe.
const WARMUP_SEGMENTS: usize = 16;
const WARMUP_CYCLES: u32 = 6;
/// Segments of the measured pass; each ends in a drain and a host-speed
/// probe, and every figure is the median over segments.
const SEGMENTS: usize = 20;
/// Cycles per second the pass is sized for, so that it takes about
/// `--seconds` on the reference host. The work is fixed, not the time,
/// because the backend and server keep state per request: peak RSS
/// follows the request count.
const NOMINAL_CYCLES_PER_S: f64 = 16_000.0;
/// Set-up repetitions of the topology and mix generation.
const SETUP_REPS: usize = 5;
/// Per-rep batch of the (sub-millisecond) topology and mix generation.
const SETUP_BATCH: usize = 20;
/// Longest silence from the server before a pass gives up.
const STALL_LIMIT: Duration = Duration::from_secs(20);
/// Requests whose frames the traced run re-encodes and decodes.
const FRAME_SAMPLE: usize = 4096;
/// Encode/decode repetitions per sampled request.
const FRAME_REPS: usize = 50;
/// One request in this many gets spans (the span store is capped).
const REQUEST_SPAN_EVERY: u64 = 32;

/// The generated input: where subscribers live and how each one draws
/// its handoff decisions.
#[derive(Debug, Clone, PartialEq)]
pub struct Mix {
    pub homes: Vec<CellId>,
    pub seeds: Vec<u64>,
    /// Neighbours of every cell (handoff targets).
    pub neighbours: Vec<Vec<CellId>>,
}

impl Mix {
    pub fn generate(topo: &Topology, seed: u64) -> Mix {
        let mut rng = SplitMix64::new(seed ^ 0x5EED_F1CE);
        let grid = topo.grid();
        let interior: Vec<CellId> = topo
            .cells()
            .filter(|&c| {
                let (col, row) = grid.offset(c);
                (2..COLS - 2).contains(&col) && (2..ROWS - 2).contains(&row)
            })
            .collect();
        let center = interior[rng.range_inclusive(0, interior.len() as u64 - 1) as usize];
        let mut cluster = vec![center];
        cluster.extend(grid.neighbors(center));
        assert_eq!(cluster.len(), 7, "an interior cell has six neighbours");
        Mix {
            homes: (0..SUBSCRIBERS)
                .map(|i| cluster[i % cluster.len()])
                .collect(),
            seeds: (0..SUBSCRIBERS).map(|_| rng.next_u64()).collect(),
            neighbours: topo.cells().map(|c| grid.neighbors(c)).collect(),
        }
    }
}

/// One answer as the driver sees it, from either port.
#[derive(Debug, Clone, PartialEq)]
pub enum Event {
    Granted {
        id: u64,
        ticket: u64,
        cell: CellId,
        channel: Channel,
    },
    Rejected {
        id: u64,
    },
    /// Refused at admission, or no answer within the retry budget.
    Failed {
        id: u64,
        why: String,
    },
    Released {
        ticket: u64,
    },
}

/// Where the closed loop sends its requests.
trait Port {
    fn submit(&mut self, req: &ChannelRequest) -> Result<u64, String>;
    fn release(&mut self, ticket: u64) -> Result<(), String>;
    fn next(&mut self, wait: Duration) -> Option<Event>;
}

impl Port for WireClient {
    fn submit(&mut self, req: &ChannelRequest) -> Result<u64, String> {
        WireClient::submit(self, req).map_err(|e| e.to_string())
    }

    fn release(&mut self, ticket: u64) -> Result<(), String> {
        WireClient::release(self, ticket).map_err(|e| e.to_string())
    }

    fn next(&mut self, wait: Duration) -> Option<Event> {
        Some(match self.recv(wait)? {
            WireEvent::Granted {
                id,
                ticket,
                cell,
                channel,
                ..
            } => Event::Granted {
                id,
                ticket,
                cell: CellId(cell),
                channel: Channel(channel),
            },
            WireEvent::Rejected { id, .. } => Event::Rejected { id },
            WireEvent::Refused { id, reason } => Event::Failed { id, why: reason },
            WireEvent::TimedOut { id } => Event::Failed {
                id,
                why: "timed out".into(),
            },
            WireEvent::Released { ticket, .. } => Event::Released { ticket },
        })
    }
}

/// The in-process port: the backend itself, through `AllocService`.
/// Confirms are polled (yielding between polls), since the trait's
/// `recv_confirm` sleeps 200 µs between polls and would set the latency.
struct InProcess<'a, S: AllocService> {
    svc: &'a mut S,
    /// Wall time blocked in `request_channel`, µs.
    request_us: Vec<f64>,
}

impl<S: AllocService> Port for InProcess<'_, S> {
    fn submit(&mut self, req: &ChannelRequest) -> Result<u64, String> {
        let t = Instant::now();
        let res = self.svc.request_channel(*req);
        self.request_us.push(t.elapsed().as_secs_f64() * 1e6);
        res.map(|t| t.0).map_err(|e| e.to_string())
    }

    fn release(&mut self, ticket: u64) -> Result<(), String> {
        self.svc.release(Ticket(ticket)).map_err(|e| e.to_string())
    }

    fn next(&mut self, wait: Duration) -> Option<Event> {
        let deadline = Instant::now() + wait;
        loop {
            if let Some(c) = self.svc.confirm() {
                return Some(match c {
                    Confirm::Granted {
                        ticket,
                        cell,
                        channel,
                        ..
                    } => Event::Granted {
                        id: ticket.0,
                        ticket: ticket.0,
                        cell,
                        channel,
                    },
                    Confirm::Rejected { ticket, .. } => Event::Rejected { id: ticket.0 },
                });
            }
            if let Some(Indication::Released { ticket, .. }) = self.svc.indication() {
                return Some(Event::Released { ticket: ticket.0 });
            }
            if Instant::now() >= deadline {
                return None;
            }
            std::thread::yield_now();
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Phase {
    Idle,
    New,
    Handoff,
}

struct Sub {
    home: CellId,
    rng: SplitMix64,
    phase: Phase,
    sent: Instant,
    /// How long the last `submit` call took.
    submit: Duration,
    /// The call kept from the last cycle: `(ticket, cell, channel)`.
    held: Option<(u64, CellId, Channel)>,
}

/// What one driver saw over one pass.
#[derive(Default)]
pub struct Tally {
    pub submitted: u64,
    /// Of `submitted`, how many were handoffs.
    pub handoffs: u64,
    pub granted: u64,
    pub rejected: u64,
    pub failed: u64,
    pub releases_sent: u64,
    /// Submit-to-answer wall time of every request, µs.
    pub latency_us: Vec<f64>,
    /// Wall time of each `submit` call, µs (traced runs).
    pub submit_us: Vec<f64>,
    /// Requests submitted, kept for the frame codec figures (traced runs).
    pub sample: Vec<ChannelRequest>,
    /// Granted tickets whose `Released` has not arrived yet.
    outstanding: HashSet<u64>,
    problems: Vec<String>,
}

impl Tally {
    /// Requests answered: grants, protocol rejections and failures.
    fn answered(&self) -> f64 {
        (self.granted + self.rejected + self.failed) as f64
    }

    fn problem(&mut self, p: String) {
        if self.problems.len() < 5 {
            self.problems.push(p);
        }
    }

    /// Exactly one answer per request, and every grant returned.
    pub fn verdict(&self) -> Result<(), String> {
        if let Some(p) = self.problems.first() {
            return Err(p.clone());
        }
        if self.submitted == 0 {
            return Err("no request was submitted".into());
        }
        let answered = self.granted + self.rejected + self.failed;
        if answered != self.submitted {
            return Err(format!(
                "{} requests submitted, {answered} answered",
                self.submitted
            ));
        }
        if !self.outstanding.is_empty() {
            return Err(format!(
                "after the drain {} grants were not returned",
                self.outstanding.len()
            ));
        }
        Ok(())
    }

    fn merge(&mut self, o: Tally) {
        self.submitted += o.submitted;
        self.handoffs += o.handoffs;
        self.granted += o.granted;
        self.rejected += o.rejected;
        self.failed += o.failed;
        self.releases_sent += o.releases_sent;
        self.latency_us.extend(o.latency_us);
        self.submit_us.extend(o.submit_us);
        self.sample.extend(o.sample);
        self.problems.extend(o.problems);
        // Outstanding tickets are checked per driver: a ticket's answers
        // all go to the connection that submitted it.
        self.outstanding.extend(o.outstanding);
    }
}

/// Runs `cycles` closed-loop cycles of every subscriber in `subs` over
/// `port`, then drains every outstanding answer and release.
fn drive<P: Port>(
    port: &mut P,
    subs: &mut [Sub],
    mix: &Mix,
    ledger: &Mutex<Ledger>,
    cycles: u32,
    label: &'static str,
    spans: &mut Spans,
) -> Tally {
    let trace = spans.on();
    let mut t = Tally::default();
    let mut by_id: HashMap<u64, usize> = HashMap::with_capacity(subs.len());
    let mut done = vec![0u32; subs.len()];
    let start = Instant::now();
    let pass_span = spans.id();
    // Submits `req` for subscriber `i`; a refused submit fails the request.
    let submit = |port: &mut P,
                  t: &mut Tally,
                  by_id: &mut HashMap<u64, usize>,
                  sub: &mut Sub,
                  i: usize,
                  req: ChannelRequest|
     -> bool {
        let t0 = Instant::now();
        let res = port.submit(&req);
        sub.submit = t0.elapsed();
        if trace {
            t.submit_us.push(sub.submit.as_secs_f64() * 1e6);
            if t.sample.len() < FRAME_SAMPLE {
                t.sample.push(req);
            }
        }
        t.submitted += 1;
        sub.sent = t0;
        match res {
            Ok(id) => {
                if by_id.insert(id, i).is_some() {
                    t.problem(format!("request id {id} issued twice"));
                }
                true
            }
            Err(e) => {
                t.failed += 1;
                t.problem(format!("submit refused: {e}"));
                sub.phase = Phase::Idle;
                false
            }
        }
    };
    // Releases a held call. The channel counts as free from the moment
    // its release is sent.
    let release = |port: &mut P, t: &mut Tally, (ticket, cell, ch): (u64, CellId, Channel)| {
        ledger.lock().expect("ledger poisoned").free(cell, ch);
        t.releases_sent += 1;
        if let Err(e) = port.release(ticket) {
            t.problem(format!("release of ticket {ticket}: {e}"));
        }
    };
    let start_cycle = |port: &mut P,
                       t: &mut Tally,
                       by_id: &mut HashMap<u64, usize>,
                       subs: &mut [Sub],
                       done: &mut [u32],
                       i: usize| {
        subs[i].phase = Phase::Idle;
        if done[i] >= cycles {
            // The pass is over for this subscriber: return what it holds.
            if let Some(call) = subs[i].held.take() {
                release(port, t, call);
            }
            return;
        }
        done[i] += 1;
        subs[i].phase = Phase::New;
        let req = ChannelRequest::new_call(0, subs[i].home, HOLD_TICKS);
        submit(port, t, by_id, &mut subs[i], i, req);
    };

    for i in 0..subs.len() {
        start_cycle(port, &mut t, &mut by_id, subs, &mut done, i);
    }
    let mut last_event = Instant::now();
    loop {
        let busy = subs.iter().any(|s| s.phase != Phase::Idle);
        if !busy && t.outstanding.is_empty() {
            break;
        }
        let Some(ev) = port.next(Duration::from_millis(5)) else {
            if last_event.elapsed() > STALL_LIMIT {
                t.problem(format!(
                    "no answer for {STALL_LIMIT:?}: {} requests and {} releases outstanding",
                    by_id.len(),
                    t.outstanding.len()
                ));
                break;
            }
            continue;
        };
        let now = Instant::now();
        last_event = now;
        let answered_id = match &ev {
            Event::Granted { id, .. } | Event::Rejected { id } | Event::Failed { id, .. } => {
                Some(*id)
            }
            Event::Released { .. } => None,
        };
        let i = match answered_id {
            None => None,
            Some(id) => match by_id.remove(&id) {
                Some(i) => {
                    let sent = subs[i].sent;
                    t.latency_us.push((now - sent).as_secs_f64() * 1e6);
                    if trace && (t.granted + t.rejected) % REQUEST_SPAN_EVERY == 0 {
                        let req = spans.id();
                        spans.leaf(req, "client.submit", sent, sent + subs[i].submit);
                        spans.record(req, pass_span, "request", sent, now);
                    }
                    Some(i)
                }
                None => {
                    t.problem(format!("answer for unknown request id {id}"));
                    continue;
                }
            },
        };
        match ev {
            Event::Granted {
                ticket,
                cell,
                channel,
                ..
            } => {
                let i = i.expect("answers carry an id");
                t.granted += 1;
                if !t.outstanding.insert(ticket) {
                    t.problem(format!("ticket {ticket} granted twice"));
                }
                ledger.lock().expect("ledger poisoned").grant(cell, channel);
                let sub = &mut subs[i];
                let known_cell = cell.index() < mix.neighbours.len();
                let handoff = known_cell && sub.rng.next_f64() < HANDOFF_P;
                if handoff {
                    // Break before make: the source channel counts as free
                    // from the moment the handoff is sent.
                    ledger.lock().expect("ledger poisoned").free(cell, channel);
                    let targets = &mix.neighbours[cell.index()];
                    let to = targets[sub.rng.range_inclusive(0, targets.len() as u64 - 1) as usize];
                    sub.phase = Phase::Handoff;
                    t.handoffs += 1;
                    let req = ChannelRequest::handoff(0, Ticket(ticket), to, HOLD_TICKS);
                    if submit(port, &mut t, &mut by_id, sub, i, req) {
                        continue;
                    }
                } else if let Some(previous) = sub.held.replace((ticket, cell, channel)) {
                    // The call settled: keep it through the next cycle and
                    // return the one kept from the last.
                    release(port, &mut t, previous);
                }
                start_cycle(port, &mut t, &mut by_id, subs, &mut done, i);
            }
            Event::Rejected { .. } => {
                t.rejected += 1;
                start_cycle(port, &mut t, &mut by_id, subs, &mut done, i.expect("id"));
            }
            Event::Failed { why, .. } => {
                t.failed += 1;
                t.problem(format!("request failed: {why}"));
                start_cycle(port, &mut t, &mut by_id, subs, &mut done, i.expect("id"));
            }
            Event::Released { ticket } => {
                if !t.outstanding.remove(&ticket) {
                    t.problem(format!("release of ticket {ticket}, which holds nothing"));
                }
            }
        }
    }
    spans.record(pass_span, 0, label, start, Instant::now());
    t
}

fn subscribers(mix: &Mix) -> Vec<Sub> {
    let now = Instant::now();
    mix.homes
        .iter()
        .zip(&mix.seeds)
        .map(|(&home, &seed)| Sub {
            home,
            rng: SplitMix64::new(seed),
            phase: Phase::Idle,
            sent: now,
            submit: Duration::ZERO,
            held: None,
        })
        .collect()
}

/// Runs `cycles` cycles of every subscriber over loopback TCP with
/// [`DRIVERS`] connections; the subscribers keep their state across
/// passes.
fn wire_pass(
    clients: &mut [WireClient],
    subs: &mut [Vec<Sub>],
    mix: &Mix,
    ledger: &Mutex<Ledger>,
    cycles: u32,
    spans: &mut Spans,
) -> Vec<Tally> {
    let trace = spans.on();
    let epoch = spans.epoch();
    let results: Vec<(Tally, Spans)> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(subs.iter_mut())
            .enumerate()
            .map(|(d, (client, subs))| {
                scope.spawn(move || {
                    let mut local = Spans::with_epoch(trace, epoch, (d as u64 + 1) << 40);
                    let t = drive(client, subs, mix, ledger, cycles, "drive.wire", &mut local);
                    (t, local)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("driver thread panicked"))
            .collect()
    });
    results
        .into_iter()
        .map(|(t, s)| {
            spans.absorb(s);
            t
        })
        .collect()
}

fn verdicts(out: &mut Outcome, what: &str, tallies: &[Tally]) {
    for (d, t) in tallies.iter().enumerate() {
        if let Err(e) = t.verdict() {
            out.problems.push(format!("{what} driver {d}: {e}"));
        }
    }
}

fn merged(tallies: Vec<Tally>) -> Tally {
    let mut all = Tally::default();
    for t in tallies {
        all.merge(t);
    }
    all
}

/// Per-segment wall figures of a measured pass.
#[derive(Default)]
struct Segments {
    rate: Vec<f64>,
    p50_us: Vec<f64>,
    p99_us: Vec<f64>,
}

impl Segments {
    fn push(&mut self, t: &Tally, wall_s: f64) {
        self.rate.push(t.answered() / wall_s);
        self.p50_us.push(quantile(&t.latency_us, 0.5));
        self.p99_us.push(quantile(&t.latency_us, 0.99));
    }
}

/// Cycles per subscriber in each of `segments` segments, so a pass
/// takes about `seconds` at [`NOMINAL_CYCLES_PER_S`].
fn segment_cycles(seconds: f64, segments: usize) -> u32 {
    let total = seconds * NOMINAL_CYCLES_PER_S;
    ((total / (segments * SUBSCRIBERS) as f64).ceil() as u32).max(1)
}

pub fn run(args: &Args, spans: &mut Spans) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let sc = Scenario::uniform(0.9, 1)
        .with_grid(ROWS, COLS)
        .with_seed(args.seed);
    let setup_start = Instant::now();
    let setup_span = spans.id();

    // Repeatable set-up: topology and mix generation.
    let mut gen_s = Vec::new();
    let mut topo_s = Vec::new();
    let mut mix_s = Vec::new();
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let (per_topo, topo) = cpu_per_rep(SETUP_BATCH, || sc.topology());
        let (per_mix, _) = cpu_per_rep(SETUP_BATCH, || Mix::generate(&topo, args.seed));
        topo_s.push(per_topo);
        mix_s.push(per_mix);
        gen_s.push(per_topo + per_mix);
        spans.leaf(setup_span, "setup.inputs", t0, Instant::now());
    }
    let topo = sc.topology();
    let mix = Mix::generate(&topo, args.seed);
    out.check(mix == Mix::generate(&topo, args.seed), || {
        "mix generation is not a function of the seed".into()
    });

    // One backend lifecycle: start, server, connections, warm-up.
    let serve_start = Instant::now();
    let serve_cpu = host::cpu_s();
    let ac = sc.adaptive.clone();
    let cfg = ProductionConfig {
        workers: WORKERS,
        ..ProductionConfig::default()
    };
    let mut svc = ProductionAllocService::new(topo.clone(), cfg, move |c, t: &Topology| {
        AdaptiveNode::new(c, t, ac.clone())
    });
    let serve_end = Instant::now();
    let mut start_s = host::cpu_s() - serve_cpu;
    spans.leaf(setup_span, "serve.start", serve_start, serve_end);
    let ledger = Mutex::new(Ledger::new(topo.clone()));
    // Traced runs split the work between the in-process and wire passes.
    let segments = if args.trace { SEGMENTS / 2 } else { SEGMENTS };
    let cycles = segment_cycles(args.seconds, SEGMENTS);

    // Traced runs: the in-process pass first, on the same backend.
    let mut backend_metrics = Vec::new();
    let mut backend_steps = (0.0, 0.0);
    if args.trace {
        let mut port = InProcess {
            svc: &mut svc,
            request_us: Vec::new(),
        };
        let mut subs = subscribers(&mix);
        let warm = drive(
            &mut port,
            &mut subs,
            &mix,
            &ledger,
            WARMUP_SEGMENTS as u32 * WARMUP_CYCLES,
            "warmup.in_process",
            spans,
        );
        verdicts(&mut out, "in-process warm-up", std::slice::from_ref(&warm));
        out.attempted += warm.submitted;
        out.failed += warm.failed;
        port.request_us.clear();
        let stats0 = port.svc.stats();
        let mut segs = Segments::default();
        let mut wall = 0.0;
        // Wall time: the in-process driver polls with yields, so CPU time
        // would count its waiting.
        for _ in 0..segments {
            let t0 = Instant::now();
            let t = drive(
                &mut port,
                &mut subs,
                &mix,
                &ledger,
                cycles,
                "drive.in_process",
                spans,
            );
            let dt = t0.elapsed().as_secs_f64();
            wall += dt;
            segs.push(&t, dt);
            verdicts(&mut out, "in-process", std::slice::from_ref(&t));
            out.attempted += t.submitted;
            out.failed += t.failed;
        }
        let stats = port.svc.stats();
        let reqs = (stats.offered - stats0.offered).max(1) as f64;
        let stalls = stats.backpressure_stalls - stats0.backpressure_stalls;
        let forced = stats.backpressure_forced - stats0.backpressure_forced;
        let messages = (stats.messages - stats0.messages) as f64;
        // A step of the serving core is one control message handled.
        backend_steps = (messages / reqs, wall * 1e9 / messages.max(1.0));
        backend_metrics = vec![
            ("backend.confirms_per_s", median(&segs.rate), "1/s"),
            ("backend.confirm_p50_us", median(&segs.p50_us), "us"),
            (
                "backend.request_us_p99",
                quantile(&port.request_us, 0.99),
                "us",
            ),
            ("backend.stalls", stalls as f64, "count"),
            ("backend.forced", forced as f64, "count"),
        ];
    }

    let t_server = Instant::now();
    let server_cpu = host::cpu_s();
    let mut server = WireServer::start(svc.clone(), "127.0.0.1:0")
        .map_err(|e| format!("starting the wire server: {e}"))?;
    let wheel = deadline_wheel();
    let mut clients = (0..DRIVERS)
        .map(|_| WireClient::connect(server.local_addr(), WireClientConfig::default(), &wheel))
        .collect::<std::io::Result<Vec<_>>>()
        .map_err(|e| format!("connecting to the wire server: {e}"))?;
    let server_end = Instant::now();
    start_s += host::cpu_s() - server_cpu;
    spans.leaf(setup_span, "wire.start", t_server, server_end);
    let mut subs: Vec<Vec<Sub>> = (0..DRIVERS).map(|_| Vec::new()).collect();
    for (i, s) in subscribers(&mix).into_iter().enumerate() {
        subs[i % DRIVERS].push(s);
    }

    // The warm-up, in segments as the measured pass below. The segments
    // are alike, so the median segment's CPU time stands for each.
    let t_warm = Instant::now();
    let mut warm_cpu = Vec::new();
    for _ in 0..WARMUP_SEGMENTS {
        let c0 = host::cpu_s();
        let tallies = wire_pass(&mut clients, &mut subs, &mix, &ledger, WARMUP_CYCLES, spans);
        warm_cpu.push(host::cpu_s() - c0);
        verdicts(&mut out, "warm-up", &tallies);
        let warm = merged(tallies);
        out.attempted += warm.submitted;
        out.failed += warm.failed;
    }
    let warmup_s = WARMUP_SEGMENTS as f64 * median(&warm_cpu);
    spans.leaf(setup_span, "warmup", t_warm, Instant::now());
    spans.record(setup_span, 0, "setup", setup_start, Instant::now());

    // The measured pass: fixed work, in segments.
    let mut segs = Segments::default();
    let mut cpu_us = Vec::new();
    let mut all = Tally::default();
    if args.trace {
        alloc::enable();
        alloc::reset();
    }
    for _ in 0..segments {
        let t0 = Instant::now();
        let c0 = host::cpu_s();
        let tallies = wire_pass(&mut clients, &mut subs, &mix, &ledger, cycles, spans);
        let wall = t0.elapsed().as_secs_f64();
        let cpu = host::cpu_s() - c0;
        verdicts(&mut out, "wire", &tallies);
        let mut t = merged(tallies);
        cpu_us.push(cpu * 1e6 / t.answered().max(1.0));
        segs.push(&t, wall);
        out.attempted += t.submitted;
        out.failed += t.failed;
        // Keep the traced run's samples, not every latency.
        t.latency_us = Vec::new();
        all.merge(t);
    }
    let heap_growth = alloc::peak_growth();
    let retries: u64 = clients.iter().map(|c| c.retries()).sum();
    let timeouts: u64 = clients.iter().map(|c| c.timeouts()).sum();
    drop(clients);
    server.shutdown();
    let dedup_hits = server.dedup_hits();
    out.check(svc.quiesce(STALL_LIMIT), || {
        "the backend did not quiesce".into()
    });
    let stats = svc.stats();
    svc.shutdown();

    out.expect(ledger.lock().expect("ledger poisoned").verdict());
    out.check(stats.violations.is_empty(), || {
        format!("backend audit: {}", stats.violations.join("; "))
    });
    out.check(stats.offered == stats.granted + stats.rejected, || {
        format!(
            "backend offered {} != granted {} + rejected {}",
            stats.offered, stats.granted, stats.rejected
        )
    });

    out.detail("ops_per_s", median(&segs.rate), "1/s");
    out.detail("confirm_p50_us", median(&segs.p50_us), "us");
    if !args.trace {
        out.metric("setup_s", median(&gen_s) + start_s + warmup_s, "s");
        out.metric("peak_rss_mib", peak_rss_mib()?, "MiB");
        out.metric("cpu_us_per_op", median(&cpu_us), "us");
        return Ok(out);
    }

    out.metric("host.probe_ms", host::probe_ms(), "ms");
    out.metric("hexgrid.topology_s", median(&topo_s), "s");
    out.metric("inputs.generate_s", median(&mix_s), "s");
    out.metric("core.steps_per_op", backend_steps.0, "count");
    out.metric("core.ns_per_step", backend_steps.1, "ns");
    out.metric(
        "mem.heap_growth_mib",
        heap_growth as f64 / (1024.0 * 1024.0),
        "MiB",
    );
    // Against the untraced `cpu_us_per_op`: what the spans and the
    // allocation counter cost.
    out.metric("trace.cpu_us_per_op", median(&cpu_us), "us");

    let backend_p50 = backend_metrics[1].1;
    for (name, v, unit) in backend_metrics {
        out.detail(name, v, unit);
    }
    let (enc_ns, dec_ns, bytes) = frame_costs(&all.sample, &mut out);
    out.detail("frame.encode_ns", enc_ns, "ns");
    out.detail("frame.decode_ns", dec_ns, "ns");
    out.detail("frame.bytes_per_req", bytes, "bytes");
    out.detail("client.submit_us_p50", quantile(&all.submit_us, 0.5), "us");
    // Both p50s come from this one run.
    out.detail(
        "wire.transport_us",
        median(&segs.p50_us) - backend_p50,
        "us",
    );
    out.detail("wire.confirm_p99_us", median(&segs.p99_us), "us");
    // What the mix turned into: the share of requests that were handoffs,
    // and of answers that were grants.
    out.detail(
        "mix.handoff_share",
        all.handoffs as f64 / all.submitted.max(1) as f64,
        "ratio",
    );
    out.detail(
        "mix.grant_share",
        all.granted as f64 / (all.granted + all.rejected).max(1) as f64,
        "ratio",
    );
    out.detail("client.retries", retries as f64, "count");
    out.detail("client.timeouts", timeouts as f64, "count");
    out.detail("server.dedup_hits", dedup_hits as f64, "count");
    Ok(out)
}

/// Median ns to encode and to decode one of the mix's own request frames,
/// and their mean size; every frame must decode back to its message.
fn frame_costs(sample: &[ChannelRequest], out: &mut Outcome) -> (f64, f64, f64) {
    let msgs: Vec<WireMsg> = sample
        .iter()
        .enumerate()
        .map(|(id, r)| WireMsg::Request {
            id: id as u64,
            at: r.at,
            cell: r.cell.0,
            kind: r.kind,
            hold: r.hold,
            handoff_of: r.handoff_of.map(|t| t.0),
        })
        .collect();
    if msgs.is_empty() {
        out.problems
            .push("no request was sampled for the frame figures".into());
        return (0.0, 0.0, 0.0);
    }
    let frames: Vec<Vec<u8>> = msgs.iter().map(encode).collect();
    for (m, f) in msgs.iter().zip(&frames) {
        match decode(f) {
            Ok((back, used)) if back == *m && used == f.len() => {}
            other => {
                out.problems
                    .push(format!("frame round trip of {m:?} gave {other:?}"));
                break;
            }
        }
    }
    let handoffs = msgs
        .iter()
        .filter(|m| {
            matches!(
                m,
                WireMsg::Request {
                    kind: RequestKind::Handoff,
                    ..
                }
            )
        })
        .count();
    out.check(handoffs > 0, || "the sampled mix has no handoff".into());
    let mut enc = Vec::new();
    let mut dec = Vec::new();
    for _ in 0..FRAME_REPS {
        let t0 = Instant::now();
        for m in &msgs {
            std::hint::black_box(encode(std::hint::black_box(m)));
        }
        enc.push(t0.elapsed().as_nanos() as f64 / msgs.len() as f64);
        let t1 = Instant::now();
        for f in &frames {
            let _ = std::hint::black_box(decode(std::hint::black_box(f)));
        }
        dec.push(t1.elapsed().as_nanos() as f64 / frames.len() as f64);
    }
    let bytes = frames.iter().map(|f| f.len()).sum::<usize>() as f64 / frames.len() as f64;
    (median(&enc), median(&dec), bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn topo() -> Arc<Topology> {
        Scenario::uniform(0.9, 1).with_grid(ROWS, COLS).topology()
    }

    #[test]
    fn mix_is_a_function_of_the_seed() {
        let t = topo();
        assert_eq!(Mix::generate(&t, 4), Mix::generate(&t, 4));
        assert_ne!(Mix::generate(&t, 4).seeds, Mix::generate(&t, 5).seeds);
    }

    #[test]
    fn tally_needs_one_answer_per_request_and_every_grant_returned() {
        let t = Tally {
            submitted: 2,
            granted: 1,
            rejected: 1,
            ..Tally::default()
        };
        t.verdict().unwrap();

        let missing = Tally {
            submitted: 3,
            granted: 1,
            rejected: 1,
            ..Tally::default()
        };
        assert!(missing.verdict().is_err());

        let mut kept = Tally {
            submitted: 1,
            granted: 1,
            ..Tally::default()
        };
        kept.outstanding.insert(7);
        assert!(kept.verdict().is_err());

        assert!(Tally::default().verdict().is_err());
    }

    #[test]
    fn closed_loop_over_loopback_passes_its_checks() {
        let t = topo();
        let mix = Mix::generate(&t, 9);
        let ac = Scenario::uniform(0.9, 1).adaptive;
        let svc = ProductionAllocService::new(
            t.clone(),
            ProductionConfig {
                workers: 2,
                ..ProductionConfig::default()
            },
            move |c, tp: &Topology| AdaptiveNode::new(c, tp, ac.clone()),
        );
        let mut server = WireServer::start(svc.clone(), "127.0.0.1:0").unwrap();
        let wheel = deadline_wheel();
        let mut clients: Vec<WireClient> = (0..DRIVERS)
            .map(|_| {
                WireClient::connect(server.local_addr(), WireClientConfig::default(), &wheel)
                    .unwrap()
            })
            .collect();
        let mut subs: Vec<Vec<Sub>> = (0..DRIVERS).map(|_| Vec::new()).collect();
        for (i, s) in subscribers(&mix).into_iter().enumerate() {
            subs[i % DRIVERS].push(s);
        }
        let ledger = Mutex::new(Ledger::new(t));
        let mut spans = Spans::new(false);
        let tallies = wire_pass(&mut clients, &mut subs, &mix, &ledger, 5, &mut spans);
        for tally in &tallies {
            tally.verdict().unwrap();
            assert!(tally.granted > 0);
        }
        ledger.lock().unwrap().verdict().unwrap();
        drop(clients);
        server.shutdown();
    }
}
