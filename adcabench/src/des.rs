//! `des-schemes`: the six schemes, one after another, single-threaded,
//! through `Scenario::run_with`, on a shared 24×24 uniform input at
//! ρ = 0.9 over 10⁵ ticks (experiment e9's largest point).
//!
//! A run draws [`INPUTS`] inputs from its seed, and round `r` runs every
//! scheme on input `r mod INPUTS`: one seed's draw then moves a run's
//! figures less. The fixed scheme runs [`FIXED_REPS`] times per round,
//! because one of its passes takes only tens of milliseconds. Rounds
//! repeat until `--seconds` have passed, and at least until every input
//! ran twice. `cpu_us_per_op` is the median over rounds of the round's
//! CPU microseconds per offered call with every scheme simulating the
//! input once, so the slow schemes weigh most; each scheme's own figure
//! (a `detail` line) is its median over rounds.

use crate::ledger::Ledger;
use crate::spans::Spans;
use crate::{alloc, host, median, peak_rss_mib, Args, Outcome};
use adca_harness::{Scenario, SchemeKind};
use adca_hexgrid::Topology;
use adca_simkit::equeue::EventQueue;
use adca_simkit::{Arrival, AuditMode, SimReport, SimTime, TraceEvent, TraceSink};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;
use std::time::Instant;

const ROWS: u32 = 24;
const COLS: u32 = 24;
const RHO: f64 = 0.9;
const HORIZON: u64 = 100_000;
/// Fixed-scheme passes per round (one pass is ~1/30 of an adaptive pass).
const FIXED_REPS: usize = 16;
/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Inputs per run, each a seeded draw of the same scenario. Rounds cycle
/// through them, which damps how much one seed's draw moves a run's
/// figures, and every input runs at least twice.
const INPUTS: usize = 4;
const MIN_ROUNDS: usize = 2 * INPUTS;
/// Event-queue replays of the workload's event times per traced run.
const EQUEUE_REPS: usize = 9;

/// The input: e9's 24×24 point, seeded. The horizon is part of the input:
/// at ρ = 0.9 the search schemes' backlog grows with it.
pub fn scenario(seed: u64) -> Scenario {
    let mut sc = Scenario::uniform(RHO, HORIZON)
        .with_grid(ROWS, COLS)
        .with_seed(seed);
    // Record violations instead of panicking, so a broken run reports
    // `correct: false` with its reason.
    sc.audit = AuditMode::Record;
    sc
}

struct SchemeRuns {
    kind: SchemeKind,
    /// CPU microseconds per offered call, one value per round.
    cpu_us_per_call: Vec<f64>,
    /// Wall nanoseconds per engine event, one value per round.
    ns_per_event: Vec<f64>,
    /// The first report of each input.
    firsts: Vec<Option<SimReport>>,
    /// Largest live-heap growth of a first pass (traced runs only).
    heap_growth: usize,
}

/// The seed of input `k` of a run seeded `seed`.
fn input_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_mul(INPUTS as u64).wrapping_add(k as u64)
}

/// Generates the run's inputs; returns them with the topology and the
/// CPU seconds each step took.
fn generate(seed: u64) -> (Arc<Topology>, Vec<Vec<Arrival>>, f64, f64) {
    let sc = scenario(seed);
    let c0 = host::thread_cpu_s();
    let topo = sc.topology();
    let c1 = host::thread_cpu_s();
    let inputs = (0..INPUTS)
        .map(|k| scenario(input_seed(seed, k)).arrivals(&topo))
        .collect();
    let c2 = host::thread_cpu_s();
    (topo, inputs, c1 - c0, c2 - c1)
}

pub fn run(args: &Args, spans: &mut Spans) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let sc = scenario(args.seed);
    if args.trace {
        alloc::enable();
    }

    // Set-up: topology and input generation, repeated; the inputs must
    // not depend on the repetition.
    let setup_span = spans.id();
    let setup_start = Instant::now();
    let mut topo_s = Vec::new();
    let mut gen_s = Vec::new();
    let mut setup_s = Vec::new();
    let mut input: Option<(Arc<Topology>, Vec<Vec<Arrival>>)> = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let (topo, inputs, ts, gs) = generate(args.seed);
        spans.leaf(setup_span, "setup.generate", t0, Instant::now());
        topo_s.push(ts);
        gen_s.push(gs);
        setup_s.push(ts + gs);
        match &input {
            None => input = Some((topo, inputs)),
            Some((_, first)) => out.check(*first == inputs, || {
                "input generation is not a function of the seed".into()
            }),
        }
    }
    let (topo, inputs) = input.expect("SETUP_REPS >= 1");
    spans.record(setup_span, 0, "setup", setup_start, Instant::now());

    let mut runs: Vec<SchemeRuns> = SchemeKind::ALL
        .iter()
        .map(|&kind| SchemeRuns {
            kind,
            cpu_us_per_call: Vec::new(),
            ns_per_event: Vec::new(),
            firsts: vec![None; INPUTS],
            heap_growth: 0,
        })
        .collect();

    // Per round, with every scheme simulating the input once: CPU us per
    // offered call, CPU ns per engine event, and offered calls per wall
    // second.
    let mut round_cpu_us = Vec::new();
    let mut round_ns_per_event = Vec::new();
    let mut round_rates = Vec::new();
    let started = Instant::now();
    let mut rounds = 0usize;
    while rounds < MIN_ROUNDS || started.elapsed().as_secs_f64() < args.seconds {
        let k = rounds % INPUTS;
        let arrivals = &inputs[k];
        let round_span = spans.id();
        let round_start = Instant::now();
        let (mut round_offered, mut round_cpu, mut round_wall, mut round_events) =
            (0.0, 0.0, 0.0, 0.0);
        for r in runs.iter_mut() {
            let reps = if r.kind == SchemeKind::Fixed {
                FIXED_REPS
            } else {
                1
            };
            let mut cpu = 0.0;
            let mut wall = 0.0;
            let mut offered = 0u64;
            let mut events = 0u64;
            for _ in 0..reps {
                let arr = arrivals.clone();
                if args.trace {
                    alloc::reset();
                }
                let c = host::thread_cpu_s();
                let t = Instant::now();
                let summary = sc.run_with(r.kind, topo.clone(), arr);
                let dt = t.elapsed();
                cpu += host::thread_cpu_s() - c;
                spans.leaf(round_span, r.kind.name(), t, t + dt);
                out.attempted += 1;
                if args.trace && r.firsts[k].is_none() {
                    r.heap_growth = r.heap_growth.max(alloc::peak_growth());
                }
                wall += dt.as_secs_f64();
                offered += summary.report.offered_calls;
                events += summary.report.events_processed;
                match &r.firsts[k] {
                    None => r.firsts[k] = Some(summary.report),
                    Some(first) => out.check(*first == summary.report, || {
                        format!("{}: a repeated pass gave a different SimReport", r.kind)
                    }),
                }
            }
            r.cpu_us_per_call.push(cpu * 1e6 / offered.max(1) as f64);
            r.ns_per_event.push(wall * 1e9 / events.max(1) as f64);
            let per_pass = reps as f64;
            round_offered += offered as f64 / per_pass;
            round_cpu += cpu / per_pass;
            round_wall += wall / per_pass;
            round_events += events as f64 / per_pass;
        }
        round_cpu_us.push(round_cpu * 1e6 / round_offered);
        round_ns_per_event.push(round_cpu * 1e9 / round_events.max(1.0));
        round_rates.push(round_offered / round_wall);
        spans.record(round_span, 0, "round", round_start, Instant::now());
        rounds += 1;
    }

    // Output checks, computed apart from the program.
    for r in &runs {
        for rep in r.firsts.iter().flatten() {
            out.expect(check_conservation(r.kind.name(), rep));
        }
    }
    for (k, arrivals) in inputs.iter().enumerate() {
        let fixed = runs[0].firsts[k].as_ref().expect("every input ran");
        out.expect(check_fixed(fixed, loss_system_grants(&topo, arrivals)));
    }

    let reports = |kind: SchemeKind| -> Vec<&SimReport> {
        runs.iter()
            .find(|r| r.kind == kind)
            .map(|r| r.firsts.iter().flatten().collect())
            .unwrap_or_default()
    };
    let adaptive = reports(SchemeKind::Adaptive);
    let sum = |f: &dyn Fn(&SimReport) -> f64| adaptive.iter().map(|r| f(r)).sum::<f64>();
    let offered = sum(&|r| r.offered_calls as f64);
    out.detail("ops_per_s", median(&round_rates), "1/s");
    for r in &runs {
        out.detail(
            format!("cpu_us_per_call.{}", r.kind.name()),
            median(&r.cpu_us_per_call),
            "us",
        );
    }
    out.detail(
        "msgs_per_call",
        sum(&|r| r.messages_total as f64) / offered,
        "messages",
    );
    out.detail(
        "acq_time_t",
        sum(&|r| r.acq_latency.stats().sum()) / sum(&|r| r.granted as f64) / sc.t_ticks as f64,
        "T",
    );
    if !args.trace {
        out.metric("setup_s", median(&setup_s), "s");
        out.metric("peak_rss_mib", peak_rss_mib()?, "MiB");
        out.metric("cpu_us_per_op", median(&round_cpu_us), "us");
        return Ok(out);
    }

    // Traced run: per-layer figures (of input 0 where one input is meant).
    let firsts: Vec<&SimReport> = runs.iter().map(|r| r.firsts[0].as_ref().expect("ran")).collect();
    let all_events: u64 = firsts.iter().map(|r| r.events_processed).sum();
    let all_offered: u64 = firsts.iter().map(|r| r.offered_calls).sum();
    let heap_growth = runs.iter().map(|r| r.heap_growth).max().unwrap_or(0);
    out.metric("host.probe_ms", host::probe_ms(), "ms");
    out.metric("hexgrid.topology_s", median(&topo_s), "s");
    out.metric("inputs.generate_s", median(&gen_s) / INPUTS as f64, "s");
    out.metric(
        "core.steps_per_op",
        all_events as f64 / all_offered.max(1) as f64,
        "count",
    );
    out.metric("core.ns_per_step", median(&round_ns_per_event), "ns");
    out.metric(
        "mem.heap_growth_mib",
        heap_growth as f64 / (1024.0 * 1024.0),
        "MiB",
    );
    // Against the untraced `cpu_us_per_op`: what the spans and the
    // allocation counter cost.
    out.metric("trace.cpu_us_per_op", median(&round_cpu_us), "us");

    out.detail("traffic.calls", inputs[0].len() as f64, "count");
    for (r, rep) in runs.iter().zip(&firsts) {
        let name = r.kind.name();
        out.detail(
            format!("engine.events.{name}"),
            rep.events_processed as f64,
            "count",
        );
        out.detail(
            format!("engine.ns_per_event.{name}"),
            median(&r.ns_per_event),
            "ns",
        );
        out.detail(
            format!("engine.rss_growth_mib.{name}"),
            r.heap_growth as f64 / (1024.0 * 1024.0),
            "MiB",
        );
        out.detail(
            format!("protocol.msgs_per_grant.{name}"),
            rep.msgs_per_grant(),
            "messages",
        );
    }
    out.detail(
        "equeue.ns_per_op",
        equeue_ns_per_op(&inputs[0], spans),
        "ns",
    );
    let mut attempts = adaptive[0]
        .custom_samples
        .get("attempt_ticks")
        .cloned()
        .unwrap_or_default();
    out.check(!attempts.is_empty(), || {
        "adaptive recorded no attempt_ticks".into()
    });
    let t = sc.t_ticks as f64;
    out.detail(
        "adaptive.attempt_p50_t",
        attempts.quantile(0.5).unwrap_or(0.0) / t,
        "T",
    );
    out.detail(
        "adaptive.attempt_p99_t",
        attempts.quantile(0.99).unwrap_or(0.0) / t,
        "T",
    );

    // One pass per scheme with the benchmark's own sink: Theorem 1 from
    // the Acquired/Released stream, plus the adaptive scheme's counters.
    let mut sink_wall = 0.0;
    let mut plain_wall = 0.0;
    let sinks_span = spans.id();
    let sinks_start = Instant::now();
    for r in &runs {
        let t0 = Instant::now();
        let (summary, sink) = sc.run_with_sink(
            r.kind,
            topo.clone(),
            inputs[0].clone(),
            RegionSink::new(topo.clone()),
        );
        let dt = t0.elapsed();
        spans.leaf(sinks_span, r.kind.name(), t0, t0 + dt);
        out.attempted += 1;
        sink_wall += dt.as_secs_f64();
        plain_wall += median(&r.ns_per_event) * summary.report.events_processed as f64 / 1e9;
        out.expect(sink.verdict(r.kind.name()));
        out.check(Some(&summary.report) == r.firsts[0].as_ref(), || {
            format!("{}: a sink changed the SimReport", r.kind)
        });
        if r.kind == SchemeKind::Adaptive {
            out.detail(
                "adaptive.borrow_attempts",
                sink.borrow_attempts as f64,
                "count",
            );
            out.detail(
                "adaptive.update_to_search",
                sink.search_fallbacks as f64,
                "count",
            );
            out.detail("adaptive.mode_changes", sink.mode_changes as f64, "count");
        }
    }
    spans.record(sinks_span, 0, "sink_passes", sinks_start, Instant::now());
    out.detail("trace.sink_pass_ratio", sink_wall / plain_wall, "ratio");
    Ok(out)
}

/// offered = granted + dropped, completed = granted, no audit violation.
/// The input has no handoffs, so every offered call is one request.
pub fn check_conservation(name: &str, r: &SimReport) -> Result<(), String> {
    if !r.violations.is_empty() {
        return Err(format!("{name}: engine audit: {}", r.violations[0]));
    }
    if r.offered_calls == 0 {
        return Err(format!("{name}: no calls were offered"));
    }
    if r.offered_calls != r.granted + r.dropped_new + r.dropped_handoff {
        return Err(format!(
            "{name}: offered {} != granted {} + dropped {}",
            r.offered_calls,
            r.granted,
            r.dropped_new + r.dropped_handoff
        ));
    }
    if r.completed_calls != r.granted {
        return Err(format!(
            "{name}: completed {} != granted {}",
            r.completed_calls, r.granted
        ));
    }
    Ok(())
}

/// The fixed scheme sends nothing and grants exactly what a per-cell
/// loss system over its primary channels grants.
pub fn check_fixed(r: &SimReport, expected_grants: u64) -> Result<(), String> {
    if r.messages_total != 0 {
        return Err(format!("fixed: sent {} messages", r.messages_total));
    }
    if r.granted != expected_grants {
        return Err(format!(
            "fixed: granted {} calls, the loss-system replay grants {expected_grants}",
            r.granted
        ));
    }
    Ok(())
}

/// Grants of a per-cell loss system (Erlang-B server) with one server per
/// primary channel, replaying `arrivals`.
///
/// Same-tick ties follow the engine's event order: arrivals are queued
/// when the run starts, call ends only when their call is granted, so at
/// a tied tick every arrival is served before any call ending at that
/// tick frees its channel. A call ending at tick `t` is therefore still
/// busy for an arrival at `t`.
pub fn loss_system_grants(topo: &Topology, arrivals: &[Arrival]) -> u64 {
    let mut order: Vec<usize> = (0..arrivals.len()).collect();
    order.sort_by_key(|&i| arrivals[i].at); // stable: list order within a tick
    let mut busy: Vec<BinaryHeap<Reverse<u64>>> = vec![BinaryHeap::new(); topo.num_cells()];
    let mut grants = 0;
    for i in order {
        let a = &arrivals[i];
        let ends = &mut busy[a.cell.index()];
        while ends.peek().is_some_and(|&Reverse(end)| end < a.at) {
            ends.pop();
        }
        if ends.len() < topo.primary(a.cell).len() {
            ends.push(Reverse(a.at + a.duration));
            grants += 1;
        }
    }
    grants
}

/// Pushes and pops the workload's own event times through the public
/// `EventQueue` the way a run does (arrivals up front, each call's end
/// pushed when its arrival pops) and returns the median ns per operation.
fn equeue_ns_per_op(arrivals: &[Arrival], spans: &mut Spans) -> f64 {
    const END: u32 = 1 << 31;
    let mut per_op = Vec::new();
    for _ in 0..EQUEUE_REPS {
        let t0 = Instant::now();
        let mut q: EventQueue<u32> = EventQueue::with_capacity(arrivals.len());
        let mut ops = 0u64;
        for (i, a) in arrivals.iter().enumerate() {
            q.push(SimTime(a.at), i as u32);
            ops += 1;
        }
        let mut sum = 0u64;
        while let Some(e) = q.pop() {
            ops += 1;
            sum = sum.wrapping_add(e.at.ticks());
            if e.item & END == 0 {
                let a = &arrivals[e.item as usize];
                q.push(SimTime(a.at + a.duration), e.item | END);
                ops += 1;
            }
        }
        std::hint::black_box(sum);
        let dt = t0.elapsed();
        spans.leaf(0, "equeue.replay", t0, t0 + dt);
        per_op.push(dt.as_nanos() as f64 / ops as f64);
    }
    median(&per_op)
}

/// A benchmark-owned trace sink: checks Theorem 1 (no channel in use twice
/// within an interference region) from the `Acquired`/`Released` stream
/// alone, and counts the adaptive scheme's borrow events.
pub struct RegionSink {
    ledger: Ledger,
    pub borrow_attempts: u64,
    pub search_fallbacks: u64,
    pub mode_changes: u64,
}

impl RegionSink {
    pub fn new(topo: Arc<Topology>) -> Self {
        RegionSink {
            ledger: Ledger::new(topo),
            borrow_attempts: 0,
            search_fallbacks: 0,
            mode_changes: 0,
        }
    }

    /// Whether the stream was non-empty, interference-free, and every
    /// acquisition was released by quiescence.
    pub fn verdict(&self, name: &str) -> Result<(), String> {
        self.ledger.verdict().map_err(|e| format!("{name}: {e}"))
    }
}

impl TraceSink for RegionSink {
    fn enabled(&self) -> bool {
        true
    }

    fn record(&mut self, _at: SimTime, ev: TraceEvent) {
        match ev {
            TraceEvent::Acquired {
                cell, ch: Some(ch), ..
            } => self.ledger.grant(cell, ch),
            TraceEvent::Released { cell, ch, .. } => self.ledger.free(cell, ch),
            TraceEvent::BorrowAttempt { .. } => self.borrow_attempts += 1,
            TraceEvent::SearchFallback { .. } => self.search_fallbacks += 1,
            TraceEvent::ModeTransition { .. } => self.mode_changes += 1,
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adca_hexgrid::{CellId, Channel};

    fn small() -> (Scenario, Arc<Topology>, Vec<Arrival>) {
        let mut sc = Scenario::uniform(0.9, 20_000).with_grid(6, 6).with_seed(3);
        sc.audit = AuditMode::Record;
        let topo = sc.topology();
        let arrivals = sc.arrivals(&topo);
        (sc, topo, arrivals)
    }

    #[test]
    fn fixed_check_accepts_the_engine_and_rejects_a_wrong_count() {
        let (sc, topo, arrivals) = small();
        let expected = loss_system_grants(&topo, &arrivals);
        let rep = sc.run_with(SchemeKind::Fixed, topo, arrivals).report;
        assert!(rep.dropped_new > 0, "the input must block some calls");
        check_fixed(&rep, expected).unwrap();
        assert!(check_fixed(&rep, expected + 1).is_err());
        let mut chatty = rep.clone();
        chatty.messages_total = 1;
        assert!(check_fixed(&chatty, expected).is_err());
    }

    #[test]
    fn loss_replay_keeps_a_call_busy_through_its_end_tick() {
        let topo = Topology::builder(6, 6).channels(7).build(); // one primary per cell
        let c = CellId(0);
        let arrivals = vec![
            Arrival::new(0, c, 10), // granted, ends at 10
            Arrival::new(10, c, 5), // tie with that end: blocked
            Arrival::new(11, c, 5), // channel free again: granted
        ];
        assert_eq!(topo.primary(c).len(), 1);
        assert_eq!(loss_system_grants(&topo, &arrivals), 2);
        let rep = scenario(1)
            .run_with(SchemeKind::Fixed, Arc::new(topo), arrivals)
            .report;
        assert_eq!(rep.granted, 2);
    }

    #[test]
    fn conservation_check_rejects_a_lost_call() {
        let (sc, topo, arrivals) = small();
        let rep = sc.run_with(SchemeKind::Adaptive, topo, arrivals).report;
        check_conservation("adaptive", &rep).unwrap();
        let mut lost = rep.clone();
        lost.granted -= 1;
        assert!(check_conservation("adaptive", &lost).is_err());
        let mut unfinished = rep.clone();
        unfinished.completed_calls -= 1;
        assert!(check_conservation("adaptive", &unfinished).is_err());
        assert!(check_conservation("empty", &SimReport::default()).is_err());
    }

    #[test]
    fn repeated_passes_compare_equal_and_a_changed_report_does_not() {
        let (sc, topo, arrivals) = small();
        let a = sc
            .run_with(SchemeKind::BasicSearch, topo.clone(), arrivals.clone())
            .report;
        let b = sc.run_with(SchemeKind::BasicSearch, topo, arrivals).report;
        assert_eq!(a, b);
        let mut c = b.clone();
        c.messages_total += 1;
        assert_ne!(a, c);
    }

    #[test]
    fn region_sink_passes_every_scheme_and_catches_a_co_channel_grant() {
        let (sc, topo, arrivals) = small();
        for kind in SchemeKind::ALL {
            let (_, sink) = sc.run_with_sink(
                kind,
                topo.clone(),
                arrivals.clone(),
                RegionSink::new(topo.clone()),
            );
            sink.verdict(kind.name()).unwrap();
        }
        let mut sink = RegionSink::new(topo.clone());
        let a = CellId(7);
        let b = topo.region(a)[0];
        let ch = Channel(3);
        let acquired = |cell| TraceEvent::Acquired {
            cell,
            ch: Some(ch),
            via: adca_simkit::AcqPath::Local,
            borrowed: false,
        };
        sink.record(SimTime(1), acquired(a));
        sink.record(SimTime(2), acquired(b));
        assert!(sink.verdict("fake").is_err());
        // Vacuous streams fail too.
        assert!(RegionSink::new(topo).verdict("empty").is_err());
    }
}
