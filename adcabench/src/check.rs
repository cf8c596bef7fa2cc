//! `check-adaptive`: breadth-first exhaustion of the hardened adaptive
//! core on a 3-cell strip with one message loss and one duplication
//! allowed (e16's `adaptive+hard/3-cell 1/1/0/0` row).
//!
//! One round is two explorations: the hardened model, which must exhaust
//! with no defect, and the `SkipOweGate` mutant, whose counterexample
//! `Model::replay` must reproduce — so a checker that stops finding bugs
//! fails the run. The model has no random input, so the seed changes
//! nothing here; it is accepted for a uniform command line.

use crate::spans::Spans;
use crate::{alloc, cpu_per_rep, host, median, peak_rss_mib, Args, Outcome};
use adca_checker::{Budgets, CheckOutcome, Model, Op};
use adca_core::{AdaptiveConfig, AdaptiveNode, Mutation};
use adca_hexgrid::{ReusePattern, Topology};
use std::sync::Arc;
use std::time::Instant;

/// Response deadline of the hardened core (the checker's clock is frozen;
/// arming the timers is what matters).
const DEADLINE: u64 = 400;
/// A backstop: the hardened row exhausts near 2·10⁵ states.
const MAX_STATES: usize = 4_000_000;
/// Model constructions per set-up sample (one takes microseconds).
const SETUP_BATCH: usize = 20_000;
/// Set-up samples (CPU seconds per construction) before the first round,
/// and after each round: a construction takes microseconds, so samples
/// from one moment of the run would show the host at that moment.
/// `setup_s` is the median of all of them.
const SETUP_REPS: usize = 15;
const SETUP_REPS_PER_ROUND: usize = 5;

/// A 1×n strip with 3-cell reuse at radius 1.
fn strip(cells: u32, channels: u16) -> Arc<Topology> {
    Arc::new(
        Topology::builder(1, cells)
            .channels(channels)
            .pattern(ReusePattern::three_cell())
            .interference_radius(1)
            .build(),
    )
}

fn hardened(topo: Arc<Topology>) -> Model<AdaptiveNode> {
    Model::new(topo, |cell, t| {
        AdaptiveNode::new(
            cell,
            t,
            AdaptiveConfig {
                retry_ticks: Some(DEADLINE),
                ..AdaptiveConfig::default()
            },
        )
    })
    .with_uniform_script(&[Op::StartCall, Op::EndCall])
    .with_budgets(Budgets {
        losses: 1,
        dups: 1,
        crashes: 0,
        partitions: 0,
    })
    .with_max_states(MAX_STATES)
}

/// The seeded defect: without the owe gate, a crash/restart opens a
/// co-channel race on two cells.
fn mutant() -> Model<AdaptiveNode> {
    Model::new(strip(2, 2), |cell, t| {
        AdaptiveNode::new(
            cell,
            t,
            AdaptiveConfig {
                mutation: Some(Mutation::SkipOweGate),
                ..AdaptiveConfig::default()
            },
        )
    })
    .with_uniform_script(&[Op::StartCall])
    .with_budgets(Budgets {
        losses: 0,
        dups: 0,
        crashes: 1,
        partitions: 0,
    })
}

/// The hardened exploration must be a proof: finished, defect-free, and
/// not vacuous.
pub fn check_exhaustive(out: &CheckOutcome) -> Result<(), String> {
    if let Some(cex) = &out.violation {
        return Err(format!(
            "hardened adaptive: {} after {} choices",
            cex.defect,
            cex.schedule.len()
        ));
    }
    if out.truncated {
        return Err(format!(
            "hardened adaptive: state cap hit at {} states",
            out.states
        ));
    }
    if out.states < 2 || out.terminals == 0 {
        return Err(format!(
            "hardened adaptive: vacuous exploration ({} states, {} terminals)",
            out.states, out.terminals
        ));
    }
    Ok(())
}

/// The mutant must yield a counterexample that replays to the same defect.
pub fn check_mutant(model: &Model<AdaptiveNode>, out: &CheckOutcome) -> Result<(), String> {
    let Some(cex) = &out.violation else {
        return Err("SkipOweGate mutant: no counterexample found".into());
    };
    let replay = model.replay(&cex.schedule);
    if replay.defect.as_ref() != Some(&cex.defect) {
        return Err(format!(
            "SkipOweGate mutant: replay gave {:?}, exploration found {}",
            replay.defect, cex.defect
        ));
    }
    Ok(())
}

/// CPU seconds of one strip build and of one construction of both models
/// (their topologies included), each the mean over a batch.
fn setup_sample() -> (f64, f64) {
    let (per_topo, _) = cpu_per_rep(SETUP_BATCH, || strip(3, 3));
    let (per_setup, _) = cpu_per_rep(SETUP_BATCH, || (hardened(strip(3, 3)), mutant()));
    (per_topo, per_setup)
}

pub fn run(args: &Args, spans: &mut Spans) -> Result<Outcome, String> {
    let mut out = Outcome::default();

    let setup_span = spans.id();
    let setup_start = Instant::now();
    let mut setup_s = Vec::new();
    let mut topo_s = Vec::new();
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        let (per_topo, per_setup) = setup_sample();
        spans.leaf(setup_span, "checker.model_new", t0, Instant::now());
        topo_s.push(per_topo);
        setup_s.push(per_setup);
    }
    let model = hardened(strip(3, 3));
    let bad = mutant();
    spans.record(setup_span, 0, "setup", setup_start, Instant::now());

    let mut check_s = Vec::new();
    let mut states_per_s = Vec::new();
    let mut cpu_us_per_state = Vec::new();
    let mut ns_per_transition = Vec::new();
    let mut first: Option<CheckOutcome> = None;
    if args.trace {
        alloc::enable();
    }
    let mut heap_growth = 0;
    let started = Instant::now();
    // Rounds take seconds each, so none starts that would end past
    // `--seconds` at the pace so far.
    while check_s.is_empty()
        || started.elapsed().as_secs_f64() + median(&check_s) <= args.seconds
    {
        let round = spans.id();
        alloc::reset();
        let c0 = host::cpu_s();
        let t0 = Instant::now();
        let res = model.explore();
        let dt = t0.elapsed();
        let cpu = host::cpu_s() - c0;
        heap_growth = heap_growth.max(alloc::peak_growth());
        spans.leaf(round, "checker.explore", t0, t0 + dt);
        out.attempted += 1;
        check_s.push(dt.as_secs_f64());
        states_per_s.push(res.states as f64 / dt.as_secs_f64());
        cpu_us_per_state.push(cpu * 1e6 / res.states.max(1) as f64);
        ns_per_transition.push(cpu * 1e9 / res.transitions.max(1) as f64);
        out.expect(check_exhaustive(&res));
        if let Some(f) = &first {
            out.check(
                (f.states, f.transitions, f.terminals)
                    == (res.states, res.transitions, res.terminals),
                || "a repeated exploration visited a different space".into(),
            );
        } else {
            first = Some(res);
        }

        let t1 = Instant::now();
        let res = bad.explore();
        out.attempted += 1;
        out.expect(check_mutant(&bad, &res));
        spans.leaf(round, "checker.mutant", t1, Instant::now());
        for _ in 0..SETUP_REPS_PER_ROUND {
            let t2 = Instant::now();
            let (per_topo, per_setup) = setup_sample();
            spans.leaf(round, "checker.model_new", t2, Instant::now());
            topo_s.push(per_topo);
            setup_s.push(per_setup);
        }
        spans.record(round, 0, "round", t0, Instant::now());
    }

    let f = first.expect("one exploration ran");
    out.detail("check_s", median(&check_s), "s");
    out.detail("ops_per_s", median(&states_per_s), "1/s");
    out.detail("check.states", f.states as f64, "count");
    out.detail("check.transitions", f.transitions as f64, "count");
    if !args.trace {
        out.metric("setup_s", median(&setup_s), "s");
        out.metric("peak_rss_mib", peak_rss_mib()?, "MiB");
        out.metric("cpu_us_per_op", median(&cpu_us_per_state), "us");
    } else {
        out.metric("host.probe_ms", host::probe_ms(), "ms");
        out.metric("hexgrid.topology_s", median(&topo_s), "s");
        out.metric("inputs.generate_s", median(&setup_s), "s");
        out.metric(
            "core.steps_per_op",
            f.transitions as f64 / f.states.max(1) as f64,
            "count",
        );
        out.metric("core.ns_per_step", median(&ns_per_transition), "ns");
        out.metric(
            "mem.heap_growth_mib",
            heap_growth as f64 / (1024.0 * 1024.0),
            "MiB",
        );
        // Against the untraced `cpu_us_per_op`: what the spans and the
        // allocation counter cost.
        out.metric("trace.cpu_us_per_op", median(&cpu_us_per_state), "us");
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exhaustive_check_rejects_defects_truncation_and_vacuity() {
        let small = Model::new(strip(2, 3), |cell, t| {
            AdaptiveNode::new(cell, t, AdaptiveConfig::default())
        })
        .with_uniform_script(&[Op::StartCall, Op::EndCall]);
        let ok = small.explore();
        check_exhaustive(&ok).unwrap();

        let mut cut = ok.clone();
        cut.truncated = true;
        assert!(check_exhaustive(&cut).is_err());

        let mut empty = ok.clone();
        empty.states = 1;
        empty.terminals = 0;
        assert!(check_exhaustive(&empty).is_err());

        let bad = mutant();
        let found = bad.explore();
        assert!(check_exhaustive(&found).is_err());
    }

    #[test]
    fn mutant_check_needs_a_reproducible_counterexample() {
        let bad = mutant();
        let found = bad.explore();
        check_mutant(&bad, &found).unwrap();

        // A clean outcome is not a counterexample.
        let clean = hardened(strip(2, 3)).explore();
        assert!(check_mutant(&bad, &clean).is_err());

        // A schedule that does not reproduce its defect is rejected.
        let mut wrong = found.clone();
        let cex = wrong.violation.as_mut().unwrap();
        cex.schedule.0.truncate(1);
        assert!(check_mutant(&bad, &wrong).is_err());
    }
}
