//! Theorem 1 ledger: no channel in use twice within an interference
//! region, checked over the topology's regions from grants and frees alone.
//!
//! `wire-mix` feeds it the client's view of the serving path, and the
//! `des-schemes` trace sink feeds it the engine's `Acquired`/`Released`
//! stream.

use adca_hexgrid::{CellId, Channel, ChannelSet, Topology};
use std::sync::Arc;

/// Channels held per cell, with the first problems seen.
pub struct Ledger {
    topo: Arc<Topology>,
    held: Vec<ChannelSet>,
    pub grants: u64,
    problems: Vec<String>,
}

impl Ledger {
    pub fn new(topo: Arc<Topology>) -> Self {
        let held = vec![topo.spectrum().empty_set(); topo.num_cells()];
        Ledger {
            topo,
            held,
            grants: 0,
            problems: Vec::new(),
        }
    }

    fn problem(&mut self, p: String) {
        if self.problems.len() < 5 {
            self.problems.push(p);
        }
    }

    /// Whether `(cell, ch)` names a real cell and channel.
    fn valid(&self, cell: CellId, ch: Channel) -> bool {
        cell.index() < self.held.len() && ch.0 < self.held[0].capacity()
    }

    pub fn grant(&mut self, cell: CellId, ch: Channel) {
        if !self.valid(cell, ch) {
            self.problem(format!("grant of {ch} at {cell} is outside the topology"));
            return;
        }
        self.grants += 1;
        if self.held[cell.index()].contains(ch) {
            self.problem(format!("{cell} granted {ch} twice"));
        }
        let clash = self
            .topo
            .region(cell)
            .iter()
            .find(|j| self.held[j.index()].contains(ch))
            .copied();
        if let Some(j) = clash {
            self.problem(format!("{cell} granted {ch} while {j} holds it"));
        }
        self.held[cell.index()].insert(ch);
    }

    pub fn free(&mut self, cell: CellId, ch: Channel) {
        if !self.valid(cell, ch) || !self.held[cell.index()].remove(ch) {
            self.problem(format!("{cell} freed {ch} it did not hold"));
        }
    }

    /// Clean, non-vacuous, and nothing left held at the end.
    pub fn verdict(&self) -> Result<(), String> {
        if let Some(p) = self.problems.first() {
            return Err(format!("Theorem 1 ledger: {p}"));
        }
        if self.grants == 0 {
            return Err("Theorem 1 ledger: no grant was observed".into());
        }
        if let Some(c) = self.held.iter().position(|s| !s.is_empty()) {
            return Err(format!("Theorem 1 ledger: cell {c} still holds a channel"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use adca_harness::Scenario;

    #[test]
    fn ledger_catches_a_co_channel_grant_and_a_leak() {
        let t = Scenario::uniform(0.9, 1).with_grid(12, 12).topology();
        let a = CellId(40);
        let b = t.region(a)[0];
        let far = t.cells().find(|&c| c != a && !t.in_region(a, c)).unwrap();
        let ch = Channel(5);

        let mut ok = Ledger::new(t.clone());
        ok.grant(a, ch);
        ok.grant(far, ch); // reuse outside the region is allowed
        ok.free(a, ch);
        ok.grant(b, ch); // freed before the neighbour's grant
        ok.free(b, ch);
        ok.free(far, ch);
        ok.verdict().unwrap();

        let mut clash = Ledger::new(t.clone());
        clash.grant(a, ch);
        clash.grant(b, ch);
        assert!(clash.verdict().is_err());

        let mut twice = Ledger::new(t.clone());
        twice.grant(a, ch);
        twice.free(a, ch);
        twice.free(a, ch);
        assert!(twice.verdict().is_err());

        let mut leak = Ledger::new(t.clone());
        leak.grant(a, ch);
        assert!(leak.verdict().is_err());

        let mut bogus = Ledger::new(t.clone());
        bogus.grant(CellId(10_000), ch);
        assert!(bogus.verdict().is_err());

        assert!(
            Ledger::new(t).verdict().is_err(),
            "a ledger that saw nothing must fail"
        );
    }
}
