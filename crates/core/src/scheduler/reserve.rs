//! Starvation prevention by reservation, the paper's §3.5 future-work item
//! (`TetrisConfig::starvation`).

use tetris_sim::{Assignment, ClusterView, MachineId};

use super::bans::visible;
use super::TetrisScheduler;

impl TetrisScheduler {
    /// Reservations lapse when their task was placed or finished, or when
    /// their machine no longer admits it: anti-affinity and spread change
    /// over time (§16), so a machine that once admitted the task may not.
    pub(super) fn lapse_reservations(&mut self, view: &ClusterView<'_>) {
        let ledger = &self.ledger;
        self.reservations
            .retain(|&(m, t)| view.is_runnable(t) && ledger.allows(view, view.task_stage(t).0, m));
    }

    /// A machine reserved for a starved task accepts only that task: place
    /// it if it fits now. True when `m` is reserved, whether or not the
    /// task fit.
    pub(super) fn redeem(
        &mut self,
        view: &ClusterView<'_>,
        m: MachineId,
        out: &mut Vec<Assignment>,
    ) -> bool {
        let Some(&(_, starved)) = self.reservations.iter().find(|&&(rm, _)| rm == m) else {
            return false;
        };
        #[cfg(test)]
        self.planned.push((starved, m));
        if self.ledger.try_place(view, starved, m).is_ok() {
            // Reservation redemptions are placed by right, not by score —
            // no DecisionScores to attach.
            out.push(Assignment::new(starved, m));
            // Consume the matching candidate head if present so the task
            // is not double-placed this round.
            for ci in 0..self.cands.list.len() {
                if self.cands.list[ci].head(view) == Some(starved) {
                    self.advance(view, ci);
                }
            }
            self.reservations.retain(|&(rm, _)| rm != m);
        }
        true
    }

    /// Starvation detection: a head task pending past the patience
    /// threshold gets a machine reserved — among the machines it fits when
    /// empty and its job's constraints admit, the one where its demand
    /// shortfall is smallest — so churn of small tasks can no longer
    /// starve it.
    pub(super) fn reserve_starved(&mut self, view: &ClusterView<'_>) {
        let Some(sc) = self.cfg.starvation else {
            return;
        };
        let io = self.cfg.consider_io_dims;
        for c in self.cands.list.iter() {
            if self.reservations.len() >= sc.max_reservations {
                break;
            }
            let Some(head) = c.head(view) else { continue };
            if view.task_pending_age(head) < sc.patience
                || self.reservations.iter().any(|&(_, t)| t == head)
            {
                continue;
            }
            let own = visible(io, &view.task(head).demand);
            let demand = visible(io, &c.demand);
            let mut best: Option<(MachineId, f64)> = None;
            for m in view.query().iter_all() {
                // Never reserve a dead or suspect machine (no-op without
                // fault injection), one the task could not fit even empty,
                // or one its job's constraints refuse.
                let cap = view.capacity(m);
                if self.reservations.iter().any(|&(rm, _)| rm == m)
                    || view.is_down(m)
                    || view.is_suspect(m)
                    || !own.fits_within(&cap)
                    || !self.ledger.allows(view, c.job, m)
                {
                    continue;
                }
                // Shortfall: worst normalized gap between demand and
                // current availability (0 ⇒ it already fits).
                let a = visible(io, &self.ledger.available(view, m));
                let short = (demand - a).clamp_non_negative();
                let gap = short.normalized_by(&cap).max_component();
                if best.is_none_or(|(_, bg)| gap < bg) {
                    best = Some((m, gap));
                }
            }
            if let Some((m, _)) = best {
                self.reservations.push((m, head));
            }
        }
    }
}
