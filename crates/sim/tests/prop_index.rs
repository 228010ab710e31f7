//! The indexed `MachineQuery` backend against a scan of view primitives
//! (DESIGN.md §13), over the shared scenario, whose churn moves machines
//! between buckets and whose constraints and taints give the §16 predicate
//! something to filter. After every call of a run, on both backends, each
//! answer is recomputed from the view: envelopes and `fits_constrained`
//! exactly, floor candidates as a sorted, considered superset of the
//! machines that meet the floors. And a draw runs identically with the
//! index on and off.

use std::cell::Cell;
use std::rc::Rc;

use tetris_resources::{units::GB, Resource, ResourceVec};
use tetris_sim::{ClusterView, MachineId};
use tetris_testkit::{check_invariants, forall, same_outcome, Audited};

/// Recompute every query answer of `view` from its primitives; returns
/// how many active jobs carried constraints.
fn audit_queries(view: &ClusterView<'_>, indexed: bool) -> usize {
    let query = view.query();
    assert_eq!(query.indexed(), indexed, "audit run on the wrong backend");
    let considered: Vec<MachineId> = query
        .iter_all()
        .filter(|&m| !view.is_down(m) && !view.is_suspect(m))
        .collect();
    assert_eq!(query.considered_count(), considered.len());

    let mut cap_env = ResourceVec::zero();
    let mut avail_env = ResourceVec::zero();
    for &m in &considered {
        cap_env = cap_env.max(&view.capacity(m));
        avail_env = avail_env.max(&view.available(m).clamp_non_negative());
    }
    assert_eq!(query.capacity_envelope(), cap_env, "capacity envelope");
    assert_eq!(
        query.availability_envelope(),
        avail_env,
        "availability envelope must be exact, not a bound"
    );

    // Probe demands bracket the envelope, so pruned and unpruned shapes
    // both occur.
    let probes = [
        ResourceVec::zero(),
        ResourceVec::splat(0.25),
        avail_env * 0.5,
        avail_env * 1.5,
        cap_env,
    ];
    let mut constrained = 0;
    for j in view.active_jobs() {
        let cons = view.job_constraints(j);
        constrained += usize::from(cons.has_any());
        for d in &probes {
            let oracle: Vec<MachineId> = considered
                .iter()
                .copied()
                .filter(|&m| d.fits_within(&view.available(m)) && view.constraints_allow(j, m))
                .collect();
            assert_eq!(
                query.fits_constrained(d, j, cons),
                oracle,
                "fits_constrained({d:?}, {j:?}, {cons:?}), indexed {indexed}, available {:?}",
                oracle
                    .iter()
                    .map(|&m| view.available(m))
                    .collect::<Vec<_>>()
            );
        }
    }

    for (fc, fm) in [
        (0.0, 0.0),
        (1.0, GB),
        (avail_env.get(Resource::Cpu), avail_env.get(Resource::Mem)),
    ] {
        let mut got = Vec::new();
        query.floor_candidates_into(fc, fm, &mut got);
        assert!(got.windows(2).all(|w| w[0] < w[1]), "sorted ascending");
        for &m in &got {
            assert!(
                considered.contains(&m),
                "floor result {m:?} must be considered"
            );
        }
        for &m in &considered {
            let a = view.available(m);
            if a.get(Resource::Cpu) >= fc && a.get(Resource::Mem) >= fm {
                assert!(
                    got.contains(&m),
                    "{m:?} meets floors ({fc}, {fm}) but was pruned"
                );
            }
        }
    }
    constrained
}

#[test]
fn queries_match_a_scan_of_the_view() {
    let constrained = Rc::new(Cell::new(0));
    forall("queries_match_a_scan_of_the_view", 8, |mut s| {
        for indexed in [true, false] {
            s.cfg.machine_index = indexed;
            let seen = Rc::clone(&constrained);
            let policy = Audited::new(s.policy(), move |_, view, _| {
                seen.set(seen.get() + audit_queries(view, indexed));
            });
            check_invariants(&s, &s.run_with(policy));
        }
    });
    assert!(constrained.get() > 0, "no constrained job was ever audited");
}

#[test]
fn index_on_and_off_agree() {
    forall("index_on_and_off_agree", 8, |mut s| {
        s.cfg.machine_index = true;
        let on = s.run();
        s.cfg.machine_index = false;
        same_outcome(&on, &s.run());
    });
}
