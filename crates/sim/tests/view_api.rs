//! Tests of the scheduler-facing `ClusterView` API, via a capture policy.

use tetris_resources::{units::GB, MachineSpec};
use tetris_sim::{Assignment, ClusterConfig, ClusterView, SchedulerPolicy, Simulation};
use tetris_workload::{JobId, TaskParams, TaskUid, Workload, WorkloadBuilder};

/// Policy that inspects the view on its first invocation and records what
/// it saw, then delegates to greedy placement.
struct Capture {
    seen: Option<CaptureData>,
}

struct CaptureData {
    pending_stages: Vec<(usize, Vec<TaskUid>)>,
    representative: Option<TaskUid>,
    rep_locked: Option<TaskUid>,
    ages_zero: bool,
    family: Option<String>,
}

impl SchedulerPolicy for Capture {
    fn name(&self) -> &str {
        "capture"
    }

    fn schedule(&mut self, view: &ClusterView<'_>) -> Vec<Assignment> {
        if self.seen.is_none() && view.active_jobs().next().is_some() {
            let j = JobId(0);
            self.seen = Some(CaptureData {
                pending_stages: view
                    .job_pending_stages(j)
                    .map(|(si, s)| (si, s.to_vec()))
                    .collect(),
                representative: view.stage_representative(j, 0).map(|t| t.uid),
                rep_locked: view.stage_representative(j, 1).map(|t| t.uid),
                ages_zero: view
                    .stage_pending_slice(j, 0)
                    .iter()
                    .all(|&t| view.task_pending_age(t) == 0.0),
                family: view.job_family(j).map(str::to_string),
            });
        }
        // Place everything greedily so the run completes.
        let query = view.query();
        let mut avail: Vec<_> = query.iter_all().map(|m| view.available(m)).collect();
        let mut out = Vec::new();
        for j in view.active_jobs() {
            for (_, slice) in view.job_pending_stages(j) {
                for &t in slice {
                    for m in query.iter_all() {
                        let plan = view.plan(t, m);
                        if plan.local.fits_within(&avail[m.index()]) {
                            avail[m.index()] -= plan.local;
                            out.push(Assignment::new(t, m));
                            break;
                        }
                    }
                }
            }
        }
        out
    }
}

fn workload() -> Workload {
    let mut b = WorkloadBuilder::new();
    let j = b.begin_job("j", Some("fam-x".into()), 0.0);
    b.add_stage(j, "map", vec![], 3, |_| TaskParams {
        cores: 1.0,
        mem: GB,
        duration: 5.0,
        cpu_frac: 1.0,
        io_burst: 1.0,
        inputs: vec![],
        output_bytes: 1e6,
        remote_frac: 1.0,
    });
    b.add_stage(j, "reduce", vec![0], 2, |_| TaskParams {
        cores: 1.0,
        mem: GB,
        duration: 5.0,
        cpu_frac: 1.0,
        io_burst: 1.0,
        inputs: vec![tetris_workload::InputSpec {
            source: tetris_workload::InputSource::Shuffle { stage: 0 },
            bytes: 1.5e6,
        }],
        output_bytes: 0.0,
        remote_frac: 1.0,
    });
    b.finish()
}

#[test]
fn view_exposes_stages_representatives_and_families() {
    // Run via a shared-state trick: box the policy, then inspect through a
    // static — simpler: run and re-create expectations from the outcome.
    struct Holder(std::rc::Rc<std::cell::RefCell<Capture>>);
    impl SchedulerPolicy for Holder {
        fn name(&self) -> &str {
            "holder"
        }
        fn schedule(&mut self, view: &ClusterView<'_>) -> Vec<Assignment> {
            self.0.borrow_mut().schedule(view)
        }
    }
    let cap = std::rc::Rc::new(std::cell::RefCell::new(Capture { seen: None }));
    let outcome = Simulation::build(
        ClusterConfig::uniform(2, MachineSpec::paper_small()),
        workload(),
    )
    .scheduler(Holder(cap.clone()))
    .run();
    assert!(outcome.all_jobs_completed());

    let cap = cap.borrow();
    let seen = cap.seen.as_ref().expect("policy was invoked");
    // Only the map stage has pending tasks at first invocation.
    assert_eq!(seen.pending_stages.len(), 1);
    assert_eq!(seen.pending_stages[0].0, 0);
    assert_eq!(
        seen.pending_stages[0].1,
        vec![TaskUid(0), TaskUid(1), TaskUid(2)]
    );
    // Representative of the unlocked stage = its first pending task;
    // of the locked reduce stage = the stage's first task.
    assert_eq!(seen.representative, Some(TaskUid(0)));
    assert_eq!(seen.rep_locked, Some(TaskUid(3)));
    // Tasks just became runnable: zero pending age.
    assert!(seen.ages_zero);
    assert_eq!(seen.family.as_deref(), Some("fam-x"));
}
