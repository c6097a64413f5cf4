//! Seconds-long smoke runs of every workload at a few hundred jobs: each
//! settles with a balanced ledger, repeats its digest, and the traced
//! variant reports every per-layer metric without changing the outcome.

use gridbench::layers;
use gridbench::workloads::{run, setup, Workload, ALL};

const JOBS: u64 = 400;

/// Run `workload` small; returns (digest, layer metrics when traced).
fn smoke(
    workload: Workload,
    seed: u64,
    shards: usize,
    traced: bool,
) -> (u64, Option<std::collections::BTreeMap<String, f64>>) {
    let mut plan = setup(workload, seed, JOBS, shards);
    let spans = traced.then(|| plan.instrument());
    run(&mut plan);
    let report = plan.ledger.borrow().report();
    assert!(report.balanced(), "{}: {report:?}", workload.name());
    assert_eq!(report.submitted, JOBS, "{}", workload.name());
    assert_eq!(report.turnaround_s.len() as u64, JOBS);
    assert!(report.makespan_s > 0.0);
    let layer_metrics = spans.map(|s| layers::collect(&plan.tb.world, &s.borrow(), &report, 1.0));
    (report.digest, layer_metrics)
}

#[test]
fn every_workload_settles_deterministically() {
    for w in ALL {
        let (a, _) = smoke(w, 3, 1, false);
        let (b, _) = smoke(w, 3, 1, false);
        assert_eq!(
            a,
            b,
            "{}: digest differs between runs of one seed",
            w.name()
        );
        let (c, _) = smoke(w, 4, 1, false);
        assert_ne!(a, c, "{}: the seed does not reach the inputs", w.name());
    }
}

#[test]
fn tracing_does_not_change_outcomes_and_reports_every_layer() {
    for w in ALL {
        let (plain, _) = smoke(w, 5, 1, false);
        let (traced, layer_metrics) = smoke(w, 5, 1, true);
        assert_eq!(plain, traced, "{}: tracing changed the outcome", w.name());
        let m = layer_metrics.expect("traced run");
        for layer in layers::HANDLER_LAYERS {
            assert!(m.contains_key(&format!("{layer}.busy_s")), "{layer}");
        }
        assert!(m["gridsim.world.events"] > 0.0);
        assert!(m["gridbench.driver.handlers"] > 0.0);
        assert!(m["span.auth_p50_s"] > 0.0 || w == Workload::GlideinPool);
    }
}

#[test]
fn shard_count_does_not_change_the_grid_campaign_digest() {
    let (one, _) = smoke(Workload::GridCampaign, 6, 1, false);
    let (two, _) = smoke(Workload::GridCampaign, 6, 2, false);
    assert_eq!(one, two);
}
