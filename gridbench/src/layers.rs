//! Per-layer metrics of a traced run: the kernel profiler's component
//! groups mapped onto the repository's crates and modules, plus layer
//! counters from the world's metrics and span waits from a
//! `SpanCollector`.
//!
//! Names are `<crate>.<module>.<metric>`. Wall time of the run phase is
//! attributed as kernel self time (`gridsim.world.self_s`) plus each
//! layer's handler busy time; groups no layer claims land in
//! `gridsim.world.unattributed_busy_s`, so the parts always add up.

use crate::ledger::LedgerReport;
use crate::stats::{quantile, self_time, useful_ratio};
use condor_g_suite::gridsim::obs::SpanCollector;
use condor_g_suite::gridsim::World;
use std::collections::BTreeMap;

/// Layers that report `.handlers` and `.busy_s`, in report order.
pub const HANDLER_LAYERS: [&str; 15] = [
    "core.gridmanager",
    "core.scheduler",
    "gram.jobmanager",
    "gram.gatekeeper",
    "site.lrm",
    "gass.server",
    "condor.collector",
    "condor.negotiator",
    "condor.schedd",
    "condor.shadow",
    "condor.startd",
    "condor.ckpt",
    "mds",
    "core.glidein",
    "gridbench.driver",
];

/// The layer a profiler component group belongs to, or `None` for groups
/// outside the table (the mailer, MyProxy). Groups are registered
/// component names with instance suffixes stripped (`jm-jc…` → `jm-jc`).
pub fn layer_of(group: &str) -> Option<&'static str> {
    Some(match group {
        "gridmanager" => "core.gridmanager",
        "scheduler" => "core.scheduler",
        "jm-jc" => "gram.jobmanager",
        "gatekeeper" => "gram.gatekeeper",
        "lrm" => "site.lrm",
        "gass" => "gass.server",
        "collector" => "condor.collector",
        "negotiator" => "condor.negotiator",
        "schedd" => "condor.schedd",
        "ckpt-server" => "condor.ckpt",
        "giis" | "gris" => "mds",
        "glidein-factory" => "core.glidein",
        // The benchmark's own submitter (`ledger::BenchDriver`); no
        // workload runs the library's `workloads::campaign` driver.
        "campaign" => "gridbench.driver",
        // Shadows are spawned per job (`shadow-<job>`); a glidein is a
        // startd named after its site (`glidein-<site>-<n>`).
        g if g.starts_with("shadow") => "condor.shadow",
        g if g == "startd" || g.starts_with("glidein-") => "condor.startd",
        _ => return None,
    })
}

/// Sum profiler groups into layers: `(handlers, busy seconds)` per layer,
/// plus the busy seconds of groups no layer claims.
pub fn fold_groups<'a>(
    groups: impl IntoIterator<Item = (&'a str, u64, f64)>,
) -> (BTreeMap<&'static str, (u64, f64)>, f64) {
    let mut layers: BTreeMap<&'static str, (u64, f64)> =
        HANDLER_LAYERS.iter().map(|&l| (l, (0, 0.0))).collect();
    let mut unattributed = 0.0;
    for (group, handlers, busy) in groups {
        match layer_of(group) {
            Some(layer) => {
                let e = layers.entry(layer).or_default();
                e.0 += handlers;
                e.1 += busy;
            }
            None => unattributed += busy,
        }
    }
    (layers, unattributed)
}

/// Median duration in seconds of one span phase across every attempt.
fn span_p50(spans: &SpanCollector, phase: &str) -> f64 {
    let mut d: Vec<f64> = spans
        .jobs()
        .values()
        .flat_map(|j| j.attempts.iter())
        .flat_map(|a| a.phase_durations())
        .filter(|(p, _)| p.name() == phase)
        .map(|(_, d)| d.as_secs_f64())
        .collect();
    d.sort_by(f64::total_cmp);
    quantile(&d, 0.5).unwrap_or(0.0)
}

/// Every per-layer metric of a traced run whose run phase took `wall_s`.
pub fn collect(
    world: &World,
    spans: &SpanCollector,
    ledger: &LedgerReport,
    wall_s: f64,
) -> BTreeMap<String, f64> {
    let mut out: BTreeMap<String, f64> = BTreeMap::new();
    let mut put = |name: &str, v: f64| {
        out.insert(name.to_string(), v);
    };
    let m = world.metrics();
    let c = |name: &str| m.counter(name);
    let jobs = ledger.submitted.max(1) as f64;
    let profiler = world
        .profiler()
        .expect("traced runs enable the kernel profiler");

    // Kernel.
    let kinds = profiler.event_kinds();
    let kind = |k: &str| kinds.get(k).copied().unwrap_or(0);
    let events = profiler.events_seen();
    let busy = profiler.handler_busy().as_secs_f64();
    put("gridsim.world.events", events as f64);
    put("gridsim.world.wall_s", wall_s);
    put("gridsim.world.self_s", self_time(wall_s, busy));
    put(
        "gridsim.world.queue_depth_max",
        profiler.queue_depth().max(),
    );
    put("gridsim.world.events_timer", kind("timer") as f64);
    put("gridsim.world.events_flow_done", kind("flow_done") as f64);

    // Shards: a one-shard world always has its single shard runnable.
    let runnable = m.series("shard.runnable").map_or(1.0, |s| {
        let p = s.points();
        p.iter().map(|&(_, v)| v).sum::<f64>() / p.len().max(1) as f64
    });
    put("gridsim.shard.runnable_mean", runnable);
    let shard_events = world.shard_events();
    let mean = shard_events.iter().sum::<u64>() as f64 / shard_events.len().max(1) as f64;
    let max = shard_events.iter().copied().max().unwrap_or(0) as f64;
    put(
        "gridsim.shard.event_imbalance",
        if mean > 0.0 { max / mean } else { 1.0 },
    );

    // Network and flows.
    let flows = c("net.flows_started");
    put("gridsim.network.msgs", c("net.sent") as f64);
    put(
        "gridsim.network.bulk_transfers",
        c("net.bulk_transfers") as f64,
    );
    put("gridsim.network.flows_started", flows as f64);
    put(
        "gridsim.network.flows_aborted",
        c("net.flows_aborted") as f64,
    );
    put(
        "gridsim.network.flow_useful_ratio",
        useful_ratio(c("gram.staged_in") + c("gram.staged_out"), flows),
    );
    put(
        "gridsim.network.flow_events_per_flow",
        useful_ratio(kind("flow_done"), flows),
    );

    // Handler layers.
    let groups = profiler
        .components()
        .iter()
        .map(|(g, p)| (g.as_str(), p.events, p.busy.as_secs_f64()));
    let (layers, unattributed) = fold_groups(groups);
    for (layer, (handlers, busy)) in &layers {
        put(&format!("{layer}.handlers"), *handlers as f64);
        put(&format!("{layer}.busy_s"), *busy);
    }
    put("gridsim.world.unattributed_busy_s", unattributed);
    put(
        "gram.jobmanager.handlers_per_job",
        layers["gram.jobmanager"].0 as f64 / jobs,
    );
    put(
        "site.lrm.handlers_per_job",
        layers["site.lrm"].0 as f64 / jobs,
    );

    // Layer counters.
    let submits = c("gm.submissions");
    put("core.gridmanager.probes", c("gm.probes") as f64);
    put(
        "core.gridmanager.submit_retransmits",
        c("gm.submit_retransmits") as f64,
    );
    put(
        "core.gridmanager.submit_useful_ratio",
        useful_ratio(submits, submits + c("gm.submit_retransmits")),
    );
    put(
        "core.broker.health_transitions",
        c("broker.health_transitions") as f64,
    );
    put(
        "gram.jobmanager.stage_retries",
        c("gram.stage_retries") as f64,
    );
    put("gram.jobmanager.restarts", c("gram.jm_restarts") as f64);
    let mut waits = m
        .histogram("site.queue_wait")
        .map(|h| h.samples().to_vec())
        .unwrap_or_default();
    waits.sort_by(f64::total_cmp);
    put(
        "site.lrm.queue_wait_p50_s",
        quantile(&waits, 0.5).unwrap_or(0.0),
    );
    put(
        "gass.server.aborted_transfers",
        c("gass.aborted_transfers") as f64,
    );
    let matches = c("negotiator.matches");
    put("condor.negotiator.matches", matches as f64);
    put(
        "condor.negotiator.claim_useful_ratio",
        useful_ratio(c("condor.claims"), matches),
    );
    put("mds.queries", c("mds.queries") as f64);
    put("core.glidein.started", c("glidein.started") as f64);
    put("core.glidein.revoked", c("glidein.revoked") as f64);

    // Span waits (sim time).
    for phase in ["auth", "stage_in", "queue", "stage_out"] {
        put(&format!("span.{phase}_p50_s"), span_p50(spans, phase));
    }
    put(
        "gridbench.driver.admit_lag_p50_s",
        quantile(&ledger.admit_lag_s, 0.5).unwrap_or(0.0),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn groups_map_to_layers() {
        assert_eq!(layer_of("jm-jc"), Some("gram.jobmanager"));
        assert_eq!(layer_of("gatekeeper"), Some("gram.gatekeeper"));
        assert_eq!(layer_of("lrm"), Some("site.lrm"));
        assert_eq!(layer_of("gass"), Some("gass.server"));
        assert_eq!(layer_of("ckpt-server"), Some("condor.ckpt"));
        assert_eq!(layer_of("gris"), Some("mds"));
        assert_eq!(layer_of("giis"), Some("mds"));
        assert_eq!(layer_of("campaign"), Some("gridbench.driver"));
        assert_eq!(layer_of("shadow-job"), Some("condor.shadow"));
        assert_eq!(layer_of("glidein-desk"), Some("condor.startd"));
        assert_eq!(layer_of("glidein-factory"), Some("core.glidein"));
        assert_eq!(layer_of("mailer"), None);
        // Every mapped layer is one the report lists.
        for g in [
            "gridmanager",
            "scheduler",
            "shadow",
            "startd",
            "glidein-factory",
        ] {
            let layer = layer_of(g).expect("mapped");
            assert!(HANDLER_LAYERS.contains(&layer), "{g} -> {layer}");
        }
    }

    #[test]
    fn folding_sums_groups_and_keeps_every_layer() {
        let (layers, unattributed) = fold_groups([
            ("giis", 3, 0.5),
            ("gris", 7, 1.0),
            ("mailer", 2, 0.25),
            ("lrm", 10, 2.0),
        ]);
        assert_eq!(layers["mds"], (10, 1.5));
        assert_eq!(layers["site.lrm"], (10, 2.0));
        assert_eq!(layers["condor.shadow"], (0, 0.0));
        assert_eq!(layers.len(), HANDLER_LAYERS.len());
        assert_eq!(unattributed, 0.25);
        // Attribution is complete: mapped + unattributed = total busy.
        let mapped: f64 = layers.values().map(|v| v.1).sum();
        assert_eq!(mapped + unattributed, 3.75);
    }
}
