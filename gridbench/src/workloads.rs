//! The four benchmark workloads. Each builds a testbed through the public
//! harness, a seeded job stream from `workloads::campaign`, and (where the
//! workload calls for it) a `FaultPlan` and a shared-bandwidth WAN. The
//! seed drives the job stream, the kernel RNG and the crash schedule; the
//! grid each workload runs on is part of its definition and fixed.

use crate::ledger::{BenchDriver, JobMaker, Ledger};
use condor_g_suite::condor_g::api::GridJobSpec;
use condor_g_suite::gridsim::fault::FaultPlan;
use condor_g_suite::gridsim::obs::SpanCollector;
use condor_g_suite::gridsim::prelude::*;
use condor_g_suite::harness::{build, SiteSpec, Testbed, TestbedConfig, WanLinkSpec, WanTopology};
use condor_g_suite::workloads::campaign::{CampaignJob, CampaignSpec};
use std::cell::RefCell;
use std::rc::Rc;

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// A lean campaign on a grid too small for its offered load, sharded.
    GridCampaign,
    /// Every job stages a 16 MB image over five shared WAN links.
    StagingStorm,
    /// Random gatekeeper crashes under the adaptive broker.
    ChaosRecovery,
    /// Pool-universe jobs on a glidein-built personal Condor pool.
    GlideinPool,
}

/// All workloads, in report order.
pub const ALL: [Workload; 4] = [
    Workload::GridCampaign,
    Workload::StagingStorm,
    Workload::ChaosRecovery,
    Workload::GlideinPool,
];

/// Seed of the fixed site rosters (the grid is part of the workload, not
/// of the seeded input).
const ROSTER_SEED: u64 = 7;

/// Size of the staged image in `staging_storm`.
pub const STORM_IMAGE: u64 = 16 * 1024 * 1024;

impl Workload {
    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::GridCampaign => "grid_campaign",
            Workload::StagingStorm => "staging_storm",
            Workload::ChaosRecovery => "chaos_recovery",
            Workload::GlideinPool => "glidein_pool",
        }
    }

    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// Jobs per campaign. Every campaign settles at least 10,000 jobs, so
    /// even one campaign's p99.9 turnaround has ten samples beyond it.
    pub fn default_jobs(self) -> u64 {
        match self {
            Workload::GridCampaign => 10_000,
            Workload::StagingStorm => 20_000,
            Workload::ChaosRecovery => 12_000,
            Workload::GlideinPool => 10_000,
        }
    }

    /// Independent campaigns one run settles, each from its own seed
    /// derived from the run's seed. Pooling several campaigns averages out
    /// how much one seed's draw of arrivals, runtimes and crashes moves
    /// the results, so a run's figures describe the workload, not the draw.
    pub fn campaigns(self) -> usize {
        match self {
            Workload::GridCampaign => 2,
            Workload::StagingStorm => 4,
            Workload::ChaosRecovery => 4,
            Workload::GlideinPool => 5,
        }
    }

    /// The campaign stream this workload submits.
    pub fn spec(self, seed: u64, jobs: u64) -> CampaignSpec {
        let base = CampaignSpec {
            seed,
            jobs,
            duration: Duration::from_hours(24),
            // Short sweep bursts: a 32-job burst shares one runtime draw,
            // so long bursts make a run's total work (and every sim metric
            // with it) swing from seed to seed.
            sweep_fraction: 0.1,
            max_sweep: 8,
            ..CampaignSpec::default()
        };
        match self {
            Workload::GridCampaign => CampaignSpec {
                sites: 15,
                users: 150,
                ..base
            },
            // Flat arrivals at 8% of the WAN's capacity: an arrival carries
            // 1.4 jobs on average, so 20k jobs spread over ~93 h, about
            // 0.2 MB/s of images per link (see README: heavier loads tip
            // the throttled link into a collapse).
            Workload::StagingStorm => CampaignSpec {
                sites: 50,
                users: 200,
                duration: Duration::from_hours(130),
                diurnal_amplitude: 0.0,
                ..base
            },
            Workload::ChaosRecovery => CampaignSpec {
                sites: 50,
                users: 200,
                ..base
            },
            // Flat arrivals over two days: the pool keeps spare glideins,
            // so turnaround is matchmaking, claiming and eviction, not a
            // backlog whose depth swings with the seed.
            Workload::GlideinPool => CampaignSpec {
                sites: 8,
                users: 50,
                duration: Duration::from_hours(48),
                diurnal_amplitude: 0.0,
                ..base
            },
        }
    }
}

/// Seed of campaign `index` of a run with seed `seed`: distinct for every
/// pair with `index < 256` and `seed < 2^56`.
pub fn campaign_seed(seed: u64, index: u64) -> u64 {
    (seed << 8) | (index & 0xff)
}

/// A built workload, ready to run.
pub struct Plan {
    /// The grid.
    pub tb: Testbed,
    /// The submitter's ledger.
    pub ledger: Rc<RefCell<Ledger>>,
    /// Jobs the stream will submit.
    pub jobs: u64,
    /// Give up (and report lost jobs) past this sim time.
    pub horizon: SimTime,
}

fn grid_job(job: &CampaignJob, id: u64) -> GridJobSpec {
    GridJobSpec::grid(
        &format!("c{id}"),
        "/home/jane/app.exe",
        Duration::from_secs(u64::from(job.runtime_secs)),
    )
    .with_stdout(u64::from(job.stdout_kb) * 1024)
}

fn pool_job(job: &CampaignJob, id: u64) -> GridJobSpec {
    GridJobSpec::pool(
        &format!("p{id}"),
        "/home/jane/worker.exe",
        Duration::from_secs(u64::from(job.runtime_secs)),
    )
    .with_remote_io(300.0, 16 * 1024)
}

/// The fixed roster: `sites` log-uniform sites (16 to 512 CPUs) drawn
/// from the roster seed.
fn roster(sites: u32) -> Vec<SiteSpec> {
    CampaignSpec {
        seed: ROSTER_SEED,
        sites,
        ..CampaignSpec::default()
    }
    .grid()
    .iter()
    .map(|s| SiteSpec::pbs(&s.name, s.cpus))
    .collect()
}

/// Build `workload` for `seed` with `jobs` jobs on `shards` kernel shards.
pub fn setup(workload: Workload, seed: u64, jobs: u64, shards: usize) -> Plan {
    let spec = workload.spec(seed, jobs);
    let window = spec.duration;
    let mut config = TestbedConfig {
        seed,
        lean: true,
        shards,
        // Outlive the whole run: credential expiry is not what this
        // benchmark measures.
        proxy_lifetime: window * 20.0 + Duration::from_days(60),
        ..TestbedConfig::default()
    };
    let mut make: JobMaker = grid_job;
    match workload {
        Workload::GridCampaign => {
            // Equal sites with half the CPUs the day's offered load needs:
            // every site queue saturates alike, and backlog grows steadily.
            config.sites = (0..spec.sites)
                .map(|i| SiteSpec::pbs(&format!("site{i:03}"), 8))
                .collect();
        }
        Workload::StagingStorm => {
            config.sites = (0..spec.sites)
                .map(|i| SiteSpec::pbs(&format!("site{i:03}"), 64))
                .collect();
            config.exe_size = STORM_IMAGE;
            let links = 5;
            config.wan = Some(WanTopology {
                links: (0..links)
                    .map(|l| WanLinkSpec {
                        name: format!("wan{l}"),
                        capacity: 2.5e6,
                        latency: 0.030,
                    })
                    .collect(),
                site_routes: (0..spec.sites as usize)
                    .map(|i| (i, vec![format!("wan{}", i % links)]))
                    .collect(),
            });
        }
        Workload::ChaosRecovery => {
            config.sites = roster(spec.sites);
            config.adaptive = true;
        }
        Workload::GlideinPool => {
            config.sites = (0..spec.sites)
                .map(|i| SiteSpec::condor_pool(&format!("desk{i}"), 200))
                .collect();
            config.with_mds = true;
            config.mds_broker = true;
            config.with_personal_pool = true;
            make = pool_job;
        }
    }
    let mut tb = build(config);
    match workload {
        Workload::StagingStorm => {
            // One link throttled to a fifth of its capacity for an hour
            // in the middle of the arrival stream.
            let plan = FaultPlan::new().link_bandwidth_window(
                "wan2",
                0.5e6,
                SimTime::ZERO + Duration::from_hours(46),
                Duration::from_hours(1),
            );
            tb.world.apply_fault_plan(&plan.sorted());
        }
        Workload::ChaosRecovery => {
            let gatekeepers: Vec<NodeId> = tb.sites.iter().map(|s| s.interface).collect();
            let mut rng = SimRng::new(seed ^ 0xc4a0_5eed);
            let plan = FaultPlan::random_crashes(
                &mut rng,
                &gatekeepers,
                Duration::from_hours(12),
                Duration::from_mins(20),
                SimTime::ZERO + window,
            );
            tb.world.apply_fault_plan(&plan);
        }
        Workload::GlideinPool => {
            tb.add_glidein_factory(100, Duration::from_hours(12));
        }
        Workload::GridCampaign => {}
    }
    let ledger = Rc::new(RefCell::new(Ledger::default()));
    let driver = BenchDriver::new(
        tb.scheduler,
        spec.stream(),
        make,
        4_096,
        1_024,
        Rc::clone(&ledger),
    );
    tb.world.add_component(tb.submit, "campaign", driver);
    Plan {
        tb,
        ledger,
        jobs,
        horizon: SimTime::ZERO + window * 20.0 + Duration::from_days(30),
    }
}

/// Lets the run read the collector back after the trace sink owns it.
struct SharedSpans(Rc<RefCell<SpanCollector>>);

impl TraceSubscriber for SharedSpans {
    fn on_event(&mut self, event: &TraceEvent) {
        self.0.borrow_mut().ingest(event);
    }
}

impl Plan {
    /// Turn on the kernel profiler and subscribe a span collector (which
    /// turns tracing on); returns the collector.
    pub fn instrument(&mut self) -> Rc<RefCell<SpanCollector>> {
        let spans = Rc::new(RefCell::new(SpanCollector::new()));
        self.tb.world.enable_profiler();
        self.tb
            .world
            .trace_mut()
            .subscribe(Box::new(SharedSpans(Rc::clone(&spans))));
        spans
    }
}

/// Run `plan` until every job settled (or the horizon passed).
pub fn run(plan: &mut Plan) {
    run_chunked(plan, || {});
}

/// Sim time one `run_until` call advances: a few tens of host
/// milliseconds of work on every workload.
pub const CHUNK: Duration = Duration::from_mins(30);

/// As [`run`], calling `between` after every [`CHUNK`] of sim time. The
/// outcome does not depend on the chunk size.
pub fn run_chunked(plan: &mut Plan, mut between: impl FnMut()) {
    loop {
        let next = plan.tb.world.now() + CHUNK;
        plan.tb.world.run_until(next);
        if plan.ledger.borrow().settled() >= plan.jobs || plan.tb.world.now() >= plan.horizon {
            break;
        }
        between();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn full_size_runs_support_p999() {
        for w in ALL {
            assert!(
                crate::stats::tail_ok(w.default_jobs() as usize, 0.999),
                "{}",
                w.name()
            );
        }
    }
}
