//! `gridbench` — run one benchmark workload once and print one JSON line.
//!
//! ```text
//! gridbench --workload grid_campaign --seed 1 [--shards N] [--trace 0|1]
//!           [--campaigns K] [--setup-probes N] [--setup-only]
//! ```
//!
//! `--trace 1` enables the kernel profiler and a span collector and adds a
//! `layers` object of per-layer metrics. `--campaigns` runs only the first
//! K campaigns (the one-shard gate). `digests` lists each campaign's
//! outcome digest.
//!
//! `--setup-only` builds the first campaign, commits its first kernel event
//! and prints only the host time from the start of `main` to that event.
//! `--setup-probes N` starts N such processes before each campaign and
//! after the last, and lists their times in `setup_probe_s`: one set-up
//! takes a few milliseconds at most and host speed on a shared VM drifts
//! over seconds, so the samples are spread over the whole run.
//!
//! Each campaign runs in slices of about 75 ms of host time with a
//! host-speed probe (`calibrate`) before, between and after them;
//! `campaign_jobs_per_s` is per host second and `campaign_jobs_per_ref_s`
//! per reference second, and `probe_s` lists every probe time.

use condor_g_suite::gridsim::obs::SpanCollector;
use gridbench::calibrate::{self, Probe};
use gridbench::layers;
use gridbench::ledger::LedgerReport;
use gridbench::stats::{median, quantile, tail_ok};
use gridbench::workloads::{self, Plan, Workload};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::Command;
use std::rc::Rc;
use std::time::Instant;

struct Args {
    workload: Workload,
    seed: u64,
    shards: usize,
    trace: bool,
    campaigns: Option<usize>,
    setup_probes: usize,
    setup_only: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: gridbench --workload <{}> --seed N [--shards N] [--trace 0|1] [--campaigns K] \
         [--setup-probes N] [--setup-only]",
        workloads::ALL.map(Workload::name).join("|")
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut workload = None;
    let mut seed = None;
    let mut args = Args {
        workload: Workload::GridCampaign,
        seed: 0,
        shards: 1,
        trace: false,
        campaigns: None,
        setup_probes: 0,
        setup_only: false,
    };
    let mut argv = std::env::args().skip(1);
    fn num<T: std::str::FromStr>(argv: &mut impl Iterator<Item = String>) -> T {
        argv.next()
            .and_then(|w| w.parse().ok())
            .unwrap_or_else(|| usage())
    }
    while let Some(arg) = argv.next() {
        match arg.as_str() {
            "--workload" => {
                workload = Some(
                    argv.next()
                        .as_deref()
                        .and_then(Workload::parse)
                        .unwrap_or_else(|| usage()),
                );
            }
            "--seed" => seed = Some(num(&mut argv)),
            "--shards" => args.shards = num::<usize>(&mut argv).max(1),
            "--trace" => args.trace = num::<u8>(&mut argv) != 0,
            "--campaigns" => args.campaigns = Some(num::<usize>(&mut argv).max(1)),
            "--setup-probes" => args.setup_probes = num(&mut argv),
            "--setup-only" => args.setup_only = true,
            _ => usage(),
        }
    }
    args.workload = workload.unwrap_or_else(|| usage());
    args.seed = seed.unwrap_or_else(|| usage());
    args
}

/// Reset this process's peak resident set to its current one, so the next
/// campaign's peak is its own (Linux 4.0+).
fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set (VmHWM) of this process, in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Build campaign `index` of the workload and commit its first kernel
/// event; returns the plan and its span collector (traced runs).
fn set_up(args: &Args, index: u64, jobs: u64) -> (Plan, Option<Rc<RefCell<SpanCollector>>>) {
    let seed = workloads::campaign_seed(args.seed, index);
    let mut plan = workloads::setup(args.workload, seed, jobs, args.shards);
    let spans = args.trace.then(|| plan.instrument());
    plan.tb.world.step();
    (plan, spans)
}

/// Append the set-up times of `--setup-probes` fresh `--setup-only`
/// processes of this binary to `times`.
fn probe_setups(args: &Args, times: &mut Vec<f64>) {
    times.extend((0..args.setup_probes).map(|_| probe_setup(args)));
}

/// Set-up time of one fresh `--setup-only` process of this binary.
fn probe_setup(args: &Args) -> f64 {
    let out = Command::new(std::env::current_exe().expect("own executable"))
        .args(["--workload", args.workload.name(), "--setup-only"])
        .args(["--seed", &args.seed.to_string()])
        .args(["--shards", &args.shards.to_string()])
        .output()
        .expect("set-up probe starts");
    String::from_utf8_lossy(&out.stdout)
        .trim()
        .parse()
        .expect("set-up probe prints its time")
}

/// Host seconds of campaign work between two host-speed probes.
const SLICE_S: f64 = 0.075;

/// Run a campaign in slices of about [`SLICE_S`] host seconds with a probe
/// before, between and after them; returns the slices' host seconds and
/// the probes' (one more probe than slices).
fn run_sliced(plan: &mut Plan, probe: &mut Probe) -> (Vec<f64>, Vec<f64>) {
    let mut slices = Vec::new();
    let mut probes = vec![probe.time()];
    let mut slice_start = Instant::now();
    workloads::run_chunked(plan, || {
        let secs = slice_start.elapsed().as_secs_f64();
        if secs >= SLICE_S {
            slices.push(secs);
            probes.push(probe.time());
            slice_start = Instant::now();
        }
    });
    slices.push(slice_start.elapsed().as_secs_f64());
    probes.push(probe.time());
    (slices, probes)
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

fn main() {
    let process_start = Instant::now();
    let args = parse_args();
    let jobs = args.workload.default_jobs();
    if args.setup_only {
        let built = set_up(&args, 0, jobs);
        let secs = process_start.elapsed().as_secs_f64();
        println!("{secs}");
        drop(built);
        return;
    }
    let campaigns = args.campaigns.unwrap_or_else(|| args.workload.campaigns());

    let mut setup_probe_s = Vec::new();
    let mut run_s = 0.0;
    let mut events = 0u64;
    let mut makespans = Vec::new();
    let mut campaign_jobs_per_s = Vec::new();
    let mut campaign_rss_mb = Vec::new();
    let mut digests = Vec::new();
    let mut pooled = LedgerReport::default();
    let mut layer_sums: BTreeMap<String, f64> = BTreeMap::new();
    let mut shards = 0;
    let mut probe = Probe::new();
    let mut probe_s = Vec::new();
    let mut campaign_jobs_per_ref_s = Vec::new();
    let mut campaign_p999_s = Vec::new();
    let mut tails_ok = true;
    for index in 0..campaigns as u64 {
        probe_setups(&args, &mut setup_probe_s);
        reset_peak_rss();
        let (mut plan, spans) = set_up(&args, index, jobs);

        let (slices, probes) = run_sliced(&mut plan, &mut probe);
        let secs: f64 = slices.iter().sum();
        let ref_secs = calibrate::reference_seconds(&slices, &probes);
        probe_s.extend(probes);
        run_s += secs;
        events += plan.tb.world.events_processed();
        shards = plan.tb.world.shard_count();

        let report = plan.ledger.borrow().report();
        makespans.push(report.makespan_s);
        let settled = (report.done + report.failed) as f64;
        campaign_jobs_per_s.push(settled / secs.max(1e-9));
        campaign_jobs_per_ref_s.push(settled / ref_secs.max(1e-9));
        digests.push(format!("\"{:016x}\"", report.digest));
        if let Some(spans) = spans {
            let m = layers::collect(&plan.tb.world, &spans.borrow(), &report, secs);
            for (k, v) in m {
                *layer_sums.entry(k).or_default() += v;
            }
        }
        let turnaround = &report.turnaround_s;
        campaign_p999_s.push(quantile(turnaround, 0.999).unwrap_or(0.0));
        tails_ok &= tail_ok(turnaround.len(), 0.999);
        pooled.absorb(report);
        drop(plan);
        campaign_rss_mb.push(peak_rss_mb());
    }
    probe_setups(&args, &mut setup_probe_s);

    let n = pooled.turnaround_s.len();
    let settled = pooled.done + pooled.failed;
    let mut nums: BTreeMap<&str, f64> = BTreeMap::new();
    nums.insert("run_s", run_s);
    nums.insert("events", events as f64);
    nums.insert("jobs_per_s", settled as f64 / run_s.max(1e-9));
    nums.insert("peak_rss_mb", median(&campaign_rss_mb).unwrap_or(0.0));
    nums.insert("job_fail_frac", pooled.fail_frac());
    nums.insert(
        "job_done_frac",
        pooled.done as f64 / pooled.submitted.max(1) as f64,
    );
    nums.insert(
        "sim_turnaround_p50_s",
        quantile(&pooled.turnaround_s, 0.5).unwrap_or(0.0),
    );
    // The p99.9 is per campaign, then the median over the run's campaigns:
    // a pooled p99.9 is set by the one campaign with the worst tail, and a
    // mean by the worst campaign's outlier.
    nums.insert(
        "sim_turnaround_p999_s",
        median(&campaign_p999_s).unwrap_or(0.0),
    );
    nums.insert("turnaround_samples", n as f64);
    nums.insert("sim_makespan_s", mean(&makespans));

    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"workload\":\"{}\",\"seed\":{},\"shards\":{},\"trace\":{},\"campaigns\":{},\
         \"jobs\":{},\"submitted\":{},\"done\":{},\"failed\":{},\"lost\":{},\
         \"duplicates\":{},\"unknown\":{},\"balanced\":{},\"p999_tail_ok\":{},\"digests\":[{}]",
        args.workload.name(),
        args.seed,
        shards,
        args.trace,
        campaigns,
        jobs,
        pooled.submitted,
        pooled.done,
        pooled.failed,
        pooled.lost,
        pooled.duplicates,
        pooled.unknown,
        pooled.balanced() && pooled.submitted == jobs * campaigns as u64,
        tails_ok,
        digests.join(","),
    );
    for (k, v) in &nums {
        let _ = write!(out, ",\"{k}\":{}", json_num(*v));
    }
    let list = |v: &[f64]| v.iter().map(|x| json_num(*x)).collect::<Vec<_>>().join(",");
    let _ = write!(
        out,
        ",\"campaign_jobs_per_s\":[{}],\"campaign_jobs_per_ref_s\":[{}],\"probe_s\":[{}],\"campaign_rss_mb\":[{}],\"setup_probe_s\":[{}]",
        list(&campaign_jobs_per_s),
        list(&campaign_jobs_per_ref_s),
        list(&probe_s),
        list(&campaign_rss_mb),
        list(&setup_probe_s)
    );
    if args.trace {
        // Per-layer values are per campaign: the mean over the run's
        // campaigns.
        out.push_str(",\"layers\":{");
        for (i, (k, v)) in layer_sums.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(out, "{sep}\"{k}\":{}", json_num(v / campaigns as f64));
        }
        out.push('}');
    }
    out.push('}');
    println!("{out}");
}
