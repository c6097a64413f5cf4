//! The local resource manager component.

use crate::job::{JobSpec, LrmJobState};
use crate::policy::{QueueView, RunningView, SchedPolicy};
use crate::proto::{LrmEvent, LrmReply, LrmRequest, SiteInfo};
use gridsim::prelude::*;
use gridsim::rng::Dist;
use gridsim::AnyMsg;
use std::collections::{HashMap, HashSet};

/// Opportunistic capacity churn: models desktop owners reclaiming their
/// machines in a Condor pool (or maintenance windows on a cluster).
///
/// Every `interval` the number of reclaimed processors is resampled from
/// `reclaimed` (clamped to the site size). If the new value exceeds the
/// processors currently idle, the youngest running jobs are vacated to make
/// up the difference — exactly the revocation that GlideIn checkpointing
/// (paper §5) exists to survive.
#[derive(Clone, Debug)]
pub struct ChurnModel {
    /// Time between owner-activity changes (seconds).
    pub interval: Dist,
    /// Distribution of how many processors are owner-occupied.
    pub reclaimed: Dist,
    /// Diurnal swing: the reclaimed sample is scaled by
    /// `1 + amplitude · sin(2π·t/24h − π/2)`, so owner occupancy peaks in
    /// the working day and bottoms out at night — the classic Condor
    /// desktop-pool availability curve. `0.0` disables it.
    pub diurnal_amplitude: f64,
}

impl ChurnModel {
    /// Steady churn with no diurnal component.
    pub fn steady(interval: Dist, reclaimed: Dist) -> ChurnModel {
        ChurnModel {
            interval,
            reclaimed,
            diurnal_amplitude: 0.0,
        }
    }
}

struct Queued {
    local_id: u64,
    spec: JobSpec,
    submitter: Addr,
    submitted: SimTime,
}

struct Running {
    spec: JobSpec,
    submitter: Addr,
    started: SimTime,
    expected_end: SimTime,
    timer: TimerId,
}

const CHURN_TAG: u64 = u64::MAX;

/// A site batch scheduler: queue, policy, wall limits, optional churn.
pub struct Lrm {
    site: String,
    /// Machine architecture; wrong-arch binaries fail at start.
    arch: String,
    total_cpus: u32,
    reclaimed: u32,
    policy: Box<dyn SchedPolicy>,
    max_wall: Option<Duration>,
    requeue_on_vacate: bool,
    churn: Option<ChurnModel>,
    queue: Vec<Queued>,
    /// Local ids in `queue`, so a `Status` poll needs no queue scan.
    queued: HashSet<u64>,
    running: HashMap<u64, Running>,
    /// Processors held by `running`, maintained incrementally so busy
    /// accounting stays O(1) with ten thousand concurrent jobs.
    used: u32,
    /// Terminal outcomes kept for late `Status` polls. Bounded: entries are
    /// evicted FIFO past [`TERMINAL_RETAIN`], since a poll for a job that
    /// finished tens of thousands of completions ago no longer has a
    /// JobManager waiting on it — and a campaign would otherwise grow this
    /// map with every job that ever ran here. Values carry an insertion
    /// generation so a re-inserted id is not evicted by its stale entry in
    /// the order queue.
    terminal: HashMap<u64, (LrmJobState, u64)>,
    terminal_order: std::collections::VecDeque<(u64, u64)>,
    terminal_gen: u64,
    next_local: u64,
    last_busy: f64,
    /// Site-scoped metric names, precomputed once (these are recorded on
    /// every start/finish).
    metric_busy: String,
    metric_queue_wait: String,
    metric_cpu_seconds: String,
    metric_queue_depth: String,
    metric_success_rate: String,
    metric_completed: String,
    /// Rolling window of recent terminal outcomes (`true` = completed),
    /// feeding the per-site success-rate gauge in the grid-weather report.
    outcomes: std::collections::VecDeque<bool>,
}

/// Terminal outcomes in the rolling success-rate window.
const OUTCOME_WINDOW: usize = 32;

/// Terminal-state entries retained for late status polls.
const TERMINAL_RETAIN: usize = 16_384;

impl Lrm {
    /// A scheduler for `total_cpus` processors under `policy`.
    pub fn new(site: &str, total_cpus: u32, policy: impl SchedPolicy) -> Lrm {
        Lrm {
            site: site.to_string(),
            arch: "INTEL".to_string(),
            total_cpus,
            reclaimed: 0,
            policy: Box::new(policy),
            max_wall: None,
            requeue_on_vacate: true,
            churn: None,
            queue: Vec::new(),
            queued: HashSet::new(),
            running: HashMap::new(),
            used: 0,
            terminal: HashMap::new(),
            terminal_order: std::collections::VecDeque::new(),
            terminal_gen: 0,
            next_local: 0,
            last_busy: 0.0,
            metric_busy: format!("site.{site}.busy"),
            metric_queue_wait: format!("site.{site}.queue_wait"),
            metric_cpu_seconds: format!("site.{site}.cpu_seconds"),
            metric_queue_depth: format!("site.{site}.queue_depth"),
            metric_success_rate: format!("site.{site}.success_rate"),
            metric_completed: format!("site.{site}.completed"),
            outcomes: std::collections::VecDeque::with_capacity(OUTCOME_WINDOW),
        }
    }

    /// Set the machine architecture (default `INTEL`).
    pub fn with_arch(mut self, arch: &str) -> Lrm {
        self.arch = arch.to_string();
        self
    }

    /// Impose a site wall-clock limit (jobs running longer are killed).
    pub fn with_wall_limit(mut self, limit: Duration) -> Lrm {
        self.max_wall = Some(limit);
        self
    }

    /// Enable opportunistic churn.
    pub fn with_churn(mut self, churn: ChurnModel) -> Lrm {
        self.churn = Some(churn);
        self
    }

    /// Vacated jobs are lost (sent a terminal `Vacated` event) instead of
    /// being requeued. Used when the "jobs" are glidein daemons.
    pub fn vacate_is_terminal(mut self) -> Lrm {
        self.requeue_on_vacate = false;
        self
    }

    fn used_cpus(&self) -> u32 {
        debug_assert_eq!(
            self.used,
            self.running.values().map(|r| r.spec.cpus).sum::<u32>(),
            "incremental CPU accounting out of sync"
        );
        self.used
    }

    /// Record a terminal outcome, evicting the oldest entries past the cap.
    fn note_terminal(&mut self, local_id: u64, state: LrmJobState) {
        self.terminal_gen += 1;
        let gen = self.terminal_gen;
        self.terminal.insert(local_id, (state, gen));
        self.terminal_order.push_back((local_id, gen));
        while self.terminal_order.len() > TERMINAL_RETAIN {
            let Some((old_id, old_gen)) = self.terminal_order.pop_front() else {
                break;
            };
            // Only drop the map entry if it is the one this queue slot
            // registered (not a newer re-insertion under the same id).
            if self
                .terminal
                .get(&old_id)
                .is_some_and(|&(_, g)| g == old_gen)
            {
                self.terminal.remove(&old_id);
            }
        }
    }

    fn take_terminal(&mut self, local_id: u64) -> Option<LrmJobState> {
        self.terminal.remove(&local_id).map(|(s, _)| s)
    }

    fn get_terminal(&self, local_id: u64) -> Option<LrmJobState> {
        self.terminal.get(&local_id).map(|&(s, _)| s)
    }

    fn free_cpus(&self) -> u32 {
        self.total_cpus
            .saturating_sub(self.reclaimed)
            .saturating_sub(self.used_cpus())
    }

    fn info(&self) -> SiteInfo {
        SiteInfo {
            total_cpus: self.total_cpus,
            free_cpus: self.free_cpus(),
            queued: self.queue.len() as u32,
            running: self.running.len() as u32,
        }
    }

    fn record_busy(&mut self, ctx: &mut Ctx<'_>) {
        let t = ctx.now();
        let used = self.used_cpus() as f64;
        ctx.metrics().gauge(&self.metric_busy, t, used);
        // A grid-wide busy-CPU series: every site contributes deltas, so
        // the sum is exact across sites (used by the E1 concurrency plot).
        let delta = used - self.last_busy;
        self.last_busy = used;
        if delta != 0.0 {
            ctx.metrics().gauge_delta("grid.busy_cpus", t, delta);
        }
    }

    /// Publish the current queue depth (jobs queued, not running) — one of
    /// the per-site grid-weather series.
    fn record_queue_depth(&mut self, ctx: &mut Ctx<'_>) {
        let t = ctx.now();
        ctx.metrics()
            .gauge(&self.metric_queue_depth, t, self.queue.len() as f64);
    }

    /// Record one terminal outcome in the rolling window and republish the
    /// per-site success-rate gauge.
    fn note_outcome(&mut self, ctx: &mut Ctx<'_>, ok: bool) {
        if self.outcomes.len() == OUTCOME_WINDOW {
            self.outcomes.pop_front();
        }
        self.outcomes.push_back(ok);
        let rate = self.outcomes.iter().filter(|&&b| b).count() as f64 / self.outcomes.len() as f64;
        let t = ctx.now();
        ctx.metrics().gauge(&self.metric_success_rate, t, rate);
    }

    fn schedule(&mut self, ctx: &mut Ctx<'_>) {
        loop {
            let free = self.free_cpus();
            if free == 0 || self.queue.is_empty() {
                break;
            }
            let queue_view: Vec<QueueView> = self
                .queue
                .iter()
                .map(|j| QueueView {
                    local_id: j.local_id,
                    cpus: j.spec.cpus,
                    estimate: j.spec.estimate,
                    owner: j.spec.owner.clone(),
                    submitted: j.submitted,
                })
                .collect();
            // Only backfill-style policies read the running view; skip the
            // O(running) materialisation for the ones that don't.
            let running_view: Vec<RunningView> = if self.policy.needs_running_view() {
                self.running
                    .values()
                    .map(|r| RunningView {
                        cpus: r.spec.cpus,
                        expected_end: r.expected_end,
                    })
                    .collect()
            } else {
                Vec::new()
            };
            let picks = self
                .policy
                .select(ctx.now(), &queue_view, &running_view, free);
            if picks.is_empty() {
                break;
            }
            // Extract the picked jobs in pick order with one pass over the
            // queue (ids may repeat or be stale; budget skips stay queued).
            let mut index: HashMap<u64, usize> = HashMap::with_capacity(self.queue.len());
            for (pos, job) in self.queue.iter().enumerate() {
                index.insert(job.local_id, pos);
            }
            let mut slots: Vec<Option<Queued>> = self.queue.drain(..).map(Some).collect();
            let mut started_any = false;
            let mut budget = free;
            for id in picks {
                let Some(&pos) = index.get(&id) else {
                    continue;
                };
                let Some(job) = slots[pos].take_if(|j| j.spec.cpus <= budget) else {
                    continue;
                };
                budget -= job.spec.cpus;
                started_any = true;
                self.queued.remove(&job.local_id);
                self.start_job(ctx, job);
            }
            self.queue = slots.into_iter().flatten().collect();
            if !started_any {
                break;
            }
        }
    }

    fn start_job(&mut self, ctx: &mut Ctx<'_>, job: Queued) {
        let now = ctx.now();
        let wait = now - job.submitted;
        ctx.metrics().observe_duration("site.queue_wait", wait);
        ctx.metrics()
            .observe_duration(&self.metric_queue_wait, wait);
        // True occupancy: min(actual runtime, wall limit).
        let (span, exceeded) = match self.max_wall {
            Some(limit) if job.spec.runtime > limit => (limit, true),
            _ => (job.spec.runtime, false),
        };
        let timer = ctx.set_timer(span, job.local_id);
        // The *policy-visible* end uses the estimate (clamped the same way).
        let est_span = match self.max_wall {
            Some(limit) => job.spec.estimate.min(limit),
            None => job.spec.estimate,
        };
        ctx.trace_with("lrm.start", || {
            format!(
                "{} job {} ({} cpus)",
                self.site, job.local_id, job.spec.cpus
            )
        });
        ctx.send(
            job.submitter,
            LrmEvent {
                local_id: job.local_id,
                state: LrmJobState::Running,
                at: now,
            },
        );
        self.used += job.spec.cpus;
        self.running.insert(
            job.local_id,
            Running {
                spec: job.spec,
                submitter: job.submitter,
                started: now,
                expected_end: now + est_span,
                timer,
            },
        );
        // Remember whether this run will exceed the wall limit.
        if exceeded {
            self.note_terminal(job.local_id, LrmJobState::WallTimeExceeded);
        }
        self.record_busy(ctx);
    }

    fn finish_job(&mut self, ctx: &mut Ctx<'_>, local_id: u64) {
        let Some(run) = self.running.remove(&local_id) else {
            return;
        };
        self.used -= run.spec.cpus;
        let now = ctx.now();
        // Was this completion actually a wall-limit kill?
        let state = match self.take_terminal(local_id) {
            Some(LrmJobState::WallTimeExceeded) => LrmJobState::WallTimeExceeded,
            _ => LrmJobState::Completed,
        };
        let elapsed = now - run.started;
        self.policy
            .charge(&run.spec.owner, elapsed * u64::from(run.spec.cpus));
        ctx.metrics()
            .incr("site.completed", (state == LrmJobState::Completed) as u64);
        ctx.metrics().incr(
            &self.metric_completed,
            (state == LrmJobState::Completed) as u64,
        );
        ctx.metrics().incr(
            "site.wall_killed",
            (state == LrmJobState::WallTimeExceeded) as u64,
        );
        self.note_outcome(ctx, state == LrmJobState::Completed);
        ctx.metrics().observe(
            &self.metric_cpu_seconds,
            elapsed.as_secs_f64() * f64::from(run.spec.cpus),
        );
        ctx.trace_with("lrm.done", || {
            format!("{} job {local_id} -> {state:?}", self.site)
        });
        self.note_terminal(local_id, state);
        ctx.send(
            run.submitter,
            LrmEvent {
                local_id,
                state,
                at: now,
            },
        );
        self.record_busy(ctx);
        self.schedule(ctx);
        self.record_queue_depth(ctx);
    }

    fn apply_churn(&mut self, ctx: &mut Ctx<'_>) {
        let Some(churn) = self.churn.clone() else {
            return;
        };
        let mut target = ctx.rng().sample(&churn.reclaimed).max(0.0);
        if churn.diurnal_amplitude > 0.0 {
            // Phase: minimum occupancy at midnight, maximum mid-afternoon.
            let day_frac = (ctx.now().as_secs_f64() / 86_400.0).fract();
            let swing = (std::f64::consts::TAU * day_frac - std::f64::consts::FRAC_PI_2).sin();
            target *= 1.0 + churn.diurnal_amplitude * swing;
        }
        self.reclaimed = (target.round().max(0.0) as u32).min(self.total_cpus);
        // Vacate youngest running jobs until used + reclaimed <= total.
        while self.used_cpus() + self.reclaimed > self.total_cpus {
            // Youngest = latest start.
            let Some((&victim, _)) = self.running.iter().max_by_key(|(id, r)| (r.started, **id))
            else {
                break;
            };
            let run = self.running.remove(&victim).expect("victim exists");
            self.used -= run.spec.cpus;
            ctx.cancel_timer(run.timer);
            ctx.metrics().incr("site.vacated", 1);
            ctx.trace_with("lrm.vacate", || format!("{} job {victim}", self.site));
            let now = ctx.now();
            // Partial usage still gets charged.
            self.policy.charge(
                &run.spec.owner,
                (now - run.started) * u64::from(run.spec.cpus),
            );
            self.take_terminal(victim);
            if self.requeue_on_vacate {
                ctx.send(
                    run.submitter,
                    LrmEvent {
                        local_id: victim,
                        state: LrmJobState::Queued,
                        at: now,
                    },
                );
                self.queued.insert(victim);
                self.queue.insert(
                    0,
                    Queued {
                        local_id: victim,
                        spec: run.spec,
                        submitter: run.submitter,
                        submitted: now,
                    },
                );
            } else {
                self.note_terminal(victim, LrmJobState::Vacated);
                self.note_outcome(ctx, false);
                ctx.send(
                    run.submitter,
                    LrmEvent {
                        local_id: victim,
                        state: LrmJobState::Vacated,
                        at: now,
                    },
                );
            }
        }
        self.record_busy(ctx);
        let next = ctx.rng().duration(&churn.interval);
        ctx.set_timer(next, CHURN_TAG);
        self.schedule(ctx);
        self.record_queue_depth(ctx);
    }
}

impl Component for Lrm {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        if let Some(churn) = &self.churn {
            let first = ctx.rng().duration(&churn.interval);
            ctx.set_timer(first, CHURN_TAG);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _id: TimerId, tag: u64) {
        if tag == CHURN_TAG {
            self.apply_churn(ctx);
        } else {
            self.finish_job(ctx, tag);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, from: Addr, msg: AnyMsg) {
        let Ok(req) = msg.downcast::<LrmRequest>() else {
            return;
        };
        match *req {
            LrmRequest::Submit { client_job, spec } => {
                let local_id = self.next_local;
                self.next_local += 1;
                ctx.metrics().incr("site.submitted", 1);
                // A binary built for another architecture dies on exec.
                if let Some(arch) = &spec.required_arch {
                    if !arch.eq_ignore_ascii_case(&self.arch) {
                        ctx.metrics().incr("site.arch_mismatch", 1);
                        ctx.trace_with("lrm.exec_failed", || {
                            format!(
                                "{} job {local_id}: binary is {arch}, site is {}",
                                self.site, self.arch
                            )
                        });
                        self.note_terminal(local_id, LrmJobState::Vacated);
                        self.note_outcome(ctx, false);
                        ctx.send(
                            from,
                            LrmReply::Submitted {
                                client_job,
                                local_id,
                            },
                        );
                        ctx.send(
                            from,
                            LrmEvent {
                                local_id,
                                state: LrmJobState::Vacated,
                                at: ctx.now(),
                            },
                        );
                        return;
                    }
                }
                ctx.trace_with("lrm.submit", || {
                    format!(
                        "{} job {local_id} ({} cpus, owner {})",
                        self.site, spec.cpus, spec.owner
                    )
                });
                self.queued.insert(local_id);
                self.queue.push(Queued {
                    local_id,
                    spec,
                    submitter: from,
                    submitted: ctx.now(),
                });
                ctx.send(
                    from,
                    LrmReply::Submitted {
                        client_job,
                        local_id,
                    },
                );
                self.schedule(ctx);
                self.record_queue_depth(ctx);
            }
            LrmRequest::Cancel { local_id } => {
                let now = ctx.now();
                if let Some(pos) = self.queue.iter().position(|j| j.local_id == local_id) {
                    self.queued.remove(&local_id);
                    let job = self.queue.remove(pos);
                    self.note_terminal(local_id, LrmJobState::Removed);
                    ctx.send(
                        job.submitter,
                        LrmEvent {
                            local_id,
                            state: LrmJobState::Removed,
                            at: now,
                        },
                    );
                } else if let Some(run) = self.running.remove(&local_id) {
                    self.used -= run.spec.cpus;
                    ctx.cancel_timer(run.timer);
                    self.note_terminal(local_id, LrmJobState::Removed);
                    ctx.send(
                        run.submitter,
                        LrmEvent {
                            local_id,
                            state: LrmJobState::Removed,
                            at: now,
                        },
                    );
                    self.record_busy(ctx);
                    self.schedule(ctx);
                }
                ctx.metrics().incr("site.cancelled", 1);
                self.record_queue_depth(ctx);
            }
            LrmRequest::Status { local_id } => {
                let state = if self.running.contains_key(&local_id) {
                    Some(LrmJobState::Running)
                } else if self.queued.contains(&local_id) {
                    Some(LrmJobState::Queued)
                } else {
                    self.get_terminal(local_id)
                };
                ctx.send(from, LrmReply::StatusIs { local_id, state });
            }
            LrmRequest::QueryInfo => {
                ctx.send(from, LrmReply::Info(self.info()));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::Fifo;
    use gridsim::{Config, World};
    use std::collections::BTreeMap;

    /// Test submitter that records every event and reply to stable storage.
    struct Submitter {
        lrm: Addr,
        jobs: Vec<JobSpec>,
        cancel_after: Option<(Duration, u64)>,
        events: BTreeMap<u64, Vec<String>>,
    }

    impl Submitter {
        fn persist(&self, ctx: &mut Ctx<'_>) {
            let node = ctx.node();
            let flat: Vec<(u64, Vec<String>)> =
                self.events.iter().map(|(k, v)| (*k, v.clone())).collect();
            ctx.store().put(node, "events", &flat);
        }
    }

    impl Component for Submitter {
        fn on_start(&mut self, ctx: &mut Ctx<'_>) {
            for (i, spec) in self.jobs.drain(..).enumerate() {
                ctx.send(
                    self.lrm,
                    LrmRequest::Submit {
                        client_job: i as u64,
                        spec,
                    },
                );
            }
            if let Some((after, _)) = self.cancel_after {
                ctx.set_timer(after, 0);
            }
        }
        fn on_timer(&mut self, ctx: &mut Ctx<'_>, _id: TimerId, _tag: u64) {
            if let Some((_, local)) = self.cancel_after {
                ctx.send(self.lrm, LrmRequest::Cancel { local_id: local });
            }
        }
        fn on_message(&mut self, ctx: &mut Ctx<'_>, _from: Addr, msg: AnyMsg) {
            if let Some(ev) = msg.downcast_ref::<LrmEvent>() {
                self.events.entry(ev.local_id).or_default().push(format!(
                    "{:?}@{}",
                    ev.state,
                    ev.at.micros() / 1_000_000
                ));
                self.persist(ctx);
            } else if let Some(LrmReply::Submitted { local_id, .. }) =
                msg.downcast_ref::<LrmReply>()
            {
                self.events
                    .entry(*local_id)
                    .or_default()
                    .push("Submitted".into());
                self.persist(ctx);
            }
        }
    }

    fn events_of(w: &World, node: gridsim::NodeId, local: u64) -> Vec<String> {
        let flat: Vec<(u64, Vec<String>)> = w.store().get(node, "events").unwrap_or_default();
        flat.into_iter()
            .find(|(k, _)| *k == local)
            .map(|(_, v)| v)
            .unwrap_or_default()
    }

    fn run_world(
        cpus: u32,
        jobs: Vec<JobSpec>,
        build: impl FnOnce(Lrm) -> Lrm,
    ) -> (World, gridsim::NodeId) {
        let mut w = World::new(Config::default().seed(4));
        let site = w.add_node("site");
        let sub = w.add_node("submit");
        let lrm = w.add_component(site, "lrm", build(Lrm::new("pbs", cpus, Fifo)));
        w.add_component(
            sub,
            "submitter",
            Submitter {
                lrm,
                jobs,
                cancel_after: None,
                events: BTreeMap::new(),
            },
        );
        w.run_until_quiescent();
        (w, sub)
    }

    #[test]
    fn jobs_queue_run_and_complete_in_order() {
        let jobs = vec![
            JobSpec::simple(Duration::from_mins(10), "a"),
            JobSpec::simple(Duration::from_mins(10), "a"),
            JobSpec::simple(Duration::from_mins(10), "a"),
        ];
        // 1 CPU: jobs run serially.
        let (w, sub) = run_world(1, jobs, |l| l);
        for id in 0..3 {
            let evs = events_of(&w, sub, id);
            assert!(
                evs.iter().any(|e| e.starts_with("Running")),
                "job {id}: {evs:?}"
            );
            assert!(
                evs.iter().any(|e| e.starts_with("Completed")),
                "job {id}: {evs:?}"
            );
        }
        // Serial: total makespan ~30 min.
        assert!(w.now() >= SimTime::ZERO + Duration::from_mins(30));
        assert_eq!(w.metrics().counter("site.completed"), 3);
        // Queue waits: 0, 10, 20 minutes.
        let h = w.metrics().histogram("site.queue_wait").unwrap();
        assert_eq!(h.count(), 3);
        assert!((h.max() - 1200.0).abs() < 5.0, "max wait {}", h.max());
    }

    #[test]
    fn parallel_when_cpus_available() {
        let jobs = (0..4)
            .map(|_| JobSpec::simple(Duration::from_mins(10), "a"))
            .collect();
        let (w, _) = run_world(4, jobs, |l| l);
        // All four in parallel: makespan ~10 min.
        assert!(w.now() < SimTime::ZERO + Duration::from_mins(11));
    }

    #[test]
    fn wall_limit_kills_long_jobs() {
        let jobs = vec![
            JobSpec::simple(Duration::from_hours(10), "a"),
            JobSpec::simple(Duration::from_mins(5), "a"),
        ];
        let (w, sub) = run_world(2, jobs, |l| l.with_wall_limit(Duration::from_hours(1)));
        let evs = events_of(&w, sub, 0);
        assert!(
            evs.iter().any(|e| e.starts_with("WallTimeExceeded")),
            "{evs:?}"
        );
        let evs1 = events_of(&w, sub, 1);
        assert!(evs1.iter().any(|e| e.starts_with("Completed")), "{evs1:?}");
        // The kill happens at the 1-hour mark, not at 10 hours.
        assert!(w.now() < SimTime::ZERO + Duration::from_hours(2));
    }

    #[test]
    fn cancel_queued_job() {
        let mut w = World::new(Config::default().seed(4));
        let site = w.add_node("site");
        let subn = w.add_node("submit");
        let lrm = w.add_component(site, "lrm", Lrm::new("pbs", 1, Fifo));
        w.add_component(
            subn,
            "submitter",
            Submitter {
                lrm,
                jobs: vec![
                    JobSpec::simple(Duration::from_hours(5), "a"),
                    JobSpec::simple(Duration::from_hours(5), "a"),
                ],
                // Job 1 is still queued at t=1min; cancel it.
                cancel_after: Some((Duration::from_mins(1), 1)),
                events: BTreeMap::new(),
            },
        );
        w.run_until_quiescent();
        let evs = events_of(&w, subn, 1);
        assert!(evs.iter().any(|e| e.starts_with("Removed")), "{evs:?}");
        // Only job 0 completed.
        assert_eq!(w.metrics().counter("site.completed"), 1);
    }

    #[test]
    fn churn_vacates_and_requeues() {
        let mut w = World::new(Config::default().seed(11));
        let site = w.add_node("site");
        let subn = w.add_node("submit");
        // 4 CPUs with aggressive churn reclaiming 0..=4.
        let lrm = w.add_component(
            site,
            "lrm",
            Lrm::new("pool", 4, Fifo).with_churn(ChurnModel::steady(
                Dist::Exp { mean: 600.0 },
                Dist::Uniform { lo: 0.0, hi: 5.0 },
            )),
        );
        w.add_component(
            subn,
            "submitter",
            Submitter {
                lrm,
                jobs: (0..8)
                    .map(|_| JobSpec::simple(Duration::from_hours(1), "a"))
                    .collect(),
                cancel_after: None,
                events: BTreeMap::new(),
            },
        );
        w.run_until(SimTime::ZERO + Duration::from_days(3));
        // Despite vacations, every job eventually completes (requeue).
        assert_eq!(w.metrics().counter("site.completed"), 8);
        assert!(
            w.metrics().counter("site.vacated") > 0,
            "churn never vacated anything"
        );
    }

    #[test]
    fn status_and_info_queries() {
        struct Query {
            lrm: Addr,
        }
        impl Component for Query {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.send(
                    self.lrm,
                    LrmRequest::Submit {
                        client_job: 0,
                        spec: JobSpec::simple(Duration::from_hours(1), "a"),
                    },
                );
                ctx.set_timer(Duration::from_mins(1), 0);
            }
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, _id: TimerId, _tag: u64) {
                ctx.send(self.lrm, LrmRequest::Status { local_id: 0 });
                ctx.send(self.lrm, LrmRequest::QueryInfo);
            }
            fn on_message(&mut self, ctx: &mut Ctx<'_>, _from: Addr, msg: AnyMsg) {
                let node = ctx.node();
                if let Some(LrmReply::StatusIs { state, .. }) = msg.downcast_ref::<LrmReply>() {
                    ctx.store().put(node, "status", &format!("{state:?}"));
                } else if let Some(LrmReply::Info(info)) = msg.downcast_ref::<LrmReply>() {
                    ctx.store().put(
                        node,
                        "info",
                        &format!(
                            "total={} free={} queued={} running={}",
                            info.total_cpus, info.free_cpus, info.queued, info.running
                        ),
                    );
                }
            }
        }
        let mut w = World::new(Config::default().seed(4));
        let site = w.add_node("site");
        let subn = w.add_node("submit");
        let lrm = w.add_component(site, "lrm", Lrm::new("pbs", 4, Fifo));
        w.add_component(subn, "q", Query { lrm });
        w.run_until(SimTime::ZERO + Duration::from_mins(5));
        assert_eq!(
            w.store().get::<String>(subn, "status").unwrap(),
            "Some(Running)"
        );
        assert_eq!(
            w.store().get::<String>(subn, "info").unwrap(),
            "total=4 free=3 queued=0 running=1"
        );
    }
}
