//! The benchmark-side submitter and its correctness ledger.
//!
//! [`BenchDriver`] pulls a seeded [`CampaignStream`] and submits each job to
//! the Condor-G Scheduler through the user API (`UserCmd::Submit`), behind
//! a bounded in-flight window and a bounded arrival buffer — the same
//! open-loop-then-closed-loop shape as `workloads::campaign::CampaignDriver`.
//! Unlike that driver it keeps one [`Ledger`] entry per job, so a run can
//! prove that every submitted job reached exactly one terminal outcome and
//! can report each job's simulated turnaround.

use condor_g_suite::condor_g::api::{GridJobSpec, JobStatus};
use condor_g_suite::condor_g::{UserCmd, UserEvent};
use condor_g_suite::gridsim::prelude::*;
use condor_g_suite::gridsim::AnyMsg;
use condor_g_suite::workloads::campaign::{CampaignJob, CampaignStream};
use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::rc::Rc;

/// Terminal outcome of one job as the user saw it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// No terminal status reported (yet).
    Open,
    /// `JobStatus::Done`.
    Done,
    /// `JobStatus::Failed` (the agent gave up).
    Failed,
    /// `JobStatus::Removed`.
    Removed,
}

impl Outcome {
    fn code(self) -> u8 {
        match self {
            Outcome::Open => 0,
            Outcome::Done => 1,
            Outcome::Failed => 2,
            Outcome::Removed => 3,
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct Entry {
    /// When the arrival was due (open-loop schedule), µs of sim time.
    due_us: u64,
    /// When the submitter actually sent the submit, µs.
    sent_us: u64,
    /// First terminal report, µs.
    end_us: u64,
    /// Terminal reports received.
    terminals: u32,
    outcome: Outcome,
}

/// FNV-1a, the digest the repository's golden-trace oracles use.
fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

/// One entry per submitted job, indexed by submit command id.
#[derive(Debug)]
pub struct Ledger {
    entries: Vec<Entry>,
    /// Grid job id → command id, kept after the job settles so a second
    /// terminal report is caught.
    by_job: HashMap<u64, u64>,
    /// Terminal reports for jobs the Scheduler never acknowledged.
    unknown: u64,
    /// Jobs with at least one terminal report.
    settled: u64,
    /// FNV-1a over `(command id, outcome, end time)` in settle order.
    digest: u64,
}

impl Default for Ledger {
    fn default() -> Ledger {
        Ledger {
            entries: Vec::new(),
            by_job: HashMap::new(),
            unknown: 0,
            settled: 0,
            digest: 0xcbf2_9ce4_8422_2325,
        }
    }
}

/// What the ledger proves about a finished run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LedgerReport {
    /// Jobs submitted.
    pub submitted: u64,
    /// Jobs whose first terminal report was `Done`.
    pub done: u64,
    /// Jobs whose first terminal report was `Failed` or `Removed`.
    pub failed: u64,
    /// Jobs submitted but never reported terminal.
    pub lost: u64,
    /// Jobs reported terminal more than once.
    pub duplicates: u64,
    /// Terminal reports naming a job the Scheduler never acknowledged.
    pub unknown: u64,
    /// Outcome digest (identical across runs of one workload and seed).
    pub digest: u64,
    /// Sim seconds from each settled job's due arrival to its first
    /// terminal report, ascending.
    pub turnaround_s: Vec<f64>,
    /// Sim seconds each job waited in the submitter between its due arrival
    /// and its submission (the in-flight window's backpressure), ascending.
    pub admit_lag_s: Vec<f64>,
    /// Sim seconds until the last job settled.
    pub makespan_s: f64,
}

impl LedgerReport {
    /// Pool another campaign's report into this one (counts add, samples
    /// merge; the digest and makespan stay this report's own).
    pub fn absorb(&mut self, other: LedgerReport) {
        self.submitted += other.submitted;
        self.done += other.done;
        self.failed += other.failed;
        self.lost += other.lost;
        self.duplicates += other.duplicates;
        self.unknown += other.unknown;
        self.turnaround_s.extend(other.turnaround_s);
        self.turnaround_s.sort_by(f64::total_cmp);
        self.admit_lag_s.extend(other.admit_lag_s);
        self.admit_lag_s.sort_by(f64::total_cmp);
    }

    /// Every submitted job reached exactly one terminal outcome and the
    /// outcome counts add up.
    pub fn balanced(&self) -> bool {
        self.lost == 0
            && self.duplicates == 0
            && self.unknown == 0
            && self.done + self.failed == self.submitted
    }

    /// Jobs that failed, were lost, or were reported terminal twice, over
    /// jobs submitted (`0.0` when nothing was submitted).
    pub fn fail_frac(&self) -> f64 {
        if self.submitted == 0 {
            return 0.0;
        }
        (self.failed + self.lost + self.duplicates) as f64 / self.submitted as f64
    }
}

impl Ledger {
    /// Jobs with at least one terminal report.
    pub fn settled(&self) -> u64 {
        self.settled
    }

    /// Record a submission; returns its command id (1-based).
    pub fn submit(&mut self, due: SimTime, sent: SimTime) -> u64 {
        self.entries.push(Entry {
            due_us: due.micros(),
            sent_us: sent.micros(),
            end_us: 0,
            terminals: 0,
            outcome: Outcome::Open,
        });
        self.entries.len() as u64
    }

    /// The Scheduler acknowledged command `cmd` as grid job `job`.
    pub fn acknowledged(&mut self, cmd: u64, job: u64) {
        self.by_job.insert(job, cmd);
    }

    /// A terminal status arrived for grid job `job` at `at`.
    pub fn terminal(&mut self, job: u64, outcome: Outcome, at: SimTime) {
        let Some(entry) = self
            .by_job
            .get(&job)
            .and_then(|&cmd| Some((cmd, self.entries.get_mut(cmd as usize - 1)?)))
        else {
            self.unknown += 1;
            return;
        };
        let (cmd, entry) = entry;
        entry.terminals += 1;
        if entry.terminals > 1 {
            return;
        }
        entry.outcome = outcome;
        entry.end_us = at.micros();
        self.settled += 1;
        fnv1a(&mut self.digest, &cmd.to_le_bytes());
        fnv1a(&mut self.digest, &[outcome.code()]);
        fnv1a(&mut self.digest, &entry.end_us.to_le_bytes());
    }

    /// Audit the ledger.
    pub fn report(&self) -> LedgerReport {
        let mut r = LedgerReport {
            submitted: self.entries.len() as u64,
            done: 0,
            failed: 0,
            lost: 0,
            duplicates: 0,
            unknown: self.unknown,
            digest: self.digest,
            turnaround_s: Vec::with_capacity(self.entries.len()),
            admit_lag_s: Vec::with_capacity(self.entries.len()),
            makespan_s: 0.0,
        };
        let mut last_end = 0u64;
        for e in &self.entries {
            r.admit_lag_s
                .push(e.sent_us.saturating_sub(e.due_us) as f64 / 1e6);
            match e.outcome {
                Outcome::Open => {
                    r.lost += 1;
                    continue;
                }
                Outcome::Done => r.done += 1,
                Outcome::Failed | Outcome::Removed => r.failed += 1,
            }
            if e.terminals > 1 {
                r.duplicates += 1;
            }
            last_end = last_end.max(e.end_us);
            r.turnaround_s
                .push(e.end_us.saturating_sub(e.due_us) as f64 / 1e6);
        }
        r.turnaround_s.sort_by(f64::total_cmp);
        r.admit_lag_s.sort_by(f64::total_cmp);
        r.makespan_s = last_end as f64 / 1e6;
        r
    }
}

/// Builds the job a stream record becomes (grid or pool universe).
pub type JobMaker = fn(&CampaignJob, u64) -> GridJobSpec;

const TAG_ARRIVAL: u64 = 1;

/// Streams a campaign into the Scheduler and books every outcome.
pub struct BenchDriver {
    scheduler: Addr,
    stream: CampaignStream,
    make: JobMaker,
    max_inflight: usize,
    max_pending: usize,
    /// The arrival pulled off the stream but not yet due.
    head: Option<CampaignJob>,
    /// Due arrivals waiting for in-flight headroom (bounded).
    pending: VecDeque<CampaignJob>,
    inflight: usize,
    /// The armed arrival wakeup (at most one).
    armed: Option<SimTime>,
    ledger: Rc<RefCell<Ledger>>,
}

impl BenchDriver {
    /// A driver feeding `scheduler` from `stream`, booking into `ledger`.
    pub fn new(
        scheduler: Addr,
        stream: CampaignStream,
        make: JobMaker,
        max_inflight: usize,
        max_pending: usize,
        ledger: Rc<RefCell<Ledger>>,
    ) -> BenchDriver {
        BenchDriver {
            scheduler,
            stream,
            make,
            max_inflight,
            max_pending,
            head: None,
            pending: VecDeque::new(),
            inflight: 0,
            armed: None,
            ledger,
        }
    }

    fn due(job: &CampaignJob) -> SimTime {
        SimTime::ZERO + Duration::from_micros(job.at_micros)
    }

    /// The stream head if it is due by `now`.
    fn pull_due(&mut self, now: SimTime) -> Option<CampaignJob> {
        if self.head.is_none() {
            self.head = self.stream.next();
        }
        match self.head {
            Some(j) if Self::due(&j) <= now => self.head.take(),
            _ => None,
        }
    }

    /// Submit every due arrival the window has room for, buffer the rest
    /// (bounded), and arm one wakeup for the next future arrival.
    fn pump(&mut self, ctx: &mut Ctx<'_>) {
        let now = ctx.now();
        while self.inflight < self.max_inflight {
            let Some(job) = self.pending.pop_front().or_else(|| self.pull_due(now)) else {
                break;
            };
            let id = self.ledger.borrow_mut().submit(Self::due(&job), now);
            self.inflight += 1;
            let spec = (self.make)(&job, id);
            ctx.send(self.scheduler, UserCmd::Submit { id, spec });
        }
        while self.pending.len() < self.max_pending {
            let Some(job) = self.pull_due(now) else {
                break;
            };
            self.pending.push_back(job);
        }
        if let Some(j) = self.head {
            let at = Self::due(&j);
            if at > now && self.armed.is_none_or(|t| t <= now) {
                self.armed = Some(at);
                ctx.set_timer(at - now, TAG_ARRIVAL);
            }
        }
    }
}

impl Component for BenchDriver {
    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        self.pump(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_>, _id: TimerId, tag: u64) {
        if tag == TAG_ARRIVAL {
            self.armed = None;
            self.pump(ctx);
        }
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_>, _from: Addr, msg: AnyMsg) {
        let Some(event) = msg.downcast_ref::<UserEvent>() else {
            return;
        };
        match event {
            UserEvent::Submitted { id, job } => {
                self.ledger.borrow_mut().acknowledged(*id, job.0);
            }
            UserEvent::Status { job, status, .. } if status.is_terminal() => {
                let outcome = match status {
                    JobStatus::Done => Outcome::Done,
                    JobStatus::Removed => Outcome::Removed,
                    _ => Outcome::Failed,
                };
                let before = self.ledger.borrow().settled();
                self.ledger.borrow_mut().terminal(job.0, outcome, ctx.now());
                if self.ledger.borrow().settled() > before {
                    self.inflight -= 1;
                    self.pump(ctx);
                }
            }
            UserEvent::Status { .. } | UserEvent::Log { .. } => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(secs: u64) -> SimTime {
        SimTime::ZERO + Duration::from_secs(secs)
    }

    #[test]
    fn balanced_ledger_reports_turnaround_and_makespan() {
        let mut l = Ledger::default();
        let a = l.submit(t(0), t(0));
        let b = l.submit(t(10), t(15));
        l.acknowledged(a, 100);
        l.acknowledged(b, 101);
        l.terminal(101, Outcome::Done, t(40));
        l.terminal(100, Outcome::Failed, t(50));
        let r = l.report();
        assert!(r.balanced());
        assert_eq!((r.submitted, r.done, r.failed), (2, 1, 1));
        assert_eq!(r.turnaround_s, vec![30.0, 50.0]);
        assert_eq!(r.admit_lag_s, vec![0.0, 5.0]);
        assert_eq!(r.makespan_s, 50.0);
        assert_eq!(r.fail_frac(), 0.5);
    }

    #[test]
    fn lost_duplicate_and_unknown_jobs_unbalance_the_ledger() {
        let mut l = Ledger::default();
        let a = l.submit(t(0), t(0));
        let b = l.submit(t(0), t(0));
        l.acknowledged(a, 1);
        l.acknowledged(b, 2);
        l.terminal(1, Outcome::Done, t(5));
        l.terminal(1, Outcome::Done, t(6));
        let r = l.report();
        assert_eq!((r.lost, r.duplicates), (1, 1));
        assert!(!r.balanced());
        assert_eq!(r.fail_frac(), 1.0);

        let mut u = Ledger::default();
        u.terminal(9, Outcome::Done, t(1));
        assert_eq!(u.report().unknown, 1);
        assert!(!u.report().balanced());
    }

    #[test]
    fn digest_depends_on_outcomes_and_times() {
        let run = |outcome, end| {
            let mut l = Ledger::default();
            let a = l.submit(t(0), t(0));
            l.acknowledged(a, 7);
            l.terminal(7, outcome, t(end));
            l.report().digest
        };
        assert_eq!(run(Outcome::Done, 9), run(Outcome::Done, 9));
        assert_ne!(run(Outcome::Done, 9), run(Outcome::Failed, 9));
        assert_ne!(run(Outcome::Done, 9), run(Outcome::Done, 10));
    }
}
