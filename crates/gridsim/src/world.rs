//! The simulation kernel: owns the clock, the event queue, the nodes and
//! components, the network, stable storage, metrics and traces, and drives
//! everything to completion.

use crate::component::{Addr, CompId, Component, Ctx, Effect, Message, NodeId, ShardId};
use crate::event::{EventKind, NO_CAUSE};
use crate::fault::{FaultAction, FaultPlan};
use crate::metrics::Metrics;
use crate::network::flow::{AbortedFlow, BulkAborted};
use crate::network::{NetConfig, Network};
use crate::obs::Profiler;
use crate::rng::SimRng;
use crate::shard::{safe_horizon, Shard};
use crate::store::StableStore;
use crate::time::{Duration, EventKey, SimTime};
use crate::trace::TraceSink;
use std::collections::HashMap;

/// How often (in processed events) the coordinator samples the conservative
/// lookahead protocol's runnable-shard count into the `shard.runnable`
/// gauge. Sampling is bookkeeping only — it never affects execution order.
const RUNNABLE_SAMPLE_MASK: u64 = 4095;

/// The address used by [`World::post`] for externally injected messages.
/// Components may reply to it; such replies are silently dropped.
pub const EXTERNAL: Addr = Addr {
    node: NodeId(u32::MAX),
    comp: CompId(u32::MAX),
};

/// Kernel configuration.
#[derive(Clone, Debug, Default)]
pub struct Config {
    /// Master RNG seed; fully determines a run given the same setup code.
    pub seed: u64,
    /// Network model parameters.
    pub net: NetConfig,
    /// Whether to collect trace events.
    pub trace: bool,
    /// Hard stop: no event at or after this instant is processed.
    pub max_time: Option<SimTime>,
    /// Hard stop: maximum number of events to process.
    pub max_events: Option<u64>,
    /// Recycle the ids of transiently killed components
    /// ([`Ctx::kill_transient`]) into later spawns, keeping the dense
    /// component table sized by the *active* set instead of the lifetime
    /// spawn count. Off by default because reuse renumbers components and
    /// therefore changes trace output; campaign-scale runs turn it on.
    pub reuse_comp_ids: bool,
    /// Number of kernel shards to partition nodes across (0 and 1 both mean
    /// a single shard). Shard 0 is the *home* shard; setup code assigns
    /// site nodes to other shards via [`World::add_node_on`]. Any shard
    /// count produces byte-identical traces and digests for the same seed —
    /// the coordinator commits events in the global `(time, seq)` order —
    /// so the shard count is a performance/partitioning knob, never a
    /// semantics knob.
    pub shards: usize,
}

impl Config {
    /// Set the RNG seed.
    pub fn seed(mut self, seed: u64) -> Config {
        self.seed = seed;
        self
    }

    /// Set the network configuration.
    pub fn net(mut self, net: NetConfig) -> Config {
        self.net = net;
        self
    }

    /// Enable trace collection.
    pub fn with_trace(mut self) -> Config {
        self.trace = true;
        self
    }

    /// Stop the run at this virtual instant.
    pub fn max_time(mut self, t: SimTime) -> Config {
        self.max_time = Some(t);
        self
    }

    /// Stop the run after this many events.
    pub fn max_events(mut self, n: u64) -> Config {
        self.max_events = Some(n);
        self
    }

    /// Enable transient component-id recycling (see
    /// [`Config::reuse_comp_ids`]).
    pub fn reuse_comp_ids(mut self) -> Config {
        self.reuse_comp_ids = true;
        self
    }

    /// Partition the world into `n` kernel shards (see [`Config::shards`]).
    pub fn shards(mut self, n: usize) -> Config {
        self.shards = n;
        self
    }
}

/// A boot-time view of a restarting node, used by boot hooks to re-create
/// components from stable storage.
pub struct BootCtx<'w> {
    node: NodeId,
    now: SimTime,
    store: &'w StableStore,
    spawns: Vec<(String, Box<dyn Component>)>,
}

impl<'w> BootCtx<'w> {
    /// The restarting node.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Read-only stable storage, to decide what to recover.
    pub fn store(&self) -> &StableStore {
        self.store
    }

    /// Re-create a component on this node. Its `on_start` will run once the
    /// boot hook returns.
    pub fn add_component<C: Component>(&mut self, name: &str, comp: C) {
        self.spawns.push((name.to_string(), Box::new(comp)));
    }
}

/// A node's boot hook: re-creates components from stable storage on
/// restart.
type BootHook = Box<dyn FnMut(&mut BootCtx<'_>)>;

/// Per-node bookkeeping.
struct NodeEntry {
    name: String,
    up: bool,
    boot: Option<BootHook>,
    /// Components hosted here. A set (not a Vec) so the per-job
    /// spawn/kill churn of GRAM JobManagers stays O(log n) per kill
    /// instead of an O(n) scan; iteration order (by id) is deterministic.
    comps: std::collections::BTreeSet<CompId>,
}

/// Per-component bookkeeping.
struct CompEntry {
    addr: Addr,
    /// Interned: shared with profiler lookups, so the hot dispatch path
    /// never copies the name.
    name: std::rc::Rc<str>,
    comp: Option<Box<dyn Component>>,
    /// Incarnation number: bumped every time the id is reused after a
    /// crash/kill, so stale timers from a previous life never fire.
    epoch: u32,
}

/// The simulation world: a set of [`Shard`]s advanced by a deterministic
/// coordinator. See the crate docs for the model and [`crate::shard`] for
/// the partitioning/lookahead protocol.
pub struct World {
    now: SimTime,
    /// The shard executors. Every node is assigned to exactly one shard;
    /// each shard owns the calendar queue, FIFO link state and
    /// cancelled-timer set for its nodes. Never empty.
    shards: Vec<Shard>,
    /// Node → shard assignment (indexed by `NodeId`).
    node_shard: Vec<u32>,
    /// World-global event sequence counter. Allocating seq across shards
    /// from one stream is what makes the N-way merge reproduce the
    /// single-queue total order: cross-shard ties at the same timestamp
    /// break in push order, exactly as they always have.
    next_seq: u64,
    /// Cached head key `(time, seq)` of each shard's queue, `None` when the
    /// queue is empty. Invalidated (via `head_valid`) on push/pop.
    heads: Vec<Option<EventKey>>,
    head_valid: Vec<bool>,
    nodes: Vec<NodeEntry>,
    /// Component table indexed directly by `CompId` (ids are allocated
    /// sequentially, so the table is dense). Dead slots are `None`; the
    /// hot event-dispatch path is two array indexes, not hash lookups.
    comps: Vec<Option<CompEntry>>,
    names: HashMap<(NodeId, String), CompId>,
    network: Network,
    store: StableStore,
    rng: SimRng,
    metrics: Metrics,
    trace: TraceSink,
    next_comp: u32,
    next_timer: u64,
    /// Names of components that died (crash or kill), so a component
    /// re-created under the same name on the same node keeps its address —
    /// services restart on the same host:port.
    retired: HashMap<(NodeId, String), CompId>,
    /// Next epoch for a reused component id.
    epochs: HashMap<u32, u32>,
    /// Ids released by transient kills, with the epoch their next
    /// incarnation must start at. `Some` only when
    /// [`Config::reuse_comp_ids`] is on.
    free_comps: Option<Vec<(u32, u32)>>,
    halted: bool,
    events_processed: u64,
    max_time: Option<SimTime>,
    max_events: Option<u64>,
    /// Recycled effect buffers: dispatch is reentrant (spawn/kill effects
    /// dispatch nested handlers), so this is a small stack, not one slot.
    effects_pool: Vec<Vec<Effect>>,
    /// Kernel profiler; off by default (see [`World::enable_profiler`]).
    /// Wall-clock measurements never feed back into the simulation, so
    /// profiling does not perturb determinism.
    profiler: Option<Profiler>,
    /// Causal provenance of the event currently being processed: its own
    /// sequence number, its inherited nearest-observable-ancestor, and the
    /// trace sink's emitted count when its processing began. Every event
    /// scheduled while processing it gets `cause = cur_event_id` if a
    /// trace record was emitted since `trace_mark` (the event became
    /// observable), else `cur_inherited` — collapsing unobserved hops so
    /// the exported DAG stays connected without tracing every kernel
    /// event. With tracing off the emitted count never moves, the compare
    /// is always false, and the whole mechanism is three u64 stores per
    /// event.
    cur_event_id: u64,
    cur_inherited: u64,
    trace_mark: u64,
}

/// Stable names for kernel event kinds, used by the profiler's per-kind
/// breakdown.
fn event_kind_name(kind: &EventKind) -> &'static str {
    match kind {
        EventKind::Deliver { .. } => "deliver",
        EventKind::Timer { .. } => "timer",
        EventKind::NodeCrash { .. } => "node_crash",
        EventKind::NodeRestart { .. } => "node_restart",
        EventKind::PartitionStart { .. } => "partition_start",
        EventKind::PartitionEnd { .. } => "partition_end",
        EventKind::SetLossRate { .. } => "set_loss_rate",
        EventKind::FlowDone { .. } => "flow_done",
        EventKind::LinkDown { .. } => "link_down",
        EventKind::LinkUp { .. } => "link_up",
        EventKind::LinkBandwidth { .. } => "link_bandwidth",
    }
}

impl World {
    /// Build an empty world.
    pub fn new(config: Config) -> World {
        let shard_count = config.shards.max(1);
        World {
            now: SimTime::ZERO,
            shards: (0..shard_count).map(|_| Shard::new()).collect(),
            node_shard: Vec::new(),
            next_seq: 0,
            heads: vec![None; shard_count],
            head_valid: vec![true; shard_count],
            nodes: Vec::new(),
            comps: Vec::new(),
            names: HashMap::new(),
            network: Network::new(config.net),
            store: StableStore::with_shards(shard_count),
            rng: SimRng::new(config.seed),
            metrics: Metrics::new(),
            trace: TraceSink::new(config.trace),
            next_comp: 0,
            next_timer: 0,
            retired: HashMap::new(),
            epochs: HashMap::new(),
            free_comps: config.reuse_comp_ids.then(Vec::new),
            halted: false,
            events_processed: 0,
            max_time: config.max_time,
            max_events: config.max_events,
            effects_pool: Vec::new(),
            profiler: None,
            cur_event_id: NO_CAUSE,
            cur_inherited: NO_CAUSE,
            trace_mark: 0,
        }
    }

    /// The causal ancestor to stamp on an event scheduled right now: the
    /// current event if it proved observable (emitted a trace record),
    /// else whatever it inherited. See the field docs on `cur_event_id`.
    #[inline]
    fn cause_now(&self) -> u64 {
        if self.trace.emitted_count() > self.trace_mark {
            self.cur_event_id
        } else {
            self.cur_inherited
        }
    }

    // ----- construction ---------------------------------------------------

    /// Add a node (machine) named `name` on the home shard. Nodes start up.
    pub fn add_node(&mut self, name: &str) -> NodeId {
        self.add_node_on(name, ShardId::HOME)
    }

    /// Add a node on a specific shard. Out-of-range shard ids clamp to the
    /// last shard, so setup code can assign site groups round-robin without
    /// caring whether the world was built with 1 or N shards. Assignment
    /// happens at creation time: every event that fires on this node will
    /// be filed into (and executed by) this shard, and its stable-store
    /// keys live in the shard's partition.
    pub fn add_node_on(&mut self, name: &str, shard: ShardId) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        let shard = (shard.0 as usize).min(self.shards.len() - 1) as u32;
        self.node_shard.push(shard);
        self.store.assign_shard(id, ShardId(shard));
        self.nodes.push(NodeEntry {
            name: name.to_string(),
            up: true,
            boot: None,
            comps: std::collections::BTreeSet::new(),
        });
        id
    }

    /// The shard a node is assigned to.
    pub fn shard_of(&self, node: NodeId) -> ShardId {
        ShardId(self.node_shard.get(node.0 as usize).copied().unwrap_or(0))
    }

    /// Number of kernel shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Per-shard executed-event totals, indexed by shard id.
    pub fn shard_events(&self) -> Vec<u64> {
        self.shards.iter().map(|s| s.events).collect()
    }

    /// The node → shard assignment table (indexed by `NodeId`; nodes beyond
    /// the end are on shard 0). Observability layers use this to split
    /// per-shard streams, e.g. the flight recorder's per-shard rings.
    pub fn node_shards(&self) -> &[u32] {
        &self.node_shard
    }

    /// The shard that will execute `kind`: the shard of the node the event
    /// fires on. Global network events (partitions, loss changes) run on
    /// the home shard — they mutate coordinator-shared state, which is safe
    /// because commit order is globally serialized.
    fn shard_of_kind(&self, kind: &EventKind) -> usize {
        let node = match kind {
            EventKind::Deliver { to, .. } => to.node,
            EventKind::Timer { on, .. } => on.node,
            EventKind::NodeCrash { node } | EventKind::NodeRestart { node } => *node,
            EventKind::PartitionStart { .. }
            | EventKind::PartitionEnd { .. }
            | EventKind::SetLossRate { .. }
            | EventKind::FlowDone { .. }
            | EventKind::LinkDown { .. }
            | EventKind::LinkUp { .. }
            | EventKind::LinkBandwidth { .. } => return 0,
        };
        self.node_shard.get(node.0 as usize).copied().unwrap_or(0) as usize
    }

    /// File an event into its shard's queue with a globally allocated
    /// sequence number — the cross-shard channel send. The destination
    /// shard's cached head is invalidated.
    fn push_event(&mut self, time: SimTime, kind: EventKind, cause: u64) {
        let s = self.shard_of_kind(&kind);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.shards[s].queue.push_with_seq(time, seq, kind, cause);
        self.head_valid[s] = false;
    }

    /// Install a boot hook: called on every restart of `node` to re-create
    /// its components from stable storage.
    pub fn set_boot(&mut self, node: NodeId, boot: impl FnMut(&mut BootCtx<'_>) + 'static) {
        self.nodes[node.0 as usize].boot = Some(Box::new(boot));
    }

    /// Add a component to a (live) node; its `on_start` runs immediately.
    pub fn add_component<C: Component>(&mut self, node: NodeId, name: &str, comp: C) -> Addr {
        assert!(
            self.nodes[node.0 as usize].up,
            "adding component to crashed node"
        );
        let addr = self.insert_component(node, name.to_string(), Box::new(comp));
        self.dispatch_start(addr);
        addr
    }

    /// Borrow the live entry for `id`, if any.
    fn comp(&self, id: CompId) -> Option<&CompEntry> {
        self.comps.get(id.0 as usize).and_then(|s| s.as_ref())
    }

    /// The (possibly empty) table slot for `id`, growing the table on
    /// first use of a fresh id.
    fn comp_slot(&mut self, id: CompId) -> &mut Option<CompEntry> {
        let idx = id.0 as usize;
        if self.comps.len() <= idx {
            self.comps.resize_with(idx + 1, || None);
        }
        &mut self.comps[idx]
    }

    fn insert_component(&mut self, node: NodeId, name: String, comp: Box<dyn Component>) -> Addr {
        // A component re-created under a name that previously existed on
        // this node takes over the old address (stable host:port).
        let id = match self.retired.remove(&(node, name.clone())) {
            Some(old) => old,
            None => {
                let id = CompId(self.next_comp);
                self.next_comp += 1;
                id
            }
        };
        let epoch = self.epochs.get(&id.0).copied().unwrap_or(0);
        let addr = Addr { node, comp: id };
        *self.comp_slot(id) = Some(CompEntry {
            addr,
            name: name.as_str().into(),
            comp: Some(comp),
            epoch,
        });
        self.nodes[node.0 as usize].comps.insert(id);
        self.names.insert((node, name), id);
        addr
    }

    /// Mark a component id dead: retire its name for address reuse and bump
    /// the epoch so its outstanding timers die with it.
    fn retire(&mut self, node: NodeId, name: String, id: CompId) {
        *self.epochs.entry(id.0).or_insert(0) += 1;
        self.retired.insert((node, name), id);
    }

    /// Find a component by `(node, name)`.
    pub fn lookup(&self, node: NodeId, name: &str) -> Option<Addr> {
        self.names
            .get(&(node, name.to_string()))
            .map(|&comp| Addr { node, comp })
    }

    /// The name a node was registered with.
    pub fn node_name(&self, node: NodeId) -> &str {
        &self.nodes[node.0 as usize].name
    }

    /// Whether a node is currently up.
    pub fn node_up(&self, node: NodeId) -> bool {
        self.nodes[node.0 as usize].up
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    // ----- external stimulus ----------------------------------------------

    /// Inject a message from outside the simulation (delivered at the
    /// current instant, reliable). The receiver sees [`EXTERNAL`] as sender.
    pub fn post<M: Message>(&mut self, to: Addr, msg: M) {
        self.push_event(
            self.now,
            EventKind::Deliver {
                from: EXTERNAL,
                to,
                msg: Box::new(msg),
            },
            NO_CAUSE,
        );
    }

    /// Schedule the actions of a fault plan.
    pub fn apply_fault_plan(&mut self, plan: &FaultPlan) {
        for (t, action) in plan.actions() {
            let kind = match action.clone() {
                FaultAction::Crash(node) => EventKind::NodeCrash { node },
                FaultAction::Restart(node) => EventKind::NodeRestart { node },
                FaultAction::Partition(a, b) => EventKind::PartitionStart {
                    group_a: a,
                    group_b: b,
                },
                FaultAction::Heal(a, b) => EventKind::PartitionEnd {
                    group_a: a,
                    group_b: b,
                },
                FaultAction::SetLoss(rate) => EventKind::SetLossRate {
                    rate: rate.unwrap_or(f64::NAN),
                },
                FaultAction::LinkDown(link) => EventKind::LinkDown { link },
                FaultAction::LinkUp(link) => EventKind::LinkUp { link },
                FaultAction::LinkBandwidth(link, capacity) => EventKind::LinkBandwidth {
                    link,
                    capacity: capacity.unwrap_or(f64::NAN),
                },
            };
            // Fault injections are roots of the happens-before DAG.
            self.push_event(*t, kind, NO_CAUSE);
        }
    }

    /// Crash a node right now (see [`Ctx::crash_node`] for semantics).
    pub fn crash_node_now(&mut self, node: NodeId) {
        self.do_crash(node);
    }

    /// Restart a crashed node right now.
    pub fn restart_node_now(&mut self, node: NodeId) {
        self.do_restart(node);
    }

    /// Abruptly kill a single component (like `kill -9` on one daemon):
    /// no `on_stop` runs, its timers die, in-flight messages to it drop.
    /// Fault-injection only; see [`crate::Ctx::kill`] for graceful removal.
    pub fn kill_component_now(&mut self, addr: Addr) {
        if self.comp(addr.comp).is_some_and(|c| c.addr == addr) {
            self.remove_component(addr);
            self.metrics.incr("comp.killed", 1);
        }
    }

    // ----- accessors -------------------------------------------------------

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Pending events across every shard's queue (telemetry heartbeats
    /// sample this as a backpressure signal).
    pub fn queue_len(&self) -> usize {
        self.shards.iter().map(|s| s.queue.len()).sum()
    }

    /// The metrics sink.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Mutable metrics (for experiment-level bookkeeping).
    pub fn metrics_mut(&mut self) -> &mut Metrics {
        &mut self.metrics
    }

    /// Turn on the kernel profiler (resets any prior profile). Cheap enough
    /// to leave on for long campaigns.
    pub fn enable_profiler(&mut self) {
        self.profiler = Some(Profiler::new());
    }

    /// The profiler, if [`World::enable_profiler`] was called.
    pub fn profiler(&self) -> Option<&Profiler> {
        self.profiler.as_ref()
    }

    /// The trace sink.
    pub fn trace(&self) -> &TraceSink {
        &self.trace
    }

    /// Mutable trace sink.
    pub fn trace_mut(&mut self) -> &mut TraceSink {
        &mut self.trace
    }

    /// Stable storage.
    pub fn store(&self) -> &StableStore {
        &self.store
    }

    /// Mutable stable storage (to pre-seed files, inspect state in tests).
    pub fn store_mut(&mut self) -> &mut StableStore {
        &mut self.store
    }

    /// The network model (to install link overrides).
    pub fn network_mut(&mut self) -> &mut Network {
        &mut self.network
    }

    /// The world RNG (e.g. to fork streams for setup code).
    pub fn rng_mut(&mut self) -> &mut SimRng {
        &mut self.rng
    }

    // ----- running ---------------------------------------------------------

    /// Refresh the cached head keys of any shard whose queue changed.
    fn refresh_heads(&mut self) {
        for s in 0..self.shards.len() {
            if !self.head_valid[s] {
                self.heads[s] = self.shards[s].queue.peek_key();
                self.head_valid[s] = true;
            }
        }
    }

    /// The shard holding the globally earliest `(time, seq)` event — the
    /// N-way merge step of the coordinator. `None` when every queue is
    /// empty.
    fn min_shard(&mut self) -> Option<usize> {
        self.refresh_heads();
        let mut best: Option<(EventKey, usize)> = None;
        for (s, head) in self.heads.iter().enumerate() {
            if let Some(key) = *head {
                match best {
                    Some((bk, _)) if bk <= key => {}
                    _ => best = Some((key, s)),
                }
            }
        }
        best.map(|(_, s)| s)
    }

    /// Timestamp of the globally earliest pending event, if any.
    fn next_event_time(&mut self) -> Option<SimTime> {
        let s = self.min_shard()?;
        self.heads[s].map(|(t, _)| t)
    }

    /// How many shards could execute their next event *concurrently* under
    /// the conservative lookahead protocol: shards whose head lies at or
    /// before their safe horizon (minimum over peer shards with a pending
    /// event of that event's time + WAN lookahead). A measure of the
    /// parallelism the current partition exposes; at least 1 whenever an
    /// event is pending, since the globally earliest head is always safe.
    pub fn runnable_shards(&mut self) -> usize {
        let lookahead = self.network.lookahead();
        self.refresh_heads();
        let next: Vec<Option<SimTime>> = self.heads.iter().map(|h| h.map(|(t, _)| t)).collect();
        next.iter()
            .enumerate()
            .filter(|&(s, head)| head.is_some_and(|t| t <= safe_horizon(&next, s, lookahead)))
            .count()
    }

    /// Process a single event. Returns `false` when nothing was processed
    /// (queue empty, halted, or a stop condition was hit).
    pub fn step(&mut self) -> bool {
        if self.halted {
            return false;
        }
        if let Some(max) = self.max_events {
            if self.events_processed >= max {
                return false;
            }
        }
        // Merge-pop the globally earliest event, discarding cancelled
        // timers without advancing the clock, so a cancelled far-future
        // timeout doesn't stretch the run.
        let (shard, event) = loop {
            let Some(s) = self.min_shard() else {
                return false;
            };
            let event = self.shards[s].queue.pop().expect("cached head present");
            self.head_valid[s] = false;
            if let EventKind::Timer { id, .. } = &event.kind {
                let sh = &mut self.shards[s];
                if !sh.cancelled.is_empty() && sh.cancelled.remove(id) {
                    continue;
                }
            }
            break (s, event);
        };
        if let Some(max) = self.max_time {
            if event.time > max {
                self.now = max;
                self.halted = true;
                return false;
            }
        }
        debug_assert!(event.time >= self.now, "time went backwards");
        self.now = event.time;
        self.events_processed += 1;
        {
            let sh = &mut self.shards[shard];
            sh.clock = event.time;
            sh.events += 1;
        }
        self.cur_event_id = event.seq;
        self.cur_inherited = event.cause;
        self.trace_mark = self.trace.emitted_count();
        if let Some(p) = &mut self.profiler {
            let depth = self.shards.iter().map(|s| s.queue.len()).sum();
            p.note_event(event_kind_name(&event.kind), event.time, depth);
        }
        self.process(event.kind);
        if self.shards.len() > 1 && self.events_processed & RUNNABLE_SAMPLE_MASK == 0 {
            let runnable = self.runnable_shards() as f64;
            let now = self.now;
            self.metrics.gauge("shard.runnable", now, runnable);
        }
        true
    }

    /// Run until no events remain (or a stop condition fires).
    pub fn run_until_quiescent(&mut self) {
        while self.step() {}
    }

    /// Run all events up to and including `t`, then set the clock to `t`.
    pub fn run_until(&mut self, t: SimTime) {
        while !self.halted {
            match self.next_event_time() {
                Some(et) if et <= t => {
                    if !self.step() {
                        break;
                    }
                }
                _ => break,
            }
        }
        if self.now < t && !self.halted {
            self.now = t;
        }
    }

    /// Run for a span of virtual time from now.
    pub fn run_for(&mut self, d: Duration) {
        let target = self.now + d;
        self.run_until(target);
    }

    /// True once `halt` was requested or a stop condition fired.
    pub fn halted(&self) -> bool {
        self.halted
    }

    // ----- internals --------------------------------------------------------

    fn process(&mut self, kind: EventKind) {
        match kind {
            EventKind::Deliver { from, to, msg } => {
                if !self.nodes.get(to.node.0 as usize).is_some_and(|n| n.up) {
                    self.metrics.incr("net.dropped_dead_node", 1);
                    return;
                }
                let alive = self
                    .comp(to.comp)
                    .is_some_and(|c| c.comp.is_some() && c.addr == to);
                if !alive {
                    self.metrics.incr("net.dropped_dead_comp", 1);
                    return;
                }
                self.dispatch(to, |comp, ctx| comp.on_message(ctx, from, msg));
            }
            EventKind::Timer { on, id, tag, epoch } => {
                let s = self
                    .node_shard
                    .get(on.node.0 as usize)
                    .copied()
                    .unwrap_or(0) as usize;
                let sh = &mut self.shards[s];
                if !sh.cancelled.is_empty() && sh.cancelled.remove(&id) {
                    return;
                }
                if !self.nodes.get(on.node.0 as usize).is_some_and(|n| n.up) {
                    return;
                }
                let alive = self
                    .comp(on.comp)
                    .is_some_and(|c| c.comp.is_some() && c.addr == on && c.epoch == epoch);
                if !alive {
                    return;
                }
                self.dispatch(on, |comp, ctx| comp.on_timer(ctx, id, tag));
            }
            EventKind::NodeCrash { node } => {
                // Emit before acting, so everything the fault triggers
                // (boot chains, retries) links back to this record.
                self.trace_fault("fault.crash", |w| format!("node={}", w.node_name(node)));
                self.do_crash(node);
                if self.network.flow_enabled() {
                    let (aborted, resched) = self.network.flow_abort_node(node, self.now);
                    self.finish_flow_aborts(aborted, resched);
                }
            }
            EventKind::NodeRestart { node } => {
                self.trace_fault("fault.restart", |w| format!("node={}", w.node_name(node)));
                self.do_restart(node);
            }
            EventKind::PartitionStart { group_a, group_b } => {
                self.trace_fault("fault.partition", |w| {
                    format!(
                        "a={} b={}",
                        w.group_names(&group_a),
                        w.group_names(&group_b)
                    )
                });
                self.network.partition(&group_a, &group_b);
                self.metrics.incr("net.partitions", 1);
                if self.network.flow_enabled() {
                    let (aborted, resched) = self.network.flow_abort_unreachable(self.now);
                    self.finish_flow_aborts(aborted, resched);
                }
            }
            EventKind::PartitionEnd { group_a, group_b } => {
                self.trace_fault("fault.heal", |w| {
                    format!(
                        "a={} b={}",
                        w.group_names(&group_a),
                        w.group_names(&group_b)
                    )
                });
                self.network.heal(&group_a, &group_b);
            }
            EventKind::SetLossRate { rate } => {
                self.trace_fault("fault.loss", |_| format!("rate={rate}"));
                self.network
                    .set_global_loss(if rate.is_nan() { None } else { Some(rate) });
            }
            EventKind::FlowDone { flow } => {
                // Stale deadlines (rescheduled flows) return None: ignore.
                if let Some((from, to, msg, resched)) = self.network.flow_complete(flow, self.now) {
                    self.metrics.incr("net.flows_done", 1);
                    let cause = self.cause_now();
                    self.push_event(self.now, EventKind::Deliver { from, to, msg }, cause);
                    self.push_flow_deadlines(resched, cause);
                }
            }
            EventKind::LinkDown { link } => {
                self.trace_fault("fault.link_down", |_| format!("link={link}"));
                if let Some((aborted, resched)) = self.network.flow_link_down(&link, self.now) {
                    self.metrics.incr("net.link_downs", 1);
                    self.finish_flow_aborts(aborted, resched);
                }
            }
            EventKind::LinkUp { link } => {
                self.trace_fault("fault.link_up", |_| format!("link={link}"));
                if let Some(resched) = self.network.flow_link_up(&link, self.now) {
                    let cause = self.cause_now();
                    self.push_flow_deadlines(resched, cause);
                }
            }
            EventKind::LinkBandwidth { link, capacity } => {
                self.trace_fault("fault.link_bandwidth", |_| {
                    format!("link={link} capacity={capacity}")
                });
                let cap = if capacity.is_nan() {
                    None
                } else {
                    Some(capacity)
                };
                if let Some(resched) = self.network.flow_link_bandwidth(&link, cap, self.now) {
                    self.metrics.incr("net.link_rescales", 1);
                    let cause = self.cause_now();
                    self.push_flow_deadlines(resched, cause);
                }
            }
        }
    }

    /// Schedule a `FlowDone` check for every flow whose completion
    /// deadline just changed.
    fn push_flow_deadlines(&mut self, resched: Vec<(u64, SimTime)>, cause: u64) {
        for (flow, at) in resched {
            self.push_event(at, EventKind::FlowDone { flow }, cause);
        }
    }

    /// Deliver a [`BulkAborted`] notice to the sender of every aborted
    /// flow (at the current instant — the sender-side stack observes the
    /// break immediately, like a TCP reset) and install the survivors'
    /// updated completion schedule.
    fn finish_flow_aborts(&mut self, aborted: Vec<AbortedFlow>, resched: Vec<(u64, SimTime)>) {
        let cause = self.cause_now();
        for a in aborted {
            self.metrics.incr("net.flows_aborted", 1);
            self.push_event(
                self.now,
                EventKind::Deliver {
                    from: a.to,
                    to: a.from,
                    msg: Box::new(BulkAborted {
                        to: a.to,
                        bytes: a.bytes,
                        msg: a.msg,
                    }),
                },
                cause,
            );
        }
        self.push_flow_deadlines(resched, cause);
    }

    /// Record a kernel-injected fault in the trace (roots of the causal
    /// DAG, attributed to [`EXTERNAL`]). The detail closure runs only when
    /// the sink is active.
    fn trace_fault(&mut self, kind: &'static str, detail: impl FnOnce(&World) -> String) {
        if !self.trace.is_active() {
            return;
        }
        let d = detail(self);
        let (now, id, cause) = (self.now, self.cur_event_id, self.cur_inherited);
        self.trace.emit(now, EXTERNAL, kind, d, id, cause);
    }

    /// Comma-joined node names for a partition group.
    fn group_names(&self, group: &[NodeId]) -> String {
        let names: Vec<&str> = group.iter().map(|&n| self.node_name(n)).collect();
        names.join(",")
    }

    /// Take the component out, run `f` with a fresh context, put it back,
    /// then apply the buffered effects.
    fn dispatch<F>(&mut self, addr: Addr, f: F)
    where
        F: FnOnce(&mut dyn Component, &mut Ctx<'_>),
    {
        let Some(entry) = self
            .comps
            .get_mut(addr.comp.0 as usize)
            .and_then(|s| s.as_mut())
        else {
            return;
        };
        let Some(mut comp) = entry.comp.take() else {
            return;
        };
        let prof_name = self.profiler.as_ref().map(|_| entry.name.clone());
        let mut ctx = Ctx {
            now: self.now,
            self_addr: addr,
            effects: self.effects_pool.pop().unwrap_or_default(),
            store: &mut self.store,
            rng: &mut self.rng,
            metrics: &mut self.metrics,
            trace: &mut self.trace,
            next_timer: &mut self.next_timer,
            next_comp: &mut self.next_comp,
            retired: &self.retired,
            free_comps: self.free_comps.as_mut(),
            event_id: self.cur_event_id,
            event_cause: self.cur_inherited,
            shard: ShardId(
                self.node_shard
                    .get(addr.node.0 as usize)
                    .copied()
                    .unwrap_or(0),
            ),
        };
        let handler_start = prof_name.as_ref().map(|_| std::time::Instant::now());
        f(comp.as_mut(), &mut ctx);
        let effects = ctx.effects;
        if let (Some(p), Some(name), Some(t0)) = (self.profiler.as_mut(), prof_name, handler_start)
        {
            p.note_handler(&name, t0.elapsed());
        }
        if let Some(entry) = self
            .comps
            .get_mut(addr.comp.0 as usize)
            .and_then(|s| s.as_mut())
        {
            // The slot can only still be empty (crash removes the entry
            // entirely, and effects haven't been applied yet).
            entry.comp = Some(comp);
        }
        self.apply_effects(addr, effects);
    }

    fn dispatch_start(&mut self, addr: Addr) {
        self.dispatch(addr, |comp, ctx| comp.on_start(ctx));
    }

    fn apply_effects(&mut self, from: Addr, mut effects: Vec<Effect>) {
        for effect in effects.drain(..) {
            match effect {
                Effect::Send { to, msg } => {
                    self.metrics.incr("net.sent", 1);
                    match self.network.route(&mut self.rng, from.node, to.node) {
                        Some(latency) => {
                            // FIFO per directed link: never deliver before a
                            // message sent earlier on the same link. Link
                            // state lives on the *sender's* shard (the one
                            // executing this effect).
                            let mut at = self.now + latency;
                            let s = self
                                .node_shard
                                .get(from.node.0 as usize)
                                .copied()
                                .unwrap_or(0);
                            let slot = self.shards[s as usize]
                                .fifo
                                .entry((from.node, to.node))
                                .or_insert(at);
                            if *slot > at {
                                at = *slot;
                            }
                            *slot = at;
                            let cause = self.cause_now();
                            self.push_event(at, EventKind::Deliver { from, to, msg }, cause);
                        }
                        None => {
                            self.metrics.incr("net.lost", 1);
                        }
                    }
                }
                Effect::SendBulk { to, bytes, msg } => {
                    self.metrics.incr("net.bulk_transfers", 1);
                    self.metrics.incr("net.bulk_bytes", bytes);
                    if self.network.flow_enabled() && from.node != to.node {
                        // Flow mode: the transfer contends with every other
                        // flow on its route; completion is a rescheduled
                        // kernel event, not a duration fixed at start.
                        let now = self.now;
                        match self
                            .network
                            .flow_start(&mut self.rng, from, to, bytes, msg, now)
                        {
                            Some(resched) => {
                                self.metrics.incr("net.flows_started", 1);
                                let cause = self.cause_now();
                                self.push_flow_deadlines(resched, cause);
                            }
                            None => {
                                self.metrics.incr("net.lost", 1);
                            }
                        }
                        continue;
                    }
                    match self
                        .network
                        .transfer_duration(&mut self.rng, from.node, to.node, bytes)
                    {
                        Some(delay) => {
                            let cause = self.cause_now();
                            self.push_event(
                                self.now + delay,
                                EventKind::Deliver { from, to, msg },
                                cause,
                            );
                        }
                        None => {
                            self.metrics.incr("net.lost", 1);
                        }
                    }
                }
                Effect::SendLocal { to, msg } => {
                    let latency = self
                        .network
                        .route(&mut self.rng, from.node, from.node)
                        .expect("loopback never drops");
                    let cause = self.cause_now();
                    self.push_event(
                        self.now + latency,
                        EventKind::Deliver { from, to, msg },
                        cause,
                    );
                }
                Effect::SetTimer { id, after, tag } => {
                    let epoch = self.comp(from.comp).map_or(0, |c| c.epoch);
                    let cause = self.cause_now();
                    self.push_event(
                        self.now + after,
                        EventKind::Timer {
                            on: from,
                            id,
                            tag,
                            epoch,
                        },
                        cause,
                    );
                }
                Effect::CancelTimer { id } => {
                    // Timers fire on the component that set them, so the
                    // cancellation lands in the issuing shard's set.
                    let s = self
                        .node_shard
                        .get(from.node.0 as usize)
                        .copied()
                        .unwrap_or(0);
                    self.shards[s as usize].cancelled.insert(id);
                }
                Effect::Spawn {
                    node,
                    name,
                    comp,
                    id,
                    epoch,
                } => {
                    if !self.nodes[node.0 as usize].up {
                        // Spawning onto a dead node fails silently, like
                        // forking on a crashed machine.
                        continue;
                    }
                    // The id may be a retired one being reused.
                    self.retired.remove(&(node, name.clone()));
                    let addr = Addr { node, comp: id };
                    // Recycled ids carry their epoch with them; retired
                    // (same-name) reuse reads the epochs map as before.
                    let epoch =
                        epoch.unwrap_or_else(|| self.epochs.get(&id.0).copied().unwrap_or(0));
                    *self.comp_slot(id) = Some(CompEntry {
                        addr,
                        name: name.as_str().into(),
                        comp: Some(comp),
                        epoch,
                    });
                    self.nodes[node.0 as usize].comps.insert(id);
                    self.names.insert((node, name), id);
                    self.dispatch_start(addr);
                }
                Effect::Kill { addr } => {
                    self.dispatch(addr, |comp, ctx| comp.on_stop(ctx));
                    self.remove_component(addr);
                }
                Effect::KillTransient { addr } => {
                    self.dispatch(addr, |comp, ctx| comp.on_stop(ctx));
                    self.remove_component_transient(addr);
                }
                Effect::CrashNode { node } => self.do_crash(node),
                Effect::RestartNode { node, after } => {
                    let cause = self.cause_now();
                    self.push_event(self.now + after, EventKind::NodeRestart { node }, cause);
                }
                Effect::Halt => {
                    self.halted = true;
                }
            }
        }
        if self.effects_pool.len() < 8 {
            self.effects_pool.push(effects);
        }
    }

    fn remove_component(&mut self, addr: Addr) {
        if let Some(entry) = self
            .comps
            .get_mut(addr.comp.0 as usize)
            .and_then(|s| s.take())
        {
            let name = entry.name.to_string();
            self.names.remove(&(addr.node, name.clone()));
            self.nodes[addr.node.0 as usize].comps.remove(&addr.comp);
            self.retire(addr.node, name, addr.comp);
        }
    }

    /// Remove a component without retiring its name: no `retired` or
    /// `epochs` entry survives it, so per-job transients (JobManagers) cost
    /// zero residual kernel memory. Stale timers and deliveries still drop
    /// because the slot is empty and the id is never reused.
    fn remove_component_transient(&mut self, addr: Addr) {
        if let Some(entry) = self
            .comps
            .get_mut(addr.comp.0 as usize)
            .and_then(|s| s.take())
        {
            self.names.remove(&(addr.node, entry.name.to_string()));
            self.nodes[addr.node.0 as usize].comps.remove(&addr.comp);
            if let Some(free) = &mut self.free_comps {
                // Bump the epoch so the dead incarnation's timers cannot
                // fire into whatever reuses the id.
                free.push((addr.comp.0, entry.epoch + 1));
            }
        }
    }

    fn do_crash(&mut self, node: NodeId) {
        let entry = &mut self.nodes[node.0 as usize];
        if !entry.up {
            return;
        }
        entry.up = false;
        let comps = std::mem::take(&mut entry.comps);
        for id in comps {
            if let Some(e) = self.comps.get_mut(id.0 as usize).and_then(|s| s.take()) {
                let name = e.name.to_string();
                self.names.remove(&(node, name.clone()));
                self.retire(node, name, id);
            }
        }
        self.metrics.incr("node.crashes", 1);
    }

    fn do_restart(&mut self, node: NodeId) {
        let entry = &mut self.nodes[node.0 as usize];
        if entry.up {
            return;
        }
        entry.up = true;
        self.metrics.incr("node.restarts", 1);
        // Run the boot hook, collecting spawns, then install them.
        let Some(mut boot) = self.nodes[node.0 as usize].boot.take() else {
            return;
        };
        let mut bctx = BootCtx {
            node,
            now: self.now,
            store: &self.store,
            spawns: Vec::new(),
        };
        boot(&mut bctx);
        let spawns = bctx.spawns;
        self.nodes[node.0 as usize].boot = Some(boot);
        for (name, comp) in spawns {
            let addr = self.insert_component(node, name, comp);
            self.dispatch_start(addr);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::{AnyMsg, TimerId};

    /// A component that counts messages and echoes them back `echoes` times.
    struct Echo {
        received: u64,
        echoes: u32,
        record_key: Option<String>,
    }

    #[derive(Debug)]
    struct Hit(u32);

    impl Component for Echo {
        fn on_message(&mut self, ctx: &mut Ctx<'_>, from: Addr, msg: AnyMsg) {
            let Hit(n) = *msg.downcast::<Hit>().unwrap();
            self.received += 1;
            if let Some(key) = &self.record_key {
                let node = ctx.node();
                let count = self.received;
                ctx.store().put(node, key, &count);
            }
            if n < self.echoes && from != EXTERNAL {
                ctx.send(from, Hit(n + 1));
            }
        }
    }

    #[test]
    fn message_round_trips() {
        let mut w = World::new(Config::default().seed(1));
        let na = w.add_node("a");
        let nb = w.add_node("b");
        let a = w.add_component(
            na,
            "echo",
            Echo {
                received: 0,
                echoes: 4,
                record_key: None,
            },
        );
        let b = w.add_component(
            nb,
            "echo",
            Echo {
                received: 0,
                echoes: 4,
                record_key: None,
            },
        );
        // Prime: have a send to b by posting to a? post is EXTERNAL; instead
        // post directly to b from a's address is not possible — start the
        // exchange with a spawned kicker.
        struct Kicker(Addr);
        impl Component for Kicker {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.send(self.0, Hit(0));
            }
        }
        w.add_component(na, "kick", Kicker(b));
        w.run_until_quiescent();
        assert!(w.now() > SimTime::ZERO);
        let _ = (a, b);
    }

    #[test]
    fn external_post_is_delivered() {
        let mut w = World::new(Config::default().seed(1));
        let n = w.add_node("n");
        let addr = w.add_component(
            n,
            "echo",
            Echo {
                received: 0,
                echoes: 0,
                record_key: Some("hits".into()),
            },
        );
        w.post(addr, Hit(0));
        w.post(addr, Hit(0));
        w.run_until_quiescent();
        assert_eq!(w.store().get::<u64>(n, "hits"), Some(2));
    }

    #[test]
    fn crash_drops_components_and_store_survives() {
        let mut w = World::new(Config::default().seed(1));
        let n = w.add_node("n");
        let addr = w.add_component(
            n,
            "echo",
            Echo {
                received: 0,
                echoes: 0,
                record_key: Some("hits".into()),
            },
        );
        w.post(addr, Hit(0));
        w.run_until_quiescent();
        w.crash_node_now(n);
        assert!(!w.node_up(n));
        assert!(w.lookup(n, "echo").is_none());
        // Store survived the crash.
        assert_eq!(w.store().get::<u64>(n, "hits"), Some(1));
        // Message to the dead component is dropped, not an error.
        w.post(addr, Hit(0));
        w.run_until_quiescent();
        assert_eq!(w.metrics().counter("net.dropped_dead_node"), 1);
    }

    #[test]
    fn boot_hook_recovers_from_store() {
        let mut w = World::new(Config::default().seed(1));
        let n = w.add_node("n");
        let addr = w.add_component(
            n,
            "echo",
            Echo {
                received: 0,
                echoes: 0,
                record_key: Some("hits".into()),
            },
        );
        w.set_boot(n, move |b| {
            let prior: u64 = b.store().get(b.node(), "hits").unwrap_or(0);
            b.add_component(
                "echo",
                Echo {
                    received: prior,
                    echoes: 0,
                    record_key: Some("hits".into()),
                },
            );
        });
        w.post(addr, Hit(0));
        w.post(addr, Hit(0));
        w.post(addr, Hit(0));
        w.run_until_quiescent();
        w.crash_node_now(n);
        w.restart_node_now(n);
        let revived = w.lookup(n, "echo").expect("component rebooted");
        assert_eq!(revived, addr, "a restarted service keeps its address");
        w.post(revived, Hit(0));
        w.run_until_quiescent();
        assert_eq!(w.store().get::<u64>(n, "hits"), Some(4));
    }

    #[test]
    fn timers_fire_and_cancel() {
        struct TimerUser {
            fired: Vec<u64>,
        }
        impl Component for TimerUser {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.set_timer(Duration::from_secs(1), 1);
                let cancel_me = ctx.set_timer(Duration::from_secs(2), 2);
                ctx.set_timer(Duration::from_secs(3), 3);
                ctx.cancel_timer(cancel_me);
            }
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, _id: TimerId, tag: u64) {
                self.fired.push(tag);
                let node = ctx.node();
                let fired = self.fired.clone();
                ctx.store().put(node, "fired", &fired);
            }
        }
        let mut w = World::new(Config::default().seed(1));
        let n = w.add_node("n");
        w.add_component(n, "t", TimerUser { fired: vec![] });
        w.run_until_quiescent();
        assert_eq!(w.store().get::<Vec<u64>>(n, "fired"), Some(vec![1, 3]));
        assert_eq!(w.now(), SimTime::ZERO + Duration::from_secs(3));
    }

    #[test]
    fn run_until_advances_clock_without_events() {
        let mut w = World::new(Config::default().seed(1));
        w.run_until(SimTime::ZERO + Duration::from_secs(10));
        assert_eq!(w.now(), SimTime::ZERO + Duration::from_secs(10));
    }

    #[test]
    fn max_time_stops_the_run() {
        struct Ticker;
        impl Component for Ticker {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.set_timer(Duration::from_secs(1), 0);
            }
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, _id: TimerId, _tag: u64) {
                ctx.set_timer(Duration::from_secs(1), 0);
            }
        }
        let mut w = World::new(
            Config::default()
                .seed(1)
                .max_time(SimTime::ZERO + Duration::from_secs(5)),
        );
        let n = w.add_node("n");
        w.add_component(n, "tick", Ticker);
        w.run_until_quiescent();
        assert!(w.halted());
        assert_eq!(w.now(), SimTime::ZERO + Duration::from_secs(5));
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        fn run(seed: u64) -> Vec<String> {
            struct Noisy;
            impl Component for Noisy {
                fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                    let jitter = ctx.rng().range_u64(1, 100);
                    ctx.set_timer(Duration::from_millis(jitter), 0);
                }
                fn on_timer(&mut self, ctx: &mut Ctx<'_>, _id: TimerId, tag: u64) {
                    let r = ctx.rng().range_u64(0, 1000);
                    ctx.trace("tick", format!("tag={tag} r={r}"));
                    if tag < 20 {
                        let jitter = ctx.rng().range_u64(1, 100);
                        ctx.set_timer(Duration::from_millis(jitter), tag + 1);
                    }
                }
            }
            let mut w = World::new(Config::default().seed(seed).with_trace());
            let n = w.add_node("n");
            w.add_component(n, "noisy", Noisy);
            w.run_until_quiescent();
            w.trace().events().iter().map(|e| format!("{e}")).collect()
        }
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }

    #[test]
    fn spawn_and_kill() {
        struct Parent {
            child: Option<Addr>,
        }
        struct Child;
        impl Component for Child {
            fn on_stop(&mut self, ctx: &mut Ctx<'_>) {
                let node = ctx.node();
                ctx.store().put(node, "child_stopped", &true);
            }
        }
        #[derive(Debug)]
        struct SpawnCmd;
        #[derive(Debug)]
        struct KillCmd;
        impl Component for Parent {
            fn on_message(&mut self, ctx: &mut Ctx<'_>, _from: Addr, msg: AnyMsg) {
                if msg.is::<SpawnCmd>() {
                    self.child = Some(ctx.spawn(ctx.node(), "child", Child));
                } else if msg.is::<KillCmd>() {
                    ctx.kill(self.child.take().unwrap());
                }
            }
        }
        let mut w = World::new(Config::default().seed(1));
        let n = w.add_node("n");
        let p = w.add_component(n, "parent", Parent { child: None });
        w.post(p, SpawnCmd);
        w.run_until_quiescent();
        assert!(w.lookup(n, "child").is_some());
        w.post(p, KillCmd);
        w.run_until_quiescent();
        assert!(w.lookup(n, "child").is_none());
        assert_eq!(w.store().get::<bool>(n, "child_stopped"), Some(true));
    }

    #[test]
    fn kill_transient_leaves_no_residue_and_recycles_ids() {
        // A short-lived worker that sets a far-future timer, then is
        // transiently killed; with id recycling on, the next worker reuses
        // the id and the dead worker's timer must not fire into it.
        struct Worker;
        impl Component for Worker {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.set_timer(Duration::from_hours(1), 99);
            }
            fn on_timer(&mut self, ctx: &mut Ctx<'_>, _id: TimerId, _tag: u64) {
                let node = ctx.node();
                let fired: u64 = ctx.store().get(node, "fired_count").unwrap_or(0);
                ctx.store().put(node, "fired_count", &(fired + 1));
            }
        }
        #[derive(Debug)]
        struct Cycle(u32);
        struct Boss {
            child: Option<Addr>,
            ids: Vec<u32>,
        }
        impl Component for Boss {
            fn on_message(&mut self, ctx: &mut Ctx<'_>, _from: Addr, msg: AnyMsg) {
                let Cycle(n) = *msg.downcast::<Cycle>().unwrap();
                if let Some(old) = self.child.take() {
                    ctx.kill_transient(old);
                }
                let addr = ctx.spawn(ctx.node(), &format!("w{n}"), Worker);
                self.ids.push(addr.comp.0);
                self.child = Some(addr);
                let node = ctx.node();
                let ids = self.ids.clone();
                ctx.store().put(node, "ids", &ids);
            }
        }
        let mut w = World::new(Config::default().seed(1).reuse_comp_ids());
        let n = w.add_node("n");
        let boss = w.add_component(
            n,
            "boss",
            Boss {
                child: None,
                ids: vec![],
            },
        );
        for i in 0..5u32 {
            w.post(boss, Cycle(i));
            w.run_until(w.now() + Duration::from_secs(1));
        }
        w.run_until_quiescent();
        let ids: Vec<u32> = w.store().get(n, "ids").unwrap();
        assert_eq!(ids.len(), 5);
        // Ids recycle instead of growing without bound: a kill's id is
        // free by the *next* cycle, so five kill/spawn rounds touch at most
        // two distinct ids (alternating), not five.
        let distinct: std::collections::HashSet<_> = ids.iter().collect();
        assert!(distinct.len() <= 2, "ids grew: {ids:?}");
        // Only the final (still live) worker's timer fires: the four dead
        // incarnations' timers die with their epochs even though the id was
        // recycled.
        assert_eq!(w.store().get::<u64>(n, "fired_count"), Some(1));
        // No retired-name residue from transient kills.
        assert!(w.lookup(n, "w0").is_none());
    }

    #[test]
    fn some_shard_is_runnable_whenever_an_event_is_pending() {
        // Ping-pong across two shards: at every step the shard holding the
        // globally earliest event must count as runnable, however far the
        // other shard's clock lags behind it.
        let mut w = World::new(Config::default().seed(1).shards(2));
        let na = w.add_node("a");
        let nb = w.add_node_on("b", ShardId(1));
        let echo = Echo {
            received: 0,
            echoes: 20,
            record_key: None,
        };
        let b = w.add_component(nb, "echo", echo);
        struct Kicker(Addr);
        impl Component for Kicker {
            fn on_start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.send(self.0, Hit(0));
            }
            fn on_message(&mut self, ctx: &mut Ctx<'_>, from: Addr, msg: AnyMsg) {
                let Hit(n) = *msg.downcast::<Hit>().unwrap();
                ctx.send(from, Hit(n + 1));
            }
        }
        w.add_component(na, "kick", Kicker(b));
        let mut steps = 0;
        while w.queue_len() > 0 {
            assert!(w.runnable_shards() >= 1, "nothing runnable at step {steps}");
            assert!(w.step());
            steps += 1;
        }
        assert!(steps > 20);
    }

    #[test]
    fn fault_plan_crashes_and_restarts() {
        let mut w = World::new(Config::default().seed(1));
        let n = w.add_node("n");
        w.add_component(
            n,
            "echo",
            Echo {
                received: 0,
                echoes: 0,
                record_key: None,
            },
        );
        w.set_boot(n, |b| {
            b.add_component(
                "echo",
                Echo {
                    received: 0,
                    echoes: 0,
                    record_key: None,
                },
            );
        });
        let plan = FaultPlan::new().crash_restart(
            n,
            SimTime::ZERO + Duration::from_secs(10),
            Duration::from_secs(5),
        );
        w.apply_fault_plan(&plan);
        w.run_until(SimTime::ZERO + Duration::from_secs(12));
        assert!(!w.node_up(n));
        w.run_until(SimTime::ZERO + Duration::from_secs(20));
        assert!(w.node_up(n));
        assert!(w.lookup(n, "echo").is_some());
        assert_eq!(w.metrics().counter("node.crashes"), 1);
        assert_eq!(w.metrics().counter("node.restarts"), 1);
    }
}
