//! The serving engine: bounded admission, epoch drain/prep/dispatch,
//! deadline shedding, and per-key failure scoping.

use std::collections::VecDeque;
use std::fmt;

use bitstr::BitStr;
use obs::{AlarmBoard, ObsSample};
use pim_trie::{PimTrie, PimTrieError};

/// The four operation classes an epoch batches separately, in dispatch
/// order: reads first (they see the pre-epoch state), then inserts,
/// then deletes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum OpClass {
    /// longest-common-prefix queries
    Lcp,
    /// point lookups
    Get,
    /// inserts / overwrites
    Insert,
    /// deletes
    Delete,
}

/// All op classes in dispatch order (also the latency-bucket order).
pub const OP_CLASSES: [OpClass; 4] = [OpClass::Lcp, OpClass::Get, OpClass::Insert, OpClass::Delete];

impl OpClass {
    /// Short label for report rows.
    pub fn label(self) -> &'static str {
        match self {
            OpClass::Lcp => "lcp",
            OpClass::Get => "get",
            OpClass::Insert => "insert",
            OpClass::Delete => "delete",
        }
    }
}

/// A single-key operation a client can submit.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Op {
    /// length of the longest stored prefix of the key
    Lcp(BitStr),
    /// value stored at the key, if any
    Get(BitStr),
    /// store the value at the key (overwriting)
    Insert(BitStr, u64),
    /// remove the key
    Delete(BitStr),
}

impl Op {
    /// The op's class (batching / latency bucket).
    pub fn class(&self) -> OpClass {
        match self {
            Op::Lcp(_) => OpClass::Lcp,
            Op::Get(_) => OpClass::Get,
            Op::Insert(..) => OpClass::Insert,
            Op::Delete(_) => OpClass::Delete,
        }
    }

    fn key(&self) -> &BitStr {
        match self {
            Op::Lcp(k) | Op::Get(k) | Op::Insert(k, _) | Op::Delete(k) => k,
        }
    }
}

impl From<workloads::ClientOp> for Op {
    fn from(op: workloads::ClientOp) -> Op {
        match op {
            workloads::ClientOp::Lcp(k) => Op::Lcp(k),
            workloads::ClientOp::Get(k) => Op::Get(k),
            workloads::ClientOp::Insert(k, v) => Op::Insert(k, v),
            workloads::ClientOp::Delete(k) => Op::Delete(k),
        }
    }
}

/// A successful reply, one per [`Op`] variant.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Reply {
    /// LCP length
    Lcp(usize),
    /// looked-up value
    Got(Option<u64>),
    /// the insert is applied and journaled
    Inserted,
    /// the key is absent (whether or not it was stored)
    Deleted,
}

/// Typed serving errors — the `Err` arm of an [`Outcome`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// The admission queue was full; the request was *never admitted*
    /// (shed-newest) and may simply be resubmitted later. The only
    /// non-terminal variant: it is returned from [`Server::submit`],
    /// never recorded as an outcome.
    Overloaded,
    /// The request's deadline passed before its epoch dispatched; it
    /// was shed without running.
    DeadlineExceeded,
    /// The scoped batch op failed this request's key (e.g. a module
    /// exhausted its recovery budget and the key routes through it).
    /// Boxed: an [`Outcome`] is recorded per request and kept in every
    /// report, and this arm is the rare one — unboxed, the error's
    /// string and module list made each record 64 bytes instead of 24.
    Failed(Box<PimTrieError>),
}

impl From<PimTrieError> for ServeError {
    fn from(e: PimTrieError) -> Self {
        ServeError::Failed(Box::new(e))
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Overloaded => write!(f, "admission queue full; request shed"),
            ServeError::DeadlineExceeded => write!(f, "deadline passed before dispatch"),
            ServeError::Failed(e) => write!(f, "operation failed: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Terminal outcome of an admitted request.
pub type Outcome = Result<Reply, ServeError>;

/// Serving knobs; see the crate docs for the mechanisms they control.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// admission queue bound; a submit beyond it is rejected with
    /// [`ServeError::Overloaded`]
    pub queue_cap: usize,
    /// maximum requests drained into one epoch
    pub epoch_max: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            queue_cap: 256,
            epoch_max: 64,
        }
    }
}

impl ServeConfig {
    /// Set the admission queue bound.
    pub fn with_queue_cap(mut self, cap: usize) -> Self {
        self.queue_cap = cap;
        self
    }

    /// Set the per-epoch drain bound.
    pub fn with_epoch_max(mut self, n: usize) -> Self {
        self.epoch_max = n;
        self
    }
}

/// An admitted request waiting for (or inside) an epoch.
#[derive(Clone, Debug)]
struct Admitted {
    id: usize,
    client: usize,
    op_idx: usize,
    op: Op,
    submitted: u64,
    /// absolute expiry instant (`u64::MAX` = none)
    deadline: u64,
}

/// An undifferentiated epoch's worth of drained requests — the input
/// to [`Server::prep_epoch`]. Opaque; obtained from
/// [`Server::drain_epoch`].
#[derive(Debug, Default)]
pub struct EpochBatch {
    reqs: Vec<Admitted>,
}

impl EpochBatch {
    /// True iff the drain found nothing to serve.
    pub fn is_empty(&self) -> bool {
        self.reqs.is_empty()
    }

    /// Number of drained requests.
    pub fn len(&self) -> usize {
        self.reqs.len()
    }
}

/// A prepped epoch: requests grouped by op class and sorted for
/// deterministic dispatch. Building one is *pure* — it touches neither
/// the trie nor the metrics (its CPU cost is charged at dispatch) —
/// which is exactly what makes it safe to compute while the previous
/// epoch's PIM rounds are still in flight.
#[derive(Debug)]
pub struct PreppedEpoch {
    by_class: [Vec<Admitted>; 4],
    prep_work: u64,
}

/// The serving front-end. Owns the trie; drive it either manually
/// ([`Server::submit`] + [`Server::step`]) or with the closed-loop
/// driver ([`crate::run_closed_loop`]).
pub struct Server {
    trie: PimTrie,
    cfg: ServeConfig,
    queue: VecDeque<Admitted>,
    /// terminal outcome per request id; `None` while in flight
    outcomes: Vec<Option<(u64, Outcome)>>,
    /// simulated idle time (fast-forwards while clients think)
    idle: u64,
    /// contract breaches (double-recorded outcomes); must stay 0 —
    /// counted instead of panicking so a bug degrades to a failed
    /// assertion in tests rather than a poisoned serving loop
    violations: u64,
    /// per-class reply latencies of completed requests, dispatch order
    lat: [Vec<u64>; 4],
    /// observability alarm board, evaluated once per dispatched epoch;
    /// `None` (the default) skips evaluation entirely
    alarms: Option<AlarmBoard>,
}

impl Server {
    /// Wrap a built trie in a serving front-end.
    pub fn new(trie: PimTrie, cfg: ServeConfig) -> Self {
        Server {
            trie,
            cfg,
            queue: VecDeque::new(),
            outcomes: Vec::new(),
            idle: 0,
            violations: 0,
            lat: [Vec::new(), Vec::new(), Vec::new(), Vec::new()],
            alarms: None,
        }
    }

    /// Install an alarm board; [`Server::dispatch`] evaluates it once
    /// per epoch against the epoch's IO window and the cumulative
    /// serve/quarantine state, and accumulates rising-edge
    /// firings into [`pim_sim::ServeStats::alarms`]. Evaluation only
    /// *reads* counters — it charges no simulated cost — so every other
    /// counter is bit-identical with or without a board installed.
    pub fn install_alarms(&mut self, board: AlarmBoard) {
        self.alarms = Some(board);
    }

    /// The installed alarm board (its firing log), if any.
    pub fn alarms(&self) -> Option<&AlarmBoard> {
        self.alarms.as_ref()
    }

    /// Detach and return the alarm board (evaluation stops).
    pub fn take_alarms(&mut self) -> Option<AlarmBoard> {
        self.alarms.take()
    }

    /// The serving clock, in simulated PIM time units: IO time + PIM
    /// time + host CPU work of everything the trie has executed, plus
    /// the accumulated idle time from [`Server::advance_to`].
    pub fn now(&self) -> u64 {
        let m = self.trie.system().metrics();
        m.io_time() + m.pim_time() + m.cpu_work() + self.idle
    }

    /// Fast-forward the clock to `t` (no-op if `t` is in the past):
    /// models the server sitting idle while every client thinks.
    pub fn advance_to(&mut self, t: u64) {
        let now = self.now();
        if t > now {
            self.idle += t - now;
        }
    }

    /// Submit one operation for `client` (its `op_idx`-th), with a
    /// deadline `budget` in simulated time units from now (`u64::MAX`
    /// disables the deadline). Returns the request id to poll
    /// [`Server::outcome`] with, or [`ServeError::Overloaded`] if the
    /// admission queue is full — in that case the request was never
    /// admitted and nothing about it is retained.
    pub fn submit(
        &mut self,
        client: usize,
        op_idx: usize,
        op: Op,
        budget: u64,
    ) -> Result<usize, ServeError> {
        let stats = self.trie.system_mut().metrics_mut().serve_stats_mut();
        stats.submitted += 1;
        if self.queue.len() >= self.cfg.queue_cap {
            stats.rejected += 1;
            return Err(ServeError::Overloaded);
        }
        stats.admitted += 1;
        let id = self.outcomes.len();
        self.outcomes.push(None);
        let submitted = self.now();
        self.queue.push_back(Admitted {
            id,
            client,
            op_idx,
            op,
            submitted,
            deadline: submitted.saturating_add(budget),
        });
        Ok(id)
    }

    /// Drain up to [`ServeConfig::epoch_max`] requests (FIFO) into the
    /// next epoch's batch.
    pub fn drain_epoch(&mut self) -> EpochBatch {
        let n = self.cfg.epoch_max.min(self.queue.len());
        EpochBatch {
            reqs: self.queue.drain(..n).collect(),
        }
    }

    /// Group a drained batch by op class and sort each class by
    /// (key, client, op_idx) — the epoch's host-side prep. Pure: touches
    /// no server state; the cost (one CPU unit per request) is charged
    /// when the epoch dispatches.
    pub fn prep_epoch(batch: EpochBatch) -> PreppedEpoch {
        let prep_work = batch.reqs.len() as u64;
        let mut by_class: [Vec<Admitted>; 4] = [Vec::new(), Vec::new(), Vec::new(), Vec::new()];
        for r in batch.reqs {
            let c = OP_CLASSES
                .iter()
                .position(|&c| c == r.op.class())
                .unwrap_or(0);
            by_class[c].push(r);
        }
        for class in &mut by_class {
            class.sort_by(|a, b| {
                (a.op.key(), a.client, a.op_idx).cmp(&(b.op.key(), b.client, b.op_idx))
            });
        }
        PreppedEpoch {
            by_class,
            prep_work,
        }
    }

    /// Run one prepped epoch: shed expired requests, run each op class
    /// as one scoped batch against the trie, scatter per-request
    /// outcomes. Classes dispatch in [`OP_CLASSES`] order, so reads
    /// observe the pre-epoch state and inserts precede deletes.
    pub fn dispatch(&mut self, ep: PreppedEpoch) {
        let total: usize = ep.by_class.iter().map(Vec::len).sum();
        if total == 0 {
            return;
        }
        // epoch IO window for alarm evaluation; skipped entirely (and
        // perturbing nothing either way) with no board installed
        let snap = self
            .alarms
            .as_ref()
            .map(|_| self.trie.system().metrics().snapshot());
        self.trie
            .system_mut()
            .metrics_mut()
            .charge_cpu(ep.prep_work);
        self.trie
            .system_mut()
            .metrics_mut()
            .serve_stats_mut()
            .epochs += 1;
        let now = self.now();
        for (ci, reqs) in ep.by_class.into_iter().enumerate() {
            // deadline shed happens at dispatch, against the clock the
            // epoch runs at
            let mut live: Vec<Admitted> = Vec::with_capacity(reqs.len());
            for r in reqs {
                if r.deadline <= now {
                    self.record(
                        ci,
                        r.submitted,
                        r.id,
                        now,
                        Err(ServeError::DeadlineExceeded),
                    );
                } else {
                    live.push(r);
                }
            }
            if live.is_empty() {
                continue;
            }
            let keys: Vec<BitStr> = live.iter().map(|r| r.op.key().clone()).collect();
            let results: Vec<Outcome> = match OP_CLASSES[ci] {
                OpClass::Lcp => self
                    .trie
                    .try_lcp_batch_scoped(&keys)
                    .into_iter()
                    .map(|r| r.map(Reply::Lcp).map_err(ServeError::from))
                    .collect(),
                OpClass::Get => self
                    .trie
                    .try_get_batch_scoped(&keys)
                    .into_iter()
                    .map(|r| r.map(Reply::Got).map_err(ServeError::from))
                    .collect(),
                OpClass::Insert => {
                    let vals: Vec<u64> = live
                        .iter()
                        .map(|r| match &r.op {
                            Op::Insert(_, v) => *v,
                            _ => 0,
                        })
                        .collect();
                    self.trie
                        .try_insert_batch_scoped(&keys, &vals)
                        .into_iter()
                        .map(|r| r.map(|()| Reply::Inserted).map_err(ServeError::from))
                        .collect()
                }
                OpClass::Delete => self
                    .trie
                    .try_delete_batch_scoped(&keys)
                    .into_iter()
                    .map(|r| r.map(|()| Reply::Deleted).map_err(ServeError::from))
                    .collect(),
            };
            let finish = self.now();
            for (r, out) in live.into_iter().zip(results) {
                self.record(ci, r.submitted, r.id, finish, out);
            }
        }
        if let Some(snap) = snap {
            let m = self.trie.system().metrics();
            let sample = ObsSample {
                io_per_module: m.since(&snap).io_per_module,
                serve: m.serve_stats().clone(),
                quarantined: self.trie.quarantined().len() as u64,
                descend_rounds: self.trie.last_match_stats().descend_rounds,
            };
            let epoch = m.serve_stats().epochs;
            let fired = match self.alarms.as_mut() {
                Some(board) => board.evaluate(epoch, &sample),
                None => 0,
            };
            if fired > 0 {
                self.trie
                    .system_mut()
                    .metrics_mut()
                    .serve_stats_mut()
                    .alarms += fired;
            }
        }
    }

    /// Record a terminal outcome for request `id`. Never overwrites: a
    /// second record for the same id is a contract breach counted in
    /// [`Server::violations`], and the first outcome stands.
    fn record(&mut self, class: usize, submitted: u64, id: usize, finish: u64, out: Outcome) {
        if self.outcomes[id].is_some() {
            self.violations += 1;
            return;
        }
        let stats = self.trie.system_mut().metrics_mut().serve_stats_mut();
        match &out {
            Ok(_) => stats.completed += 1,
            Err(ServeError::DeadlineExceeded) => stats.expired += 1,
            Err(ServeError::Failed(_)) => stats.failed += 1,
            // Overloaded is pre-admission and never terminal
            Err(ServeError::Overloaded) => self.violations += 1,
        }
        if out.is_ok() {
            self.lat[class].push(finish.saturating_sub(submitted));
        }
        self.outcomes[id] = Some((finish, out));
    }

    /// Convenience: drain, prep and dispatch one epoch sequentially.
    pub fn step(&mut self) {
        let batch = self.drain_epoch();
        if !batch.is_empty() {
            let ep = Self::prep_epoch(batch);
            self.dispatch(ep);
        }
    }

    /// The terminal outcome of request `id` (with its finish time), or
    /// `None` while it is still queued or in flight.
    pub fn outcome(&self, id: usize) -> Option<&(u64, Outcome)> {
        self.outcomes.get(id).and_then(Option::as_ref)
    }

    /// Admitted requests that have not reached an outcome yet (queued
    /// or inside a staged epoch). Zero once the server is drained.
    pub fn in_flight(&self) -> usize {
        self.outcomes.iter().filter(|o| o.is_none()).count()
    }

    /// Contract breaches observed (double-recorded outcomes). Always 0
    /// unless there is a bug; tests assert on it.
    pub fn violations(&self) -> u64 {
        self.violations
    }

    /// Current admission queue depth.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// The serving configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// Serving counters (admitted/rejected/expired/completed/failed),
    /// shorthand for `trie().system().metrics().serve_stats()`.
    pub fn stats(&self) -> &pim_sim::ServeStats {
        self.trie.system().metrics().serve_stats()
    }

    /// Completed-reply latencies for one op class, in record order.
    pub fn latencies(&self, class: OpClass) -> &[u64] {
        let ci = OP_CLASSES.iter().position(|&c| c == class).unwrap_or(0);
        &self.lat[ci]
    }

    /// The wrapped trie.
    pub fn trie(&self) -> &PimTrie {
        &self.trie
    }

    /// Mutable access to the wrapped trie (fault installation etc.).
    pub fn trie_mut(&mut self) -> &mut PimTrie {
        &mut self.trie
    }

    /// Tear down the front-end and hand the trie back.
    pub fn into_trie(self) -> PimTrie {
        self.trie
    }
}
