//! The `serve-mixed` workload: closed-loop clients through the serving
//! front-end. Untraced it times `serve::run_closed_loop`; traced it
//! drives the same loop itself over the server's public steps, so each
//! step can be timed, and checks it ends where `run_closed_loop` does.

use std::collections::{BTreeMap, VecDeque};
use std::time::Instant;

use bitstr::BitStr;
use pim_sim::{Json, MetricsDelta, ServeStats};
use pim_trie::PimTrie;
use serve::{
    run_closed_loop, LatencySummary, Op, OpClass, Outcome, PreppedEpoch, Reply, ServeConfig,
    ServeError, ServeReport, Server, OP_CLASSES,
};
use trie_core::Trie;
use workloads::{closed_loop_scripts, ClientOp, ClientScript, ClosedLoopSpec};

use crate::batch::{mix, oracle_of, Setup};
use crate::simsplit::PhaseTotals;
use crate::spans::Spans;
use crate::spec::{Sizes, Workload};
use crate::stats::{median, ratio, tail, SimSum};
use crate::{layers, Measured, RunArgs};

/// What one closed-loop cycle measured.
struct CycleSample {
    requests: u64,
    ns: f64,
    delta: MetricsDelta,
    /// epochs this cycle dispatched
    epochs: u64,
    /// requests this cycle rejected, expired and failed
    shed: [u64; 3],
    get_latencies: Vec<u64>,
    report: ServeReport,
}

/// One index behind a server, with the oracle of its key set.
struct Bed {
    trie: Option<PimTrie>,
    oracle: Trie,
    attempted: u64,
    failed: u64,
}

impl Bed {
    fn new(setup_index: PimTrie, stored: &[BitStr]) -> Bed {
        Bed {
            trie: Some(setup_index),
            oracle: oracle_of(stored),
            attempted: 0,
            failed: 0,
        }
    }

    /// Serve `scripts` to completion with `drive`, timed, on a fresh
    /// server over this bed's index; check every outcome and mirror the
    /// scripted writes into the oracle.
    fn cycle(
        &mut self,
        scripts: &[ClientScript],
        drive: impl FnOnce(&mut Server) -> ServeReport,
    ) -> CycleSample {
        let trie = self.trie.take().expect("index is between cycles");
        let before = trie.system().metrics().serve_stats().clone();
        let snap = trie.system().metrics().snapshot();
        let mut server = Server::new(trie, ServeConfig::default());
        let t = Instant::now();
        let report = drive(&mut server);
        let ns = t.elapsed().as_nanos() as f64;
        let get_latencies = server.latencies(OpClass::Get).to_vec();
        let trie = server.into_trie();
        let delta = trie.system().metrics().since(&snap);
        let after = trie.system().metrics().serve_stats();
        let since = |f: fn(&ServeStats) -> u64| f(after) - f(&before);
        let epochs = since(|s| s.epochs);
        let shed = [
            since(|s| s.rejected),
            since(|s| s.expired),
            since(|s| s.failed),
        ];
        let unsettled = since(|s| s.admitted).abs_diff(since(|s| s.completed));
        self.trie = Some(trie);

        let requests: u64 = scripts.iter().map(|s| s.len() as u64).sum();
        self.attempted += requests;
        for (c, script) in scripts.iter().enumerate() {
            for (i, r) in script.iter().enumerate() {
                let ok = matches!(
                    (&r.op, report.outcomes.get(&(c, i))),
                    (ClientOp::Lcp(_), Some(Ok(Reply::Lcp(_))))
                        | (ClientOp::Get(_), Some(Ok(Reply::Got(_))))
                        | (ClientOp::Insert(..), Some(Ok(Reply::Inserted)))
                        | (ClientOp::Delete(_), Some(Ok(Reply::Deleted)))
                );
                self.failed += u64::from(!ok);
                match &r.op {
                    ClientOp::Insert(k, v) => {
                        self.oracle.insert(k, *v);
                    }
                    ClientOp::Delete(k) => {
                        self.oracle.delete(k.as_slice());
                    }
                    ClientOp::Lcp(_) | ClientOp::Get(_) => {}
                }
            }
        }
        self.failed += report.violations + report.unresolved + unsettled;
        CycleSample {
            requests,
            ns,
            delta,
            epochs,
            shed,
            get_latencies,
            report,
        }
    }

    /// The stored set must equal the oracle after all scripted writes:
    /// inserts use fresh unique keys and deletes only name stored keys,
    /// so the final set does not depend on how epochs ordered them.
    fn check_final_set(&mut self) {
        let trie = self.trie.as_ref().expect("index is between cycles");
        let mut got = trie.items_debug();
        got.sort();
        let mut want = self.oracle.items();
        want.sort();
        self.attempted += 1;
        self.failed += u64::from(got != want) + trie.audit_debug().len() as u64;
    }
}

fn scripts_of(args: &RunArgs, sizes: Sizes, stored: &[BitStr], cycle: u64) -> Vec<ClientScript> {
    let spec = ClosedLoopSpec::read_mostly(sizes.clients, sizes.reqs_per_client);
    closed_loop_scripts(&spec, stored, mix(args.seed, 16 + cycle, 0))
}

fn sim_sum(cycles: &[CycleSample]) -> SimSum {
    let mut sum = SimSum::default();
    for c in cycles {
        sum.add(&c.delta, c.requests, c.epochs);
    }
    sum
}

/// p99 reply latency of the `get` class over the cycles, in simulated
/// time units, with `serve`'s own percentile index.
fn sim_p99_get(cycles: &[CycleSample]) -> f64 {
    let mut all: Vec<u64> = cycles
        .iter()
        .flat_map(|c| c.get_latencies.iter().copied())
        .collect();
    all.sort_unstable();
    percentile(&all, 990) as f64
}

fn percentile(sorted: &[u64], q_milli: u64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let n = (sorted.len() - 1) as u64;
    sorted[(((n * q_milli + 500) / 1000) as usize).min(sorted.len() - 1)]
}

/// Position of `class` in [`OP_CLASSES`], which is also its `OpKind`
/// index.
fn class_idx(class: OpClass) -> usize {
    OP_CLASSES.iter().position(|&c| c == class).unwrap_or(0)
}

fn req_rates(cycles: &[CycleSample]) -> Vec<f64> {
    cycles
        .iter()
        .map(|c| c.requests as f64 / (c.ns / 1e9))
        .collect()
}

/// Run `serve-mixed` with tracing off: the end-to-end metrics.
pub fn run_untraced(args: &RunArgs, spans: &mut Spans) -> Measured {
    let sizes = Sizes::of(Workload::ServeMixed, args.scale);
    let (setup, setup_secs) = Setup::repeat(
        Workload::ServeMixed,
        sizes.n,
        args.seed,
        sizes.setups,
        spans,
    );
    let space_per_key = setup.index.space_words() as f64 / setup.index.len() as f64;
    let stored = setup.keys;
    let mut bed = Bed::new(setup.index, &stored);
    let warmup = sizes.warmup_cycles as u64;
    for c in 0..warmup {
        let scripts = scripts_of(args, sizes, &stored, c);
        bed.cycle(&scripts, |srv| run_closed_loop(srv, &scripts));
    }

    let started = Instant::now();
    let mut cycles: Vec<CycleSample> = Vec::new();
    while cycles.len() < sizes.counted_cycles || started.elapsed().as_secs_f64() < args.seconds {
        let c = warmup + cycles.len() as u64;
        let scripts = scripts_of(args, sizes, &stored, c);
        let span = spans.begin("serve.closed_loop", c);
        cycles.push(bed.cycle(&scripts, |srv| run_closed_loop(srv, &scripts)));
        spans.end(span);
    }
    bed.check_final_set();

    let counted = &cycles[..sizes.counted_cycles];
    let sim = sim_sum(counted);
    let rates = req_rates(&cycles);
    let mut m = Measured::end_to_end(
        bed.attempted,
        bed.failed,
        &setup_secs,
        &rates,
        &sim,
        space_per_key,
    );
    m.note("serve_sim_p99_get", Json::num(sim_p99_get(counted)));
    let cycle_ms: Vec<f64> = cycles.iter().map(|c| c.ns / 1e6).collect();
    m.note("cycle_ms_p50", Json::num(median(&cycle_ms)));
    if let Some((pct, ms)) = tail(&cycle_ms) {
        m.note("tail_percentile", Json::num(pct));
        m.note("cycle_ms_tail", Json::num(ms));
    }
    m
}

/// Host time of the server's public steps over one traced cycle, and
/// how many batches each op class was dispatched in.
#[derive(Default)]
struct StepTimes {
    submit_ns: f64,
    prep_ns: f64,
    dispatch_ns: f64,
    class_batches: [u64; 4],
}

struct ClientState {
    next: usize,
    ready: u64,
    pending: Option<usize>,
}

/// `serve::run_closed_loop` in sequential (non-pipelined) mode, step
/// for step, with a span around each public server call.
fn traced_closed_loop(
    server: &mut Server,
    scripts: &[ClientScript],
    spans: &mut Spans,
    cycle: u64,
    times: &mut StepTimes,
) -> ServeReport {
    let mut outcomes: BTreeMap<(usize, usize), Outcome> = BTreeMap::new();
    let mut clients: Vec<ClientState> = scripts
        .iter()
        .map(|s| ClientState {
            next: 0,
            ready: s.first().map_or(0, |r| r.think),
            pending: None,
        })
        .collect();
    let mut staged: Option<PreppedEpoch> = None;
    // classes of the queued requests, in admission order: the server
    // drains FIFO, so this says which classes each epoch batches
    let mut queued: VecDeque<OpClass> = VecDeque::new();

    loop {
        let now = server.now();
        for (c, st) in clients.iter_mut().enumerate() {
            if let Some((finish, out)) = st.pending.and_then(|id| server.outcome(id)) {
                outcomes.insert((c, st.next), out.clone());
                let finish = *finish;
                st.pending = None;
                st.next += 1;
                if st.next < scripts[c].len() {
                    st.ready = finish.saturating_add(scripts[c][st.next].think);
                }
            }
        }

        let (_, ns) = spans.timed("serve.submit", cycle, || {
            for (c, st) in clients.iter_mut().enumerate() {
                if st.pending.is_none() && st.next < scripts[c].len() && st.ready <= now {
                    let r = &scripts[c][st.next];
                    let op = Op::from(r.op.clone());
                    let class = op.class();
                    match server.submit(c, st.next, op, r.deadline) {
                        Ok(id) => {
                            st.pending = Some(id);
                            queued.push_back(class);
                        }
                        Err(ServeError::Overloaded) => {
                            st.ready = now.saturating_add(r.think.max(1))
                        }
                        Err(_) => st.ready = now.saturating_add(1),
                    }
                }
            }
        });
        times.submit_ns += ns;

        if staged.is_none() && server.queue_len() == 0 {
            let next_ready = clients
                .iter()
                .enumerate()
                .filter(|(c, st)| st.pending.is_none() && st.next < scripts[*c].len())
                .map(|(_, st)| st.ready)
                .min();
            match next_ready {
                Some(t) => {
                    server.advance_to(t.max(now.saturating_add(1)));
                    continue;
                }
                None if clients.iter().any(|st| st.pending.is_some()) => continue,
                None => break,
            }
        }

        let (next, ns) = spans.timed("serve.prep", cycle, || {
            let batch = server.drain_epoch();
            let mut present = [false; 4];
            for class in queued.drain(..batch.len()) {
                present[class_idx(class)] = true;
            }
            for (n, p) in times.class_batches.iter_mut().zip(present) {
                *n += u64::from(p);
            }
            (!batch.is_empty()).then(|| Server::prep_epoch(batch))
        });
        times.prep_ns += ns;
        if let Some(ep) = staged.take() {
            let (_, ns) = spans.timed("serve.dispatch", cycle, || server.dispatch(ep));
            times.dispatch_ns += ns;
        }
        staged = next;
    }

    let latency = OP_CLASSES.map(|class| {
        let mut l = server.latencies(class).to_vec();
        l.sort_unstable();
        LatencySummary {
            count: l.len() as u64,
            p50: percentile(&l, 500),
            p99: percentile(&l, 990),
        }
    });
    ServeReport {
        outcomes,
        stats: server.stats().clone(),
        latency,
        violations: server.violations(),
        unresolved: server.in_flight() as u64,
        elapsed: server.now(),
    }
}

/// Run `serve-mixed` traced: the per-layer metrics. Two identical
/// indexes serve the same scripts, one through `run_closed_loop`
/// untraced (the reference), one through the instrumented loop with
/// simulator tracing on; their reports must be equal.
pub fn run_traced(args: &RunArgs, spans: &mut Spans) -> Measured {
    let sizes = Sizes::of(Workload::ServeMixed, args.scale);
    let reference_setup = Setup::run(Workload::ServeMixed, sizes.n, args.seed, spans);
    let setup = Setup::run(Workload::ServeMixed, sizes.n, args.seed, spans);
    let mut m = Measured::new(0, 0);
    setup.set_build_metrics(&mut m);
    let stored = setup.keys;
    let mut reference_bed = Bed::new(reference_setup.index, &stored);
    let mut bed = Bed::new(setup.index, &stored);
    let warmup = sizes.warmup_cycles as u64;
    for c in 0..warmup {
        let scripts = scripts_of(args, sizes, &stored, c);
        reference_bed.cycle(&scripts, |srv| run_closed_loop(srv, &scripts));
        bed.cycle(&scripts, |srv| run_closed_loop(srv, &scripts));
    }

    let mut reference: Vec<CycleSample> = Vec::new();
    let mut traced: Vec<CycleSample> = Vec::new();
    let mut times: Vec<StepTimes> = Vec::new();
    let mut totals = PhaseTotals::default();
    let mut unequal_reports = 0;
    // per op class: (requests, batches), indexed like `OpKind`
    let mut denominators = [(0u64, 0u64); 5];
    for c in warmup..warmup + sizes.counted_cycles as u64 {
        let scripts = scripts_of(args, sizes, &stored, c);
        for r in scripts.iter().flatten() {
            let class = Op::from(r.op.clone()).class();
            denominators[class_idx(class)].0 += 1;
        }
        reference.push(reference_bed.cycle(&scripts, |srv| run_closed_loop(srv, &scripts)));
        let mut t = StepTimes::default();
        let span = spans.begin("cycle", c);
        // a tracer per cycle, folded and dropped, keeps memory flat:
        // it holds one event per BSP round, about one per request
        bed.trie
            .as_mut()
            .expect("index is between cycles")
            .enable_tracing();
        traced.push(bed.cycle(&scripts, |srv| {
            traced_closed_loop(srv, &scripts, spans, c, &mut t)
        }));
        let trie = bed.trie.as_mut().expect("index is between cycles");
        if let Some(tracer) = trie.system_mut().metrics_mut().take_tracer() {
            totals.add(&tracer.phase_summaries());
        }
        spans.end(span);
        times.push(t);
        if reference.last().map(|s| &s.report) != traced.last().map(|s| &s.report) {
            unequal_reports += 1;
        }
    }
    reference_bed.check_final_set();
    bed.check_final_set();

    m.attempted = reference_bed.attempted + bed.attempted + 1;
    m.failed = reference_bed.failed + bed.failed + unequal_reports;

    let per_req = |f: &dyn Fn(&StepTimes) -> f64| {
        median(
            &times
                .iter()
                .zip(&traced)
                .map(|(t, c)| f(t) / c.requests as f64)
                .collect::<Vec<_>>(),
        )
    };
    m.set("serve.req_per_s", median(&req_rates(&traced)));
    m.set("serve.submit_ns_per_req", per_req(&|t| t.submit_ns));
    m.set("serve.prep_ns_per_req", per_req(&|t| t.prep_ns));
    m.set("serve.dispatch_ns_per_req", per_req(&|t| t.dispatch_ns));
    let sim = sim_sum(&traced);
    m.set(
        "serve.reqs_per_epoch",
        ratio(sim.ops as f64, sim.batches as f64),
    );
    m.set("serve.epochs", sim.batches as f64);
    for (i, name) in ["serve.rejected", "serve.expired", "serve.failed"]
        .into_iter()
        .enumerate()
    {
        m.set(name, traced.iter().map(|c| c.shed[i]).sum::<u64>() as f64);
    }
    m.set("serve.sim_p99_get", sim_p99_get(&traced));

    sim.set_metrics(&mut m, "trace.");
    m.set(
        "trace.overhead_pct",
        100.0 * (ratio(median(&req_rates(&reference)), median(&req_rates(&traced))) - 1.0),
    );

    for t in &times {
        for (d, n) in denominators.iter_mut().zip(t.class_batches) {
            d.1 += n;
        }
    }
    let traced_words = totals.set_metrics(&mut m, &denominators);
    if traced_words != sim.io_per_module.iter().sum::<u64>() {
        m.failed += 1;
    }
    let trie = bed.trie.as_ref().expect("index is between cycles");
    m.set("core.audit_issues", trie.audit_debug().len() as f64);
    layers::microbench(&mut m, &stored[..sizes.batch.min(stored.len())], spans);
    m.note("traced_cycles", Json::num(traced.len() as f64));
    m.note("reference_cycles", Json::num(reference.len() as f64));
    m
}
