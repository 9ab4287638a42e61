//! The simulated PIM machine: `P` module states plus metric accounting.

// lint: allow-file(float-determinism) — fault-plan rates use only
// IEEE-754 multiply/compare on committed constants (no libm), which
// is bit-identical on every conforming target; the seeded draws are
// additionally pinned by the cost baseline

use crate::fault::{stream, FaultPlan};
use crate::metrics::{Metrics, RoundRecord};
use crate::wire::Wire;
use pim_codec::{Enc, WireCodec};
use rayon::prelude::*;

/// Host callback invoked when an injected crash wipes a module: receives
/// the module id and its state, and must reset the state to whatever a
/// freshly rebooted module holds.
pub type CrashHandler<M> = Box<dyn FnMut(usize, &mut M) + Send>;

/// Encode one module's messages for one direction as a single frame
/// group and return the per-frame word counts (`WIRE_FORMAT.md`
/// §"Frames and groups"). Delta and shared-prefix label state flows
/// across the frames of the group and nowhere further: each round,
/// module and direction starts a fresh `Enc`, so any group decodes
/// standalone and retransmitted subsets re-encode cleanly.
fn encode_group<T: Wire>(msgs: &[T]) -> Vec<u64> {
    let mut enc = Enc::new();
    msgs.iter()
        .map(|m| {
            enc.begin_frame();
            m.encode_frame(&mut enc);
            enc.end_frame()
        })
        .collect()
}

struct FaultState<M> {
    plan: FaultPlan,
    on_crash: Option<CrashHandler<M>>,
    /// Per-module: first fault-clock round at which the module is up again.
    down_until: Vec<u64>,
    /// Per-crash-spec: whether it already fired.
    fired: Vec<bool>,
    /// Rounds executed since the plan was installed (the fault clock).
    round_no: u64,
}

/// Execution context handed to a module handler for one round.
pub struct PimCtx<'a, M> {
    /// This module's id in `0..P`.
    pub id: usize,
    /// The module's local state (its PIM memory).
    pub state: &'a mut M,
    work: u64,
}

impl<M> PimCtx<'_, M> {
    /// Meter `units` of PIM work (instructions executed on this module).
    #[inline]
    pub fn work(&mut self, units: u64) {
        self.work += units;
    }
}

/// A host CPU plus `P` PIM modules with per-round cost accounting.
///
/// `M` is the module-local state type — the contents of one module's PIM
/// memory. The host may inspect module state directly through
/// [`PimSystem::module`] for assertions and debugging, but *algorithm* code
/// must only touch modules through [`PimSystem::round`], which is what gets
/// costed.
pub struct PimSystem<M> {
    modules: Vec<M>,
    metrics: Metrics,
    faults: Option<FaultState<M>>,
    codec: WireCodec,
}

impl<M: Send> PimSystem<M> {
    /// Build a system of `p` modules, initialising each with `init(id)`.
    pub fn new(p: usize, init: impl FnMut(usize) -> M) -> Self {
        assert!(p > 0, "need at least one PIM module");
        PimSystem {
            modules: (0..p).map(init).collect(),
            metrics: Metrics::new(p),
            faults: None,
            codec: WireCodec::Plain,
        }
    }

    /// The wire codec currently in effect (see `WIRE_FORMAT.md`).
    /// [`WireCodec::Plain`] until [`negotiate_codec`] agrees otherwise.
    ///
    /// [`negotiate_codec`]: PimSystem::negotiate_codec
    pub fn codec(&self) -> WireCodec {
        self.codec
    }

    /// Negotiate the wire codec for all subsequent rounds
    /// (`WIRE_FORMAT.md` §"Version negotiation").
    ///
    /// Requesting [`WireCodec::Plain`] is free: `Plain` is the implicit
    /// baseline, no handshake round runs, and the run stays bit-identical
    /// to one that predates negotiation entirely. Requesting
    /// [`WireCodec::Compact`] spends one metered `codec.negotiate` round
    /// — the host broadcasts its offered version, each module answers
    /// with the highest version it speaks (clamped to the offer), and
    /// both sides adopt the minimum across all modules. The handshake
    /// itself always travels under `Plain`, so the two sides never have
    /// to guess which framing a negotiation message uses.
    pub fn negotiate_codec(&mut self, requested: WireCodec) -> WireCodec {
        if requested == WireCodec::Plain {
            self.codec = WireCodec::Plain;
            return self.codec;
        }
        debug_assert_eq!(self.codec, WireCodec::Plain, "handshake runs under Plain");
        let offers = self.broadcast("codec.negotiate", requested.version(), |_, msgs| {
            vec![msgs[0].min(WireCodec::Compact.version())]
        });
        let agreed = offers
            .iter()
            .flatten()
            .fold(requested.version(), |v, &o| v.min(o));
        self.codec = WireCodec::negotiate(requested.version(), agreed);
        let cs = self.metrics.codec_stats_mut();
        cs.version = self.codec.version();
        cs.negotiations += 1;
        self.codec
    }

    /// Install a fault plan. Subsequent rounds suffer the plan's faults;
    /// the fault clock (see [`CrashSpec::round`](crate::CrashSpec::round))
    /// restarts at 0. `on_crash` is invoked for state-loss crashes to wipe
    /// the module; pass `None` if the plan schedules none.
    pub fn install_faults(&mut self, plan: FaultPlan, on_crash: Option<CrashHandler<M>>) {
        let p = self.p();
        for c in &plan.crashes {
            assert!(c.module < p, "crash targets module {} of {p}", c.module);
        }
        for j in &plan.jams {
            assert!(j.module < p, "jam targets module {} of {p}", j.module);
        }
        self.faults = Some(FaultState {
            down_until: vec![0; p],
            fired: vec![false; plan.crashes.len()],
            round_no: 0,
            plan,
            on_crash,
        });
    }

    /// Remove the fault plan; subsequent rounds run fault-free.
    pub fn clear_faults(&mut self) {
        self.faults = None;
    }

    /// Whether a fault plan is currently installed.
    pub fn faults_active(&self) -> bool {
        self.faults.is_some()
    }

    /// Rounds executed since the current plan was installed (0 if none).
    pub fn fault_round(&self) -> u64 {
        self.faults.as_ref().map_or(0, |f| f.round_no)
    }

    /// Number of PIM modules.
    #[inline]
    pub fn p(&self) -> usize {
        self.modules.len()
    }

    /// Cost metrics so far.
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Mutable metrics (for `charge_cpu`, tracing, snapshots).
    pub fn metrics_mut(&mut self) -> &mut Metrics {
        &mut self.metrics
    }

    /// Host-side debug access to a module's state — **not costed**; never
    /// use this on an algorithm's data path.
    pub fn module(&self, id: usize) -> &M {
        &self.modules[id]
    }

    /// Host-side debug mutation — **not costed**; for test setup only.
    pub fn module_mut(&mut self, id: usize) -> &mut M {
        &mut self.modules[id]
    }

    /// Iterate module states (debug/assertions only).
    pub fn modules(&self) -> impl Iterator<Item = &M> {
        self.modules.iter()
    }

    /// Execute one BSP round.
    ///
    /// `inbox[i]` is the buffer written to module `i` (CPU→PIM). Every
    /// module runs `f` concurrently on its own state and inbox; the returned
    /// buffers are read back (PIM→CPU). Wire sizes of both directions are
    /// charged to the round; the round's IO time is the max per-module
    /// total.
    ///
    /// Modules are dispatched in parallel on the current rayon pool, yet
    /// every metered counter is an exact function of (seed, P, workload),
    /// independent of the thread count: modules share no state (each `f`
    /// call gets `&mut` to its own module and a private [`PimCtx`] work
    /// meter), the parallel collect is indexed (result `i` lands in slot
    /// `i` no matter which thread computed it), and the meters are then
    /// reduced here on the host, sequentially, in module order. Fault
    /// decisions are pure functions of (plan seed, round, module, stream,
    /// index), so they too are schedule-independent.
    ///
    /// With a [`FaultPlan`] installed (see
    /// [`PimSystem::install_faults`]), the round additionally suffers the
    /// plan's faults: scheduled crashes fire before execution, inbound and
    /// outbound words get bit flips, down modules skip execution and reply
    /// nothing, replies may be dropped or arrive mangled, and straggler
    /// modules have their PIM work inflated. Metering stays as-written /
    /// as-produced: corruption never changes sizes, and dropped replies
    /// are still charged (the transfer happened; the payload was lost).
    pub fn round<In, Out, F>(&mut self, name: &str, mut inbox: Vec<Vec<In>>, f: F) -> Vec<Vec<Out>>
    where
        In: Wire + Send,
        Out: Wire + Send,
        F: Fn(&mut PimCtx<'_, M>, Vec<In>) -> Vec<Out> + Sync,
    {
        let p = self.p();
        assert_eq!(inbox.len(), p, "inbox must have one entry per module");

        // --- fault pre-pass: crashes, availability, inbound corruption ---
        let mut fs = self.faults.take();
        let mut skip: Vec<bool> = Vec::new();
        let mut round_no = 0;
        if let Some(fs) = fs.as_mut() {
            round_no = fs.round_no;
            fs.round_no += 1;
            for (ci, spec) in fs.plan.crashes.iter().enumerate() {
                if !fs.fired[ci] && spec.round <= round_no {
                    fs.fired[ci] = true;
                    fs.down_until[spec.module] = round_no + spec.down_rounds;
                    if spec.state_loss {
                        if let Some(cb) = fs.on_crash.as_mut() {
                            cb(spec.module, &mut self.modules[spec.module]);
                        }
                    }
                    self.metrics.fault_stats_mut().crashes_injected += 1;
                }
            }
            skip = (0..p).map(|m| fs.down_until[m] > round_no).collect();
        }

        // Under the compact codec, each module's inbound messages are
        // encoded as one frame group (delta/label streams shared across
        // the group — see `WIRE_FORMAT.md`) and the per-frame *encoded*
        // word counts replace the as-written sizes everywhere below:
        // metering, fault-word indexing, and reply loss all operate on
        // encoded frames. Under `Plain` this is `None` and every code
        // path is the legacy one, bit for bit.
        let enc_in: Option<Vec<Vec<u64>>> = match self.codec {
            WireCodec::Plain => None,
            WireCodec::Compact => Some(inbox.iter().map(|g| encode_group(g)).collect()),
        };
        if let Some(groups) = &enc_in {
            let cs = self.metrics.codec_stats_mut();
            cs.frames += groups.iter().map(|g| g.len() as u64).sum::<u64>();
            cs.encoded_words += groups.iter().flatten().sum::<u64>();
            cs.plain_words += inbox
                .iter()
                .flat_map(|msgs| msgs.iter().map(Wire::wire_words))
                .sum::<u64>();
        }

        // Sent words are charged as written: bit flips do not change sizes,
        // and transfers to down modules still occupy the wire.
        let sent: Vec<u64> = match &enc_in {
            Some(groups) => groups.iter().map(|g| g.iter().sum()).collect(),
            None => inbox
                .iter()
                .map(|msgs| msgs.iter().map(Wire::wire_words).sum())
                .collect(),
        };

        if let Some(fs) = fs.as_mut() {
            if fs.plan.flip_word_rate > 0.0 {
                let stats = self.metrics.fault_stats_mut();
                for (m, msgs) in inbox.iter_mut().enumerate() {
                    let mut word = 0u64;
                    for (j, msg) in msgs.iter_mut().enumerate() {
                        let words = match &enc_in {
                            Some(groups) => groups[m][j],
                            None => msg.wire_words(),
                        };
                        for w in word..word + words {
                            let rate = fs.plan.flip_word_rate;
                            if fs.plan.bern(rate, round_no, m as u64, stream::FLIP_IN, w) {
                                let r = fs.plan.draw(round_no, m as u64, stream::FLIP_WHICH_BIT, w);
                                if msg.flip_bit(r) {
                                    stats.flips_injected += 1;
                                }
                            }
                        }
                        word += words;
                    }
                }
            }
        }

        // --- execution (down modules skip their handler) ---
        let skip_ref = &skip;
        let results: Vec<(Vec<Out>, u64)> = self
            .modules
            .par_iter_mut()
            .zip(inbox.into_par_iter())
            .enumerate()
            .map(|(id, (state, msgs))| {
                if !skip_ref.is_empty() && skip_ref[id] {
                    return (Vec::new(), 0);
                }
                let mut ctx = PimCtx { id, state, work: 0 };
                let out = f(&mut ctx, msgs);
                (out, ctx.work)
            })
            .collect();

        let mut outs = Vec::with_capacity(p);
        let mut pim_work = Vec::with_capacity(p);
        for (out, w) in results {
            pim_work.push(w);
            outs.push(out);
        }

        // Replies are charged as produced, before any wire loss below —
        // encoded per-frame sizes under the compact codec, as-written
        // sizes under `Plain` (same split as `enc_in` above).
        let enc_out: Option<Vec<Vec<u64>>> = match self.codec {
            WireCodec::Plain => None,
            WireCodec::Compact => Some(outs.iter().map(|g| encode_group(g)).collect()),
        };
        if let Some(groups) = &enc_out {
            let cs = self.metrics.codec_stats_mut();
            cs.frames += groups.iter().map(|g| g.len() as u64).sum::<u64>();
            cs.encoded_words += groups.iter().flatten().sum::<u64>();
            cs.plain_words += outs
                .iter()
                .flat_map(|out| out.iter().map(Wire::wire_words))
                .sum::<u64>();
        }
        let received: Vec<u64> = match &enc_out {
            Some(groups) => groups.iter().map(|g| g.iter().sum()).collect(),
            None => outs
                .iter()
                .map(|out| out.iter().map(Wire::wire_words).sum())
                .collect(),
        };

        // --- fault post-pass: stragglers, reply drop/truncate/corrupt ---
        let mut straggler_delay = vec![0u64; p];
        if let Some(fs) = fs.as_mut() {
            let stats = self.metrics.fault_stats_mut();
            let plan = &fs.plan;
            let reply_faults = plan.drop_reply_rate > 0.0
                || plan.truncate_reply_rate > 0.0
                || plan.flip_word_rate > 0.0;
            for m in 0..p {
                if skip[m] {
                    stats.rounds_unavailable += 1;
                    continue;
                }
                if pim_work[m] > 0
                    && plan.straggler_factor > 1
                    && plan.bern(
                        plan.straggler_rate,
                        round_no,
                        m as u64,
                        stream::STRAGGLER,
                        0,
                    )
                {
                    straggler_delay[m] = pim_work[m] * (plan.straggler_factor - 1);
                    pim_work[m] *= plan.straggler_factor;
                    stats.stragglers_injected += 1;
                }
                if plan.jammed(m, round_no) {
                    // A jammed module executed and was charged for its
                    // replies above, but nothing makes it back to the host.
                    stats.jams_injected += outs[m].len() as u64;
                    outs[m].clear();
                    continue;
                }
                if !reply_faults {
                    continue;
                }
                let mut idx = 0u64;
                let mut word = 0u64;
                outs[m].retain_mut(|msg| {
                    let j = idx;
                    idx += 1;
                    let words = match &enc_out {
                        Some(groups) => groups[m][j as usize],
                        None => msg.wire_words(),
                    };
                    let w0 = word;
                    word += words;
                    if plan.bern(plan.drop_reply_rate, round_no, m as u64, stream::DROP, j) {
                        stats.drops_injected += 1;
                        return false;
                    }
                    if plan.bern(
                        plan.truncate_reply_rate,
                        round_no,
                        m as u64,
                        stream::TRUNCATE,
                        j,
                    ) {
                        let r = plan.draw(round_no, m as u64, stream::TRUNCATE_BIT, j);
                        if msg.flip_bit(r) {
                            stats.truncations_injected += 1;
                        }
                    }
                    for w in w0..w0 + words {
                        if plan.bern(plan.flip_word_rate, round_no, m as u64, stream::FLIP_OUT, w) {
                            let r = plan.draw(round_no, m as u64, stream::FLIP_WHICH_BIT, !w);
                            if msg.flip_bit(r) {
                                stats.flips_injected += 1;
                            }
                        }
                    }
                    true
                });
            }
        }
        self.faults = fs;

        self.metrics.record_round(RoundRecord {
            name: name.to_string(),
            sent,
            received,
            pim_work,
            straggler_delay,
        });
        outs
    }

    /// Broadcast the same message to every module (costed `P ×` its size,
    /// per the model: each module's buffer receives its own copy).
    pub fn broadcast<In, Out, F>(&mut self, name: &str, msg: In, f: F) -> Vec<Vec<Out>>
    where
        In: Wire + Clone + Send,
        Out: Wire + Send,
        F: Fn(&mut PimCtx<'_, M>, Vec<In>) -> Vec<Out> + Sync,
    {
        let inbox = (0..self.p()).map(|_| vec![msg.clone()]).collect();
        self.round(name, inbox, f)
    }

    /// A round that launches modules with *no* CPU→PIM payload and gathers
    /// their replies (e.g. statistics collection).
    pub fn gather<Out, F>(&mut self, name: &str, f: F) -> Vec<Vec<Out>>
    where
        Out: Wire + Send,
        F: Fn(&mut PimCtx<'_, M>) -> Vec<Out> + Sync,
    {
        let inbox: Vec<Vec<()>> = (0..self.p()).map(|_| Vec::new()).collect();
        self.round(name, inbox, |ctx, _| f(ctx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_runs_all_modules_in_isolation() {
        let mut sys = PimSystem::new(8, |id| id as u64);
        let inbox: Vec<Vec<u64>> = (0..8).map(|i| vec![i as u64 * 10]).collect();
        let out = sys.round("t", inbox, |ctx, msgs| {
            ctx.work(1);
            vec![*ctx.state + msgs[0]]
        });
        for (i, o) in out.iter().enumerate() {
            assert_eq!(o[0], i as u64 + i as u64 * 10);
        }
        assert_eq!(sys.metrics().io_rounds(), 1);
        assert_eq!(sys.metrics().pim_time(), 1);
        assert_eq!(sys.metrics().pim_work(), 8);
    }

    #[test]
    fn io_time_is_per_round_max() {
        let mut sys = PimSystem::new(4, |_| ());
        let mut inbox: Vec<Vec<u64>> = vec![vec![]; 4];
        inbox[2] = vec![1, 2, 3, 4, 5]; // 5 words to module 2
        sys.round("skewed", inbox, |_, msgs| msgs);
        // 5 in + 5 out on module 2; others zero.
        assert_eq!(sys.metrics().io_time(), 10);
        assert_eq!(sys.metrics().io_volume(), 10);
        assert_eq!(sys.metrics().io_per_module(), &[0, 0, 10, 0]);
    }

    #[test]
    fn broadcast_costs_p_copies() {
        let mut sys = PimSystem::new(4, |_| ());
        sys.broadcast("b", 7u64, |_, _| Vec::<u64>::new());
        assert_eq!(sys.metrics().io_volume(), 4);
        assert_eq!(sys.metrics().io_time(), 1);
    }

    #[test]
    fn gather_collects_from_every_module() {
        let mut sys = PimSystem::new(3, |id| id as u64);
        let out = sys.gather("g", |ctx| vec![*ctx.state * 2]);
        assert_eq!(out, vec![vec![0], vec![2], vec![4]]);
    }

    #[test]
    fn determinism_across_runs() {
        let run = || {
            let mut sys = PimSystem::new(16, |id| id as u64);
            let inbox: Vec<Vec<u64>> = (0..16).map(|i| (0..i as u64).collect()).collect();
            let out = sys.round("d", inbox, |ctx, msgs| {
                ctx.work(msgs.len() as u64);
                vec![msgs.iter().sum::<u64>() + *ctx.state]
            });
            (out, sys.metrics().io_time(), sys.metrics().pim_time())
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "one entry per module")]
    fn wrong_inbox_length_panics() {
        let mut sys = PimSystem::new(2, |_| ());
        let _ = sys.round("bad", vec![Vec::<u64>::new()], |_, m| m);
    }

    use crate::fault::CrashSpec;

    #[test]
    fn flips_fire_and_metering_is_unchanged() {
        let run = |plan: Option<FaultPlan>| {
            let mut sys = PimSystem::new(2, |_| ());
            if let Some(p) = plan {
                sys.install_faults(p, None);
            }
            let inbox: Vec<Vec<u64>> = vec![vec![1, 2, 3], vec![4, 5]];
            let out = sys.round("t", inbox, |_, m| m);
            (out, sys.metrics().io_volume(), sys.metrics().io_time())
        };
        let (clean, vol0, time0) = run(None);
        let (dirty, vol1, time1) = run(Some(FaultPlan::new(3).with_flip_rate(1.0)));
        // every word flipped exactly one bit → all values differ, sizes equal
        assert_ne!(clean, dirty);
        assert_eq!(vol0, vol1);
        assert_eq!(time0, time1);
        let mut sys = PimSystem::new(1, |_| ());
        sys.install_faults(FaultPlan::new(3).with_flip_rate(1.0), None);
        sys.round("t", vec![vec![7u64]], |_, m| m);
        // one inbound + one outbound word, both flipped
        assert_eq!(sys.metrics().fault_stats().flips_injected, 2);
    }

    #[test]
    fn drops_remove_replies_but_stay_charged() {
        let mut sys = PimSystem::new(2, |_| ());
        sys.install_faults(FaultPlan::new(5).with_drop_rate(1.0), None);
        let out = sys.round("t", vec![vec![1u64], vec![2u64]], |_, m| m);
        assert!(out.iter().all(Vec::is_empty));
        assert_eq!(sys.metrics().fault_stats().drops_injected, 2);
        // sent 1 + produced 1 per module, despite the loss
        assert_eq!(sys.metrics().io_volume(), 4);
    }

    #[test]
    fn truncation_mangles_replies_in_place() {
        let mut sys = PimSystem::new(1, |_| ());
        sys.install_faults(FaultPlan::new(5).with_truncate_rate(1.0), None);
        let out = sys.round("t", vec![vec![0u64]], |_, m| m);
        assert_eq!(out[0].len(), 1);
        assert_ne!(out[0][0], 0);
        assert_eq!(sys.metrics().fault_stats().truncations_injected, 1);
    }

    #[test]
    fn crash_wipes_state_and_downs_module() {
        let mut sys = PimSystem::new(3, |_| 1u64);
        let plan = FaultPlan::new(0).with_crash(CrashSpec {
            round: 1,
            module: 2,
            down_rounds: 2,
            state_loss: true,
        });
        sys.install_faults(
            plan,
            Some(Box::new(|_id, state: &mut u64| {
                *state = 0;
            })),
        );
        let echo = |_: &mut PimCtx<'_, u64>, m: Vec<u64>| m;
        // round 0: before the crash, everything normal
        let out = sys.round("r0", vec![vec![9u64], vec![9], vec![9]], echo);
        assert_eq!(out[2], vec![9]);
        // rounds 1 and 2: module 2 is down and silent, state wiped
        for name in ["r1", "r2"] {
            let out = sys.round(name, vec![vec![9u64], vec![9], vec![9]], echo);
            assert_eq!(out[0], vec![9]);
            assert!(out[2].is_empty());
        }
        assert_eq!(*sys.module(2), 0);
        // round 3: back up (with blank state)
        let out = sys.round("r3", vec![vec![9u64], vec![9], vec![9]], echo);
        assert_eq!(out[2], vec![9]);
        let st = sys.metrics().fault_stats();
        assert_eq!(st.crashes_injected, 1);
        assert_eq!(st.rounds_unavailable, 2);
    }

    #[test]
    fn jam_suppresses_replies_but_keeps_state_and_charges() {
        use crate::fault::JamSpec;
        let mut sys = PimSystem::new(3, |id| id as u64);
        sys.install_faults(
            FaultPlan::new(0).with_jam(JamSpec {
                module: 1,
                from_round: 1,
            }),
            None,
        );
        let echo = |ctx: &mut PimCtx<'_, u64>, m: Vec<u64>| {
            *ctx.state += 1;
            m
        };
        // round 0: jam not yet active
        let out = sys.round("r0", vec![vec![5u64], vec![5], vec![5]], echo);
        assert_eq!(out[1], vec![5]);
        // rounds 1..: module 1 executes (state mutates, replies charged)
        // but nothing reaches the host
        for name in ["r1", "r2"] {
            let out = sys.round(name, vec![vec![5u64], vec![5], vec![5]], echo);
            assert_eq!(out[0], vec![5]);
            assert!(out[1].is_empty(), "jammed module replied");
            assert_eq!(out[2], vec![5]);
        }
        assert_eq!(*sys.module(1), 1 + 3, "jammed module stopped executing");
        assert_eq!(sys.metrics().fault_stats().jams_injected, 2);
        // replies are charged as produced even though they were lost
        assert_eq!(sys.metrics().io_volume(), 3 * 2 * 3);
    }

    #[test]
    fn stragglers_inflate_pim_time_only() {
        let mut sys = PimSystem::new(2, |_| ());
        sys.install_faults(FaultPlan::new(1).with_stragglers(1.0, 10), None);
        sys.round("t", vec![vec![1u64], vec![1u64]], |ctx, m| {
            ctx.work(3);
            m
        });
        assert_eq!(sys.metrics().pim_time(), 30);
        assert_eq!(sys.metrics().io_time(), 2);
        assert_eq!(sys.metrics().fault_stats().stragglers_injected, 2);
    }

    #[test]
    fn fault_schedule_is_deterministic() {
        let run = || {
            let mut sys = PimSystem::new(8, |id| id as u64);
            sys.install_faults(
                FaultPlan::new(42)
                    .with_flip_rate(0.05)
                    .with_drop_rate(0.1)
                    .with_truncate_rate(0.05)
                    .with_stragglers(0.2, 4),
                None,
            );
            let mut outs = Vec::new();
            for r in 0..10 {
                let inbox: Vec<Vec<u64>> = (0..8).map(|i| vec![r * 8 + i; 4]).collect();
                outs.push(sys.round("t", inbox, |ctx, m| {
                    ctx.work(1);
                    m
                }));
            }
            (
                outs,
                sys.metrics().fault_stats().clone(),
                sys.metrics().pim_time(),
            )
        };
        let a = run();
        assert_eq!(a, run());
        assert!(a.1.total_injected() > 0);
    }

    #[test]
    fn plain_negotiation_is_free_and_roundless() {
        let mut sys = PimSystem::new(4, |_| ());
        assert_eq!(sys.codec(), WireCodec::Plain);
        assert_eq!(sys.negotiate_codec(WireCodec::Plain), WireCodec::Plain);
        assert_eq!(sys.metrics().io_rounds(), 0);
        assert_eq!(*sys.metrics().codec_stats(), crate::CodecStats::default());
    }

    #[test]
    fn compact_negotiation_spends_one_round_and_sets_version() {
        let mut sys = PimSystem::new(4, |_| ());
        assert_eq!(sys.negotiate_codec(WireCodec::Compact), WireCodec::Compact);
        assert_eq!(sys.codec(), WireCodec::Compact);
        assert_eq!(sys.metrics().io_rounds(), 1);
        // the handshake itself travels Plain: P offer words out, P answers back
        assert_eq!(sys.metrics().io_volume(), 8);
        let cs = sys.metrics().codec_stats();
        assert_eq!(cs.version, 2);
        assert_eq!(cs.negotiations, 1);
        assert_eq!(cs.frames, 0, "handshake frames are not compact-encoded");
    }

    #[test]
    fn compact_meters_encoded_frames() {
        let mut sys = PimSystem::new(2, |_| ());
        sys.negotiate_codec(WireCodec::Compact);
        let snap = sys.metrics().snapshot();
        // default opaque framing: a u64 costs 1 word plain, 2 words
        // compact (varint header + placeholder word, padded)
        sys.round("t", vec![vec![7u64], vec![8u64]], |_, m| m);
        let d = sys.metrics().since(&snap);
        assert_eq!(d.io_volume(), 8);
        let cs = sys.metrics().codec_stats();
        assert_eq!(cs.frames, 4);
        assert_eq!(cs.plain_words, 4);
        assert_eq!(cs.encoded_words, 8);
    }

    #[test]
    fn compact_faults_index_encoded_words_and_stay_deterministic() {
        let run = |codec: WireCodec| {
            let mut sys = PimSystem::new(4, |_| ());
            sys.negotiate_codec(codec);
            sys.install_faults(
                FaultPlan::new(11)
                    .with_flip_rate(0.2)
                    .with_drop_rate(0.1)
                    .with_truncate_rate(0.1),
                None,
            );
            let mut outs = Vec::new();
            for r in 0..8 {
                let inbox: Vec<Vec<u64>> = (0..4).map(|i| vec![r * 4 + i; 3]).collect();
                outs.push(sys.round("t", inbox, |_, m| m));
            }
            (outs, sys.metrics().fault_stats().clone())
        };
        let a = run(WireCodec::Compact);
        assert_eq!(a, run(WireCodec::Compact), "compact fault schedule drifts");
        assert!(a.1.total_injected() > 0);
        // the schedules differ between codecs: fault words index the
        // encoded stream, which is twice as long under opaque framing
        let b = run(WireCodec::Plain);
        assert!(b.1.total_injected() > 0);
        assert_ne!(a.1, b.1);
    }

    #[test]
    fn clear_faults_restores_clean_rounds() {
        let mut sys = PimSystem::new(1, |_| ());
        sys.install_faults(FaultPlan::new(9).with_drop_rate(1.0), None);
        assert!(sys.faults_active());
        sys.clear_faults();
        let out = sys.round("t", vec![vec![5u64]], |_, m| m);
        assert_eq!(out[0], vec![5]);
        assert_eq!(sys.metrics().fault_stats().total_injected(), 0);
    }
}
