//! PIM Model cost accounting.

// lint: allow-file(float-determinism) — report-side exposition: f64
// here only renders counters and ratios for humans and JSON; no
// metered decision branches on a float in this file

use crate::trace::Tracer;

/// Per-round record: who sent/received how much, and per-module PIM work.
#[derive(Clone, Debug)]
pub struct RoundRecord {
    /// Round label (for reports / debugging).
    pub name: String,
    /// Words written CPU→module, per module.
    pub sent: Vec<u64>,
    /// Words read module→CPU, per module.
    pub received: Vec<u64>,
    /// Work units metered inside each module handler.
    pub pim_work: Vec<u64>,
    /// Extra work units injected into each module by straggler faults
    /// this round. Already included in `pim_work`; kept separately so a
    /// timeline can tell "slow because of load" from "slow because a
    /// fault stalled the module". All zeros with no fault plan active.
    pub straggler_delay: Vec<u64>,
}

impl RoundRecord {
    /// The round's IO time: max over modules of sent + received words.
    pub fn io_time(&self) -> u64 {
        self.sent
            .iter()
            .zip(&self.received)
            .map(|(s, r)| s + r)
            .max()
            .unwrap_or(0)
    }

    /// The round's PIM time: max module work.
    pub fn pim_time(&self) -> u64 {
        self.pim_work.iter().copied().max().unwrap_or(0)
    }

    /// Total words moved this round.
    pub fn io_volume(&self) -> u64 {
        self.sent.iter().sum::<u64>() + self.received.iter().sum::<u64>()
    }
}

/// Counters for injected faults and the recovery work they caused.
///
/// The `*_injected` fields are bumped by the simulator's fault layer; the
/// detection/recovery fields are bumped by whatever fault-tolerant
/// protocol runs on top (e.g. `pim-trie`'s sealed-wire recovery ladder).
/// All zero when no [`FaultPlan`](crate::FaultPlan) is installed.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Wire words that had a bit flipped in flight.
    pub flips_injected: u64,
    /// Reply messages dropped on the wire.
    pub drops_injected: u64,
    /// Reply messages delivered truncated/mangled.
    pub truncations_injected: u64,
    /// Module crashes fired.
    pub crashes_injected: u64,
    /// Reply messages suppressed by a module jam
    /// (see [`JamSpec`](crate::JamSpec)).
    pub jams_injected: u64,
    /// Module-rounds slowed by the straggler multiplier.
    pub stragglers_injected: u64,
    /// Module-rounds skipped because the module was down.
    pub rounds_unavailable: u64,
    /// Envelopes that failed integrity checks at the receiver.
    pub corruptions_detected: u64,
    /// Expected replies that never arrived.
    pub missing_detected: u64,
    /// Request retries issued by the recovery layer.
    pub retries: u64,
    /// Extra BSP rounds spent purely on recovery.
    pub recovery_rounds: u64,
    /// Module state rebuilds after a crash.
    pub rebuilds: u64,
}

impl FaultStats {
    /// Total faults injected across all classes.
    pub fn total_injected(&self) -> u64 {
        self.flips_injected
            + self.drops_injected
            + self.truncations_injected
            + self.crashes_injected
            + self.jams_injected
            + self.stragglers_injected
    }

    /// Total faults the protocol noticed (corrupt or missing).
    pub fn total_detected(&self) -> u64 {
        self.corruptions_detected + self.missing_detected
    }
}

/// Counters for host-resident copies of index structure (e.g. `pim-trie`'s
/// resident top of the meta-block tree): what the host holds, what it
/// paid to pull it, and how often it answered in a module's place.
///
/// The simulator itself never touches these. The pulls that fill a copy
/// are ordinary metered rounds; this block says how many of them there
/// were and what the copies cost in host memory, which is not PIM space
/// and appears in no other counter.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ResidentStats {
    /// Words of copies held right now (a gauge, not a sum).
    pub words: u64,
    /// The most `words` has ever been.
    pub words_high_water: u64,
    /// Copies pulled from their modules and kept.
    pub fills: u64,
    /// Reply words of those pulls.
    pub fill_words: u64,
    /// Copies dropped because an outgoing request rewrote their source.
    pub invalidations: u64,
    /// Matching targets answered from a copy instead of an IO round.
    pub host_matches: u64,
}

/// Counters for a request-serving front-end layered over the simulated
/// system (admission, load shedding, deadlines, epochs).
///
/// Like [`ResidentStats`], the simulator itself never touches these: they
/// exist so an ingress layer (e.g. `pimtrie-serve`'s coalescing server)
/// reports its admission and shedding decisions through the same metrics
/// pipeline as every other counter. All zero when no serving layer is in
/// play, so linking one costs nothing until it runs.
///
/// The accounting invariant a correct server maintains:
/// `admitted == completed + expired + failed` once the server drains —
/// every admitted request gets exactly one terminal outcome.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Requests clients attempted to submit (admitted + rejected).
    pub submitted: u64,
    /// Requests accepted into the bounded queue.
    pub admitted: u64,
    /// Requests rejected at admission because the queue was full
    /// (the deterministic shed-newest policy).
    pub rejected: u64,
    /// Admitted requests shed before dispatch because their deadline
    /// budget was already exhausted.
    pub expired: u64,
    /// Admitted requests answered with a successful reply.
    pub completed: u64,
    /// Admitted requests answered with a typed per-key error
    /// (failure scoping: the rest of their epoch still completed).
    pub failed: u64,
    /// Coalesced epochs dispatched (idle drains are not counted).
    pub epochs: u64,
    /// Observability alarms that fired during epoch evaluation (see
    /// `pim-obs`). Zero when no alarm board is installed — evaluating
    /// alarms reads counters without charging any simulated cost, so
    /// every other counter is bit-identical with or without a board.
    pub alarms: u64,
}

impl ServeStats {
    /// Admitted requests with a terminal outcome so far.
    pub fn settled(&self) -> u64 {
        self.completed + self.expired + self.failed
    }
}

/// Counters for the negotiated wire codec (see `WIRE_FORMAT.md`).
///
/// Like the other layered stat blocks, these are all zero until a run
/// actually negotiates the compact codec: under the default
/// [`WireCodec::Plain`](crate::WireCodec) no handshake round runs and
/// nothing here is touched, so a plain run is bit-identical to one
/// built before the codec existed. Under `Compact`, the simulator
/// accumulates, per direction and round, how many frames it encoded and
/// what they cost against the legacy as-written sizes — the measured
/// words/op reduction in the `compress` experiment is exactly
/// `plain_words / encoded_words` restricted to a batch window.
///
/// Paper: PIM-tree (Kang et al.) treats per-op communication volume as
/// the primary optimization target; this block meters how much of that
/// volume the encoding layer removes.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct CodecStats {
    /// Negotiated protocol version (0 until a compact negotiation ran).
    pub version: u64,
    /// Handshake rounds spent negotiating.
    pub negotiations: u64,
    /// Frames encoded under the compact codec (both directions).
    pub frames: u64,
    /// Words the same messages would have metered under `Plain`.
    pub plain_words: u64,
    /// Words actually metered for those frames (encoded size).
    pub encoded_words: u64,
}

impl CodecStats {
    /// Compression ratio `plain_words / encoded_words`; 1.0 when nothing
    /// has been encoded.
    pub fn ratio(&self) -> f64 {
        if self.encoded_words == 0 {
            1.0
        } else {
            self.plain_words as f64 / self.encoded_words as f64
        }
    }
}

/// Cumulative metrics of a [`PimSystem`](crate::PimSystem).
#[derive(Clone, Debug, Default)]
pub struct Metrics {
    p: usize,
    rounds: u64,
    io_time: u64,
    pim_time: u64,
    io_per_module: Vec<u64>,
    pim_per_module: Vec<u64>,
    cpu_work: u64,
    faults: FaultStats,
    resident: ResidentStats,
    serve: ServeStats,
    codec: CodecStats,
    tracer: Option<Box<Tracer>>,
}

impl Metrics {
    pub(crate) fn new(p: usize) -> Self {
        Metrics {
            p,
            io_per_module: vec![0; p],
            pim_per_module: vec![0; p],
            ..Default::default()
        }
    }

    /// Attach a fresh [`Tracer`] so subsequent rounds and CPU charges are
    /// attributed to op/phase spans. Replaces any existing tracer. With no
    /// tracer attached (the default) the hooks cost one branch and the
    /// metered counters are identical to an untraced run.
    pub fn enable_tracing(&mut self) {
        self.tracer = Some(Box::default());
    }

    /// Detach and return the tracer (tracing turns back off).
    pub fn take_tracer(&mut self) -> Option<Box<Tracer>> {
        self.tracer.take()
    }

    /// Whether a tracer is attached.
    pub fn tracing_enabled(&self) -> bool {
        self.tracer.is_some()
    }

    /// The attached tracer, if any.
    pub fn tracer(&self) -> Option<&Tracer> {
        self.tracer.as_deref()
    }

    /// Mutable access to the attached tracer, for span management.
    pub fn tracer_mut(&mut self) -> Option<&mut Tracer> {
        self.tracer.as_deref_mut()
    }

    pub(crate) fn record_round(&mut self, rec: RoundRecord) {
        self.rounds += 1;
        self.io_time += rec.io_time();
        self.pim_time += rec.pim_time();
        for i in 0..self.p {
            self.io_per_module[i] += rec.sent[i] + rec.received[i];
            self.pim_per_module[i] += rec.pim_work[i];
        }
        if let Some(t) = self.tracer.as_deref_mut() {
            t.on_round(&rec);
        }
    }

    /// Charge host-side work units.
    pub fn charge_cpu(&mut self, units: u64) {
        self.cpu_work += units;
        if let Some(t) = self.tracer.as_deref_mut() {
            t.on_cpu(units);
        }
    }

    /// Number of modules.
    pub fn p(&self) -> usize {
        self.p
    }

    /// Number of BSP rounds so far.
    pub fn io_rounds(&self) -> u64 {
        self.rounds
    }

    /// Σ over rounds of (max module traffic that round).
    pub fn io_time(&self) -> u64 {
        self.io_time
    }

    /// Total words moved across all rounds and modules.
    pub fn io_volume(&self) -> u64 {
        self.io_per_module.iter().sum()
    }

    /// Σ over rounds of (max module work that round).
    pub fn pim_time(&self) -> u64 {
        self.pim_time
    }

    /// Total PIM work across modules.
    pub fn pim_work(&self) -> u64 {
        self.pim_per_module.iter().sum()
    }

    /// Host work charged so far.
    pub fn cpu_work(&self) -> u64 {
        self.cpu_work
    }

    /// Cumulative per-module IO words.
    pub fn io_per_module(&self) -> &[u64] {
        &self.io_per_module
    }

    /// Cumulative per-module PIM work.
    pub fn pim_per_module(&self) -> &[u64] {
        &self.pim_per_module
    }

    /// Fault-injection and recovery counters.
    pub fn fault_stats(&self) -> &FaultStats {
        &self.faults
    }

    /// Mutable fault counters, for the recovery protocol to record
    /// detections, retries and rebuilds.
    pub fn fault_stats_mut(&mut self) -> &mut FaultStats {
        &mut self.faults
    }

    /// Host-resident structure counters (see [`ResidentStats`]).
    pub fn resident_stats(&self) -> &ResidentStats {
        &self.resident
    }

    /// Mutable resident-structure counters, for the layer holding the
    /// copies to record fills, invalidations and host-side matches.
    pub fn resident_stats_mut(&mut self) -> &mut ResidentStats {
        &mut self.resident
    }

    /// Serving front-end counters (see [`ServeStats`]).
    pub fn serve_stats(&self) -> &ServeStats {
        &self.serve
    }

    /// Mutable serving counters, for an ingress layer to record
    /// admissions, sheds, expiries and epoch dispatches.
    pub fn serve_stats_mut(&mut self) -> &mut ServeStats {
        &mut self.serve
    }

    /// Wire-codec counters (see [`CodecStats`]).
    pub fn codec_stats(&self) -> &CodecStats {
        &self.codec
    }

    /// Mutable codec counters, for the simulator's encoding layer (and
    /// the negotiation handshake) to record versions and frame sizes.
    pub fn codec_stats_mut(&mut self) -> &mut CodecStats {
        &mut self.codec
    }

    /// Take a snapshot to later compute a [`MetricsDelta`] for one batch.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            rounds: self.rounds,
            io_time: self.io_time,
            pim_time: self.pim_time,
            io_per_module: self.io_per_module.clone(),
            pim_per_module: self.pim_per_module.clone(),
            cpu_work: self.cpu_work,
        }
    }

    /// Metrics accrued since `snap`.
    pub fn since(&self, snap: &Snapshot) -> MetricsDelta {
        MetricsDelta {
            io_rounds: self.rounds - snap.rounds,
            io_time: self.io_time - snap.io_time,
            pim_time: self.pim_time - snap.pim_time,
            cpu_work: self.cpu_work - snap.cpu_work,
            io_per_module: self
                .io_per_module
                .iter()
                .zip(&snap.io_per_module)
                .map(|(a, b)| a - b)
                .collect(),
            pim_per_module: self
                .pim_per_module
                .iter()
                .zip(&snap.pim_per_module)
                .map(|(a, b)| a - b)
                .collect(),
        }
    }
}

/// A point-in-time copy of the aggregate counters.
#[derive(Clone, Debug)]
pub struct Snapshot {
    rounds: u64,
    io_time: u64,
    pim_time: u64,
    io_per_module: Vec<u64>,
    pim_per_module: Vec<u64>,
    cpu_work: u64,
}

/// Metrics accrued over a window (typically one operation batch).
#[derive(Clone, Debug)]
pub struct MetricsDelta {
    /// BSP rounds in the window.
    pub io_rounds: u64,
    /// Σ round maxima of per-module traffic.
    pub io_time: u64,
    /// Σ round maxima of per-module work.
    pub pim_time: u64,
    /// Host work charged.
    pub cpu_work: u64,
    /// Per-module IO words in the window.
    pub io_per_module: Vec<u64>,
    /// Per-module PIM work in the window.
    pub pim_per_module: Vec<u64>,
}

impl MetricsDelta {
    /// Total words moved.
    pub fn io_volume(&self) -> u64 {
        self.io_per_module.iter().sum()
    }

    /// Total PIM work.
    pub fn pim_work(&self) -> u64 {
        self.pim_per_module.iter().sum()
    }

    /// Load-balance ratio of IO: (max module) / (mean module). 1.0 is
    /// perfect balance; ~P means one module carries everything.
    pub fn io_balance(&self) -> f64 {
        balance(&self.io_per_module)
    }

    /// Load-balance ratio of PIM work.
    pub fn pim_balance(&self) -> f64 {
        balance(&self.pim_per_module)
    }
}

/// Load-balance ratio of a per-module tally: (max module) / (mean
/// module). 1.0 is perfect balance; ~P means one module carries
/// everything; empty or all-zero tallies read as perfectly balanced.
/// This is the exact ratio [`MetricsDelta::io_balance`] reports and the
/// one every balance threshold in `pim-obs` is stated against.
pub fn balance(v: &[u64]) -> f64 {
    let total: u64 = v.iter().sum();
    if total == 0 || v.is_empty() {
        return 1.0;
    }
    let max = *v.iter().max().unwrap() as f64;
    let mean = total as f64 / v.len() as f64;
    max / mean
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(name: &str, sent: Vec<u64>, received: Vec<u64>, pim: Vec<u64>) -> RoundRecord {
        let delay = vec![0; pim.len()];
        RoundRecord {
            name: name.into(),
            sent,
            received,
            pim_work: pim,
            straggler_delay: delay,
        }
    }

    #[test]
    fn round_record_maxima() {
        let r = rec("x", vec![3, 0, 1], vec![1, 0, 5], vec![2, 9, 4]);
        assert_eq!(r.io_time(), 6);
        assert_eq!(r.pim_time(), 9);
        assert_eq!(r.io_volume(), 10);
    }

    #[test]
    fn metrics_aggregate_and_delta() {
        let mut m = Metrics::new(2);
        m.record_round(rec("a", vec![2, 0], vec![0, 0], vec![1, 1]));
        let snap = m.snapshot();
        m.record_round(rec("b", vec![0, 4], vec![1, 1], vec![0, 8]));
        m.charge_cpu(10);
        assert_eq!(m.io_rounds(), 2);
        assert_eq!(m.io_time(), 2 + 5);
        assert_eq!(m.pim_time(), 1 + 8);
        let d = m.since(&snap);
        assert_eq!(d.io_rounds, 1);
        assert_eq!(d.io_time, 5);
        assert_eq!(d.io_volume(), 6);
        assert_eq!(d.cpu_work, 10);
        assert_eq!(d.io_per_module, vec![1, 5]);
    }

    #[test]
    fn balance_fn_is_public_and_total() {
        assert_eq!(balance(&[]), 1.0);
        assert_eq!(balance(&[0, 0]), 1.0);
        assert!((balance(&[4, 0, 0, 0]) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn tracing_does_not_perturb_counters() {
        let run = |traced: bool| {
            let mut m = Metrics::new(2);
            if traced {
                m.enable_tracing();
            }
            m.record_round(rec("a", vec![2, 0], vec![0, 1], vec![1, 3]));
            m.charge_cpu(5);
            (
                m.io_rounds(),
                m.io_time(),
                m.pim_time(),
                m.io_volume(),
                m.cpu_work(),
            )
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn tracer_attach_detach() {
        let mut m = Metrics::new(1);
        assert!(!m.tracing_enabled());
        assert!(m.tracer().is_none());
        m.enable_tracing();
        m.record_round(rec("x", vec![1], vec![1], vec![1]));
        assert_eq!(m.tracer().unwrap().events().len(), 1);
        let t = m.take_tracer().unwrap();
        assert!(!m.tracing_enabled());
        assert_eq!(t.events()[0].round, "x");
    }

    #[test]
    fn serve_stats_default_zero_and_settled() {
        let mut m = Metrics::new(2);
        assert_eq!(*m.serve_stats(), ServeStats::default());
        let s = m.serve_stats_mut();
        s.submitted = 10;
        s.admitted = 8;
        s.rejected = 2;
        s.completed = 5;
        s.expired = 2;
        s.failed = 1;
        assert_eq!(m.serve_stats().settled(), 8);
        assert_eq!(m.serve_stats().settled(), m.serve_stats().admitted);
    }

    #[test]
    fn codec_stats_default_zero_and_ratio() {
        let mut m = Metrics::new(2);
        assert_eq!(*m.codec_stats(), CodecStats::default());
        assert_eq!(m.codec_stats().ratio(), 1.0);
        let k = m.codec_stats_mut();
        k.version = 2;
        k.negotiations = 1;
        k.frames = 10;
        k.plain_words = 300;
        k.encoded_words = 100;
        assert!((m.codec_stats().ratio() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn balance_ratio() {
        let d = MetricsDelta {
            io_rounds: 1,
            io_time: 0,
            pim_time: 0,
            cpu_work: 0,
            io_per_module: vec![10, 10, 10, 10],
            pim_per_module: vec![40, 0, 0, 0],
        };
        assert!((d.io_balance() - 1.0).abs() < 1e-9);
        assert!((d.pim_balance() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn empty_balance_is_one() {
        let d = MetricsDelta {
            io_rounds: 0,
            io_time: 0,
            pim_time: 0,
            cpu_work: 0,
            io_per_module: vec![0; 4],
            pim_per_module: vec![],
        };
        assert_eq!(d.io_balance(), 1.0);
        assert_eq!(d.pim_balance(), 1.0);
    }
}
