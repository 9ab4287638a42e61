//! The benchmark's fixed vocabulary: workload names, sizes per scale,
//! and the metric names and units `BENCHMARK.json` declares.
//!
//! Sizes live here and not in `BENCHMARK.json` because that file's key
//! set is fixed by the driver's contract.

use std::fmt;

/// Number of PIM modules every workload simulates.
pub const P: usize = 64;

/// One of the four workloads; see the README for why each exists.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// big uniform 64-bit index, lcp + get + subtree, no sharing
    UniformRead,
    /// URL keys, Zipf queries, Compact codec
    UrlZipfCompact,
    /// insert → get → delete → get cycles
    WriteChurn,
    /// 64 closed-loop clients through the serving front-end
    ServeMixed,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::UniformRead,
        Workload::UrlZipfCompact,
        Workload::WriteChurn,
        Workload::ServeMixed,
    ];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::UniformRead => "uniform-read",
            Workload::UrlZipfCompact => "url-zipf-compact",
            Workload::WriteChurn => "write-churn",
            Workload::ServeMixed => "serve-mixed",
        }
    }

    /// Parse a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Problem size: `Full` is what `BENCHMARK.json` measures, `Smoke` is
/// the seconds-long variant the crate's own test runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// the recorded sizes
    Full,
    /// n = 2048, batches of 256, 4 clients × 50 requests
    Smoke,
}

impl Scale {
    /// The command-line spelling.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Smoke => "smoke",
        }
    }
}

/// Sizes of one workload at one scale.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// stored keys after set-up
    pub n: usize,
    /// keys per lcp/get/insert/delete batch
    pub batch: usize,
    /// prefixes per subtree batch and their length in bits (chosen so
    /// a prefix covers ≈ 64 stored keys)
    pub subtree_prefixes: usize,
    /// see `subtree_prefixes`
    pub subtree_bits: usize,
    /// closed-loop clients and requests per client and cycle
    pub clients: usize,
    /// see `clients`
    pub reqs_per_client: usize,
    /// how many times set-up runs; `setup_s` is the median
    pub setups: usize,
    /// untimed cycles before measuring
    pub warmup_cycles: usize,
    /// cycles whose simulated counters are summed into the `sim_*`
    /// metrics; always run, so those metrics repeat exactly
    pub counted_cycles: usize,
}

impl Sizes {
    /// The sizes of `w` at `scale`.
    pub fn of(w: Workload, scale: Scale) -> Sizes {
        if scale == Scale::Smoke {
            return Sizes {
                n: 2048,
                batch: 256,
                subtree_prefixes: 16,
                subtree_bits: 5,
                clients: 4,
                reqs_per_client: 50,
                setups: 1,
                warmup_cycles: 1,
                counted_cycles: 2,
            };
        }
        let full = Sizes {
            n: 131_072,
            batch: 4096,
            subtree_prefixes: 256,
            subtree_bits: 11,
            clients: 64,
            reqs_per_client: 125,
            setups: 3,
            warmup_cycles: 2,
            counted_cycles: 12,
        };
        match w {
            Workload::UniformRead | Workload::UrlZipfCompact => full,
            Workload::WriteChurn => Sizes { n: 65_536, ..full },
            Workload::ServeMixed => Sizes { n: 32_768, ..full },
        }
    }
}

/// The five batch operations, in the order metrics list them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum OpKind {
    /// `lcp_batch`
    Lcp,
    /// `get_batch`
    Get,
    /// `insert_batch`
    Insert,
    /// `delete_batch`
    Delete,
    /// `subtree_batch`
    Subtree,
}

impl OpKind {
    /// Every op.
    pub const ALL: [OpKind; 5] = [
        OpKind::Lcp,
        OpKind::Get,
        OpKind::Insert,
        OpKind::Delete,
        OpKind::Subtree,
    ];

    /// The tracer's op-span name, also used in metric names.
    pub fn label(self) -> &'static str {
        match self {
            OpKind::Lcp => "lcp",
            OpKind::Get => "get",
            OpKind::Insert => "insert",
            OpKind::Delete => "delete",
            OpKind::Subtree => "subtree",
        }
    }

    /// Index into per-op arrays.
    pub fn idx(self) -> usize {
        self as usize
    }

    /// Tracer phases this op's rounds are attributed to; everything
    /// else lands in the op's `other` row.
    pub fn phases(self) -> &'static [&'static str] {
        match self {
            OpKind::Lcp => &["master-match", "hash-probe", "block-match"],
            OpKind::Get => &["master-match", "hash-probe", "block-match", "read"],
            OpKind::Insert => &[
                "master-match",
                "hash-probe",
                "block-match",
                "graft",
                "repartition",
                "meta-split",
            ],
            OpKind::Delete => &[
                "master-match",
                "hash-probe",
                "block-match",
                "remove",
                "merge",
            ],
            OpKind::Subtree => &["master-match", "hash-probe", "block-match", "assemble"],
        }
    }
}

/// `(name, unit)` of every end-to-end metric, reported by every
/// workload when tracing is off.
pub const END_TO_END: [(&str, &str); 8] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mib", "MiB"),
    ("sim_words_per_op", "words"),
    ("sim_io_time_per_op", "words"),
    ("sim_rounds_per_batch", "count"),
    ("sim_io_balance", "ratio"),
    ("sim_space_words_per_key", "words"),
];

const PER_LAYER_FIXED: [(&str, &str); 47] = [
    ("workloads.gen_ns_per_key", "ns"),
    ("core.build_ns_per_key", "ns"),
    ("core.build_rounds", "count"),
    ("core.build_words_per_key", "words"),
    ("bitstr.hash_ns_per_key", "ns"),
    ("trie.query_build_ns_per_key", "ns"),
    ("trie.query_unique_frac", "ratio"),
    ("trie.seq_lcp_ns_per_key", "ns"),
    ("core.match_ns_per_key", "ns"),
    ("core.match_share_of_lcp", "ratio"),
    ("core.match_pushes_per_key", "count"),
    ("core.match_pulls_per_key", "count"),
    ("core.match_descend_rounds_per_batch", "count"),
    ("core.match_redo_paths", "count"),
    ("core.lcp_ns_per_key", "ns"),
    ("core.get_ns_per_key", "ns"),
    ("core.insert_ns_per_key", "ns"),
    ("core.delete_ns_per_key", "ns"),
    ("core.lcp_post_match_ns_per_key", "ns"),
    ("core.get_post_match_ns_per_key", "ns"),
    ("core.insert_post_match_ns_per_key", "ns"),
    ("core.delete_post_match_ns_per_key", "ns"),
    ("core.subtree_ns_per_returned_key", "ns"),
    ("core.get_after_churn_ratio", "ratio"),
    ("core.lcp_n_scaling", "ratio"),
    ("core.audit_issues", "count"),
    ("sim.round_fixed_us", "us"),
    ("sim.round_ns_per_msg", "ns"),
    ("codec.encoded_over_plain", "ratio"),
    ("codec.frames_per_op", "count"),
    ("codec.enc_label_ns_per_word", "ns"),
    ("serve.req_per_s", "1/s"),
    ("serve.submit_ns_per_req", "ns"),
    ("serve.prep_ns_per_req", "ns"),
    ("serve.dispatch_ns_per_req", "ns"),
    ("serve.reqs_per_epoch", "count"),
    ("serve.epochs", "count"),
    ("serve.rejected", "count"),
    ("serve.expired", "count"),
    ("serve.failed", "count"),
    ("serve.sim_p99_get", "simtime"),
    ("threads.lcp_speedup_t2", "ratio"),
    ("trace.overhead_pct", "%"),
    ("trace.sim_words_per_op", "words"),
    ("trace.sim_io_time_per_op", "words"),
    ("trace.sim_rounds_per_batch", "count"),
    ("trace.sim_io_balance", "ratio"),
];

/// `(name, unit)` of every per-layer metric, reported by every
/// workload's traced run (0 where the workload does not run the layer).
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> = PER_LAYER_FIXED
        .iter()
        .map(|&(n, u)| (n.to_string(), u))
        .collect();
    for op in OpKind::ALL {
        let l = op.label();
        out.push((format!("sim.rounds_per_batch.{l}"), "count"));
        out.push((format!("sim.words_per_op.{l}"), "words"));
        out.push((format!("sim.pim_time_per_op.{l}"), "work"));
        out.push((format!("sim.cpu_work_per_op.{l}"), "work"));
    }
    for op in OpKind::ALL {
        let l = op.label();
        for ph in op.phases().iter().copied().chain(["other"]) {
            out.push((format!("sim.phase.{l}.{ph}.words_per_op"), "words"));
            out.push((format!("sim.phase.{l}.{ph}.rounds_per_batch"), "count"));
        }
    }
    out
}
