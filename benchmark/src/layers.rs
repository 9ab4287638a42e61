//! Microbenchmarks of layers no batch op exposes on its own: the cost
//! of a BSP round in the simulator, and of the compact encoder.

use std::hint::black_box;

use bitstr::BitStr;
use pim_codec::{stream, Enc};
use pim_sim::PimSystem;

use crate::spans::Spans;
use crate::spec::P;
use crate::stats::median;
use crate::Measured;

/// Median host ns of a `PimSystem::round` carrying `per_module` one-word
/// messages to each of the P modules, with a handler that echoes them.
fn round_ns(per_module: usize, rounds: usize, spans: &mut Spans) -> f64 {
    let mut sys = PimSystem::new(P, |_| 0u64);
    let samples: Vec<f64> = (0..rounds)
        .map(|_| {
            let inbox: Vec<Vec<u64>> = (0..P).map(|m| vec![m as u64; per_module]).collect();
            let (out, ns) = spans.timed("probe.round", 0, || {
                sys.round("bench", inbox, |ctx, msgs: Vec<u64>| {
                    ctx.work(1);
                    msgs
                })
            });
            black_box(out);
            ns
        })
        .collect();
    median(&samples)
}

/// Set `sim.round_*` and `codec.enc_label_ns_per_word`; `keys` is one
/// batch of the workload's stored keys, the labels the encoder packs.
pub fn microbench(m: &mut Measured, keys: &[BitStr], spans: &mut Spans) {
    m.set("sim.round_fixed_us", round_ns(1, 2000, spans) / 1e3);
    let per_module = 4096 / P;
    m.set(
        "sim.round_ns_per_msg",
        round_ns(per_module, 200, spans) / (per_module * P) as f64,
    );

    let mut sorted = keys.to_vec();
    sorted.sort();
    let samples: Vec<f64> = (0..20)
        .map(|_| {
            let (words, ns) = spans.timed("probe.encode", 0, || {
                let mut enc = Enc::new();
                for (i, k) in sorted.iter().enumerate() {
                    enc.begin_frame();
                    enc.put_varint(i as u64);
                    enc.put_label_shared(stream::LABEL_REM, k.words(), k.len() as u64);
                    enc.end_frame();
                }
                black_box(enc.words());
                enc.total_words()
            });
            ns / words.max(1) as f64
        })
        .collect();
    m.set("codec.enc_label_ns_per_word", median(&samples));
}
