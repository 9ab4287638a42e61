//! `Plain` is not "roughly compatible" with the pre-codec wire layer —
//! it is the pre-codec wire layer. This suite pins a golden run recorded
//! on the commit *before* the codec subsystem existed and requires a
//! default-config build to reproduce its counters exactly, at one and
//! at four worker threads.
//!
//! If any refactor of the codec plumbing perturbs a Plain-path counter
//! — an extra negotiation round, a changed metering expression, a
//! reordered reduction — this fails with a one-word diff instead of
//! shifting every baseline in `cost-baseline.json` at once.

use bitstr::BitStr;
use pim_trie::{PimTrie, PimTrieConfig};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn random_keys(rng: &mut ChaCha8Rng, n: usize, max_len: usize) -> Vec<BitStr> {
    (0..n)
        .map(|_| {
            let len = rng.gen_range(1..max_len);
            BitStr::from_bits((0..len).map(|_| rng.gen_bool(0.5)))
        })
        .collect()
}

/// Fixed workload: 500 inserts, 100 deletes, 200 lcp queries on
/// `P = 8` with the default (Plain, no compact tables) config.
fn plain_run(threads: usize) -> (u64, u64, u64, u64, u64) {
    pim_trie::with_threads(threads, || {
        let mut t = PimTrie::new(PimTrieConfig::for_modules(8).with_seed(3));
        let mut rng = ChaCha8Rng::seed_from_u64(2024);
        let keys = random_keys(&mut rng, 500, 96);
        let values: Vec<u64> = (0..keys.len() as u64).collect();
        t.insert_batch(&keys, &values);
        let dels: Vec<BitStr> = keys.iter().step_by(5).cloned().collect();
        let removed = t.delete_batch(&dels) as u64;
        let queries = random_keys(&mut rng, 200, 110);
        let lcp: u64 = t.lcp_batch(&queries).iter().map(|&x| x as u64).sum();
        let m = t.system().metrics();
        (m.io_rounds(), m.io_time(), m.io_volume(), removed, lcp)
    })
}

/// `(io_rounds, io_time, io_volume, removed, Σ lcp)` of `plain_run`,
/// identical at 1 and 4 threads. First recorded at the last pre-codec
/// commit as `(38, 31450, 76002, 100, 1716)`; re-captured when the
/// master-table round was deleted: one `master.add` broadcast at
/// bootstrap and one `match.master` round in each of the three batches
/// are gone (38 − 4 rounds), with the words they carried and the two
/// reply fields nothing read, giving `(34, 27879, 64188, 100, 1716)`; and
/// again when the host began keeping the top of the meta-block tree
/// (34 − 3 rounds): a level whose meta-blocks are resident costs no
/// descent round — the lcp batch crosses the root that way — and a level
/// being filled is one pull round where it was a pull and a push round;
/// the words of those rounds are gone, less the 9 fills (669 words) that
/// make and re-make the copies; and again when the host began choosing
/// every module address (31 − 10 rounds): placement and wiring share one
/// round, so the bootstrap's three rounds become one, the insert's
/// repartition (place, wire, meta, meta wire) becomes one `repart.place`
/// and its meta-split (four `meta.place` waves, `meta.wire`,
/// `msplit.rewire`) one `msplit.place`. The delete and lcp rounds are
/// bit-identical; the words gone are the `Placed` slot fields and the
/// `SetMirror`/`SetParent`/`SetBlockMeta`/`SetMetaParent` messages that
/// only carried an address back out. It did not move when a descent
/// level's pulls and pushes began sharing one round and block matching
/// became one round: no level or block phase of this run both pulls and
/// pushes, and it runs no get, the one op whose block matching now
/// carries values. Re-captured when the host began keeping the master
/// table (21 − 5 rounds): the insert, into an empty trie, is
/// bit-identical (8 rounds, 37 030 words), the delete's descent takes
/// one `match.meta` round where it took four and the lcp's one where it
/// took three. The delete moves 139 words more — the resident set now
/// takes a meta-block below a held parent in the same round, 32 fills
/// where there were 9 — and the lcp 1 102 fewer, giving
/// `(16, 24831, 57581, 100, 1716)`. Re-captured when pulled entry
/// summaries lost their `descend` word (6 → 5 words an entry) and the
/// resident set stopped asking for a held parent: rounds and answers are
/// bit-identical, 39 fills (2 504 words) where there were 32 (2 426), and
/// 433 words fewer in all, giving `(16, 24772, 57148, 100, 1716)`.
/// Re-captured when a write's reply began carrying the block or
/// meta-block its maintenance reads next (16 − 3 rounds): the insert's
/// `repart.fetch` and `msplit.fetch` and the delete's `merge.fetch` are
/// gone, their images riding the graft, placement and delete replies.
/// Answers are identical; the words gone are the fetch requests and the
/// per-key delete replies, as deletes now go out one message a block,
/// giving `(13, 24738, 57073, 100, 1716)`.
const PRE_CODEC_GOLDEN: (u64, u64, u64, u64, u64) = (13, 24738, 57073, 100, 1716);

#[test]
fn plain_wire_is_bit_identical_to_pre_codec_builds() {
    for threads in [1, 4] {
        assert_eq!(
            plain_run(threads),
            PRE_CODEC_GOLDEN,
            "Plain metering drifted from the pre-codec golden at {threads} threads"
        );
    }
}

#[test]
fn plain_build_meters_no_codec_activity() {
    let t = PimTrie::new(PimTrieConfig::for_modules(8).with_seed(3));
    assert_eq!(*t.codec_stats(), pim_trie::CodecStats::default());
}
