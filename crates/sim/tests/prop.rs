//! Property-based tests for the simulator's accounting and routing.

use pim_sim::{PimSystem, Scatter};
use proptest::prelude::*;

proptest! {
    #[test]
    fn scatter_gather_pairs_every_tag_with_its_reply(
        items in proptest::collection::vec((0usize..8, any::<u64>()), 0..200),
    ) {
        let mut s = Scatter::new(8);
        for (i, (m, v)) in items.iter().enumerate() {
            s.push(*m, i, *v);
        }
        prop_assert_eq!(s.is_empty(), items.is_empty());
        // box order = push order: module m's box is the subsequence aimed at m
        let boxes = s.take_boxes();
        for (m, b) in boxes.iter().enumerate() {
            let want: Vec<u64> = items.iter().filter(|(t, _)| *t == m).map(|(_, v)| *v).collect();
            prop_assert_eq!(b, &want);
        }
        // modules echo their items
        let replies = boxes;
        let got: Vec<_> = s.gather(replies).unwrap().into_iter().collect();
        // every tag exactly once, with its own reply, from its own module
        let mut seen = vec![false; items.len()];
        for (m, i, v) in &got {
            prop_assert_eq!((*m, *v), items[*i]);
            prop_assert!(!std::mem::replace(&mut seen[*i], true));
        }
        prop_assert!(seen.iter().all(|s| *s));
        // module-major, push order within a module
        let order: Vec<(usize, usize)> = got.iter().map(|(m, i, _)| (*m, *i)).collect();
        prop_assert!(order.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn io_accounting_adds_up(
        batches in proptest::collection::vec(
            proptest::collection::vec(any::<u64>(), 0..20),
            4,
        ),
    ) {
        let mut sys = PimSystem::new(4, |_| 0u64);
        let sent_words: u64 = batches.iter().map(|b| b.len() as u64).sum();
        let out = sys.round("t", batches.clone(), |ctx, msgs| {
            *ctx.state += msgs.len() as u64;
            ctx.work(1);
            msgs // echo
        });
        let recv_words: u64 = out.iter().map(|b| b.len() as u64).sum();
        prop_assert_eq!(recv_words, sent_words);
        let m = sys.metrics();
        prop_assert_eq!(m.io_volume(), sent_words + recv_words);
        prop_assert_eq!(m.io_rounds(), 1);
        // io time = max per-module in+out
        let want_time = batches
            .iter()
            .map(|b| 2 * b.len() as u64)
            .max()
            .unwrap_or(0);
        prop_assert_eq!(m.io_time(), want_time);
        prop_assert_eq!(m.pim_time(), 1);
        prop_assert_eq!(m.pim_work(), 4);
    }

    #[test]
    fn snapshots_window_correctly(
        a in proptest::collection::vec(any::<u8>(), 4),
        b in proptest::collection::vec(any::<u8>(), 4),
    ) {
        let mut sys = PimSystem::new(4, |_| ());
        let mk = |v: &[u8]| -> Vec<Vec<u64>> {
            v.iter().map(|n| (0..*n as u64 % 8).collect()).collect()
        };
        sys.round("a", mk(&a), |_, m| m);
        let snap = sys.metrics().snapshot();
        sys.round("b", mk(&b), |_, m| m);
        let d = sys.metrics().since(&snap);
        prop_assert_eq!(d.io_rounds, 1);
        let want: u64 = b.iter().map(|n| 2 * (*n as u64 % 8)).sum();
        prop_assert_eq!(d.io_volume(), want);
    }
}
