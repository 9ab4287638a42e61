//! Scatter/gather bookkeeping for host rounds.
//!
//! Every host-side step of a batch algorithm has one shape in the PIM
//! Model: send each item to the module that holds its data, run one BSP
//! round, read the replies back. [`Scatter`] is that shape — per-module
//! message boxes plus, beside each message, a caller-chosen tag saying
//! what the reply is for — so no algorithm keeps a parallel index table.

use std::fmt;
use std::iter::Zip;
use std::vec::IntoIter;

/// Messages scattered into per-module boxes, each remembered by a tag.
///
/// Per-module message order is push order, so everything that indexes
/// into a box (wire sizes, group encoding, fault draws) sees exactly
/// the sequence the caller produced.
pub struct Scatter<T, M> {
    boxes: Vec<Vec<M>>,
    tags: Vec<Vec<T>>,
    len: usize,
}

/// A module answered a different number of times than it was asked (a
/// dropped reply on an unsealed wire, or a handler bug), so replies can
/// no longer be paired with the messages that caused them.
#[derive(Debug)]
pub struct GatherError {
    /// first module whose counts differ
    pub module: usize,
    /// messages pushed to it
    pub sent: usize,
    /// replies it returned
    pub replied: usize,
}

impl fmt::Display for GatherError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "module {} replied {} times to {} messages",
            self.module, self.replied, self.sent
        )
    }
}

impl std::error::Error for GatherError {}

impl<T, M> Scatter<T, M> {
    /// Empty boxes for `p` modules.
    pub fn new(p: usize) -> Self {
        Scatter {
            boxes: (0..p).map(|_| Vec::new()).collect(),
            tags: (0..p).map(|_| Vec::new()).collect(),
            len: 0,
        }
    }

    /// Append `msg` to `module`'s box; `tag` comes back with its reply.
    /// Panics if `module` is not one of the `p` modules.
    pub fn push(&mut self, module: usize, tag: T, msg: M) {
        let p = self.tags.len();
        assert!(module < p, "target module {module} out of range (P={p})");
        self.boxes[module].push(msg);
        self.tags[module].push(tag);
        self.len += 1;
    }

    /// True iff nothing was pushed.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Move the boxes out ([`PimSystem::round`](crate::PimSystem::round)
    /// takes them by value); the tags stay behind for [`Self::gather`],
    /// and nothing more can be pushed.
    pub fn take_boxes(&mut self) -> Vec<Vec<M>> {
        std::mem::take(&mut self.boxes)
    }

    /// Pair `replies[m][j]` with the tag pushed `j`-th to module `m`:
    /// the replies take the messages' place in the boxes, so iterating
    /// the result yields `(m, tag, reply)`. Every tag comes back exactly
    /// once, or not at all: a module whose reply count differs from its
    /// message count is an error before any reply is handed out.
    pub fn gather<R>(self, replies: Vec<Vec<R>>) -> Result<Scatter<T, R>, GatherError> {
        for m in 0..self.tags.len().max(replies.len()) {
            let sent = self.tags.get(m).map_or(0, Vec::len);
            let replied = replies.get(m).map_or(0, Vec::len);
            if sent != replied {
                return Err(GatherError {
                    module: m,
                    sent,
                    replied,
                });
            }
        }
        Ok(Scatter {
            boxes: replies,
            tags: self.tags,
            len: self.len,
        })
    }
}

/// `(module, tag, message)` module-major — ascending module, push order
/// within a module — without copying the boxes.
impl<T, M> IntoIterator for Scatter<T, M> {
    type Item = (usize, T, M);
    type IntoIter = Tagged<T, M>;

    fn into_iter(self) -> Tagged<T, M> {
        Tagged {
            tags: self.tags.into_iter(),
            boxes: self.boxes.into_iter(),
            started: 0,
            current: Vec::new().into_iter().zip(Vec::new()),
        }
    }
}

/// Iterator over a [`Scatter`]'s `(module, tag, message)` triples.
pub struct Tagged<T, M> {
    tags: IntoIter<Vec<T>>,
    boxes: IntoIter<Vec<M>>,
    /// modules opened so far; `current` belongs to module `started - 1`
    started: usize,
    current: Zip<IntoIter<T>, IntoIter<M>>,
}

impl<T, M> Iterator for Tagged<T, M> {
    type Item = (usize, T, M);

    fn next(&mut self) -> Option<(usize, T, M)> {
        loop {
            if let Some((tag, msg)) = self.current.next() {
                return Some((self.started - 1, tag, msg));
            }
            self.current = self.tags.next()?.into_iter().zip(self.boxes.next()?);
            self.started += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Scatter<char, &'static str> {
        let mut s = Scatter::new(3);
        for (m, tag, msg) in [
            (2, 'a', "a"),
            (0, 'b', "b"),
            (2, 'c', "c"),
            (1, 'd', "d"),
            (0, 'e', "e"),
        ] {
            s.push(m, tag, msg);
        }
        s
    }

    #[test]
    fn box_order_is_push_order() {
        let mut s = sample();
        assert!(!s.is_empty());
        assert_eq!(
            s.take_boxes(),
            vec![vec!["b", "e"], vec!["d"], vec!["a", "c"]]
        );
    }

    #[test]
    fn gather_returns_every_tag_once_module_major() {
        let mut s = sample();
        // modules answer by uppercasing
        let replies: Vec<Vec<String>> = s
            .take_boxes()
            .iter()
            .map(|b| b.iter().map(|m| m.to_uppercase()).collect())
            .collect();
        let got: Vec<_> = s.gather(replies).unwrap().into_iter().collect();
        let want = [
            (0, 'b', "B"),
            (0, 'e', "E"),
            (1, 'd', "D"),
            (2, 'a', "A"),
            (2, 'c', "C"),
        ];
        assert_eq!(got.len(), want.len());
        for ((m, t, r), (wm, wt, wr)) in got.iter().zip(want) {
            assert_eq!((*m, *t, r.as_str()), (wm, wt, wr));
        }
    }

    #[test]
    fn empty_scatter_gathers_nothing() {
        let s: Scatter<(), u64> = Scatter::new(4);
        assert!(s.is_empty());
        let out = s.gather(vec![Vec::<u64>::new(); 4]).unwrap();
        assert!(out.is_empty());
        assert_eq!(out.into_iter().count(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_module_is_rejected() {
        Scatter::new(2).push(5, (), ());
    }

    #[test]
    fn reply_count_mismatch_is_an_error() {
        // a dropped reply, an extra reply, a missing module vector, and a
        // reply from a module that was sent nothing
        for (replies, module, sent, replied) in [
            (vec![vec![], vec![7u64]], 1, 2, 1),
            (vec![vec![], vec![7, 8, 9]], 1, 2, 3),
            (vec![vec![]], 1, 2, 0),
            (vec![vec![0], vec![7, 8]], 0, 0, 1),
        ] {
            let mut s = Scatter::new(2);
            s.push(1, 'x', 1u64);
            s.push(1, 'y', 2u64);
            let Err(err) = s.gather(replies) else {
                panic!("miscounted replies were paired")
            };
            assert_eq!((err.module, err.sent, err.replied), (module, sent, replied));
        }
        let err = GatherError {
            module: 3,
            sent: 5,
            replied: 2,
        };
        assert_eq!(err.to_string(), "module 3 replied 2 times to 5 messages");
    }
}
