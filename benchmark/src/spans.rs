//! Host-clock spans taken from outside the measured crates: one span
//! around each call into a layer's public functions. Spans are kept in
//! memory and written as JSONL when the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

use pim_sim::Json;

/// One recorded span. `parent` is the span that was open when this one
/// began; spans of one cycle share `batch_id`.
#[derive(Clone, Debug)]
pub struct Span {
    /// layer boundary, e.g. `op.lcp`, `probe.match`, `serve.dispatch`
    pub name: &'static str,
    /// ns since the recorder was created
    pub start_ns: u64,
    /// ns since the recorder was created
    pub end_ns: u64,
    /// index of the enclosing span
    pub parent: Option<usize>,
    /// cycle (or epoch) the span belongs to
    pub batch_id: u64,
}

/// Times closures and, when recording, keeps a span for each.
pub struct Spans {
    origin: Instant,
    recording: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    /// A recorder; with `recording` off, [`Spans::timed`] only times.
    pub fn new(recording: bool) -> Spans {
        Spans {
            origin: Instant::now(),
            recording,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Open a span; close it with [`Spans::end`].
    pub fn begin(&mut self, name: &'static str, batch_id: u64) -> Option<usize> {
        if !self.recording {
            return None;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.origin.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: self.open.last().copied(),
            batch_id,
        });
        self.open.push(id);
        Some(id)
    }

    /// Close the span [`Spans::begin`] returned.
    pub fn end(&mut self, id: Option<usize>) {
        if let Some(id) = id {
            self.spans[id].end_ns = self.origin.elapsed().as_nanos() as u64;
            let top = self.open.pop();
            debug_assert_eq!(top, Some(id), "spans close innermost first");
        }
    }

    /// Run `f` inside a span and return its result and duration in ns.
    pub fn timed<R>(
        &mut self,
        name: &'static str,
        batch_id: u64,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let id = self.begin(name, batch_id);
        let t = Instant::now();
        let r = f();
        let ns = t.elapsed().as_nanos() as f64;
        self.end(id);
        (r, ns)
    }

    /// Self time per span: its duration minus what its children cover.
    fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
            }
        }
        own
    }

    /// One JSON object per span, in start order.
    pub fn to_jsonl(&self) -> String {
        let own = self.self_ns();
        let mut out = String::new();
        for (id, s) in self.spans.iter().enumerate() {
            let line = Json::obj(vec![
                ("id", Json::num(id as f64)),
                ("name", Json::str(s.name)),
                ("start_ns", Json::num(s.start_ns as f64)),
                ("end_ns", Json::num(s.end_ns as f64)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::num(p as f64)),
                ),
                ("batch_id", Json::num(s.batch_id as f64)),
                ("self_ns", Json::num(own[id] as f64)),
            ]);
            out.push_str(&line.dump());
            out.push('\n');
        }
        out
    }

    /// Total self time in ms per span name — where the traced run's
    /// host time went.
    pub fn self_ms_by_name(&self) -> Json {
        let mut by: BTreeMap<&str, u64> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_ns()) {
            *by.entry(s.name).or_insert(0) += own;
        }
        Json::Obj(
            by.into_iter()
                .map(|(k, v)| (k.to_string(), Json::num(v as f64 / 1e6)))
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut s = Spans::new(true);
        let outer = s.begin("outer", 7);
        let (_, inner_ns) = s.timed("inner", 7, || std::hint::black_box(1 + 1));
        s.end(outer);
        assert_eq!(s.spans[1].parent, Some(0));
        let own = s.self_ns();
        let outer_ns = s.spans[0].end_ns - s.spans[0].start_ns;
        assert_eq!(own[0] + (s.spans[1].end_ns - s.spans[1].start_ns), outer_ns);
        assert!(inner_ns >= 0.0);
        assert_eq!(s.to_jsonl().lines().count(), 2);
    }

    #[test]
    fn not_recording_keeps_nothing() {
        let mut s = Spans::new(false);
        let (v, _) = s.timed("x", 0, || 5);
        assert_eq!(v, 5);
        assert!(s.to_jsonl().is_empty());
    }
}
