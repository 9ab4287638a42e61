//! Closed-loop serving driver: replays per-client scripts from
//! `workloads` against a [`Server`], modelling think times and retries
//! on overload.

use std::collections::BTreeMap;

use pim_sim::ServeStats;
use workloads::ClientScript;

use crate::server::{Op, Outcome, PreppedEpoch, ServeError, Server, OP_CLASSES};

/// Latency digest of one op class: completed-reply count plus p50/p99
/// in simulated PIM time units. Percentile of an empty class is 0.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LatencySummary {
    /// completed replies in the class
    pub count: u64,
    /// median reply latency
    pub p50: u64,
    /// 99th-percentile reply latency
    pub p99: u64,
}

/// The `q_milli`-th permille value of a sorted tally, with the exact
/// index the old `((len-1) as f64 * q).round()` produced — which is
/// round-half-up for *both* quantiles: p50 ties are exact in binary
/// and `round()` goes away from zero, and for p99 the only exact-
/// product ties (`n ≡ 50 mod 100`) re-round *onto* .5 when the double
/// product is formed (the 8.9e-18 deficit of `0.99`'s double is far
/// inside half an ulp of the product), so `round()` again goes up.
/// Every other index sits ≥ 1/100 from a tie, dwarfing double error.
/// Pure integer arithmetic, bit-identical on every target.
fn percentile(sorted: &[u64], q_milli: u64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let n = (sorted.len() - 1) as u64;
    let idx = ((n * q_milli + 500) / 1000) as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Everything a closed-loop run produced, in deterministic, comparable
/// form (two runs of the same (trie seed, scripts, config) compare
/// equal with `==`, regardless of thread count).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServeReport {
    /// terminal outcome per (client, op index); every scripted op that
    /// was ever admitted appears exactly once
    pub outcomes: BTreeMap<(usize, usize), Outcome>,
    /// serving counters at the end of the run
    pub stats: ServeStats,
    /// per-class latency digests, indexed like [`OP_CLASSES`]
    pub latency: [LatencySummary; 4],
    /// contract breaches (double outcomes); must be 0
    pub violations: u64,
    /// admitted requests left without an outcome; must be 0 unless the
    /// run hit the iteration safety valve
    pub unresolved: u64,
    /// final simulated clock
    pub elapsed: u64,
}

struct ClientState {
    next: usize,
    ready: u64,
    pending: Option<usize>,
}

/// Replay closed-loop `scripts` against `server` until every client
/// finishes: each client submits its next op once its think time has
/// passed, waits for the terminal outcome, thinks, and continues. A
/// request rejected with [`ServeError::Overloaded`] is retried by the
/// same client after another think interval (the op sequence per
/// client is invariant, so runs stay comparable across configs); a
/// [`ServeError::DeadlineExceeded`] or [`ServeError::Failed`] outcome
/// is terminal and the client moves on.
///
/// Each iteration drains the next epoch before it dispatches the one
/// staged by the previous iteration, so requests that arrive while an
/// epoch is staged land in the one after it.
pub fn run_closed_loop(server: &mut Server, scripts: &[ClientScript]) -> ServeReport {
    // Safety valve so a scheduling bug degrades into a report full of
    // unresolved requests instead of a hang. Generous: real runs take
    // a few iterations per epoch.
    let max_iters = 10_000_000u64;
    let mut iters = 0u64;

    // (client, op) → outcome, in delivery order; each pair is delivered
    // once. Collected into the report's map at the end, which sorts them
    // first: a map built from sorted pairs fills its nodes, one filled in
    // delivery order leaves them about a third empty, and callers keep
    // every report.
    let mut outcomes: Vec<((usize, usize), Outcome)> = Vec::new();
    let mut clients: Vec<ClientState> = scripts
        .iter()
        .map(|s| ClientState {
            next: 0,
            ready: s.first().map_or(0, |r| r.think),
            pending: None,
        })
        .collect();
    let mut staged: Option<PreppedEpoch> = None;

    loop {
        iters += 1;
        if iters > max_iters {
            break;
        }
        let now = server.now();

        // 1. deliver finished replies and schedule the next think
        for (c, st) in clients.iter_mut().enumerate() {
            if let Some(id) = st.pending {
                if let Some((finish, out)) = server.outcome(id) {
                    outcomes.push(((c, st.next), out.clone()));
                    let finish = *finish;
                    st.pending = None;
                    st.next += 1;
                    if st.next < scripts[c].len() {
                        st.ready = finish.saturating_add(scripts[c][st.next].think);
                    }
                }
            }
        }

        // 2. submissions from every idle client whose think time passed
        for (c, st) in clients.iter_mut().enumerate() {
            if st.pending.is_none() && st.next < scripts[c].len() && st.ready <= now {
                let r = &scripts[c][st.next];
                match server.submit(c, st.next, Op::from(r.op.clone()), r.deadline) {
                    Ok(id) => st.pending = Some(id),
                    Err(ServeError::Overloaded) => {
                        // shed-newest: back off one think interval and
                        // resubmit the same op
                        st.ready = now.saturating_add(r.think.max(1));
                    }
                    // submit only ever rejects with Overloaded
                    Err(_) => st.ready = now.saturating_add(1),
                }
            }
        }

        // 3. nothing staged or queued: finished, or everyone is thinking
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
                None if clients.iter().any(|st| st.pending.is_some()) => {
                    // pending but nothing queued/staged: outcome must
                    // already exist; loop once more to deliver it
                    continue;
                }
                None => break,
            }
        }

        // 4. drain the *next* epoch's batch, run the staged epoch, then
        //    stage the drained one
        let batch = server.drain_epoch();
        if let Some(ep) = staged.take() {
            server.dispatch(ep);
        }
        if !batch.is_empty() {
            staged = Some(Server::prep_epoch(batch));
        }
    }

    // flush anything the safety valve interrupted
    if let Some(ep) = staged.take() {
        server.dispatch(ep);
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
        outcomes: outcomes.into_iter().collect(),
        stats: server.stats().clone(),
        latency,
        violations: server.violations(),
        unresolved: server.in_flight() as u64,
        elapsed: server.now(),
    }
}

#[cfg(test)]
mod tests {
    use super::percentile;

    #[test]
    fn percentile_indices_match_the_old_float_rounding() {
        // the integer form must reproduce the historical
        // `((len-1) as f64 * q).round()` index for every tally length
        // a closed-loop run can produce
        for len in 1..=4096usize {
            let sorted: Vec<u64> = (0..len as u64).collect();
            let old_p50 = sorted[(((len - 1) as f64 * 0.50).round() as usize).min(len - 1)];
            let old_p99 = sorted[(((len - 1) as f64 * 0.99).round() as usize).min(len - 1)];
            assert_eq!(percentile(&sorted, 500), old_p50, "p50 len={len}");
            assert_eq!(percentile(&sorted, 990), old_p99, "p99 len={len}");
        }
        assert_eq!(percentile(&[], 500), 0);
    }
}
