//! Closed-loop load generation with raw per-request latency samples.
//!
//! Each client sends its next query only after the previous answer
//! arrived, like dashboard panels that each wait for their answer. The
//! clients walk one seeded [`Mix`] through a shared cursor.
//! Latency is timed by the client around the call alone; the answer is
//! then checked against the oracle, and only correct answers become
//! samples. Quantiles come from the raw samples, never from the
//! program's own histograms: each client's answers are cut, in the order
//! it received them, into chunks of [`CHUNK`], and each chunk's quantiles
//! taken, so a run can report medians over chunks. A burst of noise from
//! other tenants of the host then moves a few chunks, not the median.
//! A client holds one chunk of samples at a time, so the benchmark's own
//! memory does not grow with the answers a run times and stays out of
//! the peak resident set it reports.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use cure_core::NodeId;
use cure_serve::{QueryReply, ServeError};

use crate::oracle::Oracle;
use crate::trace;

/// When a loop stops: once `min` has passed and `min_samples` correct
/// answers arrived, at the end of the round of its [`Mix`] under way (so
/// every node is asked equally often), or at `max` regardless.
#[derive(Debug, Clone, Copy)]
pub struct Stop {
    /// Shortest measuring time.
    pub min: Duration,
    /// Fewest correct answers.
    pub min_samples: u64,
    /// Longest measuring time.
    pub max: Duration,
}

/// Failed requests by the serve layer's error class.
#[derive(Debug, Clone, Copy, Default)]
pub struct ErrorCounts {
    /// Deadline passed.
    pub timeout: u64,
    /// Shed by admission control.
    pub overloaded: u64,
    /// Rejected by an open circuit breaker.
    pub degraded: u64,
    /// Corrupt or quarantined page.
    pub corrupt: u64,
    /// Every other failure (query errors, I/O, protocol, upstream).
    pub query: u64,
}

impl ErrorCounts {
    /// Count one failure.
    pub fn count(&mut self, e: &ServeError) {
        match e {
            ServeError::Timeout { .. } => self.timeout += 1,
            ServeError::Overloaded => self.overloaded += 1,
            ServeError::Degraded { .. } => self.degraded += 1,
            ServeError::Corrupt { .. } => self.corrupt += 1,
            _ => self.query += 1,
        }
    }

    /// Element-wise sum.
    pub fn add(&mut self, o: &ErrorCounts) {
        self.timeout += o.timeout;
        self.overloaded += o.overloaded;
        self.degraded += o.degraded;
        self.corrupt += o.corrupt;
        self.query += o.query;
    }

    /// All failures.
    pub fn total(&self) -> u64 {
        self.timeout + self.overloaded + self.degraded + self.corrupt + self.query
    }
}

/// Answers per chunk: a chunk's p99 has ten answers beyond it.
pub const CHUNK: usize = 1000;

/// Latency quantiles of one chunk of a client's consecutive answers.
#[derive(Debug, Clone, Copy)]
pub struct Chunk {
    /// Median latency, in ns.
    pub p50_ns: u64,
    /// 99th-percentile latency, in ns.
    pub p99_ns: u64,
}

/// The quantiles of one chunk of latencies, which it sorts.
fn chunk_of(latencies_ns: &mut [u64]) -> Chunk {
    latencies_ns.sort_unstable();
    Chunk { p50_ns: quantile(latencies_ns, 0.50), p99_ns: quantile(latencies_ns, 0.99) }
}

/// What one loop measured.
#[derive(Debug, Default)]
pub struct LoopResult {
    /// Correct answers.
    pub answers: u64,
    /// Client-side latency quantiles of the correct answers, by chunk; a
    /// client's last answers, fewer than a chunk, have none.
    pub chunks: Vec<Chunk>,
    /// Start and end of the loop on the trace clock, in ns.
    pub window: (u64, u64),
    /// Answers that differed from the oracle.
    pub wrong: u64,
    /// Requests that failed, by class.
    pub errors: ErrorCounts,
}

impl LoopResult {
    /// Requests sent.
    pub fn attempted(&self) -> u64 {
        self.answers + self.failed()
    }

    /// Requests that failed or answered wrongly.
    pub fn failed(&self) -> u64 {
        self.wrong + self.errors.total()
    }
}

/// A seeded query mix: rounds, each asking every node of a set once, in
/// an order of its own. A loop ends only at the end of a round, so it
/// asks every node equally often; the many orders vary which queries the
/// clients run side by side, so no one pairing of large nodes sets the
/// tail.
#[derive(Debug, Clone)]
pub struct Mix {
    /// The nodes, round after round.
    pub order: Vec<NodeId>,
    /// Nodes per round.
    pub round: usize,
}

impl Mix {
    /// At least `len` entries of rounds over `set`, each shuffled by a
    /// splitmix64 stream from `seed`.
    pub fn seeded(set: &[NodeId], len: usize, seed: u64) -> Mix {
        let mut state = seed;
        let mut next = || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut order = Vec::with_capacity(len + set.len());
        for _ in 0..len.div_ceil(set.len().max(1)) {
            let mut round = set.to_vec();
            for i in (1..round.len()).rev() {
                round.swap(i, (next() % (i as u64 + 1)) as usize);
            }
            order.extend(round);
        }
        Mix { order, round: set.len() }
    }
}

/// The next mix position to hand out, and where the loop ends. Both sit
/// under one lock so the end, once set, is a round boundary no position
/// already handed out lies beyond.
struct Cursor {
    next: u64,
    end: u64,
}

/// A query entry point: answer `node` as request `request`.
pub type Call<'a> = dyn Fn(NodeId, u64) -> Result<QueryReply, ServeError> + Sync + 'a;

/// Drive `call` with `clients` closed-loop clients over `mix`.
pub fn closed_loop(
    clients: usize,
    mix: &Mix,
    stop: Stop,
    oracle: &Oracle,
    call: &Call<'_>,
) -> LoopResult {
    let from_ns = trace::clock_ns();
    let cursor = Mutex::new(Cursor { next: 0, end: u64::MAX });
    let correct = AtomicU64::new(0);
    let start = Instant::now();
    let parts: Vec<LoopResult> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..clients)
            .map(|_| {
                s.spawn(|| {
                    let mut mine = LoopResult::default();
                    let mut latencies_ns = Vec::with_capacity(CHUNK);
                    loop {
                        let i = {
                            let mut c = cursor.lock().expect("no client panics holding the cursor");
                            let t = start.elapsed();
                            if t >= stop.max {
                                break;
                            }
                            if c.end == u64::MAX
                                && t >= stop.min
                                && correct.load(Ordering::Relaxed) >= stop.min_samples
                            {
                                c.end = c.next.next_multiple_of(mix.round as u64);
                            }
                            if c.next >= c.end {
                                break;
                            }
                            c.next += 1;
                            c.next - 1
                        };
                        let node = mix.order[i as usize % mix.order.len()];
                        let request = trace::next_request();
                        let t0 = Instant::now();
                        let res = call(node, request);
                        let latency_ns = t0.elapsed().as_nanos() as u64;
                        match res {
                            Ok(reply) if oracle.matches(node, &reply.rows) => {
                                mine.answers += 1;
                                latencies_ns.push(latency_ns);
                                if latencies_ns.len() == CHUNK {
                                    mine.chunks.push(chunk_of(&mut latencies_ns));
                                    latencies_ns.clear();
                                }
                                correct.fetch_add(1, Ordering::Relaxed);
                            }
                            Ok(_) => mine.wrong += 1,
                            Err(e) => mine.errors.count(&e),
                        }
                    }
                    trace::flush_thread();
                    mine
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().expect("client thread panicked")).collect()
    });
    let mut out = LoopResult { window: (from_ns, trace::clock_ns()), ..Default::default() };
    for p in parts {
        out.answers += p.answers;
        out.chunks.extend(p.chunks);
        out.wrong += p.wrong;
        out.errors.add(&p.errors);
    }
    out
}

/// Nearest-rank quantile `q` of ascending `sorted`.
fn quantile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of `v` (mean of the middle pair for even lengths); 0 if empty.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cure_core::reference::{compute_node, pairs};
    use cure_core::NodeCoder;
    use cure_serve::QueryReply;

    #[test]
    fn a_loop_stops_at_the_end_of_a_round_of_its_mix() {
        let data = cure_data::apb::apb1_dense(0.4, 20_000, 1);
        let oracle = Oracle::compute(&data.schema, &data.tuples, None);
        let coder = NodeCoder::new(&data.schema);
        let answers: Vec<_> = coder
            .all_ids()
            .map(|id| {
                let levels = coder.decode(id).expect("dense node ids decode");
                pairs(&compute_node(&data.schema, &data.tuples, &levels))
            })
            .collect();
        let set: Vec<NodeId> = (0..7).collect();
        let mix = Mix::seeded(&set, 100, 1);
        assert_eq!(mix.order.len(), 105);
        for round in mix.order.chunks(7) {
            let mut r = round.to_vec();
            r.sort_unstable();
            assert_eq!(r, set, "every round asks every node once");
        }
        let stop = Stop { min: Duration::ZERO, min_samples: 10, max: Duration::from_secs(60) };
        let call = |node: NodeId, _| {
            Ok(QueryReply { rows: answers[node as usize].clone(), latency: Duration::ZERO })
        };
        let r = closed_loop(2, &mix, stop, &oracle, &call);
        assert_eq!(r.failed(), 0);
        assert!(r.answers >= 10);
        assert_eq!(r.answers % mix.round as u64, 0, "stopped mid-round");
    }

    #[test]
    fn a_chunk_is_summarised_by_its_quantiles() {
        let mut v: Vec<u64> = (1..=CHUNK as u64).rev().collect();
        let c = chunk_of(&mut v);
        assert_eq!((c.p50_ns, c.p99_ns), (500, 990));
    }

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<u64> = (1..=1000).collect();
        assert_eq!(quantile(&v, 0.5), 500);
        assert_eq!(quantile(&v, 0.99), 990);
        assert_eq!(quantile(&[7], 0.99), 7);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
