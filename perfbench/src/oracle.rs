//! The correctness gate: the expected answer of every lattice node,
//! computed once by the program's naive reference oracle, kept as a row
//! count plus an order-independent fingerprint.
//!
//! The oracle aggregates each node independently by hashing
//! (`cure_core::reference::compute_node`, the per-node step of
//! `compute_cube`), so it shares no code with the cube, its storage, or
//! the serving paths. Keeping fingerprints rather than rows holds the
//! benchmark's own memory out of `peak_rss_mb`.

use cure_core::reference::{compute_node, pairs};
use cure_core::{CubeSchema, NodeCoder, NodeId, Tuples};

/// Row count and fingerprint of one node's answer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Answer {
    /// Number of rows.
    pub rows: u64,
    /// Wrapping sum of per-row hashes: equal for equal row multisets in
    /// any order.
    pub hash: u64,
}

impl Answer {
    /// Fingerprint a served answer.
    pub fn of<'a>(rows: impl IntoIterator<Item = (&'a [u32], &'a [i64])>) -> Answer {
        let mut n = 0;
        let mut hash = 0u64;
        for (dims, aggs) in rows {
            n += 1;
            hash = hash.wrapping_add(row_hash(dims, aggs));
        }
        Answer { rows: n, hash }
    }
}

fn mix(mut x: u64) -> u64 {
    // splitmix64 finaliser.
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn row_hash(dims: &[u32], aggs: &[i64]) -> u64 {
    let mut h = mix(dims.len() as u64 ^ 0x5EED);
    for &d in dims {
        h = mix(h ^ u64::from(d));
    }
    for &a in aggs {
        h = mix(h.wrapping_add(a as u64));
    }
    h
}

/// Expected answers for every node of one fact set.
pub struct Oracle {
    expected: Vec<Answer>,
}

impl Oracle {
    /// Compute every node's expected answer over `facts`. With
    /// `tamper = Some(node)`, that node's expected rows are altered
    /// first (one aggregate off by one) — used to prove the gate fires.
    pub fn compute(schema: &CubeSchema, facts: &Tuples, tamper: Option<NodeId>) -> Oracle {
        let coder = NodeCoder::new(schema);
        let expected = coder
            .all_ids()
            .map(|id| {
                let levels = coder.decode(id).expect("dense node ids decode");
                let mut rows = pairs(&compute_node(schema, facts, &levels));
                if tamper == Some(id) {
                    if let Some(a) = rows.first_mut().and_then(|r| r.1.first_mut()) {
                        *a += 1;
                    }
                }
                Answer::of(rows.iter().map(|(d, a)| (d.as_slice(), a.as_slice())))
            })
            .collect();
        Oracle { expected }
    }

    /// Number of lattice nodes.
    pub fn num_nodes(&self) -> usize {
        self.expected.len()
    }

    /// Whether `rows` is exactly `node`'s expected answer.
    pub fn matches(&self, node: NodeId, rows: &[(Vec<u32>, Vec<i64>)]) -> bool {
        let got = Answer::of(rows.iter().map(|(d, a)| (d.as_slice(), a.as_slice())));
        self.expected.get(node as usize) == Some(&got)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fingerprint_ignores_order_and_sees_values() {
        let a = vec![(vec![1u32, 2], vec![10i64, 3]), (vec![2, 2], vec![4, 1])];
        let mut b = a.clone();
        b.reverse();
        let fp = |rows: &[(Vec<u32>, Vec<i64>)]| {
            Answer::of(rows.iter().map(|(d, a)| (d.as_slice(), a.as_slice())))
        };
        assert_eq!(fp(&a), fp(&b));
        let mut c = a.clone();
        c[1].1[0] += 1;
        assert_ne!(fp(&a), fp(&c));
        let mut d = a.clone();
        d[0].0.swap(0, 1);
        assert_ne!(fp(&a), fp(&d));
    }
}
