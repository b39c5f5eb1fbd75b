//! The correctness gate: every reply is compared, after the clock
//! stops, with a plain oracle that shares no code with the engines. The
//! oracle is a dense cube for cell reads plus a d-dimensional Fenwick
//! tree for range sums.

use crate::gen::{Body, Req, Window};

/// A server reply, reduced to what the checkers compare.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reply {
    Sums(Vec<i64>),
    Ack(u64),
    /// A typed rejection or an undecodable reply: the request was not
    /// applied, and it counts as a failed frame.
    Failed(String),
}

/// Dense cube plus Fenwick tree over the same cells.
#[derive(Debug, Clone)]
pub struct Oracle {
    dims: Vec<usize>,
    strides: Vec<usize>,
    tree: Vec<i64>,
    cells: Vec<i64>,
}

impl Oracle {
    pub fn new(dims: &[usize]) -> Oracle {
        let mut strides = vec![1; dims.len()];
        for i in (0..dims.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * dims[i + 1];
        }
        let n = dims.iter().product();
        Oracle {
            dims: dims.to_vec(),
            strides,
            tree: vec![0; n],
            cells: vec![0; n],
        }
    }

    pub fn cells(&self) -> &[i64] {
        &self.cells
    }

    fn linear(&self, x: &[usize]) -> usize {
        x.iter().zip(&self.strides).map(|(a, s)| a * s).sum()
    }

    pub fn add(&mut self, x: &[usize], delta: i64) {
        let lin = self.linear(x);
        self.cells[lin] += delta;
        self.add_rec(0, 0, x, delta);
    }

    fn add_rec(&mut self, dim: usize, base: usize, x: &[usize], delta: i64) {
        let mut i = x[dim] + 1;
        while i <= self.dims[dim] {
            let idx = base + (i - 1) * self.strides[dim];
            if dim + 1 == self.dims.len() {
                self.tree[idx] += delta;
            } else {
                self.add_rec(dim + 1, idx, x, delta);
            }
            i += i & i.wrapping_neg();
        }
    }

    /// Sum over the prefix box `0 ..= x`.
    fn prefix(&self, dim: usize, base: usize, x: &[usize]) -> i64 {
        let mut i = x[dim] + 1;
        let mut s = 0;
        while i > 0 {
            let idx = base + (i - 1) * self.strides[dim];
            s += if dim + 1 == self.dims.len() {
                self.tree[idx]
            } else {
                self.prefix(dim + 1, idx, x)
            };
            i -= i & i.wrapping_neg();
        }
        s
    }

    /// Sum over the inclusive window.
    pub fn range(&self, (lo, hi): &Window) -> i64 {
        let d = self.dims.len();
        let mut corner = vec![0; d];
        let mut total = 0;
        'mask: for mask in 0u32..(1 << d) {
            for i in 0..d {
                if mask & (1 << i) == 0 {
                    corner[i] = hi[i];
                } else if lo[i] == 0 {
                    continue 'mask;
                } else {
                    corner[i] = lo[i] - 1;
                }
            }
            let p = self.prefix(0, 0, &corner);
            total += if mask.count_ones() % 2 == 0 { p } else { -p };
        }
        total
    }
}

fn expect_sums(oracle: &Oracle, windows: &[Window], got: &[i64], at: &str) -> Result<(), String> {
    if got.len() != windows.len() {
        return Err(format!(
            "{at}: {} sums for {} regions",
            got.len(),
            windows.len()
        ));
    }
    for (i, (w, &g)) in windows.iter().zip(got).enumerate() {
        let want = oracle.range(w);
        if g != want {
            return Err(format!("{at}: region {i} {w:?} = {g}, oracle says {want}"));
        }
    }
    Ok(())
}

/// Replays one connection's frames, in the order sent, on the oracle
/// and compares every reply. Frame `k` is `pool[k % pool.len()]`.
/// Rejected frames are skipped: a rejection means "not applied".
pub fn check_sequential(
    oracle: &mut Oracle,
    pool: &[Req],
    replies: &[Reply],
) -> Result<(), String> {
    for (k, reply) in replies.iter().enumerate() {
        let at = format!("frame {k}");
        match (&pool[k % pool.len()].body, reply) {
            (_, Reply::Failed(_)) => {}
            (Body::QueryMany(ws), Reply::Sums(s)) => expect_sums(oracle, ws, s, &at)?,
            (Body::Batch(cells), Reply::Ack(n)) if *n == cells.len() as u64 => {
                for (c, d) in cells {
                    oracle.add(c, *d);
                }
            }
            (_, other) => return Err(format!("{at}: unexpected reply {other:?}")),
        }
    }
    Ok(())
}

/// Checks the dashboard's reader and writer connections. Every writer
/// delta is positive, so the running cube total after each batch is
/// strictly increasing, and the total a reader frame reports for its
/// first region (the whole cube) names the batch prefix its snapshot
/// saw. Prefixes must never go backwards, and every region must equal
/// the oracle at that prefix.
pub fn check_dashboard(
    oracle: &mut Oracle,
    reader_pool: &[Req],
    reader_replies: &[Reply],
    writer_pool: &[Req],
    writer_replies: &[Reply],
) -> Result<(), String> {
    // Applied batches in order, with the cube total after each.
    let mut applied: Vec<&[(Vec<usize>, i64)]> = Vec::new();
    let mut totals = vec![0i64];
    for (k, reply) in writer_replies.iter().enumerate() {
        let Body::Batch(cells) = &writer_pool[k % writer_pool.len()].body else {
            return Err(format!("writer frame {k} is not a batch"));
        };
        match reply {
            Reply::Failed(_) => {}
            Reply::Ack(n) if *n == cells.len() as u64 => {
                let sum: i64 = cells.iter().map(|(_, d)| d).sum();
                if sum <= 0 {
                    return Err(format!("writer frame {k} does not raise the total"));
                }
                totals.push(totals[totals.len() - 1] + sum);
                applied.push(cells);
            }
            other => return Err(format!("writer frame {k}: unexpected reply {other:?}")),
        }
    }
    let mut seen = 0usize; // batches folded into the oracle
    for (k, reply) in reader_replies.iter().enumerate() {
        let at = format!("reader frame {k}");
        let Body::QueryMany(ws) = &reader_pool[k % reader_pool.len()].body else {
            return Err(format!("{at} is not a query_many"));
        };
        let sums = match reply {
            Reply::Failed(_) => continue,
            Reply::Sums(s) if !s.is_empty() => s,
            other => return Err(format!("{at}: unexpected reply {other:?}")),
        };
        let Ok(prefix) = totals.binary_search(&sums[0]) else {
            return Err(format!("{at}: total {} matches no batch prefix", sums[0]));
        };
        if prefix < seen {
            return Err(format!("{at}: saw batch prefix {prefix} after {seen}"));
        }
        for cells in &applied[seen..prefix] {
            for (c, d) in *cells {
                oracle.add(c, *d);
            }
        }
        seen = prefix;
        expect_sums(oracle, ws, sums, &at)?;
    }
    Ok(())
}

/// Compares a cube read back after a restart with the oracle, cell by
/// cell (row-major).
pub fn check_recovered(oracle: &Oracle, cells: &[i64]) -> Result<(), String> {
    if cells.len() != oracle.cells().len() {
        return Err(format!(
            "recovered {} cells, oracle has {}",
            cells.len(),
            oracle.cells().len()
        ));
    }
    match cells.iter().zip(oracle.cells()).position(|(a, b)| a != b) {
        None => Ok(()),
        Some(i) => Err(format!(
            "recovered cell {i} = {}, oracle says {}",
            cells[i],
            oracle.cells()[i]
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    /// Honest replies for a sequential pool, computed from an oracle.
    fn honest(w: &gen::Workload, frames: usize) -> Vec<Reply> {
        let mut o = Oracle::new(&w.tenant.1);
        let pool = &w.pools[0];
        (0..frames)
            .map(|k| match &pool[k % pool.len()].body {
                Body::QueryMany(ws) => Reply::Sums(ws.iter().map(|x| o.range(x)).collect()),
                Body::Batch(cells) => {
                    for (c, d) in cells {
                        o.add(c, *d);
                    }
                    Reply::Ack(cells.len() as u64)
                }
            })
            .collect()
    }

    fn first_read(replies: &[Reply], after: usize) -> usize {
        (after..replies.len())
            .find(|&k| matches!(replies[k], Reply::Sums(_)))
            .expect("pool has reads")
    }

    #[test]
    fn fenwick_matches_dense_sums() {
        let mut o = Oracle::new(&[5, 4, 3]);
        let mut dense = vec![0i64; 60];
        let mut x = 17u64;
        for step in 0..200i64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let c = [
                (x >> 33) as usize % 5,
                (x >> 40) as usize % 4,
                (x >> 50) as usize % 3,
            ];
            o.add(&c, step - 90);
            dense[c[0] * 12 + c[1] * 3 + c[2]] += step - 90;
        }
        let lo = vec![1, 0, 1];
        let hi = vec![3, 2, 2];
        let mut want = 0;
        for a in 1..=3 {
            for b in 0..=2 {
                for c in 1..=2 {
                    want += dense[a * 12 + b * 3 + c];
                }
            }
        }
        assert_eq!(o.range(&(lo, hi)), want);
        assert_eq!(o.cells(), &dense[..]);
    }

    #[test]
    fn sequential_checker_passes_honest_and_fails_one_altered_reply() {
        let w = gen::build("durable_ingest", 11).unwrap();
        let mut replies = honest(&w, 400);
        let fresh = || Oracle::new(&w.tenant.1);
        check_sequential(&mut fresh(), &w.pools[0], &replies).unwrap();
        let k = first_read(&replies, 200);
        if let Reply::Sums(s) = &mut replies[k] {
            let last = s.len() - 1;
            s[last] += 1;
        }
        assert!(check_sequential(&mut fresh(), &w.pools[0], &replies).is_err());
    }

    #[test]
    fn sequential_checker_fails_a_wrong_ack() {
        let w = gen::build("durable_ingest", 5).unwrap();
        let mut replies = honest(&w, 50);
        let k = replies
            .iter()
            .position(|r| matches!(r, Reply::Ack(_)))
            .unwrap();
        replies[k] = Reply::Ack(1);
        let mut o = Oracle::new(&w.tenant.1);
        assert!(check_sequential(&mut o, &w.pools[0], &replies).is_err());
    }

    /// Honest dashboard replies where reader frame `k` sees the first
    /// `k / 8` writer batches.
    fn honest_dashboard(w: &gen::Workload, frames: usize) -> (Vec<Reply>, Vec<Reply>) {
        let (rp, wp) = (&w.pools[0], &w.pools[1]);
        let mut o = Oracle::new(&w.tenant.1);
        let mut readers = Vec::new();
        let mut writers = Vec::new();
        for k in 0..frames {
            if k % 8 == 0 && k > 0 {
                let Body::Batch(cells) = &wp[writers.len() % wp.len()].body else {
                    unreachable!()
                };
                for (c, d) in cells {
                    o.add(c, *d);
                }
                writers.push(Reply::Ack(cells.len() as u64));
            }
            let Body::QueryMany(ws) = &rp[k % rp.len()].body else {
                unreachable!()
            };
            readers.push(Reply::Sums(ws.iter().map(|x| o.range(x)).collect()));
        }
        (readers, writers)
    }

    #[test]
    fn dashboard_checker_passes_honest_and_fails_altered_replies() {
        let w = gen::build("dashboard", 4).unwrap();
        let (rp, wp) = (&w.pools[0], &w.pools[1]);
        let fresh = || Oracle::new(&w.tenant.1);
        let (readers, writers) = honest_dashboard(&w, 60);
        check_dashboard(&mut fresh(), rp, &readers, wp, &writers).unwrap();

        // One tile off by one.
        let mut bad = readers.clone();
        if let Reply::Sums(s) = &mut bad[30] {
            s[5] += 1;
        }
        assert!(check_dashboard(&mut fresh(), rp, &bad, wp, &writers).is_err());

        // A total that matches no batch prefix.
        let mut bad = readers.clone();
        if let Reply::Sums(s) = &mut bad[30] {
            s[0] += 1;
        }
        assert!(check_dashboard(&mut fresh(), rp, &bad, wp, &writers).is_err());

        // A snapshot that goes backwards: frame 40 replays frame 8's view.
        let mut bad = readers.clone();
        let Body::QueryMany(ws) = &rp[40].body else {
            unreachable!()
        };
        let mut o = fresh();
        let Body::Batch(cells) = &wp[0].body else {
            unreachable!()
        };
        for (c, d) in cells {
            o.add(c, *d);
        }
        bad[40] = Reply::Sums(ws.iter().map(|x| o.range(x)).collect());
        assert!(check_dashboard(&mut fresh(), rp, &bad, wp, &writers).is_err());
    }

    #[test]
    fn recovered_checker_fails_one_altered_cell() {
        let mut o = Oracle::new(&[8, 8]);
        o.add(&[3, 4], 9);
        let mut cells = o.cells().to_vec();
        check_recovered(&o, &cells).unwrap();
        cells[63] -= 1;
        assert!(check_recovered(&o, &cells).is_err());
    }
}
