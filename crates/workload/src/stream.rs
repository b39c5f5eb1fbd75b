//! Update and query streams: the operation mixes the benches replay
//! against every engine.

use ndcube::Region;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::zipf::Zipf;

/// One operation of a mixed workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Add `1` fact worth `delta` at the cell.
    Update {
        /// Target cell.
        coords: Vec<usize>,
        /// Measure delta.
        delta: i64,
    },
    /// Range-sum over the region.
    Query(Region),
}

/// Shape of generated query regions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RegionSpec {
    /// A single cell.
    Point,
    /// Hyper-rectangles whose extent per dimension is uniform in
    /// `1..=⌈fraction·nᵢ⌉`.
    Fraction(f64),
    /// The full cube.
    Full,
}

/// Shape of generated update rectangles — the update-rectangle size
/// knob for bulk (`range_update`) streams.
///
/// The text form round-trips through [`std::fmt::Display`] /
/// [`std::str::FromStr`]: `point`, `frac:0.25`, `full-row`, `full`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum UpdateSpec {
    /// A single cell (degenerate rectangle).
    Point,
    /// Hyper-rectangles whose extent per dimension is uniform in
    /// `1..=⌈fraction·nᵢ⌉`, like [`RegionSpec::Fraction`].
    Fraction(f64),
    /// Spans the entire innermost dimension; a single coordinate on
    /// every other axis ("update one whole row").
    FullRow,
    /// The full cube.
    Full,
}

impl std::fmt::Display for UpdateSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UpdateSpec::Point => write!(f, "point"),
            UpdateSpec::Fraction(frac) => write!(f, "frac:{frac}"),
            UpdateSpec::FullRow => write!(f, "full-row"),
            UpdateSpec::Full => write!(f, "full"),
        }
    }
}

impl std::str::FromStr for UpdateSpec {
    type Err = String;

    fn from_str(s: &str) -> Result<UpdateSpec, String> {
        match s.trim() {
            "point" => Ok(UpdateSpec::Point),
            "full-row" => Ok(UpdateSpec::FullRow),
            "full" => Ok(UpdateSpec::Full),
            other => {
                let frac = other.strip_prefix("frac:").ok_or_else(|| {
                    format!("unknown update spec `{other}` (want point | frac:F | full-row | full)")
                })?;
                let f: f64 = frac
                    .parse()
                    .map_err(|e| format!("bad fraction `{frac}`: {e}"))?;
                if !(f > 0.0 && f <= 1.0) {
                    return Err(format!("fraction {f} outside (0, 1]"));
                }
                Ok(UpdateSpec::Fraction(f))
            }
        }
    }
}

/// Deterministic generator of point updates.
#[derive(Debug)]
pub struct UpdateGen {
    dims: Vec<usize>,
    rng: StdRng,
    /// Optional per-dimension Zipf skew (None = uniform coordinates).
    skew: Option<Vec<Zipf>>,
    max_delta: i64,
    /// Rectangle shape used by [`UpdateGen::next_range_update`].
    spec: UpdateSpec,
}

impl UpdateGen {
    /// Uniform-coordinate updates with deltas in `1..=max_delta`.
    pub fn uniform(dims: &[usize], seed: u64, max_delta: i64) -> UpdateGen {
        assert!(max_delta >= 1);
        assert!(
            !dims.is_empty() && !dims.contains(&0),
            "dims must be non-zero"
        );
        UpdateGen {
            dims: dims.to_vec(),
            rng: StdRng::seed_from_u64(seed),
            skew: None,
            max_delta,
            spec: UpdateSpec::Point,
        }
    }

    /// Zipf(θ)-skewed coordinates per dimension — hot-cell update streams.
    pub fn zipf(dims: &[usize], seed: u64, theta: f64, max_delta: i64) -> UpdateGen {
        assert!(
            !dims.is_empty() && !dims.contains(&0),
            "dims must be non-zero"
        );
        let skew = dims.iter().map(|&n| Zipf::new(n, theta)).collect();
        UpdateGen {
            dims: dims.to_vec(),
            rng: StdRng::seed_from_u64(seed),
            skew: Some(skew),
            max_delta,
            spec: UpdateSpec::Point,
        }
    }

    /// Sets the rectangle shape drawn by [`UpdateGen::next_range_update`].
    #[must_use]
    pub fn with_region_spec(mut self, spec: UpdateSpec) -> UpdateGen {
        self.spec = spec;
        self
    }

    fn draw_coords(&mut self) -> Vec<usize> {
        match &self.skew {
            None => self
                .dims
                .iter()
                .map(|&n| self.rng.gen_range(0..n))
                .collect(),
            Some(zipfs) => zipfs.iter().map(|z| z.sample(&mut self.rng)).collect(),
        }
    }

    /// Draws the next update.
    pub fn next_update(&mut self) -> (Vec<usize>, i64) {
        let coords = self.draw_coords();
        let delta = self.rng.gen_range(1..=self.max_delta);
        (coords, delta)
    }

    /// Draws the next bulk update: a rectangle shaped by the configured
    /// [`UpdateSpec`] plus the per-cell delta to add inside it.
    pub fn next_range_update(&mut self) -> (Region, i64) {
        let region = match self.spec {
            UpdateSpec::Point => {
                let c = self.draw_coords();
                // lint:allow(L2): each coordinate is drawn from 0..n of its own axis
                Region::point(&c).expect("point in bounds")
            }
            UpdateSpec::Full => {
                let hi: Vec<usize> = self.dims.iter().map(|&n| n - 1).collect();
                // lint:allow(L2): 0 ≤ n−1 because generator dims are validated non-zero
                Region::new(&vec![0; self.dims.len()], &hi).expect("full region")
            }
            UpdateSpec::FullRow => {
                let mut lo = self.draw_coords();
                let mut hi = lo.clone();
                let last = self.dims.len() - 1;
                lo[last] = 0;
                hi[last] = self.dims[last] - 1;
                // lint:allow(L2): per-axis coords drawn in bounds; last axis spans 0..n−1
                Region::new(&lo, &hi).expect("in bounds")
            }
            UpdateSpec::Fraction(f) => {
                let mut lo = Vec::with_capacity(self.dims.len());
                let mut hi = Vec::with_capacity(self.dims.len());
                for &n in &self.dims {
                    let max_extent = ((n as f64 * f).ceil() as usize).clamp(1, n);
                    let extent = self.rng.gen_range(1..=max_extent);
                    let start = self.rng.gen_range(0..=n - extent);
                    lo.push(start);
                    hi.push(start + extent - 1);
                }
                // lint:allow(L2): start + extent − 1 ≤ n − 1 by the ranges drawn above
                Region::new(&lo, &hi).expect("in bounds")
            }
        };
        let delta = self.rng.gen_range(1..=self.max_delta);
        (region, delta)
    }

    /// Materializes a batch of `count` updates.
    pub fn take(&mut self, count: usize) -> Vec<(Vec<usize>, i64)> {
        (0..count).map(|_| self.next_update()).collect()
    }
}

/// Deterministic generator of query regions.
#[derive(Debug)]
pub struct QueryGen {
    dims: Vec<usize>,
    rng: StdRng,
    spec: RegionSpec,
}

impl QueryGen {
    /// A query generator for the given cube dimensions.
    pub fn new(dims: &[usize], seed: u64, spec: RegionSpec) -> QueryGen {
        QueryGen {
            dims: dims.to_vec(),
            rng: StdRng::seed_from_u64(seed),
            spec,
        }
    }

    /// Draws the next query region.
    pub fn next_region(&mut self) -> Region {
        match self.spec {
            RegionSpec::Point => {
                let c: Vec<usize> = self
                    .dims
                    .iter()
                    .map(|&n| self.rng.gen_range(0..n))
                    .collect();
                // lint:allow(L2): each coordinate is drawn from 0..n of its own axis
                Region::point(&c).expect("point in bounds")
            }
            RegionSpec::Full => {
                let hi: Vec<usize> = self.dims.iter().map(|&n| n - 1).collect();
                // lint:allow(L2): 0 ≤ n−1 because generator dims are validated non-zero
                Region::new(&vec![0; self.dims.len()], &hi).expect("full region")
            }
            RegionSpec::Fraction(f) => {
                let mut lo = Vec::with_capacity(self.dims.len());
                let mut hi = Vec::with_capacity(self.dims.len());
                for &n in &self.dims {
                    let max_extent = ((n as f64 * f).ceil() as usize).clamp(1, n);
                    let extent = self.rng.gen_range(1..=max_extent);
                    let start = self.rng.gen_range(0..=n - extent);
                    lo.push(start);
                    hi.push(start + extent - 1);
                }
                // lint:allow(L2): start + extent − 1 ≤ n − 1 by the ranges drawn above
                Region::new(&lo, &hi).expect("in bounds")
            }
        }
    }

    /// Materializes a batch of `count` regions.
    pub fn take(&mut self, count: usize) -> Vec<Region> {
        (0..count).map(|_| self.next_region()).collect()
    }
}

/// Interleaved queries and updates with a fixed query ratio — the
/// "analysts keep querying while sales keep arriving" workload the paper
/// motivates.
#[derive(Debug)]
pub struct MixedWorkload {
    updates: UpdateGen,
    queries: QueryGen,
    query_ratio: f64,
    rng: StdRng,
}

impl MixedWorkload {
    /// A workload where each operation is a query with probability
    /// `query_ratio`, else an update.
    pub fn new(updates: UpdateGen, queries: QueryGen, query_ratio: f64, seed: u64) -> Self {
        assert!((0.0..=1.0).contains(&query_ratio));
        MixedWorkload {
            updates,
            queries,
            query_ratio,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Draws the next operation.
    pub fn next_op(&mut self) -> Op {
        if self.rng.gen::<f64>() < self.query_ratio {
            Op::Query(self.queries.next_region())
        } else {
            let (coords, delta) = self.updates.next_update();
            Op::Update { coords, delta }
        }
    }

    /// Materializes a batch of `count` operations.
    pub fn take(&mut self, count: usize) -> Vec<Op> {
        (0..count).map(|_| self.next_op()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn updates_in_bounds_and_deterministic() {
        let mut a = UpdateGen::uniform(&[9, 9], 5, 10);
        let mut b = UpdateGen::uniform(&[9, 9], 5, 10);
        for _ in 0..50 {
            let (c, d) = a.next_update();
            assert_eq!((c.clone(), d), b.next_update());
            assert!(c.iter().all(|&x| x < 9));
            assert!((1..=10).contains(&d));
        }
    }

    #[test]
    fn zipf_updates_prefer_low_coords() {
        let mut g = UpdateGen::zipf(&[100, 100], 3, 1.2, 5);
        let batch = g.take(2000);
        let low = batch.iter().filter(|(c, _)| c[0] < 10).count();
        assert!(low > 500, "low-coordinate hits: {low}");
    }

    #[test]
    fn fraction_queries_bounded() {
        let mut g = QueryGen::new(&[20, 30], 7, RegionSpec::Fraction(0.25));
        for r in g.take(100) {
            assert!(r.extent(0) <= 5);
            assert!(r.extent(1) <= 8);
            assert!(r.hi()[0] < 20 && r.hi()[1] < 30);
        }
    }

    #[test]
    fn point_and_full_specs() {
        let mut p = QueryGen::new(&[4, 4], 1, RegionSpec::Point);
        assert_eq!(p.next_region().cell_count(), 1);
        let mut f = QueryGen::new(&[4, 4], 1, RegionSpec::Full);
        assert_eq!(f.next_region().cell_count(), 16);
    }

    #[test]
    fn mixed_ratio_roughly_respected() {
        let u = UpdateGen::uniform(&[8, 8], 1, 3);
        let q = QueryGen::new(&[8, 8], 2, RegionSpec::Fraction(0.5));
        let mut w = MixedWorkload::new(u, q, 0.7, 3);
        let ops = w.take(1000);
        let queries = ops.iter().filter(|o| matches!(o, Op::Query(_))).count();
        assert!((550..850).contains(&queries), "queries = {queries}");
    }

    #[test]
    fn update_spec_round_trips_through_text() {
        let specs = [
            UpdateSpec::Point,
            UpdateSpec::Fraction(0.25),
            UpdateSpec::Fraction(0.01),
            UpdateSpec::FullRow,
            UpdateSpec::Full,
        ];
        for spec in specs {
            let text = spec.to_string();
            let back: UpdateSpec = text.parse().unwrap();
            assert_eq!(back, spec, "`{text}` did not round-trip");
        }
        assert_eq!("point".parse::<UpdateSpec>().unwrap(), UpdateSpec::Point);
        assert_eq!(
            " frac:0.5 ".parse::<UpdateSpec>().unwrap(),
            UpdateSpec::Fraction(0.5)
        );
    }

    #[test]
    fn update_spec_rejects_malformed() {
        assert!("row".parse::<UpdateSpec>().is_err());
        assert!("frac:".parse::<UpdateSpec>().is_err());
        assert!("frac:0".parse::<UpdateSpec>().is_err());
        assert!("frac:1.5".parse::<UpdateSpec>().is_err());
        assert!("frac:-0.1".parse::<UpdateSpec>().is_err());
        assert!("frac:abc".parse::<UpdateSpec>().is_err());
        assert!("".parse::<UpdateSpec>().is_err());
    }

    #[test]
    fn range_updates_match_their_spec() {
        let dims = [20usize, 30];
        let mut point = UpdateGen::uniform(&dims, 1, 5).with_region_spec(UpdateSpec::Point);
        let (r, d) = point.next_range_update();
        assert_eq!(r.cell_count(), 1);
        assert!((1..=5).contains(&d));

        let mut full = UpdateGen::uniform(&dims, 1, 5).with_region_spec(UpdateSpec::Full);
        assert_eq!(full.next_range_update().0.cell_count(), 600);

        let mut row = UpdateGen::uniform(&dims, 1, 5).with_region_spec(UpdateSpec::FullRow);
        for _ in 0..20 {
            let (r, _) = row.next_range_update();
            assert_eq!(r.extent(0), 1);
            assert_eq!(r.extent(1), 30);
        }

        let mut frac = UpdateGen::uniform(&dims, 1, 5).with_region_spec(UpdateSpec::Fraction(0.25));
        for _ in 0..50 {
            let (r, _) = frac.next_range_update();
            assert!(r.extent(0) <= 5);
            assert!(r.extent(1) <= 8);
            assert!(r.hi()[0] < 20 && r.hi()[1] < 30);
        }
    }

    #[test]
    fn range_updates_are_deterministic() {
        let mk =
            || UpdateGen::zipf(&[16, 16], 9, 1.1, 7).with_region_spec(UpdateSpec::Fraction(0.5));
        let a: Vec<_> = {
            let mut g = mk();
            (0..32).map(|_| g.next_range_update()).collect()
        };
        let b: Vec<_> = {
            let mut g = mk();
            (0..32).map(|_| g.next_range_update()).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn mixed_is_deterministic() {
        let mk = || {
            MixedWorkload::new(
                UpdateGen::uniform(&[8, 8], 1, 3),
                QueryGen::new(&[8, 8], 2, RegionSpec::Fraction(0.5)),
                0.5,
                3,
            )
        };
        assert_eq!(mk().take(64), mk().take(64));
    }
}
