//! # rps-core — range-sum engines for dynamic OLAP data cubes
//!
//! A faithful, production-quality reproduction of
//! **"Relative Prefix Sums: An Efficient Approach for Querying Dynamic
//! OLAP Data Cubes"** (Geffner, Agrawal, El Abbadi, Smith — ICDE 1999),
//! together with the baselines the paper defines and one classic
//! extension:
//!
//! | Engine | Query | Update | Query·Update |
//! |--------|-------|--------|--------------|
//! | [`NaiveEngine`] (§2) | O(n^d) | O(1) | O(n^d) |
//! | [`PrefixSumEngine`] (Ho et al., §2) | O(1) | O(n^d) | O(n^d) |
//! | [`RpsEngine`] (**the paper**, §3–4) | O(1) | O(n^{d/2})¹ | **O(n^{d/2})¹** |
//! | [`FenwickEngine`] (extension) | O(log^d n) | O(log^d n) | O(log^{2d} n) |
//! | [`BlockedFenwickEngine`] (extension) | O(log^{d−1} n·(8 + log n/8)) | O(log^{d−1} n·log n/8) | as Fenwick, fewer cache misses |
//!
//! ¹ exact at d = 2 (the paper's demonstrated case); Θ(n^{d−1}) for
//! d ≥ 3 with the paper's stored-value definitions — still strictly
//! below the baselines' Θ(n^d); see DESIGN.md and `exp_dimensionality`.
//!
//! All engines implement [`RangeSumEngine`] over any commutative group
//! ([`GroupValue`]): SUM on integers/floats, COUNT, and AVERAGE via
//! [`value::SumCount`], exactly the operator family §2 of the paper
//! admits. Every engine counts the cells it reads and writes
//! ([`CostStats`]) so the paper's cell-count arithmetic (e.g. the 16 vs 64
//! cells of Figures 15 vs 4) is reproduced exactly.
//!
//! ## Quick start
//!
//! ```
//! use rps_core::{RangeSumEngine, RpsEngine};
//! use ndcube::{NdCube, Region};
//!
//! // SALES by CUSTOMER_AGE (0..100) × DAY (0..365)
//! let sales = NdCube::from_fn(&[100, 365], |c| (c[0] + c[1]) as i64).unwrap();
//! let mut engine = RpsEngine::from_cube(&sales); // k = ⌈√n⌉ per dimension
//!
//! // Total sales, ages 37..=52, days 300..=364 — answered in O(1).
//! let q = Region::new(&[37, 300], &[52, 364]).unwrap();
//! let total = engine.query(&q).unwrap();
//!
//! // A new sale arrives: constant-bounded update, no full rebuild.
//! engine.update(&[41, 320], 250).unwrap();
//! assert_eq!(engine.query(&q).unwrap(), total + 250);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod aggregate;
pub mod blocked_fenwick;
pub mod buffered;
pub mod chunked;
pub mod concurrent;
pub mod corners;
pub mod engine;
pub mod fenwick;
pub mod naive;
pub mod obs;
pub mod prefix;
pub mod rps;
pub mod stats;
pub mod sync_compat;
pub mod testdata;
pub mod value;
pub mod versioned;

pub use blocked_fenwick::BlockedFenwickEngine;
pub use buffered::{BufferedEngine, SparseDelta};
pub use chunked::ChunkedEngine;
pub use concurrent::SharedEngine;
pub use engine::RangeSumEngine;
pub use fenwick::FenwickEngine;
pub use naive::NaiveEngine;
pub use prefix::PrefixSumEngine;
pub use rps::{BoxGrid, Overlay, RpsEngine};
pub use stats::{CostStats, StatsCell};
pub use value::{GroupValue, SumCount};
pub use versioned::{Version, VersionedEngine};
