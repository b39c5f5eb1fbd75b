//! # ndcube — dense d-dimensional array substrate
//!
//! This crate provides the array machinery that the OLAP data-cube methods
//! in this workspace (`rps-core`, `rps-storage`) are built on: a dense,
//! row-major, d-dimensional array [`NdCube`], the index arithmetic behind it
//! ([`Shape`]), inclusive hyper-rectangles ([`Region`]) and efficient
//! iteration over them ([`RegionIter`], [`Shape::linear_region_iter`]).
//!
//! The paper this workspace reproduces (Geffner et al., *Relative Prefix
//! Sums*, ICDE 1999) models a data cube as a d-dimensional array `A` of size
//! `n_1 × n_2 × … × n_d`; arrays `P` (prefix sums) and `RP` (relative prefix
//! sums) share that layout. Everything here is deliberately dependency-free.
//!
//! ## Conventions
//!
//! * Row-major ("C") layout: the **last** dimension varies fastest.
//! * Coordinates are `&[usize]`, one entry per dimension, zero-based.
//! * Regions are **inclusive** on both ends, matching the paper's
//!   `Sum(A[l..]:A[..h])` notation.
//!
//! ## Example
//!
//! ```
//! use ndcube::{NdCube, Region};
//!
//! let mut a = NdCube::<i64>::zeros(&[3, 4]);
//! a.set(&[1, 2], 7);
//! a.set(&[2, 3], 5);
//! let r = Region::new(&[1, 1], &[2, 3]).unwrap();
//! let total: i64 = r.iter().map(|c| a.get(&c)).sum();
//! assert_eq!(total, 12);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod cube;
mod error;
mod iter;
mod region;
mod shape;
mod view;

pub use cube::NdCube;
pub use error::NdError;
pub use iter::{for_each_coords_in_bounds, for_each_run_in_bounds, LinearRegionIter, RegionIter};
pub use region::Region;
pub use shape::Shape;
pub use view::CubeView;

/// Maximum number of dimensions supported by the iterators' inline paths.
///
/// Nothing hard-fails above this; it is the documented practical limit the
/// workspace is tested to (the paper's data cubes are OLAP cubes with a
/// handful of dimensions).
pub const MAX_TESTED_DIMS: usize = 8;
