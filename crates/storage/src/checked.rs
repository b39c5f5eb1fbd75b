//! A checksumming [`PageStore`] wrapper: detect bit-rot, never serve it.
//!
//! [`CheckedStore`] keeps one CRC-32 per page (over the page's
//! [`PodCell`] wire encoding, the same bytes a [`crate::FileDevice`]
//! persists). Every `write_page` refreshes the page's checksum; every
//! `read_page` verifies it and turns a mismatch into
//! [`StorageError::Corrupted`] with the page id attached — the typed
//! "this is garbage" signal that [`crate::DiskRpsEngine::verify_pages`]
//! collects and [`crate::DiskRpsEngine::scrub`] repairs from the base
//! cube. Corrupt pages are quarantined until a rewrite heals them.
//!
//! The checksum table lives in memory only: [`CheckedStore::new`]
//! baselines it from the store's contents at open.

use std::cell::{Cell, RefCell};
use std::collections::BTreeSet;

use crate::crc::crc32;
use crate::device::{DeviceStats, PageId};
use crate::error::StorageError;
use crate::file_device::{PageStore, PodCell};

/// CRC-32 over the page's little-endian wire encoding.
fn page_checksum<T: PodCell>(cells: &[T]) -> u32 {
    let mut bytes = vec![0u8; cells.len() * T::BYTES];
    for (cell, chunk) in cells.iter().zip(bytes.chunks_exact_mut(T::BYTES)) {
        cell.write_le(chunk);
    }
    crc32(&bytes)
}

/// A [`PageStore`] wrapper that checksums every page.
#[derive(Debug)]
pub struct CheckedStore<T, S> {
    inner: S,
    sums: Vec<u32>,
    verify: Cell<bool>,
    quarantined: RefCell<BTreeSet<u32>>,
    _marker: std::marker::PhantomData<T>,
}

impl<T: PodCell, S: PageStore<T>> CheckedStore<T, S> {
    /// Wraps `inner`, trusting its current contents: every existing page
    /// is read once and its present bytes become the baseline checksum.
    pub fn new(inner: S) -> Result<Self, StorageError> {
        let mut sums = Vec::with_capacity(inner.num_pages());
        let mut buf = Vec::new();
        for p in 0..inner.num_pages() {
            inner.read_page(PageId(p as u32), &mut buf)?;
            sums.push(page_checksum(&buf));
        }
        Ok(CheckedStore {
            inner,
            sums,
            verify: Cell::new(true),
            quarantined: RefCell::new(BTreeSet::new()),
            _marker: std::marker::PhantomData,
        })
    }

    /// Enables or disables verification on read. Exists so the torture
    /// harness can demonstrate that *with it off, corruption flows
    /// through silently* — production code has no reason to disable it.
    pub fn set_verify(&self, on: bool) {
        self.verify.set(on);
    }

    /// Whether reads are being verified.
    pub fn verify(&self) -> bool {
        self.verify.get()
    }

    /// Pages currently quarantined (failed verification and not yet
    /// rewritten).
    pub fn quarantined(&self) -> Vec<PageId> {
        self.quarantined
            .borrow()
            .iter()
            .map(|&p| PageId(p))
            .collect()
    }

    /// The current checksum table (one CRC-32 per page).
    pub fn sums(&self) -> &[u32] {
        &self.sums
    }

    /// The wrapped store.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// Mutable access to the wrapped store. Writes through this bypass
    /// checksum maintenance — that is the point: tests use it to plant
    /// corruption the wrapper must then detect.
    pub fn inner_mut(&mut self) -> &mut S {
        &mut self.inner
    }
}

impl<T: PodCell, S: PageStore<T>> PageStore<T> for CheckedStore<T, S> {
    fn cells_per_page(&self) -> usize {
        self.inner.cells_per_page()
    }

    fn num_pages(&self) -> usize {
        self.inner.num_pages()
    }

    fn alloc_pages(&mut self, n: usize) -> Result<PageId, StorageError> {
        let first = self.inner.alloc_pages(n)?;
        let zero_sum = page_checksum(&vec![T::default(); self.inner.cells_per_page()]);
        self.sums.resize(self.inner.num_pages(), zero_sum);
        Ok(first)
    }

    fn read_page(&self, id: PageId, buf: &mut Vec<T>) -> Result<(), StorageError> {
        self.inner.read_page(id, buf)?;
        if self.verify.get() {
            let expected = self.sums.get(id.0 as usize).copied();
            if expected != Some(page_checksum(buf)) {
                self.quarantined.borrow_mut().insert(id.0);
                crate::obs::storage().checksum_quarantines.inc();
                return Err(StorageError::Corrupted {
                    detail: "page checksum mismatch".into(),
                    page: Some(id),
                });
            }
        }
        Ok(())
    }

    fn write_page(&mut self, id: PageId, data: &[T]) -> Result<(), StorageError> {
        self.inner.write_page(id, data)?;
        if let Some(slot) = self.sums.get_mut(id.0 as usize) {
            *slot = page_checksum(data);
        }
        // A full rewrite heals the page.
        self.quarantined.borrow_mut().remove(&id.0);
        Ok(())
    }

    fn sync(&mut self) -> Result<(), StorageError> {
        self.inner.sync()
    }

    fn stats(&self) -> DeviceStats {
        self.inner.stats()
    }

    fn reset_stats(&self) {
        self.inner.reset_stats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::{BlockDevice, DeviceConfig};

    fn store(pages: usize) -> CheckedStore<i64, BlockDevice<i64>> {
        let mut dev = BlockDevice::new(DeviceConfig { cells_per_page: 4 });
        for _ in 0..pages {
            dev.alloc_page();
        }
        CheckedStore::new(dev).unwrap()
    }

    #[test]
    fn clean_round_trip_verifies() {
        let mut s = store(2);
        s.write_page(PageId(1), &[1, 2, 3, 4]).unwrap();
        let mut buf = Vec::new();
        s.read_page(PageId(1), &mut buf).unwrap();
        assert_eq!(buf, vec![1, 2, 3, 4]);
        assert!(s.quarantined().is_empty());
    }

    #[test]
    fn planted_corruption_is_detected_and_quarantined() {
        let mut s = store(1);
        s.write_page(PageId(0), &[5, 6, 7, 8]).unwrap();
        // Corrupt beneath the wrapper.
        s.inner_mut().write_page(PageId(0), &[5, 6, 666, 8]);
        let mut buf = Vec::new();
        match s.read_page(PageId(0), &mut buf) {
            Err(StorageError::Corrupted { page, .. }) => assert_eq!(page, Some(PageId(0))),
            other => panic!("expected Corrupted, got {other:?}"),
        }
        assert_eq!(s.quarantined(), vec![PageId(0)]);
        // Rewriting heals.
        s.write_page(PageId(0), &[5, 6, 7, 8]).unwrap();
        assert!(s.quarantined().is_empty());
        s.read_page(PageId(0), &mut buf).unwrap();
    }

    #[test]
    fn disabling_verification_lets_corruption_through() {
        // The negative control the torture harness relies on: without
        // verification, the same corrupt bytes come back as a success.
        let mut s = store(1);
        s.write_page(PageId(0), &[1, 1, 1, 1]).unwrap();
        s.inner_mut().write_page(PageId(0), &[1, 99, 1, 1]);
        s.set_verify(false);
        let mut buf = Vec::new();
        s.read_page(PageId(0), &mut buf).unwrap();
        assert_eq!(buf, vec![1, 99, 1, 1], "garbage served without checks");
        s.set_verify(true);
        assert!(s.read_page(PageId(0), &mut buf).is_err());
    }

    #[test]
    fn alloc_extends_sums_with_zero_pages() {
        let mut s = store(0);
        s.alloc_pages(3).unwrap();
        let mut buf = Vec::new();
        for p in 0..3 {
            s.read_page(PageId(p), &mut buf).unwrap();
            assert_eq!(buf, vec![0, 0, 0, 0]);
        }
    }
}
