//! The one bounds-checked little-endian reader behind every decoder of
//! bytes that come from outside the process: `RPSWIRE1` frames and
//! payloads (in `rps-serve`), `RPSWAL02` records and `RPSSNAP1`
//! artifacts. A read past the end returns `None` and leaves the position
//! where it was; each decoder maps that to the typed error it reports.

/// A cursor over `&[u8]` that reads little-endian integers. Its reads
/// are `#[inline]`: the wire decoders call them from another crate, once
/// per field, and the release profile has no LTO.
#[derive(Debug, Clone)]
pub struct LeReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> LeReader<'a> {
    /// A reader at the start of `bytes`.
    #[inline]
    pub fn new(bytes: &'a [u8]) -> LeReader<'a> {
        LeReader { bytes, pos: 0 }
    }

    /// Bytes read so far.
    #[inline]
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Whether every byte has been read.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.pos == self.bytes.len()
    }

    /// The next `n` bytes.
    #[inline]
    pub fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let out = self.bytes.get(self.pos..end)?;
        self.pos = end;
        Some(out)
    }

    /// The next `u32`.
    #[inline]
    pub fn u32(&mut self) -> Option<u32> {
        self.take(4)?.try_into().ok().map(u32::from_le_bytes)
    }

    /// The next `u64`.
    #[inline]
    pub fn u64(&mut self) -> Option<u64> {
        self.take(8)?.try_into().ok().map(u64::from_le_bytes)
    }

    /// The next `i64`.
    #[inline]
    pub fn i64(&mut self) -> Option<i64> {
        self.take(8)?.try_into().ok().map(i64::from_le_bytes)
    }

    /// The next `n` `u32`s as `T`s, with one bounds check for the run;
    /// a value `T` cannot hold reads as `None` too.
    pub fn u32s<T: TryFrom<u32>>(&mut self, n: usize) -> Option<Vec<T>> {
        self.words(n, u32::from_le_bytes)
    }

    /// The next `n` `u64`s as `T`s, with one bounds check for the run;
    /// a value `T` cannot hold reads as `None` too.
    pub fn u64s<T: TryFrom<u64>>(&mut self, n: usize) -> Option<Vec<T>> {
        self.words(n, u64::from_le_bytes)
    }

    /// The next `n` `i64`s as `T`s, with one bounds check for the run;
    /// a value `T` cannot hold reads as `None` too.
    pub fn i64s<T: TryFrom<i64>>(&mut self, n: usize) -> Option<Vec<T>> {
        self.words(n, i64::from_le_bytes)
    }

    /// One bounds check for the whole run of `n` `W`-byte words, then a
    /// decode into a `Vec` sized up front: no word can be short, as the
    /// run's length is fixed. The position moves only when every word
    /// converts.
    fn words<const W: usize, V, T: TryFrom<V>>(
        &mut self,
        n: usize,
        decode: impl Fn([u8; W]) -> V,
    ) -> Option<Vec<T>> {
        let end = self.pos.checked_add(n.checked_mul(W)?)?;
        let run = self.bytes.get(self.pos..end)?;
        let mut out = Vec::with_capacity(n);
        for word in run.chunks_exact(W) {
            out.push(T::try_from(decode(word.try_into().ok()?)).ok()?);
        }
        self.pos = end;
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_read_at_or_past_the_end_is_none_and_keeps_the_position() {
        let mut r = LeReader::new(&[1, 0, 0, 0, 9, 9]);
        assert_eq!(r.u32(), Some(1));
        assert!(r.u32().is_none() && r.u64().is_none() && r.i64().is_none());
        assert!(r.take(3).is_none() && r.take(usize::MAX).is_none());
        assert!(r.u32s::<u32>(2).is_none() && r.u64s::<u64>(usize::MAX / 4).is_none());
        assert_eq!(r.pos(), 4);
        assert_eq!(r.take(2), Some(&[9, 9][..]));
        assert!(r.is_empty() && r.take(1).is_none() && r.i64s::<i64>(1).is_none());
        assert_eq!((r.take(0), r.pos()), (Some(&[][..]), 6));
    }

    #[test]
    fn a_bulk_read_consumes_exactly_n_words() {
        let mut bytes: Vec<u8> = [1, 2, 300]
            .iter()
            .flat_map(|v: &u32| v.to_le_bytes())
            .collect();
        bytes.extend((-5i64).to_le_bytes());
        let mut r = LeReader::new(&bytes);
        assert_eq!(r.u32s::<u8>(3), None, "300 is no u8");
        assert_eq!(r.u32s::<usize>(3), Some(vec![1, 2, 300]));
        assert_eq!((r.pos(), r.u64s::<u64>(0), r.pos()), (12, Some(vec![]), 12));
        assert_eq!(r.i64s::<i64>(1), Some(vec![-5]));
        assert!(r.is_empty());
    }
}
