//! The byte codec behind every binary container in the workspace: the
//! `.fae` batch stream ([`crate::format`]), training checkpoints
//! (`fae_core::checkpoint`) and multi-node frames (`fae_net::wire`).
//!
//! Fields are little-endian. A [`Writer`] appends them and a [`Reader`]
//! reads them back, bounds-checking every read. The reader reads a
//! length only through [`Reader::count`], which refuses a count whose
//! elements, at their smallest encoded size, would not fit in the bytes
//! left; a list of records ([`Reader::list`]) grows as its records
//! decode. So no decode allocates more than a constant factor of the
//! bytes that back it. A run of scalars is read with one bounds check,
//! not one per element.
//!
//! A container opens with a 4-byte magic and a version
//! ([`Writer::header`] / [`Reader::header`]); checkpoints and frames end
//! with a CRC-32 trailer ([`Writer::seal`] / [`unseal`]). The
//! [`MiniBatch`] record ([`Writer::batch`] / [`Reader::batch`]) is the
//! same in the `.fae` stream and in the wire's `Task` frame. Bytes from
//! disk or the network are untrusted: decoding returns a [`CodecError`]
//! and never panics.

use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

use crate::dataset::TableIndices;
use crate::minibatch::{BatchKind, MiniBatch};

/// The batch-kind tag table: a kind's tag is its index here. The order
/// is the declaration order of [`BatchKind`], so `kind as u8` is the tag.
const BATCH_KINDS: [BatchKind; 3] = [BatchKind::Hot, BatchKind::Cold, BatchKind::Unclassified];

/// Why a container failed to decode (or to be read from disk).
#[derive(Debug)]
pub enum CodecError {
    /// The magic bytes were wrong: not this kind of container.
    BadMagic,
    /// Unsupported container version.
    BadVersion(u32),
    /// The CRC-32 trailer did not match the bytes it covers.
    BadChecksum,
    /// The input ended before the content it declares.
    Truncated {
        /// Bytes the next read (or a declared count) needs.
        want: usize,
        /// Bytes left in the input.
        left: usize,
    },
    /// A structural invariant failed.
    Corrupt(&'static str),
    /// Underlying I/O failure.
    Io(io::Error),
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::BadMagic => write!(f, "bad magic"),
            CodecError::BadVersion(v) => write!(f, "unsupported version {v}"),
            CodecError::BadChecksum => write!(f, "crc-32 mismatch"),
            CodecError::Truncated { want, left } => {
                write!(f, "truncated: wanted {want} bytes, {left} left")
            }
            CodecError::Corrupt(what) => write!(f, "corrupt: {what}"),
            CodecError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for CodecError {}

impl From<io::Error> for CodecError {
    fn from(e: io::Error) -> Self {
        CodecError::Io(e)
    }
}

/// CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320).
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = !0u32;
    for &byte in data {
        crc ^= byte as u32;
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// Checks and strips the CRC-32 trailer [`Writer::seal`] appends,
/// returning the bytes it covers.
pub fn unseal(data: &[u8]) -> Result<&[u8], CodecError> {
    let Some(end) = data.len().checked_sub(4) else {
        return Err(CodecError::Truncated { want: 4, left: data.len() });
    };
    let (payload, trailer) = data.split_at(end);
    if crc32(payload).to_le_bytes() != trailer {
        return Err(CodecError::BadChecksum);
    }
    Ok(payload)
}

/// Writes `bytes` to `path` atomically: a sibling temp file (same
/// directory, so the rename cannot cross filesystems) is written in
/// full, then renamed over the target. A crash mid-write leaves the old
/// file intact; readers never see a torn file.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    fs::write(&tmp, bytes)?;
    fs::rename(&tmp, path)
}

/// Appends little-endian fields to a byte buffer.
#[derive(Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer with room for `bytes` bytes.
    pub fn with_capacity(bytes: usize) -> Self {
        Self { buf: Vec::with_capacity(bytes) }
    }

    /// Magic and `u32` version.
    pub fn header(&mut self, magic: &[u8; 4], version: u32) {
        self.bytes(magic);
        self.u32(version);
    }

    /// Raw bytes, no length prefix.
    pub fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// One byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// A `u16`.
    pub fn u16(&mut self, v: u16) {
        self.bytes(&v.to_le_bytes());
    }

    /// A `u32`.
    pub fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }

    /// A `u64`.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// An `f32`, bit-exact.
    pub fn f32(&mut self, v: f32) {
        self.bytes(&v.to_le_bytes());
    }

    /// An `f64`, bit-exact.
    pub fn f64(&mut self, v: f64) {
        self.bytes(&v.to_le_bytes());
    }

    /// An element count, as the `u32` [`Reader::count`] reads.
    pub fn count(&mut self, n: usize) {
        self.u32(n as u32);
    }

    /// A counted UTF-8 string.
    pub fn str(&mut self, s: &str) {
        self.count(s.len());
        self.bytes(s.as_bytes());
    }

    fn words<T: Copy>(&mut self, v: &[T], le_bytes: impl Fn(T) -> [u8; 4]) {
        let start = self.buf.len();
        self.buf.resize(start + 4 * v.len(), 0);
        for (out, &x) in self.buf[start..].chunks_exact_mut(4).zip(v) {
            out.copy_from_slice(&le_bytes(x));
        }
    }

    /// `u32`s, no count.
    pub fn u32s(&mut self, v: &[u32]) {
        self.words(v, u32::to_le_bytes);
    }

    /// `f32`s, no count.
    pub fn f32s(&mut self, v: &[f32]) {
        self.words(v, f32::to_le_bytes);
    }

    /// A counted run of `f32`s, as [`Reader::f32_vec`] reads.
    pub fn f32_vec(&mut self, v: &[f32]) {
        self.count(v.len());
        self.f32s(v);
    }

    /// One mini-batch record. Its dense width and table count are not
    /// part of the record; the container carries them.
    ///
    /// ```text
    /// kind u8 (0 hot, 1 cold, 2 unclassified) | batch_len u32
    /// dense:  batch_len * dense_width f32
    /// labels: batch_len f32
    /// per table: nnz u32 | indices u32[nnz] | offsets u32[batch_len + 1]
    /// ```
    pub fn batch(&mut self, b: &MiniBatch) {
        self.u8(b.kind as u8);
        self.count(b.len());
        self.f32s(&b.dense);
        self.f32s(&b.labels);
        for csr in &b.sparse {
            self.count(csr.indices.len());
            self.u32s(&csr.indices);
            self.words(&csr.offsets, |o| (o as u32).to_le_bytes());
        }
    }

    /// The bytes written.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// The bytes written, followed by their CRC-32 (see [`unseal`]).
    pub fn seal(mut self) -> Vec<u8> {
        let crc = crc32(&self.buf);
        self.u32(crc);
        self.buf
    }
}

/// Reads little-endian fields off a byte slice; every read is checked.
pub struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    /// A reader positioned at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf }
    }

    /// Bytes not yet read.
    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if n > self.buf.len() {
            return Err(CodecError::Truncated { want: n, left: self.buf.len() });
        }
        let (head, tail) = self.buf.split_at(n);
        self.buf = tail;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    /// Checks the 4-byte magic.
    pub fn magic(&mut self, magic: &[u8; 4]) -> Result<(), CodecError> {
        if self.take(4)? != magic {
            return Err(CodecError::BadMagic);
        }
        Ok(())
    }

    /// Checks the magic and `u32` version [`Writer::header`] wrote.
    pub fn header(&mut self, magic: &[u8; 4], version: u32) -> Result<(), CodecError> {
        self.magic(magic)?;
        match self.u32()? {
            v if v == version => Ok(()),
            v => Err(CodecError::BadVersion(v)),
        }
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.array::<1>()?[0])
    }

    /// A `u16`.
    pub fn u16(&mut self) -> Result<u16, CodecError> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    /// A `u32`.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// A `u64`.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// An `f32`.
    pub fn f32(&mut self) -> Result<f32, CodecError> {
        Ok(f32::from_le_bytes(self.array()?))
    }

    /// An `f64`.
    pub fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_le_bytes(self.array()?))
    }

    /// A 0/1 byte; anything else is corruption named by `what`.
    pub fn flag(&mut self, what: &'static str) -> Result<bool, CodecError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CodecError::Corrupt(what)),
        }
    }

    /// Reads a `u32` element count and checks that that many elements,
    /// each at least `min_elem_bytes` long, fit in the bytes left.
    pub fn count(&mut self, min_elem_bytes: usize) -> Result<usize, CodecError> {
        let n = self.u32()? as usize;
        self.backed(n, min_elem_bytes)
    }

    fn backed(&self, n: usize, min_elem_bytes: usize) -> Result<usize, CodecError> {
        let want = n.saturating_mul(min_elem_bytes);
        if want > self.remaining() {
            return Err(CodecError::Truncated { want, left: self.remaining() });
        }
        Ok(n)
    }

    /// A counted list of records, each decoded by `record`. The vector
    /// grows as records decode rather than being sized up front, and
    /// every record is at least one byte, so a corrupt count cannot
    /// outrun the input.
    pub fn list<T>(
        &mut self,
        mut record: impl FnMut(&mut Self) -> Result<T, CodecError>,
    ) -> Result<Vec<T>, CodecError> {
        let n = self.count(1)?;
        (0..n).map(|_| record(self)).collect()
    }

    /// A counted UTF-8 string.
    pub fn str(&mut self) -> Result<String, CodecError> {
        let n = self.count(1)?;
        String::from_utf8(self.take(n)?.to_vec())
            .map_err(|_| CodecError::Corrupt("string is not utf-8"))
    }

    fn words(&mut self, n: usize) -> Result<impl Iterator<Item = [u8; 4]> + 'a, CodecError> {
        let bytes = self.take(n.saturating_mul(4))?;
        Ok(bytes.chunks_exact(4).map(|c| [c[0], c[1], c[2], c[3]]))
    }

    /// `n` `u32`s, no count.
    pub fn u32s(&mut self, n: usize) -> Result<Vec<u32>, CodecError> {
        Ok(self.words(n)?.map(u32::from_le_bytes).collect())
    }

    /// `n` `f32`s, no count.
    pub fn f32s(&mut self, n: usize) -> Result<Vec<f32>, CodecError> {
        Ok(self.words(n)?.map(f32::from_le_bytes).collect())
    }

    /// A counted run of `f32`s.
    pub fn f32_vec(&mut self) -> Result<Vec<f32>, CodecError> {
        let n = self.count(4)?;
        self.f32s(n)
    }

    /// A count of mini-batch records with `tables` tables each.
    pub fn batch_count(&mut self, tables: usize) -> Result<usize, CodecError> {
        // A record is at least its kind, its length, and per table an
        // nnz and one offset.
        self.count(tables.saturating_mul(8).saturating_add(5))
    }

    /// One mini-batch record (see [`Writer::batch`]) of the given dense
    /// width and table count. Offsets must start at 0, never decrease
    /// and end at the table's index count.
    pub fn batch(&mut self, dense_width: usize, tables: usize) -> Result<MiniBatch, CodecError> {
        let kind = *BATCH_KINDS
            .get(self.u8()? as usize)
            .ok_or(CodecError::Corrupt("unknown batch kind"))?;
        // A sample is a dense row, a label and one offset per table.
        let per_sample = dense_width.saturating_add(1).saturating_add(tables).saturating_mul(4);
        let len = self.count(per_sample)?;
        let dense = self.f32s(len * dense_width)?;
        let labels = self.f32s(len)?;
        // A table is at least its nnz and `len + 1` offsets.
        let mut sparse = Vec::with_capacity(self.backed(tables, 4 * (len + 2))?);
        for _ in 0..tables {
            let nnz = self.count(4)?;
            let indices = self.u32s(nnz)?;
            let offsets: Vec<usize> =
                self.words(len + 1)?.map(|w| u32::from_le_bytes(w) as usize).collect();
            if offsets.first() != Some(&0)
                || offsets.last() != Some(&nnz)
                || offsets.windows(2).any(|w| w[0] > w[1])
            {
                return Err(CodecError::Corrupt("csr offsets not monotonic"));
            }
            sparse.push(TableIndices { indices, offsets });
        }
        Ok(MiniBatch { kind, dense, dense_width, sparse, labels })
    }

    /// Succeeds only when every byte has been read.
    pub fn finish(self) -> Result<(), CodecError> {
        if !self.buf.is_empty() {
            return Err(CodecError::Corrupt("trailing bytes"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batch_kind_tags_are_declaration_order() {
        for (tag, kind) in BATCH_KINDS.into_iter().enumerate() {
            assert_eq!(kind as usize, tag);
        }
    }

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn sealed_bytes_verify_and_any_flip_is_caught() {
        let mut w = Writer::default();
        w.header(b"TEST", 7);
        w.str("payload");
        let sealed = w.seal();
        let mut r = Reader::new(unseal(&sealed).expect("intact"));
        r.header(b"TEST", 7).expect("header");
        assert_eq!(r.str().expect("str"), "payload");
        r.finish().expect("fully read");
        for i in 0..sealed.len() {
            let mut bad = sealed.clone();
            bad[i] ^= 1;
            assert!(matches!(unseal(&bad), Err(CodecError::BadChecksum)), "flip at {i}");
        }
        assert!(matches!(unseal(&sealed[..3]), Err(CodecError::Truncated { .. })));
    }

    #[test]
    fn header_rejects_wrong_magic_and_version() {
        let mut w = Writer::default();
        w.header(b"TEST", 7);
        let bytes = w.finish();
        assert!(matches!(Reader::new(&bytes).header(b"NOPE", 7), Err(CodecError::BadMagic)));
        assert!(matches!(Reader::new(&bytes).header(b"TEST", 8), Err(CodecError::BadVersion(7))));
    }

    #[test]
    fn a_count_the_bytes_cannot_back_is_refused_before_any_read() {
        let mut w = Writer::default();
        w.u32(u32::MAX);
        w.f32s(&[1.0; 4]);
        let bytes = w.finish();
        let mut r = Reader::new(&bytes);
        assert!(matches!(
            r.count(4),
            Err(CodecError::Truncated { want, left: 16 }) if want == u32::MAX as usize * 4
        ));
        // A list of one-byte-minimum records is bounded the same way.
        assert!(Reader::new(&bytes).list(|r| r.u8()).is_err());
    }

    #[test]
    fn counted_vectors_round_trip_bit_exactly() {
        let v = [1.5f32, -0.0, f32::MIN_POSITIVE, f32::NAN];
        let mut w = Writer::default();
        w.f32_vec(&v);
        w.u32s(&[7, 9]);
        let bytes = w.finish();
        let mut r = Reader::new(&bytes);
        let back = r.f32_vec().expect("f32s");
        assert_eq!(
            back.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
            v.iter().map(|x| x.to_bits()).collect::<Vec<_>>()
        );
        assert_eq!(r.u32s(2).expect("u32s"), vec![7, 9]);
        assert!(r.u8().is_err());
    }
}
