//! Checkpoint stream wire format.
//!
//! A stream is a run of [`DataSlice`]s: small literal header slices
//! interleaved with (possibly huge, pattern-backed) segment data slices.
//! Because chunking for the RDMA buffer pool may split the stream at
//! arbitrary byte offsets, parsing goes through [`SliceCursor`], which can
//! read exact byte counts across slice boundaries while materialising only
//! the header bytes it actually decodes.
//!
//! ```text
//! MAGIC(8) pid(8) app_len(4) app_state(app_len) nseg(4)
//!   { kind(1) seg_len(8) seg_data(seg_len) } * nseg
//! ```

use crate::image::{ProcessImage, Segment, SegmentKind};
use bytes::Bytes;
use ibfabric::DataSlice;
use std::collections::VecDeque;
use std::fmt;

const MAGIC: u64 = 0x424c_4352_5349_4d31; // "BLCRSIM1"

/// Parse failures (corrupt or truncated streams).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamError {
    /// Stream shorter than the structure it declares.
    Truncated,
    /// Leading magic mismatch — not a checkpoint stream.
    BadMagic(u64),
    /// Unknown segment kind byte.
    BadSegmentKind(u8),
    /// The checkpoint file does not exist (its dump never completed).
    Missing,
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::Truncated => write!(f, "checkpoint stream truncated"),
            StreamError::BadMagic(m) => write!(f, "bad checkpoint magic {m:#x}"),
            StreamError::BadSegmentKind(k) => write!(f, "bad segment kind {k}"),
            StreamError::Missing => write!(f, "checkpoint file missing"),
        }
    }
}

impl std::error::Error for StreamError {}

/// Serialise an image into its stream representation (pure; no timing).
pub fn serialize_image(img: &ProcessImage) -> Vec<DataSlice> {
    let mut out = Vec::with_capacity(2 + 2 * img.segments.len());
    let mut header = Vec::with_capacity(24 + img.app_state.len() + 4);
    header.extend_from_slice(&MAGIC.to_le_bytes());
    header.extend_from_slice(&img.pid.to_le_bytes());
    header.extend_from_slice(&(img.app_state.len() as u32).to_le_bytes());
    header.extend_from_slice(&img.app_state);
    header.extend_from_slice(&(img.segments.len() as u32).to_le_bytes());
    out.push(DataSlice::bytes(header));
    for seg in &img.segments {
        let mut sh = Vec::with_capacity(9);
        sh.push(seg.kind as u8);
        sh.extend_from_slice(&seg.data.len.to_le_bytes());
        out.push(DataSlice::bytes(sh));
        out.push(seg.data.clone());
    }
    out
}

/// Parse a stream back into an image (pure; no timing).
pub fn parse_stream(slices: Vec<DataSlice>) -> Result<ProcessImage, StreamError> {
    let mut cur = SliceCursor::new(slices);
    let magic = cur.read_u64()?;
    if magic != MAGIC {
        return Err(StreamError::BadMagic(magic));
    }
    let pid = cur.read_u64()?;
    let app_len = cur.read_u32()? as u64;
    let app_state = cur.read_exact_bytes(app_len)?;
    let nseg = cur.read_u32()?;
    let mut segments = Vec::with_capacity(nseg as usize);
    for _ in 0..nseg {
        let kind = cur.read_u8()?;
        let kind = SegmentKind::from_u8(kind).ok_or(StreamError::BadSegmentKind(kind))?;
        let len = cur.read_u64()?;
        let data = cur.take(len)?;
        // Re-join the (possibly chunk-split) data run into one logical
        // slice when it is structurally contiguous; otherwise keep parts.
        segments.push(Segment {
            kind,
            data: coalesce(data),
        });
    }
    Ok(ProcessImage {
        pid,
        app_state,
        segments,
    })
}

/// Merge a run of slices into one when they are structurally contiguous
/// (adjacent pattern ranges, or all-literal small data); otherwise returns
/// a literal concatenation for small runs and the first-of-run with
/// asserted continuity for pattern data.
fn coalesce(parts: Vec<DataSlice>) -> DataSlice {
    use ibfabric::DataSrc;
    if parts.len() == 1 {
        return parts.into_iter().next().unwrap();
    }
    let total: u64 = parts.iter().map(|p| p.len).sum();
    // contiguous run over one page grid?
    if let DataSrc::Paged { seeds, page, start } = &parts[0].src {
        let mut expect = start + parts[0].len;
        let mut ok = true;
        for p in &parts[1..] {
            match &p.src {
                DataSrc::Paged {
                    seeds: s2,
                    page: p2,
                    start: o2,
                } if std::sync::Arc::ptr_eq(seeds, s2) && p2 == page && *o2 == expect => {
                    expect += p.len;
                }
                _ => {
                    ok = false;
                    break;
                }
            }
        }
        if ok {
            return DataSlice::paged(seeds.clone(), *page, *start + total).slice(*start, total);
        }
    }
    // contiguous pattern run?
    let mut iter = parts.iter();
    if let Some(first) = iter.next() {
        if let DataSrc::Pattern { seed, offset } = first.src {
            let mut expect = offset + first.len;
            let mut ok = true;
            for p in iter {
                match p.src {
                    DataSrc::Pattern {
                        seed: s2,
                        offset: o2,
                    } if s2 == seed && o2 == expect => {
                        expect += p.len;
                    }
                    _ => {
                        ok = false;
                        break;
                    }
                }
            }
            if ok {
                return DataSlice::pattern(seed, offset, total);
            }
        }
    }
    // fall back to literal concatenation (fine for small/mixed runs)
    let mut buf = Vec::with_capacity(total as usize);
    for p in &parts {
        buf.extend_from_slice(&p.to_bytes());
    }
    DataSlice::bytes(buf)
}

/// Byte-exact reader over a run of [`DataSlice`]s.
pub struct SliceCursor {
    slices: VecDeque<DataSlice>,
    remaining: u64,
}

impl SliceCursor {
    /// Wrap a run of slices.
    pub fn new(slices: Vec<DataSlice>) -> Self {
        let remaining = slices.iter().map(|s| s.len).sum();
        SliceCursor {
            slices: slices.into(),
            remaining,
        }
    }

    /// Bytes left.
    pub fn remaining(&self) -> u64 {
        self.remaining
    }

    /// Take `n` bytes as slice descriptors (no materialisation).
    pub fn take(&mut self, mut n: u64) -> Result<Vec<DataSlice>, StreamError> {
        if n > self.remaining {
            return Err(StreamError::Truncated);
        }
        self.remaining -= n;
        let mut out = Vec::new();
        while n > 0 {
            let front = self.slices.front_mut().expect("remaining-count invariant");
            if front.len <= n {
                n -= front.len;
                out.push(self.slices.pop_front().unwrap());
            } else {
                out.push(front.slice(0, n));
                *front = front.slice(n, front.len - n);
                n = 0;
            }
        }
        Ok(out)
    }

    /// Take `n` bytes materialised.
    pub fn read_exact_bytes(&mut self, n: u64) -> Result<Bytes, StreamError> {
        let parts = self.take(n)?;
        if parts.len() == 1 {
            return Ok(parts[0].to_bytes());
        }
        let mut v = Vec::with_capacity(n as usize);
        for p in parts {
            v.extend_from_slice(&p.to_bytes());
        }
        Ok(Bytes::from(v))
    }

    /// Read a little-endian u8/u32/u64.
    pub fn read_u8(&mut self) -> Result<u8, StreamError> {
        Ok(self.read_exact_bytes(1)?[0])
    }

    /// Read a little-endian u32.
    pub fn read_u32(&mut self) -> Result<u32, StreamError> {
        let b = self.read_exact_bytes(4)?;
        Ok(u32::from_le_bytes(b.as_ref().try_into().unwrap()))
    }

    /// Read a little-endian u64.
    pub fn read_u64(&mut self) -> Result<u64, StreamError> {
        let b = self.read_exact_bytes(8)?;
        Ok(u64::from_le_bytes(b.as_ref().try_into().unwrap()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::image::SegmentKind;

    fn sample_image() -> ProcessImage {
        ProcessImage::new(42, &b"iteration=17"[..])
            .with_segment(SegmentKind::Code, DataSlice::pattern(1, 0, 4096))
            .with_segment(SegmentKind::Stack, DataSlice::pattern(2, 0, 64 << 10))
            .with_segment(SegmentKind::Heap, DataSlice::pattern(3, 0, 20 << 20))
    }

    #[test]
    fn roundtrip_whole_stream() {
        let img = sample_image();
        let parsed = parse_stream(serialize_image(&img)).unwrap();
        assert_eq!(parsed, img);
        assert_eq!(parsed.checksum(), img.checksum());
    }

    #[test]
    fn roundtrip_after_arbitrary_rechunking() {
        // Simulate the buffer pool splitting the stream into 1000-byte
        // chunks and the target reassembling them.
        let img = sample_image();
        let stream = serialize_image(&img);
        let mut cur = SliceCursor::new(stream);
        let mut rechunked = Vec::new();
        while cur.remaining() > 0 {
            let n = cur.remaining().min(1000);
            rechunked.extend(cur.take(n).unwrap());
        }
        let parsed = parse_stream(rechunked).unwrap();
        assert_eq!(parsed, img, "pattern runs must coalesce back");
    }

    #[test]
    fn paged_segments_coalesce_after_rechunking() {
        use std::sync::Arc;
        let seeds: Vec<u64> = (0..40u64).map(|p| 0x1000 + p * 3).collect();
        let img = ProcessImage::new(7, &b"it=3"[..]).with_segment(
            SegmentKind::Heap,
            ibfabric::DataSlice::paged(Arc::new(seeds), 64 << 10, 40 * (64 << 10) - 513),
        );
        let mut cur = SliceCursor::new(serialize_image(&img));
        let mut rechunked = Vec::new();
        while cur.remaining() > 0 {
            let n = cur.remaining().min(1 << 20);
            rechunked.extend(cur.take(n).unwrap());
        }
        let parsed = parse_stream(rechunked).unwrap();
        assert_eq!(parsed, img, "paged runs must coalesce back");
        assert_eq!(parsed.checksum(), img.checksum());
    }

    #[test]
    fn truncated_stream_errors() {
        let img = sample_image();
        let stream = serialize_image(&img);
        let total: u64 = stream.iter().map(|s| s.len).sum();
        let mut cur = SliceCursor::new(stream);
        let short = cur.take(total - 100).unwrap();
        assert_eq!(parse_stream(short), Err(StreamError::Truncated));
    }

    #[test]
    fn bad_magic_errors() {
        let junk = vec![DataSlice::bytes(vec![0xFFu8; 64])];
        assert!(matches!(parse_stream(junk), Err(StreamError::BadMagic(_))));
    }

    #[test]
    fn empty_image_roundtrip() {
        let img = ProcessImage::new(0, Bytes::new());
        assert_eq!(parse_stream(serialize_image(&img)).unwrap(), img);
    }

    #[test]
    fn cursor_reads_across_slice_boundaries() {
        let mut cur = SliceCursor::new(vec![
            DataSlice::bytes(vec![0x01, 0x02]),
            DataSlice::bytes(vec![0x03, 0x04, 0x00, 0x00, 0x00, 0x00]),
        ]);
        assert_eq!(cur.read_u64().unwrap(), 0x0000_0000_0403_0201);
        assert_eq!(cur.remaining(), 0);
        assert_eq!(cur.read_u8(), Err(StreamError::Truncated));
    }
}
