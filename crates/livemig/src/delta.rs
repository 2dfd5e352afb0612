//! Delta images: the wire format of pre-copy rounds 1..N, and the
//! target-side accumulator that merges rounds back into a full image.
//!
//! A delta rides inside an ordinary [`ProcessImage`] so the existing
//! serialize → chunk → RDMA-pull → reassemble pipeline carries it
//! unchanged: the image's `app_state` holds a self-describing header
//! (magic, round, the real application state, and a run table), and each
//! dirty page run becomes one segment. [`decode`] recognises the header;
//! a stream without it is a full image.

use crate::dirty::DirtySnapshot;
use blcrsim::{ProcessImage, Segment};
use bytes::Bytes;
use ibfabric::{DataSlice, DataSrc};
use std::fmt;
use std::sync::Arc;

const DELTA_MAGIC: u64 = 0x4c49_5645_4d49_4731; // "LIVEMIG1"

/// Why a delta could not be decoded or applied.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaError {
    /// Header declared structure the image does not have.
    BadHeader,
    /// Run table and segment list disagree (count or lengths).
    RunMismatch,
    /// A run falls outside its base segment.
    OutOfRange,
    /// [`ImageAccumulator::apply`] before a round-0 base image.
    NoBase,
}

impl fmt::Display for DeltaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeltaError::BadHeader => write!(f, "malformed delta header"),
            DeltaError::RunMismatch => write!(f, "delta run table mismatches segments"),
            DeltaError::OutOfRange => write!(f, "delta run outside base segment"),
            DeltaError::NoBase => write!(f, "delta applied before round-0 base image"),
        }
    }
}

impl std::error::Error for DeltaError {}

/// One dirty run carried by a delta.
#[derive(Debug, Clone)]
pub struct DeltaRun {
    /// Index of the segment this run patches.
    pub seg: usize,
    /// Byte offset of the run within that segment.
    pub off: u64,
    /// The run's content.
    pub data: DataSlice,
}

/// A decoded delta image.
#[derive(Debug, Clone)]
pub struct Delta {
    /// The rank (image pid) this delta belongs to.
    pub pid: u64,
    /// Pre-copy round that produced it (1-based; 0 is the full image).
    pub round: u32,
    /// Page size the dirty bitmap used.
    pub page: u64,
    /// The real application state at capture time.
    pub app_state: Bytes,
    /// Dirty runs, ascending by (seg, off).
    pub runs: Vec<DeltaRun>,
}

impl Delta {
    /// Total payload bytes across runs.
    pub fn bytes(&self) -> u64 {
        self.runs.iter().map(|r| r.data.len).sum()
    }
}

/// Encode the dirty runs of `snap` over `segments` as a delta image.
pub fn encode(
    pid: u64,
    app_state: &Bytes,
    segments: &[Segment],
    snap: &DirtySnapshot,
    round: u32,
) -> ProcessImage {
    let mut runs: Vec<(u32, u64, u64)> = Vec::new();
    let mut segs: Vec<Segment> = Vec::new();
    for sr in &snap.segs {
        let base = &segments[sr.seg];
        for r in &sr.runs {
            let off = r.first_page * snap.page;
            let len = (r.pages * snap.page).min(base.data.len - off);
            runs.push((sr.seg as u32, off, len));
            segs.push(Segment {
                kind: base.kind,
                data: base.data.slice(off, len),
            });
        }
    }
    let mut hdr = Vec::with_capacity(28 + app_state.len() + 20 * runs.len());
    hdr.extend_from_slice(&DELTA_MAGIC.to_le_bytes());
    hdr.extend_from_slice(&round.to_le_bytes());
    hdr.extend_from_slice(&snap.page.to_le_bytes());
    hdr.extend_from_slice(&(app_state.len() as u32).to_le_bytes());
    hdr.extend_from_slice(app_state);
    hdr.extend_from_slice(&(runs.len() as u32).to_le_bytes());
    for (seg, off, len) in &runs {
        hdr.extend_from_slice(&seg.to_le_bytes());
        hdr.extend_from_slice(&off.to_le_bytes());
        hdr.extend_from_slice(&len.to_le_bytes());
    }
    ProcessImage {
        pid,
        app_state: Bytes::from(hdr),
        segments: segs,
    }
}

fn rd<const N: usize>(b: &[u8], at: &mut usize) -> Option<[u8; N]> {
    let out = b.get(*at..*at + N)?.try_into().ok()?;
    *at += N;
    Some(out)
}

/// Decode `img` as a delta. `Ok(None)` means "not a delta" — a plain full
/// image (round 0 or classic stop-and-copy).
pub fn decode(img: &ProcessImage) -> Result<Option<Delta>, DeltaError> {
    let b = img.app_state.as_ref();
    let mut at = 0usize;
    match rd::<8>(b, &mut at) {
        Some(m) if u64::from_le_bytes(m) == DELTA_MAGIC => {}
        _ => return Ok(None),
    }
    let round = u32::from_le_bytes(rd(b, &mut at).ok_or(DeltaError::BadHeader)?);
    let page = u64::from_le_bytes(rd(b, &mut at).ok_or(DeltaError::BadHeader)?);
    let app_len = u32::from_le_bytes(rd(b, &mut at).ok_or(DeltaError::BadHeader)?) as usize;
    let app_state = img
        .app_state
        .get(at..at + app_len)
        .map(Bytes::copy_from_slice)
        .ok_or(DeltaError::BadHeader)?;
    at += app_len;
    let nruns = u32::from_le_bytes(rd(b, &mut at).ok_or(DeltaError::BadHeader)?) as usize;
    if nruns != img.segments.len() {
        return Err(DeltaError::RunMismatch);
    }
    let mut runs = Vec::with_capacity(nruns);
    for seg in &img.segments {
        let si = u32::from_le_bytes(rd(b, &mut at).ok_or(DeltaError::BadHeader)?) as usize;
        let off = u64::from_le_bytes(rd(b, &mut at).ok_or(DeltaError::BadHeader)?);
        let len = u64::from_le_bytes(rd(b, &mut at).ok_or(DeltaError::BadHeader)?);
        if len != seg.data.len {
            return Err(DeltaError::RunMismatch);
        }
        runs.push(DeltaRun {
            seg: si,
            off,
            data: seg.data.clone(),
        });
    }
    Ok(Some(Delta {
        pid: img.pid,
        round,
        page,
        app_state,
        runs,
    }))
}

/// Target-side merge state: round 0's full image plus every delta applied
/// so far. The merged image is kept restart-ready at all times.
#[derive(Default)]
pub struct ImageAccumulator {
    base: Option<ProcessImage>,
    rounds_applied: u32,
    bytes_applied: u64,
}

impl ImageAccumulator {
    /// Fresh accumulator with no base image.
    pub fn new() -> Self {
        Self::default()
    }

    /// Install the round-0 full image.
    pub fn seed_full(&mut self, img: ProcessImage) {
        self.bytes_applied += img.memory_bytes();
        self.base = Some(img);
    }

    /// Delta rounds applied so far.
    pub fn rounds_applied(&self) -> u32 {
        self.rounds_applied
    }

    /// Total payload bytes absorbed (full image + deltas).
    pub fn bytes_applied(&self) -> u64 {
        self.bytes_applied
    }

    /// Patch the base image with one delta; returns the delta's byte size.
    pub fn apply(&mut self, d: &Delta) -> Result<u64, DeltaError> {
        let base = self.base.as_mut().ok_or(DeltaError::NoBase)?;
        for run in &d.runs {
            let seg = base
                .segments
                .get_mut(run.seg)
                .ok_or(DeltaError::OutOfRange)?;
            if run
                .off
                .checked_add(run.data.len)
                .is_none_or(|end| end > seg.data.len)
            {
                return Err(DeltaError::OutOfRange);
            }
            splice(&mut seg.data, run.off, &run.data);
        }
        base.app_state = d.app_state.clone();
        self.rounds_applied += 1;
        let n = d.bytes();
        self.bytes_applied += n;
        Ok(n)
    }

    /// The merged image so far.
    pub fn image(&self) -> Option<&ProcessImage> {
        self.base.as_ref()
    }

    /// Consume into the merged image.
    pub fn into_image(self) -> Option<ProcessImage> {
        self.base
    }
}

/// Overwrite `dst[off .. off+src.len]` with `src`'s content. Seed-grid
/// aligned paged data patches in O(pages); anything else falls back to
/// materialising the destination segment.
fn splice(dst: &mut DataSlice, off: u64, src: &DataSlice) {
    if off == 0 && src.len == dst.len {
        *dst = src.clone();
        return;
    }
    if let (
        DataSrc::Paged {
            seeds: dseeds,
            page: dp,
            start: 0,
        },
        DataSrc::Paged {
            seeds: sseeds,
            page: sp,
            start: s0,
        },
    ) = (&mut dst.src, &src.src)
    {
        let aligned = dp == sp && off.is_multiple_of(*dp) && s0.is_multiple_of(*sp);
        // A partial trailing page is only representable when the run ends
        // exactly at the destination's end.
        let whole_pages = src.len.is_multiple_of(*dp) || off + src.len == dst.len;
        if aligned && whole_pages {
            let page = *dp;
            let seeds = Arc::make_mut(dseeds);
            for k in 0..src.len.div_ceil(page) {
                seeds[(off / page + k) as usize] = sseeds[(s0 / page + k) as usize];
            }
            return;
        }
    }
    // General path: materialise (small segments / tests only).
    // jmlint: allow(hot_alloc) — documented fallback for unaligned runs
    let mut buf = dst.to_bytes().to_vec();
    let patch = src.to_bytes();
    buf[off as usize..(off + src.len) as usize].copy_from_slice(&patch);
    *dst = DataSlice::bytes(buf);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dirty::DirtyTracker;
    use blcrsim::{parse_stream, serialize_image, SegmentKind};

    fn paged_seg(kind: SegmentKind, seeds: Vec<u64>, page: u64, len: u64) -> Segment {
        Segment {
            kind,
            data: DataSlice::paged(Arc::new(seeds), page, len),
        }
    }

    #[test]
    fn delta_roundtrips_through_checkpoint_stream() {
        let segs = vec![paged_seg(SegmentKind::Heap, vec![5; 10], 16, 150)];
        let mut t = DirtyTracker::new(16, &[150]);
        t.mark_pages(0, &[2, 3, 9]);
        let img = encode(7, &Bytes::from(&b"it=9"[..]), &segs, &t.take(), 2);
        let back = parse_stream(serialize_image(&img)).unwrap();
        let d = decode(&back).unwrap().expect("is a delta");
        assert_eq!(d.pid, 7);
        assert_eq!(d.round, 2);
        assert_eq!(d.app_state.as_ref(), b"it=9");
        assert_eq!(d.runs.len(), 2);
        assert_eq!(
            (d.runs[0].seg, d.runs[0].off, d.runs[0].data.len),
            (0, 32, 32)
        );
        // last run covers the partial trailing page
        assert_eq!(
            (d.runs[1].seg, d.runs[1].off, d.runs[1].data.len),
            (0, 144, 6)
        );
        assert_eq!(d.bytes(), 38);
    }

    #[test]
    fn full_image_is_not_a_delta() {
        let img = ProcessImage::new(1, &b"plain"[..]);
        assert_eq!(decode(&img).unwrap().map(|d| d.round), None);
    }

    #[test]
    fn accumulator_merges_to_current_content() {
        let page = 16u64;
        let len = 150u64;
        let mut seeds = vec![1u64; 10];
        let base_img = ProcessImage {
            pid: 3,
            app_state: Bytes::from(&b"it=0"[..]),
            segments: vec![paged_seg(SegmentKind::Heap, seeds.clone(), page, len)],
        };
        let mut acc = ImageAccumulator::new();
        assert_eq!(
            acc.apply(&Delta {
                pid: 3,
                round: 1,
                page,
                app_state: Bytes::new(),
                runs: vec![]
            }),
            Err(DeltaError::NoBase)
        );
        acc.seed_full(base_img);

        // source mutates pages 4 and 9 (partial), then 4 again
        let mut t = DirtyTracker::new(page, &[len]);
        for (p, s) in [(4u64, 77u64), (9, 88), (4, 99)] {
            seeds[p as usize] = s;
            t.mark_pages(0, &[p]);
        }
        let cur = vec![paged_seg(SegmentKind::Heap, seeds.clone(), page, len)];
        let delta_img = encode(3, &Bytes::from(&b"it=5"[..]), &cur, &t.take(), 1);
        let d = decode(&delta_img).unwrap().unwrap();
        acc.apply(&d).unwrap();

        let merged = acc.into_image().unwrap();
        let want = ProcessImage {
            pid: 3,
            app_state: Bytes::from(&b"it=5"[..]),
            segments: cur,
        };
        assert_eq!(merged, want, "paged fast path preserves representation");
        assert_eq!(merged.checksum(), want.checksum());
    }

    #[test]
    fn splice_fallback_materialises_unaligned_runs() {
        let mut dst = DataSlice::pattern(9, 0, 64);
        let patch = DataSlice::bytes(vec![0xAA; 8]);
        let before = dst.to_bytes().to_vec();
        splice(&mut dst, 5, &patch);
        let after = dst.to_bytes();
        assert_eq!(&after[5..13], &[0xAA; 8]);
        assert_eq!(&after[..5], &before[..5]);
        assert_eq!(&after[13..], &before[13..]);
    }
}
