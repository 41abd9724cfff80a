//! SegmentRing — the log space container that replaces BlobGroup (§V-A).
//!
//! A ring of pre-created append-only segments. Each segment's first 16
//! bytes are a header `{status, start_lsn}`; the REDO byte stream follows.
//! LSNs are byte offsets in the global REDO stream; within one segment the
//! stream is dense, and when a record does not fit the writer freezes the
//! segment (status = Full), advances to the next ring slot (which must be
//! Empty — recycled by [`SegmentRing::truncate`] once PageStore has applied
//! its records), and stamps the new header with the record's LSN.
//!
//! Crash recovery (§V-A): headers are read back and the newest segment is
//! identified by a **binary search** over the rotated, monotonically
//! increasing `start_lsn` sequence ([`newest_slot_binary_search`]); the
//! effective data length of that segment comes from the io-meta the client
//! chained into every append.
//!
//! Failure handling (§V-E): if an append fails because a replica died, the
//! ring freezes the slot's segment, creates a replacement segment, and
//! retries — transparently to the WAL writer above.

use std::sync::Arc;

use parking_lot::Mutex;
use vedb_sim::SimCtx;

use crate::client::{AStoreClient, SegmentHandle};
use crate::layout::SegmentClass;
use crate::retry::{AppendOpts, SegmentOpts};
use crate::{AStoreError, Lsn, Result, SegmentId};

/// Bytes reserved at the start of each segment for the ring header.
pub const RING_HDR_SIZE: u64 = 16;

/// Ring-slot status byte (§V-A: "empty, in-use, full, or in-error").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum SlotStatus {
    /// Never written or recycled.
    Empty = 0,
    /// Currently receiving appends.
    InUse = 1,
    /// Frozen: full or superseded.
    Full = 2,
    /// Frozen by a write failure.
    Error = 3,
}

impl SlotStatus {
    fn from_byte(b: u8) -> SlotStatus {
        match b {
            1 => SlotStatus::InUse,
            2 => SlotStatus::Full,
            3 => SlotStatus::Error,
            _ => SlotStatus::Empty,
        }
    }
}

fn encode_ring_header(status: SlotStatus, start_lsn: Lsn) -> [u8; RING_HDR_SIZE as usize] {
    let mut h = [0u8; RING_HDR_SIZE as usize];
    h[0] = status as u8;
    h[8..16].copy_from_slice(&start_lsn.to_le_bytes());
    h
}

fn decode_ring_header(buf: &[u8]) -> (SlotStatus, Lsn) {
    let status = SlotStatus::from_byte(buf[0]);
    let lsn = u64::from_le_bytes(buf[8..16].try_into().unwrap());
    (status, lsn)
}

/// Find the slot with the greatest `start_lsn` by binary search.
///
/// Invariant maintained by the ring: used slots (status ≠ Empty) occupy one
/// contiguous ring-range with strictly increasing `start_lsn` in ring
/// order. `keys[i]` is `Some(start_lsn)` for used slots. Returns `None` if
/// every slot is empty.
pub fn newest_slot_binary_search(keys: &[Option<Lsn>]) -> Option<usize> {
    let n = keys.len();
    if n == 0 {
        return None;
    }
    // Locate any used slot: used slots are contiguous mod n, so probing at
    // a logarithmic stride finds one in O(log n) probes unless fewer than
    // O(n / log n) slots are used — then the linear tail below still only
    // inspects indices we already have in memory.
    let pivot = keys.iter().position(Option::is_some)?;
    // The used range starts somewhere; we want its *end* (max LSN). Walk by
    // binary search over the rotated order starting at `pivot`: index i in
    // [0, n) maps to slot (pivot + i) % n; LSNs increase over the used
    // prefix of that rotation... unless the rotation cut the used range.
    // Handle the cut by choosing the true start: if the slot before pivot
    // (mod n) is used with a smaller LSN, the range started earlier — back
    // up to the smallest-LSN used slot reachable from pivot.
    let mut start = pivot;
    loop {
        let prev = (start + n - 1) % n;
        if prev == pivot {
            break; // fully-used ring
        }
        match (keys[prev], keys[start]) {
            (Some(p), Some(s)) if p < s => start = prev,
            _ => break,
        }
    }
    // Now slots start, start+1, ... (mod n) have increasing LSNs over the
    // used range. Binary search for the last used index in that rotation.
    let used_at = |i: usize| keys[(start + i) % n];
    let (mut lo, mut hi) = (0usize, n - 1);
    while lo < hi {
        let mid = (lo + hi).div_ceil(2);
        // Used and part of the same increasing run as `start`?
        let in_run = match (used_at(mid), used_at(0)) {
            (Some(m), Some(s0)) => m >= s0,
            _ => false,
        };
        if in_run {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    Some((start + lo) % n)
}

struct RingSlot {
    handle: SegmentHandle,
    status: SlotStatus,
    start_lsn: Lsn,
}

struct RingState {
    slots: Vec<RingSlot>,
    active: usize,
    next_lsn: Lsn,
    /// Segments replaced after a write failure: still readable (their
    /// acked bytes are durable) until truncation deletes them.
    retired: Vec<(SegmentHandle, Lsn, Lsn)>,
}

/// The ring of pre-created log segments.
pub struct SegmentRing {
    client: Arc<AStoreClient>,
    state: Mutex<RingState>,
    seg_capacity: u64,
}

impl SegmentRing {
    /// Bootstrap a fresh ring: pre-create `n_segments` segments (§V-A:
    /// "all segments with an index starting from 0 within the ring are
    /// pre-created by the storage SDK") and open slot 0 at LSN 0.
    pub fn create(ctx: &mut SimCtx, client: Arc<AStoreClient>, n_segments: usize) -> Result<Self> {
        assert!(n_segments >= 2, "a ring needs at least two segments");
        let mut slots = Vec::with_capacity(n_segments);
        for _ in 0..n_segments {
            let handle = client.create_segment_with(ctx, SegmentOpts::new(SegmentClass::Log))?;
            slots.push(RingSlot {
                handle,
                status: SlotStatus::Empty,
                start_lsn: 0,
            });
        }
        let seg_capacity = client.segment_capacity(slots[0].handle);
        let ring = SegmentRing {
            client,
            state: Mutex::new(RingState {
                slots,
                active: 0,
                next_lsn: 0,
                retired: Vec::new(),
            }),
            seg_capacity,
        };
        ring.open_slot(ctx, 0, 0)?;
        Ok(ring)
    }

    /// Segment ids of the ring slots, in ring order. The engine persists
    /// these in its bootstrap catalog so a restarted instance can
    /// [`recover`](Self::recover) the ring.
    pub fn segment_ids(&self) -> Vec<SegmentId> {
        self.state
            .lock()
            .slots
            .iter()
            .map(|s| s.handle.id)
            .collect()
    }

    /// Bytes of log a single segment can hold.
    pub fn segment_data_capacity(&self) -> u64 {
        self.seg_capacity - RING_HDR_SIZE
    }

    /// The next LSN that will be assigned.
    pub fn next_lsn(&self) -> Lsn {
        self.state.lock().next_lsn
    }

    fn open_slot(&self, ctx: &mut SimCtx, idx: usize, start_lsn: Lsn) -> Result<()> {
        let handle = {
            let st = self.state.lock();
            st.slots[idx].handle
        };
        self.client.reset_len(ctx, handle)?;
        let hdr = encode_ring_header(SlotStatus::InUse, start_lsn);
        self.client
            .append_with(ctx, handle, &hdr, AppendOpts::new())?;
        let mut st = self.state.lock();
        st.slots[idx].status = SlotStatus::InUse;
        st.slots[idx].start_lsn = start_lsn;
        Ok(())
    }

    fn freeze_slot(&self, ctx: &mut SimCtx, idx: usize, status: SlotStatus) -> Result<()> {
        let (handle, start_lsn) = {
            let st = self.state.lock();
            (st.slots[idx].handle, st.slots[idx].start_lsn)
        };
        let hdr = encode_ring_header(status, start_lsn);
        // Best effort: a frozen-by-error segment may not accept the header
        // update (that is fine — recovery treats InUse and Full alike).
        let _ = self.client.write_at(ctx, handle, 0, &hdr);
        self.state.lock().slots[idx].status = status;
        Ok(())
    }

    /// Create a replacement segment for a slot whose segment failed, open
    /// it at `start_lsn`, and return its handle.
    fn replace_slot(&self, ctx: &mut SimCtx, idx: usize, start_lsn: Lsn) -> Result<SegmentHandle> {
        let new_handle = self
            .client
            .create_segment_with(ctx, SegmentOpts::new(SegmentClass::Log))?;
        self.client.note_segment_replaced();
        {
            let mut st = self.state.lock();
            let old = st.slots[idx].handle;
            let old_start = st.slots[idx].start_lsn;
            let old_end = st.next_lsn;
            if old_end > old_start {
                st.retired.push((old, old_start, old_end));
            }
            st.slots[idx].handle = new_handle;
            st.slots[idx].status = SlotStatus::Empty;
        }
        self.open_slot(ctx, idx, start_lsn)?;
        Ok(new_handle)
    }

    /// Append one REDO record; returns its assigned LSN (persistence
    /// order, §III) — single-record wrapper over
    /// [`append_batch`](Self::append_batch).
    pub fn append(&self, ctx: &mut SimCtx, record: &[u8]) -> Result<Lsn> {
        Ok(self.append_batch(ctx, &[record])?[0])
    }

    /// Append a batch of REDO records in ring order with **one
    /// reservation** — the primitive append. All records that fit the
    /// active segment go down as a single [`AStoreClient::append_batch`]
    /// (one chained work request per replica); the batch only splits at a
    /// segment boundary. Returns each record's assigned LSN, dense and in
    /// argument order. Handles segment-full advancement and
    /// replica-failure replacement transparently, exactly like the
    /// single-record path always did.
    pub fn append_batch(&self, ctx: &mut SimCtx, records: &[&[u8]]) -> Result<Vec<Lsn>> {
        assert!(!records.is_empty());
        for record in records {
            assert!(!record.is_empty());
            assert!(
                (record.len() as u64) <= self.seg_capacity - RING_HDR_SIZE,
                "record larger than a segment"
            );
        }
        let mut lsns = Vec::with_capacity(records.len());
        let mut rest = records;
        while !rest.is_empty() {
            let (active, lsn) = {
                let st = self.state.lock();
                (st.active, st.next_lsn)
            };
            // A previous failed write may have left the active slot in
            // Error with no replacement (e.g. the cluster was too degraded
            // to create one). Replace it now that we write again.
            if self.state.lock().slots[active].status == SlotStatus::Error {
                self.replace_slot(ctx, active, lsn)?;
            }
            // Take the longest record prefix that fits the active segment.
            let used = self
                .client
                .segment_len(self.state.lock().slots[active].handle);
            let room = self.seg_capacity.saturating_sub(used);
            let mut take = 0usize;
            let mut bytes = 0u64;
            while take < rest.len() && bytes + rest[take].len() as u64 <= room {
                bytes += rest[take].len() as u64;
                take += 1;
            }
            if take == 0 {
                // Not even one record fits: advance to the next slot.
                self.freeze_slot(ctx, active, SlotStatus::Full)?;
                let next = (active + 1) % self.state.lock().slots.len();
                if self.state.lock().slots[next].status != SlotStatus::Empty {
                    return Err(AStoreError::LogFull);
                }
                self.open_slot(ctx, next, lsn)?;
                self.state.lock().active = next;
                continue;
            }
            let sub = &rest[..take];
            let handle = self.state.lock().slots[active].handle;
            match self.client.append_batch(ctx, handle, sub) {
                Ok(_) => {}
                Err(e) if e.is_segment_unwritable() || e.is_retryable() => {
                    // §V-E, after the client's own retry budget is spent:
                    // close the failed segment, create a new one, retry the
                    // same sub-batch once there.
                    self.freeze_slot(ctx, active, SlotStatus::Error)?;
                    let new_handle = self.replace_slot(ctx, active, lsn)?;
                    self.client.append_batch(ctx, new_handle, sub)?;
                }
                Err(e) => return Err(e),
            }
            let mut cur = lsn;
            for record in sub {
                lsns.push(cur);
                cur += record.len() as u64;
            }
            self.state.lock().next_lsn = cur;
            rest = &rest[take..];
        }
        Ok(lsns)
    }

    /// Recycle every frozen segment whose entire LSN range is below
    /// `upto_lsn` (PageStore has applied those records). Returns how many
    /// slots were recycled.
    pub fn truncate(&self, ctx: &mut SimCtx, upto_lsn: Lsn) -> Result<usize> {
        let candidates: Vec<(usize, SegmentHandle)> = {
            let st = self.state.lock();
            let n = st.slots.len();
            let mut v = Vec::new();
            for i in 0..n {
                let s = &st.slots[i];
                if i == st.active || s.status == SlotStatus::Empty {
                    continue;
                }
                // End LSN of slot i = start LSN of the *next* used slot in
                // ring order, or next_lsn if it is the most recent frozen
                // one. Conservative: use the next slot's start when known.
                let next = &st.slots[(i + 1) % n];
                let end = if next.status != SlotStatus::Empty && next.start_lsn > s.start_lsn {
                    next.start_lsn
                } else {
                    st.next_lsn
                };
                if end <= upto_lsn {
                    v.push((i, s.handle));
                }
            }
            v
        };
        // Retired segments fully below the truncation point are deleted.
        let drop_retired: Vec<SegmentHandle> = {
            let mut st = self.state.lock();
            let (dead, keep): (Vec<_>, Vec<_>) = st
                .retired
                .drain(..)
                .partition(|(_, _, end)| *end <= upto_lsn);
            st.retired = keep;
            dead.into_iter().map(|(h, _, _)| h).collect()
        };
        for h in drop_retired {
            let _ = self.client.delete_segment(ctx, h);
        }
        let mut recycled = 0;
        for (idx, handle) in candidates {
            let hdr = encode_ring_header(SlotStatus::Empty, 0);
            self.client.write_at(ctx, handle, 0, &hdr)?;
            self.client.reset_len(ctx, handle)?;
            let mut st = self.state.lock();
            st.slots[idx].status = SlotStatus::Empty;
            st.slots[idx].start_lsn = 0;
            recycled += 1;
        }
        Ok(recycled)
    }

    /// Read the raw REDO byte stream from `from_lsn` (inclusive) to the
    /// current end of log. Returns `(start_lsn_of_returned_bytes, bytes)` —
    /// the start equals `from_lsn` when it falls inside the retained log,
    /// or the oldest retained LSN otherwise.
    pub fn read_from(&self, ctx: &mut SimCtx, from_lsn: Lsn) -> Result<(Lsn, Vec<u8>)> {
        type Snapshot = (
            Vec<(SegmentHandle, SlotStatus, Lsn)>,
            Vec<(SegmentHandle, Lsn, Lsn)>,
            Lsn,
        );
        let (slots_info, retired, next_lsn): Snapshot = {
            let st = self.state.lock();
            (
                st.slots
                    .iter()
                    .map(|s| (s.handle, s.status, s.start_lsn))
                    .collect(),
                st.retired.clone(),
                st.next_lsn,
            )
        };
        // Collect used slots (including retired ones) in LSN order.
        let mut used: Vec<(SegmentHandle, Lsn)> = slots_info
            .iter()
            .filter(|(_, status, _)| *status != SlotStatus::Empty)
            .map(|(h, _, lsn)| (*h, *lsn))
            .chain(retired.iter().map(|(h, start, _)| (*h, *start)))
            .collect();
        used.sort_by_key(|(_, lsn)| *lsn);
        let mut out = Vec::new();
        let mut out_start = None;
        for (i, (handle, start_lsn)) in used.iter().enumerate() {
            let end_lsn = if i + 1 < used.len() {
                used[i + 1].1
            } else {
                next_lsn
            };
            if end_lsn <= from_lsn {
                continue;
            }
            let seg_used = self.client.segment_len(*handle);
            let data_len = seg_used.saturating_sub(RING_HDR_SIZE);
            let skip = from_lsn.saturating_sub(*start_lsn).min(data_len);
            let want = (end_lsn - start_lsn - skip).min(data_len - skip) as usize;
            if want == 0 {
                continue;
            }
            let bytes = self.client.read(ctx, *handle, RING_HDR_SIZE + skip, want)?;
            if out_start.is_none() {
                out_start = Some(start_lsn + skip);
            }
            out.extend_from_slice(&bytes);
        }
        Ok((out_start.unwrap_or(next_lsn), out))
    }

    /// Recover a ring after a DBEngine crash: adopt the segments, read all
    /// headers, binary-search for the newest slot, and recover the end of
    /// log from the newest segment's io-meta (§V-A, §V-E).
    pub fn recover(
        ctx: &mut SimCtx,
        client: Arc<AStoreClient>,
        segment_ids: &[SegmentId],
    ) -> Result<Self> {
        let mut slots = Vec::with_capacity(segment_ids.len());
        for &id in segment_ids {
            let handle = client.adopt_segment(ctx, id, SegmentClass::Log)?;
            let used = client.segment_len(handle);
            let (status, start_lsn) = if used >= RING_HDR_SIZE {
                let hdr = client.read(ctx, handle, 0, RING_HDR_SIZE as usize)?;
                decode_ring_header(&hdr)
            } else {
                (SlotStatus::Empty, 0)
            };
            slots.push(RingSlot {
                handle,
                status,
                start_lsn,
            });
        }
        let keys: Vec<Option<Lsn>> = slots
            .iter()
            .map(|s| (s.status != SlotStatus::Empty).then_some(s.start_lsn))
            .collect();
        let seg_capacity = client.segment_capacity(slots[0].handle);
        let (active, next_lsn) = match newest_slot_binary_search(&keys) {
            Some(newest) => {
                let used = client.segment_len(slots[newest].handle);
                let next = slots[newest].start_lsn + used.saturating_sub(RING_HDR_SIZE);
                slots[newest].status = SlotStatus::InUse;
                (newest, next)
            }
            None => (0, 0),
        };
        Ok(SegmentRing {
            client,
            state: Mutex::new(RingState {
                slots,
                active,
                next_lsn,
                retired: Vec::new(),
            }),
            seg_capacity,
        })
    }

    /// The live log window `(oldest_retained_lsn, next_lsn)`: bytes at or
    /// beyond the first bound are still readable from the ring; everything
    /// below was recycled by [`truncate`](Self::truncate). The window's
    /// width is the redo a PageStore replica can be asked to re-ship — and
    /// what a restarted replica must replay when its checkpoints lag.
    pub fn log_window(&self) -> (Lsn, Lsn) {
        let st = self.state.lock();
        let mut oldest = st.next_lsn;
        for s in &st.slots {
            if s.status != SlotStatus::Empty {
                oldest = oldest.min(s.start_lsn);
            }
        }
        for (_, start, _) in &st.retired {
            oldest = oldest.min(*start);
        }
        (oldest, st.next_lsn)
    }

    /// Number of slots currently Empty (tests / capacity monitoring).
    pub fn empty_slots(&self) -> usize {
        self.state
            .lock()
            .slots
            .iter()
            .filter(|s| s.status == SlotStatus::Empty)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::tests::{astore_count, test_cluster};
    use crate::client::ROUTE_REFRESH;

    #[test]
    fn header_roundtrip() {
        let h = encode_ring_header(SlotStatus::Full, 987654);
        assert_eq!(decode_ring_header(&h), (SlotStatus::Full, 987654));
        assert_eq!(decode_ring_header(&[0u8; 16]), (SlotStatus::Empty, 0));
    }

    #[test]
    fn binary_search_simple_prefix() {
        // Bootstrap shape: slots 0..k used, rest empty.
        let keys = vec![Some(0), Some(100), Some(200), None, None];
        assert_eq!(newest_slot_binary_search(&keys), Some(2));
    }

    #[test]
    fn binary_search_wrapped() {
        // Ring wrapped: newest is before the oldest in index order.
        let keys = vec![Some(500), Some(600), Some(100), Some(200), Some(300)];
        assert_eq!(newest_slot_binary_search(&keys), Some(1));
    }

    #[test]
    fn binary_search_with_truncated_prefix() {
        // Slots 0-1 recycled by truncation; used range is 2..=4.
        let keys = vec![None, None, Some(100), Some(200), Some(300)];
        assert_eq!(newest_slot_binary_search(&keys), Some(4));
        // Used range wraps: 3, 4, 0.
        let keys2 = vec![Some(300), None, None, Some(100), Some(200)];
        assert_eq!(newest_slot_binary_search(&keys2), Some(0));
    }

    #[test]
    fn binary_search_all_empty_or_single() {
        assert_eq!(newest_slot_binary_search(&[None, None, None]), None);
        assert_eq!(newest_slot_binary_search(&[None, Some(5), None]), Some(1));
        assert_eq!(newest_slot_binary_search(&[]), None);
    }

    #[test]
    fn append_assigns_dense_lsns() {
        let mut ctx = SimCtx::new(1, 7);
        let tc = test_cluster(&mut ctx);
        let ring = SegmentRing::create(&mut ctx, Arc::clone(&tc.client), 4).unwrap();
        let a = ring.append(&mut ctx, b"0123456789").unwrap();
        let b = ring.append(&mut ctx, b"abcde").unwrap();
        assert_eq!(a, 0);
        assert_eq!(b, 10);
        assert_eq!(ring.next_lsn(), 15);
        let (start, bytes) = ring.read_from(&mut ctx, 0).unwrap();
        assert_eq!(start, 0);
        assert_eq!(&bytes, b"0123456789abcde");
        let (start, bytes) = ring.read_from(&mut ctx, 10).unwrap();
        assert_eq!(start, 10);
        assert_eq!(&bytes, b"abcde");
    }

    #[test]
    fn ring_advances_and_wraps_with_truncation() {
        let mut ctx = SimCtx::new(1, 7);
        let tc = test_cluster(&mut ctx);
        let ring = SegmentRing::create(&mut ctx, Arc::clone(&tc.client), 3).unwrap();
        let cap = ring.segment_data_capacity() as usize;
        let rec = vec![0xAAu8; cap / 2 - 8]; // two records fill a segment

        // Fill slots 0 and 1.
        for _ in 0..4 {
            ring.append(&mut ctx, &rec).unwrap();
        }
        // Slot 2 is open; 0 and 1 are full. One more pair needs slot 0 back.
        ring.append(&mut ctx, &rec).unwrap();
        ring.append(&mut ctx, &rec).unwrap();
        let err = ring.append(&mut ctx, &rec);
        assert!(
            matches!(err, Err(AStoreError::LogFull)),
            "untruncated ring must report LogFull"
        );

        // PageStore applied everything: recycle and continue.
        let recycled = ring.truncate(&mut ctx, ring.next_lsn()).unwrap();
        assert!(recycled >= 1, "expected recycling, got {recycled}");
        ring.append(&mut ctx, &rec).unwrap();
    }

    #[test]
    fn log_window_tracks_truncation() {
        let mut ctx = SimCtx::new(1, 7);
        let tc = test_cluster(&mut ctx);
        let ring = SegmentRing::create(&mut ctx, Arc::clone(&tc.client), 3).unwrap();
        assert_eq!(ring.log_window(), (0, 0));
        let cap = ring.segment_data_capacity() as usize;
        let rec = vec![0xBBu8; cap / 2 - 8];
        for _ in 0..4 {
            ring.append(&mut ctx, &rec).unwrap();
        }
        let (oldest, next) = ring.log_window();
        assert_eq!(oldest, 0, "nothing truncated yet");
        assert_eq!(next, ring.next_lsn());
        // Recycle the first full segment; the window's floor advances to
        // the start of the oldest surviving slot.
        let first_seg_end = 2 * rec.len() as u64;
        let recycled = ring.truncate(&mut ctx, first_seg_end).unwrap();
        assert_eq!(recycled, 1);
        let (oldest, next) = ring.log_window();
        assert_eq!(oldest, first_seg_end);
        assert_eq!(next, ring.next_lsn());
        assert!(oldest <= next);
    }

    #[test]
    fn recovery_finds_end_of_log() {
        let mut ctx = SimCtx::new(1, 7);
        let tc = test_cluster(&mut ctx);
        let ring = SegmentRing::create(&mut ctx, Arc::clone(&tc.client), 4).unwrap();
        for i in 0..20u8 {
            ring.append(&mut ctx, &[i; 100]).unwrap();
        }
        let end = ring.next_lsn();
        let ids = ring.segment_ids();
        drop(ring); // DBEngine crash: all DRAM state gone

        // New incarnation (new lease), same AStore.
        let ep = vedb_rdma::RdmaEndpoint::new(
            tc.env.model.clone(),
            Arc::clone(&tc.env.faults),
            Arc::clone(&tc.env.engine_nic),
        );
        let client2 = AStoreClient::connect(
            &mut ctx,
            Arc::clone(&tc.cm),
            ep,
            Arc::clone(&tc.env.engine_cpu),
            tc.env.model.clone(),
            1,
            ROUTE_REFRESH,
        );
        let recovered = SegmentRing::recover(&mut ctx, client2, &ids).unwrap();
        assert_eq!(recovered.next_lsn(), end, "recovered end-of-log must match");
        let (start, bytes) = recovered.read_from(&mut ctx, 0).unwrap();
        assert_eq!(start, 0);
        assert_eq!(bytes.len() as u64, end);
        assert_eq!(&bytes[0..100], &[0u8; 100]);
        assert_eq!(&bytes[1900..2000], &[19u8; 100]);
        // And the recovered ring accepts new appends at the right LSN.
        let lsn = recovered.append(&mut ctx, b"post-recovery").unwrap();
        assert_eq!(lsn, end);
    }

    #[test]
    fn replica_failure_replaces_segment_when_retries_are_exhausted() {
        // A fault the client's retries cannot repair — a partitioned
        // replica, whose drops name no node to report — leaves the ring's
        // own §V-E policy as the only recovery: freeze the slot, create a
        // replacement, retry.
        let mut ctx = SimCtx::new(1, 7);
        let tc = test_cluster(&mut ctx);
        let ring = SegmentRing::create(&mut ctx, Arc::clone(&tc.client), 3).unwrap();
        ring.append(&mut ctx, b"before-failure").unwrap();

        let active_seg = ring.segment_ids()[0];
        let route = tc.client.cached_route(active_seg).unwrap();
        tc.env.faults.partition(route.replicas[0].node);
        // With only 2 of 3 nodes reachable, creating the replacement
        // segment fails; the error is surfaced.
        assert!(ring.append(&mut ctx, b"during-failure").is_err());
        tc.env.faults.heal(route.replicas[0].node);

        // Retry now succeeds via the replacement path (slot was frozen).
        let lsn = ring.append(&mut ctx, b"after-restore").unwrap();
        assert_eq!(lsn, 14, "LSN continuity across segment replacement");
        assert!(astore_count(&tc, "segments_replaced") >= 1);
        let (_, bytes) = ring.read_from(&mut ctx, 14).unwrap();
        assert_eq!(&bytes, b"after-restore");
    }

    #[test]
    fn replica_crash_is_absorbed_below_the_ring() {
        // With the default retry policy the client reports the dead node,
        // the CM shrinks the route, and the append completes — the ring
        // never sees an error and keeps the same segment.
        let mut ctx = SimCtx::new(1, 7);
        let tc = test_cluster(&mut ctx);
        let ring = SegmentRing::create(&mut ctx, Arc::clone(&tc.client), 3).unwrap();
        ring.append(&mut ctx, b"before-failure").unwrap();

        let ids_before = ring.segment_ids();
        let route = tc.client.cached_route(ids_before[0]).unwrap();
        tc.env.faults.crash(route.replicas[0].node);

        let lsn = ring.append(&mut ctx, b"during-failure").unwrap();
        assert_eq!(lsn, 14, "append must succeed despite the crashed replica");
        assert_eq!(ring.segment_ids(), ids_before, "no slot replacement needed");
        assert_eq!(astore_count(&tc, "segments_replaced"), 0);
        assert!(astore_count(&tc, "retries") >= 1);
        let (_, bytes) = ring.read_from(&mut ctx, 0).unwrap();
        assert_eq!(&bytes, b"before-failureduring-failure");
    }
}
