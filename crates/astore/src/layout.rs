//! On-media layout of an AStore server's PMem and the slot bitmap allocator.
//!
//! §IV-A: "The AStore Server divides the memory into the superblock, segment
//! meta, I/O meta, and segment storage areas. We use a bitmap to manage
//! segment applications and releases."
//!
//! The device is divided into fixed-size *slots*; a segment occupies one
//! slot. The layout is:
//!
//! ```text
//! +------------+-----------------------+---------------------------------+
//! | superblock | segment meta          | slot 0 | slot 1 | ... | slot N-1|
//! | 4 KB       | SLOT_META_SIZE × N    |  (slot_size bytes each)         |
//! +------------+-----------------------+---------------------------------+
//! ```
//!
//! Each slot's meta records `{state, segment_id}` and is persisted on
//! allocate/release so a restarted server can rebuild its allocator from
//! PMem (the paper's fast-recovery property).

use vedb_sim::bytes::Reader;

use crate::SegmentId;

/// Size of the superblock area.
pub const SUPERBLOCK_SIZE: u64 = 4096;

/// Persisted metadata per slot:
/// `state (1) + class (1) + pad (6) + segment_id (8)` — written by the
/// server on allocate/release — followed by the **I/O meta**:
/// `used_len (8) + pad (8)` — written by the *client* with the chained
/// one-sided WRITE of every append (§IV-B's second WRITE), so a segment's
/// effective data length is recoverable after any failure.
pub const SLOT_META_SIZE: u64 = 32;

/// Offset of the client-maintained `used_len` within a slot's meta record.
pub const IO_META_USED_OFFSET: u64 = 16;

/// Magic value in the superblock identifying a formatted device.
pub const SUPERBLOCK_MAGIC: u64 = 0x4153_544F_5245_0001; // "ASTORE" v1

/// Replication class of a segment (§IV-A: "configurable replication factor
/// for different segments. By default, the segment that stores the log has
/// three copies and the segment storing the page has only one copy").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SegmentClass {
    /// REDO log segment — replicated (default 3).
    Log,
    /// Extended-buffer-pool page segment — replication factor 1 (losing it
    /// only lowers the cache hit ratio).
    Ebp,
}

impl SegmentClass {
    /// Default replication factor of the class.
    pub fn default_replication(self) -> usize {
        match self {
            SegmentClass::Log => 3,
            SegmentClass::Ebp => 1,
        }
    }
}

/// Persisted slot state byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum SlotState {
    /// Slot is free.
    Free = 0,
    /// Slot holds a live segment.
    Allocated = 1,
}

impl SlotState {
    /// Parse from the persisted byte.
    pub fn from_byte(b: u8) -> Option<SlotState> {
        match b {
            0 => Some(SlotState::Free),
            1 => Some(SlotState::Allocated),
            _ => None,
        }
    }
}

/// Geometry of a formatted device: slot size/count and derived offsets.
#[derive(Debug, Clone, Copy)]
pub struct Geometry {
    /// Bytes per slot (== max segment size on this server).
    pub slot_size: u64,
    /// Number of slots.
    pub slots: usize,
}

impl Geometry {
    /// Compute the geometry for a device of `capacity` bytes and the given
    /// slot size: as many slots as fit after the superblock and meta area.
    pub fn for_capacity(capacity: u64, slot_size: u64) -> Geometry {
        assert!(slot_size > 0, "slot size must be positive");
        // slots * (slot_size + SLOT_META_SIZE) + SUPERBLOCK_SIZE <= capacity
        let usable = capacity.saturating_sub(SUPERBLOCK_SIZE);
        let slots = (usable / (slot_size + SLOT_META_SIZE)) as usize;
        Geometry { slot_size, slots }
    }

    /// Offset of slot `i`'s persisted metadata.
    pub fn meta_offset(&self, i: usize) -> u64 {
        assert!(i < self.slots);
        SUPERBLOCK_SIZE + i as u64 * SLOT_META_SIZE
    }

    /// Offset of the start of the data area.
    pub fn data_base(&self) -> u64 {
        SUPERBLOCK_SIZE + self.slots as u64 * SLOT_META_SIZE
    }

    /// Offset of slot `i`'s data.
    pub fn slot_offset(&self, i: usize) -> u64 {
        assert!(i < self.slots);
        self.data_base() + i as u64 * self.slot_size
    }

    /// Total bytes the layout occupies.
    pub fn total_size(&self) -> u64 {
        self.data_base() + self.slots as u64 * self.slot_size
    }
}

/// In-memory bitmap allocator over the slots (rebuilt from slot meta on
/// restart).
#[derive(Debug)]
pub struct SlotBitmap {
    words: Vec<u64>,
    slots: usize,
    allocated: usize,
}

impl SlotBitmap {
    /// All-free bitmap for `slots` slots.
    pub fn new(slots: usize) -> Self {
        SlotBitmap {
            words: vec![0; slots.div_ceil(64)],
            slots,
            allocated: 0,
        }
    }

    /// Number of slots tracked.
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Number of allocated slots.
    pub fn allocated(&self) -> usize {
        self.allocated
    }

    /// Number of free slots.
    pub fn free(&self) -> usize {
        self.slots - self.allocated
    }

    /// Allocate the lowest free slot, or `None` if full.
    pub fn alloc(&mut self) -> Option<usize> {
        for (w, word) in self.words.iter_mut().enumerate() {
            if *word != u64::MAX {
                let bit = word.trailing_ones() as usize;
                let idx = w * 64 + bit;
                if idx >= self.slots {
                    return None;
                }
                *word |= 1u64 << bit;
                self.allocated += 1;
                return Some(idx);
            }
        }
        None
    }

    /// Mark a specific slot allocated (during recovery rebuild).
    ///
    /// # Panics
    /// Panics if the slot is out of range or already allocated.
    pub fn set_allocated(&mut self, idx: usize) {
        assert!(idx < self.slots, "slot {idx} out of range");
        let (w, b) = (idx / 64, idx % 64);
        assert_eq!(self.words[w] & (1 << b), 0, "slot {idx} already allocated");
        self.words[w] |= 1 << b;
        self.allocated += 1;
    }

    /// Release a slot.
    ///
    /// # Panics
    /// Panics if the slot is out of range or not allocated (double free).
    pub fn release(&mut self, idx: usize) {
        assert!(idx < self.slots, "slot {idx} out of range");
        let (w, b) = (idx / 64, idx % 64);
        assert_ne!(self.words[w] & (1 << b), 0, "double free of slot {idx}");
        self.words[w] &= !(1 << b);
        self.allocated -= 1;
    }

    /// Is the slot allocated?
    pub fn is_allocated(&self, idx: usize) -> bool {
        assert!(idx < self.slots);
        self.words[idx / 64] & (1 << (idx % 64)) != 0
    }
}

impl SegmentClass {
    /// Persisted class byte.
    pub fn as_byte(self) -> u8 {
        match self {
            SegmentClass::Log => 0,
            SegmentClass::Ebp => 1,
        }
    }

    /// Parse from the persisted byte.
    pub fn from_byte(b: u8) -> Option<SegmentClass> {
        match b {
            0 => Some(SegmentClass::Log),
            1 => Some(SegmentClass::Ebp),
            _ => None,
        }
    }
}

/// Encode a slot's persisted meta record:
/// `state (1) + class (1) + pad (6) + segment_id (8)`.
pub fn encode_slot_meta(
    state: SlotState,
    class: SegmentClass,
    segment_id: SegmentId,
) -> [u8; SLOT_META_SIZE as usize] {
    let mut buf = [0u8; SLOT_META_SIZE as usize];
    buf[0] = state as u8;
    buf[1] = class.as_byte();
    buf[8..16].copy_from_slice(&segment_id.to_le_bytes());
    buf
}

/// Decode a slot's persisted meta record.
pub fn decode_slot_meta(buf: &[u8]) -> Option<(SlotState, SegmentClass, SegmentId)> {
    let mut r = Reader::new(buf, "slot meta");
    let state = SlotState::from_byte(r.u8().ok()?)?;
    let class = SegmentClass::from_byte(r.u8().ok()?)?;
    r.take(6).ok()?;
    let id = r.u64().ok()?;
    // A record shorter than its slot is torn, whatever its reserved tail holds.
    r.take(SLOT_META_SIZE as usize - 16).ok()?;
    Some((state, class, id))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_fits_capacity() {
        let g = Geometry::for_capacity(1 << 20, 64 * 1024);
        assert!(g.slots >= 15);
        assert!(g.total_size() <= 1 << 20);
        assert_eq!(g.meta_offset(0), SUPERBLOCK_SIZE);
        assert_eq!(g.meta_offset(1), SUPERBLOCK_SIZE + SLOT_META_SIZE);
        assert_eq!(g.slot_offset(1) - g.slot_offset(0), 64 * 1024);
        assert!(g.slot_offset(0) >= g.data_base());
    }

    #[test]
    fn geometry_zero_slots_for_tiny_device() {
        let g = Geometry::for_capacity(1024, 64 * 1024);
        assert_eq!(g.slots, 0);
    }

    #[test]
    fn bitmap_alloc_release_cycle() {
        let mut bm = SlotBitmap::new(10);
        assert_eq!(bm.free(), 10);
        let a = bm.alloc().unwrap();
        let b = bm.alloc().unwrap();
        assert_ne!(a, b);
        assert!(bm.is_allocated(a));
        assert_eq!(bm.allocated(), 2);
        bm.release(a);
        assert!(!bm.is_allocated(a));
        // Lowest-free-first: released slot is reused.
        assert_eq!(bm.alloc().unwrap(), a);
    }

    #[test]
    fn bitmap_exhaustion() {
        let mut bm = SlotBitmap::new(3);
        for _ in 0..3 {
            assert!(bm.alloc().is_some());
        }
        assert!(bm.alloc().is_none());
        assert_eq!(bm.free(), 0);
    }

    #[test]
    fn bitmap_more_than_64_slots() {
        let mut bm = SlotBitmap::new(130);
        let all: Vec<usize> = (0..130).map(|_| bm.alloc().unwrap()).collect();
        assert_eq!(all.len(), 130);
        assert!(bm.alloc().is_none());
        bm.release(129);
        assert_eq!(bm.alloc().unwrap(), 129);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn bitmap_double_free_panics() {
        let mut bm = SlotBitmap::new(4);
        let a = bm.alloc().unwrap();
        bm.release(a);
        bm.release(a);
    }

    #[test]
    fn slot_meta_roundtrip() {
        let enc = encode_slot_meta(SlotState::Allocated, SegmentClass::Ebp, 0xDEAD_BEEF);
        let (state, class, id) = decode_slot_meta(&enc).unwrap();
        assert_eq!(state, SlotState::Allocated);
        assert_eq!(class, SegmentClass::Ebp);
        assert_eq!(id, 0xDEAD_BEEF);
        assert!(decode_slot_meta(&[0u8; 3]).is_none());
        assert!(decode_slot_meta(&[9u8; 16]).is_none()); // bad state byte
    }

    #[test]
    fn class_byte_roundtrip() {
        for c in [SegmentClass::Log, SegmentClass::Ebp] {
            assert_eq!(SegmentClass::from_byte(c.as_byte()), Some(c));
        }
        assert_eq!(SegmentClass::from_byte(9), None);
    }

    #[test]
    fn class_replication_defaults() {
        assert_eq!(SegmentClass::Log.default_replication(), 3);
        assert_eq!(SegmentClass::Ebp.default_replication(), 1);
    }
}
