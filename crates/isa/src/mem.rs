//! Sparse paged byte-addressable memory.
//!
//! This is the functional model's data memory, so every profile and every
//! recorded trace reads and writes through it once per dynamic load and
//! store. An access that stays inside one 4 KiB page costs one page
//! lookup and one slice copy; only an access that straddles a page
//! boundary falls back to byte-at-a-time.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

const PAGE_SHIFT: u32 = 12;
const PAGE_SIZE: usize = 1 << PAGE_SHIFT;
const PAGE_MASK: u64 = (PAGE_SIZE as u64) - 1;

/// A sparse, little-endian, byte-addressable memory.
///
/// Pages are allocated on first touch; reads of untouched memory return
/// zero. Accesses may straddle page boundaries.
///
/// ```
/// use mg_isa::Memory;
/// let mut m = Memory::new();
/// m.write_u64(0xffe, 0x1122_3344_5566_7788); // crosses a page boundary
/// assert_eq!(m.read_u64(0xffe), 0x1122_3344_5566_7788);
/// assert_eq!(m.read_u8(0x1000), 0x66);
/// assert_eq!(m.read_u32(0x5000), 0, "untouched memory reads zero");
/// ```
#[derive(Clone, Default)]
pub struct Memory {
    pages: HashMap<u64, Box<[u8; PAGE_SIZE]>, BuildHasherDefault<PageHasher>>,
}

/// The page map's hasher: one multiply by a 64-bit odd constant, then the
/// high half folded into the low half. The multiply alone would leave the
/// low bits of a page number's hash depending only on its own low bits,
/// and hashbrown picks buckets from the low bits, so pages of one aligned
/// region would pile into a few buckets; the fold gives every output bit
/// a share of every input bit. Page numbers come from the simulated
/// program, never from a remote client, so the map needs no defence
/// against chosen collisions (SipHash's reason to exist).
#[derive(Clone, Copy, Default)]
struct PageHasher(u64);

impl Hasher for PageHasher {
    #[inline]
    fn write_u64(&mut self, n: u64) {
        let x = (self.0 ^ n).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = x ^ (x >> 32);
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

impl Memory {
    /// Creates an empty memory.
    pub fn new() -> Memory {
        Memory::default()
    }

    /// Number of resident (touched) pages.
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }

    #[inline]
    fn page(&self, addr: u64) -> Option<&[u8; PAGE_SIZE]> {
        self.pages.get(&(addr >> PAGE_SHIFT)).map(|b| &**b)
    }

    #[inline]
    fn page_mut(&mut self, addr: u64) -> &mut [u8; PAGE_SIZE] {
        self.pages.entry(addr >> PAGE_SHIFT).or_insert_with(|| Box::new([0u8; PAGE_SIZE]))
    }

    /// Reads `N` bytes at `addr`: one page lookup and one copy when they
    /// lie in one page (an absent page reads zero), the byte path when
    /// they straddle two.
    #[inline]
    fn read_array<const N: usize>(&self, addr: u64) -> [u8; N] {
        let mut b = [0u8; N];
        let off = (addr & PAGE_MASK) as usize;
        if off + N <= PAGE_SIZE {
            if let Some(p) = self.page(addr) {
                b.copy_from_slice(&p[off..off + N]);
            }
        } else {
            self.read_bytes(addr, &mut b);
        }
        b
    }

    /// Writes `b` at `addr`, allocating exactly the pages the byte path
    /// would: one for an in-page access, two for a straddling one.
    #[inline]
    fn write_array<const N: usize>(&mut self, addr: u64, b: [u8; N]) {
        let off = (addr & PAGE_MASK) as usize;
        if off + N <= PAGE_SIZE {
            self.page_mut(addr)[off..off + N].copy_from_slice(&b);
        } else {
            self.write_bytes(addr, &b);
        }
    }

    /// Reads one byte.
    #[inline]
    pub fn read_u8(&self, addr: u64) -> u8 {
        match self.page(addr) {
            Some(p) => p[(addr & PAGE_MASK) as usize],
            None => 0,
        }
    }

    /// Writes one byte.
    #[inline]
    pub fn write_u8(&mut self, addr: u64, val: u8) {
        self.page_mut(addr)[(addr & PAGE_MASK) as usize] = val;
    }

    /// Reads `buf.len()` bytes starting at `addr`.
    pub fn read_bytes(&self, addr: u64, buf: &mut [u8]) {
        for (i, b) in buf.iter_mut().enumerate() {
            *b = self.read_u8(addr.wrapping_add(i as u64));
        }
    }

    /// Writes `buf` starting at `addr`.
    pub fn write_bytes(&mut self, addr: u64, buf: &[u8]) {
        for (i, &b) in buf.iter().enumerate() {
            self.write_u8(addr.wrapping_add(i as u64), b);
        }
    }

    /// Reads a little-endian `u16`.
    #[inline]
    pub fn read_u16(&self, addr: u64) -> u16 {
        u16::from_le_bytes(self.read_array(addr))
    }

    /// Reads a little-endian `u32`.
    #[inline]
    pub fn read_u32(&self, addr: u64) -> u32 {
        u32::from_le_bytes(self.read_array(addr))
    }

    /// Reads a little-endian `u64`.
    #[inline]
    pub fn read_u64(&self, addr: u64) -> u64 {
        u64::from_le_bytes(self.read_array(addr))
    }

    /// Writes a little-endian `u16`.
    #[inline]
    pub fn write_u16(&mut self, addr: u64, val: u16) {
        self.write_array(addr, val.to_le_bytes());
    }

    /// Writes a little-endian `u32`.
    #[inline]
    pub fn write_u32(&mut self, addr: u64, val: u32) {
        self.write_array(addr, val.to_le_bytes());
    }

    /// Writes a little-endian `u64`.
    #[inline]
    pub fn write_u64(&mut self, addr: u64, val: u64) {
        self.write_array(addr, val.to_le_bytes());
    }

    /// A deterministic FNV-1a hash of the memory *contents*: resident
    /// pages in ascending address order, all-zero pages skipped (so a
    /// touched-but-zero page hashes identically to an untouched one).
    /// The artifact cache folds this into a workload's fingerprint to
    /// invalidate cached selections/traces when only the initial data
    /// image changes.
    pub fn content_hash(&self) -> u64 {
        let mut indices: Vec<u64> = self.pages.keys().copied().collect();
        indices.sort_unstable();
        let mut h = crate::wire::FNV_OFFSET_BASIS;
        for idx in indices {
            let page = &self.pages[&idx];
            if page.iter().all(|&b| b == 0) {
                continue;
            }
            h = crate::wire::fnv1a_extend(h, &idx.to_le_bytes());
            h = crate::wire::fnv1a_extend(h, &page[..]);
        }
        h
    }

    /// Reads `width` bytes (1, 2, 4, or 8) zero-extended into a `u64`.
    ///
    /// # Panics
    ///
    /// Panics if `width` is not 1, 2, 4, or 8.
    #[inline]
    pub fn read_uint(&self, addr: u64, width: u8) -> u64 {
        match width {
            1 => self.read_u8(addr) as u64,
            2 => self.read_u16(addr) as u64,
            4 => self.read_u32(addr) as u64,
            8 => self.read_u64(addr),
            _ => panic!("unsupported access width {width}"),
        }
    }

    /// Writes the low `width` bytes (1, 2, 4, or 8) of `val`.
    ///
    /// # Panics
    ///
    /// Panics if `width` is not 1, 2, 4, or 8.
    #[inline]
    pub fn write_uint(&mut self, addr: u64, width: u8, val: u64) {
        match width {
            1 => self.write_u8(addr, val as u8),
            2 => self.write_u16(addr, val as u16),
            4 => self.write_u32(addr, val as u32),
            8 => self.write_u64(addr, val),
            _ => panic!("unsupported access width {width}"),
        }
    }
}

impl std::fmt::Debug for Memory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Memory").field("resident_pages", &self.pages.len()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn content_hash_tracks_data_not_residency() {
        let empty = Memory::new();
        let mut zeroed = Memory::new();
        zeroed.write_u64(0x1000, 0); // touched but still all-zero
        assert_eq!(empty.content_hash(), zeroed.content_hash());

        let mut a = Memory::new();
        a.write_u64(0x2000, 7);
        let mut b = Memory::new();
        b.write_u64(0x2000, 8);
        assert_ne!(a.content_hash(), b.content_hash(), "data keys the hash");
        assert_ne!(a.content_hash(), empty.content_hash());
        let mut moved = Memory::new();
        moved.write_u64(0x3000, 7); // same value, different page
        assert_ne!(a.content_hash(), moved.content_hash(), "address keys the hash");
        assert_eq!(a.content_hash(), a.clone().content_hash(), "deterministic");
    }

    #[test]
    fn zero_fill_semantics() {
        let m = Memory::new();
        assert_eq!(m.read_u64(0), 0);
        assert_eq!(m.read_u8(u64::MAX), 0);
        assert_eq!(m.resident_pages(), 0);
    }

    #[test]
    fn round_trip_widths() {
        let mut m = Memory::new();
        m.write_u8(10, 0xab);
        m.write_u16(20, 0xbeef);
        m.write_u32(30, 0xdead_beef);
        m.write_u64(40, 0x0123_4567_89ab_cdef);
        assert_eq!(m.read_u8(10), 0xab);
        assert_eq!(m.read_u16(20), 0xbeef);
        assert_eq!(m.read_u32(30), 0xdead_beef);
        assert_eq!(m.read_u64(40), 0x0123_4567_89ab_cdef);
    }

    #[test]
    fn little_endian_layout() {
        let mut m = Memory::new();
        m.write_u32(0x100, 0x0403_0201);
        assert_eq!(m.read_u8(0x100), 1);
        assert_eq!(m.read_u8(0x103), 4);
    }

    #[test]
    fn cross_page_access() {
        let mut m = Memory::new();
        let addr = (1 << PAGE_SHIFT) - 3;
        m.write_u64(addr, 0x1122_3344_5566_7788);
        assert_eq!(m.read_u64(addr), 0x1122_3344_5566_7788);
        assert_eq!(m.resident_pages(), 2);
    }

    /// Reads `width` bytes at `addr` one byte at a time (the reference
    /// the in-page fast path must match).
    fn bytewise_read(m: &Memory, addr: u64, width: u8) -> u64 {
        (0..u64::from(width))
            .map(|i| u64::from(m.read_u8(addr.wrapping_add(i))) << (8 * i))
            .fold(0, |acc, b| acc | b)
    }

    fn bytewise_write(m: &mut Memory, addr: u64, width: u8, val: u64) {
        for i in 0..u64::from(width) {
            m.write_u8(addr.wrapping_add(i), (val >> (8 * i)) as u8);
        }
    }

    /// A memory whose bytes around the first page boundary are all
    /// distinct and non-zero.
    fn patterned() -> Memory {
        let mut m = Memory::new();
        for a in 0..(2 * PAGE_SIZE as u64) {
            m.write_u8(a, (a.wrapping_mul(151) % 255 + 1) as u8);
        }
        m
    }

    /// Page-crossing starts (4088..=4095) plus a sample of in-page ones.
    fn offsets() -> impl Iterator<Item = u64> {
        (4088..4096).chain([0, 1, 3, 7, 8, 100, 2047, 4080, 4087])
    }

    #[test]
    fn fast_path_reads_match_bytewise() {
        let m = patterned();
        for width in [1u8, 2, 4, 8] {
            for addr in offsets() {
                assert_eq!(
                    m.read_uint(addr, width),
                    bytewise_read(&m, addr, width),
                    "read of width {width} at {addr:#x}"
                );
            }
        }
        assert_eq!(m.read_u16(0x123), u16::from_le_bytes([m.read_u8(0x123), m.read_u8(0x124)]));
        assert_eq!(m.read_u32(0xffe) as u64, bytewise_read(&m, 0xffe, 4));
        assert_eq!(m.read_u64(0xffd), bytewise_read(&m, 0xffd, 8));
    }

    #[test]
    fn fast_path_writes_match_bytewise() {
        let val = 0x8877_6655_4433_2211u64;
        for width in [1u8, 2, 4, 8] {
            for addr in offsets() {
                let mut fast = patterned();
                let mut slow = patterned();
                fast.write_uint(addr, width, val);
                bytewise_write(&mut slow, addr, width, val);
                assert_eq!(fast.resident_pages(), slow.resident_pages());
                for a in addr.saturating_sub(8)..addr + 16 {
                    assert_eq!(
                        fast.read_u8(a),
                        slow.read_u8(a),
                        "byte {a:#x} after a width-{width} write at {addr:#x}"
                    );
                }
            }
        }
    }

    #[test]
    fn untouched_reads_allocate_nothing() {
        let m = Memory::new();
        for width in [1u8, 2, 4, 8] {
            for addr in offsets().chain([0x7fff_fff8, u64::MAX - 7, u64::MAX - 3]) {
                assert_eq!(m.read_uint(addr, width), 0);
            }
        }
        assert_eq!(m.resident_pages(), 0, "zero-fill reads never allocate");
    }

    #[test]
    fn page_crossing_write_makes_two_pages_resident() {
        for width in [2u8, 4, 8] {
            for addr in 4096 - u64::from(width) + 1..4096 {
                let mut m = Memory::new();
                m.write_uint(addr, width, u64::MAX);
                assert_eq!(m.resident_pages(), 2, "width {width} at {addr:#x}");
            }
            let mut m = Memory::new();
            m.write_uint(4096 - u64::from(width), width, u64::MAX);
            assert_eq!(m.resident_pages(), 1, "an in-page write allocates one page");
        }
    }

    /// Aligned page numbers (the pages of one 1 MiB-strided region) must
    /// spread over the low hash bits hashbrown takes its bucket from; a
    /// bare multiply would map all of them to bucket 0.
    #[test]
    fn page_hasher_spreads_aligned_pages_over_low_bits() {
        let buckets: std::collections::BTreeSet<u64> = (0..64u64)
            .map(|k| {
                let mut h = PageHasher::default();
                h.write_u64(k << 8);
                h.finish() & 63
            })
            .collect();
        assert!(
            buckets.len() >= 32,
            "64 aligned pages hit only {} of 64 buckets",
            buckets.len()
        );
    }

    /// Cache keys fold `content_hash` in, so its value for a fixed image
    /// is pinned: no change to the page map or its hasher may move it.
    #[test]
    fn content_hash_of_a_fixed_image_is_pinned() {
        let mut m = Memory::new();
        for i in 0..512u64 {
            m.write_u64(0x10_0000 + 8 * i, i.wrapping_mul(0x9e37_79b9_7f4a_7c15));
        }
        m.write_u32(0xffe, 0xdead_beef); // straddles pages 0 and 1
        m.write_u8(0x7fff_0000, 0x5a);
        m.write_u64(0x4000, 0); // resident but all zero: skipped
        assert_eq!(m.content_hash(), CONTENT_HASH_PIN);
    }

    /// `content_hash` of the image above, as the SipHash page map
    /// computed it.
    const CONTENT_HASH_PIN: u64 = 0x60d0_8ac6_d8e4_e8ce;

    #[test]
    fn generic_width_accessors() {
        let mut m = Memory::new();
        m.write_uint(0, 2, 0xffff_abcd);
        assert_eq!(m.read_uint(0, 2), 0xabcd);
        assert_eq!(m.read_uint(0, 4), 0xabcd);
        m.write_uint(8, 8, u64::MAX);
        assert_eq!(m.read_uint(8, 1), 0xff);
    }
}
