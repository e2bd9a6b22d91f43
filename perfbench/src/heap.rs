//! A counting global allocator: heap bytes in use and their peak since the
//! last reset. Peak resident-set figures from the kernel swing with the C
//! allocator's per-thread arenas; the heap the program asks for does not.
//!
//! The benchmark's own input buffers are not counted: [`exclude`] takes a
//! buffer out of the count until it is freed, by whichever code frees it.
//! A trace handed to the service is therefore uncounted for exactly as long
//! as it lives, and the count sees everything else the service allocates.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct Counting;

/// Heap bytes in use, less the excluded buffers still alive.
static COUNTED: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// Open-addressing table of the excluded buffers still alive: start
/// address and excluded bytes per slot. A slot whose buffer was freed holds
/// [`FREED`] and may be reused.
const SLOTS: usize = 1 << 13;
const FREED: usize = 1;
static ADDRS: [AtomicUsize; SLOTS] = [const { AtomicUsize::new(0) }; SLOTS];
static BYTES: [AtomicUsize; SLOTS] = [const { AtomicUsize::new(0) }; SLOTS];
/// Excluded buffers still alive; 0 skips the table lookup on every free.
static LIVE: AtomicUsize = AtomicUsize::new(0);

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn grew(bytes: usize) {
    let now = COUNTED.fetch_add(bytes, Ordering::Relaxed) + bytes;
    PEAK.fetch_max(now, Ordering::Relaxed);
}

fn home_slot(addr: usize) -> usize {
    (addr >> 4).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (usize::BITS - SLOTS.trailing_zeros())
}

/// The slot holding `addr`, if it is an excluded buffer still alive. Slots
/// never return to 0, so a probe that meets 0 has passed every slot `addr`
/// could have been put in.
fn slot_of(addr: usize) -> Option<usize> {
    let mut slot = home_slot(addr);
    for _ in 0..SLOTS {
        match ADDRS[slot].load(Ordering::Acquire) {
            0 => return None,
            a if a == addr => return Some(slot),
            _ => slot = (slot + 1) % SLOTS,
        }
    }
    None
}

/// Removes `addr` from the table if it is an excluded buffer and returns
/// the bytes that were excluded.
fn forget(addr: usize) -> Option<usize> {
    if LIVE.load(Ordering::Acquire) == 0 {
        return None;
    }
    let slot = slot_of(addr)?;
    let bytes = BYTES[slot].load(Ordering::Relaxed);
    ADDRS[slot].store(FREED, Ordering::Release);
    LIVE.fetch_sub(1, Ordering::AcqRel);
    Some(bytes)
}

/// A block of `size` bytes at `addr` leaves the heap. Called while the
/// block is still allocated, so no other allocation can have its address.
fn released(addr: usize, size: usize) {
    // An excluded buffer's excluded bytes already left the count.
    let uncounted = forget(addr).unwrap_or(0);
    COUNTED.fetch_sub(size.saturating_sub(uncounted), Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counters and the
// table are plain statistics and never influence an allocation.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded as is; the caller upholds `alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded as is; the caller upholds `alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        released(ptr as usize, layout.size());
        // SAFETY: forwarded as is; `ptr` came from this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) };
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        released(ptr as usize, layout.size());
        // SAFETY: forwarded as is; the caller upholds `realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        // On failure the old block stays allocated, and counted in full.
        grew(if p.is_null() { layout.size() } else { new_size });
        p
    }
}

/// Stops counting `buf`, an input the benchmark generated, until its
/// allocation is freed. `buf` must start its allocation (a whole `Vec`'s
/// contents); bytes of the allocation past `buf` stay counted.
pub fn exclude(buf: &[f32]) {
    let (addr, bytes) = (buf.as_ptr() as usize, std::mem::size_of_val(buf));
    if bytes == 0 {
        return;
    }
    let mut slot = home_slot(addr);
    for _ in 0..SLOTS {
        let a = ADDRS[slot].load(Ordering::Acquire);
        if (a == 0 || a == FREED)
            && ADDRS[slot].compare_exchange(a, addr, Ordering::AcqRel, Ordering::Acquire).is_ok()
        {
            BYTES[slot].store(bytes, Ordering::Relaxed);
            LIVE.fetch_add(1, Ordering::AcqRel);
            COUNTED.fetch_sub(bytes, Ordering::Relaxed);
            return;
        }
        slot = (slot + 1) % SLOTS;
    }
    panic!("more than {SLOTS} excluded input buffers alive at once");
}

/// Starts a new peak window at the current count.
pub fn reset_peak() {
    PEAK.store(COUNTED.load(Ordering::Relaxed), Ordering::Relaxed);
}

/// Highest count since the last [`reset_peak`], in bytes.
pub fn peak() -> usize {
    PEAK.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_tracks_a_live_allocation() {
        reset_peak();
        let before = peak();
        let block = vec![1u8; 1 << 20];
        assert!(peak() >= before + (1 << 20));
        drop(block);
        assert!(peak() >= before + (1 << 20), "the peak outlives the allocation");
    }

    #[test]
    fn an_excluded_buffer_is_forgotten_when_freed() {
        let buf = vec![0.5f32; 1 << 16];
        let addr = buf.as_ptr() as usize;
        exclude(&buf);
        // Moving the buffer (as into a service request) keeps its entry.
        let moved = buf;
        assert_eq!(moved.as_ptr() as usize, addr);
        assert!(slot_of(addr).is_some());
        drop(moved);
        assert_eq!(slot_of(addr), None, "the free clears the entry");
    }
}
