//! A global allocator that can track the live-heap high-water mark.
//!
//! Per-pass memory growth (`engine.rss_growth_mib.<scheme>`) cannot be
//! read from the process's resident set: the schemes run one after
//! another in one process, and freed pages are not returned. So the
//! traced run switches this counter on and reads, per pass, how far the
//! live heap rose above its level at the pass's start. Untraced runs pay
//! one relaxed load per allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicIsize, Ordering::Relaxed};

/// Forwards to [`System`], counting bytes while [`enable`]d.
pub struct Counting;

static ON: AtomicBool = AtomicBool::new(false);
/// Live bytes relative to the last [`reset`]; negative when more was
/// freed than allocated since then.
static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

fn grow(by: usize) {
    let now = LIVE.fetch_add(by as isize, Relaxed) + by as isize;
    PEAK.fetch_max(now, Relaxed);
}

fn shrink(by: usize) {
    LIVE.fetch_sub(by as isize, Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's own pointer
// and layout, so `System` upholds the `GlobalAlloc` contract; the counting
// only touches atomics and never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `alloc` contract is passed on unchanged.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() && ON.load(Relaxed) {
            grow(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `alloc_zeroed` contract is passed on unchanged.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() && ON.load(Relaxed) {
            grow(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` (through this wrapper)
        // with `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) };
        if ON.load(Relaxed) {
            shrink(layout.size());
        }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: the caller's `realloc` contract is passed on unchanged.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() && ON.load(Relaxed) {
            if new_size >= layout.size() {
                grow(new_size - layout.size());
            } else {
                shrink(layout.size() - new_size);
            }
        }
        p
    }
}

/// Starts counting (used by traced runs only).
pub fn enable() {
    ON.store(true, Relaxed);
}

/// Makes the current live heap the zero level of the next [`peak_growth`].
pub fn reset() {
    LIVE.store(0, Relaxed);
    PEAK.store(0, Relaxed);
}

/// Bytes the live heap rose above its level at the last [`reset`].
pub fn peak_growth() -> usize {
    PEAK.load(Relaxed).max(0) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_a_live_allocation_and_forgets_it_after_free() {
        enable();
        reset();
        // Large against whatever other test threads free meanwhile.
        let v: Vec<u8> = Vec::with_capacity(64 << 20);
        assert!(peak_growth() >= 32 << 20);
        drop(v);
        // The peak stays; only the level falls.
        assert!(peak_growth() >= 32 << 20);
    }
}
