//! Test-only helpers shared by the decoder robustness tests of this crate:
//! an allocation probe installed as the unit-test binary's global
//! allocator, and the payload mutator the mutation proptests feed through
//! every decoder of bytes from another process or from disk.

/// Largest single allocation made on the current thread while a closure
/// runs — the probe behind "a decoder never reserves more than its
/// payload".
pub(crate) mod alloc_probe {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    thread_local! {
        static LARGEST: Cell<usize> = const { Cell::new(0) };
    }

    fn note(size: usize) {
        let _ = LARGEST.try_with(|m| m.set(m.get().max(size)));
    }

    pub struct Probe;

    // SAFETY: every method forwards to the system allocator with the
    // caller's arguments unchanged; the only addition is a thread-local
    // high-water mark of requested sizes, which never allocates.
    unsafe impl GlobalAlloc for Probe {
        // SAFETY: same contract as `GlobalAlloc::alloc`, forwarded.
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            note(layout.size());
            // SAFETY: the caller upholds `alloc`'s contract.
            unsafe { System.alloc(layout) }
        }

        // SAFETY: same contract as `GlobalAlloc::alloc_zeroed`, forwarded.
        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            note(layout.size());
            // SAFETY: the caller upholds `alloc_zeroed`'s contract.
            unsafe { System.alloc_zeroed(layout) }
        }

        // SAFETY: same contract as `GlobalAlloc::dealloc`, forwarded.
        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            // SAFETY: `ptr` came from this allocator, i.e. from `System`.
            unsafe { System.dealloc(ptr, layout) }
        }

        // SAFETY: same contract as `GlobalAlloc::realloc`, forwarded.
        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            note(new_size);
            // SAFETY: `ptr` came from `System` with `layout`.
            unsafe { System.realloc(ptr, layout, new_size) }
        }
    }

    /// Runs `f`, returning its result and the largest allocation it made.
    pub fn largest_during<R>(f: impl FnOnce() -> R) -> (R, usize) {
        LARGEST.with(|m| m.set(0));
        let r = f();
        (r, LARGEST.with(Cell::get))
    }
}

#[global_allocator]
static PROBE: alloc_probe::Probe = alloc_probe::Probe;

/// The allowed ratio of a decoder's largest allocation to its payload.
/// Decoded forms may outgrow their wire form — at worst a 24-byte `Vec`
/// per 8-byte count word (empty merge-tree levels) — but no allocation
/// may be sized by an unchecked count.
pub(crate) const ALLOC_RATIO: usize = 3;
/// Error messages may allocate a little even for a tiny payload.
pub(crate) const ALLOC_SLACK: usize = 1024;

/// Flips a byte anywhere, flips a byte of the first 8 words (where
/// every decoder reads its leading counts), truncates, or appends
/// words, by `op`.
pub(crate) fn mutate(payload: &[u8], op: u64, at: u64, noise: u64) -> Vec<u8> {
    let mut out = payload.to_vec();
    match op % 4 {
        0 | 3 if !out.is_empty() => {
            let span = if op % 4 == 3 { out.len().min(64) } else { out.len() };
            let i = (at % span as u64) as usize;
            out[i] ^= (noise as u8).max(1);
        }
        1 => out.truncate((at % (out.len() as u64 + 1)) as usize),
        _ => {
            for k in 0..=noise % 8 {
                out.extend_from_slice(&noise.rotate_left(8 * k as u32).to_le_bytes());
            }
        }
    }
    out
}
