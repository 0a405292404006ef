//! The heap SZ holds at its peak, counted by the allocator, at one thread:
//! a Lorenzo decode holds the decoded buffer, one window of Huffman shards
//! and the sweep's two planes, never a symbol or escape per element; a
//! compress holds the symbols, the escapes and the stream it writes, that
//! stream once. Its own binary, so no other test allocates while it counts.

use pressio_core::{Compressor, Options};
use pressio_lossless::huffman::ENC_SHARD;
use pressio_sz::SzCompressor;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

/// The system allocator, keeping count of the bytes live in the process and
/// of the most that were live since the count was last reset.
struct Counting;

static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

fn grew(bytes: usize, by: isize) {
    let live = LIVE.fetch_add(bytes as isize * by, Ordering::Relaxed) + bytes as isize * by;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

// SAFETY: every call is forwarded unchanged to `System`; the count is two
// atomic operations, which never allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size(), 1);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grew(layout.size(), 1);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let moved = System.realloc(ptr, layout, new_size);
        if !moved.is_null() {
            grew(new_size, 1);
            grew(layout.size(), -1);
        }
        moved
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        grew(layout.size(), -1);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The most bytes `f` held live at once beyond what was live before it,
/// and its result.
fn peak_of<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let out = f();
    ((PEAK.load(Ordering::Relaxed) - before) as usize, out)
}

#[test]
fn a_lorenzo_decode_holds_its_output_and_one_window_and_compress_its_stream_once() {
    const DIMS: [usize; 3] = [128, 128, 64];
    const KIB: usize = 1 << 10;
    let data = pressio_dataset::Hurricane::with_dims(DIMS[0], DIMS[1], DIMS[2], 1)
        .with_seed(3)
        .generate("P", 0);
    let mut sz = SzCompressor::new();
    sz.set_options(
        &Options::new()
            .with("sz3:predictor", "lorenzo")
            .with("pressio:abs", 1e-4)
            .with("pressio:nthreads", 1u64),
    )
    .unwrap();
    let n = data.num_elements();
    // warm: the band kernel's detection and anything else made once
    let warm = sz.compress(&data).unwrap();
    drop(sz.decompress(&warm, data.dtype(), &DIMS).unwrap());

    let (compress_peak, bytes) = peak_of(|| sz.compress(&data).unwrap());
    let (decompress_peak, decoded) =
        peak_of(|| sz.decompress(&bytes, data.dtype(), &DIMS).unwrap());
    let parsed = pressio_sz::codec::parse_par(&bytes, 1).unwrap();
    let escapes = parsed.unpredictable.len();
    assert!(escapes > 0, "the field must have escapes");
    assert_eq!(decoded.num_elements(), n);

    // the output, one shard of symbols at one thread, two f64 planes, and
    // 192 KiB for the code table (8 B a coded symbol) and the rest
    let output = n * 4;
    let window = ENC_SHARD * 4;
    let planes = 2 * DIMS[0] * DIMS[1] * 8;
    let decode_bound = output + window + planes + 192 * KIB;
    // the symbols, the escapes as f64 at their vector's capacity, the stream
    // once, the sweep's two planes, and 512 KiB for the histogram, the code
    // table and the LZSS trial's blocks
    let escape_bytes = escapes.next_power_of_two() * 8;
    let compress_bound = n * 4 + escape_bytes + bytes.len() + planes + 512 * KIB;
    println!(
        "{n} elements, {escapes} escapes, {} B stream: decompress peak {decompress_peak} B \
         (bound {decode_bound}), compress peak {compress_peak} B (bound {compress_bound})",
        bytes.len()
    );
    assert!(
        decompress_peak <= decode_bound,
        "decompress held {decompress_peak} B at its peak, bound {decode_bound}"
    );
    assert!(
        compress_peak <= compress_bound,
        "compress held {compress_peak} B at its peak, bound {compress_bound}"
    );
}
