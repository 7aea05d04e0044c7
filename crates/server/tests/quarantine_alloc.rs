//! The quarantine check runs before every guarded fetch, so it must not
//! allocate: a counting global allocator measures the bytes each lookup
//! asks for on the calling thread, with the set empty, holding another
//! relation's page, and holding pages of the queried relation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::hint::black_box;

use cure_query::PageQuarantine;
use cure_serve::QuarantineSet;

struct CountingAlloc;

thread_local! {
    static ALLOCATED: Cell<u64> = const { Cell::new(0) };
}

fn count(bytes: usize) {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = ALLOCATED.try_with(|a| a.set(a.get() + bytes as u64));
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; counting touches only a
// const-initialized thread-local cell, which never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds this method's contract; forwarded as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds this method's contract; forwarded as is.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: the caller upholds this method's contract; forwarded as is.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds this method's contract; forwarded as is.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Bytes allocated on this thread while `f` runs.
fn allocated_by(f: impl FnOnce()) -> u64 {
    let before = ALLOCATED.with(Cell::get);
    f();
    ALLOCATED.with(Cell::get) - before
}

/// Every lookup shape against `q`, through both entry points, many times.
fn lookups(q: &QuarantineSet) {
    for page in 0..1_000u64 {
        black_box(q.contains(black_box("facts"), black_box(page)));
        black_box(q.is_quarantined(black_box("facts"), black_box(page)));
        black_box(q.contains(black_box("cube_aggregates"), black_box(page)));
    }
}

#[test]
fn quarantine_lookups_allocate_nothing() {
    // The counter really sees this thread's allocations.
    assert!(allocated_by(|| drop(black_box(String::from("facts")))) > 0);

    let q = QuarantineSet::new();
    assert_eq!(allocated_by(|| lookups(&q)), 0, "empty set");

    q.insert("cube_n3_nt", 7);
    assert!(!q.contains("facts", 7));
    assert_eq!(allocated_by(|| lookups(&q)), 0, "set holding another relation's page");

    q.insert("facts", 7);
    q.insert("facts", 9);
    assert!(q.contains("facts", 7) && q.is_quarantined("facts", 9));
    assert_eq!(allocated_by(|| lookups(&q)), 0, "set holding the queried relation");
}
