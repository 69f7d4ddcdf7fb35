//! Steady-state allocation test: once the first iterations have sized the
//! runtime's buffers, a static run allocates nothing per loop iteration.
//! Doubling the iteration count of a fixed-shape app must leave the number
//! of heap allocations unchanged.
//!
//! The counting allocator keeps its count per thread, so tests running in
//! parallel threads do not mix their counts.

use dynfb_sim::{run_app, LockId, Machine, OpSink, PlanEntry, RunConfig, SimApp};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Duration;

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with` fails only while the thread is being torn down.
    let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// only addition is a thread-local counter update, which does not allocate.
// The default `alloc_zeroed` and `realloc` go through `alloc`, so growth
// is counted too.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const LOCKS: usize = 3;

/// Every iteration has the same shape: two lock pairs around fixed
/// compute. Emission itself allocates nothing.
struct Fixed {
    iterations: usize,
    first: Option<LockId>,
}

impl SimApp for Fixed {
    fn name(&self) -> &str {
        "fixed"
    }
    fn setup(&mut self, machine: &mut Machine) {
        self.first = Some(machine.add_locks(LOCKS));
    }
    fn plan(&self) -> Vec<PlanEntry> {
        vec![PlanEntry::serial("init"), PlanEntry::parallel("work")]
    }
    fn versions(&self, _s: &str) -> Vec<String> {
        vec!["only".to_string()]
    }
    fn emit_serial(&mut self, _s: &str, ops: &mut OpSink) {
        ops.compute(Duration::from_micros(20));
    }
    fn begin_parallel(&mut self, _s: &str) -> usize {
        self.iterations
    }
    fn emit_iteration(&mut self, _s: &str, _v: usize, iter: usize, ops: &mut OpSink) {
        let first = self.first.expect("setup ran");
        for k in 0..2 {
            let lock = first.offset((iter + k) % LOCKS);
            ops.compute(Duration::from_micros(2));
            ops.acquire(lock);
            ops.compute(Duration::from_micros(1));
            ops.release(lock);
        }
    }
}

/// Heap allocations made on this thread by one static run of `iterations`.
fn allocations_for(iterations: usize, procs: usize) -> u64 {
    let app = Fixed { iterations, first: None };
    let cfg = RunConfig::fixed(procs, "only");
    let before = ALLOCATIONS.with(Cell::get);
    let report = run_app(app, &cfg).expect("runs");
    let after = ALLOCATIONS.with(Cell::get);
    assert_eq!(report.sections[1].iterations, iterations);
    after - before
}

#[test]
fn static_runs_allocate_nothing_per_iteration() {
    for procs in [1, 4] {
        // Warm up anything the first run on a thread sets up once.
        allocations_for(50, procs);
        let n = allocations_for(400, procs);
        let two_n = allocations_for(800, procs);
        assert!(n > 0, "the counting allocator saw nothing");
        assert_eq!(n, two_n, "{procs} procs: {n} allocations for N iterations, {two_n} for 2N");
    }
}
