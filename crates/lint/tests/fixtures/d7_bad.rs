// Fixture: a process-global id counter and a lazily filled cache. The
// second build of a workload in one process numbers its objects
// differently from the first.
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};

static NEXT_ID: AtomicU64 = AtomicU64::new(1);

pub static SEEN: OnceLock<Mutex<Vec<u64>>> = OnceLock::new();

pub fn fresh_id() -> u64 {
    NEXT_ID.fetch_add(1, Ordering::Relaxed)
}
