//! Thread placement: the serve path on one CPU, the engine's workers on
//! the others.
//!
//! Left to the scheduler, where the threads of a fresh server settled
//! held for the whole run and decided its speed: whether a finished
//! response was picked up by the next request's wake-up or waited out the
//! reactor's poll cap, and whether the engine's workers took CPU time
//! from the serve path. On a 2-vCPU machine `cold` ran at either ~62 or
//! ~95 ops/s and `warm` at ~80 or ~110, per run, at random. Placing the
//! threads by role makes the level the same in every run.
//!
//! The main thread is pinned to the serve CPU first, so every thread it
//! spawns afterwards (the server's reactor and handlers, the client
//! threads) inherits that placement; [`place_engine_workers`] then moves
//! the engine's simulation workers to the other CPUs. Threads are
//! recognised by the names the service gives them.

use std::os::raw::{c_int, c_ulong};
use std::time::{Duration, Instant};

/// CPUs a [`CpuSet`] can name.
const MAX_CPUS: usize = 1024;
const WORDS: usize = MAX_CPUS / (8 * std::mem::size_of::<c_ulong>());
/// Kernel thread names (15 bytes at most) of the engine's workers.
const ENGINE_WORKER_PREFIX: &str = "aid-engine-work";

extern "C" {
    fn sched_getaffinity(pid: c_int, size: usize, mask: *mut c_ulong) -> c_int;
    fn sched_setaffinity(pid: c_int, size: usize, mask: *const c_ulong) -> c_int;
}

/// A set of CPUs, laid out as the kernel's `cpu_set_t`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CpuSet([c_ulong; WORDS]);

impl CpuSet {
    const BITS: usize = 8 * std::mem::size_of::<c_ulong>();

    /// The set holding only `cpu`.
    pub fn single(cpu: usize) -> CpuSet {
        let mut words = [0; WORDS];
        words[cpu / Self::BITS] = 1 << (cpu % Self::BITS);
        CpuSet(words)
    }

    /// The lowest CPU in the set.
    pub fn first(&self) -> Option<usize> {
        self.0
            .iter()
            .enumerate()
            .find(|(_, w)| **w != 0)
            .map(|(i, w)| i * Self::BITS + w.trailing_zeros() as usize)
    }

    /// The set without `cpu`.
    pub fn without(mut self, cpu: usize) -> CpuSet {
        self.0[cpu / Self::BITS] &= !(1 << (cpu % Self::BITS));
        self
    }

    /// How many CPUs the set holds.
    pub fn len(&self) -> usize {
        self.0.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set holds no CPU.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The CPUs thread `tid` (0: the calling thread) may run on.
    fn of(tid: c_int) -> Option<CpuSet> {
        let mut set = CpuSet([0; WORDS]);
        // SAFETY: the mask buffer is exactly `size` bytes and writable.
        let rc =
            unsafe { sched_getaffinity(tid, std::mem::size_of_val(&set.0), set.0.as_mut_ptr()) };
        (rc == 0).then_some(set)
    }

    /// Restricts thread `tid` (0: the calling thread) to this set.
    fn apply(&self, tid: c_int) -> bool {
        // SAFETY: the mask buffer is exactly `size` bytes.
        unsafe { sched_setaffinity(tid, std::mem::size_of_val(&self.0), self.0.as_ptr()) == 0 }
    }
}

/// The placement of one run.
#[derive(Clone, Copy, Debug)]
pub struct Placement {
    /// The CPU the serve path runs on.
    pub serve: usize,
    /// The CPUs the engine's workers run on: every other CPU the process
    /// was allowed at start, or the serve CPU when there is no other.
    pub engine: CpuSet,
}

/// Pins the calling thread, and so every thread it spawns from now on,
/// to the lowest CPU the process may use. `None` when the kernel refuses,
/// in which case nothing changed.
pub fn pin_serve_path() -> Option<Placement> {
    let all = CpuSet::of(0)?;
    let serve = all.first()?;
    let others = all.without(serve);
    let engine = if others.is_empty() { all } else { others };
    CpuSet::single(serve)
        .apply(0)
        .then_some(Placement { serve, engine })
}

/// Moves the engine's worker threads to the engine CPUs of `placement`,
/// waiting up to a second for `expected` of them to appear: a new thread
/// takes its name only once it runs. Returns how many it moved.
pub fn place_engine_workers(placement: &Placement, expected: usize) -> usize {
    let deadline = Instant::now() + Duration::from_secs(1);
    loop {
        let moved = engine_workers()
            .into_iter()
            .filter(|&tid| placement.engine.apply(tid))
            .count();
        if moved >= expected || Instant::now() >= deadline {
            return moved;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Thread ids of the process's engine workers, as far as they have taken
/// their name yet.
fn engine_workers() -> Vec<c_int> {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    tasks
        .flatten()
        .filter(|task| {
            std::fs::read_to_string(task.path().join("comm"))
                .is_ok_and(|name| name.starts_with(ENGINE_WORKER_PREFIX))
        })
        .filter_map(|task| task.file_name().to_str()?.parse().ok())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_cpu_sets() {
        for cpu in [0, 1, 63, 64, 130] {
            let set = CpuSet::single(cpu);
            assert_eq!(set.first(), Some(cpu));
            assert_eq!(set.len(), 1);
            assert!(set.without(cpu).is_empty());
            assert_eq!(set.without(cpu + 1), set);
        }
        assert!(CpuSet([0; WORDS]).is_empty());
        assert_eq!(CpuSet([0; WORDS]).first(), None);
    }

    #[test]
    fn the_process_has_a_cpu() {
        let all = CpuSet::of(0).expect("sched_getaffinity");
        assert!(!all.is_empty());
        assert!(all.first().is_some());
    }
}
