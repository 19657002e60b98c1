//! Moving the measuring thread round the CPUs the process may use.
//!
//! On a shared host each CPU of the machine is slowed by its own neighbours:
//! the same single-threaded run on two CPUs at once has gone at ~7k and
//! ~12k updates/s side by side, with the slow and fast stretches falling at
//! different times on each.  A thread the scheduler leaves on one CPU then
//! measures that CPU's luck for the whole run.  Rotating it every few
//! seconds gives every run windows on every CPU, and the fast-side figures
//! (see `FAST` in `main.rs`) are read from the least disturbed of them.

/// Seconds the thread stays on one CPU.
const EVERY_S: f64 = 2.0;

/// Rotates the calling thread over the CPUs it was allowed at the start.
pub struct Rotation {
    cpus: Vec<usize>,
    next_at: f64,
    moves: usize,
}

impl Rotation {
    pub fn new() -> Self {
        Rotation {
            cpus: sys::allowed(),
            next_at: 0.0,
            moves: 0,
        }
    }

    /// Moves the thread to the next CPU when `elapsed` seconds into the
    /// measurement reach the next turn.
    pub fn tick(&mut self, elapsed: f64) {
        if self.cpus.len() < 2 || elapsed < self.next_at {
            return;
        }
        sys::pin(&[self.cpus[self.moves % self.cpus.len()]]);
        self.moves += 1;
        self.next_at += EVERY_S;
    }
}

impl Drop for Rotation {
    /// Gives the thread back every CPU it started with.
    fn drop(&mut self) {
        if self.moves > 0 {
            sys::pin(&self.cpus);
        }
    }
}

#[cfg(target_os = "linux")]
mod sys {
    /// `cpu_set_t`: 1024 bits.
    type Mask = [u64; 16];

    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
    }

    pub fn allowed() -> Vec<usize> {
        let mut mask: Mask = [0; 16];
        // SAFETY: `mask` is a writable buffer of the size passed.
        let ok = unsafe { sched_getaffinity(0, std::mem::size_of::<Mask>(), mask.as_mut_ptr()) };
        if ok != 0 {
            return Vec::new();
        }
        (0..1024)
            .filter(|&c| mask[c / 64] & (1 << (c % 64)) != 0)
            .collect()
    }

    pub fn pin(cpus: &[usize]) {
        let mut mask: Mask = [0; 16];
        for &c in cpus {
            mask[c / 64] |= 1 << (c % 64);
        }
        // SAFETY: `mask` is a readable buffer of the size passed; pid 0 is
        // the calling thread.  A refusal leaves the thread where it was.
        unsafe { sched_setaffinity(0, std::mem::size_of::<Mask>(), mask.as_ptr()) };
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    pub fn allowed() -> Vec<usize> {
        Vec::new()
    }

    pub fn pin(_: &[usize]) {}
}
