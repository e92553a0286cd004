//! Calibrated timing for a shared host.
//!
//! Other tenants of a shared host slow everything this process does by up
//! to 2x, for stretches of many seconds: a fixed CPU loop pinned to one core
//! measured 0.42 s and 0.61 s minutes apart, and whole 20-second runs of
//! one input set came out 35% slower than others. Raw wall times then
//! spread across runs by far more than any change worth detecting. So every
//! timed operation is bracketed by a fixed calibration kernel, and its time
//! is reported scaled to a host on which that kernel takes
//! [`REFERENCE_KERNEL_MS`]: `wall × REFERENCE_KERNEL_MS / kernel`, where
//! `kernel` is the mean of the kernel runs just before and just after the
//! operation. The kernel does the kind of work the engine does (string
//! values, hashing, sorting), so the two slow down roughly alike: the
//! correction is close on `dense-probe` and `serve-exhaustive` and partial
//! on `flood-chain`, whose witness searches suffer more from a busy host.

use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Kernel time the scaled figures assume.
pub const REFERENCE_KERNEL_MS: f64 = 1.0;

/// Distinct keys the kernel builds, hashes and sorts (about 1 ms of work).
const KERNEL_KEYS: u64 = 3_000;

fn kernel() -> u64 {
    let mut index = HashMap::new();
    let mut keys = Vec::with_capacity(KERNEL_KEYS as usize);
    for i in 0..KERNEL_KEYS {
        let key = format!("key{}", i.wrapping_mul(2_654_435_761) % 100_000);
        index.insert(key.clone(), i);
        keys.push(key);
    }
    keys.sort();
    keys.iter().map(|key| index[key]).sum()
}

/// Wall time of one kernel run, in ms.
pub fn kernel_ms() -> f64 {
    let start = Instant::now();
    std::hint::black_box(kernel());
    start.elapsed().as_secs_f64() * 1e3
}

/// One operation's output and the kernel time measured around it.
pub struct Op<T> {
    pub out: T,
    pub kernel_ms: f64,
}

impl<T> Op<T> {
    /// `ms` measured during this operation, scaled to the reference host.
    pub fn scaled(&self, ms: f64) -> f64 {
        ms * REFERENCE_KERNEL_MS / self.kernel_ms
    }
}

/// Whole passes of `op` over `0..n` until `seconds` have elapsed: one
/// client, each operation issued when the previous one returned. A kernel
/// run separates consecutive operations.
pub fn closed_loop<T>(n: usize, seconds: u64, mut op: impl FnMut(usize) -> T) -> Vec<Op<T>> {
    let deadline = Duration::from_secs(seconds);
    let start = Instant::now();
    let mut ops = Vec::new();
    let mut before = kernel_ms();
    while start.elapsed() < deadline {
        for i in 0..n {
            let out = op(i);
            let after = kernel_ms();
            ops.push(Op {
                out,
                kernel_ms: (before + after) / 2.0,
            });
            before = after;
        }
    }
    ops
}

/// Accumulates scaled time over a sequence of steps, each bracketed by
/// kernel runs, so a multi-second set-up is scaled by the host's speed
/// during each of its steps.
pub struct Stopwatch {
    scaled_secs: f64,
    before: f64,
}

impl Stopwatch {
    fn new() -> Self {
        Self {
            scaled_secs: 0.0,
            before: kernel_ms(),
        }
    }

    /// Runs one step and adds its scaled time.
    pub fn time<R>(&mut self, step: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = step();
        let wall = start.elapsed().as_secs_f64();
        let after = kernel_ms();
        self.scaled_secs += wall * REFERENCE_KERNEL_MS / ((self.before + after) / 2.0);
        self.before = after;
        out
    }
}

/// Runs `setup` `reps` times; returns the last result and the median of
/// the scaled set-up times, in seconds. `setup` times its steps on the
/// [`Stopwatch`] it is handed.
pub fn timed_setup<T>(reps: usize, mut setup: impl FnMut(&mut Stopwatch) -> T) -> (T, f64) {
    let mut last = None;
    let mut secs = Vec::new();
    for _ in 0..reps {
        let mut watch = Stopwatch::new();
        last = Some(setup(&mut watch));
        secs.push(watch.scaled_secs);
    }
    (
        last.expect("at least one set-up"),
        crate::metrics::median(&secs),
    )
}
