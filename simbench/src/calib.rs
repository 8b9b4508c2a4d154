//! Host-speed calibration for the end-to-end timings.
//!
//! A shared host runs this process faster or slower from one second to
//! the next, by far more than the bounds the benchmark sets: other
//! tenants' work on the same cores slows a pass by up to 2x. A
//! [`Sampler`] thread measures that speed while a pass runs. Every
//! [`INTERVAL`] it wakes, runs one fixed slice of [`kernel`] (a small
//! branchy bytecode interpreter, about a millisecond) and records the
//! slice's own CPU time. `run.py` pins the whole process to one CPU, so
//! the slices run on the core the measured work runs on, in between its
//! steps. A pass's time divided by the median slice of that pass, times a
//! fixed reference slice, is the pass's time on a host of the reference
//! speed: `run.py` reports that.
//!
//! Times here are CPU times (`clock_gettime`), so time the hypervisor
//! gives to other guests (steal) counts in neither the work nor the
//! slices. [`Sampler::busy_s`] is the process's CPU time minus the
//! sampler thread's.

use std::os::unix::thread::JoinHandleExt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Time between two calibration slices.
pub const INTERVAL: Duration = Duration::from_millis(20);

/// Interpreter steps in one calibration slice.
pub const SLICE_STEPS: u64 = 60_000;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn pthread_getcpuclockid(thread: std::os::unix::thread::RawPthread, clock: *mut i32) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn cpu_clock_s(clock: i32) -> f64 {
    let mut t = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `t` is a valid, writable timespec; `clock` is a CPU-time
    // clock of this process or of one of its live threads.
    let rc = unsafe { clock_gettime(clock, &mut t) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    t.tv_sec as f64 + t.tv_nsec as f64 * 1e-9
}

/// CPU seconds this process has used, all threads.
pub fn process_cpu_s() -> f64 {
    cpu_clock_s(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU seconds the calling thread has used.
pub fn thread_cpu_s() -> f64 {
    cpu_clock_s(CLOCK_THREAD_CPUTIME_ID)
}

/// The interpreter's fixed program: 4 KiB of opcodes from a fixed seed.
fn program() -> Vec<u8> {
    let mut x: u64 = 0x2545_f491_4f6c_dd1d;
    (0..4096u32)
        .map(|i| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 20) as u8 ^ i as u8
        })
        .collect()
}

/// Runs `steps` steps of a 16-register bytecode interpreter over `code`:
/// a dispatch on every opcode, data-dependent branches and jumps.
#[inline(never)]
pub fn kernel(code: &[u8], steps: u64) -> u64 {
    let mut regs = [3u64; 16];
    let (mut pc, n) = (0usize, code.len());
    for _ in 0..steps {
        let op = code[pc];
        let r = (op >> 4) as usize;
        let s = ((op as usize) * 7 + pc) & 15;
        match op & 15 {
            0 => regs[r] = regs[r].wrapping_add(regs[s]),
            1 => regs[r] = regs[r].wrapping_sub(regs[s] ^ 5),
            2 => regs[r] = regs[r].wrapping_mul(regs[s] | 1),
            3 => regs[r] ^= regs[s].rotate_left(13),
            4 => {
                if regs[r] & 1 == 1 {
                    pc = (pc + (regs[s] as usize & 63)) % n;
                }
            }
            5 => regs[r] = regs[s] >> 3,
            6 => regs[r] = regs[r].wrapping_add(pc as u64),
            7 => {
                if regs[s] > regs[r] {
                    regs.swap(r, s)
                }
            }
            8 => regs[r] = regs[r].count_ones() as u64 + regs[s],
            9 => regs[r] = regs[r].wrapping_mul(0x9e37_79b9_7f4a_7c15),
            10 => regs[r] = (regs[r] << 1) | (regs[s] & 1),
            11 => {
                if regs[r] % 3 == 0 {
                    pc = (pc + 17) % n
                }
            }
            12 => regs[r] = regs[r].wrapping_sub(regs[s]).wrapping_add(1),
            13 => regs[r] = !regs[s],
            14 => regs[r] = regs[r].max(regs[s]),
            _ => regs[r] = regs[r].min(regs[s]).wrapping_add(7),
        }
        pc += 1;
        if pc >= n {
            pc = 0;
        }
    }
    regs.iter().fold(0, |a, &b| a ^ b)
}

/// One calibration slice: when it ended, in wall seconds from the
/// sampler's start, and the CPU seconds it took.
pub type Slice = (f64, f64);

/// The calibration thread. Stopped and joined on drop.
pub struct Sampler {
    /// When the sampler started; slice times count from here.
    pub origin: Instant,
    stop: Arc<AtomicBool>,
    slices: Arc<Mutex<Vec<Slice>>>,
    /// The sampler thread's CPU-time clock.
    clock: i32,
    handle: Option<JoinHandle<()>>,
}

impl Sampler {
    /// Starts the calibration thread.
    pub fn start() -> Sampler {
        let stop = Arc::new(AtomicBool::new(false));
        let slices = Arc::new(Mutex::new(Vec::new()));
        let (s, sl) = (stop.clone(), slices.clone());
        let origin = Instant::now();
        let handle = std::thread::spawn(move || {
            let code = program();
            while !s.load(Ordering::Relaxed) {
                std::thread::sleep(INTERVAL);
                let t = thread_cpu_s();
                std::hint::black_box(kernel(&code, SLICE_STEPS));
                let end = thread_cpu_s();
                let at = origin.elapsed().as_secs_f64();
                sl.lock().expect("slice list").push((at, end - t));
            }
        });
        let mut clock = 0;
        // SAFETY: the thread is alive until `drop` joins it.
        let rc = unsafe { pthread_getcpuclockid(handle.as_pthread_t(), &mut clock) };
        assert_eq!(rc, 0, "pthread_getcpuclockid failed");
        Sampler {
            origin,
            stop,
            slices,
            clock,
            handle: Some(handle),
        }
    }

    /// CPU seconds the process has used outside the sampler.
    pub fn busy_s(&self) -> f64 {
        process_cpu_s() - cpu_clock_s(self.clock)
    }

    /// The slices recorded since the last call.
    pub fn take_slices(&self) -> Vec<Slice> {
        std::mem::take(&mut *self.slices.lock().expect("slice list"))
    }
}

impl Drop for Sampler {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(h) = self.handle.take() {
            h.join().expect("sampler thread");
        }
    }
}

/// The median of `xs` (0 for none).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}
