//! CPU time, and a fixed probe loop that shows the host's speed.
//!
//! The benchmark runs on shared hosts whose cores it does not own: on a
//! 2-core host, wire-mix throughput fell from 28 000 to 9 000 answers per
//! wall second while another tenant was busy, and DES passes of one input
//! took from 0.62 to 1.0 s within one run. Time a thread spends waiting
//! for a core is not CPU time, so the gated figures are CPU seconds of the
//! work, read from the process's and the thread's CPU clocks before and
//! after it. Over the same runs, wire-mix CPU per answer moved by ±5%.
//!
//! The probe loop (random reads over a 4 MiB table, plus integer work)
//! does not call the program; traced runs print its median wall time as
//! `host.probe_ms`, so a slow host shows in their figures.

use std::time::Instant;

const TABLE_LEN: usize = 1 << 19;
const STEPS: u32 = 400_000;
const PROBES: usize = 9;

/// `struct timespec` of 64-bit Linux.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    // From the C library every Rust program on Linux links.
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

fn clock_s(clock: i32) -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `timespec` for the call.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock}) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 / 1e9
}

/// CPU seconds the calling thread has run.
pub fn thread_cpu_s() -> f64 {
    clock_s(CLOCK_THREAD_CPUTIME_ID)
}

/// CPU seconds every thread of this process has run, ended ones
/// included.
pub fn cpu_s() -> f64 {
    clock_s(CLOCK_PROCESS_CPUTIME_ID)
}

/// Median wall milliseconds of [`PROBES`] runs of the fixed loop.
pub fn probe_ms() -> f64 {
    let table: Vec<u64> = (0..TABLE_LEN as u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect();
    let times: Vec<f64> = (0..PROBES)
        .map(|_| {
            let t = Instant::now();
            let mut x = 0x1234_5678u64;
            let mut acc = 0u64;
            for _ in 0..STEPS {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let v = table[(x as usize) & (TABLE_LEN - 1)];
                acc = acc.wrapping_add(v ^ x);
                if acc & 1 == 0 {
                    acc = acc.rotate_left(3);
                }
            }
            std::hint::black_box(acc);
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    crate::median(&times)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_grows_with_work_and_counts_every_thread() {
        let t0 = thread_cpu_s();
        assert!(probe_ms() > 0.0);
        assert!(thread_cpu_s() > t0);

        let (spun_tx, spun_rx) = std::sync::mpsc::channel();
        let (end_tx, end_rx) = std::sync::mpsc::channel::<()>();
        let h = std::thread::spawn(move || {
            let c = thread_cpu_s();
            while thread_cpu_s() - c < 0.05 {}
            spun_tx.send(()).unwrap();
            end_rx.recv().unwrap();
        });
        spun_rx.recv().unwrap();
        let mine = thread_cpu_s();
        assert!(cpu_s() >= mine + 0.05);
        end_tx.send(()).unwrap();
        h.join().unwrap();
        // An ended thread's time still counts.
        assert!(cpu_s() >= thread_cpu_s() + 0.05);
    }
}
