//! Host-speed calibration.
//!
//! The host this benchmark was tuned on is a shared two-vCPU VM whose
//! speed drifts by ±20% over minutes, on every part alike. The
//! calibration loop — dependent pseudo-random reads over a buffer larger
//! than the caches, code that no change to the repository touches — is
//! timed after every pass, and the end-to-end times are scaled by
//! `REFERENCE / median(loop time)`: they read as seconds on a host where
//! the loop takes [`REFERENCE`]. The raw figures and the factor are
//! printed beside them.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// The loop time the scaled figures refer to.
pub const REFERENCE: Duration = Duration::from_millis(40);

const WORDS: usize = 1 << 22;
const READS: usize = 200_000;

/// Calibration samples of one run.
#[derive(Default)]
pub struct Calibration {
    buf: Vec<u64>,
    samples: Vec<f64>,
}

impl Calibration {
    /// Times the loop once. The buffer is allocated at the first call.
    pub fn sample(&mut self) {
        if self.buf.is_empty() {
            self.buf = (0..WORDS as u64).collect();
        }
        let t0 = Instant::now();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        let mut acc = 0u64;
        for _ in 0..READS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            acc = acc.wrapping_add(self.buf[(x ^ acc) as usize & (WORDS - 1)]);
        }
        black_box(acc);
        self.samples.push(t0.elapsed().as_secs_f64());
    }

    /// The median loop time, in seconds.
    pub fn median_s(&self) -> f64 {
        crate::median(&self.samples)
    }

    /// The factor that scales a host time to the reference host
    /// (1 without samples).
    pub fn factor(&self) -> f64 {
        if self.samples.is_empty() {
            1.0
        } else {
            REFERENCE.as_secs_f64() / self.median_s()
        }
    }
}
