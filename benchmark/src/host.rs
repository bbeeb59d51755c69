//! Host fingerprint and the noise guard's calibration spin.

use crate::json::Value;
use crate::verify::scalar_sum;
use std::time::Instant;

fn first_line(path: &str, prefix: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()?
        .lines()
        .find(|l| l.starts_with(prefix))
        .map(|l| l.split(':').nth(1).unwrap_or("").trim().to_string())
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(program)
        .args(args)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// What a result must carry to be compared with another: where it ran
/// and what built it.
pub fn fingerprint() -> Value {
    let unknown = || "unknown".to_string();
    let mut v = Value::obj();
    v.set(
        "cpu_model",
        first_line("/proc/cpuinfo", "model name").unwrap_or_else(unknown),
    )
    .set("nproc", nproc())
    .set(
        "kernel",
        std::fs::read_to_string("/proc/sys/kernel/osrelease")
            .map_or_else(|_| unknown(), |s| s.trim().to_string()),
    )
    .set(
        "rustc",
        command_line("rustc", &["-V"]).unwrap_or_else(unknown),
    )
    // The driver's checkout is not a git repository; say so rather than
    // guess.
    .set(
        "git_commit",
        command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "not-a-git-checkout".into()),
    );
    v
}

/// The fixed spin: the scalar checksum over 64 MiB. Its time before and
/// after a workload's timed block says whether the host changed speed
/// underneath it.
pub struct Calibration {
    buf: Vec<u8>,
}

impl Calibration {
    pub fn new() -> Self {
        let mut buf = vec![0u8; 64 << 20];
        crate::gen::fill_pattern(0xCA11_B8A7E, 0, &mut buf);
        Calibration { buf }
    }

    /// The median of three spins: one preempted spin does not count as
    /// drift.
    pub fn spin_ns(&self) -> f64 {
        let mut spins = [0.0; 3];
        for s in &mut spins {
            let start = Instant::now();
            std::hint::black_box(scalar_sum(std::hint::black_box(&self.buf)));
            *s = start.elapsed().as_nanos() as f64;
        }
        spins.sort_by(f64::total_cmp);
        spins[1]
    }
}

/// The per-rep probe: the scalar checksum over 8 MiB, about 2 ms. Run
/// right after a rep, it says which speed state the host was in.
pub struct Probe {
    buf: Vec<u8>,
}

impl Probe {
    pub fn new() -> Self {
        let mut buf = vec![0u8; 8 << 20];
        crate::gen::fill_pattern(0x9B0BE, 0, &mut buf);
        Probe { buf }
    }

    pub fn ns(&self) -> f64 {
        let start = Instant::now();
        std::hint::black_box(scalar_sum(std::hint::black_box(&self.buf)));
        start.elapsed().as_nanos() as f64
    }
}
