//! Host-speed calibration of timed runs.
//!
//! The host is a few cores of a shared machine. Other processes' use of the
//! shared caches and memory slows the simulator by up to 2x, with no
//! descheduling and no steal time to show for it, so CPU seconds alone
//! spread by 20-40% between runs of identical work. A fixed pass of
//! heap-heavy work (small allocations reached through a `BTreeMap`, like
//! the simulator's own data structures) runs after each timed operation and
//! slows with it. With two benchmark runs sharing the host, scaling by it
//! cut the spread of `host_op_s_p50` over six seeds from 6-31% to 5-15%;
//! a sort, random reads or a pointer chase over 1-64 MiB and an arithmetic
//! loop tracked the simulator less well.
//!
//! Each pass runs in a fresh worker process (this binary, started with
//! [`WORKER_FLAG`]), so that its allocations always meet an empty heap.
//! Inside the benchmark process the same pass took 0.18 s straight after a
//! `serve_light` warm-up op and 0.09-0.13 s after later ops, so the
//! program's heap would move the scale. The parent waits for each worker,
//! so the two never run at once.
//!
//! Host times are reported scaled by [`REFERENCE_PASS_S`] over the run's
//! median pass time, i.e. in seconds of a host on which one pass takes
//! [`REFERENCE_PASS_S`]. The pass is code of this package, so a change to
//! the program cannot move it.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::process::{Command, ExitCode, Stdio};

use crate::workloads::mix;
use crate::{cpu_s, median};

/// The first argument that makes this binary a calibration worker.
pub const WORKER_FLAG: &str = "--calibration-worker";

/// CPU time of one calibration pass on the reference host: about what a
/// pass took on the 2-core Xeon container the benchmark was tuned on.
pub const REFERENCE_PASS_S: f64 = 0.2;

/// Passes a run makes before its first timed op.
pub const INITIAL_PASSES: usize = 3;

/// Keys inserted by one pass, and the seed they are drawn from.
const PASS_KEYS: u64 = 200_000;
const PASS_SEED: u64 = 3;

/// CPU seconds of one pass, made in a fresh worker process. Panics if the
/// worker cannot be run, which ends the benchmark without a result.
pub fn timed_pass() -> f64 {
    let output = std::env::current_exe()
        .and_then(|exe| {
            Command::new(exe)
                .arg(WORKER_FLAG)
                .stdin(Stdio::null())
                .stderr(Stdio::inherit())
                .output()
        })
        .expect("run the calibration worker");
    let reply = String::from_utf8_lossy(&output.stdout);
    match reply.trim().parse::<f64>() {
        Ok(seconds) if output.status.success() => seconds,
        _ => panic!(
            "calibration worker exited with {} and printed {reply:?}",
            output.status
        ),
    }
}

/// What host seconds measured in a run are multiplied by to give
/// reference-host seconds, from the run's pass times.
pub fn scale(passes: &[f64]) -> f64 {
    REFERENCE_PASS_S / median(passes)
}

/// The worker: one pass, whose CPU seconds it prints.
pub fn worker() -> ExitCode {
    println!("{:?}", pass());
    ExitCode::SUCCESS
}

/// One pass: [`PASS_KEYS`] pseudo-random keys, each with a 0-63 byte
/// vector, inserted into a `BTreeMap`, which is then dropped. Returns its
/// CPU seconds.
fn pass() -> f64 {
    let t = cpu_s();
    let mut map = BTreeMap::new();
    for i in 0..PASS_KEYS {
        let key = mix(PASS_SEED, i);
        map.insert(key, vec![i as u8; (key % 64) as usize]);
    }
    black_box(&map);
    drop(map);
    cpu_s() - t
}
