//! Engine configuration: the one place that decides how every run executes.

use crate::workloads::Workload;
use pgas_machine::MachineConfig;
use std::io::Read;
use std::process::{Child, Command, Stdio};

/// Whether a workload runs under the virtual-time NIC arbiter — the mode
/// every committed `results/BENCH_*.json` baseline uses, and the only one
/// in which virtual makespans repeat to the nanosecond. `himeno_halo` is
/// the exception: `run_himeno_outcome` has no switch, so it runs the
/// default engine and doubles as the sample of the thread-per-PE path.
pub fn deterministic_nic(workload: Workload) -> bool {
    workload != Workload::HimenoHalo
}

/// Machine configuration of every benchmark-owned SPMD body (the ladder
/// and the micro-probes): the arbiter workloads' mode.
pub fn pinned(cfg: MachineConfig) -> MachineConfig {
    cfg.with_deterministic_nic()
}

/// Remove every `PGAS_*` and `REPRO_*` variable, so no ambient knob
/// (workers, tracing, sanitizer, coalescing, fault plans, ...) reaches the
/// engine. The machine reads them lazily, so this must run first in `main`.
pub fn scrub_env() {
    let knobs: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("PGAS_") || k.starts_with("REPRO_"))
        .collect();
    for k in knobs {
        std::env::remove_var(k);
    }
}

/// Host times of an unoptimized build say nothing about the simulator.
pub fn refuse_debug_build() -> Result<(), String> {
    if cfg!(debug_assertions) {
        return Err("refusing to measure a debug build: run with `cargo run --release`".into());
    }
    Ok(())
}

/// Keeps every CPU of the host busy with a lowest-priority spinner process
/// for as long as it lives.
///
/// `dht_locked`'s critical path is a chain of lock handoffs, each one a
/// thread on one CPU waking a parked thread on the other, with both CPUs
/// idle half the time in between. On a virtual machine an idle vCPU halts,
/// and waking a thread on a halted vCPU goes through the hypervisor: the
/// workload then runs 2.4x slower, in waves tens of seconds long that the
/// host decides (how long it polls before it deschedules a halted vCPU)
/// and no median over a 20 s run smooths — 11 % spread between runs of one
/// commit. A spinner at nice 19 yields to any PE thread at once, but the
/// CPU never idles: the virtual-machine counterpart of benchmarking with
/// `idle=poll`, which brought the spread to 3-5 %. The spinners are
/// separate processes, so no CPU reading of the harness or of a
/// repetition includes them.
///
/// The layer probes of a traced run (barriers, lock handoffs, launches)
/// park the same way and are conditioned too. The other workloads are not,
/// by measurement: `serve_mixed` repeats within 3-5 % as it is and within
/// 7-16 % conditioned; `himeno_halo` keeps both cores busy by itself, and a
/// CPU that never idles stops pulling runnable PE threads over from the
/// other one (20-30 % slower, no steadier); `ladder_pair` parks nothing.
pub struct BusyCpus {
    spinners: Vec<Child>,
}

impl BusyCpus {
    /// Spinners for a run of `workload`, if it is the wake-up-bound one.
    pub fn for_workload(workload: Workload) -> Result<Option<BusyCpus>, String> {
        (workload == Workload::DhtLocked).then(BusyCpus::start).transpose()
    }

    pub fn start() -> Result<BusyCpus, String> {
        let exe =
            std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
        let mut busy = BusyCpus { spinners: Vec::new() };
        for _ in 0..cpus {
            let child = Command::new(&exe)
                .arg("spin")
                .stdin(Stdio::piped())
                .stdout(Stdio::null())
                .spawn()
                .map_err(|e| format!("cannot start a spinner: {e}"))?;
            busy.spinners.push(child);
        }
        Ok(busy)
    }
}

impl Drop for BusyCpus {
    fn drop(&mut self) {
        for child in &mut self.spinners {
            // Closing its stdin is what stops a spinner (see `spin`); the
            // kill covers one that has not reached its read yet.
            drop(child.stdin.take());
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

extern "C" {
    fn nice(inc: i32) -> i32;
}

/// The spinner process: lowest priority, one thread spinning, the main
/// thread waiting for its stdin to close — which it does when the harness
/// drops its [`BusyCpus`] or dies, so a spinner never outlives it.
pub fn spin() {
    // SAFETY: `nice` takes an int by value and touches no memory of ours.
    // A refusal (it cannot fail for a positive increment) would only leave
    // the spinner at normal priority.
    unsafe { nice(19) };
    std::thread::spawn(|| loop {
        std::hint::spin_loop();
    });
    let mut sink = Vec::new();
    let _ = std::io::stdin().read_to_end(&mut sink);
}
