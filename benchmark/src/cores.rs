//! Which cores run what. The generator threads get core 0 and the program
//! every other core, so that neither takes time from the other and a run
//! does not depend on where the scheduler happened to put a thread. Threads
//! inherit the affinity of the thread that starts them: the main thread
//! holds the program's cores while it sets the program up.
//!
//! Each of the program's cores also carries a keep-awake thread that spins
//! at idle priority. An idle virtual core is halted by the hypervisor, and
//! waking it costs tens of microseconds that vary from run to run — more
//! than a loopback publication takes. A core that never idles is woken by
//! a context switch. (The generator's core needs none: the generator never
//! sleeps.)

use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::sync::OnceLock;
use std::thread;

extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn sched_setscheduler(pid: i32, policy: i32, param: *const i32) -> i32;
}

/// Linux's `SCHED_IDLE`: runs only when nothing else wants the core, and
/// is preempted the moment anything does.
const SCHED_IDLE: i32 = 5;

/// Moves the calling thread to `SCHED_IDLE`; lowering one's own priority
/// needs no privilege. Returns whether the kernel agreed.
fn make_current_idle_priority() -> bool {
    let priority: i32 = 0;
    // SAFETY: `param` points at a live `struct sched_param`, whose only
    // member is one `int`; pid 0 names the calling thread.
    unsafe { sched_setscheduler(0, SCHED_IDLE, &priority) == 0 }
}

/// Cores this process may use. Counted once, on first use: the count
/// follows the calling thread's affinity, which the pinning below narrows.
pub fn available() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| {
        thread::available_parallelism()
            .map_or(1, |n| n.get())
            .min(64)
    })
}

/// Restricts the calling thread to the cores in `mask` (bit `i` = core
/// `i`). Best effort: a refusal (a restricted container) leaves the thread
/// where the scheduler puts it.
fn pin_current(mask: u64) {
    // SAFETY: `mask` outlives the call and `cpusetsize` is its exact size;
    // pid 0 names the calling thread. The kernel only reads the mask.
    let _ = unsafe { sched_setaffinity(0, std::mem::size_of::<u64>(), &mask) };
}

/// Core 0: the generator's. Returns whether the host has a core to spare
/// for it.
pub fn pin_to_generator() -> bool {
    let spare = available() > 1;
    if spare {
        pin_current(1);
    }
    spare
}

/// Every core but 0: the program's.
pub fn pin_to_program() {
    let n = available();
    if n > 1 {
        pin_current(((1u128 << n) - 1) as u64 & !1);
    }
}

/// Runs `body` with one keep-awake thread on each of the program's cores.
pub fn with_program_cores_awake<T>(body: impl FnOnce() -> T) -> T {
    let stop = AtomicBool::new(false);
    thread::scope(|scope| {
        for core in 1..available() {
            let stop = &stop;
            thread::Builder::new()
                .name(format!("bm-awake-{core}"))
                .spawn_scoped(scope, move || {
                    pin_current(1 << core);
                    // At idle priority it can simply spin: any wake-up on
                    // this core preempts it at once. Refused that, it
                    // yields instead, and gets in the way a little.
                    let idle = make_current_idle_priority();
                    while !stop.load(Relaxed) {
                        if idle {
                            std::hint::spin_loop();
                        } else {
                            thread::yield_now();
                        }
                    }
                })
                .expect("spawn keep-awake thread");
        }
        let out = body();
        stop.store(true, Relaxed);
        out
    })
}
