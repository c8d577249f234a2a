//! What the kernel says about this process: CPU time per thread and the
//! memory high-water mark. Linux only, like the live tier itself.

use std::fs;

/// What the main thread is called in [`thread_cpu_ns`]. The kernel gives it
/// the executable's name, which every unnamed thread the program starts
/// inherits; the main thread itself runs only the benchmark's timetable.
pub const MAIN_THREAD: &str = "bm-main";

/// `(thread name, ns on a CPU)` for every live thread, from
/// `/proc/self/task/*/{comm,schedstat}`. A thread that exits between the
/// directory listing and the read is skipped.
pub fn thread_cpu_ns() -> Vec<(String, u64)> {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    let main_tid = std::process::id().to_string();
    let mut out = Vec::new();
    for task in tasks.flatten() {
        let dir = task.path();
        let is_main = task.file_name().to_str() == Some(main_tid.as_str());
        let (Ok(comm), Ok(stat)) = (
            fs::read_to_string(dir.join("comm")),
            fs::read_to_string(dir.join("schedstat")),
        ) else {
            continue;
        };
        let on_cpu = stat.split_whitespace().next().and_then(|f| f.parse().ok());
        if let Some(ns) = on_cpu {
            let name = if is_main {
                MAIN_THREAD
            } else {
                comm.trim_end()
            };
            out.push((name.to_owned(), ns));
        }
    }
    out
}

/// Peak resident set (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}
