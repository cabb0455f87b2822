//! Host and build facts stamped into every report, and CPU placement.

use std::path::Path;

/// Logical CPUs this process may run on.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The first `model name` of `/proc/cpuinfo`.
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Whether the CPU offers AVX (the `nn` SIMD tier's requirement).
pub fn avx() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Filesystem type of the mount holding `dir` (longest mount-point
/// prefix in `/proc/mounts`).
pub fn filesystem_of(dir: &Path) -> String {
    let Ok(dir) = dir.canonicalize() else {
        return "unknown".to_string();
    };
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, point, fs) = (f.next()?, f.next()?, f.next()?);
            dir.starts_with(point)
                .then(|| (point.len(), fs.to_string()))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".to_string(), |(_, fs)| fs)
}

/// Peak resident set size of this process, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Resets this process's peak resident set size to its current one
/// (`/proc/self/clear_refs`, value 5). Returns whether the kernel took it.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// The checked-out commit when run from a git work tree, else `None`
/// (benchmark checkouts are plain file trees).
pub fn commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed
        .lines()
        .find(|l| l.ends_with(reference))
        .and_then(|l| l.split_whitespace().next())
        .map(str::to_string)
}

/// FNV-1a digest over the workspace sources (every file under `src/` and
/// `crates/` plus the root manifests, in path order), so a report
/// identifies the code it measured even without git metadata.
pub fn source_digest() -> String {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, out);
            } else {
                out.push(path);
            }
        }
    }
    let mut files = vec!["Cargo.toml".into(), "Cargo.lock".into()];
    walk(Path::new("src"), &mut files);
    walk(Path::new("crates"), &mut files);
    files.sort();
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for file in files {
        let bytes = std::fs::read(&file).unwrap_or_default();
        for b in file.to_string_lossy().bytes().chain(bytes) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u8) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u8) -> i32;
}

/// The CPUs the calling thread may run on, ascending.
pub fn allowed_cpus() -> Vec<usize> {
    let mut mask = [0u8; 128];
    // SAFETY: pid 0 names the calling thread and `mask` is a writable
    // buffer of the length passed.
    if unsafe { sched_getaffinity(0, mask.len(), mask.as_mut_ptr()) } != 0 {
        return Vec::new();
    }
    (0..mask.len() * 8)
        .filter(|&cpu| mask[cpu / 8] & (1 << (cpu % 8)) != 0)
        .collect()
}

/// Restricts the calling thread, and every thread it spawns afterwards,
/// to CPU `cpu`. Returns whether the kernel accepted the mask.
pub fn pin_current_thread(cpu: usize) -> bool {
    let mut mask = [0u8; 128];
    if cpu >= mask.len() * 8 {
        return false;
    }
    mask[cpu / 8] = 1 << (cpu % 8);
    // SAFETY: pid 0 names the calling thread and `mask` is a readable
    // buffer of the length passed.
    unsafe { sched_setaffinity(0, mask.len(), mask.as_ptr()) == 0 }
}
