//! Process-level measurements.

/// Peak resident set size (`VmHWM`) in MiB; 0 where `/proc` is missing.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The kernel's id of the calling thread; 0 where `/proc` is missing.
pub fn current_tid() -> u32 {
    std::fs::read_link("/proc/thread-self")
        .ok()
        .and_then(|p| p.file_name()?.to_str()?.parse().ok())
        .unwrap_or(0)
}

/// Nanoseconds each live thread of this process has run on a CPU, from
/// `/proc/self/task/*/schedstat`. Time the host took the CPU away is not
/// in it, so CPU-normalized rates hold steady on shared hosts.
pub fn thread_cpu_ns() -> Vec<(u32, u64)> {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    tasks
        .filter_map(|entry| {
            let entry = entry.ok()?;
            let tid = entry.file_name().to_str()?.parse().ok()?;
            let stat = std::fs::read_to_string(entry.path().join("schedstat")).ok()?;
            Some((tid, stat.split_whitespace().next()?.parse().ok()?))
        })
        .collect()
}

/// CPU nanoseconds run between two [`thread_cpu_ns`] snapshots by every
/// thread not in `exclude` (threads born in between count from zero).
pub fn cpu_since(before: &[(u32, u64)], after: &[(u32, u64)], exclude: &[u32]) -> u64 {
    after
        .iter()
        .filter(|(tid, _)| !exclude.contains(tid))
        .map(|&(tid, now)| {
            let then = before
                .iter()
                .find(|(t, _)| *t == tid)
                .map_or(0, |&(_, c)| c);
            now.saturating_sub(then)
        })
        .sum()
}

#[cfg(test)]
mod tests {
    #[test]
    fn peak_rss_is_positive_on_linux() {
        if cfg!(target_os = "linux") {
            assert!(super::peak_rss_mb() > 0.0);
        }
    }

    #[test]
    fn cpu_since_skips_excluded_threads_and_counts_new_ones() {
        let before = [(1, 100), (2, 50)];
        let after = [(1, 400), (2, 80), (3, 7)];
        assert_eq!(super::cpu_since(&before, &after, &[1]), 30 + 7);
    }

    #[test]
    fn busy_threads_accumulate_cpu_time() {
        if !cfg!(target_os = "linux") {
            return;
        }
        let tid = super::current_tid();
        let cpu_of = |snap: Vec<(u32, u64)>| snap.iter().find(|(t, _)| *t == tid).map(|&(_, c)| c);
        let before = cpu_of(super::thread_cpu_ns()).expect("this thread is listed");
        let start = std::time::Instant::now();
        let mut x = 0u64;
        while start.elapsed() < std::time::Duration::from_millis(20) {
            x = std::hint::black_box(x.wrapping_add(1));
        }
        let after = cpu_of(super::thread_cpu_ns()).expect("this thread is listed");
        assert!(after > before);
    }
}
