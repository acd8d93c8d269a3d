//! What the benchmark reads from the host: process CPU time and peak RSS
//! from `/proc/self`, on-disk output sizes and checksums, and the host
//! record every result carries.

use std::path::Path;

/// Kernel clock ticks per second in `/proc/<pid>/stat` (`USER_HZ`, fixed
/// at 100 by the Linux ABI).
const USER_HZ: f64 = 100.0;

/// User plus system CPU seconds this process has used, including threads
/// that already exited.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may hold spaces; fields after its closing
    // parenthesis are space-separated, starting at field 3.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = after.split_whitespace().collect();
    let ticks = |field: usize| {
        fields
            .get(field - 3)
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(0)
    };
    (ticks(14) + ticks(15)) as f64 / USER_HZ
}

/// Peak resident set (`VmHWM`) of this process, in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    kib_field(&status, "VmHWM:") as f64 / 1024.0
}

fn kib_field(text: &str, key: &str) -> u64 {
    text.lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

/// Files under `dir`, recursively, sorted by path. Empty when `dir` does
/// not exist.
fn files(dir: &Path) -> Vec<std::path::PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        let Ok(entries) = std::fs::read_dir(&d) else {
            continue;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                stack.push(path);
            } else {
                out.push(path);
            }
        }
    }
    out.sort();
    out
}

/// Total bytes of the files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    files(dir)
        .iter()
        .filter_map(|p| std::fs::metadata(p).ok())
        .map(|m| m.len())
        .sum()
}

/// CRC-32 over the relative names and contents of the files under `dir`,
/// in path order; `None` when `dir` holds no files.
pub fn dir_crc(dir: &Path) -> std::io::Result<Option<u32>> {
    let paths = files(dir);
    if paths.is_empty() {
        return Ok(None);
    }
    let mut all = Vec::new();
    for path in paths {
        let rel = path.strip_prefix(dir).unwrap_or(&path);
        all.extend_from_slice(rel.to_string_lossy().as_bytes());
        all.push(0);
        all.extend_from_slice(&std::fs::read(&path)?);
    }
    Ok(Some(sockscope_journal::crc32(&all)))
}

/// The machine and build a result was measured on.
#[derive(Debug, Clone)]
pub struct HostRecord {
    /// Cores available to this process (`nproc`).
    pub cores: usize,
    /// `MemTotal` of the host, in MiB.
    pub mem_total_mib: u64,
    /// `rustc --version` of the toolchain on `PATH`.
    pub rustc: String,
    /// `git rev-parse HEAD` of the working directory, or `unknown` outside
    /// a git checkout.
    pub commit: String,
}

impl HostRecord {
    /// Reads the record for this process.
    pub fn current() -> HostRecord {
        HostRecord {
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            mem_total_mib: kib_field(
                &std::fs::read_to_string("/proc/meminfo").unwrap_or_default(),
                "MemTotal:",
            ) / 1024,
            rustc: command_line("rustc", &["--version"]),
            commit: command_line("git", &["rev-parse", "HEAD"]),
        }
    }
}

/// First line of a command's standard output, or `unknown` when it cannot
/// run or fails.
fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .and_then(|s| s.lines().next().map(str::to_string))
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readers_see_this_process() {
        let spin: u64 = (0..5_000_000u64).fold(0, |a, b| a ^ b.wrapping_mul(31));
        std::hint::black_box(spin);
        assert!(cpu_seconds() >= 0.0);
        assert!(peak_rss_mib() > 0.0);
        let host = HostRecord::current();
        assert!(host.cores >= 1);
        assert!(host.mem_total_mib > 0);
    }

    #[test]
    fn kib_fields_parse() {
        let text = "Name:\tx\nVmHWM:\t  117504 kB\nVmRSS:\t 20 kB\n";
        assert_eq!(kib_field(text, "VmHWM:"), 117_504);
        assert_eq!(kib_field(text, "Missing:"), 0);
    }

    #[test]
    fn dir_sizes_and_crcs_cover_nested_files() {
        let dir = std::env::temp_dir().join(format!("sockbench-host-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(dir_bytes(&dir), 0);
        assert_eq!(dir_crc(&dir).unwrap(), None);
        std::fs::create_dir_all(dir.join("sub")).unwrap();
        std::fs::write(dir.join("a.bin"), b"abc").unwrap();
        std::fs::write(dir.join("sub/b.bin"), b"defg").unwrap();
        assert_eq!(dir_bytes(&dir), 7);
        let crc = dir_crc(&dir).unwrap();
        std::fs::write(dir.join("sub/b.bin"), b"defh").unwrap();
        assert_ne!(dir_crc(&dir).unwrap(), crc);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
