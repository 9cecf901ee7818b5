//! What the harness reads from `/proc`: peak memory, context switches,
//! affinity, process groups and the filesystem under a path. Parsing is split
//! from reading so the tests can run on captured samples.

use std::fs;
use std::path::Path;

/// The fields of `/proc/<pid>/stat` the harness uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProcStat {
    pub ppid: u32,
    pub pgrp: u32,
}

/// Parses one `/proc/<pid>/stat` line. The command name may hold spaces and
/// parentheses, so fields are counted from the *last* `)`.
pub fn parse_stat(text: &str) -> Option<ProcStat> {
    let rest = &text[text.rfind(')')? + 1..];
    // rest starts at field 3 (state)
    let fields: Vec<&str> = rest.split_ascii_whitespace().collect();
    let field = |n: usize| fields.get(n - 3);
    Some(ProcStat {
        ppid: field(4)?.parse().ok()?,
        pgrp: field(5)?.parse().ok()?,
    })
}

/// The value of `key:` in a `/proc/<pid>/status` text, without its unit.
pub fn status_field<'a>(text: &'a str, key: &str) -> Option<&'a str> {
    text.lines().find_map(|line| {
        let value = line.strip_prefix(key)?.strip_prefix(':')?.trim();
        Some(value.strip_suffix("kB").map_or(value, str::trim_end))
    })
}

/// Parses a CPU list such as `0-1,3` into its members, ascending.
pub fn parse_cpu_list(list: &str) -> Option<Vec<u32>> {
    let mut cpus = Vec::new();
    for part in list.trim().split(',') {
        match part.split_once('-') {
            Some((a, b)) => cpus.extend(a.parse::<u32>().ok()?..=b.parse::<u32>().ok()?),
            None => cpus.push(part.parse().ok()?),
        }
    }
    cpus.sort_unstable();
    (!cpus.is_empty()).then_some(cpus)
}

/// The filesystem type of the mount that holds `path`, from a
/// `/proc/self/mountinfo` text: the longest mount point that is a prefix
/// of `path` wins, the later line on a tie (it is mounted on top).
pub fn fs_type_of(path: &Path, mountinfo: &str) -> Option<String> {
    let mut best: Option<(usize, &str)> = None;
    for line in mountinfo.lines() {
        // "<id> <parent> <maj:min> <root> <mount point> <opts> ... - <fstype> <source> <opts>"
        let (head, tail) = line.split_once(" - ")?;
        let mount_point = head.split(' ').nth(4)?;
        let fs_type = tail.split(' ').next()?;
        if path.starts_with(mount_point) && best.is_none_or(|(len, _)| mount_point.len() >= len) {
            best = Some((mount_point.len(), fs_type));
        }
    }
    best.map(|(_, fs_type)| fs_type.to_owned())
}

fn read(path: impl AsRef<Path>) -> Option<String> {
    fs::read_to_string(path).ok()
}

/// Peak resident set of process `pid`, KiB.
pub fn vm_hwm_kib(pid: u32) -> Option<u64> {
    status_field(&read(format!("/proc/{pid}/status"))?, "VmHWM")?
        .parse()
        .ok()
}

/// Voluntary context switches summed over the live threads of this process:
/// every blocking hand-off between threads is one.
pub fn voluntary_switches() -> u64 {
    let Ok(tasks) = fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter_map(|task| {
            let text = read(task.path().join("status"))?;
            status_field(&text, "voluntary_ctxt_switches")?
                .parse::<u64>()
                .ok()
        })
        .sum()
}

/// The CPUs this process may run on.
pub fn allowed_cpus() -> Option<Vec<u32>> {
    parse_cpu_list(status_field(
        &read("/proc/self/status")?,
        "Cpus_allowed_list",
    )?)
}

/// Pids whose process group is `pgrp` (what a workload child may have left
/// behind).
pub fn pids_in_group(pgrp: u32) -> Vec<u32> {
    let Ok(entries) = fs::read_dir("/proc") else {
        return Vec::new();
    };
    entries
        .flatten()
        .filter_map(|e| e.file_name().to_str()?.parse::<u32>().ok())
        .filter(|pid| {
            read(format!("/proc/{pid}/stat"))
                .and_then(|text| parse_stat(&text))
                .is_some_and(|stat| stat.pgrp == pgrp)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    // captured on the development host (kernel 6.18), command name edited
    // to the worst case the format allows
    const STAT: &str = "5321 (oml) bench (x)) R 5316 5321 5316 0 -1 4194304 81 0 0 0 \
        1234 567 0 0 20 0 3 0 169256 2703360 284 18446744073709551615 94423855247360 \
        94423855267241 140726772426560 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0 94423855283248 \
        94423855284864 94424091508736 140726772434512 140726772434532 140726772434532 \
        140726772436971 0";

    const STATUS: &str = "Name:\toml-runtime-ben\nUmask:\t0022\nState:\tR (running)\n\
        Tgid:\t5321\nPid:\t5321\nPPid:\t5316\nVmPeak:\t   12000 kB\nVmHWM:\t    1408 kB\n\
        VmRSS:\t    1300 kB\nThreads:\t3\nCpus_allowed:\t2\nCpus_allowed_list:\t1\n\
        voluntary_ctxt_switches:\t4711\nnonvoluntary_ctxt_switches:\t2\n";

    const MOUNTINFO: &str = "\
        23 28 0:22 / /proc rw,relatime - proc proc rw\n\
        25 28 0:6 / /dev rw,relatime - devtmpfs devtmpfs rw,size=8234572k\n\
        26 25 0:24 / /dev/shm rw,relatime - tmpfs tmpfs rw,size=16482316k\n\
        28 1 254:0 / / rw,relatime - ext4 /dev/vda rw,discard\n\
        29 28 254:16 / /mnt/tools ro,nosuid shared:1 master:2 - ext4 /dev/vdb ro\n";

    #[test]
    fn stat_survives_a_hostile_command_name() {
        let stat = parse_stat(STAT).expect("parses");
        assert_eq!(
            stat,
            ProcStat {
                ppid: 5316,
                pgrp: 5321
            }
        );
        assert_eq!(parse_stat("5321 (cat"), None);
        assert_eq!(parse_stat("5321 (cat) R 1"), None);
    }

    #[test]
    fn status_fields_drop_their_unit() {
        assert_eq!(status_field(STATUS, "VmHWM"), Some("1408"));
        assert_eq!(
            status_field(STATUS, "voluntary_ctxt_switches"),
            Some("4711")
        );
        assert_eq!(status_field(STATUS, "Cpus_allowed_list"), Some("1"));
        // a key that is a prefix of another must not match it
        assert_eq!(status_field(STATUS, "Cpus_allowed"), Some("2"));
        assert_eq!(status_field(STATUS, "VmSwap"), None);
    }

    #[test]
    fn cpu_lists() {
        assert_eq!(parse_cpu_list("1"), Some(vec![1]));
        assert_eq!(parse_cpu_list("0-1"), Some(vec![0, 1]));
        assert_eq!(parse_cpu_list("0-2,8,5-6\n"), Some(vec![0, 1, 2, 5, 6, 8]));
        assert_eq!(parse_cpu_list(""), None);
        assert_eq!(parse_cpu_list("a-b"), None);
    }

    #[test]
    fn filesystem_is_the_deepest_mount() {
        let fs = |p: &str| fs_type_of(Path::new(p), MOUNTINFO);
        assert_eq!(fs("/root/repo/bench/out/tmp").as_deref(), Some("ext4"));
        assert_eq!(
            fs("/dev/shm/checkout/bench/out/tmp").as_deref(),
            Some("tmpfs")
        );
        assert_eq!(fs("/dev/shmx").as_deref(), Some("devtmpfs"));
        assert_eq!(fs("/mnt/tools/x").as_deref(), Some("ext4"));
    }

    #[test]
    fn live_readers_see_this_process() {
        let me = std::process::id();
        assert!(vm_hwm_kib(me).is_some_and(|kib| kib > 0));
        assert!(allowed_cpus().is_some_and(|cpus| !cpus.is_empty()));
        let stat = parse_stat(&read(format!("/proc/{me}/stat")).unwrap()).unwrap();
        assert!(pids_in_group(stat.pgrp).contains(&me));
    }
}
