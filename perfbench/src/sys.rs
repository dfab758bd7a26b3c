//! What the program cannot count itself: resident memory from
//! `/proc/self/status`, the heap in use from glibc's `mallinfo2`, the L3
//! size from `/sys`, and the scratch directory the checkpoint store writes
//! into.

use std::path::{Path, PathBuf};

use gossip_workloads::ScenarioInstance;

use crate::report::Outcome;

const MIB: f64 = 1024.0 * 1024.0;

/// A `kB` field of `/proc/self/status`, in MiB; `None` where the kernel
/// does not report it.
fn status_mib(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(field))?;
    let kib: f64 = line[field.len()..]
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kib / 1024.0)
}

/// Peak resident set size of this process so far, in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    status_mib("VmHWM:")
}

/// Current resident set size, in MiB.
fn rss_mib() -> Option<f64> {
    status_mib("VmRSS:")
}

/// Runs `f` and returns its result with the growth of the resident set
/// across it, in MiB (0 where unreadable).
pub fn rss_growth<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let before = rss_mib();
    let out = f();
    let growth = match (before, rss_mib()) {
        (Some(b), Some(a)) => a - b,
        _ => 0.0,
    };
    (out, growth)
}

/// The `mallinfo2` record of glibc's `<malloc.h>`.
#[repr(C)]
struct MallInfo2 {
    arena: usize,
    ordblks: usize,
    smblks: usize,
    hblks: usize,
    hblkhd: usize,
    usmblks: usize,
    fsmblks: usize,
    uordblks: usize,
    fordblks: usize,
    keepcost: usize,
}

extern "C" {
    fn mallinfo2() -> MallInfo2;
}

/// Bytes the allocator has handed out and not taken back (every arena plus
/// mmapped chunks), in MiB.
fn heap_in_use_mib() -> f64 {
    // SAFETY: `mallinfo2` takes no arguments, reads the allocator's
    // statistics under the allocator's own locks and returns the record by
    // value; glibc has provided it since 2.33.
    let info = unsafe { mallinfo2() };
    mib((info.uordblks + info.hblkhd) as u64)
}

/// Runs `f` and returns its result with the growth of the heap in use
/// across it, in MiB.  Unlike the resident set, this counts an allocation
/// that reuses pages an earlier free left resident (the million-node graph
/// built in set-up leaves a gigabyte of them).
pub fn heap_growth<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let before = heap_in_use_mib();
    let out = f();
    (out, heap_in_use_mib() - before)
}

/// Size of the largest cache level `/sys` reports for CPU 0 (the L3 on
/// the machines this runs on), in MiB.
pub fn last_level_cache_mib() -> Option<f64> {
    let dir = Path::new("/sys/devices/system/cpu/cpu0/cache");
    let mut best: Option<(u32, f64)> = None;
    for entry in std::fs::read_dir(dir).ok()?.flatten() {
        let read = |file: &str| std::fs::read_to_string(entry.path().join(file)).ok();
        let (Some(level), Some(size)) = (read("level"), read("size")) else {
            continue;
        };
        let Ok(level) = level.trim().parse::<u32>() else {
            continue;
        };
        let size = size.trim();
        let bytes = if let Some(k) = size.strip_suffix('K') {
            k.parse::<f64>().ok().map(|v| v * 1024.0)
        } else if let Some(m) = size.strip_suffix('M') {
            m.parse::<f64>().ok().map(|v| v * MIB)
        } else {
            size.parse::<f64>().ok()
        };
        if let Some(bytes) = bytes {
            if best.is_none_or(|(l, _)| level > l) {
                best = Some((level, bytes / MIB));
            }
        }
    }
    best.map(|(_, mib)| mib)
}

/// A directory under `.perfbench/` in the working directory, removed with
/// everything in it when dropped.
#[derive(Debug)]
pub struct ScratchDir {
    path: PathBuf,
}

impl ScratchDir {
    pub fn new(tag: &str) -> std::io::Result<Self> {
        let path = Path::new(".perfbench").join(format!("{tag}-{}", std::process::id()));
        if path.exists() {
            std::fs::remove_dir_all(&path)?;
        }
        std::fs::create_dir_all(&path)?;
        Ok(ScratchDir { path })
    }

    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

/// Bytes to MiB.
pub fn mib(bytes: u64) -> f64 {
    bytes as f64 / MIB
}

/// The computed working set of one simulator run on `instance` next to the
/// last-level cache: edge table, per-edge tick counters and values.
pub fn working_set(out: &mut Outcome, instance: &ScenarioInstance) {
    let edges = instance.graph.edge_count() as u64;
    let nodes = instance.graph.node_count() as u64;
    let edge_table = edges * std::mem::size_of::<gossip_graph::Edge>() as u64;
    let counters = edges * 8;
    let values = nodes * 8;
    let l3 = last_level_cache_mib();
    eprintln!(
        "perfbench: working set of {}: edge table {:.1} MiB + per-edge tick counters {:.1} MiB \
         + values {:.1} MiB = {:.1} MiB; last-level cache {}",
        instance.name,
        mib(edge_table),
        mib(counters),
        mib(values),
        mib(edge_table + counters + values),
        l3.map_or("unknown".to_string(), |m| format!("{m:.1} MiB")),
    );
    out.set("mem.working_set_mib", mib(edge_table + counters + values));
    out.set("mem.l3_mib", l3.unwrap_or(0.0));
}
