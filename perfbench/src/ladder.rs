//! Layer microbenchmarks, host ceilings, host facts, the host-speed probe
//! and peak resident memory.
//!
//! Each layer is timed on its own through the program's public functions
//! and set beside a ceiling measured on the same host: `std::fs` for the
//! block files, `copy_from_slice` for memory, `sort_unstable` for the
//! in-core kernel, and a read–sort–write of `file_sort`'s input in memory
//! for the whole out-of-core sort.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use extsort::{merge_sorted_files_kernel, sort_chunk, PipelineConfig, SortKernel};
use pdm::Disk;
use workloads::{generate_block, Benchmark, Layout};

use crate::{err, median, Metrics};

/// Records the probe sorts.
const PROBE_RECORDS: u64 = 1 << 20;
/// Bytes the probe allocates, fills and reads back.
const PROBE_FILL_BYTES: usize = 64 << 20;
/// Seed of the probe's input; the same whatever the workload seed.
const PROBE_SEED: u64 = 0x5eed_5eed;
/// The probe's time at the host speed timings are scaled to: about its
/// median on the 2-core Xeon VM the baselines in `NOTES.md` were read on.
pub const REF_PROBE_S: f64 = 0.070;

/// Scales timings to a fixed host speed. On a shared host the speed of
/// the same work drifts by a quarter and more within minutes, as other
/// tenants load the cores, caches and memory. A short probe that uses no
/// code of the program runs after every timed item, on as many threads as
/// the item keeps busy: each thread sorts a copy of 2²⁰ fixed records
/// (cache-resident compute) and fills and reads back a fresh 64 MiB
/// buffer (page faults and memory bandwidth). The item's seconds are
/// multiplied by [`REF_PROBE_S`] over the mean of the probes on either
/// side of it, giving reference seconds.
pub struct HostClock {
    data: Vec<u32>,
    threads: usize,
    before: f64,
    /// Every probe time, for `host.probe_s`.
    pub probes: Vec<f64>,
}

impl HostClock {
    pub fn new(threads: usize) -> Self {
        let data = generate_block(
            Benchmark::Uniform,
            PROBE_SEED,
            Layout::single(PROBE_RECORDS),
        );
        let mut clock = HostClock {
            data,
            threads,
            before: 0.0,
            probes: Vec::new(),
        };
        clock.before = clock.probe();
        clock
    }

    fn probe(&self) -> f64 {
        let work = || {
            let mut keys = self.data.clone();
            keys.sort_unstable();
            black_box(&keys);
            let fresh = black_box(vec![1u8; PROBE_FILL_BYTES]);
            black_box(fresh.iter().map(|&b| b as u64).sum::<u64>());
        };
        let t = Instant::now();
        std::thread::scope(|s| {
            for _ in 1..self.threads {
                s.spawn(work);
            }
            work();
        });
        t.elapsed().as_secs_f64()
    }

    /// Probes the host after an item that took `raw` seconds and returns
    /// the item's time at the reference speed.
    pub fn scale(&mut self, raw: f64) -> f64 {
        let after = self.probe();
        let speed = (self.before + after) / 2.0;
        self.before = after;
        self.probes.push(after);
        raw * REF_PROBE_S / speed
    }
}

/// Starts a new peak-resident-memory window: the kernel resets `VmHWM` to
/// the current resident size. Returns false where the kernel refuses; the
/// peak then covers the whole process so far.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Peak resident memory since the last [`reset_peak_rss`], in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(err)?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

/// Times `f` `reps` times and returns the median seconds.
fn time_median<T>(reps: usize, mut f: impl FnMut() -> Result<T, String>) -> Result<f64, String> {
    let mut secs = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t = Instant::now();
        black_box(f()?);
        secs.push(t.elapsed().as_secs_f64());
    }
    Ok(median(&secs))
}

/// `pdm.write_mb_s` and `pdm.read_mb_s`: `data` streamed through one
/// block writer, then back through one block reader, on `disk`.
pub fn pdm_stream(disk: &Disk, data: &[u32], out: &mut Metrics) -> Result<(), String> {
    const NAME: &str = "ladder.pdm";
    let mb = std::mem::size_of_val(data) as f64 / 1e6;
    let write = time_median(3, || {
        if disk.exists(NAME) {
            disk.remove(NAME).map_err(err)?;
        }
        let mut w = disk.create_writer::<u32>(NAME).map_err(err)?;
        w.push_all(data).map_err(err)?;
        w.finish().map_err(err)
    })?;
    let mut buf = Vec::with_capacity(1 << 16);
    let read = time_median(3, || {
        let mut r = disk.open_reader::<u32>(NAME).map_err(err)?;
        let mut sum = 0u64;
        loop {
            buf.clear();
            if r.read_into(&mut buf, 1 << 16).map_err(err)? == 0 {
                return Ok(sum);
            }
            sum = sum.wrapping_add(buf.iter().map(|&x| x as u64).sum::<u64>());
        }
    })?;
    disk.remove(NAME).map_err(err)?;
    out.insert("pdm.write_mb_s", mb / write);
    out.insert("pdm.read_mb_s", mb / read);
    Ok(())
}

/// `extsort.kernel_mrec_s` and its ceiling `host.sort_unstable_mrec_s`,
/// both on the same chunk.
pub fn kernel_rates(chunk: &[u32], out: &mut Metrics) {
    let mrec = chunk.len() as f64 / 1e6;
    let mut v = Vec::with_capacity(chunk.len());
    // Times the sort alone; every repetition sorts a fresh copy.
    let mut sort_secs = |sort: &dyn Fn(&mut Vec<u32>)| {
        let secs: Vec<f64> = (0..5)
            .map(|_| {
                v.clear();
                v.extend_from_slice(chunk);
                let t = Instant::now();
                sort(&mut v);
                let s = t.elapsed().as_secs_f64();
                black_box(&v);
                s
            })
            .collect();
        median(&secs)
    };
    let kernel = sort_secs(&|v| {
        sort_chunk(v, SortKernel::default());
    });
    let ceiling = sort_secs(&|v| v.sort_unstable());
    out.insert("extsort.kernel_mrec_s", mrec / kernel);
    out.insert("host.sort_unstable_mrec_s", mrec / ceiling);
}

/// `extsort.kway_mb_s`: one 7-way `merge_sorted_files_kernel` over seven
/// pre-sorted files of `len` records drawn from the workload's generator.
pub fn kway_rate(
    disk: &Disk,
    bench: Benchmark,
    seed: u64,
    len: u64,
    pipeline: &PipelineConfig,
    out: &mut Metrics,
) -> Result<(), String> {
    const WAYS: usize = 7;
    let layouts = Layout::cluster(&[len; WAYS]);
    let names: Vec<String> = (0..WAYS).map(|i| format!("ladder.kway{i}")).collect();
    for (name, layout) in names.iter().zip(layouts) {
        let mut run = generate_block(bench, seed, layout);
        run.sort_unstable();
        disk.write_file::<u32>(name, &run).map_err(err)?;
    }
    const OUT: &str = "ladder.kway.out";
    let secs = time_median(3, || {
        if disk.exists(OUT) {
            disk.remove(OUT).map_err(err)?;
        }
        merge_sorted_files_kernel::<u32>(disk, &names, OUT, pipeline, SortKernel::default())
            .map_err(err)
    })?;
    let merged = crate::check::inspect(disk, OUT).map_err(err)?;
    if !merged.sorted || merged.fp.count != len * WAYS as u64 {
        return Err("7-way merge produced a wrong output".into());
    }
    for name in names.iter().map(String::as_str).chain([OUT]) {
        disk.remove(name).map_err(err)?;
    }
    out.insert(
        "extsort.kway_mb_s",
        (len * WAYS as u64 * 4) as f64 / 1e6 / secs,
    );
    Ok(())
}

fn le_bytes(data: &[u32]) -> Vec<u8> {
    data.iter().flat_map(|x| x.to_le_bytes()).collect()
}

/// The host ceilings, measured on `file_sort`'s input (2²⁵ uniform `u32`
/// from `seed`) in `dir`: plain `std::fs` read and write of its bytes,
/// memcpy, and the in-core baseline — read the file, `sort_unstable`,
/// write it back — in reference seconds, comparable with `wall_s`.
pub fn host_ceilings(dir: &Path, seed: u64, out: &mut Metrics) -> Result<(), String> {
    let data = generate_block(
        Benchmark::Uniform,
        seed,
        Layout::single(crate::file_sort::RECORDS),
    );
    let bytes = le_bytes(&data);
    drop(data);
    let mb = bytes.len() as f64 / 1e6;
    let path = dir.join("ladder.fs");
    let sorted_path = dir.join("ladder.fs.sorted");
    let write = time_median(3, || std::fs::write(&path, &bytes).map_err(err))?;
    let read = time_median(3, || std::fs::read(&path).map_err(err))?;
    let mut copy = vec![0u8; bytes.len()];
    let memcpy = time_median(5, || {
        copy.copy_from_slice(black_box(&bytes));
        Ok(copy[copy.len() / 2])
    })?;
    drop(copy);
    drop(bytes);
    let mut clock = HostClock::new(1);
    let mut incore = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        let raw = std::fs::read(&path).map_err(err)?;
        let mut keys: Vec<u32> = raw
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect();
        drop(raw);
        keys.sort_unstable();
        std::fs::write(&sorted_path, le_bytes(&keys)).map_err(err)?;
        incore.push(clock.scale(t.elapsed().as_secs_f64()));
    }
    for p in [&path, &sorted_path] {
        std::fs::remove_file(p).map_err(err)?;
    }
    out.insert("host.fs_write_mb_s", mb / write);
    out.insert("host.fs_read_mb_s", mb / read);
    out.insert("host.memcpy_gb_s", mb / 1e3 / memcpy);
    out.insert("host.incore_sort_s", median(&incore));
    Ok(())
}

/// The host a result was measured on, as one JSON line: cores, CPU model,
/// RAM, the filesystem holding `dir`, and the flush policy.
pub fn host_facts_json(dir: &Path) -> String {
    use obs::json::escape;
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let ram_mib = std::fs::read_to_string("/proc/meminfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("MemTotal:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
        })
        .map_or(0, |kib| kib / 1024);
    format!(
        "{{\"host\": {{\"cores\": {cores}, \"cpu_model\": \"{}\", \"ram_mib\": {ram_mib}, \
         \"scratch_fs\": \"{}\", \"flush_policy\": \"no fsync; page cache warm\"}}}}",
        escape(&cpu),
        escape(&filesystem_of(dir))
    )
}

/// `device type` of the mount that holds `dir` (longest matching mount
/// point in `/proc/mounts`).
fn filesystem_of(dir: &Path) -> String {
    let abs = std::fs::canonicalize(dir).unwrap_or_else(|_| dir.to_path_buf());
    std::fs::read_to_string("/proc/mounts")
        .ok()
        .and_then(|mounts| {
            mounts
                .lines()
                .filter_map(|l| {
                    let f: Vec<&str> = l.split_whitespace().collect();
                    (f.len() >= 3 && abs.starts_with(f[1]))
                        .then(|| (f[1].len(), format!("{} {}", f[0], f[2])))
                })
                .max_by_key(|(len, _)| *len)
                .map(|(_, fs)| fs)
        })
        .unwrap_or_else(|| "unknown".into())
}
