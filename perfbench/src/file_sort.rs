//! `file_sort`: one node sorts a 128 MiB real file with the polyphase
//! engine, configured as `hetsort sort --mem 4194304 --tapes 8 --workers 2`
//! (8 initial runs, 2 merge phases, 32 KiB blocks). No cluster layer runs.

use std::path::Path;
use std::time::Instant;

use cluster::charge::Work;
use cluster::{Charger, CpuModel, TimePolicy};
use extsort::{fingerprint_file, polyphase_sort, ExtSortConfig, Fingerprint, PipelineConfig};
use pdm::Disk;
use sim::{Jitter, SplitMix64};
use workloads::{generate_block, generate_to_disk, Benchmark, Layout};

use crate::check::{check_single, inspect};
use crate::cluster::{insert_blame, PHASES};
use crate::{err, ladder, Metrics, Rep, Workload};

/// Records in the input file (2²⁵ `u32`, 128 MiB).
pub const RECORDS: u64 = 1 << 25;
const MEM_RECORDS: usize = 1 << 22;
const TAPES: usize = 8;
const BLOCK_BYTES: usize = 32 * 1024;
const WORKERS: usize = 2;
/// Jitter shape of the cost model, as a cluster trial charges it.
const JITTER_SIGMA: f64 = 0.03;

const INPUT: &str = "input";
const OUTPUT: &str = "output";

pub struct FileSort {
    disk: Disk,
    seed: u64,
    cfg: ExtSortConfig,
    input: Fingerprint,
}

impl FileSort {
    pub fn new(dir: &Path, seed: u64) -> Self {
        FileSort {
            disk: Disk::on_files(dir, BLOCK_BYTES),
            seed,
            cfg: ExtSortConfig::new(MEM_RECORDS)
                .with_tapes(TAPES)
                .with_pipeline(PipelineConfig::with_workers(WORKERS)),
            input: Fingerprint::default(),
        }
    }
}

impl Workload for FileSort {
    fn setup(&mut self) -> Result<f64, String> {
        if self.disk.exists(INPUT) {
            self.disk.remove(INPUT).map_err(err)?;
        }
        let t = Instant::now();
        generate_to_disk(
            &self.disk,
            INPUT,
            Benchmark::Uniform,
            self.seed,
            Layout::single(RECORDS),
        )
        .map_err(err)?;
        let secs = t.elapsed().as_secs_f64();
        if self.input.count == 0 {
            self.input = fingerprint_file::<u32>(&self.disk, INPUT).map_err(err)?;
        }
        Ok(secs)
    }

    fn run(&mut self, traced: bool) -> Result<Rep, String> {
        let disk = &self.disk;
        let before = disk.stats().snapshot();
        let mut charger = Charger::new(
            CpuModel::alpha_533(),
            1.0,
            Jitter::new(SplitMix64::mix(self.seed), JITTER_SIGMA),
            disk.clone(),
            TimePolicy::Modeled,
        );
        // Traced: the engine's own run-formation and merge-pass spans record
        // into a handle installed for this sort.
        let tracer = obs::Obs::enabled();
        let guard = traced.then(|| obs::install(tracer.clone()));
        let t = Instant::now();
        let report = polyphase_sort::<u32>(disk, INPUT, OUTPUT, "sort", &self.cfg).map_err(err)?;
        let elapsed = t.elapsed();
        drop(guard);
        let wall_s = elapsed.as_secs_f64();
        let io = disk.stats().snapshot().delta(&before);
        // The price `psrs_external` charges a node for the same local sort.
        charger.charge_overlapped_section(
            Work {
                comparisons: report.comparisons,
                key_ops: report.key_ops,
                moves: report.records * (report.merge_phases as u64 + 1),
            },
            elapsed,
        );
        let model_s = charger.now().as_secs();

        let check = inspect(disk, OUTPUT)
            .map_err(err)
            .and_then(|s| check_single(&s, &self.input));
        disk.remove(OUTPUT).map_err(err)?;

        let input_bytes = self.input_bytes() as f64;
        let exact = Metrics::from([
            (
                "io_bytes_per_byte",
                ((io.blocks_read + io.blocks_written) * BLOCK_BYTES as u64) as f64 / input_bytes,
            ),
            ("model_makespan_s", model_s),
            // One node owns the whole input: no sublist expands.
            ("sublist_expansion", 1.0),
            ("pdm.blocks_read", io.blocks_read as f64),
            ("pdm.blocks_written", io.blocks_written as f64),
            ("pdm.random_reads", io.random_reads as f64),
            ("extsort.initial_runs", report.initial_runs as f64),
            ("extsort.merge_phases", report.merge_phases as f64),
            ("extsort.key_ops", report.key_ops as f64),
            // No cluster layer runs.
            ("cluster.sent_bytes_per_byte", 0.0),
            ("cluster.messages", 0.0),
        ]);

        let mut layers = Metrics::new();
        if traced {
            let spans = tracer.finish(0, String::new()).spans;
            let span_secs = |name: &str| -> f64 {
                spans
                    .iter()
                    .filter(|s| s.name == name)
                    .map(|s| s.wall_secs())
                    .sum()
            };
            let merge_s = span_secs("extsort.merge-pass");
            layers.insert(
                "extsort.run_formation_s",
                span_secs("extsort.run-formation"),
            );
            layers.insert("extsort.merge_s", merge_s);
            // Run formation writes every record once; the rest is merging.
            layers.insert(
                "extsort.merge_mb_s",
                io.bytes_written.saturating_sub(self.input_bytes()) as f64 / 1e6 / merge_s,
            );
            // The whole sort is the local-sort phase of a one-node cluster.
            for (k, (_, model_key, wall_key)) in PHASES.iter().enumerate() {
                let share = if k == 0 { 1.0 } else { 0.0 };
                layers.insert(model_key, share);
                layers.insert(wall_key, share);
            }
            layers.insert("core.phase_sum_rel_err", 0.0);
            let cost = obs::PhaseCost {
                name: "local-sort",
                end: model_s,
                cpu: charger.cpu_time().as_secs(),
                io_read: charger.io_read_time().as_secs(),
                io_write: charger.io_write_time().as_secs(),
                queue_wait: charger.io_queue_wait().as_secs(),
                overlap_saved: charger.overlap_saved().as_secs(),
                dominant_from: -1,
                ..Default::default()
            };
            insert_blame(&cost.blame(model_s), model_s, &mut layers);
        }
        Ok(Rep {
            wall_s,
            check,
            exact,
            layers,
        })
    }

    fn input_bytes(&self) -> u64 {
        RECORDS * 4
    }

    fn threads(&self) -> usize {
        WORKERS
    }

    fn ladder(&mut self, out: &mut Metrics) -> Result<(), String> {
        let data = generate_block(Benchmark::Uniform, self.seed, Layout::single(RECORDS));
        ladder::pdm_stream(&self.disk, &data, out)?;
        ladder::kernel_rates(&data[..MEM_RECORDS], out);
        drop(data);
        ladder::kway_rate(
            &self.disk,
            Benchmark::Uniform,
            self.seed,
            MEM_RECORDS as u64 / 2,
            &self.cfg.pipeline,
            out,
        )
    }
}
