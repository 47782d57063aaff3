//! The full pipeline with 16-byte key+payload records — the sorters are
//! generic over the record type, not specialized to the paper's 4-byte
//! integers, and payloads must travel with their keys.

use cluster::{run_cluster, ClusterSpec};
use extsort::ExtSortConfig;
use hetsort::{psrs_external, ExternalPsrsConfig, PerfVector};
use pdm::record::KeyPayload;
use pdm::Disk;
use sim::rng::{Pcg64, Rng};

fn payload_for(key: u64) -> u64 {
    sim::SplitMix64::mix(key)
}

fn make_records(n: u64, seed: u64) -> Vec<KeyPayload> {
    let mut rng = Pcg64::new(seed);
    (0..n)
        .map(|_| {
            let key = rng.next_u64() % 100_000; // plenty of duplicate keys
            KeyPayload::new(key, payload_for(key))
        })
        .collect()
}

fn assert_payloads_intact(sorted: &[KeyPayload]) {
    for r in sorted {
        assert_eq!(r.payload, payload_for(r.key), "payload detached from key");
    }
}

#[test]
fn polyphase_sorts_wide_records() {
    let disk = Disk::in_memory(256);
    let data = make_records(5000, 1);
    disk.write_file("in", &data).unwrap();
    let cfg = ExtSortConfig::new(512).with_tapes(4);
    let report = extsort::polyphase_sort::<KeyPayload>(&disk, "in", "out", "pp", &cfg).unwrap();
    assert_eq!(report.records, 5000);
    let out = disk.read_file::<KeyPayload>("out").unwrap();
    assert!(out.windows(2).all(|w| w[0] <= w[1]));
    assert_payloads_intact(&out);
    assert_eq!(
        extsort::fingerprint_slice(&out),
        extsort::fingerprint_slice(&data)
    );
}

#[test]
fn external_psrs_sorts_wide_records_heterogeneous() {
    let perf = PerfVector::paper_1144();
    let n = perf.padded_size(8_000);
    let shares = perf.shares(n);
    let spec = ClusterSpec::new(vec![1, 1, 4, 4]).with_block_bytes(512);
    let cfg = ExternalPsrsConfig::new(perf.clone(), 512)
        .with_tapes(4)
        .with_msg_records(128);
    let report = run_cluster(&spec, async move |ctx| {
        // Each node materializes its share of one deterministic stream.
        let offset: u64 = shares[..ctx.rank].iter().sum();
        let all = make_records(n, 9);
        ctx.disk
            .write_file(
                "input",
                &all[offset as usize..(offset + shares[ctx.rank]) as usize],
            )
            .unwrap();
        psrs_external::<KeyPayload>(ctx, &cfg).await.unwrap();
        ctx.disk.read_file::<KeyPayload>("output").unwrap()
    });
    let flat: Vec<KeyPayload> = report
        .nodes
        .iter()
        .flat_map(|nd| nd.value.iter().copied())
        .collect();
    assert_eq!(flat.len() as u64, n);
    assert!(flat.windows(2).all(|w| w[0] <= w[1]), "global order broken");
    assert_payloads_intact(&flat);
    assert_eq!(
        extsort::fingerprint_slice(&flat),
        extsort::fingerprint_slice(&make_records(n, 9))
    );
}
