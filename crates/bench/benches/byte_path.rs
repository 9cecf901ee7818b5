//! The byte path of the socket transport and the WAL, one layer at a time:
//! what a byte costs to checksum, to frame, to pop from the decoder and to
//! append to the log. Each routine runs over interchangeable payload sizes,
//! so a per-byte cost shows as the slope and a per-call cost as the 64-byte
//! number. `bench/` measures the same layers from outside, end to end.

use bytes::Bytes;
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use oml_core::ids::ObjectId;
use oml_runtime::transport::frame::{crc32, encode_frame, FrameConfig, FrameDecoder};
use oml_runtime::{CheckpointStore, FsyncPolicy, StoredCheckpoint, WalStore, WalStoreConfig};

const KIB: usize = 1024;

fn payload(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i * 31) as u8).collect()
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("byte_path");

    for len in [64, KIB, 16 * KIB, KIB * KIB] {
        let data = payload(len);
        group.throughput(Throughput::Bytes(len as u64));
        group.bench_function(BenchmarkId::new("crc32", len), |b| {
            b.iter(|| crc32(black_box(&data)))
        });
    }

    for len in [64, 16 * KIB] {
        let data = payload(len);
        let mut wire = Vec::with_capacity(len + 8);
        group.throughput(Throughput::Bytes(len as u64));
        group.bench_function(BenchmarkId::new("encode_frame", len), |b| {
            b.iter(|| {
                wire.clear();
                encode_frame(black_box(&data), &mut wire);
                wire.len()
            })
        });
        group.bench_function(BenchmarkId::new("frame_decoder", len), |b| {
            b.iter(|| {
                let mut decoder = FrameDecoder::new(FrameConfig::default());
                decoder.extend(black_box(&wire));
                decoder
                    .next_frame()
                    .expect("an intact frame")
                    .expect("a whole frame")
            })
        });
    }

    // fsync never: the append path is what is timed, not the disk
    for len in [KIB, 16 * KIB] {
        let dir = std::env::temp_dir().join(format!("oml-byte-path-{}-{len}", std::process::id()));
        let cfg = WalStoreConfig {
            compact_after: 0,
            ..WalStoreConfig::with_fsync(&dir, FsyncPolicy::Never)
        };
        let (mut store, _) = WalStore::open(cfg).expect("open a WAL in the temp dir");
        let state = Bytes::from(payload(len));
        let mut seq = 0u64;
        group.throughput(Throughput::Bytes(len as u64));
        group.bench_function(BenchmarkId::new("wal_put_never", len), |b| {
            b.iter(|| {
                seq += 1;
                let checkpoint = StoredCheckpoint {
                    type_tag: "blob".to_owned(),
                    state: state.clone(),
                    object_epoch: 1,
                    seq,
                };
                store
                    .put(ObjectId::new((seq % 64) as u32), checkpoint)
                    .expect("WAL put")
            })
        });
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
