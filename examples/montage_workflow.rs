//! A miniature Montage-style workflow running on the **real** MemFS
//! engine with real bytes and real worker threads — the paper's Figure 1a
//! dataflow in the small: project each input image, diff overlapping
//! pairs, model the background, correct every image, and co-add.
//!
//! The point demonstrated: every task reads its inputs at full speed no
//! matter which worker runs it (locality-agnosticism), and the storage
//! load stays balanced across servers.
//!
//! ```text
//! cargo run --release --example montage_workflow
//! ```

use std::sync::Arc;

use memfs::memfs_core::{MemFs, MemFsConfig};
use memfs::memkv::{KvClient, SimClient, Store, StoreConfig};

const N_IMAGES: usize = 24;
const IMAGE_BYTES: usize = 512 * 1024;

fn checksum(data: &[u8]) -> u64 {
    data.iter()
        .fold(0u64, |acc, &b| acc.wrapping_mul(31).wrapping_add(b as u64))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Eight in-process storage servers, each behind a free link.
    let stores: Vec<Arc<Store>> = (0..8)
        .map(|_| Arc::new(Store::new(StoreConfig::default())))
        .collect();
    let servers: Vec<Arc<dyn KvClient>> = stores
        .iter()
        .map(|s| Arc::new(SimClient::new(Arc::clone(s))) as Arc<dyn KvClient>)
        .collect();
    let fs = MemFs::new(servers, MemFsConfig::default())?;
    for dir in ["/in", "/proj", "/diff", "/bg", "/out"] {
        fs.mkdir(dir)?;
    }

    // Stage in the input images.
    for i in 0..N_IMAGES {
        let image: Vec<u8> = (0..IMAGE_BYTES)
            .map(|b| ((b * (i + 3)) % 251) as u8)
            .collect();
        fs.write_file(&format!("/in/img_{i:03}.fits"), &image)?;
    }
    println!("staged {N_IMAGES} input images");

    // mProjectPP: one task per image, fanned out over worker threads —
    // MemFS does not care which worker handles which image.
    run_stage("mProjectPP", N_IMAGES, &fs, |fs, i| {
        let img = fs.read_to_vec(&format!("/in/img_{i:03}.fits"))?;
        let projected: Vec<u8> = img.iter().map(|&b| b.wrapping_add(1)).collect();
        fs.write_file(&format!("/proj/img_{i:03}.fits"), &projected)
    })?;

    // mDiffFit: each task reads TWO projected images — the access pattern
    // that breaks single-file locality scheduling (paper §4.2).
    run_stage("mDiffFit", N_IMAGES, &fs, |fs, i| {
        let a = fs.read_to_vec(&format!("/proj/img_{i:03}.fits"))?;
        let b = fs.read_to_vec(&format!("/proj/img_{:03}.fits", (i + 1) % N_IMAGES))?;
        let diff: Vec<u8> = a.iter().zip(&b).map(|(&x, &y)| x.wrapping_sub(y)).collect();
        fs.write_file(&format!("/diff/diff_{i:03}.fits"), &diff)
    })?;

    // mBgModel: one global aggregation over all diffs.
    let mut correction = 0u64;
    for i in 0..N_IMAGES {
        let diff = fs.read_to_vec(&format!("/diff/diff_{i:03}.fits"))?;
        correction = correction.wrapping_add(checksum(&diff));
    }
    fs.write_file("/bg/corrections.tbl", &correction.to_le_bytes())?;
    println!("mBgModel: global correction = {correction:#x}");

    // mBackground: every task reads its projection plus the shared
    // corrections table (an N-1 read).
    run_stage("mBackground", N_IMAGES, &fs, |fs, i| {
        let proj = fs.read_to_vec(&format!("/proj/img_{i:03}.fits"))?;
        let corr = fs.read_to_vec("/bg/corrections.tbl")?;
        let delta = corr[0];
        let fixed: Vec<u8> = proj.iter().map(|&b| b.wrapping_sub(delta)).collect();
        fs.write_file(&format!("/bg/bg_{i:03}.fits"), &fixed)
    })?;

    // mAdd: co-add everything into the mosaic.
    let mut mosaic = vec![0u8; IMAGE_BYTES];
    for i in 0..N_IMAGES {
        let bg = fs.read_to_vec(&format!("/bg/bg_{i:03}.fits"))?;
        for (m, &b) in mosaic.iter_mut().zip(&bg) {
            *m = m.wrapping_add(b);
        }
    }
    fs.write_file("/out/mosaic.fits", &mosaic)?;
    println!("mAdd: mosaic checksum = {:#x}", checksum(&mosaic));

    // The paper's storage-balance claim, observed on real stores.
    let loads: Vec<u64> = stores.iter().map(|s| s.bytes_used()).collect();
    let mean = loads.iter().sum::<u64>() as f64 / loads.len() as f64;
    let max = *loads.iter().max().unwrap() as f64;
    println!("\nper-server load (bytes): {loads:?}");
    println!(
        "imbalance (max/mean): {:.2} — symmetric distribution",
        max / mean
    );
    Ok(())
}

/// Run `task` for every index in parallel worker threads sharing the
/// mount (MemFS handles are cheap clones).
fn run_stage<F>(name: &str, n: usize, fs: &MemFs, task: F) -> Result<(), Box<dyn std::error::Error>>
where
    F: Fn(&MemFs, usize) -> Result<(), memfs::memfs_core::MemFsError> + Send + Sync,
{
    let start = std::time::Instant::now();
    std::thread::scope(|scope| {
        let task = &task;
        let handles: Vec<_> = (0..4)
            .map(|w| {
                let fs = fs.clone();
                scope.spawn(move || {
                    for i in (w..n).step_by(4) {
                        task(&fs, i).expect("task failed");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().expect("worker panicked");
        }
    });
    println!("{name}: {n} tasks on 4 workers in {:?}", start.elapsed());
    Ok(())
}
