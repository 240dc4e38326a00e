//! The four workloads. Each is rounds of *fixed work* against one mount;
//! a run repeats rounds until its measuring time is up, so every round of a
//! workload is the same size whatever the run length.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::Instant;

use memfs_core::{MemFs, ReadHandle};
use memfs_memkv::testutil::Rng;
use memfs_mtc::montage::{
    AREA_BYTES, BG_BYTES, DIFF_BYTES, FIT_BYTES, HDR_BYTES, INPUT_BYTES, PROJ_BYTES,
};
use memfs_mtc::Workflow;

use crate::cluster::Cluster;
use crate::gen::{file_name, round_dir, shuffle, OpHash};
use crate::ops::{Caller, Phase};

/// Workload names, in the order the suite runs them.
pub const NAMES: [&str; 4] = ["seq_large", "small_files", "rand_read", "montage_mix"];

const MIB: u64 = 1 << 20;

/// `seq_large`: files per round and bytes per file.
const SEQ_FILES: usize = 32;
const SEQ_SIZE: u64 = 8 * MIB;
/// `small_files`: fixed, because `Store::append` re-copies the whole
/// directory value, so create cost depends on files per directory.
const SMALL_FILES: usize = 1000;
const SMALL_SIZE: u64 = 4 << 10;
/// `rand_read`: 256 MiB of files, far more than the 8 MiB per-handle cache.
const RAND_FILES: usize = 8;
const RAND_SIZE: u64 = 32 * MIB;
const RAND_READS: usize = 2000;
const RAND_LEN: usize = 64 << 10;
/// `montage_mix`: images per repetition, overlaps diffed per image (the
/// model's figure for a 6°×6° mosaic), and concurrent callers.
const MONTAGE_IMAGES: usize = 24;
const MONTAGE_DIFFS_PER_IMAGE: usize = 3;
pub const MONTAGE_CALLERS: usize = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Write all, read all, unlink all: `files` of `size` bytes in a fresh
    /// directory per round.
    Files {
        files: usize,
        size: u64,
    },
    RandRead,
    Montage,
}

impl Kind {
    pub fn named(name: &str) -> Option<Kind> {
        match name {
            "seq_large" => Some(Kind::Files {
                files: SEQ_FILES,
                size: SEQ_SIZE,
            }),
            "small_files" => Some(Kind::Files {
                files: SMALL_FILES,
                size: SMALL_SIZE,
            }),
            "rand_read" => Some(Kind::RandRead),
            "montage_mix" => Some(Kind::Montage),
            _ => None,
        }
    }

    /// Caller threads the workload drives the mount with.
    pub fn callers(self) -> usize {
        match self {
            Kind::Montage => MONTAGE_CALLERS,
            _ => 1,
        }
    }
}

/// What one round did. A phase a round does not have stays empty.
#[derive(Debug, Default)]
pub struct Round {
    pub write: Phase,
    pub read: Phase,
    pub unlink: Phase,
    /// Wall time of the round's write and read work, verification excluded.
    pub makespan_s: f64,
    /// Bytes the servers hold ÷ live user bytes, at the round's peak.
    pub mem_ratio: Option<f64>,
    /// Bytes the mount's sockets received while the round read.
    pub rx_while_reading: u64,
}

fn reactor_rx(fs: &MemFs) -> u64 {
    fs.pool().reactor_stats().iter().map(|r| r.bytes_rx).sum()
}

/// Σ server `bytes` ÷ `user_bytes`; `None` if a server cannot be asked.
fn mem_ratio(cluster: &Cluster, user_bytes: u64) -> Option<f64> {
    let stored: u64 = cluster
        .stats()
        .ok()?
        .iter()
        .map(|s| s.get("bytes").copied().unwrap_or(0))
        .sum();
    Some(stored as f64 / user_bytes as f64)
}

// ---------------------------------------------------------------- files

fn files_names(seed: u64, round: usize, files: usize) -> (String, Vec<String>) {
    let dir = round_dir(seed, round);
    let names = (0..files).map(|i| file_name(seed, &dir, i)).collect();
    (dir, names)
}

/// One `seq_large` / `small_files` round: three single-caller phases over
/// the same files, in creation order.
pub fn files_round(
    fs: &MemFs,
    cluster: &Cluster,
    caller: &mut Caller,
    seed: u64,
    round: usize,
    files: usize,
    size: u64,
) -> Round {
    let (dir, names) = files_names(seed, round, files);
    let mut r = Round::default();
    caller.mkdir(fs, &dir);
    for name in &names {
        caller.write_file(fs, name, size, &mut r.write);
    }
    let rx0 = reactor_rx(fs);
    for name in &names {
        caller.read_file(fs, name, size, &mut r.read);
    }
    r.rx_while_reading = reactor_rx(fs) - rx0;
    r.makespan_s = r.write.secs + r.read.secs;
    r.mem_ratio = mem_ratio(cluster, files as u64 * size);
    for name in &names {
        caller.unlink(fs, name, &mut r.unlink);
    }
    caller.rmdir(fs, &dir);
    r
}

// ------------------------------------------------------------ rand_read

/// The files `rand_read` reads from, written once per set-up.
pub struct RandFiles {
    dir: String,
    names: Vec<String>,
    handles: Vec<ReadHandle>,
}

/// Set-up of `rand_read`: write the files (the round's write phase) and
/// open the long-lived handles.
pub fn rand_populate(
    fs: &MemFs,
    cluster: &Cluster,
    caller: &mut Caller,
    seed: u64,
) -> (RandFiles, Round) {
    let (dir, names) = files_names(seed, 0, RAND_FILES);
    let mut r = Round::default();
    caller.mkdir(fs, &dir);
    for name in &names {
        caller.write_file(fs, name, RAND_SIZE, &mut r.write);
    }
    r.mem_ratio = mem_ratio(cluster, RAND_FILES as u64 * RAND_SIZE);
    // A file that failed to write fails every read planned on it.
    let handles = names.iter().filter_map(|n| fs.open(n).ok()).collect();
    let files = RandFiles {
        dir,
        names,
        handles,
    };
    (files, r)
}

/// Seeded (file, offset) pairs of one round: uniform over the files and
/// over the 64 KiB-aligned offsets, so each read lies within one stripe.
fn rand_plan(seed: u64, round: usize) -> Vec<(usize, u64)> {
    let mut rng = Rng::new(seed ^ (round as u64 + 1).wrapping_mul(0xA24B_AED4_963E_E407));
    let slots = RAND_SIZE / RAND_LEN as u64;
    (0..RAND_READS)
        .map(|_| {
            let file = rng.gen_range(0, RAND_FILES as u64) as usize;
            (file, rng.gen_range(0, slots) * RAND_LEN as u64)
        })
        .collect()
}

pub fn rand_round(
    fs: &MemFs,
    caller: &mut Caller,
    files: &RandFiles,
    seed: u64,
    round: usize,
) -> Round {
    let mut r = Round::default();
    let rx0 = reactor_rx(fs);
    for (file, offset) in rand_plan(seed, round) {
        match files.handles.get(file) {
            Some(handle) => caller.read_at(handle, offset, RAND_LEN, &mut r.read),
            None => caller.missing(&files.names[file]),
        }
    }
    r.rx_while_reading = reactor_rx(fs) - rx0;
    r.makespan_s = r.read.secs;
    r
}

/// Tear-down of `rand_read`: the round's unlink phase.
pub fn rand_unlink(fs: &MemFs, caller: &mut Caller, files: RandFiles) -> Round {
    let mut r = Round::default();
    drop(files.handles);
    for name in &files.names {
        caller.unlink(fs, name, &mut r.unlink);
    }
    caller.rmdir(fs, &files.dir);
    r
}

// ---------------------------------------------------------- montage_mix

/// A Montage-shaped I/O skeleton for `MONTAGE_IMAGES` images: the stages and
/// per-task file sizes of `memfs_mtc::montage`, zero CPU time, with the
/// staged-in inputs written by a task each so that the whole repetition is
/// file-system work.
pub fn montage_workflow() -> Workflow {
    let n = MONTAGE_IMAGES;
    let mut wf = Workflow::new("montage_mix");
    let out_of = |wf: &Workflow, task: memfs_mtc::TaskId, i: usize| wf.tasks[task.0].outputs[i];
    let (mut proj, mut hdr) = (Vec::new(), Vec::new());
    for i in 0..n {
        let t = wf.add_task(
            "stageIn",
            vec![],
            vec![(format!("in_{i:03}"), INPUT_BYTES)],
            0.0,
        );
        let input = out_of(&wf, t, 0);
        let t = wf.add_task(
            "mProjectPP",
            vec![input],
            vec![
                (format!("proj_{i:03}"), PROJ_BYTES),
                (format!("area_{i:03}"), AREA_BYTES),
                (format!("hdr_{i:03}"), HDR_BYTES),
            ],
            0.0,
        );
        proj.push(out_of(&wf, t, 0));
        hdr.push(out_of(&wf, t, 2));
    }
    let t = wf.add_task(
        "mImgTbl",
        hdr,
        vec![("images_tbl".into(), n as u64 * HDR_BYTES)],
        0.0,
    );
    let imgtbl = out_of(&wf, t, 0);
    let mut fits = Vec::new();
    for d in 0..n * MONTAGE_DIFFS_PER_IMAGE {
        let t = wf.add_task(
            "mDiffFit",
            vec![proj[d % n], proj[(d + 1 + d / n) % n]],
            vec![
                (format!("diff_{d:03}"), DIFF_BYTES),
                (format!("fit_{d:03}"), FIT_BYTES),
            ],
            0.0,
        );
        fits.push(out_of(&wf, t, 1));
    }
    let n_fits = fits.len() as u64;
    let t = wf.add_task(
        "mConcatFit",
        fits,
        vec![("fits_tbl".into(), n_fits * FIT_BYTES)],
        0.0,
    );
    let concat = out_of(&wf, t, 0);
    let t = wf.add_task(
        "mBgModel",
        vec![concat, imgtbl],
        vec![("corrections_tbl".into(), n_fits * FIT_BYTES / 2)],
        0.0,
    );
    let corrections = out_of(&wf, t, 0);
    let mut add_inputs = Vec::new();
    for (i, &p) in proj.iter().enumerate() {
        let t = wf.add_task(
            "mBackground",
            vec![p, corrections],
            vec![(format!("bg_{i:03}"), BG_BYTES)],
            0.0,
        );
        add_inputs.push(out_of(&wf, t, 0));
    }
    add_inputs.push(imgtbl);
    // mAdd streams the mosaic to permanent storage, outside the runtime FS.
    wf.add_task("mAdd", add_inputs, vec![], 0.0);
    wf.validate().expect("montage skeleton is a DAG");
    wf
}

/// The seeded order in which one repetition's ready tasks are queued.
fn montage_rng(seed: u64, round: usize) -> Rng {
    Rng::new(seed ^ (round as u64 + 1).wrapping_mul(0x9FB2_1C65_1E98_DF25))
}

/// Ready queue shared by the callers of one repetition.
struct Sched {
    ready: VecDeque<usize>,
    /// Producer tasks each task still waits for.
    waiting_on: Vec<usize>,
    done: usize,
    rng: Rng,
}

/// Tasks that consume an output of each task, one entry per input edge.
fn consumers(wf: &Workflow) -> Vec<Vec<usize>> {
    let mut out = vec![Vec::new(); wf.tasks.len()];
    for (t, task) in wf.tasks.iter().enumerate() {
        for f in &task.inputs {
            let producer = wf.files[f.0].producer.expect("every file has a producer");
            out[producer.0].push(t);
        }
    }
    out
}

/// One repetition: the DAG run by `callers` threads over a seeded ready
/// queue in a fresh directory, then every file unlinked by one caller.
pub fn montage_round(
    fs: &MemFs,
    cluster: &Cluster,
    callers: &mut [Caller],
    wf: &Workflow,
    seed: u64,
    round: usize,
) -> Round {
    let dir = round_dir(seed, round);
    let path = |f: usize| format!("{dir}/{}", wf.files[f].name);
    callers[0].mkdir(fs, &dir);

    let consumers = consumers(wf);
    let mut rng = montage_rng(seed, round);
    let mut ready: Vec<usize> = (0..wf.tasks.len())
        .filter(|&t| wf.tasks[t].inputs.is_empty())
        .collect();
    shuffle(&mut rng, &mut ready);
    let sched = Mutex::new(Sched {
        ready: ready.into(),
        waiting_on: wf.tasks.iter().map(|t| t.inputs.len()).collect(),
        done: 0,
        rng,
    });
    let wake = Condvar::new();

    let verify_before: f64 = callers.iter().map(|c| c.tally.verify_s).sum();
    let rx0 = reactor_rx(fs);
    let t0 = Instant::now();
    let phases: Vec<(Phase, Phase)> = std::thread::scope(|scope| {
        let workers: Vec<_> = callers
            .iter_mut()
            .map(|caller| {
                let (sched, wake, consumers, path) = (&sched, &wake, &consumers, &path);
                scope.spawn(move || {
                    let (mut write, mut read) = (Phase::default(), Phase::default());
                    loop {
                        let task = {
                            let mut s = sched.lock().expect("a caller panicked");
                            loop {
                                if let Some(t) = s.ready.pop_front() {
                                    break t;
                                }
                                if s.done == wf.tasks.len() {
                                    return (write, read);
                                }
                                s = wake.wait(s).expect("a caller panicked");
                            }
                        };
                        for f in &wf.tasks[task].inputs {
                            caller.read_file(fs, &path(f.0), wf.files[f.0].size, &mut read);
                        }
                        for f in &wf.tasks[task].outputs {
                            caller.write_file(fs, &path(f.0), wf.files[f.0].size, &mut write);
                        }
                        let mut s = sched.lock().expect("a caller panicked");
                        let mut unblocked: Vec<usize> = Vec::new();
                        for &c in &consumers[task] {
                            s.waiting_on[c] -= 1;
                            if s.waiting_on[c] == 0 {
                                unblocked.push(c);
                            }
                        }
                        let s = &mut *s;
                        shuffle(&mut s.rng, &mut unblocked);
                        s.ready.extend(unblocked);
                        s.done += 1;
                        wake.notify_all();
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("a caller panicked"))
            .collect()
    });
    let wall = t0.elapsed().as_secs_f64();
    let verify: f64 = callers.iter().map(|c| c.tally.verify_s).sum::<f64>() - verify_before;

    let mut r = Round {
        rx_while_reading: reactor_rx(fs) - rx0,
        // Verification runs inside the callers' loops; take each caller's
        // share of it back off the wall clock.
        makespan_s: wall - verify / callers.len() as f64,
        ..Round::default()
    };
    for (write, read) in phases {
        r.write.merge(write);
        r.read.merge(read);
    }
    // Reads and writes overlap, so both phases are on the clock for the
    // whole makespan.
    r.write.secs = r.makespan_s;
    r.read.secs = r.makespan_s;
    let live: u64 = wf.files.iter().map(|f| f.size).sum();
    r.mem_ratio = mem_ratio(cluster, live);
    for f in 0..wf.files.len() {
        callers[0].unlink(fs, &path(f), &mut r.unlink);
    }
    callers[0].rmdir(fs, &dir);
    r
}

// ------------------------------------------------------------- op plan

/// Hash of the op sequence the first two rounds of `kind` plan under `seed`
/// (names, sizes, offsets, order): the same seed must plan the same ops.
pub fn plan_hash(kind: Kind, seed: u64) -> u64 {
    let mut h = OpHash::new();
    for round in 0..2 {
        match kind {
            Kind::Files { files, size } => {
                let (dir, names) = files_names(seed, round, files);
                h.op("mkdir", &dir, 0, 0);
                for phase in ["write", "read", "unlink"] {
                    for name in &names {
                        h.op(phase, name, size, 0);
                    }
                }
            }
            Kind::RandRead => {
                let (_, names) = files_names(seed, 0, RAND_FILES);
                for (file, offset) in rand_plan(seed, round) {
                    h.op("read_at", &names[file], offset, RAND_LEN as u64);
                }
            }
            Kind::Montage => {
                let wf = montage_workflow();
                let dir = round_dir(seed, round);
                let mut rng = montage_rng(seed, round);
                let mut order: Vec<usize> = (0..wf.tasks.len()).collect();
                shuffle(&mut rng, &mut order);
                for t in order {
                    for f in &wf.tasks[t].outputs {
                        let name = format!("{dir}/{}", wf.files[f.0].name);
                        h.op(&wf.tasks[t].stage, &name, wf.files[f.0].size, t as u64);
                    }
                }
            }
        }
    }
    h.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_plans_the_same_ops() {
        for name in NAMES {
            let kind = Kind::named(name).unwrap();
            assert_eq!(plan_hash(kind, 42), plan_hash(kind, 42), "{name}");
            assert_ne!(plan_hash(kind, 42), plan_hash(kind, 43), "{name}");
        }
        assert_eq!(rand_plan(5, 3), rand_plan(5, 3));
        assert_ne!(rand_plan(5, 3), rand_plan(5, 4));
    }

    #[test]
    fn rand_offsets_stay_inside_one_stripe_and_the_file() {
        for (file, offset) in rand_plan(9, 0) {
            assert!(file < RAND_FILES);
            assert!(offset + RAND_LEN as u64 <= RAND_SIZE);
            let stripe = 512 << 10;
            assert_eq!(offset / stripe, (offset + RAND_LEN as u64 - 1) / stripe);
        }
    }

    #[test]
    fn montage_skeleton_has_the_model_stages_and_sizes() {
        let wf = montage_workflow();
        let stages: Vec<String> = wf.stage_stats().into_iter().map(|s| s.stage).collect();
        assert_eq!(
            stages,
            [
                "stageIn",
                "mProjectPP",
                "mImgTbl",
                "mDiffFit",
                "mConcatFit",
                "mBgModel",
                "mBackground",
                "mAdd"
            ]
        );
        let diffs = wf.tasks.iter().filter(|t| t.stage == "mDiffFit").count();
        assert_eq!(diffs, MONTAGE_IMAGES * MONTAGE_DIFFS_PER_IMAGE);
        for t in wf.tasks.iter().filter(|t| t.stage == "mDiffFit") {
            assert_ne!(t.inputs[0], t.inputs[1], "a diff reads two projections");
        }
        // Every task's inputs are produced inside the repetition.
        assert!(wf.files.iter().all(|f| f.producer.is_some()));
        let edges: usize = consumers(&wf).iter().map(Vec::len).sum();
        assert_eq!(
            edges,
            wf.tasks.iter().map(|t| t.inputs.len()).sum::<usize>()
        );
    }
}
