//! The logical file-system operations every workload is built from, each a
//! closed-loop call sequence into `MemFs` in 128 KiB requests, timed, traced
//! when tracing is on, and — for reads — verified bit-exact off the clock.

use std::io::Read;
use std::time::Instant;

use memfs_core::{MemFs, ReadHandle};

use crate::gen::{Payload, CHUNK};
use crate::trace::Tracer;

/// What one phase (write, read or unlink) of one round did.
#[derive(Debug, Clone, Default)]
pub struct Phase {
    /// Ops that succeeded.
    pub ops: u64,
    /// User bytes those ops moved.
    pub bytes: u64,
    /// Time on the clock: the sum of op durations for a single caller, the
    /// makespan where callers run concurrently.
    pub secs: f64,
    /// Duration of each successful op, µs.
    pub lat_us: Vec<f64>,
}

impl Phase {
    pub fn merge(&mut self, other: Phase) {
        self.ops += other.ops;
        self.bytes += other.bytes;
        self.secs += other.secs;
        self.lat_us.extend(other.lat_us);
    }
}

/// Op accounting for one caller thread.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    /// Logical ops started: file ops and directory ops alike.
    pub attempted: u64,
    /// Ops that returned an error, read short or read wrong bytes.
    pub failed: u64,
    /// Wall time spent verifying reads, which is off every clock.
    pub verify_s: f64,
    /// The first few failures, for the log.
    pub errors: Vec<String>,
}

impl Tally {
    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.verify_s += other.verify_s;
        self.errors.extend(other.errors);
        self.errors.truncate(8);
    }
}

/// One caller thread: the expected bytes, a span recorder and a reused read
/// buffer. The mount is passed per call, since set-up mounts several times.
pub struct Caller<'a> {
    payload: &'a Payload,
    pub tracer: Tracer,
    pub tally: Tally,
    buf: Vec<u8>,
}

impl<'a> Caller<'a> {
    pub fn new(payload: &'a Payload, tracer: Tracer) -> Caller<'a> {
        Caller {
            payload,
            tracer,
            tally: Tally::default(),
            buf: Vec::new(),
        }
    }

    /// Count one logical op and name it: the caller's thread in the high
    /// bits, so op ids stay unique when callers' spans are merged.
    fn begin(&mut self) -> u64 {
        self.tally.attempted += 1;
        u64::from(self.tracer.thread) << 40 | self.tally.attempted
    }

    /// Record a failed op; pass a successful one through.
    fn check(&mut self, result: Result<(), String>) -> bool {
        if let Err(e) = &result {
            self.tally.failed += 1;
            if self.tally.errors.len() < 8 {
                self.tally.errors.push(e.clone());
            }
        }
        result.is_ok()
    }

    fn finish(&mut self, phase: &mut Phase, bytes: u64, secs: f64, result: Result<(), String>) {
        if self.check(result) {
            phase.ops += 1;
            phase.bytes += bytes;
            phase.secs += secs;
            phase.lat_us.push(secs * 1e6);
        }
    }

    /// create → `write_all` in 128 KiB requests → close.
    pub fn write_file(&mut self, fs: &MemFs, name: &str, size: u64, phase: &mut Phase) {
        let content = self.payload.file(name);
        let op = self.begin();
        let tr = &mut self.tracer;
        let root = tr.start();
        let t0 = Instant::now();
        let result = (|| {
            let s = tr.start();
            let handle = fs.create(name);
            tr.end(s, "fs.create", root, op);
            let mut handle = handle?;
            let mut offset = 0u64;
            while offset < size {
                let n = (size - offset).min(CHUNK as u64) as usize;
                let s = tr.start();
                let r = handle.write_all(content.slice(offset, n));
                tr.end(s, "fs.write", root, op);
                r?;
                offset += n as u64;
            }
            let s = tr.start();
            let r = handle.close();
            tr.end(s, "fs.close", root, op);
            r
        })();
        let secs = t0.elapsed().as_secs_f64();
        tr.end(root, "create_file", None, op);
        self.finish(
            phase,
            size,
            secs,
            result.map_err(|e| format!("write {name}: {e}")),
        );
    }

    /// open → `read` in 128 KiB requests to the end, then verify every byte.
    pub fn read_file(&mut self, fs: &MemFs, name: &str, size: u64, phase: &mut Phase) {
        let op = self.begin();
        if self.buf.len() < size as usize {
            self.buf.resize(size as usize, 0);
        }
        let (tr, buf) = (&mut self.tracer, &mut self.buf[..size as usize]);
        let root = tr.start();
        let t0 = Instant::now();
        let result = (|| {
            let s = tr.start();
            let handle = fs.open(name);
            tr.end(s, "fs.open", root, op);
            let mut handle = handle.map_err(|e| e.to_string())?;
            let mut got = 0usize;
            while got < buf.len() {
                let end = buf.len().min(got + CHUNK);
                let s = tr.start();
                let r = handle.read(&mut buf[got..end]);
                tr.end(s, "fs.read", root, op);
                match r.map_err(|e| e.to_string())? {
                    0 => return Err(format!("short read: {got} of {} bytes", buf.len())),
                    n => got += n,
                }
            }
            Ok(())
        })();
        let secs = t0.elapsed().as_secs_f64();
        tr.end(root, "read_file", None, op);
        let result = result.and_then(|()| self.verify(name, 0, size as usize));
        self.finish(
            phase,
            size,
            secs,
            result.map_err(|e| format!("read {name}: {e}")),
        );
    }

    /// One positional read of `len` bytes on a long-lived handle, verified.
    pub fn read_at(&mut self, handle: &ReadHandle, offset: u64, len: usize, phase: &mut Phase) {
        let op = self.begin();
        if self.buf.len() < len {
            self.buf.resize(len, 0);
        }
        let root = self.tracer.start();
        let t0 = Instant::now();
        let r = handle.read_at(offset, &mut self.buf[..len]);
        let secs = t0.elapsed().as_secs_f64();
        self.tracer.end(root, "fs.read_at", None, op);
        let name = handle.path().to_string();
        let result = match r {
            Ok(n) if n == len => self.verify(&name, offset, len),
            Ok(n) => Err(format!("short read: {n} of {len} bytes")),
            Err(e) => Err(e.to_string()),
        };
        self.finish(
            phase,
            len as u64,
            secs,
            result.map_err(|e| format!("read_at {name}@{offset}: {e}")),
        );
    }

    fn verify(&mut self, name: &str, offset: u64, len: usize) -> Result<(), String> {
        let t0 = Instant::now();
        let ok = self.payload.file(name).verify(offset, &self.buf[..len]);
        self.tally.verify_s += t0.elapsed().as_secs_f64();
        if ok {
            Ok(())
        } else {
            Err("bytes differ from the seeded payload".into())
        }
    }

    pub fn unlink(&mut self, fs: &MemFs, name: &str, phase: &mut Phase) {
        let op = self.begin();
        let s = self.tracer.start();
        let t0 = Instant::now();
        let r = fs.unlink(name);
        let secs = t0.elapsed().as_secs_f64();
        self.tracer.end(s, "fs.unlink", None, op);
        self.finish(phase, 0, secs, r.map_err(|e| format!("unlink {name}: {e}")));
    }

    /// An op planned on a file that set-up failed to write.
    pub fn missing(&mut self, name: &str) {
        self.begin();
        self.check(Err(format!("{name}: not written")));
    }

    /// Directory ops are off the clock but still ops that may fail.
    pub fn mkdir(&mut self, fs: &MemFs, dir: &str) {
        self.begin();
        let r = fs.mkdir(dir);
        self.check(r.map_err(|e| format!("mkdir {dir}: {e}")));
    }

    pub fn rmdir(&mut self, fs: &MemFs, dir: &str) {
        self.begin();
        let r = fs.rmdir(dir);
        self.check(r.map_err(|e| format!("rmdir {dir}: {e}")));
    }
}
