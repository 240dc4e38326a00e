//! The system under test: `memfsd` child processes on the host loopback,
//! and the outside views of them the metrics use — the memcached `stats`
//! command and `/proc/<pid>`.

use std::collections::HashMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::process::CommandExt;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Storage servers every workload runs against.
pub const SERVERS: usize = 4;

/// Kernel clock ticks per second in `/proc/<pid>/stat` times (USER_HZ,
/// fixed at 100 on Linux whatever the kernel's own tick rate).
const USER_HZ: f64 = 100.0;

extern "C" {
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    fn sched_setscheduler(pid: i32, policy: i32, param: *const i32) -> i32;
}
const PR_SET_PDEATHSIG: i32 = 1;
const SIGKILL: u64 = 9;
const SCHED_IDLE: i32 = 5;

/// A CPU set as the kernel takes it: one bit per CPU, 1024 CPUs.
type CpuMask = [u64; 16];

/// Where the benchmark process and the servers run: on disjoint halves of
/// the CPUs this process is allowed, as client and storage nodes are
/// disjoint machines in a deployment. Left to the scheduler, the threads of
/// one request chain settle either all on one CPU or across CPUs, where each
/// hop wakes an idle CPU; the two cases differ several-fold on per-request
/// workloads and a run stays in whichever it started in, so no number would
/// repeat. Pinned, every request crosses CPUs exactly where it would cross
/// the network. `None` with fewer than two CPUs.
#[derive(Debug, Clone, Copy)]
pub struct Placement {
    client: CpuMask,
    servers: CpuMask,
}

fn mask_of(cpus: &[usize]) -> CpuMask {
    let mut m: CpuMask = [0; 16];
    for c in cpus {
        m[c / 64] |= 1 << (c % 64);
    }
    m
}

/// The CPUs this process may run on.
fn allowed_cpus() -> Vec<usize> {
    let mut allowed: CpuMask = [0; 16];
    // SAFETY: the mask is a live buffer of exactly the size passed.
    if unsafe { sched_getaffinity(0, size_of::<CpuMask>(), allowed.as_mut_ptr()) } != 0 {
        return Vec::new();
    }
    (0..1024)
        .filter(|c| allowed[c / 64] >> (c % 64) & 1 == 1)
        .collect()
}

impl Placement {
    pub fn of_this_process() -> Option<Placement> {
        let cpus = allowed_cpus();
        if cpus.len() < 2 {
            return None;
        }
        let (client, servers) = cpus.split_at(cpus.len() / 2);
        Some(Placement {
            client: mask_of(client),
            servers: mask_of(servers),
        })
    }

    /// Move the calling thread — before it starts any other — to the
    /// client's CPUs.
    pub fn pin_client(&self) -> io::Result<()> {
        // SAFETY: the mask is a live buffer of exactly the size passed.
        match unsafe { sched_setaffinity(0, size_of::<CpuMask>(), self.client.as_ptr()) } {
            0 => Ok(()),
            _ => Err(io::Error::last_os_error()),
        }
    }
}

/// One `SCHED_IDLE` busy loop per allowed CPU, for as long as this lives.
///
/// An idle virtual CPU halts, and waking it goes through the hypervisor: a
/// cost of tens of µs that differs from run to run and sits on every hop of
/// a request between client and servers. The loops run only when nothing
/// else wants the CPU and are preempted the moment anything does, so they
/// take no time from the system under test; they keep the CPUs from halting.
/// With them the per-request workloads repeat within ≈ 2 %, without them
/// within ≈ 12 %. They are separate processes, so their CPU time is not in
/// any metric.
pub struct KeepAwake {
    children: Vec<Child>,
}

impl KeepAwake {
    /// `spin_exe spin` must loop forever (the benchmark's own `spin` command).
    pub fn start(spin_exe: &Path) -> io::Result<KeepAwake> {
        let mut awake = KeepAwake {
            children: Vec::new(),
        };
        for cpu in allowed_cpus() {
            let mask = mask_of(&[cpu]);
            let mut cmd = Command::new(spin_exe);
            cmd.arg("spin").stdin(Stdio::null()).stdout(Stdio::null());
            // SAFETY: the closure runs in the forked child before exec and
            // only makes async-signal-safe system calls on data it owns.
            unsafe {
                cmd.pre_exec(move || {
                    let idle_priority = 0i32;
                    if prctl(PR_SET_PDEATHSIG, SIGKILL, 0, 0, 0) != 0
                        || sched_setaffinity(0, size_of::<CpuMask>(), mask.as_ptr()) != 0
                        || sched_setscheduler(0, SCHED_IDLE, &idle_priority) != 0
                    {
                        return Err(io::Error::last_os_error());
                    }
                    Ok(())
                });
            }
            awake.children.push(cmd.spawn()?);
        }
        Ok(awake)
    }
}

impl Drop for KeepAwake {
    fn drop(&mut self) {
        reap(&mut self.children);
    }
}

/// Kill and wait for every child.
fn reap(children: &mut [Child]) {
    for child in children.iter_mut() {
        let _ = child.kill();
    }
    for child in children.iter_mut() {
        let _ = child.wait();
    }
}

/// Running `memfsd` children. Dropping the cluster — normally, or while a
/// panic unwinds — kills and reaps every child; a benchmark process that is
/// itself killed takes them down through `PR_SET_PDEATHSIG`.
pub struct Cluster {
    children: Vec<Child>,
    pub addrs: Vec<SocketAddr>,
    /// `stats` requests sent so far, each one server op.
    probe_ops: AtomicU64,
}

impl Cluster {
    /// Spawn [`SERVERS`] servers from the `memfsd` binary and wait for each
    /// one's listen line. Their stdout goes to `log_dir/memfsd-<i>.log`,
    /// which stays open for the child's lifetime: with a dropped pipe
    /// `memfsd` panics on its 30 s status `println!` (README, known defects).
    pub fn spawn(
        memfsd: &Path,
        log_dir: &Path,
        placement: Option<Placement>,
    ) -> io::Result<Cluster> {
        std::fs::create_dir_all(log_dir)?;
        let mut cluster = Cluster {
            children: Vec::new(),
            addrs: Vec::new(),
            probe_ops: AtomicU64::new(0),
        };
        let mut logs: Vec<PathBuf> = Vec::new();
        for i in 0..SERVERS {
            let log = log_dir.join(format!("memfsd-{i}.log"));
            let out = std::fs::File::create(&log)?;
            let mut cmd = Command::new(memfsd);
            cmd.args(["--listen", "127.0.0.1:0", "--memory-gb", "1"])
                .stdin(Stdio::null())
                .stdout(out.try_clone()?)
                .stderr(out);
            // SAFETY: the closure runs in the forked child before exec and
            // only makes async-signal-safe system calls on data it owns.
            unsafe {
                cmd.pre_exec(move || {
                    if prctl(PR_SET_PDEATHSIG, SIGKILL, 0, 0, 0) != 0 {
                        return Err(io::Error::last_os_error());
                    }
                    if let Some(p) = placement {
                        if sched_setaffinity(0, size_of::<CpuMask>(), p.servers.as_ptr()) != 0 {
                            return Err(io::Error::last_os_error());
                        }
                    }
                    Ok(())
                });
            }
            cluster.children.push(cmd.spawn()?);
            logs.push(log);
        }
        for (i, log) in logs.iter().enumerate() {
            let addr = cluster.wait_for_listen_line(i, log)?;
            cluster.addrs.push(addr);
        }
        Ok(cluster)
    }

    /// Poll server `i`'s log for `memfsd listening on <addr> (…`.
    fn wait_for_listen_line(&mut self, i: usize, log: &Path) -> io::Result<SocketAddr> {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            let text = std::fs::read_to_string(log)?;
            if let Some(line) = text.lines().next().filter(|_| text.contains('\n')) {
                return line
                    .strip_prefix("memfsd listening on ")
                    .and_then(|rest| rest.split_whitespace().next())
                    .and_then(|addr| addr.parse().ok())
                    .ok_or_else(|| io::Error::other(format!("memfsd-{i}: {line}")));
            }
            if let Some(status) = self.children[i].try_wait()? {
                return Err(io::Error::other(format!(
                    "memfsd-{i} exited before listening: {status}"
                )));
            }
            if Instant::now() > deadline {
                return Err(io::Error::other(format!("memfsd-{i}: no listen line")));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Whether every server process is still running.
    pub fn all_alive(&mut self) -> bool {
        self.children
            .iter_mut()
            .all(|c| matches!(c.try_wait(), Ok(None)))
    }

    pub fn pids(&self) -> Vec<u32> {
        self.children.iter().map(Child::id).collect()
    }

    /// One `stats` request to every server over a throw-away socket (a
    /// `TcpClient` probe would add a reactor thread per server to the
    /// measured process). Each call costs each server exactly one op, which
    /// [`Cluster::probe_ops`] counts so that callers can subtract it.
    pub fn stats(&self) -> io::Result<Vec<HashMap<String, u64>>> {
        self.probe_ops
            .fetch_add(self.addrs.len() as u64, Ordering::Relaxed);
        self.addrs.iter().map(server_stats).collect()
    }

    /// Server ops the harness's own `stats` requests account for.
    pub fn probe_ops(&self) -> u64 {
        self.probe_ops.load(Ordering::Relaxed)
    }

    /// Counters of all servers, summed: `stats` plus `/proc`.
    pub fn sample(&self) -> io::Result<ServerSample> {
        let mut s = ServerSample::default();
        for stats in self.stats()? {
            let get = |k: &str| stats.get(k).copied().unwrap_or(0);
            s.ops += get("server_ops");
            s.bytes += get("bytes");
            s.rejected_connections += get("rejected_connections");
        }
        for pid in self.pids() {
            let p = proc_sample(&format!("/proc/{pid}"))?;
            s.cpu_s += p.cpu_s;
            s.ctx_switches += p.ctx_switches;
            s.rss_bytes += p.rss_bytes;
        }
        Ok(s)
    }
}

impl Drop for Cluster {
    fn drop(&mut self) {
        reap(&mut self.children);
    }
}

fn server_stats(addr: &SocketAddr) -> io::Result<HashMap<String, u64>> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(10)))?;
    stream.write_all(b"stats\r\n")?;
    let mut stats = HashMap::new();
    for line in BufReader::new(&stream).lines() {
        let line = line?;
        if line == "END" {
            return Ok(stats);
        }
        let mut words = line.split_whitespace();
        if let (Some("STAT"), Some(name), Some(value)) = (words.next(), words.next(), words.next())
        {
            if let Ok(v) = value.parse() {
                stats.insert(name.to_string(), v);
            }
        }
    }
    Err(io::Error::other(format!("{addr}: stats reply without END")))
}

/// All servers' counters at one instant. `ops` includes the `stats`
/// requests that read it: one per server per sample.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerSample {
    pub ops: u64,
    pub bytes: u64,
    pub rejected_connections: u64,
    pub cpu_s: f64,
    pub ctx_switches: u64,
    pub rss_bytes: u64,
}

/// One process's `/proc` counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcSample {
    /// utime + stime, threads that have exited included.
    pub cpu_s: f64,
    /// Voluntary + involuntary context switches of the live threads.
    pub ctx_switches: u64,
    pub rss_bytes: u64,
    pub threads: u64,
}

/// Read `/proc/<pid>` (or `/proc/self`) at `root`.
pub fn proc_sample(root: &str) -> io::Result<ProcSample> {
    let mut s = ProcSample::default();
    let mut stat = String::new();
    std::fs::File::open(format!("{root}/stat"))?.read_to_string(&mut stat)?;
    // Fields after the parenthesised command name, which may hold spaces:
    // state is field 3, utime and stime are fields 14 and 15.
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<&str> = after.split_whitespace().collect();
    let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<f64>().ok());
    match (ticks(11), ticks(12)) {
        (Some(utime), Some(stime)) => s.cpu_s = (utime + stime) / USER_HZ,
        _ => return Err(io::Error::other(format!("{root}/stat: unreadable"))),
    }
    for task in std::fs::read_dir(format!("{root}/task"))? {
        // A thread may exit between the listing and the read.
        let Ok(status) = std::fs::read_to_string(task?.path().join("status")) else {
            continue;
        };
        s.threads += 1;
        s.ctx_switches += status_field(&status, "voluntary_ctxt_switches:")
            + status_field(&status, "nonvoluntary_ctxt_switches:");
    }
    let status = std::fs::read_to_string(format!("{root}/status"))?;
    s.rss_bytes = status_field(&status, "VmRSS:") * 1024;
    Ok(s)
}

fn status_field(status: &str, key: &str) -> u64 {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_own_proc_counters() {
        let s = proc_sample("/proc/self").unwrap();
        assert!(s.threads >= 1);
        assert!(s.rss_bytes > 0);
        assert_eq!(
            status_field("VmRSS:\t  1234 kB\nThreads:\t3\n", "VmRSS:"),
            1234
        );
        assert_eq!(status_field("Threads:\t3\n", "VmRSS:"), 0);
    }
}
