//! `memfsd` — a MemFS storage server daemon.
//!
//! Serves one node's DRAM over the memcached text protocol. Start one per
//! storage node, then point `memfs-cli` (or any `MemFs` mount) at the full
//! server list.
//!
//! ```text
//! memfsd --listen 0.0.0.0:11211 --memory-gb 16
//! ```

use std::fmt;
use std::io::Write;
use std::sync::Arc;

use memfs::memkv::net::KvServer;
use memfs::memkv::{Store, StoreConfig};

fn usage() -> ! {
    eprintln!(
        "memfsd — MemFS storage server (memcached text protocol)\n\n\
         usage: memfsd [--listen ADDR] [--memory-gb N]\n\n\
         options:\n\
           --listen ADDR   bind address (default 127.0.0.1:11211)\n\
           --memory-gb N   memory budget in GiB, at least 1 (default 4);\n\
                           a full server refuses writes, it never evicts"
    );
    std::process::exit(2);
}

/// The budget `--memory-gb` names, in bytes: a whole number of GiB, at
/// least one, that fits in a `u64`. A zero budget — or one whose byte
/// count wraps — would start a server that refuses every write.
fn memory_budget(gib: &str) -> Option<u64> {
    let gib: u64 = gib.parse().ok().filter(|&g| g > 0)?;
    gib.checked_mul(1 << 30)
}

/// Write one status line to `out`. Status is best effort: the first failed
/// write (stdout is a closed pipe — `println!` would panic on the `EPIPE`
/// and take the server down) drops the sink, and later lines go nowhere.
fn status(out: &mut Option<impl Write>, line: fmt::Arguments<'_>) {
    let Some(sink) = out else {
        return;
    };
    if writeln!(sink, "{line}")
        .and_then(|()| sink.flush())
        .is_err()
    {
        *out = None;
    }
}

fn main() {
    let mut listen = "127.0.0.1:11211".to_string();
    let mut budget: u64 = 4 << 30;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--listen" => listen = args.next().unwrap_or_else(|| usage()),
            "--memory-gb" => {
                budget = args
                    .next()
                    .and_then(|v| memory_budget(&v))
                    .unwrap_or_else(|| usage())
            }
            _ => usage(),
        }
    }

    let store = Arc::new(Store::new(StoreConfig {
        memory_budget: budget,
        ..StoreConfig::default()
    }));
    let server = match KvServer::spawn(Arc::clone(&store), listen.as_str()) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("memfsd: cannot bind {listen}: {e}");
            std::process::exit(1);
        }
    };
    let mut out = Some(std::io::stdout());
    status(
        &mut out,
        format_args!(
            "memfsd listening on {} ({} GiB budget)",
            server.addr(),
            budget >> 30
        ),
    );

    // Periodic one-line status until killed.
    loop {
        std::thread::sleep(std::time::Duration::from_secs(30));
        let snap = store.stats().snapshot();
        status(
            &mut out,
            format_args!(
                "items={} bytes={} sets={} gets={} hit_rate={:.2}",
                snap.item_count,
                snap.bytes_used,
                snap.set_ops,
                snap.get_ops,
                snap.hit_rate()
            ),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::io;

    /// A closed pipe: every write fails; counts the attempts.
    struct Broken<'a>(&'a Cell<usize>);

    impl Write for Broken<'_> {
        fn write(&mut self, _buf: &[u8]) -> io::Result<usize> {
            self.0.set(self.0.get() + 1);
            Err(io::ErrorKind::BrokenPipe.into())
        }
        fn flush(&mut self) -> io::Result<()> {
            Err(io::ErrorKind::BrokenPipe.into())
        }
    }

    #[test]
    fn memory_budget_refuses_zero_overflow_and_non_numbers() {
        assert_eq!(memory_budget("4"), Some(4 << 30));
        assert_eq!(memory_budget("0"), None);
        // 2^34 GiB is 2^64 bytes: it used to wrap to a zero budget.
        assert_eq!(memory_budget("17179869184"), None);
        assert_eq!(memory_budget("abc"), None);
    }

    #[test]
    fn status_survives_a_closed_sink_and_stops_writing_to_it() {
        let attempts = Cell::new(0);
        let mut out = Some(Broken(&attempts));
        for i in 0..3 {
            status(&mut out, format_args!("items={i}"));
        }
        assert!(out.is_none(), "a failed sink must be dropped");
        assert_eq!(attempts.get(), 1, "later lines must not touch the sink");
    }

    #[test]
    fn status_writes_whole_lines_to_a_working_sink() {
        let mut out = Some(Vec::new());
        status(
            &mut out,
            format_args!("memfsd listening on {}", "127.0.0.1:1"),
        );
        status(&mut out, format_args!("items={}", 3));
        assert_eq!(
            out.expect("a working sink is kept"),
            b"memfsd listening on 127.0.0.1:1\nitems=3\n"
        );
    }
}
