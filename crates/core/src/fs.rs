//! The MemFS mount: the interface an MTC application sees (the FUSE-client
//! role of paper §3.1.3), with write-once / read-many semantics (§3.2.3).
//!
//! Each [`MemFs`] value corresponds to one mountpoint: it owns a single
//! [`IoEngine`] whose workers run the background jobs — write drains
//! and prefetch windows — of *every* file opened through the mount, so
//! the thread count is set by the config
//! ([`MemFsConfig::io_threads`]) rather than by how many files are open
//! or how many servers there are. Driving all the servers at once is not
//! the engine's job: each batched pool call does that from the thread
//! that makes it (see [`ServerPool`]) — which is all `unlink` needs, so it
//! frees a file's stripes with plain chunked `delete_many` calls.
//! Creating several `MemFs` values over the same server list
//! reproduces the paper's multi-mountpoint deployment (the fix for the
//! FUSE NUMA-spinlock bottleneck of Figure 10) — placement is a pure
//! function of the key, so all mounts see the same namespace.

use std::io;
use std::sync::Arc;

use bytes::Bytes;
use memfs_hashring::schema::KeySchema;
use memfs_memkv::{KvClient, KvError, StoreVerb};

use memfs_hashring::ServerId;

use crate::bufwrite::WriteBuffer;
use crate::config::MemFsConfig;
use crate::error::{MemFsError, MemFsResult};
use crate::layout::StripeLayout;
use crate::meta::{self, ChildKind, SizeRecord};
use crate::mover::{migrate_pass, MigrateConfig, MigrationReport};
use crate::path;
use crate::pool::ServerPool;
use crate::prefetch::StripeReader;
use crate::repair::{repair_pass, RepairConfig, RepairDaemon, RepairReport};
use crate::threadpool::IoEngine;

/// Kind of a namespace entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EntryKind {
    /// Regular file.
    File,
    /// Directory.
    Dir,
}

/// One `readdir` result.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirEntry {
    /// Child name (not the full path).
    pub name: String,
    /// File or directory.
    pub kind: EntryKind,
}

/// Result of [`MemFs::stat`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileStat {
    /// File or directory.
    pub kind: EntryKind,
    /// File size in bytes (0 for directories).
    pub size: u64,
    /// For files: whether the writer has closed it yet.
    pub finalized: bool,
}

/// TCP transport state a [`MemFs::connect`] mount retains so the
/// membership API can admit replacement servers onto the same shared
/// reactor (zero new threads). In-process mounts have none.
struct NetContext {
    reactor: memfs_memkv::ReactorHandle,
    pool_config: memfs_memkv::PoolConfig,
}

struct Inner {
    pool: Arc<ServerPool>,
    config: MemFsConfig,
    engine: Arc<IoEngine>,
    /// Background re-replicator, running when
    /// [`MemFsConfig::repair_interval_ms`] is non-zero. Stopped (thread
    /// joined) when the last mount clone drops. Doubles as the migration
    /// driver while a membership transition is active.
    repair: Option<RepairDaemon>,
    net: Option<NetContext>,
}

/// Stripe keys freed per `delete_many` round during unlink — bounds the
/// per-round allocation while still amortizing round trips.
const UNLINK_BATCH: usize = 4096;

/// Probe width when unlinking a never-finalized file: one batch of this
/// many stripe keys per round until a round deletes nothing.
const PROBE_BATCH: usize = 128;

/// Completed stripes per background drain job. Each job groups its
/// stripes by owning server and issues one pipelined `set_many` per
/// server, so 8 × 512 KiB amortizes the round trip while leaving half of
/// the default 16-stripe write buffer free to refill. One value in use,
/// hence a constant rather than a [`MemFsConfig`] field.
const DRAIN_BATCH_STRIPES: usize = 8;

fn stripe_key_bytes(path: &str, stripe: u64) -> Bytes {
    Bytes::from(KeySchema::stripe_key(path, stripe))
}

/// One validation for every way to mount: the config's own invariants
/// plus the two that depend on the server count.
fn check_config(config: &MemFsConfig, n_servers: usize) -> MemFsResult<()> {
    config.validate().map_err(MemFsError::InvalidConfig)?;
    if n_servers == 0 {
        return Err(MemFsError::InvalidConfig(
            "a mount needs at least one server".into(),
        ));
    }
    if config.replication > n_servers {
        return Err(MemFsError::InvalidConfig(format!(
            "replication factor {} exceeds the {n_servers} servers",
            config.replication
        )));
    }
    Ok(())
}

/// A MemFS mountpoint. Cheap to clone (all clones share the I/O engine).
#[derive(Clone)]
pub struct MemFs {
    inner: Arc<Inner>,
}

impl MemFs {
    /// Mount over `servers` with `config`.
    ///
    /// The first mount initializes the root directory; mounting an
    /// already-populated pool attaches to the existing namespace.
    /// A config that fails [`MemFsConfig::validate`], an empty server
    /// list, or a replication factor above the server count is
    /// [`MemFsError::InvalidConfig`].
    pub fn new(servers: Vec<Arc<dyn KvClient>>, config: MemFsConfig) -> MemFsResult<MemFs> {
        check_config(&config, servers.len())?;
        Self::build(servers, config, None)
    }

    /// Pool + mount over servers whose count `config` was already checked
    /// against.
    fn build(
        servers: Vec<Arc<dyn KvClient>>,
        config: MemFsConfig,
        net: Option<NetContext>,
    ) -> MemFsResult<MemFs> {
        let pool = Arc::new(ServerPool::with_options(
            servers,
            config.distributor,
            config.replication,
            config.io_parallelism,
        ));
        Self::mount(pool, config, net)
    }

    /// Mount over TCP storage servers: connects one
    /// [`memfs_memkv::TcpClient`] per address, all registered on one
    /// shared epoll reactor — a single thread drives the whole cluster
    /// and delivers completions in cross-server batches. Each server gets
    /// [`memfs_memkv::PoolConfig`]'s default connection count, and — exactly
    /// when the repair daemon runs — liveness probes at its interval: the
    /// daemon plans from the health census, which on a quiet mount only
    /// the probes keep true.
    pub fn connect(
        addrs: &[impl std::net::ToSocketAddrs],
        config: MemFsConfig,
    ) -> MemFsResult<MemFs> {
        check_config(&config, addrs.len())?;
        let reactor = memfs_memkv::ReactorHandle::new().map_err(MemFsError::Storage)?;
        let pool_config = memfs_memkv::PoolConfig {
            heartbeat: (config.repair_interval_ms > 0)
                .then(|| std::time::Duration::from_millis(config.repair_interval_ms)),
            ..memfs_memkv::PoolConfig::default()
        };
        let mut servers: Vec<Arc<dyn KvClient>> = Vec::with_capacity(addrs.len());
        for addr in addrs {
            let client =
                memfs_memkv::TcpClient::connect_shared(addr, pool_config.clone(), &reactor)
                    .map_err(MemFsError::Storage)?;
            servers.push(Arc::new(client));
        }
        Self::build(
            servers,
            config,
            Some(NetContext {
                reactor,
                pool_config,
            }),
        )
    }

    /// Mount over an existing [`ServerPool`] (lets several mounts share
    /// routing state, and lets tests inject custom pools). Placement,
    /// replication and the in-flight budget are the pool's; the mount
    /// brings its own engine for its background jobs.
    pub fn with_pool(pool: Arc<ServerPool>, config: MemFsConfig) -> MemFsResult<MemFs> {
        config.validate().map_err(MemFsError::InvalidConfig)?;
        Self::mount(pool, config, None)
    }

    fn repair_config(config: &MemFsConfig) -> RepairConfig {
        RepairConfig {
            bandwidth: config.repair_bandwidth,
            migrate_bandwidth: config.migrate_bandwidth,
            evict_grace: (config.evict_grace_ms > 0)
                .then(|| std::time::Duration::from_millis(config.evict_grace_ms)),
        }
    }

    fn mount(
        pool: Arc<ServerPool>,
        config: MemFsConfig,
        net: Option<NetContext>,
    ) -> MemFsResult<MemFs> {
        let engine = Arc::new(IoEngine::new(config.io_threads, "memfs-io"));
        let repair = (config.repair_interval_ms > 0).then(|| {
            RepairDaemon::spawn(
                Arc::clone(&pool),
                std::time::Duration::from_millis(config.repair_interval_ms),
                Self::repair_config(&config),
            )
        });
        let fs = MemFs {
            inner: Arc::new(Inner {
                pool,
                config,
                engine,
                repair,
                net,
            }),
        };
        // Ensure the root directory exists; racing mounts both succeed.
        match fs.inner.pool.add(&KeySchema::dir_key("/"), Bytes::new()) {
            Ok(()) | Err(MemFsError::Storage(KvError::Exists)) => {}
            Err(e) => return Err(e),
        }
        Ok(fs)
    }

    /// Run one synchronous repair pass over the mount's pool (see
    /// [`crate::repair::repair_pass`]): re-replicates every key the
    /// health census finds short of its home set, under the configured
    /// bandwidth budget. Works whether or not the background daemon is
    /// running.
    pub fn repair_now(&self) -> MemFsResult<RepairReport> {
        repair_pass(&self.inner.pool, &Self::repair_config(&self.inner.config))
    }

    /// Whether the background repair daemon is running.
    pub fn repair_daemon_running(&self) -> bool {
        self.inner.repair.is_some()
    }

    /// Admit one storage server into the live mount: installs a
    /// membership transition whose key ranges migrate in the background
    /// (the repair daemon drives them under
    /// [`MemFsConfig::migrate_bandwidth`]; without a daemon, call
    /// [`Self::migrate_now`] until it reports complete). Foreground
    /// traffic keeps flowing throughout — reads consult the old homes
    /// until a range flips, writes dual-route during its migration
    /// window. Returns the new server's slot id.
    pub fn add_server(&self, client: Arc<dyn KvClient>) -> MemFsResult<ServerId> {
        let ids = self.add_servers(vec![client])?;
        Ok(ids[0])
    }

    /// [`Self::add_server`] for several servers in one transition —
    /// cheaper than admitting them one at a time (one migration instead
    /// of k).
    pub fn add_servers(&self, clients: Vec<Arc<dyn KvClient>>) -> MemFsResult<Vec<ServerId>> {
        self.inner.pool.begin_add_servers(clients)
    }

    /// Admit a TCP storage server by address onto the mount's shared
    /// reactor (zero new threads — its connections join the existing
    /// epoll loop). Only available on [`Self::connect`] mounts.
    pub fn admit_server(&self, addr: impl std::net::ToSocketAddrs) -> MemFsResult<ServerId> {
        let net = self.inner.net.as_ref().ok_or_else(|| {
            MemFsError::InvalidPath("admit_server: not a TCP mount (use add_server)".into())
        })?;
        let client =
            memfs_memkv::TcpClient::connect_shared(&addr, net.pool_config.clone(), &net.reactor)
                .map_err(MemFsError::Storage)?;
        self.add_server(Arc::new(client))
    }

    /// Drain `server` out of the live mount: installs a membership
    /// transition that migrates its owned key ranges onto the remaining
    /// members, after which the slot retires. Rejected while another
    /// transition is active, or if removal would drop the member count
    /// below the replication factor.
    pub fn remove_server(&self, server: ServerId) -> MemFsResult<()> {
        self.inner.pool.begin_remove_server(server)
    }

    /// Whether a membership transition is still migrating.
    pub fn migration_active(&self) -> bool {
        self.inner.pool.transition_active()
    }

    /// Run one synchronous migration pass (see
    /// [`crate::mover::migrate_pass`]) under the configured
    /// [`MemFsConfig::migrate_bandwidth`]. Works whether or not the
    /// background daemon is running; returns `complete: true` once the
    /// transition has committed (or none was active).
    pub fn migrate_now(&self) -> MemFsResult<MigrationReport> {
        migrate_pass(
            &self.inner.pool,
            &MigrateConfig {
                bandwidth: self.inner.config.migrate_bandwidth,
            },
        )
    }

    /// The mount's configuration.
    pub fn config(&self) -> &MemFsConfig {
        &self.inner.config
    }

    /// The server pool behind this mount.
    pub fn pool(&self) -> &Arc<ServerPool> {
        &self.inner.pool
    }

    /// The mount's I/O engine — the one worker set every open file's
    /// drain and prefetch jobs run on.
    pub fn engine(&self) -> &Arc<IoEngine> {
        &self.inner.engine
    }

    fn layout(&self) -> StripeLayout {
        StripeLayout::new(self.inner.config.stripe_size)
    }

    /// Whether each of `keys` exists, asked in one submit window. A probe
    /// is a zero-length ranged read — an empty hit or a miss: a directory
    /// log holds every entry ever appended, and a yes/no must not move it.
    fn probe<const N: usize>(&self, keys: [Vec<u8>; N]) -> [MemFsResult<bool>; N] {
        let reqs = keys.map(|key| (Bytes::from(key), 0, 0));
        let found = |reply| match reply {
            Ok(_) => Ok(true),
            Err(MemFsError::Storage(KvError::NotFound)) => Ok(false),
            Err(e) => Err(e),
        };
        let replies = self.inner.pool.get_range_many(&reqs);
        let found: Vec<_> = replies.into_iter().map(found).collect();
        found.try_into().expect("one reply per probe")
    }

    fn dir_exists(&self, dir: &str) -> MemFsResult<bool> {
        let [found] = self.probe([KeySchema::dir_key(dir)]);
        found
    }

    /// Create `path` for writing. Fails if the file or a directory of the
    /// same name exists (write-once: a file can be written exactly once),
    /// if the parent directory is missing, or — `InvalidPath` — if the
    /// path is too long for its stripe keys ([`path::normalize_new`]).
    ///
    /// Three requests in two steps. In flight together: the probe for a
    /// directory named `path`, and the atomic `add` of the empty size
    /// record — the write-once gate: the second creator loses, even from
    /// another mount. Then the `append` to the parent's log, which is
    /// also the parent check (`append` to a missing key fails), so the
    /// parent's log is never read.
    ///
    /// The gate is thus taken before the checks have answered. A create
    /// that wins it and is then refused — a directory of that name, the
    /// probe failing, no parent — deletes the record again before it
    /// returns. Until then another mount's `open(path)` sees
    /// `NotFinalized` and its `create(path)` `WriteOnce` where each would
    /// have met the same refusal; a client that dies in between leaves
    /// the empty record behind, which [`MemFs::unlink`] clears like any
    /// unclosed file. A storage error from the `append` leaves it too,
    /// as it always has: the entry may have landed.
    pub fn create(&self, raw: &str) -> MemFsResult<WriteHandle> {
        let p = path::normalize_new(raw)?;
        if p == "/" {
            return Err(MemFsError::IsADirectory(p));
        }
        let pool = &self.inner.pool;
        let file_key = KeySchema::file_key(&p);
        let probe = || self.dir_exists(&p);
        let (gate, same_name_dir) =
            pool.store_beside(StoreVerb::Add, &file_key, Bytes::new(), probe);
        // Every way out, and whether it is a refusal known to have listed
        // nothing — only then is a gate that was won given back.
        let (undo, outcome) = match (same_name_dir, gate) {
            (Err(e), gate) => (gate.is_ok(), Err(e)),
            (Ok(true), gate) => (gate.is_ok(), Err(MemFsError::AlreadyExists(p.clone()))),
            (Ok(false), Err(MemFsError::Storage(KvError::Exists))) => {
                (false, Err(MemFsError::WriteOnce(p.clone())))
            }
            (Ok(false), Err(e)) => (false, Err(e)),
            (Ok(false), Ok(())) => match pool.append(
                &KeySchema::dir_key(path::parent(&p)),
                &meta::encode_add(path::basename(&p), ChildKind::File),
            ) {
                Err(MemFsError::Storage(KvError::NotFound)) => {
                    (true, Err(MemFsError::ParentNotFound(p.clone())))
                }
                listed => (false, listed),
            },
        };
        if undo {
            let _ = pool.delete_quiet(&file_key);
        }
        outcome?;
        let buffer = WriteBuffer::new(
            p.clone(),
            self.layout(),
            Arc::clone(&self.inner.pool),
            Arc::clone(&self.inner.engine),
            self.inner.config.write_buffer_stripes(),
            DRAIN_BATCH_STRIPES,
        );
        Ok(WriteHandle {
            fs: self.clone(),
            path: p,
            buffer: Some(buffer),
        })
    }

    /// Open `path` for reading. The file must have been closed by its
    /// writer (its size record finalized).
    ///
    /// One step: the size record and — when the mount prefetches — stripe
    /// 0 whole, in one window (one multi-get when they share a server).
    /// Stripes are stored before `close` finalizes the record and never
    /// rewritten, so a stripe that fits a `Finalized` record is the file's;
    /// the reader starts with it cached (`StripeReader::with_first_stripe`
    /// drops one that does not fit). A missing or unfinalized record drops
    /// it too, and a missing record is then told apart from a directory
    /// by the probe of the directory's log.
    pub fn open(&self, raw: &str) -> MemFsResult<ReadHandle> {
        let p = path::normalize(raw)?;
        let config = &self.inner.config;
        let mut keys = vec![Bytes::from(KeySchema::file_key(&p))];
        if config.prefetch_window > 0 {
            keys.push(stripe_key_bytes(&p, 0));
        }
        let mut replies = self.inner.pool.get_many(&keys).into_iter();
        let record = match replies.next().expect("one reply per key") {
            Ok(v) => v,
            Err(MemFsError::Storage(KvError::NotFound)) => {
                if self.dir_exists(&p)? {
                    return Err(MemFsError::IsADirectory(p));
                }
                return Err(MemFsError::NotFound(p));
            }
            Err(e) => return Err(e),
        };
        let size = match meta::decode_size(&record, &p)? {
            SizeRecord::Open => return Err(MemFsError::NotFinalized(p)),
            SizeRecord::Finalized(size) => size,
        };
        let reader = StripeReader::new(
            p.clone(),
            self.layout(),
            size,
            Arc::clone(&self.inner.pool),
            (config.prefetch_window > 0).then(|| Arc::clone(&self.inner.engine)),
            config.prefetch_window,
            config.read_cache_stripes(),
        )
        .with_first_stripe(replies.next().and_then(Result::ok));
        Ok(ReadHandle {
            path: p,
            reader: Arc::new(reader),
            pos: 0,
        })
    }

    /// Read a whole file into memory (convenience for small files).
    pub fn read_to_vec(&self, raw: &str) -> MemFsResult<Vec<u8>> {
        let handle = self.open(raw)?;
        let mut out = vec![0u8; handle.size() as usize];
        let n = handle.read_at(0, &mut out)?;
        out.truncate(n);
        Ok(out)
    }

    /// Write a whole file from a buffer (convenience).
    pub fn write_file(&self, raw: &str, data: &[u8]) -> MemFsResult<()> {
        let mut handle = self.create(raw)?;
        handle.write_all(data)?;
        handle.close()
    }

    /// Write a whole file from an owned [`Bytes`] buffer — the zero-copy
    /// convenience: stripe-aligned payload spans are sliced out of `data`
    /// by refcount and never staged again on the way to the sockets.
    pub fn write_file_bytes(&self, raw: &str, data: Bytes) -> MemFsResult<()> {
        let mut handle = self.create(raw)?;
        handle.write_bytes(data)?;
        handle.close()
    }

    /// Create directory `path`. The parent must exist.
    ///
    /// Four requests in three steps: the probes of the parent's log and
    /// of a file named `path` in one window, the `add` of the empty log,
    /// the `append` to the parent's. Unlike [`MemFs::create`] the gate
    /// waits for the checks: undoing a speculative `add` could delete a
    /// directory another mount has already created a child in.
    pub fn mkdir(&self, raw: &str) -> MemFsResult<()> {
        let p = path::normalize_new(raw)?;
        if p == "/" {
            return Err(MemFsError::AlreadyExists(p));
        }
        let parent = path::parent(&p).to_string();
        let [parent_exists, same_name_file] =
            self.probe([KeySchema::dir_key(&parent), KeySchema::file_key(&p)]);
        if !parent_exists? {
            return Err(MemFsError::ParentNotFound(p));
        }
        if same_name_file? {
            return Err(MemFsError::AlreadyExists(p));
        }
        match self.inner.pool.add(&KeySchema::dir_key(&p), Bytes::new()) {
            Ok(()) => {}
            Err(MemFsError::Storage(KvError::Exists)) => {
                return Err(MemFsError::AlreadyExists(p));
            }
            Err(e) => return Err(e),
        }
        self.inner.pool.append(
            &KeySchema::dir_key(&parent),
            &meta::encode_add(path::basename(&p), ChildKind::Dir),
        )?;
        Ok(())
    }

    /// Create a directory and all missing ancestors.
    pub fn mkdir_all(&self, raw: &str) -> MemFsResult<()> {
        let p = path::normalize(raw)?;
        if p == "/" {
            return Ok(());
        }
        let mut prefix = String::new();
        for comp in p.split('/').filter(|c| !c.is_empty()) {
            prefix.push('/');
            prefix.push_str(comp);
            match self.mkdir(&prefix) {
                Ok(()) | Err(MemFsError::AlreadyExists(_)) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// List the live children of directory `path`, sorted by name.
    pub fn readdir(&self, raw: &str) -> MemFsResult<Vec<DirEntry>> {
        let p = path::normalize(raw)?;
        let log = match self.inner.pool.try_get(&KeySchema::dir_key(&p))? {
            Some(v) => v,
            None => {
                if self.inner.pool.try_get(&KeySchema::file_key(&p))?.is_some() {
                    return Err(MemFsError::NotADirectory(p));
                }
                return Err(MemFsError::NotFound(p));
            }
        };
        Ok(meta::fold_dir_log(&log, &p)?
            .into_iter()
            .map(|(name, kind)| DirEntry {
                name,
                kind: match kind {
                    ChildKind::File => EntryKind::File,
                    ChildKind::Dir => EntryKind::Dir,
                },
            })
            .collect())
    }

    /// Entry metadata for `path`.
    pub fn stat(&self, raw: &str) -> MemFsResult<FileStat> {
        let p = path::normalize(raw)?;
        if let Some(record) = self.inner.pool.try_get(&KeySchema::file_key(&p))? {
            return Ok(match meta::decode_size(&record, &p)? {
                SizeRecord::Open => FileStat {
                    kind: EntryKind::File,
                    size: 0,
                    finalized: false,
                },
                SizeRecord::Finalized(size) => FileStat {
                    kind: EntryKind::File,
                    size,
                    finalized: true,
                },
            });
        }
        if self.dir_exists(&p)? {
            return Ok(FileStat {
                kind: EntryKind::Dir,
                size: 0,
                finalized: true,
            });
        }
        Err(MemFsError::NotFound(p))
    }

    /// Whether `path` exists (file or directory).
    pub fn exists(&self, raw: &str) -> MemFsResult<bool> {
        match self.stat(raw) {
            Ok(_) => Ok(true),
            Err(MemFsError::NotFound(_)) => Ok(false),
            Err(e) => Err(e),
        }
    }

    /// Delete file `path`: frees its stripes and size record, and appends
    /// a tombstone to the parent's log (paper §3.2.4 only tombstones; we
    /// additionally reclaim the stripes so runtime memory is reusable).
    ///
    /// Three steps: read the size record; free the stripes in batched
    /// [`ServerPool::delete_many`] rounds — one pipelined multi-delete per
    /// server, all servers at once; then the record's `delete` and the
    /// tombstone's `append`, in flight together. A failure freeing the
    /// stripes stops there, so the record stays as the marker that
    /// stripes may remain. The last two are both always attempted, and
    /// the first error in (delete, append) order is returned. If only the
    /// delete lands, the file is gone but still listed (the serial form's
    /// window too); if only the append, it is unlisted with its record
    /// still there, which a retried `unlink` finds and finishes.
    ///
    /// A file whose size record is still open (its writer crashed or the
    /// handle leaked before `close`) is unlinked too: the stripes it
    /// managed to store are probed and freed best-effort, then the name
    /// is released. Without this, such files are permanent zombies — no
    /// writer will ever finalize them, and they can neither be read nor
    /// removed.
    pub fn unlink(&self, raw: &str) -> MemFsResult<()> {
        let p = path::normalize(raw)?;
        let record = match self.inner.pool.try_get(&KeySchema::file_key(&p))? {
            Some(v) => v,
            None => {
                if self.dir_exists(&p)? {
                    return Err(MemFsError::IsADirectory(p));
                }
                return Err(MemFsError::NotFound(p));
            }
        };
        match meta::decode_size(&record, &p)? {
            SizeRecord::Finalized(size) => {
                let count = self.layout().stripe_count(size);
                let keys: Vec<Bytes> = (0..count).map(|s| stripe_key_bytes(&p, s)).collect();
                self.delete_stripe_batch(&keys)?;
            }
            SizeRecord::Open => self.probe_delete_stripes(&p)?,
        }
        let (unlisted, erased) = self.inner.pool.store_beside(
            StoreVerb::Append,
            &KeySchema::dir_key(path::parent(&p)),
            meta::encode_remove(path::basename(&p)).into(),
            // A window of one, so the pool's gauges see both requests.
            || self.delete_stripe_batch(&[KeySchema::file_key(&p).into()]),
        );
        erased.and(unlisted)
    }

    /// Free `keys` in [`UNLINK_BATCH`]-key [`ServerPool::delete_many`]
    /// rounds, one after another: each round is already one pipelined
    /// batch per owning server with every server in flight, so a file
    /// costs ⌈stripes / `UNLINK_BATCH`⌉ round trips. With no rounds
    /// running side by side, a server takes its share of even a very deep
    /// file (> 1024 stripes, 512 MiB at the default stripe size) on one
    /// connection at a time. Both outcomes per key are fine (`true`
    /// deleted, `false` already gone); a storage error aborts so the size
    /// record stays behind as the marker that stripes may remain.
    fn delete_stripe_batch(&self, keys: &[Bytes]) -> MemFsResult<()> {
        for chunk in keys.chunks(UNLINK_BATCH) {
            for deleted in self.inner.pool.delete_many(chunk) {
                deleted?;
            }
        }
        Ok(())
    }

    /// Free the stripes of a never-finalized file. Its true length is
    /// unknown (only the crashed writer knew), but stripes are written
    /// sequentially, so probe forward in [`PROBE_BATCH`]-key rounds until
    /// a whole round reports nothing deleted — one round trip more than
    /// ⌈stripes / `PROBE_BATCH`⌉. Deleting an absent stripe is
    /// `Ok(false)`, so probing past the end is harmless.
    fn probe_delete_stripes(&self, p: &str) -> MemFsResult<()> {
        for first in (0u64..).step_by(PROBE_BATCH) {
            let keys: Vec<Bytes> = (first..first + PROBE_BATCH as u64)
                .map(|s| stripe_key_bytes(p, s))
                .collect();
            let mut any = false;
            for deleted in self.inner.pool.delete_many(&keys) {
                any |= deleted?;
            }
            if !any {
                break;
            }
        }
        Ok(())
    }

    /// Remove empty directory `path`.
    pub fn rmdir(&self, raw: &str) -> MemFsResult<()> {
        let p = path::normalize(raw)?;
        if p == "/" {
            return Err(MemFsError::InvalidPath(p));
        }
        let children = self.readdir(&p)?;
        if !children.is_empty() {
            return Err(MemFsError::DirectoryNotEmpty(p));
        }
        self.inner.pool.delete_quiet(&KeySchema::dir_key(&p))?;
        self.inner.pool.append(
            &KeySchema::dir_key(path::parent(&p)),
            &meta::encode_remove(path::basename(&p)),
        )?;
        Ok(())
    }
}

impl std::fmt::Debug for MemFs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemFs")
            .field("servers", &self.inner.pool.n_servers())
            .field("stripe_size", &self.inner.config.stripe_size)
            .finish()
    }
}

/// An exclusive, sequential, write-once handle (paper §3.2.3).
///
/// Dropping the handle closes the file best-effort; call [`Self::close`]
/// to observe errors.
pub struct WriteHandle {
    fs: MemFs,
    path: String,
    buffer: Option<WriteBuffer>,
}

impl WriteHandle {
    /// The file's normalized path.
    pub fn path(&self) -> &str {
        &self.path
    }

    /// Bytes written so far.
    pub fn written(&self) -> u64 {
        self.buffer.as_ref().map_or(0, |b| b.written())
    }

    /// Append `data` at the end of the file.
    pub fn write_all(&mut self, data: &[u8]) -> MemFsResult<()> {
        self.buffer.as_mut().ok_or(MemFsError::Closed)?.write(data)
    }

    /// Append owned bytes at the end of the file without staging:
    /// stripe-aligned spans travel to the storage servers as refcounted
    /// slices of `data` (see [`WriteBuffer::write_bytes`]).
    pub fn write_bytes(&mut self, data: Bytes) -> MemFsResult<()> {
        self.buffer
            .as_mut()
            .ok_or(MemFsError::Closed)?
            .write_bytes(data)
    }

    /// Write at an explicit offset — permitted only at the current end of
    /// file (MemFS restricts writes to "writing once, and only
    /// sequentially").
    pub fn write_at(&mut self, offset: u64, data: &[u8]) -> MemFsResult<()> {
        let expected = self.written();
        if offset != expected {
            return Err(MemFsError::NonSequentialWrite {
                path: self.path.clone(),
                requested: offset,
                expected,
            });
        }
        self.write_all(data)
    }

    /// Block until all buffered full stripes are stored.
    pub fn flush(&mut self) -> MemFsResult<()> {
        self.buffer.as_mut().ok_or(MemFsError::Closed)?.flush()
    }

    /// Finish the file: drain the buffer, then publish the final size in
    /// the metadata record, making the file readable everywhere. If any
    /// drain of this handle failed — now or on an earlier call that
    /// already reported it — that failure is returned and no size is
    /// published: the file stays `NotFinalized`, for `unlink` to remove.
    pub fn close(&mut self) -> MemFsResult<()> {
        let mut buffer = self.buffer.take().ok_or(MemFsError::Closed)?;
        let size = buffer.finish()?;
        self.fs.inner.pool.set(
            &KeySchema::file_key(&self.path),
            Bytes::from(meta::encode_size(size)),
        )?;
        Ok(())
    }
}

impl std::fmt::Debug for WriteHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WriteHandle")
            .field("path", &self.path)
            .field("written", &self.written())
            .field("closed", &self.buffer.is_none())
            .finish()
    }
}

impl Drop for WriteHandle {
    fn drop(&mut self) {
        if self.buffer.is_some() {
            let _ = self.close();
        }
    }
}

impl io::Write for WriteHandle {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.write_all(buf)
            .map(|_| buf.len())
            .map_err(io::Error::other)
    }

    fn flush(&mut self) -> io::Result<()> {
        WriteHandle::flush(self).map_err(io::Error::other)
    }
}

/// A POSIX-style read handle: any offset, any number of times, shareable
/// across threads via [`ReadHandle::read_at`]. The handle also carries a
/// cursor for `std::io::Read` convenience.
pub struct ReadHandle {
    path: String,
    reader: Arc<StripeReader>,
    pos: u64,
}

impl ReadHandle {
    /// The file's normalized path.
    pub fn path(&self) -> &str {
        &self.path
    }

    /// The file's final size.
    pub fn size(&self) -> u64 {
        self.reader.file_size()
    }

    /// Read up to `buf.len()` bytes at `offset`, returning the byte count
    /// (short only at end of file). [`StripeReader::read_at`] decides, per
    /// stripe touched, between the cached whole-stripe path with its
    /// prefetch window and a ranged fetch of just the bytes asked for; a
    /// read spanning several stripes (and therefore
    /// [`MemFs::read_to_vec`]) drives all their servers at once.
    pub fn read_at(&self, offset: u64, buf: &mut [u8]) -> MemFsResult<usize> {
        self.reader.read_at(offset, buf)
    }

    /// A clone sharing the same prefetch cache but with an independent
    /// cursor (several threads of one task reading one file).
    pub fn duplicate(&self) -> ReadHandle {
        ReadHandle {
            path: self.path.clone(),
            reader: Arc::clone(&self.reader),
            pos: 0,
        }
    }
}

impl std::fmt::Debug for ReadHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReadHandle")
            .field("path", &self.path)
            .field("size", &self.size())
            .field("pos", &self.pos)
            .finish()
    }
}

impl io::Read for ReadHandle {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.read_at(self.pos, buf).map_err(io::Error::other)?;
        self.pos += n as u64;
        Ok(n)
    }
}

impl io::Seek for ReadHandle {
    fn seek(&mut self, pos: io::SeekFrom) -> io::Result<u64> {
        let new = match pos {
            io::SeekFrom::Start(o) => o as i128,
            io::SeekFrom::End(d) => self.size() as i128 + d as i128,
            io::SeekFrom::Current(d) => self.pos as i128 + d as i128,
        };
        if new < 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "seek before start",
            ));
        }
        self.pos = new as u64;
        Ok(self.pos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memfs_memkv::{LocalClient, Store, StoreConfig};

    fn mount(n_servers: usize) -> MemFs {
        mount_with(
            n_servers,
            MemFsConfig {
                stripe_size: 128,
                write_buffer_size: 1024,
                read_cache_size: 1024,
                io_threads: 2,
                prefetch_window: 4,
                ..MemFsConfig::default()
            },
        )
    }

    fn mount_with(n_servers: usize, config: MemFsConfig) -> MemFs {
        let servers: Vec<Arc<dyn KvClient>> = (0..n_servers)
            .map(|_| {
                Arc::new(LocalClient::new(Arc::new(Store::new(
                    StoreConfig::default(),
                )))) as Arc<dyn KvClient>
            })
            .collect();
        MemFs::new(servers, config).unwrap()
    }

    #[test]
    fn write_then_read_round_trip() {
        let fs = mount(4);
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 253) as u8).collect();
        fs.write_file("/data.bin", &data).unwrap();
        assert_eq!(fs.read_to_vec("/data.bin").unwrap(), data);
    }

    #[test]
    fn empty_file_round_trip() {
        let fs = mount(2);
        fs.write_file("/empty", b"").unwrap();
        assert_eq!(fs.read_to_vec("/empty").unwrap(), Vec::<u8>::new());
        assert_eq!(fs.stat("/empty").unwrap().size, 0);
    }

    #[test]
    fn write_once_enforced() {
        let fs = mount(2);
        fs.write_file("/once", b"first").unwrap();
        assert!(matches!(fs.create("/once"), Err(MemFsError::WriteOnce(_))));
        // Data unchanged.
        assert_eq!(fs.read_to_vec("/once").unwrap(), b"first");
    }

    #[test]
    fn write_once_enforced_across_mounts() {
        let servers: Vec<Arc<dyn KvClient>> = (0..2)
            .map(|_| {
                Arc::new(LocalClient::new(Arc::new(Store::new(
                    StoreConfig::default(),
                )))) as Arc<dyn KvClient>
            })
            .collect();
        let fs1 = MemFs::new(servers.clone(), MemFsConfig::default()).unwrap();
        let fs2 = MemFs::new(servers, MemFsConfig::default()).unwrap();
        fs1.write_file("/shared", b"from mount 1").unwrap();
        assert!(matches!(
            fs2.create("/shared"),
            Err(MemFsError::WriteOnce(_))
        ));
        assert_eq!(fs2.read_to_vec("/shared").unwrap(), b"from mount 1");
    }

    #[test]
    fn sequential_write_at_allowed_random_rejected() {
        let fs = mount(2);
        let mut w = fs.create("/f").unwrap();
        w.write_at(0, b"abc").unwrap();
        w.write_at(3, b"def").unwrap();
        assert!(matches!(
            w.write_at(2, b"x"),
            Err(MemFsError::NonSequentialWrite {
                requested: 2,
                expected: 6,
                ..
            })
        ));
        w.close().unwrap();
        assert_eq!(fs.read_to_vec("/f").unwrap(), b"abcdef");
    }

    #[test]
    fn open_before_close_is_not_finalized() {
        let fs = mount(2);
        let mut w = fs.create("/slow").unwrap();
        w.write_all(b"partial").unwrap();
        assert!(matches!(fs.open("/slow"), Err(MemFsError::NotFinalized(_))));
        w.close().unwrap();
        assert_eq!(fs.read_to_vec("/slow").unwrap(), b"partial");
    }

    #[test]
    fn drop_closes_the_file() {
        let fs = mount(2);
        {
            let mut w = fs.create("/dropped").unwrap();
            w.write_all(b"bytes").unwrap();
        }
        assert_eq!(fs.read_to_vec("/dropped").unwrap(), b"bytes");
    }

    #[test]
    fn double_close_reports_closed() {
        let fs = mount(2);
        let mut w = fs.create("/f").unwrap();
        w.close().unwrap();
        assert!(matches!(w.close(), Err(MemFsError::Closed)));
        assert!(matches!(w.write_all(b"x"), Err(MemFsError::Closed)));
    }

    #[test]
    fn directories_and_readdir() {
        let fs = mount(2);
        fs.mkdir("/proj").unwrap();
        fs.mkdir("/proj/run1").unwrap();
        fs.write_file("/proj/run1/a.dat", b"a").unwrap();
        fs.write_file("/proj/run1/b.dat", b"b").unwrap();
        let entries = fs.readdir("/proj/run1").unwrap();
        assert_eq!(
            entries,
            vec![
                DirEntry {
                    name: "a.dat".into(),
                    kind: EntryKind::File
                },
                DirEntry {
                    name: "b.dat".into(),
                    kind: EntryKind::File
                },
            ]
        );
        let top = fs.readdir("/").unwrap();
        assert_eq!(
            top,
            vec![DirEntry {
                name: "proj".into(),
                kind: EntryKind::Dir
            }]
        );
    }

    #[test]
    fn mkdir_requires_parent() {
        let fs = mount(2);
        assert!(matches!(
            fs.mkdir("/no/such/parent"),
            Err(MemFsError::ParentNotFound(_))
        ));
        fs.mkdir_all("/no/such/parent").unwrap();
        assert!(fs.exists("/no/such/parent").unwrap());
    }

    #[test]
    fn create_requires_parent() {
        let fs = mount(2);
        assert!(matches!(
            fs.create("/missing/file"),
            Err(MemFsError::ParentNotFound(_))
        ));
    }

    #[test]
    fn unlink_frees_and_hides() {
        let fs = mount(4);
        let data = vec![7u8; 1000];
        fs.write_file("/victim", &data).unwrap();
        fs.unlink("/victim").unwrap();
        assert!(matches!(fs.open("/victim"), Err(MemFsError::NotFound(_))));
        assert!(fs.readdir("/").unwrap().is_empty());
        // Name is reusable (fresh object).
        fs.write_file("/victim", b"new").unwrap();
        assert_eq!(fs.read_to_vec("/victim").unwrap(), b"new");
    }

    #[test]
    fn unlink_open_file_clears_zombie() {
        // Regression: a writer that crashes (or leaks its handle) before
        // `close` used to leave a permanent zombie — `open` says
        // NotFinalized forever and `unlink` refused with the same error,
        // so neither the name nor the flushed stripes were recoverable.
        let servers: Vec<Arc<Store>> = (0..4)
            .map(|_| Arc::new(Store::new(StoreConfig::default())))
            .collect();
        let clients: Vec<Arc<dyn KvClient>> = servers
            .iter()
            .map(|s| Arc::new(LocalClient::new(Arc::clone(s))) as Arc<dyn KvClient>)
            .collect();
        let fs = MemFs::new(
            clients,
            MemFsConfig {
                stripe_size: 128,
                write_buffer_size: 1024,
                ..MemFsConfig::default()
            },
        )
        .unwrap();
        let mut w = fs.create("/zombie").unwrap();
        w.write_all(&vec![9u8; 1000]).unwrap();
        w.flush().unwrap();
        std::mem::forget(w); // the writer "crashes": close never runs
        assert!(matches!(
            fs.open("/zombie"),
            Err(MemFsError::NotFinalized(_))
        ));
        fs.unlink("/zombie").unwrap();
        assert!(matches!(fs.open("/zombie"), Err(MemFsError::NotFound(_))));
        assert!(fs.readdir("/").unwrap().is_empty());
        // The flushed stripes were reclaimed — only the root's small
        // directory log remains on the servers.
        let leftover: u64 = servers.iter().map(|s| s.bytes_used()).sum();
        assert!(
            leftover < 128,
            "stripes not reclaimed: {leftover} bytes left"
        );
        // The name is immediately reusable.
        fs.write_file("/zombie", b"alive").unwrap();
        assert_eq!(fs.read_to_vec("/zombie").unwrap(), b"alive");
    }

    #[test]
    fn unlink_open_file_with_nothing_flushed() {
        let fs = mount(2);
        let mut w = fs.create("/empty-zombie").unwrap();
        w.write_all(b"tiny").unwrap(); // less than a stripe: nothing stored yet
        std::mem::forget(w);
        fs.unlink("/empty-zombie").unwrap();
        assert!(!fs.exists("/empty-zombie").unwrap());
    }

    type Failable = memfs_memkv::FailableClient<LocalClient>;

    /// `n` stores behind failure-injectable clients, mounted with tiny
    /// stripes so thousands of them stay cheap.
    fn small_stripe_mount(n: usize) -> (Vec<Arc<Store>>, Vec<Arc<Failable>>, MemFs) {
        failable_mount(n, small_stripe_config())
    }

    fn small_stripe_config() -> MemFsConfig {
        MemFsConfig {
            stripe_size: 16,
            write_buffer_size: 1024,
            read_cache_size: 1024,
            ..MemFsConfig::default()
        }
    }

    fn failable_mount(
        n: usize,
        config: MemFsConfig,
    ) -> (Vec<Arc<Store>>, Vec<Arc<Failable>>, MemFs) {
        let stores: Vec<Arc<Store>> = (0..n)
            .map(|_| Arc::new(Store::new(StoreConfig::default())))
            .collect();
        let failables: Vec<_> = stores
            .iter()
            .map(|s| Arc::new(Failable::new(LocalClient::new(Arc::clone(s)))))
            .collect();
        let clients = failables
            .iter()
            .map(|c| Arc::clone(c) as Arc<dyn KvClient>)
            .collect();
        (stores, failables, MemFs::new(clients, config).unwrap())
    }

    fn items(stores: &[Arc<Store>]) -> u64 {
        stores.iter().map(|s| s.item_count()).sum()
    }

    /// Nothing but the root directory's log is left on the servers.
    fn assert_only_root_remains(stores: &[Arc<Store>], what: &str) {
        assert_eq!(items(stores), 1, "{what}: keys left behind");
    }

    #[test]
    fn unlink_frees_a_file_one_stripe_past_the_batch() {
        let (stores, _, fs) = small_stripe_mount(4);
        let stripes = UNLINK_BATCH + 1;
        fs.write_file("/deep", &vec![5u8; stripes * 16]).unwrap();
        assert_eq!(
            items(&stores),
            stripes as u64 + 2,
            "stripes + size record + root"
        );
        fs.unlink("/deep").unwrap();
        assert_only_root_remains(&stores, "finalized file");
        fs.write_file("/deep", b"again").unwrap();
        assert_eq!(fs.read_to_vec("/deep").unwrap(), b"again");
    }

    #[test]
    fn unlink_frees_zombies_at_the_probe_boundaries() {
        // A round that deletes exactly PROBE_BATCH stripes must be
        // followed by one more (which deletes nothing and ends the probe);
        // one stripe either side of the boundary and two full rounds too.
        for flushed in [
            PROBE_BATCH - 1,
            PROBE_BATCH,
            PROBE_BATCH + 1,
            2 * PROBE_BATCH,
        ] {
            let (stores, _, fs) = small_stripe_mount(4);
            let mut w = fs.create("/zombie").unwrap();
            w.write_all(&vec![9u8; flushed * 16]).unwrap();
            w.flush().unwrap();
            std::mem::forget(w); // the writer "crashes": close never runs
            assert_eq!(
                items(&stores),
                flushed as u64 + 2,
                "{flushed} flushed stripes"
            );
            fs.unlink("/zombie").unwrap();
            assert_only_root_remains(&stores, &format!("{flushed}-stripe zombie"));
            fs.write_file("/zombie", b"alive").unwrap();
            assert_eq!(fs.read_to_vec("/zombie").unwrap(), b"alive");
        }
    }

    #[test]
    fn deep_unlink_with_a_server_down_keeps_the_size_record() {
        let (stores, failables, fs) = small_stripe_mount(4);
        fs.write_file("/deep", &vec![5u8; (UNLINK_BATCH + 1) * 16])
            .unwrap();
        // A server holding stripes but neither metadata key, so the
        // failure comes from the stripe rounds alone.
        let meta = [
            fs.pool().server_for(&KeySchema::file_key("/deep")).0,
            fs.pool().server_for(&KeySchema::dir_key("/")).0,
        ];
        let down = (0..4).find(|s| !meta.contains(s)).unwrap();
        failables[down].set_down(true);
        assert!(matches!(fs.unlink("/deep"), Err(MemFsError::Storage(_))));
        // The size record stays behind as the marker that stripes remain:
        // the file is still there, and still finalized.
        assert!(fs.stat("/deep").unwrap().finalized);
        assert!(stores[down].item_count() > 0);
        failables[down].set_down(false);
        fs.unlink("/deep").unwrap();
        assert_only_root_remains(&stores, "retried unlink");
    }

    #[test]
    fn a_failed_drain_is_never_finalized_by_close_or_drop() {
        for by_drop in [false, true] {
            let config = MemFsConfig {
                stripe_size: 1024,
                write_buffer_size: 8 * 1024,
                ..MemFsConfig::default()
            };
            let (stores, failables, fs) = failable_mount(2, config);
            let record = fs.pool().server_for(&KeySchema::file_key("/f")).0;
            let chunk = vec![7u8; 4096];
            let mut w = fs.create("/f").unwrap();
            for _ in 0..4 {
                w.write_all(&chunk).unwrap();
            }
            w.flush().unwrap();
            // The server that does not hold the size record goes down
            // mid-file: half of the stripes that follow have no home.
            failables[1 - record].set_down(true);
            let refused = (0..8).filter(|_| w.write_all(&chunk).is_err()).count();
            assert!(refused > 0, "a drain must have failed by now");
            // From the first failure on the handle only ever fails, with
            // the server back too, and accepts no more bytes.
            failables[1 - record].set_down(false);
            let written = w.written();
            assert!(matches!(w.write_all(&chunk), Err(MemFsError::Storage(_))));
            assert!(matches!(w.flush(), Err(MemFsError::Storage(_))));
            let owned = Bytes::from(chunk.clone());
            assert!(matches!(w.write_bytes(owned), Err(MemFsError::Storage(_))));
            assert_eq!(w.written(), written);
            if by_drop {
                drop(w);
            } else {
                assert!(matches!(w.close(), Err(MemFsError::Storage(_))));
                assert!(matches!(w.close(), Err(MemFsError::Closed)));
            }
            // No size was published over the hole: the file stays open,
            // unreadable, and removable.
            assert!(!fs.stat("/f").unwrap().finalized, "by_drop {by_drop}");
            assert!(matches!(fs.open("/f"), Err(MemFsError::NotFinalized(_))));
            fs.unlink("/f").unwrap();
            assert_only_root_remains(&stores, "a file whose drain failed");
        }
    }

    /// The longest path `create` and `mkdir` take can be written past 100
    /// stripes (where the stripe key grows a digit), read, unlinked; one
    /// byte more is refused before anything is stored.
    fn longest_path_works_and_the_next_is_refused(fs: &MemFs, what: &str) {
        use memfs_memkv::store::MAX_KEY_LEN;
        let longest = format!("/{}", "x".repeat(MAX_KEY_LEN - 24));
        assert_eq!(KeySchema::stripe_key(&longest, u64::MAX).len(), MAX_KEY_LEN);
        let data: Vec<u8> = (0..150 * 16).map(|i| (i % 251) as u8).collect();
        fs.write_file(&longest, &data).expect(what);
        assert_eq!(fs.read_to_vec(&longest).expect(what), data, "{what}");
        assert_eq!(fs.readdir("/").unwrap().len(), 1, "{what}");
        fs.unlink(&longest).expect(what);
        fs.mkdir(&longest).expect(what);
        fs.rmdir(&longest).expect(what);
        let too_long = format!("{longest}x");
        for refused in [fs.create(&too_long).map(drop), fs.mkdir(&too_long)] {
            assert!(
                matches!(&refused, Err(MemFsError::InvalidPath(p)) if *p == too_long),
                "{what}: {refused:?}"
            );
        }
        assert!(fs.readdir("/").unwrap().is_empty(), "{what}");
    }

    #[test]
    fn a_path_create_accepts_fits_every_key_it_is_embedded_in() {
        let (stores, _, fs) = small_stripe_mount(2);
        longest_path_works_and_the_next_is_refused(&fs, "local");
        assert_only_root_remains(&stores, "local");

        let servers: Vec<_> = (0..2)
            .map(|_| {
                let store = Arc::new(Store::new(StoreConfig::default()));
                memfs_memkv::KvServer::spawn(store, "127.0.0.1:0").unwrap()
            })
            .collect();
        let addrs: Vec<_> = servers.iter().map(|s| s.addr()).collect();
        let fs = MemFs::connect(&addrs, fs.config().clone()).unwrap();
        longest_path_works_and_the_next_is_refused(&fs, "tcp");
        let left: u64 = servers.iter().map(|s| s.store().item_count()).sum();
        assert_eq!(left, 1, "tcp: keys left behind");
    }

    /// A mount over recording clients (`pool.rs`'s `SubmitProbe`), its
    /// log drained of the mount's own `add d:/`.
    fn recording_mount(n: usize) -> (Arc<crate::pool::tests::ProbeLog>, MemFs) {
        recording_mount_with(n, MemFsConfig::default().prefetch_window)
    }

    /// [`recording_mount`] prefetching `prefetch_window` stripes.
    fn recording_mount_with(
        n: usize,
        prefetch_window: usize,
    ) -> (Arc<crate::pool::tests::ProbeLog>, MemFs) {
        let stores: Vec<Arc<Store>> = (0..n)
            .map(|_| Arc::new(Store::new(StoreConfig::default())))
            .collect();
        let (clients, log) = crate::pool::tests::probe_clients(&stores);
        let config = MemFsConfig {
            stripe_size: 128,
            prefetch_window,
            ..MemFsConfig::default()
        };
        let fs = MemFs::new(clients, config).unwrap();
        assert_eq!(log.take_steps(), [["add d:/"]]);
        (log, fs)
    }

    // The request counts of the hot metadata paths, and what is in flight
    // together (one inner list = one step, see `ProbeLog::take_steps`).
    // These are the numbers a later change may not silently raise.

    #[test]
    fn pinned_create_is_three_requests_in_two_steps() {
        let (log, fs) = recording_mount(4);
        let mut w = fs.create("/a").unwrap();
        // The parent's log is never read: the append is the check.
        assert_eq!(
            log.take_steps(),
            [vec!["add f:/a", "getrange d:/a 0 0"], vec!["append d:/"]]
        );
        // A refused create costs the same three plus the undo.
        assert!(fs.create("/missing/f").is_err());
        assert_eq!(
            log.take_steps(),
            [
                vec!["add f:/missing/f", "getrange d:/missing/f 0 0"],
                vec!["append d:/missing"],
                vec!["delete f:/missing/f"]
            ]
        );
        w.close().unwrap();
    }

    #[test]
    fn pinned_mkdir_is_four_requests_in_three_steps() {
        let (log, fs) = recording_mount(4);
        fs.mkdir("/d").unwrap();
        assert_eq!(
            log.take_steps(),
            [
                vec!["getrange d:/ 0 0", "getrange f:/d 0 0"],
                vec!["add d:/d"],
                vec!["append d:/"]
            ]
        );
    }

    #[test]
    fn pinned_one_stripe_file_costs_two_to_close_one_to_read_four_to_unlink() {
        let (log, fs) = recording_mount(4);
        let mut w = fs.create("/a").unwrap();
        w.write_all(&[7u8; 100]).unwrap();
        log.take_steps();
        w.close().unwrap();
        assert_eq!(log.take_steps(), [["set s:/a#0"], ["set f:/a"]]);
        // The stripe travels beside the record; the read is a cache copy.
        assert_eq!(fs.read_to_vec("/a").unwrap(), [7u8; 100]);
        assert_eq!(log.take_steps(), [["get f:/a", "get s:/a#0"]]);
        fs.unlink("/a").unwrap();
        assert_eq!(
            log.take_steps(),
            [
                vec!["get f:/a"],
                vec!["delete s:/a#0"],
                vec!["append d:/", "delete f:/a"]
            ]
        );
    }

    #[test]
    fn pinned_open_is_one_step_for_every_outcome() {
        let (log, fs) = recording_mount(4);
        let data: Vec<u8> = (0..300u32).map(|i| i as u8).collect();
        fs.write_file("/c", &data).unwrap();
        fs.write_file("/z", b"").unwrap();
        fs.mkdir("/d").unwrap();
        log.take_steps();
        // Three stripes: the open step, then stripes 1 and 2 together.
        assert_eq!(fs.read_to_vec("/c").unwrap(), data);
        assert_eq!(
            log.take_steps(),
            [
                vec!["get f:/c", "get s:/c#0"],
                vec!["getrange s:/c#1 0 128", "getrange s:/c#2 0 44"]
            ]
        );
        // Zero bytes: nothing to read after the open.
        assert_eq!(fs.read_to_vec("/z").unwrap(), b"");
        assert_eq!(log.take_steps(), [["get f:/z", "get s:/z#0"]]);
        // No record: the directory probe tells the two misses apart.
        assert!(matches!(fs.open("/d"), Err(MemFsError::IsADirectory(_))));
        assert_eq!(
            log.take_steps(),
            [vec!["get f:/d", "get s:/d#0"], vec!["getrange d:/d 0 0"]]
        );
        assert!(matches!(fs.open("/nope"), Err(MemFsError::NotFound(_))));
        assert_eq!(
            log.take_steps(),
            [
                vec!["get f:/nope", "get s:/nope#0"],
                vec!["getrange d:/nope 0 0"]
            ]
        );
    }

    #[test]
    fn pinned_open_without_prefetch_sends_no_speculative_get() {
        let (log, fs) = recording_mount_with(4, 0);
        fs.write_file("/a", &[7u8; 100]).unwrap();
        log.take_steps();
        assert_eq!(fs.read_to_vec("/a").unwrap(), [7u8; 100]);
        assert_eq!(log.take_steps(), [["get f:/a"], ["getrange s:/a#0 0 100"]]);
    }

    #[test]
    fn open_of_an_unclosed_file_is_not_finalized_whatever_its_first_stripe() {
        let (log, fs) = recording_mount(4);
        let mut w = fs.create("/slow").unwrap();
        w.write_all(&[3u8; 300]).unwrap();
        w.flush().unwrap();
        // Stripes 0 and 1 are stored, the record is still open: the stripe
        // that came back beside it is dropped.
        log.take_steps();
        assert!(matches!(fs.open("/slow"), Err(MemFsError::NotFinalized(_))));
        assert_eq!(log.take_steps(), [["get f:/slow", "get s:/slow#0"]]);
        w.close().unwrap();
        let r = fs.open("/slow").unwrap();
        assert_eq!(r.reader.cached_stripes(), 1, "finalized: stripe 0 kept");
        assert_eq!(fs.read_to_vec("/slow").unwrap(), [3u8; 300]);
    }

    #[test]
    fn a_first_stripe_that_does_not_fit_the_record_is_not_kept() {
        let (_, _, fs) = small_stripe_mount(4);
        // Shorter than the record says: the first read is the parent's
        // whole-stripe fetch, and its `CorruptMetadata`.
        fs.write_file("/f", &[1u8; 40]).unwrap();
        fs.pool()
            .set(&KeySchema::stripe_key("/f", 0), Bytes::from(vec![1u8; 10]))
            .unwrap();
        let r = fs.open("/f").unwrap();
        assert_eq!(r.reader.cached_stripes(), 0);
        let mut buf = [0u8; 40];
        assert!(matches!(
            r.read_at(0, &mut buf),
            Err(MemFsError::CorruptMetadata(_))
        ));
        // Longer: not kept either; the first read fetches only the
        // record's share of the stripe, as before.
        fs.write_file("/g", &[3u8; 10]).unwrap();
        fs.pool()
            .set(&KeySchema::stripe_key("/g", 0), Bytes::from(vec![4u8; 16]))
            .unwrap();
        let r = fs.open("/g").unwrap();
        assert_eq!(r.reader.cached_stripes(), 0);
        let mut buf = [0u8; 10];
        assert_eq!(r.read_at(0, &mut buf).unwrap(), 10);
        assert_eq!(buf, [4u8; 10]);
    }

    /// A path of `fs` whose size record and stripe 0 have different
    /// primaries, and stripe 0's primary.
    fn record_and_stripe_apart(fs: &MemFs) -> (String, usize) {
        let server_for = |key: Vec<u8>| fs.pool().server_for(&key).0;
        let name = (0..)
            .map(|i| format!("/x{i}"))
            .find(|p| server_for(KeySchema::file_key(p)) != server_for(KeySchema::stripe_key(p, 0)))
            .unwrap();
        let stripe_home = server_for(KeySchema::stripe_key(&name, 0));
        (name, stripe_home)
    }

    #[test]
    fn open_succeeds_with_the_first_stripes_server_down() {
        // r = 1: the read reports what the parent's read reported.
        let (_, failables, fs) = small_stripe_mount(4);
        let (name, down) = record_and_stripe_apart(&fs);
        let data: Vec<u8> = (0..40u8).collect();
        fs.write_file(&name, &data).unwrap();
        failables[down].set_down(true);
        let r = fs.open(&name).unwrap();
        assert_eq!(r.reader.cached_stripes(), 0);
        let mut buf = [0u8; 40];
        assert!(matches!(
            r.read_at(0, &mut buf),
            Err(MemFsError::Storage(e)) if e.is_transport()
        ));
        failables[down].set_down(false);
        assert_eq!(r.read_at(0, &mut buf).unwrap(), 40);
        assert_eq!(buf[..], data[..]);

        // r = 2: the replica serves it.
        let (_, failables, fs) = failable_mount(4, small_stripe_config().with_replication(2));
        let (name, down) = record_and_stripe_apart(&fs);
        fs.write_file(&name, &data).unwrap();
        failables[down].set_down(true);
        let r = fs.open(&name).unwrap();
        assert_eq!(r.read_at(0, &mut buf).unwrap(), 40);
        assert_eq!(buf[..], data[..]);
    }

    /// Mount `a` opens a file, `b` unlinks, re-creates and rewrites it,
    /// `a` opens it again: the second handle reads `b`'s bytes, whether
    /// or not the new stripe 0 has the old one's length.
    fn a_reopen_reads_the_rewritten_file(a: &MemFs, b: &MemFs) {
        for (old, new) in [
            (vec![1u8; 300], vec![2u8; 300]),
            (vec![3; 300], vec![4; 50]),
        ] {
            a.write_file("/f", &old).unwrap();
            let first = a.open("/f").unwrap();
            let mut buf = vec![0u8; old.len()];
            assert_eq!(first.read_at(0, &mut buf).unwrap(), old.len());
            assert_eq!(buf, old);
            b.unlink("/f").unwrap();
            b.write_file("/f", &new).unwrap();
            assert_eq!(a.read_to_vec("/f").unwrap(), new);
            let second = a.open("/f").unwrap();
            assert_eq!(second.size(), new.len() as u64);
            let mut buf = vec![0u8; new.len()];
            assert_eq!(second.read_at(0, &mut buf).unwrap(), new.len());
            assert_eq!(buf, new);
            b.unlink("/f").unwrap();
        }
    }

    #[test]
    fn no_first_stripe_crosses_handles_or_incarnations() {
        let config = MemFsConfig {
            stripe_size: 128,
            ..MemFsConfig::default()
        };
        let servers: Vec<Arc<dyn KvClient>> = (0..4)
            .map(|_| {
                Arc::new(LocalClient::new(Arc::new(Store::new(
                    StoreConfig::default(),
                )))) as Arc<dyn KvClient>
            })
            .collect();
        let a = MemFs::new(servers.clone(), config.clone()).unwrap();
        let b = MemFs::new(servers, config.clone()).unwrap();
        a_reopen_reads_the_rewritten_file(&a, &b);

        let servers: Vec<_> = (0..2)
            .map(|_| {
                let store = Arc::new(Store::new(StoreConfig::default()));
                memfs_memkv::KvServer::spawn(store, "127.0.0.1:0").unwrap()
            })
            .collect();
        let addrs: Vec<_> = servers.iter().map(|s| s.addr()).collect();
        let a = MemFs::connect(&addrs, config.clone()).unwrap();
        let b = MemFs::connect(&addrs, config).unwrap();
        a_reopen_reads_the_rewritten_file(&a, &b);
    }

    #[test]
    fn existence_checks_do_not_move_the_directory_log() {
        // Over a real server: `stat` / `exists` of a directory used to
        // `get` its whole log — every entry ever appended — for a yes/no.
        let server = memfs_memkv::KvServer::spawn(
            Arc::new(Store::new(StoreConfig::default())),
            "127.0.0.1:0",
        )
        .unwrap();
        let fs = MemFs::connect(&[server.addr()], MemFsConfig::default()).unwrap();
        fs.mkdir("/d").unwrap();
        for i in 0..200 {
            fs.write_file(&format!("/d/some-longish-file-name-{i:03}"), b"x")
                .unwrap();
        }
        let log_len = fs.pool().get(&KeySchema::dir_key("/d")).unwrap().len() as u64;
        assert!(log_len > 5000, "{log_len}");
        // The one server loop counts a reply's bytes after sending it:
        // one more round trip and the log's own transfer is on the books.
        assert!(!fs.exists("/nope").unwrap());
        let before = (server.store().stats().snapshot(), server.server_stats());
        for _ in 0..10 {
            assert_eq!(fs.stat("/d").unwrap().kind, EntryKind::Dir);
            assert!(fs.exists("/d").unwrap());
        }
        let after = (server.store().stats().snapshot(), server.server_stats());
        assert_eq!(after.0.getrange_bytes, before.0.getrange_bytes);
        // Twenty checks of two requests each, answered with headers only
        // (`END`, or an empty `VALUE` frame): a fraction of one log.
        assert_eq!(after.1.ops - before.1.ops, 40);
        let sent = after.1.bytes_tx - before.1.bytes_tx;
        assert!(sent < log_len / 4, "{sent} bytes for 20 existence checks");
    }

    #[test]
    fn refused_create_leaves_nothing_behind_and_the_gate_still_arbitrates() {
        let (stores, _, fs) = small_stripe_mount(4);
        let on_any_server = |key: Vec<u8>| stores.iter().any(|s| s.contains(&key));
        // No parent: the append is what notices.
        let before = items(&stores);
        assert!(matches!(
            fs.create("/missing/f"),
            Err(MemFsError::ParentNotFound(_))
        ));
        assert_eq!(items(&stores), before);
        assert!(!on_any_server(KeySchema::file_key("/missing/f")));
        // A directory of that name.
        fs.mkdir("/y").unwrap();
        let before = items(&stores);
        assert!(matches!(fs.create("/y"), Err(MemFsError::AlreadyExists(_))));
        assert_eq!(items(&stores), before);
        assert!(!on_any_server(KeySchema::file_key("/y")));
        let y = DirEntry {
            name: "y".into(),
            kind: EntryKind::Dir,
        };
        assert_eq!(fs.readdir("/").unwrap(), [y]);
        // A closed file: the loser touches nothing.
        let data: Vec<u8> = (0..100u8).collect();
        fs.write_file("/y/f", &data).unwrap();
        let before = items(&stores);
        assert!(matches!(fs.create("/y/f"), Err(MemFsError::WriteOnce(_))));
        assert_eq!(items(&stores), before);
        assert_eq!(fs.read_to_vec("/y/f").unwrap(), data);
        let f = DirEntry {
            name: "f".into(),
            kind: EntryKind::File,
        };
        assert_eq!(fs.readdir("/y").unwrap(), [f]);
    }

    #[test]
    fn two_mounts_racing_create_have_exactly_one_winner_per_name() {
        const NAMES: usize = 200;
        let servers: Vec<Arc<dyn KvClient>> = (0..4)
            .map(|_| {
                Arc::new(LocalClient::new(Arc::new(Store::new(
                    StoreConfig::default(),
                )))) as Arc<dyn KvClient>
            })
            .collect();
        // Both contenders leave the barrier into the same `create`.
        let barrier = Arc::new(std::sync::Barrier::new(2));
        let racers: Vec<_> = (0..2)
            .map(|_| {
                let fs = MemFs::new(servers.clone(), MemFsConfig::default()).unwrap();
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    let mut won = Vec::new();
                    for i in 0..NAMES {
                        barrier.wait();
                        match fs.create(&format!("/r{i}")) {
                            Ok(mut w) => {
                                w.close().unwrap();
                                won.push(i);
                            }
                            Err(MemFsError::WriteOnce(_)) => {}
                            Err(e) => panic!("/r{i}: {e:?}"),
                        }
                    }
                    won
                })
            })
            .collect();
        let mut won: Vec<usize> = racers.into_iter().flat_map(|r| r.join().unwrap()).collect();
        won.sort_unstable();
        assert_eq!(won, (0..NAMES).collect::<Vec<_>>(), "one `Ok` per name");
        // One log entry per name: the loser appended nothing.
        let fs = MemFs::new(servers, MemFsConfig::default()).unwrap();
        let log = fs.pool().get(&KeySchema::dir_key("/")).unwrap();
        assert_eq!(log.iter().filter(|&&b| b == b'\n').count(), NAMES);
        assert_eq!(fs.readdir("/").unwrap().len(), NAMES);
    }

    #[test]
    fn create_with_the_probes_server_down_surfaces_the_error_and_releases_the_gate() {
        let (stores, failables, fs) = small_stripe_mount(4);
        let server_for = |key: Vec<u8>| fs.pool().server_for(&key).0;
        // A name whose same-name-directory probe and gate live apart.
        let name = (0..)
            .map(|i| format!("/x{i}"))
            .find(|p| server_for(KeySchema::dir_key(p)) != server_for(KeySchema::file_key(p)))
            .unwrap();
        let down = server_for(KeySchema::dir_key(&name));
        failables[down].set_down(true);
        let before = items(&stores);
        assert!(matches!(
            fs.create(&name),
            Err(MemFsError::Storage(e)) if e.is_transport()
        ));
        assert_eq!(items(&stores), before, "the gate it won is released");
        failables[down].set_down(false);
        fs.write_file(&name, b"now").unwrap();
        assert_eq!(fs.read_to_vec(&name).unwrap(), b"now");
    }

    #[test]
    fn create_reports_a_follower_failure_as_the_routed_add_does() {
        let (stores, failables, fs) = failable_mount(4, MemFsConfig::default().with_replication(2));
        let key = KeySchema::file_key("/f");
        let homes: Vec<usize> = fs.pool().servers_for(&key).map(|s| s.0).collect();
        failables[homes[1]].set_down(true);
        // The primary took the record, the follower's `set` failed: that
        // error is the create's, exactly as `ServerPool::add` reports it,
        // and the name stays taken on the arbiter.
        assert!(matches!(
            fs.create("/f"),
            Err(MemFsError::Storage(e)) if e.is_transport()
        ));
        assert!(matches!(
            fs.pool().add(&key, Bytes::new()),
            Err(MemFsError::Storage(KvError::Exists))
        ));
        assert!(stores[homes[0]].contains(&key));
    }

    #[test]
    fn create_in_a_migrating_range_is_arbitrated_by_the_old_primary_and_survives_the_flip() {
        use memfs_hashring::{RangePhase, MIGRATION_RANGES};
        let stores: Vec<Arc<Store>> = (0..3)
            .map(|_| Arc::new(Store::new(StoreConfig::default())))
            .collect();
        let local = |s: &Arc<Store>| Arc::new(LocalClient::new(Arc::clone(s))) as Arc<dyn KvClient>;
        let config = MemFsConfig {
            distributor: crate::DistributorKind::Ketama {
                points_per_server: 32,
            },
            ..MemFsConfig::default()
        };
        let fs = MemFs::new(stores[..2].iter().map(local).collect(), config).unwrap();
        fs.add_server(local(&stores[2])).unwrap();
        let state = fs.pool().ring_state();
        let t = state.transition.as_ref().unwrap();
        for r in 0..MIGRATION_RANGES {
            t.ranges.set_phase(r, RangePhase::Migrating);
        }
        fs.pool().quiesce();
        let paths: Vec<String> = (0..32).map(|i| format!("/m{i}")).collect();
        let mut moving = 0;
        for path in &paths {
            fs.write_file(path, path.as_bytes()).unwrap();
            let key = KeySchema::file_key(path);
            let old = state.current.replicas_for(&key, 1)[0];
            assert!(stores[old.0].contains(&key), "the old primary arbitrates");
            if t.target.replicas_for(&key, 1)[0].0 == 2 {
                assert!(stores[2].contains(&key), "the target home got its copy");
                moving += 1;
            }
            assert!(matches!(fs.create(path), Err(MemFsError::WriteOnce(_))));
        }
        assert!(moving > 0, "some record must move to the new server");
        let mut passes = 0;
        while !fs.migrate_now().unwrap().complete {
            passes += 1;
            assert!(passes < 16, "migration never completed");
        }
        for path in &paths {
            assert_eq!(fs.read_to_vec(path).unwrap(), path.as_bytes());
            assert!(matches!(fs.create(path), Err(MemFsError::WriteOnce(_))));
        }
        assert_eq!(fs.readdir("/").unwrap().len(), paths.len());
    }

    #[test]
    fn engine_is_sized_by_the_config_alone() {
        // Background jobs only: the worker count is `io_threads`
        // whatever the server count or the in-flight budget.
        let fs = mount(4);
        assert_eq!(fs.engine().size(), fs.config().io_threads);
        assert_eq!(fs.engine().size(), 2);
        for (n_servers, io_parallelism) in [(1, 0), (2, 1), (8, 3)] {
            let fs = mount_with(
                n_servers,
                MemFsConfig {
                    io_parallelism,
                    ..MemFsConfig::default()
                },
            );
            assert_eq!(fs.engine().size(), fs.config().io_threads);
            assert_eq!(fs.engine().size(), 4);
        }
    }

    #[test]
    fn bad_config_and_bad_topology_are_errors_not_panics() {
        let servers = |n: usize| -> Vec<Arc<dyn KvClient>> {
            (0..n)
                .map(|_| {
                    Arc::new(LocalClient::new(Arc::new(Store::new(
                        StoreConfig::default(),
                    )))) as Arc<dyn KvClient>
                })
                .collect()
        };
        let rejected = |n: usize, config: MemFsConfig| {
            matches!(
                MemFs::new(servers(n), config),
                Err(MemFsError::InvalidConfig(_))
            )
        };
        // A config that fails its own validation...
        assert!(rejected(2, MemFsConfig::default().with_stripe_size(0)));
        // ...and the two cases that depend on the server list, which used
        // to hit the pool constructor's `assert!`s.
        assert!(rejected(0, MemFsConfig::default()));
        assert!(rejected(2, MemFsConfig::default().with_replication(3)));
        assert!(!rejected(3, MemFsConfig::default().with_replication(3)));
        // The TCP constructor shares the check, before it dials anything.
        let none: [&str; 0] = [];
        assert!(matches!(
            MemFs::connect(&none, MemFsConfig::default()),
            Err(MemFsError::InvalidConfig(_))
        ));
        assert!(matches!(
            MemFs::connect(&["127.0.0.1:1"], MemFsConfig::default().with_io_threads(0)),
            Err(MemFsError::InvalidConfig(_))
        ));
    }

    #[test]
    fn rmdir_only_when_empty() {
        let fs = mount(2);
        fs.mkdir("/d").unwrap();
        fs.write_file("/d/f", b"x").unwrap();
        assert!(matches!(
            fs.rmdir("/d"),
            Err(MemFsError::DirectoryNotEmpty(_))
        ));
        fs.unlink("/d/f").unwrap();
        fs.rmdir("/d").unwrap();
        assert!(!fs.exists("/d").unwrap());
    }

    #[test]
    fn stat_reports_kind_and_size() {
        let fs = mount(2);
        fs.mkdir("/d").unwrap();
        fs.write_file("/d/f", &[0u8; 321]).unwrap();
        let st = fs.stat("/d/f").unwrap();
        assert_eq!(st.kind, EntryKind::File);
        assert_eq!(st.size, 321);
        assert!(st.finalized);
        let st = fs.stat("/d").unwrap();
        assert_eq!(st.kind, EntryKind::Dir);
        assert!(matches!(fs.stat("/nope"), Err(MemFsError::NotFound(_))));
    }

    #[test]
    fn read_at_arbitrary_offsets() {
        let fs = mount(4);
        let data: Vec<u8> = (0..10_000u32).map(|i| (i % 251) as u8).collect();
        fs.write_file("/big", &data).unwrap();
        let r = fs.open("/big").unwrap();
        let mut buf = [0u8; 100];
        // Straddles stripe boundary (stripe size 128).
        let n = r.read_at(100, &mut buf).unwrap();
        assert_eq!(n, 100);
        assert_eq!(&buf[..], &data[100..200]);
        // Tail read is short.
        let n = r.read_at(9_950, &mut buf).unwrap();
        assert_eq!(n, 50);
        assert_eq!(&buf[..50], &data[9_950..]);
        // Past EOF is empty.
        assert_eq!(r.read_at(20_000, &mut buf).unwrap(), 0);
    }

    #[test]
    fn io_read_seek_integration() {
        use std::io::{Read, Seek, SeekFrom};
        let fs = mount(2);
        let data: Vec<u8> = (0..500u32).map(|i| (i % 91) as u8).collect();
        fs.write_file("/f", &data).unwrap();
        let mut r = fs.open("/f").unwrap();
        let mut all = Vec::new();
        r.read_to_end(&mut all).unwrap();
        assert_eq!(all, data);
        r.seek(SeekFrom::Start(10)).unwrap();
        let mut b = [0u8; 5];
        r.read_exact(&mut b).unwrap();
        assert_eq!(&b, &data[10..15]);
        r.seek(SeekFrom::End(-5)).unwrap();
        let mut tail = Vec::new();
        r.read_to_end(&mut tail).unwrap();
        assert_eq!(tail, &data[495..]);
    }

    #[test]
    fn many_files_balance_across_servers() {
        let servers: Vec<Arc<Store>> = (0..8)
            .map(|_| Arc::new(Store::new(StoreConfig::default())))
            .collect();
        let clients: Vec<Arc<dyn KvClient>> = servers
            .iter()
            .map(|s| Arc::new(LocalClient::new(Arc::clone(s))) as Arc<dyn KvClient>)
            .collect();
        let fs = MemFs::new(
            clients,
            MemFsConfig {
                stripe_size: 256,
                write_buffer_size: 2048,
                ..MemFsConfig::default()
            },
        )
        .unwrap();
        for i in 0..50 {
            fs.write_file(&format!("/f{i}"), &vec![0u8; 4096]).unwrap();
        }
        // 50 files x 16 stripes = 800 stripes over 8 servers: symmetric
        // distribution must load every server within 2x of the mean.
        let loads: Vec<u64> = servers.iter().map(|s| s.bytes_used()).collect();
        let mean = loads.iter().sum::<u64>() as f64 / loads.len() as f64;
        for (i, &l) in loads.iter().enumerate() {
            assert!(
                (l as f64) > mean * 0.5 && (l as f64) < mean * 2.0,
                "server {i} load {l} vs mean {mean}"
            );
        }
    }

    #[test]
    fn invalid_paths_rejected() {
        let fs = mount(2);
        assert!(matches!(
            fs.create("relative"),
            Err(MemFsError::InvalidPath(_))
        ));
        assert!(matches!(
            fs.create("/has space"),
            Err(MemFsError::InvalidPath(_))
        ));
        assert!(matches!(fs.open("/"), Err(MemFsError::IsADirectory(_))));
        assert!(matches!(fs.create("/"), Err(MemFsError::IsADirectory(_))));
    }

    #[test]
    fn file_and_dir_names_cannot_collide() {
        let fs = mount(2);
        fs.write_file("/x", b"file").unwrap();
        assert!(matches!(fs.mkdir("/x"), Err(MemFsError::AlreadyExists(_))));
        fs.mkdir("/y").unwrap();
        assert!(matches!(fs.create("/y"), Err(MemFsError::AlreadyExists(_))));
        assert!(matches!(
            fs.readdir("/x"),
            Err(MemFsError::NotADirectory(_))
        ));
    }

    #[test]
    fn large_file_spanning_many_stripes() {
        let fs = mount(8);
        let data: Vec<u8> = (0..200_000u32).map(|i| (i * 31 % 255) as u8).collect();
        fs.write_file("/huge", &data).unwrap();
        assert_eq!(fs.read_to_vec("/huge").unwrap(), data);
        assert_eq!(fs.stat("/huge").unwrap().size, 200_000);
    }

    #[test]
    fn concurrent_writers_different_files() {
        let fs = mount(4);
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let fs = fs.clone();
                std::thread::spawn(move || {
                    let data = vec![t as u8; 5_000];
                    fs.write_file(&format!("/par{t}"), &data).unwrap();
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        for t in 0..8 {
            assert_eq!(
                fs.read_to_vec(&format!("/par{t}")).unwrap(),
                vec![t as u8; 5_000]
            );
        }
        assert_eq!(fs.readdir("/").unwrap().len(), 8);
    }

    #[test]
    fn n_minus_one_read_pattern() {
        // All "nodes" read the same file concurrently — the paper's N-1
        // read. Each opens its own handle (own cache) as distinct compute
        // nodes would.
        let fs = mount(4);
        let data: Vec<u8> = (0..50_000u32).map(|i| (i % 247) as u8).collect();
        fs.write_file("/shared", &data).unwrap();
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let fs = fs.clone();
                let expected = data.clone();
                std::thread::spawn(move || {
                    assert_eq!(fs.read_to_vec("/shared").unwrap(), expected);
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
    }

    #[test]
    fn add_server_migrates_under_a_live_mount() {
        let fs = mount(2);
        let data: Vec<u8> = (0..5_000u32).map(|i| (i % 241) as u8).collect();
        for i in 0..10 {
            fs.write_file(&format!("/pre{i}"), &data).unwrap();
        }
        let id = fs
            .add_server(Arc::new(LocalClient::new(Arc::new(Store::new(
                StoreConfig::default(),
            )))))
            .unwrap();
        assert_eq!(id, ServerId(2));
        assert!(fs.migration_active());
        // Keep writing and reading while the ranges migrate.
        let mut rounds = 0;
        loop {
            fs.write_file(&format!("/mid{rounds}"), &data).unwrap();
            assert_eq!(
                fs.read_to_vec(&format!("/pre{}", rounds % 10)).unwrap(),
                data
            );
            if fs.migrate_now().unwrap().complete {
                break;
            }
            rounds += 1;
            assert!(rounds < 16, "migration never completed");
        }
        assert!(!fs.migration_active());
        assert_eq!(fs.pool().members().len(), 3);
        for i in 0..10 {
            assert_eq!(fs.read_to_vec(&format!("/pre{i}")).unwrap(), data);
        }
        for r in 0..=rounds {
            assert_eq!(fs.read_to_vec(&format!("/mid{r}")).unwrap(), data);
        }
    }

    #[test]
    fn remove_server_drains_and_files_survive() {
        let fs = mount(3);
        let data: Vec<u8> = (0..3_000u32).map(|i| (i % 199) as u8).collect();
        for i in 0..8 {
            fs.write_file(&format!("/keep{i}"), &data).unwrap();
        }
        // Default distributor is modulo: only the tail slot can leave.
        fs.remove_server(ServerId(2)).unwrap();
        let mut rounds = 0;
        while !fs.migrate_now().unwrap().complete {
            rounds += 1;
            assert!(rounds < 16, "drain never completed");
        }
        assert_eq!(fs.pool().members().len(), 2);
        for i in 0..8 {
            assert_eq!(fs.read_to_vec(&format!("/keep{i}")).unwrap(), data);
        }
        // The mount keeps working on the shrunken set.
        fs.write_file("/after", &data).unwrap();
        assert_eq!(fs.read_to_vec("/after").unwrap(), data);
    }

    #[test]
    fn duplicate_handle_shares_cache() {
        let fs = mount(2);
        fs.write_file("/f", &[1u8; 1000]).unwrap();
        let r = fs.open("/f").unwrap();
        let d = r.duplicate();
        let mut buf = [0u8; 10];
        assert_eq!(r.read_at(0, &mut buf).unwrap(), 10);
        assert_eq!(d.read_at(500, &mut buf).unwrap(), 10);
        assert_eq!(d.path(), "/f");
    }
}
