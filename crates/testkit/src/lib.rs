//! # memfs-testkit
//!
//! Deterministic shaped-cluster test harness, a dev-dependency only.
//!
//! Real-TCP fault and traffic shaping for transport tests: every storage
//! server sits behind a [`ShapedProxy`] that can inject latency, cap
//! bandwidth, stall silently, sever or refuse connections, and cut a
//! stream mid-frame — the failure shapes a distributed mount actually
//! meets, reproduced on loopback with no external tooling. No production
//! crate depends on it.
//!
//! Determinism: tests derive their randomness from
//! [`memfs_memkv::testutil::Rng`], seeded either explicitly or from the
//! `MEMFS_SHAPE_SEED` environment variable via
//! [`memfs_memkv::testutil::seed_from_env`], so a soak-loop failure
//! reproduces by exporting the seed it printed.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use memfs_memkv::{KvClient, KvServer, PoolConfig, ReactorHandle, Store, TcpClient};

/// Traffic shape applied to each direction of a proxied connection.
#[derive(Debug, Clone, Copy, Default)]
pub struct Shape {
    /// Extra delay injected per forwarded burst (a proxy-side read). Small
    /// pipelined frames travel as one burst, so this models per-message
    /// network latency.
    pub latency: Duration,
    /// Aggregate bytes/second through the proxy (both directions share one
    /// pacer, like a NIC). `0` means unlimited.
    pub bandwidth: u64,
}

impl Shape {
    /// An unshaped pass-through proxy (useful for pure fault injection).
    pub fn clean() -> Shape {
        Shape::default()
    }

    /// Latency-only shape.
    pub fn lagged(latency: Duration) -> Shape {
        Shape {
            latency,
            bandwidth: 0,
        }
    }

    /// Bandwidth-only shape.
    pub fn throttled(bytes_per_sec: u64) -> Shape {
        Shape {
            latency: Duration::ZERO,
            bandwidth: bytes_per_sec,
        }
    }
}

/// Token bucket pacing both directions of a proxy.
struct Pacer {
    rate: u64,
    tokens: f64,
    last: Instant,
}

impl Pacer {
    fn new(rate: u64) -> Pacer {
        Pacer {
            rate,
            // A modest burst allowance keeps small frames from paying a
            // full pacing round trip while still bounding throughput.
            tokens: rate as f64 / 50.0,
            last: Instant::now(),
        }
    }

    /// How long to sleep before `n` bytes may pass.
    fn reserve(&mut self, n: usize) -> Duration {
        let now = Instant::now();
        let cap = (self.rate as f64 / 50.0).max(1.0);
        self.tokens = (self.tokens
            + now.duration_since(self.last).as_secs_f64() * self.rate as f64)
            .min(cap.max(n as f64));
        self.last = now;
        self.tokens -= n as f64;
        if self.tokens >= 0.0 {
            Duration::ZERO
        } else {
            Duration::from_secs_f64(-self.tokens / self.rate as f64)
        }
    }
}

struct ProxyInner {
    shape: Shape,
    stop: AtomicBool,
    /// Refuse service: accepted connections are closed immediately and
    /// live ones severed — the shape of a dead server process behind a
    /// still-routable address.
    dead: AtomicBool,
    /// Silently stop forwarding while keeping connections open — the
    /// wedge shape (GC pause, livelocked server, black-holing middlebox).
    stalled: AtomicBool,
    /// Client→server bytes still allowed before the stream is cut
    /// mid-frame. Negative means disabled.
    cut_after: AtomicI64,
    live: Mutex<Vec<TcpStream>>,
    pacer: Mutex<Pacer>,
}

/// A real-TCP forwarder in front of one storage server, with deterministic
/// fault and traffic-shape injection. See the module docs.
pub struct ShapedProxy {
    addr: SocketAddr,
    inner: Arc<ProxyInner>,
    accept_thread: Option<JoinHandle<()>>,
}

/// Pump-side read chunk. Small enough that bandwidth pacing is smooth at
/// test rates, large enough that a pipelined batch is few bursts.
const PUMP_CHUNK: usize = 16 * 1024;

/// Poll interval for stop/stall/shape checks inside the pump loops.
const PUMP_TICK: Duration = Duration::from_millis(2);

impl ShapedProxy {
    /// Start a proxy on an ephemeral loopback port forwarding to
    /// `upstream` with the given shape.
    pub fn spawn(upstream: SocketAddr, shape: Shape) -> ShapedProxy {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind proxy listener");
        let addr = listener.local_addr().expect("proxy listener addr");
        let inner = Arc::new(ProxyInner {
            shape,
            stop: AtomicBool::new(false),
            dead: AtomicBool::new(false),
            stalled: AtomicBool::new(false),
            cut_after: AtomicI64::new(-1),
            live: Mutex::new(Vec::new()),
            pacer: Mutex::new(Pacer::new(shape.bandwidth)),
        });
        let accept_inner = Arc::clone(&inner);
        let accept_thread = std::thread::Builder::new()
            .name(format!("shaped-proxy-{}", addr.port()))
            .spawn(move || {
                for inbound in listener.incoming() {
                    if accept_inner.stop.load(Ordering::SeqCst) {
                        return;
                    }
                    let Ok(inbound) = inbound else { continue };
                    if accept_inner.dead.load(Ordering::SeqCst) {
                        let _ = inbound.shutdown(Shutdown::Both);
                        continue;
                    }
                    let Ok(outbound) = TcpStream::connect(upstream) else {
                        let _ = inbound.shutdown(Shutdown::Both);
                        continue;
                    };
                    inbound.set_nodelay(true).expect("nodelay");
                    outbound.set_nodelay(true).expect("nodelay");
                    {
                        let mut live = accept_inner.live.lock().expect("proxy live lock");
                        live.retain(|c| c.peer_addr().is_ok());
                        live.push(inbound.try_clone().expect("clone inbound"));
                        live.push(outbound.try_clone().expect("clone outbound"));
                    }
                    Self::pump(
                        Arc::clone(&accept_inner),
                        inbound.try_clone().expect("clone inbound"),
                        outbound.try_clone().expect("clone outbound"),
                        true,
                    );
                    Self::pump(Arc::clone(&accept_inner), outbound, inbound, false);
                }
            })
            .expect("spawn proxy accept thread");
        ShapedProxy {
            addr,
            inner,
            accept_thread: Some(accept_thread),
        }
    }

    /// The loopback address clients should connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Sever every live connection; the listener keeps accepting, so
    /// clients can reconnect (link flap / server restart).
    pub fn drop_connections(&self) {
        let mut live = self.inner.live.lock().expect("proxy live lock");
        for conn in live.drain(..) {
            let _ = conn.shutdown(Shutdown::Both);
        }
    }

    /// Kill the server: sever live connections AND refuse new ones until
    /// [`ShapedProxy::revive`].
    pub fn kill(&self) {
        self.inner.dead.store(true, Ordering::SeqCst);
        self.drop_connections();
    }

    /// Accept connections again after [`ShapedProxy::kill`].
    pub fn revive(&self) {
        self.inner.dead.store(false, Ordering::SeqCst);
    }

    /// Stop forwarding without closing anything — requests sent to this
    /// server just never answer until [`ShapedProxy::unstall`].
    pub fn stall(&self) {
        self.inner.stalled.store(true, Ordering::SeqCst);
    }

    /// Resume forwarding after [`ShapedProxy::stall`].
    pub fn unstall(&self) {
        self.inner.stalled.store(false, Ordering::SeqCst);
    }

    /// Cut the client→server stream mid-frame after `bytes` more bytes
    /// have been forwarded, severing both directions — a connection dying
    /// with a request partially written.
    pub fn cut_client_stream_after(&self, bytes: u64) {
        self.inner.cut_after.store(
            i64::try_from(bytes).expect("cut budget fits i64"),
            Ordering::SeqCst,
        );
    }

    fn pump(
        inner: Arc<ProxyInner>,
        mut from: TcpStream,
        mut to: TcpStream,
        client_to_server: bool,
    ) {
        std::thread::spawn(move || {
            // Short read timeouts keep the loop responsive to stop/stall
            // flags even on an idle connection.
            from.set_read_timeout(Some(PUMP_TICK.max(Duration::from_millis(1))))
                .expect("proxy read timeout");
            let mut buf = [0u8; PUMP_CHUNK];
            'outer: loop {
                if inner.stop.load(Ordering::SeqCst) {
                    break;
                }
                // A killed server serves nothing: a connection that was
                // being accepted while `kill()` drained the live list
                // must die here instead of becoming a zombie bridge.
                if inner.dead.load(Ordering::SeqCst) {
                    break;
                }
                let n = match from.read(&mut buf) {
                    Ok(0) => break,
                    Ok(n) => n,
                    Err(e)
                        if e.kind() == std::io::ErrorKind::WouldBlock
                            || e.kind() == std::io::ErrorKind::TimedOut =>
                    {
                        continue;
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                    Err(_) => break,
                };
                // Stall: hold the data (and everything behind it) until
                // released. Connections stay open the whole time.
                while inner.stalled.load(Ordering::SeqCst) {
                    if inner.stop.load(Ordering::SeqCst) || inner.dead.load(Ordering::SeqCst) {
                        break 'outer;
                    }
                    std::thread::sleep(PUMP_TICK);
                }
                if inner.shape.latency > Duration::ZERO {
                    std::thread::sleep(inner.shape.latency);
                }
                if inner.shape.bandwidth > 0 {
                    let wait = inner.pacer.lock().expect("proxy pacer lock").reserve(n);
                    if wait > Duration::ZERO {
                        std::thread::sleep(wait);
                    }
                }
                let mut send = n;
                let mut cut = false;
                if client_to_server {
                    let budget = inner.cut_after.load(Ordering::SeqCst);
                    if budget >= 0 {
                        if (n as i64) >= budget {
                            send = budget as usize;
                            cut = true;
                            inner.cut_after.store(-1, Ordering::SeqCst);
                        } else {
                            inner.cut_after.store(budget - n as i64, Ordering::SeqCst);
                        }
                    }
                }
                if send > 0 && to.write_all(&buf[..send]).is_err() {
                    break;
                }
                if cut {
                    break;
                }
            }
            let _ = to.shutdown(Shutdown::Both);
            let _ = from.shutdown(Shutdown::Both);
        });
    }
}

impl Drop for ShapedProxy {
    fn drop(&mut self) {
        self.inner.stop.store(true, Ordering::SeqCst);
        self.inner.stalled.store(false, Ordering::SeqCst);
        self.drop_connections();
        let _ = TcpStream::connect(self.addr); // unblock accept
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

/// `n` real [`KvServer`]s, each behind its own [`ShapedProxy`] — the full
/// shaped deployment a transport test mounts over.
pub struct ShapedCluster {
    servers: Vec<KvServer>,
    proxies: Vec<ShapedProxy>,
}

impl ShapedCluster {
    /// Spawn `n` servers with default stores, every proxy shaped alike.
    pub fn spawn(n: usize, shape: Shape) -> ShapedCluster {
        let servers: Vec<KvServer> = (0..n)
            .map(|_| {
                KvServer::spawn(Arc::new(Store::with_defaults()), "127.0.0.1:0")
                    .expect("spawn kv server")
            })
            .collect();
        let proxies = servers
            .iter()
            .map(|s| ShapedProxy::spawn(s.addr(), shape))
            .collect();
        ShapedCluster { servers, proxies }
    }

    /// Number of servers.
    pub fn len(&self) -> usize {
        self.servers.len()
    }

    /// Whether the cluster is empty (it never is; for clippy's benefit).
    pub fn is_empty(&self) -> bool {
        self.servers.is_empty()
    }

    /// The shaped proxy in front of server `i`.
    pub fn proxy(&self, i: usize) -> &ShapedProxy {
        &self.proxies[i]
    }

    /// The real server behind proxy `i` (its store is reachable for
    /// assertions).
    pub fn server(&self, i: usize) -> &KvServer {
        &self.servers[i]
    }

    /// Mutable access to server `i`, for tests that shut a real server
    /// down (as opposed to killing its proxy).
    pub fn server_mut(&mut self, i: usize) -> &mut KvServer {
        &mut self.servers[i]
    }

    /// Connect one [`TcpClient`] through each proxy, all registered on a
    /// single shared reactor — the per-mount deployment shape. The
    /// reactor handle lives inside the clients; it shuts down when the
    /// last client drops.
    pub fn clients(&self, config: PoolConfig) -> Vec<Arc<dyn KvClient>> {
        let reactor = ReactorHandle::new().expect("spawn reactor");
        self.clients_on(config, &reactor)
    }

    /// Connect one [`TcpClient`] per proxy on a caller-owned reactor, so
    /// the servers' connections join an existing epoll loop — zero new
    /// threads.
    pub fn clients_on(
        &self,
        config: PoolConfig,
        reactor: &ReactorHandle,
    ) -> Vec<Arc<dyn KvClient>> {
        self.proxies
            .iter()
            .map(|p| {
                Arc::new(
                    TcpClient::connect_shared(p.addr(), config.clone(), reactor)
                        .expect("connect client"),
                ) as Arc<dyn KvClient>
            })
            .collect()
    }

    /// Connect a single raw [`TcpClient`] through proxy `i`.
    pub fn client(&self, i: usize, config: PoolConfig) -> TcpClient {
        TcpClient::connect_with(self.proxies[i].addr(), config).expect("connect client")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    #[test]
    fn shaped_proxy_forwards_and_throttles() {
        let cluster = ShapedCluster::spawn(1, Shape::throttled(1 << 20));
        let client = cluster.client(0, PoolConfig::default());
        let value = Bytes::from(vec![7u8; 256 * 1024]);
        let start = Instant::now();
        client.set(b"k", value.clone()).unwrap();
        assert_eq!(client.get(b"k").unwrap(), value);
        // ~512 KiB moved through a 1 MiB/s pipe: must take visible time.
        assert!(
            start.elapsed() > Duration::from_millis(200),
            "bandwidth cap had no effect ({:?})",
            start.elapsed()
        );
    }

    #[test]
    fn stall_and_unstall_round_trip() {
        let cluster = ShapedCluster::spawn(1, Shape::clean());
        let client = cluster.client(0, PoolConfig::default());
        client.set(b"k", Bytes::from_static(b"v")).unwrap();
        cluster.proxy(0).stall();
        let probe = std::thread::spawn({
            let addr = cluster.proxy(0).addr();
            move || {
                let c = TcpClient::connect(addr).unwrap();
                c.get(b"k")
            }
        });
        std::thread::sleep(Duration::from_millis(50));
        assert!(!probe.is_finished(), "stalled proxy must not answer");
        cluster.proxy(0).unstall();
        assert_eq!(probe.join().unwrap().unwrap().as_ref(), b"v");
    }
}
