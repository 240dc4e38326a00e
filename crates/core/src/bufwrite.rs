//! The write-buffering protocol (paper §3.2.2).
//!
//! Writes land in a per-file buffer; whenever a full batch of stripes
//! accumulates it is started as one write window of the pool — one
//! pipelined batch per owning server, all on the wire at once — and kept
//! pending in the buffer as a *drain*. The buffer bounds the stripes in
//! flight (8 MiB by default — the paper's per-open-file cache): while that
//! many are in the air, starting another drain settles the oldest first,
//! which is the backpressure that holds a writer to the network's pace.
//! The paper runs these drains on a thread pool; here the reactor that
//! carries the batches is the only concurrency, and the writer settles
//! its own drains on its own thread.
//! "Whenever an application calls close(), or flush(), our file system
//! waits until the write buffer has been emptied and then returns."
//!
//! A file that never fills its first stripe never drains at all: the
//! stripe buffer keeps room for an inline size record's head in front of
//! stripe 0, so at `finish` the bytes are already the record
//! (`meta::SizeRecord::Inline`) and `close` publishes the whole file with
//! one `set` — each payload byte still staged exactly once.

use std::collections::VecDeque;
use std::sync::Arc;

use bytes::{Bytes, BytesMut};
use memfs_hashring::schema::KeySchema;
use memfs_memkv::KvError;

use crate::error::{MemFsError, MemFsResult};
use crate::layout::StripeLayout;
use crate::meta;
use crate::pool::{ServerPool, Window};

/// A started batch of stripes and how many stripes it carries.
type Drain = (usize, Window<(Bytes, Bytes)>);

/// Completed stripes per drain, clamped to the in-flight budget. Each
/// drain groups its stripes by owning server and sends one pipelined
/// batch per server, so 8 × 512 KiB amortizes the round trip while
/// leaving half of the default 16-stripe write buffer free to refill.
const DRAIN_BATCH_STRIPES: usize = 8;

/// A buffered, striped writer for one file.
pub struct WriteBuffer {
    path: String,
    /// The file's generation: its stripe keys and its record name it.
    generation: u64,
    layout: StripeLayout,
    pool: Arc<ServerPool>,
    /// The stripe being filled, after `head` bytes of room.
    current: BytesMut,
    /// Room for an inline record's head in front of the payload:
    /// [`meta::INLINE_HEAD`] until the first stripe leaves, 0 after.
    head: usize,
    /// Completed stripes waiting to travel as one batched write.
    batch: Vec<(Bytes, Bytes)>,
    batch_stripes: usize,
    next_stripe: u64,
    written: u64,
    max_inflight: usize,
    /// Started drains, oldest first.
    drains: VecDeque<Drain>,
    /// Stripes the drains carry in total.
    inflight: usize,
    /// The first storage error any drain met. It stays for the life of
    /// the buffer: some stripe of the file was never stored, so every
    /// later write, flush and finish reports it again and the file can
    /// never be given a size.
    error: Option<KvError>,
}

impl WriteBuffer {
    /// Create a writer for generation `generation` of `path` striping with
    /// `layout` onto `pool`, with at most `max_inflight` stripes in the air (the 8 MiB buffer divided
    /// by the stripe size).
    ///
    /// Completed stripes accumulate into groups of `DRAIN_BATCH_STRIPES`
    /// (at most `max_inflight`) before a drain is started; each drain is
    /// one pipelined batch per owning server instead of one round trip per
    /// stripe.
    pub fn new(
        path: String,
        generation: u64,
        layout: StripeLayout,
        pool: Arc<ServerPool>,
        max_inflight: usize,
    ) -> Self {
        let mut current = BytesMut::with_capacity(meta::INLINE_HEAD + layout.stripe_size());
        current.extend_from_slice(&[0; meta::INLINE_HEAD]);
        WriteBuffer {
            path,
            generation,
            current,
            head: meta::INLINE_HEAD,
            layout,
            pool,
            batch: Vec::new(),
            batch_stripes: DRAIN_BATCH_STRIPES.min(max_inflight.max(1)),
            next_stripe: 0,
            written: 0,
            max_inflight: max_inflight.max(1),
            drains: VecDeque::new(),
            inflight: 0,
            error: None,
        }
    }

    /// Bytes accepted so far (the file offset of the next write). Nothing
    /// is accepted once a drain has failed.
    pub fn written(&self) -> u64 {
        self.written
    }

    /// The sticky drain failure, if any.
    fn check(&self) -> MemFsResult<()> {
        match &self.error {
            Some(e) => Err(MemFsError::Storage(e.duplicate())),
            None => Ok(()),
        }
    }

    /// Append `data` sequentially, starting a drain for every batch of
    /// completed stripes. Blocks only when `max_inflight` stripes are
    /// already in the air, on the oldest drain.
    ///
    /// Slice input pays exactly one staging copy (into the stripe
    /// buffer); from there the stripe travels to the socket by refcount.
    /// Callers that already own [`Bytes`] should use
    /// [`write_bytes`](Self::write_bytes) and skip that copy too.
    pub fn write(&mut self, mut data: &[u8]) -> MemFsResult<()> {
        self.check()?;
        while !data.is_empty() {
            let take = self.stage(data)?;
            data = &data[take..];
        }
        Ok(())
    }

    /// Append `data` sequentially without staging: stripe-aligned spans
    /// are sliced straight out of `data` (a refcount bump, no copy) and
    /// handed to the pool as-is — zero payload copies between the
    /// caller's buffer and the socket. Only spans that must merge with a
    /// partial stripe (an unaligned head or tail) are copied into the
    /// stripe buffer, and those are the write path's single copy.
    pub fn write_bytes(&mut self, mut data: Bytes) -> MemFsResult<()> {
        self.check()?;
        while !data.is_empty() {
            if self.current.len() == self.head && data.len() >= self.layout.stripe_size() {
                let stripe = data.split_to(self.layout.stripe_size());
                self.written += stripe.len() as u64;
                self.current.clear();
                self.push_stripe(stripe)?;
                continue;
            }
            let take = self.stage(&data)?;
            let _ = data.split_to(take);
        }
        Ok(())
    }

    /// Copy as much of `data` as the stripe being filled has room for —
    /// the write path's one copy — submitting the stripe once it is full.
    /// Returns the bytes taken.
    fn stage(&mut self, data: &[u8]) -> MemFsResult<usize> {
        if self.current.capacity() == 0 {
            // The last stripe left with the whole buffer: size the next
            // one at once rather than by doubling as it fills.
            self.current.reserve(self.layout.stripe_size());
        }
        let filled = self.current.len() - self.head;
        let take = (self.layout.stripe_size() - filled).min(data.len());
        memfs_memkv::audit::count_staged(take);
        self.current.extend_from_slice(&data[..take]);
        self.written += take as u64;
        if filled + take == self.layout.stripe_size() {
            self.submit_current()?;
        }
        Ok(take)
    }

    /// Settle every drain (the partial tail stripe stays buffered — it
    /// can still grow). Completed stripes still waiting in the current
    /// batch are started first, so every full stripe written before
    /// `flush` is durable when it returns.
    pub fn flush(&mut self) -> MemFsResult<()> {
        self.submit_batch()?;
        while !self.drains.is_empty() {
            self.settle_oldest();
        }
        self.check()
    }

    /// Finish the file and return the size record that publishes it. A
    /// file no stripe of which has left the buffer is returned inline —
    /// its bytes behind the head the buffer kept room for, no stripe
    /// stored. Otherwise the partial tail stripe (if any) is submitted,
    /// everything drained, and the record is the size — or, if any drain
    /// of this buffer ever failed, that failure. The buffer must not be
    /// written again.
    pub fn finish(&mut self) -> MemFsResult<Bytes> {
        if self.head > 0 {
            let head = meta::inline_head(self.generation, self.written);
            self.current[..self.head].copy_from_slice(&head);
            return Ok(self.current.split().freeze());
        }
        if !self.current.is_empty() {
            self.submit_current()?;
        }
        self.flush()?;
        let record = meta::encode_size(self.generation, self.written);
        Ok(Bytes::from(record))
    }

    /// Move the completed stripe into the pending batch, starting a drain
    /// once `batch_stripes` have accumulated.
    fn submit_current(&mut self) -> MemFsResult<()> {
        let stripe = self.current.split().freeze();
        self.push_stripe(stripe.slice(self.head..stripe.len()))
    }

    /// Queue one completed stripe payload under the next stripe key. The
    /// file is striped from here on: no room for a head any more.
    fn push_stripe(&mut self, payload: Bytes) -> MemFsResult<()> {
        debug_assert!(self.current.is_empty(), "the stripe buffer was taken");
        self.head = 0;
        let key = KeySchema::stripe_key(&self.path, self.generation, self.next_stripe);
        let key = Bytes::from(key);
        self.next_stripe += 1;
        self.batch.push((key, payload));
        if self.batch.len() >= self.batch_stripes {
            self.submit_batch()?;
        }
        Ok(())
    }

    /// Start the pending batch as one drain: one write window of the pool,
    /// which puts one pipelined batch per owning server (replica copies
    /// included) on the wire at once, so a batch of `b` stripes costs one
    /// *concurrent* round trip per server rather than `b` sequential
    /// round trips. Backpressure first: while `max_inflight` stripes are
    /// in the air, the oldest drain is settled — and once one has failed,
    /// every drain still queued is, so the replica misses they carry are
    /// counted before the error is returned.
    fn submit_batch(&mut self) -> MemFsResult<()> {
        if self.batch.is_empty() {
            return Ok(());
        }
        while self.inflight >= self.max_inflight || (self.inflight > 0 && self.error.is_some()) {
            self.settle_oldest();
        }
        self.check()?;
        let items = std::mem::take(&mut self.batch);
        self.inflight += items.len();
        let window = self.pool.start_writes(&items);
        self.drains.push_back((items.len(), window));
        Ok(())
    }

    /// Settle the oldest drain, keeping its first failure.
    fn settle_oldest(&mut self) {
        let Some((stripes, window)) = self.drains.pop_front() else {
            return;
        };
        self.inflight -= stripes;
        let failed = self
            .pool
            .finish_writes(window)
            .into_iter()
            .find_map(Result::err);
        if let Some(e) = failed.filter(|_| self.error.is_none()) {
            self.error = Some(match e {
                MemFsError::Storage(e) => e,
                other => KvError::Protocol(other.to_string()),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::DistributorKind;
    use memfs_memkv::{KvClient, SimClient, Store, StoreConfig};

    fn make_pool(n: usize, budget: u64) -> Arc<ServerPool> {
        let clients: Vec<Arc<dyn KvClient>> = (0..n)
            .map(|_| {
                let cfg = StoreConfig {
                    memory_budget: budget,
                    ..StoreConfig::default()
                };
                Arc::new(SimClient::new(Arc::new(Store::new(cfg)))) as Arc<dyn KvClient>
            })
            .collect();
        Arc::new(ServerPool::new(clients, DistributorKind::default()))
    }

    /// Finish `buf` and decode the size its record publishes.
    fn finish(buf: &mut WriteBuffer) -> u64 {
        let record = buf.finish().unwrap();
        let decoded = meta::decode_size(&record, "/f").unwrap();
        decoded.state.size().expect("a closed record")
    }

    fn read_back(pool: &ServerPool, path: &str, size: u64, stripe: usize) -> Vec<u8> {
        let layout = StripeLayout::new(stripe);
        let mut out = Vec::new();
        for s in 0..layout.stripe_count(size) {
            let key = KeySchema::stripe_key(path, 0, s);
            out.extend_from_slice(&pool.get(&key).unwrap());
        }
        out
    }

    #[test]
    fn writes_stripe_and_store_everything() {
        let pool = make_pool(4, 1 << 30);
        let layout = StripeLayout::new(100);
        let mut buf = WriteBuffer::new("/f".into(), 0, layout, Arc::clone(&pool), 4);
        let data: Vec<u8> = (0..1050u32).map(|i| (i % 251) as u8).collect();
        buf.write(&data).unwrap();
        let size = finish(&mut buf);
        assert_eq!(size, 1050);
        assert_eq!(read_back(&pool, "/f", size, 100), data);
    }

    #[test]
    fn partial_tail_stripe_stored_on_finish() {
        let pool = make_pool(2, 1 << 30);
        let mut buf =
            WriteBuffer::new("/f".into(), 0, StripeLayout::new(100), Arc::clone(&pool), 2);
        buf.write(&[1u8; 100]).unwrap();
        buf.write(b"short").unwrap();
        assert_eq!(finish(&mut buf), 105);
        let key = KeySchema::stripe_key("/f", 0, 1);
        assert_eq!(pool.get(&key).unwrap().as_ref(), b"short");
    }

    #[test]
    fn a_file_shorter_than_a_stripe_is_its_record_and_stores_nothing() {
        let pool = make_pool(2, 1 << 30);
        for (path, data) in [("/e", &b""[..]), ("/s", b"short"), ("/n", &[9u8; 99])] {
            let mut buf =
                WriteBuffer::new(path.into(), 0, StripeLayout::new(100), Arc::clone(&pool), 2);
            buf.write(data).unwrap();
            buf.flush().unwrap();
            let record = buf.finish().unwrap();
            let len = data.len() as u64;
            assert_eq!(record[..meta::INLINE_HEAD], meta::inline_head(0, len));
            assert_eq!(record[meta::INLINE_HEAD..], *data);
            let stripe = pool.try_get(&KeySchema::stripe_key(path, 0, 0));
            assert_eq!(stripe.unwrap(), None, "{path}");
        }
        // One stripe exactly has left the buffer: striped.
        let mut buf =
            WriteBuffer::new("/x".into(), 0, StripeLayout::new(100), Arc::clone(&pool), 2);
        buf.write_bytes(Bytes::from(vec![3u8; 100])).unwrap();
        assert_eq!(
            buf.finish().unwrap(),
            Bytes::from(meta::encode_size(0, 100))
        );
        let stripe = pool.get(&KeySchema::stripe_key("/x", 0, 0)).unwrap();
        assert_eq!(stripe.as_ref(), &[3u8; 100][..]);
    }

    #[test]
    fn the_stripe_buffer_is_sized_once_per_stripe() {
        let pool = make_pool(2, 1 << 30);
        let mut buf =
            WriteBuffer::new("/f".into(), 0, StripeLayout::new(100), Arc::clone(&pool), 4);
        assert_eq!(buf.current.capacity(), meta::INLINE_HEAD + 100);
        for _ in 0..3 {
            buf.write(&[5u8; 50]).unwrap();
        }
        // Stripe 0 left with its buffer; the next has one stripe's room
        // from its first byte on, not a doubling series.
        assert_eq!((buf.current.len(), buf.current.capacity()), (50, 100));
        buf.write(&[5u8; 49]).unwrap();
        assert_eq!(buf.current.capacity(), 100);
        // No stripe started: nothing reserved after the last one left.
        buf.write(&[5u8; 1]).unwrap();
        assert_eq!(buf.current.capacity(), 0);
        assert_eq!(finish(&mut buf), 200);
        assert_eq!(read_back(&pool, "/f", 200, 100), [5u8; 200]);
    }

    #[test]
    fn many_small_writes_accumulate() {
        let pool = make_pool(4, 1 << 30);
        let mut buf = WriteBuffer::new("/f".into(), 0, StripeLayout::new(64), Arc::clone(&pool), 4);
        let mut expected = Vec::new();
        for i in 0..500u32 {
            let chunk = i.to_le_bytes();
            buf.write(&chunk).unwrap();
            expected.extend_from_slice(&chunk);
        }
        let size = finish(&mut buf);
        assert_eq!(size, 2000);
        assert_eq!(read_back(&pool, "/f", size, 64), expected);
    }

    #[test]
    fn background_storage_error_surfaces_at_finish() {
        // Tiny budget: stripes stop fitting quickly.
        let pool = make_pool(1, 300);
        let mut buf =
            WriteBuffer::new("/f".into(), 0, StripeLayout::new(100), Arc::clone(&pool), 2);
        let data = vec![0u8; 5_000];
        // The error may surface during write (backpressure path) or at
        // finish; it must surface somewhere.
        let result = buf.write(&data).and_then(|_| buf.finish().map(|_| ()));
        assert!(matches!(result, Err(MemFsError::Storage(_))));
    }

    #[test]
    fn flush_leaves_tail_writable() {
        let pool = make_pool(2, 1 << 30);
        let mut buf =
            WriteBuffer::new("/f".into(), 0, StripeLayout::new(100), Arc::clone(&pool), 2);
        buf.write(&[1u8; 150]).unwrap();
        buf.flush().unwrap();
        // Stripe 0 is durable after flush; the 50-byte tail is not.
        assert_eq!(
            pool.get(&KeySchema::stripe_key("/f", 0, 0)).unwrap().len(),
            100
        );
        buf.write(&[2u8; 50]).unwrap();
        let size = finish(&mut buf);
        assert_eq!(size, 200);
        let tail = pool.get(&KeySchema::stripe_key("/f", 0, 1)).unwrap();
        assert_eq!(&tail[..50], &[1u8; 50][..]);
        assert_eq!(&tail[50..], &[2u8; 50][..]);
    }

    #[test]
    fn batched_drain_stores_every_stripe_in_order() {
        // A budget of 4 clamps each drain to 4 of the 13 completed
        // stripes: three full batches plus a partial one carrying the tail
        // at finish.
        let pool = make_pool(4, 1 << 30);
        let mut buf =
            WriteBuffer::new("/b".into(), 0, StripeLayout::new(100), Arc::clone(&pool), 4);
        let data: Vec<u8> = (0..1350u32).map(|i| (i % 253) as u8).collect();
        for chunk in data.chunks(7) {
            buf.write(chunk).unwrap();
        }
        let size = finish(&mut buf);
        assert_eq!(size, 1350);
        assert_eq!(read_back(&pool, "/b", size, 100), data);
    }

    #[test]
    fn batch_larger_than_inflight_budget_is_clamped() {
        // DRAIN_BATCH_STRIPES > max_inflight would let one batch overshoot
        // the in-flight budget if not clamped; the writer must still drain
        // correctly with the clamped batch.
        let pool = make_pool(2, 1 << 30);
        let mut buf =
            WriteBuffer::new("/c".into(), 0, StripeLayout::new(100), Arc::clone(&pool), 2);
        let data = vec![9u8; 1000];
        buf.write(&data).unwrap();
        let size = finish(&mut buf);
        assert_eq!(size, 1000);
        assert_eq!(read_back(&pool, "/c", size, 100), data);
    }

    #[test]
    fn write_bytes_round_trips_aligned_stripes() {
        let pool = make_pool(4, 1 << 30);
        let mut buf = WriteBuffer::new(
            "/zb".into(),
            0,
            StripeLayout::new(100),
            Arc::clone(&pool),
            4,
        );
        let data: Vec<u8> = (0..700u32).map(|i| (i % 241) as u8).collect();
        buf.write_bytes(Bytes::from(data.clone())).unwrap();
        let size = finish(&mut buf);
        assert_eq!(size, 700);
        assert_eq!(read_back(&pool, "/zb", size, 100), data);
    }

    #[test]
    fn write_bytes_handles_unaligned_head_and_tail() {
        // A slice write leaves a partial stripe; the Bytes write must
        // merge into it, then go zero-copy once realigned, then buffer
        // its own partial tail.
        let pool = make_pool(4, 1 << 30);
        let mut buf = WriteBuffer::new(
            "/zu".into(),
            0,
            StripeLayout::new(100),
            Arc::clone(&pool),
            4,
        );
        let mut expected = Vec::new();
        let head = vec![3u8; 37];
        buf.write(&head).unwrap();
        expected.extend_from_slice(&head);
        let bulk: Vec<u8> = (0..333u32).map(|i| (i % 239) as u8).collect();
        buf.write_bytes(Bytes::from(bulk.clone())).unwrap();
        expected.extend_from_slice(&bulk);
        buf.write_bytes(Bytes::from_static(b"tail")).unwrap();
        expected.extend_from_slice(b"tail");
        let size = finish(&mut buf);
        assert_eq!(size, expected.len() as u64);
        assert_eq!(read_back(&pool, "/zu", size, 100), expected);
    }

    #[test]
    fn stripes_distribute_across_servers() {
        let pool = make_pool(8, 1 << 30);
        let mut buf = WriteBuffer::new(
            "/big".into(),
            0,
            StripeLayout::new(1024),
            Arc::clone(&pool),
            8,
        );
        buf.write(&vec![0u8; 64 * 1024]).unwrap();
        buf.finish().unwrap();
        // 64 stripes over 8 servers: every server should hold some.
        let mut counts = vec![0usize; 8];
        for s in 0..64u64 {
            let key = KeySchema::stripe_key("/big", 0, s);
            counts[pool.server_for(&key).0] += 1;
        }
        assert!(counts.iter().all(|&c| c > 0), "imbalanced: {counts:?}");
    }

    #[test]
    fn a_failed_drain_settles_the_drains_queued_behind_it() {
        // r = 2 over three servers, two of them down: a stripe homed on
        // both fails, a stripe with a live home lands degraded.
        let (pool, failables) = crate::pool::tests::failable_pool(3, 2);
        let pool = Arc::new(pool);
        let homes = |path: &str, s: u64| {
            let key = KeySchema::stripe_key(path, 0, s);
            let mut homes: Vec<usize> = pool.servers_for(&key).map(|id| id.0).collect();
            homes.sort_unstable();
            homes
        };
        let degraded = |path: &str, stripes: std::ops::Range<u64>| {
            stripes
                .filter(|&s| homes(path, s) != homes(path, 0))
                .count()
        };
        let path = (0..)
            .map(|i| format!("/f{i}"))
            .find(|p| degraded(p, 8..16) > 0)
            .expect("some path homes a stripe of the second drain apart");
        for down in homes(&path, 0) {
            failables[down].set_down(true);
        }
        // Eight stripes per drain, two drains in the air: the third drain
        // settles the first, which fails (stripe 0 has no live home) while
        // the second is still queued.
        let expected = degraded(&path, 0..16);
        let layout = StripeLayout::new(100);
        let mut buf = WriteBuffer::new(path, 0, layout, Arc::clone(&pool), 16);
        assert!(matches!(
            buf.write(&[1u8; 2400]),
            Err(MemFsError::Storage(_))
        ));
        // The second drain was settled before the error surfaced: its
        // stripes with a live home are durable there, their misses counted.
        let writes = || {
            let snap = pool.stats().snapshot();
            snap.iter().map(|s| s.degraded_writes).sum::<u64>()
        };
        assert_eq!(writes(), expected as u64);
        assert!(matches!(buf.finish(), Err(MemFsError::Storage(_))));
        assert_eq!(writes(), expected as u64, "nothing was left to settle");
    }
}
