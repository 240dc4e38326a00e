//! The prefetching protocol (paper §3.2.2) and the fine-grain read path.
//!
//! "Our prefetching scheme is simple and effective only for sequential
//! reads: when an application requests data from a specific stripe, MemFS
//! prefetches the consecutive stripes in a local cache."
//!
//! [`StripeReader`] keeps a bounded per-file cache (8 MiB by default) and
//! [`StripeReader::read_at`] is the one read entry point. A sequential
//! reader always finds the next stripe already local, hiding the network
//! latency (which is why Figure 3a shows read bandwidth independent of
//! stripe size) — and a reader that is *not* sequential is not made to pay
//! for that: the paper's scheme fetches the whole stripe and a window
//! behind every access, which for a 64 KiB read of a 512 KiB stripe moved
//! ≈ 20 wire bytes per user byte (its Figure 16 is the same amplification
//! seen from iozone). Each span of a read — its piece of one stripe — is
//! served one of three ways:
//!
//! | the span…                                             | path       |
//! |-------------------------------------------------------|------------|
//! | covers its whole stripe                               | **cached** |
//! | is part of a read that *continues a stream*           | **cached** |
//! | neither, but its stripe is already `Ready`            | cache copy |
//! | otherwise (also a stripe that is only `InFlight`)     | **ranged** |
//!
//! *Cached* is the paper's path: claim the slot, fetch the stripe whole,
//! keep it, record the access in the stream table and queue the next
//! `window` stripes. *Ranged* asks the server for just the span
//! (`getrange`), claims and caches nothing and issues no window. A *cache
//! copy* touches nothing either: hits by a random reader must not feed the
//! prefetcher, or every resident stripe keeps spawning windows nobody
//! reads. A read *continues a stream* when it starts at byte 0 or exactly
//! where an earlier read on this reader ended. Byte 0 counts because
//! open-then-read-through is by far the commonest access, and its first
//! read has no history to go by (Linux on-demand readahead makes the same
//! call); a reader that seeks mid-file and then streams pays one ranged
//! round trip — which leaves its end offset in the stream table — and is
//! recognised by its second read. With `window == 0` there is no cache, so
//! sub-stripe spans are always ranged.
//!
//! For the same reason a caching reader may start with stripe 0 on its way
//! (`StripeReader::with_first_stripe`): `MemFs::open` asks for it in the
//! same step as the size record — a finalized file's stripes never change
//! — so opening and reading a one-stripe file is one round trip. A file
//! shorter than a stripe has no stripes: its bytes came inside the record
//! (`StripeReader::with_inline`), and every read is a copy from them.
//!
//! All misses of one read, whole and ranged, travel as **one** read window
//! of the pool, started *after* the prefetch window so the two overlap.
//!
//! Nothing here runs on a thread of its own. A window is started on the
//! reading thread and its per-server shares stay pending in the cache:
//! a slot is `Ready` bytes or `InFlight` with the share that is bringing
//! them, and the reader that needs an `InFlight` stripe settles that
//! share itself — filling every stripe it carried — so no reader ever
//! waits for another to deliver. A share that failed leaves its stripes
//! absent, and the reader that wanted one fetches it on its own. A read
//! that may queue a window first settles every answered share, so one
//! nobody came back for stops holding the prefetch budget. Only stripes
//! that fit the size record are ever cached.
//!
//! The stream table goes slightly beyond the paper's strictly-consecutive
//! scheme: it detects forward strides (including several interleaved
//! sequential regions on one handle), so a stride-`k` scan of whole
//! stripes prefetches `stripe + k, stripe + 2k, ...` instead of degrading
//! every access to a synchronous miss. Pure sequential access resolves to
//! stride 1.

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use bytes::Bytes;
use memfs_hashring::schema::KeySchema;
use parking_lot::{Mutex, MutexGuard};

use crate::error::{MemFsError, MemFsResult};
use crate::layout::{StripeLayout, StripeSpan};
use crate::pool::{ReadReq, ServerPool, Share};

/// State of one cache slot. A share that fails removes its claims, so an
/// absent slot is also "failed: fetch it yourself".
enum Slot {
    /// A started share is bringing this stripe.
    InFlight(Arc<Pending>),
    /// Stripe bytes are local.
    Ready(Bytes),
}

/// One server's share of a read this reader started — a prefetch window,
/// a read's own requests, or the stripe 0 `open` asked for — kept until
/// some reader needs what it carries, and then settled by that reader.
struct Pending {
    /// The share's positions in the read it belongs to, in entry order.
    positions: Vec<usize>,
    /// Per entry, the stripe whose slot it claimed, if any.
    claims: Vec<Option<u64>>,
    landing: Mutex<Landing>,
}

/// A pending share, then its results: kept for the read that started it,
/// whoever settled it.
struct Landing {
    share: Option<Share<ReadReq>>,
    results: Vec<Option<MemFsResult<Bytes>>>,
}

/// Stripe 0 as `MemFs::open` hands it over: bytes that came back in the
/// size record's batch, or the share of `open`'s window still bringing
/// them.
pub(crate) enum FirstStripe {
    Ready(Bytes),
    InFlight(Share<ReadReq>),
}

struct CacheState {
    slots: HashMap<u64, Slot>,
    /// Ready-slot insertion order, for FIFO eviction.
    order: VecDeque<u64>,
}

struct Cache {
    state: Mutex<CacheState>,
    capacity: usize,
}

impl Cache {
    /// Insert a fetched stripe as `Ready`, evicting FIFO down to capacity.
    /// Every settled share fills through here, so the `order` queue is the
    /// single capacity authority.
    fn insert_ready_locked(&self, state: &mut CacheState, stripe: u64, data: Bytes) {
        while state.order.len() >= self.capacity {
            if let Some(victim) = state.order.pop_front() {
                // Never evict the stripe we are inserting.
                if victim != stripe {
                    state.slots.remove(&victim);
                }
            } else {
                break;
            }
        }
        state.slots.insert(stripe, Slot::Ready(data));
        state.order.push_back(stripe);
        self.check_invariants(state);
    }

    /// The `order`/`slots` invariant: `order` holds each Ready stripe at
    /// most once and never grows past capacity. Duplicated entries are how
    /// the old unclaimed-miss double-fetch corrupted capacity accounting.
    fn check_invariants(&self, state: &CacheState) {
        if cfg!(debug_assertions) {
            assert!(
                state.order.len() <= self.capacity,
                "order {} exceeds capacity {}",
                state.order.len(),
                self.capacity
            );
            let unique: std::collections::HashSet<&u64> = state.order.iter().collect();
            assert_eq!(unique.len(), state.order.len(), "duplicate order entries");
            for s in &state.order {
                assert!(
                    matches!(state.slots.get(s), Some(Slot::Ready(_))),
                    "order entry {s} not Ready"
                );
            }
        }
    }
}

/// Concurrent access streams tracked per reader handle. Covers a few
/// interleaved sequential/strided regions (e.g. head+tail readers);
/// beyond this the least recently touched stream is recycled.
const MAX_STREAMS: usize = 4;

/// Largest forward jump (in stripes) still treated as a stride of an
/// existing stream rather than a brand-new stream. Bounds how far a
/// strided window extrapolates ahead of the read position.
const MAX_STRIDE: u64 = 32;

/// One detected access stream: where it last read and how far it
/// appears to advance per access.
struct StreamState {
    last: u64,
    stride: u64,
    /// File offset where the stream's latest read ended: a read starting
    /// here continues the stream.
    end: u64,
    /// Logical clock of the last touch, for LRU recycling.
    touched: u64,
}

#[derive(Default)]
struct StreamTable {
    streams: Vec<StreamState>,
    clock: u64,
}

impl StreamTable {
    /// Whether a read starting at `offset` continues a stream: the start
    /// of the file, or exactly where an earlier read ended.
    fn continues(&self, offset: u64) -> bool {
        offset == 0 || self.streams.iter().any(|st| st.end == offset)
    }

    /// Record an access at `stripe` by a read ending at file offset `end`
    /// and return the stride the prefetcher should extrapolate with.
    /// Matching order: exact continuation of a known stream, re-read of a
    /// stream's position, nearest forward jump from a stream (which *sets*
    /// that stream's stride), else a fresh stream assumed sequential.
    fn note(&mut self, stripe: u64, end: u64) -> u64 {
        self.clock += 1;
        let clock = self.clock;
        let matched = if let Some(st) = self
            .streams
            .iter_mut()
            .find(|st| st.stride > 0 && st.last + st.stride == stripe)
        {
            Some(st)
        } else if let Some(st) = self.streams.iter_mut().find(|st| st.last == stripe) {
            st.stride = st.stride.max(1);
            Some(st)
        } else if let Some(st) = self
            .streams
            .iter_mut()
            .filter(|st| st.last < stripe && stripe - st.last <= MAX_STRIDE)
            .max_by_key(|st| st.last)
        {
            st.stride = stripe - st.last;
            Some(st)
        } else {
            None
        };
        match matched {
            Some(st) => {
                st.last = stripe;
                st.end = end;
                st.touched = clock;
                st.stride
            }
            None => {
                self.begin(stripe, end);
                1
            }
        }
    }

    /// Start a fresh, assumed-sequential stream whose latest read touched
    /// `stripe` and ended at `end`, recycling the least recently touched
    /// one when the table is full.
    fn begin(&mut self, stripe: u64, end: u64) {
        if self.streams.len() >= MAX_STREAMS {
            if let Some(pos) = self
                .streams
                .iter()
                .enumerate()
                .min_by_key(|(_, st)| st.touched)
                .map(|(i, _)| i)
            {
                self.streams.swap_remove(pos);
            }
        }
        self.streams.push(StreamState {
            last: stripe,
            stride: 1,
            end,
            touched: self.clock,
        });
    }
}

/// Where one span of a read gets its bytes.
enum Source {
    /// From the cache: the stripe itself, or `None` while a started share
    /// holds its slot (settled after this read's own requests went out).
    Cached(Option<Bytes>),
    /// Request `pos` of this read's own window; the piece starts at this
    /// offset of the stripe.
    Fetched(usize, usize),
}

/// A striped, prefetching reader over one finalized file.
pub struct StripeReader {
    path: String,
    layout: StripeLayout,
    file_size: u64,
    pool: Arc<ServerPool>,
    window: usize,
    cache: Cache,
    streams: Mutex<StreamTable>,
    /// The whole file, when it was kept inline in its size record: held
    /// for the reader's life, and no stripe is ever fetched.
    inline: Option<Bytes>,
}

impl StripeReader {
    /// Create a reader for `path` with final size `file_size`.
    ///
    /// `window` is how many stripes to prefetch ahead of a sequential
    /// reader; `0` disables prefetching and the cache (the "no
    /// prefetching" ablation of Figure 3b). `cache_stripes` caps the local
    /// cache (8 MiB / stripe size by default).
    pub fn new(
        path: String,
        layout: StripeLayout,
        file_size: u64,
        pool: Arc<ServerPool>,
        window: usize,
        cache_stripes: usize,
    ) -> Self {
        StripeReader {
            path,
            layout,
            file_size,
            pool,
            window,
            cache: Cache {
                state: Mutex::new(CacheState {
                    slots: HashMap::new(),
                    order: VecDeque::new(),
                }),
                capacity: cache_stripes.max(1),
            },
            streams: Mutex::new(StreamTable::default()),
            inline: None,
        }
    }

    /// Serve every read from `data`, the whole file that came inside its
    /// size record.
    pub(crate) fn with_inline(self, data: Bytes) -> Self {
        debug_assert_eq!(data.len() as u64, self.file_size);
        StripeReader {
            inline: Some(data),
            ..self
        }
    }

    /// Start with stripe 0 on its way: the bytes `MemFs::open` fetched
    /// beside the size record, or the share of its window still bringing
    /// them, so a first read from byte 0 is a cache copy (it still notes
    /// the stream and queues the window). Kept only when the reader caches
    /// at all; the bytes are kept only when they are exactly the length
    /// the size record gives stripe 0. Anything else is dropped and the
    /// first read fetches, and reports, as it would have without it.
    pub(crate) fn with_first_stripe(self, first: Option<FirstStripe>) -> Self {
        let first = first.filter(|_| self.window > 0 && self.file_size > 0);
        let mut state = self.cache.state.lock();
        match first {
            Some(FirstStripe::Ready(data)) if self.fits(0, &data) => {
                self.cache.insert_ready_locked(&mut state, 0, data);
            }
            Some(FirstStripe::InFlight(share)) => {
                self.keep(&mut state, share, |_| Some(0));
            }
            _ => {}
        }
        drop(state);
        self
    }

    /// The file size this reader was opened with.
    pub fn file_size(&self) -> u64 {
        self.file_size
    }

    /// Read up to `buf.len()` bytes at `offset`, returning the byte count
    /// (short only at end of file) — the one read entry point; the module
    /// docs give the policy each span follows.
    ///
    /// A read spanning several stripes costs one parallel round trip: its
    /// misses share one read window, whose per-server batches are on the
    /// wire together.
    pub fn read_at(&self, offset: u64, buf: &mut [u8]) -> MemFsResult<usize> {
        if let Some(data) = &self.inline {
            let from = usize::try_from(offset).map_or(data.len(), |o| o.min(data.len()));
            let n = buf.len().min(data.len() - from);
            buf[..n].copy_from_slice(&data[from..from + n]);
            return Ok(n);
        }
        let spans = self.layout.spans(self.file_size, offset, buf.len());
        let Some(last) = spans.last() else {
            return Ok(0);
        };
        let end = offset + spans.iter().map(|s| s.len as u64).sum::<u64>();
        let caching = self.window > 0;
        let whole = |span: &StripeSpan| {
            span.offset_in_stripe == 0
                && span.len == self.layout.stripe_len(self.file_size, span.stripe)
        };

        // Which spans take the cached path — and what the stream table
        // makes of them: noting every such stripe (not just the last)
        // keeps the table seeing the contiguous walk, so the next read
        // continues at stride 1 instead of looking like a span-sized jump.
        let mut streaming = false;
        let mut window_from: Option<(u64, u64)> = None;
        if caching {
            let mut table = self.streams.lock();
            streaming = table.continues(offset);
            for span in spans.iter().filter(|s| streaming || whole(s)) {
                window_from = Some((span.stripe, table.note(span.stripe, end)));
            }
        }
        if window_from.is_some() {
            self.settle_answered();
        }

        // Classify every span and start what this read needs under one
        // lock pass, claiming the cached-path misses, so concurrent readers
        // settle this read's shares instead of fetching the same stripes
        // again.
        let mut sources: Vec<Source> = Vec::with_capacity(spans.len());
        let mut reqs: Vec<(Option<u64>, ReadReq)> = Vec::new();
        let mine = {
            let mut state = self.cache.state.lock();
            for span in &spans {
                let cached_path = caching && (streaming || whole(span));
                let slot = state.slots.get(&span.stripe);
                let (claim, range) = match slot {
                    Some(Slot::Ready(data)) => {
                        sources.push(Source::Cached(Some(data.clone())));
                        continue;
                    }
                    Some(Slot::InFlight(_)) if cached_path => {
                        sources.push(Source::Cached(None));
                        continue;
                    }
                    // Claim and fetch the stripe whole, to keep it.
                    None if cached_path => {
                        let len = self.layout.stripe_len(self.file_size, span.stripe);
                        (Some(span.stripe), (0, len))
                    }
                    // No cache to fill, or a random access: move only the span.
                    _ => (None, (span.offset_in_stripe, span.len)),
                };
                sources.push(Source::Fetched(reqs.len(), range.0));
                let key = self.stripe_key(span.stripe);
                reqs.push((claim, (key, Some((range.0 as u64, range.1)))));
            }
            // Window first, so it overlaps this read's own requests. A read
            // served by ranges alone only leaves its end offset behind; one
            // served by cache copies alone leaves nothing.
            let claimed = reqs.iter().filter(|(claim, _)| claim.is_some()).count();
            if let Some((furthest, stride)) = window_from {
                self.prefetch_ahead(&mut state, furthest, stride, claimed);
            }
            if reqs.is_empty() {
                Vec::new()
            } else {
                self.start(&mut state, reqs)
            }
        };
        if window_from.is_none() && caching && !mine.is_empty() {
            self.streams.lock().begin(last.stripe, end);
        }

        let mut filled = 0usize;
        for (span, source) in spans.iter().zip(sources) {
            let (piece, starts_at) = match source {
                Source::Cached(Some(data)) => (data, 0),
                // Settle the share bringing it (or fetch it here, if that
                // share failed or the stripe was evicted again since).
                Source::Cached(None) => (self.fetch(span.stripe)?, 0),
                Source::Fetched(pos, starts_at) => {
                    let pending = mine.iter().find(|p| p.positions.contains(&pos));
                    let reply = self.take(pending.expect("every request started"), pos);
                    (
                        reply.map_err(|e| self.stripe_err(span.stripe, e))?,
                        starts_at,
                    )
                }
            };
            let from = span.offset_in_stripe - starts_at;
            let bytes = piece
                .get(from..from + span.len)
                .ok_or_else(|| self.short_stripe(span))?;
            buf[filled..filled + span.len].copy_from_slice(bytes);
            filled += span.len;
        }
        Ok(filled)
    }

    /// Read stripe `stripe` whole through [`StripeReader::read_at`].
    #[cfg(test)]
    fn stripe(&self, stripe: u64) -> MemFsResult<Bytes> {
        let mut buf = vec![0u8; self.layout.stripe_len(self.file_size, stripe)];
        let offset = stripe * self.layout.stripe_size() as u64;
        let n = self.read_at(offset, &mut buf)?;
        assert_eq!(n, buf.len(), "stripe {stripe} inside the file");
        Ok(Bytes::from(buf))
    }

    fn stripe_key(&self, stripe: u64) -> Bytes {
        Bytes::from(KeySchema::stripe_key(&self.path, stripe))
    }

    /// Whether `data` is exactly the length the size record gives
    /// `stripe`: only such bytes are cached.
    fn fits(&self, stripe: u64, data: &Bytes) -> bool {
        data.len() == self.layout.stripe_len(self.file_size, stripe)
    }

    /// Stripe `stripe` whole from the cache, settling the share that is
    /// bringing it. If there is none — that share failed, or the stripe
    /// was evicted again — claim the slot and fetch the stripe here, as a
    /// whole-stripe ranged read that any concurrent reader of the stripe
    /// settles as readily as this one: concurrent misses still share one
    /// fetch instead of each going to the network.
    fn fetch(&self, stripe: u64) -> MemFsResult<Bytes> {
        let mine = loop {
            let mut state = self.cache.state.lock();
            let pending = match state.slots.get(&stripe) {
                Some(Slot::Ready(data)) => return Ok(data.clone()),
                Some(Slot::InFlight(pending)) => Arc::clone(pending),
                None => {
                    let len = self.layout.stripe_len(self.file_size, stripe);
                    let req = (self.stripe_key(stripe), Some((0, len)));
                    let mut mine = self.start(&mut state, vec![(Some(stripe), req)]);
                    break mine.pop().expect("one share for one request");
                }
            };
            drop(state);
            self.settle(&pending);
        };
        self.take(&mine, 0).map_err(|e| self.stripe_err(stripe, e))
    }

    /// Start `reqs` as one read window of the pool and keep its shares
    /// pending; a request that claims a stripe (`Some`) marks that
    /// stripe's slot `InFlight` with its share. Runs with the cache
    /// locked, so a claim and the share that resolves it appear together.
    fn start(
        &self,
        state: &mut CacheState,
        reqs: Vec<(Option<u64>, ReadReq)>,
    ) -> Vec<Arc<Pending>> {
        let (claims, reqs): (Vec<Option<u64>>, Vec<ReadReq>) = reqs.into_iter().unzip();
        let window = self.pool.start_reads(reqs);
        let keep = |share| self.keep(state, share, |pos| claims[pos]);
        window.into_shares().into_iter().map(keep).collect()
    }

    /// Keep `share` pending in the cache: `claim` names the stripe each of
    /// its positions fills, if any.
    fn keep(
        &self,
        state: &mut CacheState,
        share: Share<ReadReq>,
        claim: impl Fn(usize) -> Option<u64>,
    ) -> Arc<Pending> {
        let positions = share.positions().to_vec();
        let pending = Arc::new(Pending {
            claims: positions.iter().map(|&pos| claim(pos)).collect(),
            positions,
            landing: Mutex::new(Landing {
                share: Some(share),
                results: Vec::new(),
            }),
        });
        for &stripe in pending.claims.iter().flatten() {
            state
                .slots
                .insert(stripe, Slot::InFlight(Arc::clone(&pending)));
        }
        pending
    }

    /// Settle `pending` unless some reader already has: fill the slots it
    /// claimed — `Ready`, or released when the entry failed or does not
    /// fit the size record, for a later read to fetch itself — and keep
    /// its results for the read that started it. Readers needing the same
    /// share meanwhile wait on its lock, never on one another.
    fn settle<'p>(&self, pending: &'p Pending) -> MutexGuard<'p, Landing> {
        let mut landing = pending.landing.lock();
        if let Some(share) = landing.share.take() {
            let results = self.pool.settle_read(share);
            let mut state = self.cache.state.lock();
            for ((_, result), claim) in results.iter().zip(&pending.claims) {
                let Some(stripe) = *claim else { continue };
                match result {
                    Ok(data) if self.fits(stripe, data) => {
                        self.cache
                            .insert_ready_locked(&mut state, stripe, data.clone())
                    }
                    _ => {
                        state.slots.remove(&stripe);
                    }
                }
            }
            drop(state);
            landing.results = results.into_iter().map(|(_, r)| Some(r)).collect();
        }
        landing
    }

    /// Settle every share whose server has already answered, before a read
    /// that may queue a window counts its budget. A window nobody came back
    /// for — it failed, or the reader jumped past it — would otherwise hold
    /// its `InFlight` claims, and so the budget, for the life of the
    /// handle; settled, its stripes are `Ready` (evictable once behind the
    /// read position) or absent. A share some reader is settling right now
    /// is left to that reader.
    fn settle_answered(&self) {
        let answered: Vec<Arc<Pending>> = {
            let state = self.cache.state.lock();
            let answered = |pending: &Pending| {
                let landing = pending.landing.try_lock();
                landing.is_some_and(|l| l.share.as_ref().is_some_and(Share::is_answered))
            };
            state
                .slots
                .values()
                .filter_map(|slot| match slot {
                    Slot::InFlight(pending) if answered(pending) => Some(Arc::clone(pending)),
                    _ => None,
                })
                .collect()
        };
        for pending in answered {
            drop(self.settle(&pending));
        }
    }

    /// The result of request `pos` of the read `pending` belongs to,
    /// settling it first if need be.
    fn take(&self, pending: &Pending, pos: usize) -> MemFsResult<Bytes> {
        let entry = pending.positions.iter().position(|&p| p == pos);
        let mut landing = self.settle(pending);
        landing.results[entry.expect("a position of this share")]
            .take()
            .expect("each result is taken once")
    }

    /// A missing stripe under a finalized size record means the key space
    /// was tampered with.
    fn stripe_err(&self, stripe: u64, e: MemFsError) -> MemFsError {
        match e {
            MemFsError::Storage(memfs_memkv::KvError::NotFound) => MemFsError::CorruptMetadata(
                format!("stripe {stripe} of {} missing from store", self.path),
            ),
            other => other,
        }
    }

    /// A stripe (or a ranged piece of one) shorter than the finalized size
    /// record implies.
    fn short_stripe(&self, span: &StripeSpan) -> MemFsError {
        MemFsError::CorruptMetadata(format!(
            "stripe {} of {} shorter than the size record implies",
            span.stripe, self.path
        ))
    }

    /// Start a window for stripes `stripe + k*stride`, `k` in
    /// `1..=window`, beside the `claimed` stripes the calling read is
    /// about to fetch.
    ///
    /// The whole window travels as **one** read window of the pool: it
    /// groups the keys by owning server and puts the per-server multi-gets
    /// on the wire at once, so a window of `w` stripes over `n` servers
    /// costs one round trip per server — concurrent, `max(server RTT)`
    /// total — and its shares wait in the cache for whoever reads first.
    fn prefetch_ahead(&self, state: &mut CacheState, stripe: u64, stride: u64, claimed: usize) {
        let stride = stride.max(1);
        let total = self.layout.stripe_count(self.file_size);
        // Don't let prefetch evict data the reader hasn't seen: bound the
        // stripes that are still *unread* — ahead of the read position or
        // in flight (this read's claims included). Ready stripes behind
        // `stripe` were already consumed by this sequential pass and are
        // fair eviction game, so they must not count against the budget:
        // charging them wedged steady-state prefetch entirely once a file
        // longer than the cache had filled it. An `InFlight` slot here is
        // on the wire: `read_at` settled every answered share just before.
        let mut busy = claimed
            + state
                .slots
                .iter()
                .filter(|&(&s, slot)| s > stripe || matches!(slot, Slot::InFlight(_)))
                .count();
        let mut reqs: Vec<(Option<u64>, ReadReq)> = Vec::new();
        for k in 1..=(self.window as u64) {
            let next = stripe + k * stride;
            if next >= total {
                break;
            }
            if state.slots.contains_key(&next) {
                continue; // ready or in flight
            }
            if busy >= self.cache.capacity {
                break;
            }
            busy += 1;
            reqs.push((Some(next), (self.stripe_key(next), None)));
        }
        if !reqs.is_empty() {
            self.start(state, reqs);
        }
    }

    /// Number of stripes held locally (diagnostic); stripes a pending
    /// share is still bringing are not counted.
    pub fn cached_stripes(&self) -> usize {
        let state = self.cache.state.lock();
        state
            .slots
            .values()
            .filter(|s| matches!(s, Slot::Ready(_)))
            .count()
    }

    /// Verify the cache invariants and report `(slots, order)` sizes.
    #[cfg(test)]
    fn cache_counts(&self) -> (usize, usize) {
        let state = self.cache.state.lock();
        self.cache.check_invariants(&state);
        (state.slots.len(), state.order.len())
    }

    /// Settle every pending share, as readers needing their stripes
    /// would: afterwards no slot is `InFlight`.
    #[cfg(test)]
    fn settle_pending(&self) {
        loop {
            let state = self.cache.state.lock();
            let next = state.slots.values().find_map(|slot| match slot {
                Slot::InFlight(pending) => Some(Arc::clone(pending)),
                Slot::Ready(_) => None,
            });
            drop(state);
            match next {
                Some(pending) => drop(self.settle(&pending)),
                None => return,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

    use super::*;
    use crate::config::DistributorKind;
    use memfs_memkv::{KvClient, LocalClient, Store, StoreConfig};

    fn setup(file_size: u64, stripe: usize) -> (Arc<ServerPool>, Bytes) {
        let clients: Vec<Arc<dyn KvClient>> = (0..4)
            .map(|_| {
                Arc::new(LocalClient::new(Arc::new(Store::new(
                    StoreConfig::default(),
                )))) as Arc<dyn KvClient>
            })
            .collect();
        let pool = Arc::new(ServerPool::new(clients, DistributorKind::default()));
        let data = Bytes::from((0..file_size).map(|i| (i % 241) as u8).collect::<Vec<u8>>());
        let layout = StripeLayout::new(stripe);
        for s in 0..layout.stripe_count(file_size) {
            let start = (s as usize) * stripe;
            let end = (start + stripe).min(file_size as usize);
            // Zero-copy fill: every stripe shares the one backing buffer.
            pool.set(&KeySchema::stripe_key("/f", s), data.slice(start..end))
                .unwrap();
        }
        (pool, data)
    }

    fn reader(
        pool: &Arc<ServerPool>,
        file_size: u64,
        stripe: usize,
        window: usize,
    ) -> StripeReader {
        StripeReader::new(
            "/f".into(),
            StripeLayout::new(stripe),
            file_size,
            Arc::clone(pool),
            window,
            16,
        )
    }

    #[test]
    fn sequential_read_with_prefetch_returns_correct_bytes() {
        let (pool, data) = setup(1000, 100);
        let r = reader(&pool, 1000, 100, 4);
        let mut out = Vec::new();
        for s in 0..10 {
            out.extend_from_slice(&r.stripe(s).unwrap());
        }
        assert_eq!(out, data.as_ref());
    }

    #[test]
    fn random_order_reads_are_correct() {
        let (pool, data) = setup(1000, 100);
        let r = reader(&pool, 1000, 100, 4);
        for &s in &[7u64, 0, 9, 3, 3, 1, 8, 0] {
            let got = r.stripe(s).unwrap();
            let start = (s as usize) * 100;
            assert_eq!(got.as_ref(), &data[start..start + 100]);
        }
    }

    #[test]
    fn no_prefetch_mode_works() {
        let (pool, data) = setup(500, 100);
        let r = reader(&pool, 500, 100, 0);
        for s in 0..5 {
            let got = r.stripe(s).unwrap();
            assert_eq!(
                got.as_ref(),
                &data[(s as usize) * 100..(s as usize + 1) * 100]
            );
        }
        assert_eq!(r.cached_stripes(), 0);
    }

    #[test]
    fn prefetch_populates_cache() {
        let (pool, _) = setup(2000, 100);
        let r = reader(&pool, 2000, 100, 8);
        r.stripe(0).unwrap();
        r.settle_pending();
        assert!(r.cached_stripes() >= 8, "prefetch did not fill cache");
    }

    #[test]
    fn prefetch_window_issues_one_batch_per_server() {
        let stores: Vec<Arc<Store>> = (0..4)
            .map(|_| Arc::new(Store::new(StoreConfig::default())))
            .collect();
        let clients: Vec<Arc<dyn KvClient>> = stores
            .iter()
            .map(|s| Arc::new(LocalClient::new(Arc::clone(s))) as Arc<dyn KvClient>)
            .collect();
        let pool = Arc::new(ServerPool::new(clients, DistributorKind::default()));
        let layout = StripeLayout::new(100);
        for s in 0..layout.stripe_count(2000) {
            pool.set(
                &KeySchema::stripe_key("/f", s),
                Bytes::from(vec![s as u8; 100]),
            )
            .unwrap();
        }
        let r = StripeReader::new("/f".into(), layout, 2000, Arc::clone(&pool), 8, 16);
        // One read triggers exactly one prefetch window (stripes 1..=8).
        let owners: std::collections::HashSet<usize> = (1..=8u64)
            .map(|s| pool.server_for(&KeySchema::stripe_key("/f", s)).0)
            .collect();
        r.stripe(0).unwrap();
        // Acceptance criterion: every server owning part of the window saw
        // exactly ONE batched multi-get, never one request per stripe.
        for (i, store) in stores.iter().enumerate() {
            let expected = usize::from(owners.contains(&i)) as u64;
            assert_eq!(
                store.stats().snapshot().mget_ops,
                expected,
                "server {i} batch count"
            );
        }
    }

    /// A client wrapper separating the reader's three kinds of traffic:
    /// synchronous whole-stripe fetches (`gets` — a ranged request for all
    /// `whole` bytes of a stripe), ranged pieces (`ranged`) and prefetch
    /// windows (`mgets` — a `Get`: the reader asks for whole values only
    /// in its windows). `Store`'s own counters can't tell these apart: its
    /// `get_many` bumps `get_ops` once per key too.
    struct CountingClient<C = LocalClient> {
        inner: C,
        whole: usize,
        gets: AtomicU64,
        ranged: AtomicU64,
        mgets: AtomicU64,
    }

    impl<C: KvClient> KvClient for CountingClient<C> {
        fn start(&self, batch: memfs_memkv::Batch<'_>) -> memfs_memkv::Deferred<Bytes> {
            match batch {
                memfs_memkv::Batch::Get(_) => _ = self.mgets.fetch_add(1, Relaxed),
                memfs_memkv::Batch::GetRange(ranges) => {
                    for &(_, offset, len) in ranges {
                        let counter = if (offset, len) == (0, self.whole) {
                            &self.gets
                        } else {
                            &self.ranged
                        };
                        counter.fetch_add(1, Relaxed);
                    }
                }
                _ => {}
            }
            self.inner.start(batch)
        }
    }

    /// Four counted local servers plus a pool over them, pre-seeded with
    /// every stripe of a `file_size`-byte file at `/f`.
    fn instrumented_pool(
        file_size: u64,
        stripe: usize,
    ) -> (Vec<Arc<CountingClient>>, Arc<ServerPool>) {
        instrumented_pool_over(file_size, stripe, LocalClient::new)
    }

    /// [`instrumented_pool`] with each server's client built by `wrap`
    /// (e.g. a failure-injecting wrapper) under the counters.
    fn instrumented_pool_over<C: KvClient + 'static>(
        file_size: u64,
        stripe: usize,
        wrap: impl Fn(Arc<Store>) -> C,
    ) -> (Vec<Arc<CountingClient<C>>>, Arc<ServerPool>) {
        let counted: Vec<Arc<CountingClient<C>>> = (0..4)
            .map(|_| {
                Arc::new(CountingClient {
                    inner: wrap(Arc::new(Store::new(StoreConfig::default()))),
                    whole: stripe,
                    gets: AtomicU64::new(0),
                    ranged: AtomicU64::new(0),
                    mgets: AtomicU64::new(0),
                })
            })
            .collect();
        let clients: Vec<Arc<dyn KvClient>> = counted
            .iter()
            .map(|c| Arc::clone(c) as Arc<dyn KvClient>)
            .collect();
        let pool = Arc::new(ServerPool::new(clients, DistributorKind::default()));
        let layout = StripeLayout::new(stripe);
        for s in 0..layout.stripe_count(file_size) {
            pool.set(
                &KeySchema::stripe_key("/f", s),
                Bytes::from(vec![s as u8; stripe]),
            )
            .unwrap();
        }
        (counted, pool)
    }

    fn sync_gets(clients: &[Arc<CountingClient>]) -> u64 {
        clients.iter().map(|c| c.gets.load(Relaxed)).sum()
    }

    fn ranged_gets(clients: &[Arc<CountingClient>]) -> u64 {
        clients.iter().map(|c| c.ranged.load(Relaxed)).sum()
    }

    fn batched_gets(clients: &[Arc<CountingClient>]) -> u64 {
        clients.iter().map(|c| c.mgets.load(Relaxed)).sum()
    }

    #[test]
    fn strided_reads_keep_prefetch_engaged() {
        // 300 stripes, read every third one. Before stride detection the
        // consecutive-only window never contained the next access, so a
        // strided scan degraded to one synchronous get per stripe.
        let (counted, pool) = instrumented_pool(30_000, 100);
        let r = StripeReader::new(
            "/f".into(),
            StripeLayout::new(100),
            30_000,
            Arc::clone(&pool),
            8,
            16,
        );
        let mut accesses = 0u64;
        let mut s = 0u64;
        while s < 300 {
            assert_eq!(r.stripe(s).unwrap().as_ref(), &vec![s as u8; 100][..]);
            accesses += 1;
            s += 3;
        }
        // Slot reservation is synchronous under the cache lock, so once
        // the stride locks in every access finds its stripe Ready or
        // InFlight: almost all of the 100 accesses must be prefetch hits.
        let gets = sync_gets(&counted);
        assert!(accesses >= 100);
        assert!(
            gets <= 10,
            "strided scan fell back to {gets} synchronous gets out of {accesses} accesses"
        );
        assert!(
            batched_gets(&counted) > 0,
            "stride window never issued a batched prefetch"
        );
    }

    #[test]
    fn interleaved_sequential_streams_each_prefetch() {
        // Two sequential readers sharing one handle, far apart in the
        // file. The stream table tracks both, so neither degrades the
        // other to synchronous misses.
        let (counted, pool) = instrumented_pool(30_000, 100);
        let r = StripeReader::new(
            "/f".into(),
            StripeLayout::new(100),
            30_000,
            Arc::clone(&pool),
            8,
            32, // room for both streams' windows
        );
        for s in 0..50u64 {
            assert_eq!(r.stripe(s).unwrap().as_ref(), &vec![s as u8; 100][..]);
            let t = 150 + s;
            assert_eq!(r.stripe(t).unwrap().as_ref(), &vec![t as u8; 100][..]);
        }
        let gets = sync_gets(&counted);
        assert!(
            gets <= 10,
            "interleaved streams fell back to {gets} synchronous gets"
        );
    }

    /// `n` seeded sub-stripe reads — one eighth of an 800-byte stripe each,
    /// anywhere in a `stripes`-stripe file — as `(offset, len)` pairs, none
    /// of which continues a stream: none starts at byte 0, at an offset in
    /// `taken`, or where an earlier one of them ended.
    fn random_eighths(stripes: u64, n: usize, taken: &[u64]) -> Vec<(u64, usize)> {
        let mut ends: std::collections::HashSet<u64> = taken.iter().copied().collect();
        ends.insert(0);
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut reads = Vec::with_capacity(n);
        while reads.len() < n {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let offset = (x % stripes) * 800 + ((x >> 32) % 8) * 100;
            if ends.contains(&offset) {
                continue;
            }
            ends.insert(offset + 100);
            reads.push((offset, 100));
        }
        reads
    }

    /// Read `len` bytes at `offset` of the `instrumented_pool` file, whose
    /// stripe `s` is filled with `s as u8`.
    fn read_checked(r: &StripeReader, offset: u64, len: usize) {
        let mut buf = vec![0u8; len];
        assert_eq!(r.read_at(offset, &mut buf).unwrap(), len);
        for (i, &b) in buf.iter().enumerate() {
            assert_eq!(
                b,
                ((offset + i as u64) / 800) as u8,
                "byte {i} of {offset}+{len}"
            );
        }
    }

    fn counted_reader(pool: &Arc<ServerPool>, stripes: u64, window: usize) -> StripeReader {
        let (layout, size) = (StripeLayout::new(800), stripes * 800);
        StripeReader::new("/f".into(), layout, size, Arc::clone(pool), window, 32)
    }

    #[test]
    fn random_sub_stripe_reads_move_only_their_ranges() {
        let (counted, pool) = instrumented_pool(80_000, 800);
        let r = counted_reader(&pool, 100, 8);
        for (offset, len) in random_eighths(100, 200, &[]) {
            read_checked(&r, offset, len);
        }
        assert_eq!(ranged_gets(&counted), 200);
        assert_eq!(
            sync_gets(&counted),
            0,
            "a random read fetched a whole stripe"
        );
        assert_eq!(batched_gets(&counted), 0, "a random read issued a window");
        assert_eq!(r.cached_stripes(), 0);
    }

    #[test]
    fn cache_hits_by_random_reads_do_not_feed_the_prefetcher() {
        let (counted, pool) = instrumented_pool(80_000, 800);
        let r = counted_reader(&pool, 100, 8);
        // Stripe 0 and its window: stripes 0..=8 become resident.
        r.stripe(0).unwrap();
        r.settle_pending();
        assert_eq!(r.cached_stripes(), 9);
        let (windows, gets) = (batched_gets(&counted), sync_gets(&counted));
        // Random reads over the resident part and just beyond it: hits are
        // copied out, misses are ranged, and neither issues a window.
        let reads = random_eighths(12, 90, &[800]);
        let resident = reads
            .iter()
            .filter(|&&(offset, _)| offset < 9 * 800)
            .count();
        assert!(resident > 30, "the plan must land on resident stripes");
        for &(offset, len) in &reads {
            read_checked(&r, offset, len);
        }
        r.settle_pending();
        assert_eq!(
            batched_gets(&counted),
            windows,
            "a cache hit issued a window"
        );
        assert_eq!(sync_gets(&counted), gets);
        assert_eq!(ranged_gets(&counted), (reads.len() - resident) as u64);
        assert_eq!(r.cached_stripes(), 9);
    }

    #[test]
    fn sequential_sub_stripe_reads_from_byte_zero_stay_on_the_cached_path() {
        // A quarter stripe per read — the 128 KiB reads of a 512 KiB
        // stripe: one synchronous whole-stripe fetch, then window hits.
        let (counted, pool) = instrumented_pool(24_000, 800);
        let r = counted_reader(&pool, 30, 8);
        for offset in (0..24_000).step_by(200) {
            read_checked(&r, offset, 200);
        }
        assert_eq!(ranged_gets(&counted), 0);
        assert!(
            sync_gets(&counted) <= 1,
            "{} sync gets",
            sync_gets(&counted)
        );
        assert!(batched_gets(&counted) > 0);
    }

    #[test]
    fn sequential_reads_from_mid_file_lock_in_after_one_ranged_read() {
        let (counted, pool) = instrumented_pool(24_000, 800);
        let r = counted_reader(&pool, 30, 8);
        for offset in (8_200..24_000).step_by(200) {
            read_checked(&r, offset, 200);
        }
        assert_eq!(ranged_gets(&counted), 1, "only the first read is ranged");
        assert!(
            sync_gets(&counted) <= 1,
            "{} sync gets",
            sync_gets(&counted)
        );
        assert!(batched_gets(&counted) > 0);
    }

    #[test]
    fn two_streams_on_one_reader_both_lock_in() {
        // What two `duplicate()`d handles do: one reader, two cursors.
        let (counted, pool) = instrumented_pool(48_000, 800);
        let r = counted_reader(&pool, 60, 8);
        for step in (0..16_000).step_by(200) {
            read_checked(&r, step, 200);
            read_checked(&r, 24_600 + step, 200);
        }
        assert_eq!(ranged_gets(&counted), 1, "the mid-file stream's first read");
        assert!(
            sync_gets(&counted) <= 2,
            "{} sync gets",
            sync_gets(&counted)
        );
    }

    #[test]
    fn without_a_cache_every_sub_stripe_read_is_ranged() {
        let (counted, pool) = instrumented_pool(8_000, 800);
        let r = counted_reader(&pool, 10, 0);
        for offset in (0..8_000).step_by(200) {
            read_checked(&r, offset, 200);
        }
        assert_eq!(ranged_gets(&counted), 40);
        assert_eq!(sync_gets(&counted) + batched_gets(&counted), 0);
        assert_eq!(r.cached_stripes(), 0);
    }

    #[test]
    fn a_first_stripe_is_a_cache_copy_that_still_queues_the_window() {
        let (counted, pool) = instrumented_pool(2000, 100);
        let seeded = |window: usize, first: Vec<u8>| {
            reader(&pool, 2000, 100, window)
                .with_first_stripe(Some(FirstStripe::Ready(Bytes::from(first))))
        };
        let r = seeded(8, vec![0u8; 100]);
        assert_eq!(r.cached_stripes(), 1);
        assert_eq!(r.stripe(0).unwrap().as_ref(), &[0u8; 100][..]);
        r.settle_pending();
        assert_eq!(sync_gets(&counted) + ranged_gets(&counted), 0);
        assert!(batched_gets(&counted) > 0, "the read queued no window");
        assert_eq!(r.cached_stripes(), 9);
        // The wrong length, or no cache to put it in: dropped.
        for r in [seeded(8, vec![0u8; 99]), seeded(0, vec![0u8; 100])] {
            assert_eq!(r.cached_stripes(), 0);
        }
    }

    #[test]
    fn multi_stripe_read_is_correct_and_uses_cache() {
        let (pool, data) = setup(2000, 100);
        let r = reader(&pool, 2000, 100, 4);
        // Mixed cold/warm: stripe 0 warms the cache (and its window) first;
        // the read starts and ends mid-stripe.
        r.stripe(0).unwrap();
        let mut got = vec![0u8; 850];
        assert_eq!(r.read_at(250, &mut got).unwrap(), 850);
        assert_eq!(got, &data[250..1100]);
        // A second read of the whole stripes in that range is cache-served.
        r.settle_pending();
        let before = pool.stats().snapshot();
        let mut again = vec![0u8; 700];
        assert_eq!(r.read_at(300, &mut again).unwrap(), 700);
        assert_eq!(again, &data[300..1000]);
        assert_eq!(
            before.iter().map(|s| s.keys).sum::<u64>(),
            pool.stats().snapshot().iter().map(|s| s.keys).sum::<u64>(),
            "resident stripes were fetched again"
        );
    }

    #[test]
    fn multi_stripe_read_without_cache_is_one_parallel_fetch() {
        let (pool, data) = setup(1000, 100);
        let r = reader(&pool, 1000, 100, 0);
        let batches = || -> u64 { pool.stats().snapshot().iter().map(|s| s.batches).sum() };
        let before = batches();
        let mut flat = vec![0u8; 1000];
        assert_eq!(r.read_at(0, &mut flat).unwrap(), 1000);
        assert_eq!(flat, data.as_ref());
        assert_eq!(r.cached_stripes(), 0);
        // One batch per server, not one round trip per stripe.
        let batches = batches() - before;
        assert!(batches <= 4, "{batches} batches for one read");
    }

    #[test]
    fn multi_stripe_read_missing_stripe_is_corrupt_metadata() {
        let (pool, _) = setup(1000, 100);
        pool.delete_quiet(&KeySchema::stripe_key("/f", 5)).unwrap();
        let r = reader(&pool, 1000, 100, 4);
        let mut buf = vec![0u8; 600];
        assert!(matches!(
            r.read_at(200, &mut buf),
            Err(MemFsError::CorruptMetadata(_))
        ));
        // A ranged piece of the missing stripe is the same error.
        assert!(matches!(
            r.read_at(510, &mut buf[..20]),
            Err(MemFsError::CorruptMetadata(_))
        ));
        // The failed slot must not wedge later readers: a retry of the
        // healthy stripes succeeds.
        assert_eq!(r.read_at(200, &mut buf[..300]).unwrap(), 300);
    }

    #[test]
    fn short_stripe_is_corrupt_metadata_whole_or_ranged() {
        // The size record says 1000 bytes, but stripe 3 holds only 40.
        let (pool, _) = setup(1000, 100);
        pool.set(&KeySchema::stripe_key("/f", 3), Bytes::from(vec![1u8; 40]))
            .unwrap();
        for window in [0, 4] {
            let r = reader(&pool, 1000, 100, window);
            let mut buf = [0u8; 100];
            for (offset, len) in [(300, 100), (330, 20)] {
                assert!(
                    matches!(
                        r.read_at(offset, &mut buf[..len]),
                        Err(MemFsError::CorruptMetadata(_))
                    ),
                    "window {window}, read {offset}+{len}"
                );
            }
            assert_eq!(r.read_at(310, &mut buf[..30]).unwrap(), 30);
        }
    }

    #[test]
    fn cache_respects_capacity() {
        let (pool, _) = setup(10_000, 100);
        let r = StripeReader::new(
            "/f".into(),
            StripeLayout::new(100),
            10_000,
            Arc::clone(&pool),
            4,
            6, // tiny cache
        );
        for s in 0..100 {
            r.stripe(s).unwrap();
        }
        assert!(
            r.cached_stripes() <= 7,
            "cache grew to {}",
            r.cached_stripes()
        );
    }

    #[test]
    fn missing_stripe_is_corrupt_metadata() {
        let (pool, _) = setup(1000, 100);
        pool.delete_quiet(&KeySchema::stripe_key("/f", 5)).unwrap();
        let r = reader(&pool, 1000, 100, 0);
        assert!(matches!(r.stripe(5), Err(MemFsError::CorruptMetadata(_))));
    }

    #[test]
    fn prefetch_recovers_after_transient_errors() {
        use memfs_memkv::SimClient;
        let store = Arc::new(Store::new(StoreConfig::default()));
        let failable = Arc::new(SimClient::new(Arc::clone(&store)));
        let clients: Vec<Arc<dyn KvClient>> = vec![Arc::clone(&failable) as Arc<dyn KvClient>];
        let pool = Arc::new(ServerPool::new(clients, DistributorKind::default()));
        // 100 stripes: the recovery read at stripe 40 continues a
        // stride-10 stream, so its window (50, 60, ...) must fit the file.
        let layout = StripeLayout::new(100);
        for s in 0..layout.stripe_count(10_000) {
            pool.set(
                &KeySchema::stripe_key("/f", s),
                Bytes::from(vec![s as u8; 100]),
            )
            .unwrap();
        }
        let r = StripeReader::new(
            "/f".into(),
            layout,
            10_000,
            Arc::clone(&pool),
            4,
            4, // capacity == window: unreleased outage-time claims fill it
        );
        // Transient outage: every batched read fails, on as many distinct
        // stripes as the capacity.
        failable.set_down(true);
        for s in [0u64, 10, 20, 30] {
            assert!(r.stripe(s).is_err());
        }
        failable.set_down(false);
        // Recovery: a successful read must re-arm prefetching. Failed
        // fetches used to leave markers that counted against capacity and
        // wedged prefetch permanently — no batched multi-get was ever
        // issued again.
        let baseline = store.stats().snapshot().mget_ops;
        assert_eq!(r.stripe(40).unwrap().as_ref(), &[40u8; 100][..]);
        assert!(
            store.stats().snapshot().mget_ops > baseline,
            "prefetch window never issued after recovery: wedged"
        );

        // One server of four fails its share of a window: the other
        // servers' stripes must turn Ready (not stay InFlight behind the
        // failure) and its own must be released, to be retried
        // synchronously once the server is back.
        let (counted, pool) = instrumented_pool_over(2000, 100, SimClient::new);
        let owner = |s: u64| pool.server_for(&KeySchema::stripe_key("/f", s)).0;
        let failed = (1..=8u64)
            .find(|&s| owner(s) != owner(0))
            .expect("a window stripe off the first stripe's server");
        let down = owner(failed);
        let r = StripeReader::new(
            "/f".into(),
            StripeLayout::new(100),
            2000,
            Arc::clone(&pool),
            8,
            32, // the whole file fits: nothing read below is evicted
        );
        counted[down].inner.set_down(true);
        assert_eq!(r.stripe(0).unwrap().as_ref(), &[0u8; 100][..]);
        r.settle_pending();
        {
            let state = r.cache.state.lock();
            for s in 1..=8u64 {
                match state.slots.get(&s) {
                    None => assert_eq!(owner(s), down, "stripe {s} failed"),
                    Some(Slot::Ready(_)) => assert_ne!(owner(s), down, "stripe {s} ready"),
                    _ => panic!("window stripe {s} left unresolved"),
                }
            }
        }
        // The healthy servers' stripes come from the cache, the failed
        // one from a synchronous get on the server that is back.
        for s in (1..=8u64).filter(|&s| owner(s) != down) {
            assert_eq!(r.stripe(s).unwrap().as_ref(), &vec![s as u8; 100][..]);
        }
        r.settle_pending();
        counted[down].inner.set_down(false);
        let retries = || counted[down].gets.load(Relaxed);
        let before = retries();
        assert_eq!(
            r.stripe(failed).unwrap().as_ref(),
            &vec![failed as u8; 100][..]
        );
        assert_eq!(
            retries(),
            before + 1,
            "the failed stripe must be retried synchronously"
        );
    }

    #[test]
    fn windows_a_reader_jumped_past_do_not_hold_the_budget() {
        // Stripe 0, then two seeks: each leaves a window nobody reads.
        // Their claims must not fill the budget, or the stream that
        // follows the second seek never prefetches again.
        let (counted, pool) = instrumented_pool(20_000, 100);
        let r = reader(&pool, 20_000, 100, 8);
        for s in [0u64, 50, 100] {
            assert_eq!(r.stripe(s).unwrap().as_ref(), &vec![s as u8; 100][..]);
        }
        let (windows, gets) = (batched_gets(&counted), sync_gets(&counted));
        for s in 101..=140u64 {
            assert_eq!(r.stripe(s).unwrap().as_ref(), &vec![s as u8; 100][..]);
        }
        assert!(
            batched_gets(&counted) > windows,
            "no window after two seeks: wedged"
        );
        assert_eq!(sync_gets(&counted), gets, "the stream missed its windows");
    }

    #[test]
    fn concurrent_misses_coalesce_into_one_fetch() {
        let store = Arc::new(Store::new(StoreConfig::default()));
        let clients: Vec<Arc<dyn KvClient>> =
            vec![Arc::new(LocalClient::new(Arc::clone(&store))) as Arc<dyn KvClient>];
        let pool = Arc::new(ServerPool::new(clients, DistributorKind::default()));
        // A one-stripe file: nothing to prefetch, so the only traffic is
        // the miss fetch itself.
        pool.set(&KeySchema::stripe_key("/f", 0), Bytes::from(vec![7u8; 100]))
            .unwrap();
        let r = Arc::new(StripeReader::new(
            "/f".into(),
            StripeLayout::new(100),
            100,
            Arc::clone(&pool),
            4,
            16,
        ));
        let barrier = Arc::new(std::sync::Barrier::new(8));
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let r = Arc::clone(&r);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    barrier.wait();
                    r.stripe(0).unwrap()
                })
            })
            .collect();
        for t in threads {
            assert_eq!(t.join().unwrap().as_ref(), &[7u8; 100][..]);
        }
        // The first miss claims the slot; the other seven wait on it.
        // Before claim-then-fetch, racing misses each went to the network
        // and each pushed an eviction-order entry for the same stripe.
        assert_eq!(
            store.stats().snapshot().get_ops,
            1,
            "concurrent misses must coalesce into one network fetch"
        );
        let (slots, order) = r.cache_counts();
        assert_eq!((slots, order), (1, 1));
    }

    #[test]
    fn cache_never_exceeds_capacity_under_random_ops() {
        let (pool, data) = setup(10_000, 100); // 100 stripes
        for cap in [1usize, 2, 5, 8] {
            let r = StripeReader::new(
                "/f".into(),
                StripeLayout::new(100),
                10_000,
                Arc::clone(&pool),
                4,
                cap,
            );
            // Deterministic xorshift so failures reproduce.
            let mut x = 0x9E37_79B9_7F4A_7C15u64 ^ cap as u64;
            for _ in 0..300 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                if x.is_multiple_of(3) {
                    let s = x % 100;
                    let got = r.stripe(s).unwrap();
                    assert_eq!(got.as_ref(), &data[(s as usize) * 100..][..100]);
                } else {
                    let start = x % 97;
                    let stripes = (1 + (x >> 8) % 4).min(100 - start);
                    let mut buf = vec![0u8; stripes as usize * 100];
                    r.read_at(start * 100, &mut buf).unwrap();
                    assert_eq!(buf, &data[start as usize * 100..][..buf.len()]);
                }
                // `cache_counts` checks the order/slots invariant (order
                // unique, Ready-only, bounded by capacity) on every step;
                // total slots may exceed capacity only by the claims in
                // flight: prefetch reserves at most `cap` unread stripes
                // and a multi-stripe read claims <= 4 more.
                let (slots, order) = r.cache_counts();
                assert!(order <= cap, "order {order} > capacity {cap}");
                assert!(
                    slots <= 2 * cap + 4,
                    "slots {slots} > capacity {cap} + in-flight budget"
                );
            }
            // Quiescent: every claim resolves and eviction brings the
            // cache back within capacity.
            r.settle_pending();
            let (slots, _) = r.cache_counts();
            assert!(slots <= cap, "cache never settled to capacity {cap}");
        }
    }

    #[test]
    fn a_window_one_reader_queued_and_left_serves_another() {
        let (counted, pool) = instrumented_pool(2000, 100);
        let r = Arc::new(reader(&pool, 2000, 100, 8));
        // Thread A reads stripe 0, which queues the window 1..=8, and
        // never reads again.
        let a = Arc::clone(&r);
        std::thread::spawn(move || a.stripe(0).unwrap())
            .join()
            .unwrap();
        // Thread B reads the window's stripes: it settles A's shares
        // itself rather than waiting for anyone to deliver them.
        let (done, served) = std::sync::mpsc::channel();
        let b = Arc::clone(&r);
        std::thread::spawn(move || {
            for s in 1..=8u64 {
                assert_eq!(b.stripe(s).unwrap().as_ref(), &vec![s as u8; 100][..]);
            }
            done.send(()).unwrap();
        });
        served
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("the second reader hung on the first one's window");
        assert_eq!(sync_gets(&counted), 1, "only A's own stripe was fetched");
    }

    #[test]
    fn concurrent_readers_share_reader() {
        let (pool, data) = setup(5000, 100);
        let r = Arc::new(reader(&pool, 5000, 100, 4));
        let data = Arc::new(data);
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let r = Arc::clone(&r);
                let data = Arc::clone(&data);
                std::thread::spawn(move || {
                    for i in 0..50u64 {
                        let s = (t * 13 + i * 7) % 50;
                        let got = r.stripe(s).unwrap();
                        let start = (s as usize) * 100;
                        assert_eq!(got.as_ref(), &data[start..start + 100]);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
    }
}
