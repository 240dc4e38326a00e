//! Property-based tests (proptest) on the core invariants:
//!
//! * read-equals-write through the real engine for arbitrary sizes,
//!   stripe sizes and read offsets, and for arbitrary `read_at` sequences
//!   on one handle (whole-stripe, ranged and cache-served spans mixed);
//! * stripe layout covers ranges exactly, with no gaps or overlaps;
//! * directory-log folding agrees with a reference model under arbitrary
//!   add/remove interleavings;
//! * max-min fairness: feasibility and maximality on random instances;
//! * hash distributors are total and consistent-hash remapping is
//!   bounded;
//! * elastic membership: random grow/shrink sequences move exactly the
//!   keys whose home set changed, and the post-plan placement equals a
//!   fresh ring built over the final member set.

use std::collections::BTreeSet;
use std::sync::Arc;

use memfs::hashring::{Distributor, KetamaRing, ModuloRing, ServerId};
use memfs::memfs_core::layout::StripeLayout;
use memfs::memfs_core::meta::{encode_add, encode_remove, fold_dir_log, ChildKind};
use memfs::memfs_core::{repair_pass, DistributorKind, MemFs, MemFsConfig, ServerPool};
use memfs::memkv::{KvClient, SimClient, Store, StoreConfig};
use memfs::netsim::maxmin::maxmin_rates;
use proptest::prelude::*;

/// Virtual points per server for the membership property — small enough
/// to keep ring rebuilds cheap across proptest cases.
const MEMBER_POINTS: usize = 32;

fn mount(n: usize, stripe: usize) -> MemFs {
    let clients: Vec<Arc<dyn KvClient>> = (0..n)
        .map(|_| {
            Arc::new(SimClient::new(Arc::new(Store::new(StoreConfig::default()))))
                as Arc<dyn KvClient>
        })
        .collect();
    MemFs::new(
        clients,
        MemFsConfig {
            stripe_size: stripe,
            write_buffer_size: stripe * 4,
            read_cache_size: stripe * 4,
            prefetch_window: 2,
            ..MemFsConfig::default()
        },
    )
    .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn read_equals_write(
        len in 0usize..50_000,
        stripe in 512usize..8192,
        seed in any::<u64>(),
    ) {
        let data: Vec<u8> = (0..len).map(|i| (seed.wrapping_add(i as u64) % 251) as u8).collect();
        let fs = mount(3, stripe);
        fs.write_file("/p", &data).unwrap();
        prop_assert_eq!(fs.read_to_vec("/p").unwrap(), data);
    }

    #[test]
    fn random_offset_reads_match(
        len in 1usize..30_000,
        offset in 0usize..40_000,
        read_len in 1usize..5_000,
    ) {
        let data: Vec<u8> = (0..len).map(|i| (i % 241) as u8).collect();
        let fs = mount(2, 1024);
        fs.write_file("/p", &data).unwrap();
        let r = fs.open("/p").unwrap();
        let mut buf = vec![0u8; read_len];
        let n = r.read_at(offset as u64, &mut buf).unwrap();
        let expected: &[u8] = if offset >= len {
            &[]
        } else {
            &data[offset..(offset + read_len).min(len)]
        };
        prop_assert_eq!(&buf[..n], expected);
    }

    #[test]
    fn read_at_sequences_match_the_model(
        stripe_idx in 0usize..3,
        stripes_x16 in 1usize..160,
        reads in proptest::collection::vec((0u8..4, 0u32..1_000_000, 1u32..3_000_000), 1..40),
    ) {
        // One handle, many reads: which path a span takes (cached whole
        // stripe + window, ranged piece, cache copy) depends on the reads
        // before it, and every path must return the model's bytes.
        let stripe = [100usize, 4096, 65_536][stripe_idx];
        let len = stripe * stripes_x16 / 16;
        let data: Vec<u8> = (0..len).map(|i| (i * 31 % 251) as u8).collect();
        let fs = mount(3, stripe);
        fs.write_file("/p", &data).unwrap();
        let r = fs.open("/p").unwrap();
        let mut end = 0usize;
        for (mode, at, span) in reads {
            let offset = match mode {
                0 => 0,
                1 => end, // continue where the last read stopped
                _ => at as usize * len / 1_000_000,
            };
            // Up to three stripes, so reads mix partial and whole spans.
            let mut buf = vec![0u8; 1 + span as usize * stripe / 1_000_000];
            let n = r.read_at(offset as u64, &mut buf).unwrap();
            let expected = &data[offset.min(len)..(offset + buf.len()).min(len)];
            prop_assert_eq!(&buf[..n], expected, "read {}+{}", offset, buf.len());
            end = offset + n;
        }
    }

    #[test]
    fn layout_spans_partition_the_range(
        stripe in 1usize..10_000,
        file_size in 0u64..1_000_000,
        offset in 0u64..1_200_000,
        len in 0usize..100_000,
    ) {
        let layout = StripeLayout::new(stripe);
        let spans = layout.spans(file_size, offset, len);
        // Contiguity and coverage.
        let mut pos = offset.min(file_size.min(offset + len as u64));
        let clamped_end = (offset + len as u64).min(file_size);
        let mut covered = 0usize;
        for s in &spans {
            let abs = s.stripe * stripe as u64 + s.offset_in_stripe as u64;
            prop_assert_eq!(abs, pos, "gap or overlap");
            prop_assert!(s.len > 0 && s.len <= stripe);
            prop_assert!(s.offset_in_stripe < stripe);
            pos += s.len as u64;
            covered += s.len;
        }
        let expected = clamped_end.saturating_sub(offset) as usize;
        prop_assert_eq!(covered, expected);
    }

    #[test]
    fn dir_log_folding_matches_model(ops in proptest::collection::vec((0u8..3, 0u8..8), 0..60)) {
        use std::collections::BTreeMap;
        let mut log = Vec::new();
        let mut model: BTreeMap<String, ChildKind> = BTreeMap::new();
        for (op, name_idx) in ops {
            let name = format!("f{name_idx}");
            match op {
                0 => {
                    log.extend(encode_add(&name, ChildKind::File));
                    model.insert(name, ChildKind::File);
                }
                1 => {
                    log.extend(encode_add(&name, ChildKind::Dir));
                    model.insert(name, ChildKind::Dir);
                }
                _ => {
                    log.extend(encode_remove(&name));
                    model.remove(&name);
                }
            }
        }
        let folded = fold_dir_log(&log, "/d").unwrap();
        let expected: Vec<(String, ChildKind)> = model.into_iter().collect();
        prop_assert_eq!(folded, expected);
    }

    #[test]
    fn maxmin_is_feasible_and_maximal(
        caps in proptest::collection::vec(1.0f64..1000.0, 1..6),
        routes in proptest::collection::vec(
            proptest::collection::btree_set(0usize..6, 1..4),
            1..10,
        ),
    ) {
        let nc = caps.len();
        let flows: Vec<Vec<usize>> = routes
            .iter()
            .map(|r| r.iter().map(|&c| c % nc).collect::<Vec<_>>())
            .map(|mut r| {
                r.sort_unstable();
                r.dedup();
                r
            })
            .collect();
        let rates = maxmin_rates(&caps, &flows);
        let mut used = vec![0.0f64; nc];
        for (f, route) in flows.iter().enumerate() {
            prop_assert!(rates[f] >= 0.0);
            for &c in route {
                used[c] += rates[f];
            }
        }
        for c in 0..nc {
            prop_assert!(used[c] <= caps[c] * (1.0 + 1e-6), "oversubscribed {c}");
        }
        for (f, route) in flows.iter().enumerate() {
            let saturated = route.iter().any(|&c| used[c] >= caps[c] * (1.0 - 1e-6));
            prop_assert!(saturated, "flow {f} could still grow");
        }
    }

    #[test]
    fn distributors_are_total_and_stable(
        keys in proptest::collection::vec("[a-z0-9/._-]{1,40}", 1..50),
        n_servers in 1usize..32,
    ) {
        let modulo = ModuloRing::new(n_servers);
        let ketama = KetamaRing::with_n_servers(n_servers, 32);
        for k in &keys {
            let m1 = modulo.server_for(k.as_bytes());
            let m2 = modulo.server_for(k.as_bytes());
            prop_assert_eq!(m1, m2);
            prop_assert!(m1.0 < n_servers);
            let k1 = ketama.server_for(k.as_bytes());
            prop_assert!(k1.0 < n_servers);
            prop_assert_eq!(k1, ketama.server_for(k.as_bytes()));
        }
    }

    #[test]
    fn ketama_remap_is_bounded(n in 4usize..24) {
        let before = KetamaRing::with_n_servers(n, 160);
        let after = KetamaRing::with_n_servers(n + 1, 160);
        let keys: Vec<String> = (0..800).map(|i| format!("s:/wf/file{i}#0")).collect();
        let moved = keys
            .iter()
            .filter(|k| before.server_for(k.as_bytes()) != after.server_for(k.as_bytes()))
            .count();
        // Ideal is 1/(n+1); allow 3x slack for virtual-point variance.
        let bound = (keys.len() * 3) / (n + 1) + 40;
        prop_assert!(moved <= bound, "moved {moved} of {} (bound {bound})", keys.len());
    }

    #[test]
    fn membership_plans_move_exactly_the_remapped_keys(
        n0 in 2usize..5,
        r in 1usize..3,
        key_ids in proptest::collection::btree_set(0u32..1000, 8..40),
        steps in proptest::collection::vec(any::<bool>(), 1..4),
    ) {
        // Backing stores for the initial members plus one per potential
        // grow step; retired slots never come back, so ids only grow.
        let max_servers = n0 + steps.len();
        let stores: Vec<Arc<Store>> = (0..max_servers)
            .map(|_| Arc::new(Store::new(StoreConfig::default())))
            .collect();
        let local = |s: &Arc<Store>| -> Arc<dyn KvClient> {
            Arc::new(SimClient::new(Arc::clone(s))) as Arc<dyn KvClient>
        };
        let pool = ServerPool::with_replication(
            stores[..n0].iter().map(local).collect(),
            DistributorKind::Ketama {
                points_per_server: MEMBER_POINTS,
            },
            r,
        );
        let keys: Vec<Vec<u8>> = key_ids
            .iter()
            .map(|i| format!("s:/prop/f{i}#0").into_bytes())
            .collect();
        for key in &keys {
            pool.set(key, bytes::Bytes::from_static(b"payload")).unwrap();
        }

        let mut members: Vec<usize> = (0..n0).collect();
        let mut next_slot = n0;
        for grow in steps {
            let old_members = members.clone();
            if grow {
                let ids = pool
                    .begin_add_servers(vec![local(&stores[next_slot])])
                    .unwrap();
                prop_assert_eq!(ids, vec![ServerId(next_slot)]);
                members.push(next_slot);
                next_slot += 1;
            } else {
                if members.len() <= r {
                    // A shrink below the replica count is refused; skip.
                    continue;
                }
                let leaving = *members.last().unwrap();
                pool.begin_remove_server(ServerId(leaving)).unwrap();
                members.pop();
            }

            // Exactness: the plan moves a key iff its new home set has a
            // member that did not already hold a copy under the old ring.
            let old_ring = KetamaRing::with_members(&old_members, MEMBER_POINTS);
            let new_ring = KetamaRing::with_members(&members, MEMBER_POINTS);
            let expected_moves = keys
                .iter()
                .filter(|k| {
                    let old: BTreeSet<usize> = old_ring
                        .replicas_for(k.as_slice(), r)
                        .into_iter()
                        .map(|id| id.0)
                        .collect();
                    new_ring
                        .replicas_for(k.as_slice(), r)
                        .into_iter()
                        .any(|id| !old.contains(&id.0))
                })
                .count();

            let mut moved = 0usize;
            let mut complete = false;
            for _ in 0..70 {
                let rep = repair_pass(&pool).unwrap();
                moved += rep.under_replicated;
                prop_assert_eq!(rep.unrepairable, 0);
                if rep.complete {
                    complete = true;
                    break;
                }
            }
            prop_assert!(complete, "migration never completed");
            prop_assert_eq!(
                moved, expected_moves,
                "a plan must move exactly the keys whose home set changed"
            );
        }

        // Post-plan placement equals a fresh ring built over the final
        // member set: every key on exactly its home replicas (so retired
        // slots are fully drained), values intact.
        let fresh = KetamaRing::with_members(&members, MEMBER_POINTS);
        for key in &keys {
            let homes: BTreeSet<usize> = fresh
                .replicas_for(key, r)
                .into_iter()
                .map(|id| id.0)
                .collect();
            for (s, store) in stores.iter().enumerate() {
                prop_assert_eq!(
                    store.contains(key),
                    homes.contains(&s),
                    "key {} misplaced on server {s}",
                    String::from_utf8_lossy(key)
                );
            }
            let value = pool.get(key).unwrap();
            prop_assert_eq!(value.as_ref(), b"payload");
        }
    }
}
