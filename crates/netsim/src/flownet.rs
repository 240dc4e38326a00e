//! The dynamic flow engine: active transfers draining at max-min fair
//! rates, recomputed at every arrival and departure.
//!
//! [`FlowNet`] is driven from an outer event loop (the workflow engine in
//! `memfs-mtc`): start flows, ask for the next interesting time, advance to
//! it, collect completions. Between membership changes all rates are
//! constant, so only arrival/activation/departure instants need events.

use std::collections::{BTreeMap, HashMap};

use memfs_simcore::{SimDuration, SimTime};

use crate::fabric::{Fabric, NodeId};
use crate::maxmin::maxmin_rates_grouped;

/// Identifier of a transfer managed by [`FlowNet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowId(pub u64);

/// What happened when the engine advanced to an event time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowEvent {
    /// The transfer delivered its last byte and left the network.
    Completed(FlowId),
    /// The transfer finished its latency phase and started draining
    /// (surfaced for tracing; most callers only act on `Completed`).
    Activated(FlowId),
}

#[derive(Debug, Clone, Copy)]
enum Phase {
    /// Waiting out the network latency before bytes move.
    Pending { activate_at: SimTime },
    /// Draining at `rate` bytes/s.
    Active { rate: f64 },
}

#[derive(Debug)]
struct Flow {
    /// The capacity constraints this transfer traverses.
    route: Vec<usize>,
    remaining: f64,
    phase: Phase,
}

/// The flow engine over a [`Fabric`].
///
/// ```
/// use memfs_netsim::{Fabric, FlowNet, NodeId, FlowEvent};
/// use memfs_simcore::{SimDuration, SimTime};
///
/// let fabric = Fabric::new(2, 100.0, 10_000.0); // 100 B/s NICs
/// let mut net = FlowNet::new(fabric, SimDuration::ZERO);
/// let id = net.start_flow(SimTime::ZERO, NodeId(0), NodeId(1), 200);
/// let done_at = net.next_event().unwrap();
/// assert_eq!(done_at.as_secs_f64(), 2.0); // 200 B at 100 B/s
/// assert_eq!(net.advance_to(done_at), vec![FlowEvent::Completed(id)]);
/// ```
pub struct FlowNet {
    fabric: Fabric,
    latency: SimDuration,
    flows: BTreeMap<FlowId, Flow>,
    next_id: u64,
    last_update: SimTime,
    delivered: f64,
}

impl FlowNet {
    /// Create an engine over `fabric` where every transfer pays `latency`
    /// before its first byte moves (one round trip of the profile).
    pub fn new(fabric: Fabric, latency: SimDuration) -> Self {
        FlowNet {
            fabric,
            latency,
            flows: BTreeMap::new(),
            next_id: 0,
            last_update: SimTime::ZERO,
            delivered: 0.0,
        }
    }

    /// The fabric this engine runs over.
    pub fn fabric(&self) -> &Fabric {
        &self.fabric
    }

    /// Number of flows currently pending or active.
    pub fn in_flight(&self) -> usize {
        self.flows.len()
    }

    /// Total bytes delivered so far across all transfers.
    pub fn delivered_bytes(&self) -> f64 {
        self.delivered
    }

    /// Current virtual time of the engine's internal accounting.
    pub fn now(&self) -> SimTime {
        self.last_update
    }

    /// Start a transfer of `bytes` from `src` to `dst` at time `now`.
    ///
    /// Zero-byte transfers are legal and complete right after the latency
    /// phase; they model pure control messages (e.g. metadata lookups).
    pub fn start_flow(&mut self, now: SimTime, src: NodeId, dst: NodeId, bytes: u64) -> FlowId {
        let route = self.fabric.route(src, dst);
        self.start_flow_route(now, route, bytes)
    }

    /// Start a striped read of `bytes` landing on `dst` (sources spread
    /// symmetrically over all servers — the MemFS read pattern).
    pub fn start_striped_read(&mut self, now: SimTime, dst: NodeId, bytes: u64) -> FlowId {
        let route = self.fabric.route_striped_read(dst);
        self.start_flow_route(now, route, bytes)
    }

    /// Start a transfer over an explicit constraint route (advanced; the
    /// workflow engine uses this for aggregated transfers).
    ///
    /// # Panics
    /// Panics on an empty route or unknown constraint ids.
    pub fn start_flow_route(&mut self, now: SimTime, route: Vec<usize>, bytes: u64) -> FlowId {
        assert!(!route.is_empty(), "flow needs at least one constraint");
        let n_constraints = self.fabric.capacities().len();
        assert!(
            route.iter().all(|&c| c < n_constraints),
            "route references unknown constraint"
        );
        self.serve_until(now);
        let id = FlowId(self.next_id);
        self.next_id += 1;
        let phase = if self.latency == SimDuration::ZERO {
            Phase::Active { rate: 0.0 }
        } else {
            Phase::Pending {
                activate_at: now + self.latency,
            }
        };
        self.flows.insert(
            id,
            Flow {
                route,
                remaining: bytes as f64,
                phase,
            },
        );
        self.recompute_rates();
        id
    }

    /// Cancel a transfer, returning its undelivered bytes, or `None` if it
    /// already completed or never existed.
    pub fn cancel(&mut self, now: SimTime, id: FlowId) -> Option<f64> {
        self.serve_until(now);
        let flow = self.flows.remove(&id)?;
        self.recompute_rates();
        Some(flow.remaining)
    }

    /// The next instant at which something happens (an activation or a
    /// completion), or `None` when nothing is in flight.
    pub fn next_event(&self) -> Option<SimTime> {
        let mut next = SimTime::MAX;
        for flow in self.flows.values() {
            let t = match flow.phase {
                Phase::Pending { activate_at } => activate_at,
                Phase::Active { rate } => {
                    if flow.remaining <= 0.0 {
                        self.last_update
                    } else if rate > 0.0 {
                        self.last_update
                            .saturating_add(SimDuration::from_secs_f64(flow.remaining / rate))
                    } else {
                        continue; // transiently rate-less; cannot finish
                    }
                }
            };
            next = next.min(t);
        }
        (next != SimTime::MAX).then_some(next)
    }

    /// Advance the engine to `now`: serve bytes, activate flows whose
    /// latency elapsed, and return completions/activations in deterministic
    /// [`FlowId`] order (completions of a given id before activations of a
    /// later one, matching id order overall).
    ///
    /// # Panics
    /// Panics if `now` precedes the engine's current time.
    pub fn advance_to(&mut self, now: SimTime) -> Vec<FlowEvent> {
        self.serve_until(now);
        let mut events = Vec::new();

        // Completions: active flows fully served.
        let done: Vec<FlowId> = self
            .flows
            .iter()
            .filter(|(_, f)| matches!(f.phase, Phase::Active { .. }) && f.remaining <= 1e-6)
            .map(|(&id, _)| id)
            .collect();

        // Activations: pending flows whose latency elapsed.
        let due: Vec<FlowId> = self
            .flows
            .iter()
            .filter(
                |(_, f)| matches!(f.phase, Phase::Pending { activate_at } if activate_at <= now),
            )
            .map(|(&id, _)| id)
            .collect();

        let membership_changed = !done.is_empty() || !due.is_empty();
        for id in done {
            self.flows.remove(&id);
            events.push(FlowEvent::Completed(id));
        }
        for id in due {
            let flow = self.flows.get_mut(&id).expect("pending flow exists");
            flow.phase = Phase::Active { rate: 0.0 };
            events.push(FlowEvent::Activated(id));
            // A zero-byte control message is complete the moment it
            // activates.
            if flow.remaining <= 1e-6 {
                self.flows.remove(&id);
                events.push(FlowEvent::Completed(id));
            }
        }
        if membership_changed {
            self.recompute_rates();
        }
        events.sort_unstable_by_key(|e| match e {
            FlowEvent::Completed(id) | FlowEvent::Activated(id) => *id,
        });
        events
    }

    /// Drive the engine until nothing is in flight, returning completions
    /// in order with their completion times. Convenience for benchmarks
    /// that only need total transfer times.
    pub fn run_to_idle(&mut self) -> Vec<(SimTime, FlowId)> {
        let mut out = Vec::new();
        while let Some(t) = self.next_event() {
            for ev in self.advance_to(t) {
                if let FlowEvent::Completed(id) = ev {
                    out.push((t, id));
                }
            }
        }
        out
    }

    /// Instantaneous rate of a flow in bytes/s (0 while pending), or `None`
    /// if unknown/completed.
    pub fn flow_rate(&self, id: FlowId) -> Option<f64> {
        self.flows.get(&id).map(|f| match f.phase {
            Phase::Pending { .. } => 0.0,
            Phase::Active { rate } => rate,
        })
    }

    /// Serve bytes between `last_update` and `now` at current rates.
    fn serve_until(&mut self, now: SimTime) {
        assert!(
            now >= self.last_update,
            "FlowNet: time went backwards ({now} < {})",
            self.last_update
        );
        if now == self.last_update {
            return;
        }
        let dt = now.duration_since(self.last_update).as_secs_f64();
        self.last_update = now;
        for flow in self.flows.values_mut() {
            if let Phase::Active { rate } = flow.phase {
                let served = (rate * dt).min(flow.remaining);
                flow.remaining -= served;
                self.delivered += served;
            }
        }
    }

    /// Re-run the max-min solver over the currently *active* flows.
    ///
    /// Flows sharing a route receive identical max-min rates, so the
    /// solve is performed per route *group* — O(groups²) instead of
    /// O(flows²), which is what makes 1000-task workflow simulations
    /// tractable (a 64-node striped workload has ≤ ~3 routes per node).
    fn recompute_rates(&mut self) {
        let caps = self.fabric.capacities();
        let mut group_index: HashMap<&[usize], usize> = HashMap::new();
        let mut groups: Vec<(Vec<usize>, u64)> = Vec::new();
        let mut members: Vec<Vec<FlowId>> = Vec::new();
        for (&id, flow) in &self.flows {
            if matches!(flow.phase, Phase::Active { .. }) && flow.remaining > 1e-6 {
                match group_index.get(flow.route.as_slice()) {
                    Some(&g) => {
                        groups[g].1 += 1;
                        members[g].push(id);
                    }
                    None => {
                        group_index.insert(flow.route.as_slice(), groups.len());
                        groups.push((flow.route.clone(), 1));
                        members.push(vec![id]);
                    }
                }
            }
        }
        drop(group_index);
        let rates = maxmin_rates_grouped(&caps, &groups);
        for (g, rate) in rates.into_iter().enumerate() {
            for &id in &members[g] {
                if let Some(flow) = self.flows.get_mut(&id) {
                    flow.phase = Phase::Active { rate };
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net(nodes: usize, nic: f64) -> FlowNet {
        FlowNet::new(Fabric::new(nodes, nic, nic * 10.0), SimDuration::ZERO)
    }

    fn secs(t: SimTime) -> f64 {
        t.as_secs_f64()
    }

    #[test]
    fn single_flow_runs_at_nic_speed() {
        let mut n = net(2, 100.0);
        n.start_flow(SimTime::ZERO, NodeId(0), NodeId(1), 500);
        assert!((secs(n.next_event().unwrap()) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn two_flows_from_same_source_share_egress() {
        let mut n = net(3, 100.0);
        n.start_flow(SimTime::ZERO, NodeId(0), NodeId(1), 100);
        n.start_flow(SimTime::ZERO, NodeId(0), NodeId(2), 100);
        // Each gets 50 B/s; both done at 2 s.
        let t = n.next_event().unwrap();
        assert!((secs(t) - 2.0).abs() < 1e-9);
        assert_eq!(n.advance_to(t).len(), 2);
        assert_eq!(n.in_flight(), 0);
    }

    #[test]
    fn disjoint_pairs_use_full_bisection() {
        // 4 nodes, 2 disjoint transfers: both at full NIC speed — the
        // "premium network" property MemFS exploits.
        let mut n = net(4, 100.0);
        n.start_flow(SimTime::ZERO, NodeId(0), NodeId(1), 100);
        n.start_flow(SimTime::ZERO, NodeId(2), NodeId(3), 100);
        assert!((secs(n.next_event().unwrap()) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn incast_bottlenecks_on_ingress() {
        // 4 senders to node 0: the paper's global-aggregation pattern.
        let mut n = net(5, 100.0);
        for s in 1..5 {
            n.start_flow(SimTime::ZERO, NodeId(s), NodeId(0), 100);
        }
        // Ingress 100 B/s shared 4 ways -> 25 B/s each -> 4 s.
        assert!((secs(n.next_event().unwrap()) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn local_flow_uses_memory_bandwidth() {
        let mut n = net(2, 100.0); // mem bw = 1000
        n.start_flow(SimTime::ZERO, NodeId(0), NodeId(0), 1000);
        assert!((secs(n.next_event().unwrap()) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn completion_releases_bandwidth_to_survivors() {
        let mut n = net(3, 100.0);
        let short = n.start_flow(SimTime::ZERO, NodeId(0), NodeId(1), 50);
        let long = n.start_flow(SimTime::ZERO, NodeId(0), NodeId(2), 150);
        // Shared egress 50/50: short done at t=1 with long having 100 left.
        let t1 = n.next_event().unwrap();
        assert!((secs(t1) - 1.0).abs() < 1e-9);
        assert_eq!(n.advance_to(t1), vec![FlowEvent::Completed(short)]);
        // Long now alone at 100 B/s: finishes at t=2.
        let t2 = n.next_event().unwrap();
        assert!((secs(t2) - 2.0).abs() < 1e-9);
        assert_eq!(n.advance_to(t2), vec![FlowEvent::Completed(long)]);
    }

    #[test]
    fn latency_delays_first_byte() {
        let fabric = Fabric::new(2, 100.0, 1000.0);
        let mut n = FlowNet::new(fabric, SimDuration::from_millis(10));
        let id = n.start_flow(SimTime::ZERO, NodeId(0), NodeId(1), 100);
        // Activation at 10 ms.
        let t = n.next_event().unwrap();
        assert_eq!(t, SimTime::from_nanos(10_000_000));
        assert_eq!(n.advance_to(t), vec![FlowEvent::Activated(id)]);
        // Then 1 s of transfer.
        let t = n.next_event().unwrap();
        assert!((secs(t) - 1.010).abs() < 1e-9);
    }

    #[test]
    fn zero_byte_flow_is_latency_only() {
        let fabric = Fabric::new(2, 100.0, 1000.0);
        let mut n = FlowNet::new(fabric, SimDuration::from_micros(50));
        let id = n.start_flow(SimTime::ZERO, NodeId(0), NodeId(1), 0);
        let t = n.next_event().unwrap();
        assert_eq!(t, SimTime::from_nanos(50_000));
        let evs = n.advance_to(t);
        assert!(evs.contains(&FlowEvent::Completed(id)));
        assert_eq!(n.in_flight(), 0);
    }

    #[test]
    fn cancel_returns_remaining_bytes() {
        let mut n = net(2, 100.0);
        let id = n.start_flow(SimTime::ZERO, NodeId(0), NodeId(1), 1000);
        let left = n.cancel(SimTime::from_nanos(2_000_000_000), id).unwrap();
        assert!((left - 800.0).abs() < 1e-6);
        assert!(n.cancel(SimTime::from_nanos(2_000_000_000), id).is_none());
    }

    #[test]
    fn run_to_idle_reports_all_completions_in_order() {
        let mut n = net(4, 100.0);
        n.start_flow(SimTime::ZERO, NodeId(0), NodeId(1), 100);
        n.start_flow(SimTime::ZERO, NodeId(2), NodeId(3), 300);
        let done = n.run_to_idle();
        assert_eq!(done.len(), 2);
        assert!(done[0].0 <= done[1].0);
        assert!((n.delivered_bytes() - 400.0).abs() < 1e-6);
    }

    #[test]
    fn late_arrival_rebalances_rates() {
        let mut n = net(3, 100.0);
        let a = n.start_flow(SimTime::ZERO, NodeId(0), NodeId(1), 200);
        assert!((n.flow_rate(a).unwrap() - 100.0).abs() < 1e-6);
        let b = n.start_flow(SimTime::from_nanos(1_000_000_000), NodeId(0), NodeId(2), 50);
        assert!((n.flow_rate(a).unwrap() - 50.0).abs() < 1e-6);
        assert!((n.flow_rate(b).unwrap() - 50.0).abs() < 1e-6);
        // A had 100 left at t=1; b finishes at t=2; a at t=2.5.
        let done = n.run_to_idle();
        assert_eq!(done[0].1, b);
        assert!((secs(done[1].0) - 2.5).abs() < 1e-9);
    }

    #[test]
    fn striped_read_beats_single_source() {
        // MemFS vs AMFS in miniature: reading 400 B striped over 4 servers
        // uses 4 egress links in parallel; from one server it is limited to
        // one link. Ingress (100 B/s) becomes MemFS' bound: 4 x 100-byte
        // flows share the reader's ingress at 25 each -> 4 s? No: aggregate
        // ingress is 100 B/s for 400 B -> 4 s; single source: same 4 s for
        // one reader! The win appears with multiple readers:
        let mut n = net(6, 100.0);
        // Two readers (nodes 4, 5) each read 200 B striped over servers 0-3.
        for reader in [4usize, 5] {
            for server in 0..4 {
                n.start_flow(SimTime::ZERO, NodeId(server), NodeId(reader), 50);
            }
        }
        // Each reader ingress: 100 B/s over 200 B -> 2 s total.
        let done = n.run_to_idle();
        assert!((secs(done.last().unwrap().0) - 2.0).abs() < 1e-9);

        // Same aggregate from a single source: its egress serializes both
        // readers -> 4 s.
        let mut n = net(6, 100.0);
        for reader in [4usize, 5] {
            n.start_flow(SimTime::ZERO, NodeId(0), NodeId(reader), 200);
        }
        let done = n.run_to_idle();
        assert!((secs(done.last().unwrap().0) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn striped_reads_use_only_reader_ingress_until_aggregate_binds() {
        // 4 nodes, NIC 100: aggregate capacity 400. Two striped readers
        // run at full ingress speed each (200 total < 400).
        let fabric = Fabric::new(4, 100.0, 1000.0).with_aggregate_capacity();
        let mut n = FlowNet::new(fabric, SimDuration::ZERO);
        n.start_striped_read(SimTime::ZERO, NodeId(0), 100);
        n.start_striped_read(SimTime::ZERO, NodeId(1), 100);
        assert!((secs(n.next_event().unwrap()) - 1.0).abs() < 1e-9);

        // With all 4 nodes reading AND writing striped, demand is 800 on
        // an aggregate of 400: everyone halves.
        let fabric = Fabric::new(4, 100.0, 1000.0).with_aggregate_capacity();
        let mut n = FlowNet::new(fabric, SimDuration::ZERO);
        for i in 0..4 {
            n.start_striped_read(SimTime::ZERO, NodeId(i), 100);
            let write = n.fabric().route_striped_write(NodeId(i));
            n.start_flow_route(SimTime::ZERO, write, 100);
        }
        assert!((secs(n.next_event().unwrap()) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn explicit_route_flow_works() {
        let fabric = Fabric::new(2, 100.0, 1000.0);
        let route = fabric.route(NodeId(0), NodeId(1));
        let mut n = FlowNet::new(fabric, SimDuration::ZERO);
        n.start_flow_route(SimTime::ZERO, route, 300);
        assert!((secs(n.next_event().unwrap()) - 3.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "with_aggregate_capacity")]
    fn striped_route_requires_aggregate() {
        let fabric = Fabric::new(2, 100.0, 1000.0);
        fabric.route_striped_read(NodeId(0));
    }

    #[test]
    #[should_panic(expected = "unknown constraint")]
    fn bogus_route_panics() {
        let fabric = Fabric::new(2, 100.0, 1000.0);
        let mut n = FlowNet::new(fabric, SimDuration::ZERO);
        n.start_flow_route(SimTime::ZERO, vec![99], 10);
    }

    #[test]
    #[should_panic(expected = "time went backwards")]
    fn backwards_time_panics() {
        let mut n = net(2, 100.0);
        n.start_flow(SimTime::from_nanos(100), NodeId(0), NodeId(1), 10);
        n.advance_to(SimTime::from_nanos(50));
    }
}
