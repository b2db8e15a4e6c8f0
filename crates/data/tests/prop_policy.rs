//! Property tests: data-policy delay structure.

use gridsched_data::network::TransferModel;
use gridsched_data::policy::{DataPolicy, DataPolicyKind};
use gridsched_model::ids::{DomainId, NodeId};
use gridsched_model::node::ResourcePool;
use gridsched_model::perf::Perf;
use gridsched_model::volume::Volume;
use gridsched_sim::check::{check, Gen};
use gridsched_sim::time::SimDuration;

fn pool_with(domains: &[u32]) -> ResourcePool {
    let mut pool = ResourcePool::new();
    for &d in domains {
        pool.add_node(DomainId::new(d), Perf::FULL);
    }
    pool
}

fn gen_domains(g: &mut Gen, min: usize, max: usize) -> Vec<u32> {
    g.vec_of(min, max, |g| g.u64_in(0, 3) as u32)
}

fn policies(pool: &ResourcePool) -> Vec<DataPolicy> {
    let storage = pool.nodes().next().expect("non-empty").id();
    vec![
        DataPolicy::active_replication(),
        DataPolicy::remote_access(),
        DataPolicy::static_storage(storage),
    ]
}

/// Delays are always non-negative in span, zero on the same node, and
/// monotone in volume.
#[test]
fn delays_are_sane() {
    check(256, |g| {
        let domains = gen_domains(g, 2, 9);
        let from = NodeId::new(g.usize_in(0, domains.len() - 1) as u32);
        let to = NodeId::new(g.usize_in(0, domains.len() - 1) as u32);
        let v1 = g.f64_in(1.0, 50.0);
        let extra = g.f64_in(0.0, 50.0);
        let pool = pool_with(&domains);
        for policy in policies(&pool) {
            let small = policy.consumer_delay(Volume::new(v1), from, to, &pool);
            let large = policy.consumer_delay(Volume::new(v1 + extra), from, to, &pool);
            assert!(large >= small, "{policy}: delay not monotone in volume");
            let same = policy.consumer_delay(Volume::new(v1), from, from, &pool);
            assert_eq!(same, SimDuration::ZERO, "{policy}: same node not free");
            let zero = policy.consumer_delay(Volume::ZERO, from, to, &pool);
            assert_eq!(zero, SimDuration::ZERO, "{policy}: empty data not free");
        }
    });
}

/// A consumer's delay depends on the producer only through "same node"
/// and the producer's domain: two other producers in one domain cost the
/// consumer the same, under every policy and transfer model.
#[test]
fn delay_depends_on_the_producer_only_through_its_domain() {
    check(256, |g| {
        let domains = gen_domains(g, 2, 9);
        let volume = Volume::new(g.f64_in(0.0, 50.0));
        let model = TransferModel::new(
            g.f64_in(0.5, 10.0),
            g.f64_in(0.5, 10.0),
            SimDuration::from_ticks(g.u64_in(0, 3)),
        );
        let pool = pool_with(&domains);
        for policy in policies(&pool) {
            let policy = policy.with_transfer_model(model.clone());
            for to in pool.nodes() {
                for a in pool.nodes().filter(|a| a.id() != to.id()) {
                    for b in pool
                        .nodes()
                        .filter(|b| b.id() != to.id() && b.domain() == a.domain())
                    {
                        assert_eq!(
                            policy.consumer_delay(volume, a.id(), to.id(), &pool),
                            policy.consumer_delay(volume, b.id(), to.id(), &pool),
                            "{policy}: {} and {} differ towards {}",
                            a.id(),
                            b.id(),
                            to.id()
                        );
                    }
                }
            }
        }
    });
}

/// Replication's consumer delay never exceeds remote access's for the
/// same arc: a local replica is at least as close as the producer.
#[test]
fn replication_dominates_remote_access() {
    check(256, |g| {
        let domains = gen_domains(g, 2, 9);
        let from = NodeId::new(g.usize_in(0, domains.len() - 1) as u32);
        let to = NodeId::new(g.usize_in(0, domains.len() - 1) as u32);
        let volume = g.f64_in(1.0, 50.0);
        let pool = pool_with(&domains);
        let v = Volume::new(volume);
        let repl = DataPolicy::active_replication().consumer_delay(v, from, to, &pool);
        let remote = DataPolicy::remote_access().consumer_delay(v, from, to, &pool);
        assert!(repl <= remote, "replication {repl} > remote {remote}");
    });
}

/// Point-to-point transfer time never beats the triangle through a
/// relay by more than the relay overhead allows: direct <= via-relay.
#[test]
fn transfers_satisfy_triangle_inequality() {
    check(256, |g| {
        let domains = gen_domains(g, 3, 9);
        let a_id = g.usize_in(0, domains.len() - 1) as u32;
        let b_id = g.usize_in(0, domains.len() - 1) as u32;
        let c_id = g.usize_in(0, domains.len() - 1) as u32;
        let volume = g.f64_in(1.0, 50.0);
        let pool = pool_with(&domains);
        let model = TransferModel::default();
        let v = Volume::new(volume);
        let a = pool.node(NodeId::new(a_id));
        let b = pool.node(NodeId::new(b_id));
        let c = pool.node(NodeId::new(c_id));
        let direct = model.point_to_point(v, a, c);
        let relayed = model.point_to_point(v, a, b) + model.point_to_point(v, b, c);
        if a.id() != b.id() && b.id() != c.id() {
            assert!(direct <= relayed, "direct {direct} > relayed {relayed}");
        }
    });
}

/// Network traffic accounting is non-negative and zero for empty data.
#[test]
fn traffic_accounting_is_sane() {
    check(256, |g| {
        let domains = gen_domains(g, 2, 9);
        let from = NodeId::new(g.usize_in(0, domains.len() - 1) as u32);
        let to = NodeId::new(g.usize_in(0, domains.len() - 1) as u32);
        let volume = g.f64_in(1.0, 50.0);
        let pool = pool_with(&domains);
        for policy in policies(&pool) {
            let t = policy.network_traffic(Volume::new(volume), from, to, &pool);
            assert!(t.units() >= 0.0);
            let z = policy.network_traffic(Volume::ZERO, from, to, &pool);
            assert!(z.is_zero());
        }
    });
}

/// `consumer_delay` as one float computation per call: the body
/// `DataPolicy::consumer_delay` had before the arc's transfer times were
/// split out (`arc_times`, then the integer-only `delay_from`). Kept as
/// the reference the split must agree with.
fn reference_delay(
    policy: &DataPolicy,
    volume: Volume,
    from: NodeId,
    to: NodeId,
    pool: &ResourcePool,
) -> SimDuration {
    if from == to || volume.is_zero() {
        return SimDuration::ZERO;
    }
    let model = policy.transfer_model();
    match policy.kind() {
        DataPolicyKind::ActiveReplication => {
            let read = model.intra_domain_time(volume);
            if pool.node(from).domain() == pool.node(to).domain() {
                read
            } else {
                read + model.inter_latency()
            }
        }
        DataPolicyKind::RemoteAccess => {
            model.point_to_point(volume, pool.node(from), pool.node(to))
        }
        DataPolicyKind::StaticStorage => {
            let storage = policy.storage_node().expect("static storage has a node");
            let read = model.point_to_point(volume, pool.node(storage), pool.node(to));
            if pool.node(from).domain() == pool.node(storage).domain() {
                read
            } else {
                read + model.inter_latency()
            }
        }
    }
}

/// `delay_from(arc_times(v), ..)` (and so `consumer_delay`) equals the
/// per-call float reference for every ordered node pair: all three policy
/// kinds, any storage node (the storage node as consumer included), zero
/// and non-zero volumes, same-domain and cross-domain pairs, random
/// transfer models.
#[test]
fn split_delay_matches_the_float_reference() {
    check(256, |g| {
        // Two fixed domains guarantee both same- and cross-domain pairs.
        let mut domains = vec![0, 0, 1];
        domains.extend(gen_domains(g, 0, 6));
        let pool = pool_with(&domains);
        let volume = if g.chance(0.2) {
            Volume::ZERO
        } else {
            Volume::new(g.f64_in(0.0, 50.0))
        };
        let model = TransferModel::new(
            g.f64_in(0.5, 10.0),
            g.f64_in(0.5, 10.0),
            SimDuration::from_ticks(g.u64_in(0, 3)),
        );
        let storage = NodeId::new(g.usize_in(0, domains.len() - 1) as u32);
        for policy in [
            DataPolicy::active_replication(),
            DataPolicy::remote_access(),
            DataPolicy::static_storage(storage),
        ] {
            let policy = policy.with_transfer_model(model.clone());
            let arc = policy.arc_times(volume);
            for from in pool.nodes() {
                for to in pool.nodes() {
                    let expected = reference_delay(&policy, volume, from.id(), to.id(), &pool);
                    assert_eq!(
                        policy.delay_from(arc, from.id(), to.id(), &pool),
                        expected,
                        "{policy}: {volume:?} from {} to {}",
                        from.id(),
                        to.id()
                    );
                    assert_eq!(
                        policy.consumer_delay(volume, from.id(), to.id(), &pool),
                        expected
                    );
                }
            }
        }
    });
}
