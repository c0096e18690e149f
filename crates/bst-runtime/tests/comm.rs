//! Transport-layer tests: credit backpressure, duplicate suppression, and
//! seeded delivery reordering on the [`bst_runtime::comm`] fabric.

use bst_runtime::comm::{CommConfig, CommFabric, DeliveryPolicy, LinkShaper, TileMsg};
use bst_runtime::data::DataKey;
use bst_runtime::trace::{TraceClock, TracePhase};
use bst_runtime::TileStore;
use bst_tile::Tile;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn msg(i: u32, epoch: u32, src: usize) -> TileMsg {
    TileMsg {
        key: DataKey::A(i, 0),
        payload: Arc::new(Tile::zeros(4, 4)),
        epoch,
        src,
        consumers: 1,
    }
}

/// The credit gate is the §"flow control" window: however many messages the
/// sender fires, at most `window` are simultaneously in flight toward one
/// node — the bounded inbox can never exceed it.
#[test]
fn backpressure_never_exceeds_credit_window() {
    let window = 4;
    let fabric = CommFabric::new(
        2,
        CommConfig {
            window,
            // Slow deliveries so the in-flight count actually saturates.
            shaper: LinkShaper::nic(1e9, 200e-6),
            ..CommConfig::default()
        },
    );
    let stores = [TileStore::for_node(0), TileStore::for_node(1)];
    std::thread::scope(|s| {
        fabric.start(s, &stores);
        for i in 0..32 {
            fabric.send_tile(1, msg(i, 1, 0), false).unwrap();
        }
        for i in 0..32 {
            fabric.wait_delivered(1, DataKey::A(i, 0));
        }
        fabric.shutdown();
    });
    let stats = fabric.node_stats();
    assert_eq!(stats[0].sent_msgs, 32);
    assert_eq!(stats[1].recv_msgs, 32);
    assert_eq!(stats[1].credit_window, window);
    assert!(
        stats[1].max_in_flight <= window,
        "in-flight high water {} exceeded the credit window {window}",
        stats[1].max_in_flight
    );
    assert!(stats[1].max_in_flight >= 1);
}

/// A retried send re-delivers the same key under a higher epoch; the
/// receiver's delivered-set suppresses the duplicate instead of
/// double-depositing (the store would panic on a duplicate `put`).
#[test]
fn duplicate_delivery_is_idempotent() {
    let fabric = CommFabric::new(2, CommConfig::default());
    let stores = [TileStore::for_node(0), TileStore::for_node(1)];
    std::thread::scope(|s| {
        fabric.start(s, &stores);
        fabric.send_tile(1, msg(0, 1, 0), false).unwrap();
        fabric.wait_delivered(1, DataKey::A(0, 0));
        // The duplicate, as a fault retry would produce it.
        fabric.send_tile(1, msg(0, 2, 0), false).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        while fabric.node_stats()[1].duplicate_msgs == 0 {
            assert!(Instant::now() < deadline, "duplicate never processed");
            std::thread::sleep(Duration::from_millis(1));
        }
        fabric.shutdown();
    });
    let stats = fabric.node_stats();
    assert_eq!(stats[0].sent_msgs, 2, "both sends hit the wire");
    assert_eq!(stats[1].recv_msgs, 1, "only the first deposited");
    assert_eq!(stats[1].duplicate_msgs, 1);
    // The deposited tile is still readable exactly once (consumers = 1).
    let _ = stores[1].get(1, DataKey::A(0, 0));
    stores[1].consume(1, DataKey::A(0, 0));
}

/// Runs one 8-message burst under `delivery` and returns the order the
/// receiving progress thread deposited the keys in.
fn delivery_order(delivery: DeliveryPolicy) -> Vec<String> {
    let n = 8;
    let fabric = CommFabric::new(
        2,
        CommConfig {
            window: n,
            delivery,
            clock: Some(TraceClock::start()),
            ..CommConfig::default()
        },
    );
    let stores = [TileStore::for_node(0), TileStore::for_node(1)];
    // Queue the whole burst *before* the progress thread starts, so the
    // reorder draw always sees the full window — delivery order is then a
    // pure function of the seed.
    for i in 0..n {
        fabric.send_tile(1, msg(i as u32, 1, 0), false).unwrap();
    }
    std::thread::scope(|s| {
        fabric.start(s, &stores);
        for i in 0..n {
            fabric.wait_delivered(1, DataKey::A(i as u32, 0));
        }
        fabric.shutdown();
    });
    fabric
        .take_events()
        .into_iter()
        .filter(|e| e.phase == TracePhase::Received)
        .map(|e| format!("{:?}", e.key))
        .collect()
}

/// The seeded reorder stressor is deterministic — same seed, same delivery
/// permutation — and actually permutes (it differs from FIFO).
#[test]
fn seeded_reorder_is_deterministic_and_permutes() {
    let fifo = delivery_order(DeliveryPolicy::InOrder);
    let a = delivery_order(DeliveryPolicy::Reorder { seed: 7, window: 8 });
    let b = delivery_order(DeliveryPolicy::Reorder { seed: 7, window: 8 });
    assert_eq!(a, b, "same seed must reproduce the same delivery order");
    assert_eq!(a.len(), fifo.len());
    let mut sa = a.clone();
    let mut sf = fifo.clone();
    sa.sort();
    sf.sort();
    assert_eq!(sa, sf, "reorder must deliver the same multiset of keys");
    assert_ne!(a, fifo, "seed 7 must actually permute an 8-message burst");
}

/// Duplicate suppression holds after a tile is already in use: a retried
/// frame from the owner reaches node 1 after node 1 consumed one of its two
/// references, the duplicate is suppressed, and the owner's send to node 2
/// is unaffected.
#[test]
fn late_redelivery_is_suppressed() {
    let fabric = CommFabric::new(3, CommConfig::default());
    let stores = [TileStore::for_node(0), TileStore::for_node(1), TileStore::for_node(2)];
    let key = DataKey::A(0, 0);
    std::thread::scope(|s| {
        fabric.start(s, &stores);
        // The owner's sends: two device loads consume the tile on node 1,
        // one on node 2.
        let mut m = msg(0, 1, 0);
        m.consumers = 2;
        fabric.send_tile(1, m, false).unwrap();
        fabric.send_tile(2, msg(0, 1, 0), false).unwrap();
        fabric.wait_delivered(1, key);
        let _ = stores[1].get(1, key);
        stores[1].consume(1, key);
        fabric.wait_delivered(2, key);
        // A spurious retry of the send to node 1 arrives after node 1
        // started consuming — the re-delivery must be suppressed, not
        // double-deposited.
        let mut dup = msg(0, 2, 0);
        dup.consumers = 2;
        fabric.send_tile(1, dup, false).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        while fabric.node_stats()[1].duplicate_msgs == 0 {
            assert!(Instant::now() < deadline, "duplicate never processed");
            std::thread::sleep(Duration::from_millis(1));
        }
        fabric.shutdown();
    });
    let stats = fabric.node_stats();
    assert_eq!(stats[1].recv_msgs, 1, "node 1 deposited the tile exactly once");
    assert_eq!(stats[1].duplicate_msgs, 1, "the late retry was suppressed");
    assert_eq!(stats[2].recv_msgs, 1, "the send to node 2 delivered normally");
    // Node 1's remaining consumer still reads the tile, node 2's its copy.
    let _ = stores[1].get(1, key);
    stores[1].consume(1, key);
    let _ = stores[2].get(2, key);
    stores[2].consume(2, key);
}
