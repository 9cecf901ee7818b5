//! Socket-transport integration tests: real TCP/Unix sockets, real
//! threads, a severable proxy between them. Covers reconnect after
//! induced connection loss (with the
//! at-least-once redelivery of frames queued across the gap), the
//! stale-incarnation handshake refusal (fenced zombie — refused, traced,
//! terminal on the peer), and backpressure on the bounded outbound queue.
//! The combining writer's own cases — concurrent senders, a peer that
//! stops reading — need the link's queue in view and live beside it, in
//! `transport/socket.rs`; here are the ones the public API shows: order
//! across an outage, and every link event of a `bind`/`connect` endpoint
//! through `recv_timeout`.

mod chaos_proxy;

use bytes::Bytes;
use chaos_proxy::FaultProxy;
use oml_runtime::transport::socket::{SocketConfig, SocketPeer, SocketServer};
use oml_runtime::transport::{Transport, TransportError, TransportEvent};
use oml_runtime::TransportAddr;
use std::time::{Duration, Instant};

fn tcp0() -> TransportAddr {
    TransportAddr::parse("tcp:127.0.0.1:0").unwrap()
}

fn fast_cfg() -> SocketConfig {
    let mut cfg = SocketConfig::default();
    cfg.backoff.base_ms = 5;
    cfg.backoff.cap_ms = 50;
    cfg
}

/// Drains server events until a `Delivery` arrives or the deadline passes.
fn next_delivery(server: &SocketServer, deadline: Duration) -> Option<(u32, u64, Bytes)> {
    let until = Instant::now() + deadline;
    while Instant::now() < until {
        if let Ok(TransportEvent::Delivery { from, epoch, msg }) =
            server.recv_timeout(0, Duration::from_millis(50))
        {
            return Some((from, epoch, msg));
        }
    }
    None
}

#[test]
fn round_trip_over_tcp() {
    let server = SocketServer::bind(&tcp0(), 1, fast_cfg()).unwrap();
    let peer = SocketPeer::connect(server.addr().clone(), 0, 1, fast_cfg());
    assert!(peer.wait_connected(Duration::from_secs(5)));

    peer.send(0, Bytes::copy_from_slice(b"ping")).unwrap();
    let (from, epoch, msg) = next_delivery(&server, Duration::from_secs(5)).expect("delivery");
    assert_eq!((from, epoch, msg.as_ref()), (0, 1, b"ping".as_slice()));

    // and the other direction
    server.send(0, Bytes::copy_from_slice(b"pong")).unwrap();
    let until = Instant::now() + Duration::from_secs(5);
    let got = loop {
        assert!(Instant::now() < until, "no server->peer delivery");
        if let Ok(TransportEvent::Delivery { msg, .. }) =
            peer.recv_timeout(0, Duration::from_millis(50))
        {
            break msg;
        }
    };
    assert_eq!(got.as_ref(), b"pong");
    peer.shutdown();
    server.shutdown();
}

#[test]
fn reconnects_through_a_severed_proxy_and_redelivers() {
    let server = SocketServer::bind(&tcp0(), 1, fast_cfg()).unwrap();
    // the proxy forwards everything: we induce the outage with sever_all
    let proxy = FaultProxy::start(&tcp0(), server.addr().clone()).unwrap();
    let peer = SocketPeer::connect(proxy.addr().clone(), 0, 1, fast_cfg());
    assert!(peer.wait_connected(Duration::from_secs(5)));

    peer.send(0, Bytes::copy_from_slice(b"before")).unwrap();
    let (_, _, msg) = next_delivery(&server, Duration::from_secs(5)).expect("pre-outage delivery");
    assert_eq!(msg.as_ref(), b"before");

    // outage: hard-close every forwarded connection; the supervisor must
    // redial through the (still listening) proxy under backoff
    proxy.sever_all();
    // wait until the peer has *detected* the outage — a frame handed to a
    // freshly-severed TCP connection can die in the kernel buffer (that
    // in-flight window belongs to the protocol layer's timeouts/retries);
    // the transport's at-least-once promise covers frames accepted while
    // the link is supervised-down
    let until = Instant::now() + Duration::from_secs(5);
    while !matches!(
        peer.recv_timeout(0, Duration::from_millis(2)),
        Ok(TransportEvent::Disconnected { peer: 0 })
    ) {
        assert!(
            Instant::now() < until,
            "peer never detected the severed link"
        );
    }
    // a frame queued during the detected outage sits in the bounded outbox
    // until a session re-forms, then flushes
    peer.send(0, Bytes::copy_from_slice(b"during")).unwrap();

    let mut saw_reconnect = false;
    let mut delivered_during = false;
    let until = Instant::now() + Duration::from_secs(10);
    while Instant::now() < until && !(saw_reconnect && delivered_during) {
        match server.recv_timeout(0, Duration::from_millis(50)) {
            Ok(TransportEvent::Reconnected {
                peer: p, attempt, ..
            }) => {
                assert_eq!(p, 0);
                assert!(attempt >= 1);
                saw_reconnect = true;
            }
            Ok(TransportEvent::Delivery { msg, .. }) if msg.as_ref() == b"during" => {
                delivered_during = true;
            }
            _ => {}
        }
    }
    assert!(saw_reconnect, "server never observed the reconnect");
    assert!(
        delivered_during,
        "frame sent during the outage was never redelivered"
    );
    assert!(
        peer.wait_connected(Duration::from_secs(1)),
        "peer should be reconnected"
    );
    peer.shutdown();
    proxy.shutdown();
    server.shutdown();
}

/// The next event at `endpoint` that is not a `Delivery`.
fn next_link_event<T: Transport<Bytes>>(endpoint: &T) -> TransportEvent<Bytes> {
    let until = Instant::now() + Duration::from_secs(10);
    loop {
        assert!(Instant::now() < until, "no link event");
        match endpoint.recv_timeout(0, Duration::from_millis(50)) {
            Ok(TransportEvent::Delivery { .. }) | Err(_) => {}
            Ok(event) => return event,
        }
    }
}

#[test]
fn frames_queued_across_an_outage_lead_the_next_session_in_order() {
    let server = SocketServer::bind(&tcp0(), 1, fast_cfg()).unwrap();
    let proxy = FaultProxy::start(&tcp0(), server.addr().clone()).unwrap();
    let peer = SocketPeer::connect(proxy.addr().clone(), 0, 1, fast_cfg());
    assert!(matches!(
        next_link_event(&peer),
        TransportEvent::Connected { .. }
    ));

    proxy.sever_all();
    // the peer has seen the outage: nothing below can die in the severed
    // connection's kernel buffer
    assert!(matches!(
        next_link_event(&peer),
        TransportEvent::Disconnected { peer: 0 }
    ));
    // queued while the link is down (or already written by a quick redial:
    // either way ahead of everything below) ...
    for i in 0..20u8 {
        peer.send(0, Bytes::from(vec![b'd', i])).unwrap();
    }
    assert!(peer.wait_connected(Duration::from_secs(10)));
    // ... and sent on the new session
    for i in 0..5u8 {
        peer.send(0, Bytes::from(vec![b'a', i])).unwrap();
    }
    let expected: Vec<Vec<u8>> = (0..20u8)
        .map(|i| vec![b'd', i])
        .chain((0..5u8).map(|i| vec![b'a', i]))
        .collect();
    for want in &expected {
        let (_, _, got) = next_delivery(&server, Duration::from_secs(10)).expect("delivery");
        assert_eq!(got.as_ref(), want.as_slice());
    }
    peer.shutdown();
    proxy.shutdown();
    server.shutdown();
}

#[test]
fn default_endpoints_report_every_link_event_through_recv_timeout() {
    let server = SocketServer::bind(&tcp0(), 1, fast_cfg()).unwrap();
    let proxy = FaultProxy::start(&tcp0(), server.addr().clone()).unwrap();
    let peer = SocketPeer::connect(proxy.addr().clone(), 0, 4, fast_cfg());

    assert!(matches!(
        next_link_event(&server),
        TransportEvent::Connected { peer: 0, epoch: 4 }
    ));
    assert!(matches!(
        next_link_event(&peer),
        TransportEvent::Connected { peer: 0, epoch: 4 }
    ));

    proxy.sever_all();
    assert!(matches!(
        next_link_event(&peer),
        TransportEvent::Disconnected { peer: 0 }
    ));
    // the proxy never stopped listening, so the outage's first dial gets
    // through: attempts count from 1
    match next_link_event(&peer) {
        TransportEvent::Reconnected {
            peer: 0,
            epoch: 4,
            attempt,
        } => assert_eq!(attempt, 1),
        other => panic!("expected Reconnected at the peer, got {other:?}"),
    }
    // the server sees its half die (EOF) or be replaced (the redial won the
    // race); the reconnect is reported either way
    let mut event = next_link_event(&server);
    if matches!(event, TransportEvent::Disconnected { peer: 0 }) {
        event = next_link_event(&server);
    }
    match event {
        TransportEvent::Reconnected {
            peer: 0,
            epoch: 4,
            attempt,
        } => assert_eq!(attempt, 1),
        other => panic!("expected Reconnected at the server, got {other:?}"),
    }

    // a zombie: refused at the server, terminal at the zombie
    server.fence_below(0, 5);
    let zombie = SocketPeer::connect(server.addr().clone(), 0, 4, fast_cfg());
    assert!(matches!(
        next_link_event(&zombie),
        TransportEvent::HandshakeFenced { peer: 0, epoch: 4 }
    ));
    assert!(matches!(
        next_link_event(&server),
        TransportEvent::HandshakeFenced { peer: 0, epoch: 4 }
    ));
    zombie.shutdown();
    peer.shutdown();
    proxy.shutdown();
    server.shutdown();
}

#[test]
fn stale_incarnation_handshake_is_refused_and_traced() {
    let server = SocketServer::bind(&tcp0(), 1, fast_cfg()).unwrap();

    // incarnation 5 connects and works
    let live = SocketPeer::connect(server.addr().clone(), 0, 5, fast_cfg());
    assert!(live.wait_connected(Duration::from_secs(5)));
    // the peer is connected once it has the server's ack, which the server
    // writes before it installs its own half: wait for that, not for time
    assert!(matches!(
        next_link_event(&server),
        TransportEvent::Connected { peer: 0, epoch: 5 }
    ));
    assert_eq!(server.session_epoch(0), Some(5));

    // the node is declared dead and respawned as incarnation 6: fence 5
    server.fence_below(0, 6);

    // a zombie presenting the old incarnation must be refused at accept
    let zombie = SocketPeer::connect(server.addr().clone(), 0, 5, fast_cfg());
    let until = Instant::now() + Duration::from_secs(5);
    while !zombie.is_fenced() {
        assert!(Instant::now() < until, "zombie never observed the refusal");
        std::thread::sleep(Duration::from_millis(5));
    }
    // terminal on the zombie's side: sends fail fast with Fenced
    match zombie.send(0, Bytes::copy_from_slice(b"zombie write")) {
        Err(TransportError::Fenced { epoch, .. }) => assert_eq!(epoch, 5),
        other => panic!("expected Fenced, got {other:?}"),
    }

    // ...and traced on the acceptor's side
    let until = Instant::now() + Duration::from_secs(5);
    let mut saw_fence_event = false;
    while Instant::now() < until && !saw_fence_event {
        if let Ok(TransportEvent::HandshakeFenced { peer, epoch }) =
            server.recv_timeout(0, Duration::from_millis(50))
        {
            assert_eq!((peer, epoch), (0, 5));
            saw_fence_event = true;
        }
    }
    assert!(saw_fence_event, "acceptor never emitted HandshakeFenced");

    // the fresh incarnation connects fine (floors fence below, not at)
    let fresh = SocketPeer::connect(server.addr().clone(), 0, 6, fast_cfg());
    assert!(fresh.wait_connected(Duration::from_secs(5)));
    assert!(!fresh.is_fenced());

    live.shutdown();
    zombie.shutdown();
    fresh.shutdown();
    server.shutdown();
}

#[test]
fn full_outbound_queue_fails_with_backpressure() {
    // no server: the link stays down, so the bounded outbox fills
    let mut cfg = fast_cfg();
    cfg.outbound_capacity = 4;
    cfg.send_deadline_ms = 40;
    cfg.connect_timeout_ms = 50;
    let peer = SocketPeer::connect(
        TransportAddr::parse("tcp:127.0.0.1:1").unwrap(), // reserved port: refused
        0,
        1,
        cfg,
    );
    let payload = Bytes::copy_from_slice(b"queued");
    let mut backpressured = false;
    let start = Instant::now();
    for _ in 0..64 {
        match peer.send(0, payload.clone()) {
            Ok(()) => {}
            Err(TransportError::Backpressure { .. }) => {
                backpressured = true;
                break;
            }
            Err(other) => panic!("expected Backpressure, got {other:?}"),
        }
    }
    assert!(backpressured, "bounded outbox never pushed back");
    assert!(
        start.elapsed() < Duration::from_secs(30),
        "send path must fail in bounded time, not block forever"
    );
    peer.shutdown();
}

#[test]
fn unix_domain_round_trip() {
    let dir = std::env::temp_dir().join(format!("oml-uds-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("t.sock");
    let addr = TransportAddr::parse(&format!("unix:{}", path.display())).unwrap();
    let server = SocketServer::bind(&addr, 1, fast_cfg()).unwrap();
    let peer = SocketPeer::connect(server.addr().clone(), 0, 1, fast_cfg());
    assert!(peer.wait_connected(Duration::from_secs(5)));
    peer.send(0, Bytes::copy_from_slice(b"uds")).unwrap();
    let (_, _, msg) = next_delivery(&server, Duration::from_secs(5)).expect("uds delivery");
    assert_eq!(msg.as_ref(), b"uds");
    peer.shutdown();
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
