//! Model-based testing of the SPSC ring: any single-threaded
//! interleaving of pushes and pops must behave exactly like a bounded
//! FIFO (`VecDeque` reference model). The cross-thread tests drive the
//! blocking pair, `push_wait` / `pop_wait`, including the parked wait
//! and close-on-drop; run them under `--release` too, where the races
//! are tighter.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};
use vran_net::ring::SpscRing;
use vran_util::proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn behaves_like_a_bounded_fifo(ops in prop::collection::vec(any::<u8>(), 1..400), cap in 2usize..64) {
        let (mut p, mut c) = SpscRing::with_capacity::<u32>(cap);
        let real_cap = cap.next_power_of_two();
        let mut model: VecDeque<u32> = VecDeque::new();
        let mut counter = 0u32;
        for op in ops {
            if op % 2 == 0 {
                counter += 1;
                let pushed = p.push(counter).is_ok();
                let model_ok = model.len() < real_cap;
                prop_assert_eq!(pushed, model_ok, "push acceptance diverged at {}", counter);
                if model_ok {
                    model.push_back(counter);
                }
            } else {
                let got = c.pop();
                let want = model.pop_front();
                prop_assert_eq!(got, want);
            }
            prop_assert_eq!(p.len(), model.len());
            prop_assert_eq!(c.is_empty(), model.is_empty());
        }
        // drain and compare the tail
        while let Some(v) = c.pop() {
            prop_assert_eq!(Some(v), model.pop_front());
        }
        prop_assert!(model.is_empty());
    }
}

/// Long enough for the waiting peer to have spun, yielded and parked.
const PARK: Duration = Duration::from_millis(20);

/// Send `0..n` through a ring of `cap` slots with `push_wait` /
/// `pop_wait`, calling `pause(i, side)` before item `i` on each side
/// (0 the consumer, 1 the producer). Checks FIFO order and the count,
/// and fails once 10 s pass with no item popped: a lost wake-up leaves
/// both endpoints parked forever.
fn transfer(cap: usize, n: usize, pause: fn(usize, usize)) {
    let (mut p, mut c) = SpscRing::with_capacity::<usize>(cap);
    let popped = Arc::new(AtomicUsize::new(0));
    let consumer = {
        let popped = popped.clone();
        thread::spawn(move || {
            for expected in 0..n {
                pause(expected, 0);
                assert_eq!(c.pop_wait(), Some(expected), "cap {cap}: FIFO violated");
                popped.store(expected + 1, Ordering::Relaxed);
            }
            assert_eq!(c.pop_wait(), None, "cap {cap}: more than {n} items");
        })
    };
    let producer = thread::spawn(move || {
        for i in 0..n {
            pause(i, 1);
            p.push_wait(i).expect("the consumer outlives the producer");
        }
    });
    let (mut last, mut since) = (usize::MAX, Instant::now());
    while !(consumer.is_finished() && producer.is_finished()) {
        let now = popped.load(Ordering::Relaxed);
        if now != last {
            (last, since) = (now, Instant::now());
        }
        assert!(
            since.elapsed() < Duration::from_secs(10),
            "cap {cap}: no progress for 10 s at item {now}: lost wake-up"
        );
        thread::sleep(Duration::from_millis(5));
    }
    producer.join().unwrap();
    consumer.join().unwrap();
    assert_eq!(popped.load(Ordering::Relaxed), n, "cap {cap}");
}

#[test]
fn concurrent_stress_preserves_order_and_count() {
    for _trial in 0..3 {
        transfer(64, 50_000, |_, _| {});
    }
}

#[test]
fn no_wake_up_is_lost_when_both_sides_park() {
    // Every 1 000 items one side sleeps 1 ms, alternating: in even
    // blocks the consumer, so the producer fills the ring and parks on
    // it; in odd blocks the producer, so the consumer drains it and
    // parks. Each park must be ended by the peer's next pop or push.
    for cap in [2, 64] {
        transfer(cap, 100_000, |i, side| {
            if i.is_multiple_of(1_000) && (i / 1_000) % 2 == side {
                thread::sleep(Duration::from_millis(1));
            }
        });
    }
}

/// Receive what `rx` is sent within 10 s, or fail naming `what`.
fn within_10s<T>(rx: &mpsc::Receiver<T>, what: &str) -> T {
    rx.recv_timeout(Duration::from_secs(10))
        .unwrap_or_else(|_| panic!("{what}: no answer within 10 s"))
}

#[test]
fn pop_wait_drains_a_closed_ring_before_none() {
    let (mut p, mut c) = SpscRing::with_capacity::<u32>(8);
    for i in 0..3 {
        p.push(i).unwrap();
    }
    drop(p);
    assert_eq!(
        [c.pop_wait(), c.pop_wait(), c.pop_wait(), c.pop_wait()],
        [Some(0), Some(1), Some(2), None]
    );
    assert_eq!(c.pop_wait(), None, "stays closed");
}

#[test]
fn dropping_the_producer_wakes_a_parked_consumer() {
    for pushed in [0u32, 3] {
        let (mut p, mut c) = SpscRing::with_capacity::<u32>(8);
        let (tx, rx) = mpsc::channel();
        let consumer = thread::spawn(move || {
            let mut got = Vec::new();
            while let Some(v) = c.pop_wait() {
                got.push(v);
            }
            tx.send(got).unwrap();
        });
        thread::sleep(PARK);
        for i in 0..pushed {
            p.push(i).unwrap();
        }
        drop(p);
        let got = within_10s(&rx, "consumer parked on an empty ring");
        assert_eq!(got, (0..pushed).collect::<Vec<_>>(), "drained before None");
        consumer.join().unwrap();
    }
}

#[test]
fn dropping_the_consumer_hands_a_parked_producer_its_item_back() {
    let (mut p, c) = SpscRing::with_capacity::<u32>(4);
    let (tx, rx) = mpsc::channel();
    let producer = thread::spawn(move || {
        for i in 0..4 {
            p.push(i).unwrap();
        }
        tx.send(p.push_wait(99)).unwrap();
        tx.send(p.push_wait(100)).unwrap();
    });
    thread::sleep(PARK);
    drop(c);
    assert_eq!(within_10s(&rx, "producer parked on a full ring"), Err(99));
    assert_eq!(within_10s(&rx, "producer after the close"), Err(100));
    producer.join().unwrap();
}
