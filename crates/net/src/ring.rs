//! Lock-free single-producer/single-consumer ring buffer with a
//! blocking pair of waits.
//!
//! Models the DPDK kernel-bypass queue of the paper's Figure 2 ("the
//! packets can be processed directly on the user space by passing
//! through the kernel space"). The implementation is the classic
//! power-of-two ring with cache-padded head/tail counters and
//! acquire/release publication, per the workspace's concurrency
//! guidelines (Rust Atomics and Locks, ch. 5).
//!
//! [`Producer::push`] and [`Consumer::pop`] never block.
//! [`Producer::push_wait`] and [`Consumer::pop_wait`] wait: a bounded
//! spin, then `yield_now`, then `std::thread::park`. Three rules make
//! the parked wait safe and cheap:
//!
//! * **No lost wake-up** (Dekker). A waiter stores its side's `parked`
//!   flag, issues a `SeqCst` fence, and only then re-checks the ring.
//!   The peer publishes `head` / `tail` (or `closed`), issues a `SeqCst`
//!   fence, and only then reads the flag. The two fences are ordered one
//!   way or the other: either the waiter's re-check sees the peer's
//!   progress and does not park, or the peer sees the flag and unparks
//!   it (an unpark that lands before the park makes the park return at
//!   once). The waiter takes its `Thread` handle at wait time, since an
//!   endpoint may move between threads.
//! * **Hysteresis on the full side.** A producer that found the ring
//!   full waits until it is at most half full, and only then does the
//!   consumer wake it, so one wait covers at least half a ring of
//!   pushes instead of one futex round trip per pop. A consumer waiting
//!   on an empty ring wakes on the first push.
//! * **Close on drop.** Dropping either endpoint — also while unwinding
//!   — closes the ring and wakes a parked peer: `pop_wait` then drains
//!   what is left and returns `None`, `push_wait` hands its item back.
//!
//! The price on the non-blocking fast path is one fence and one flag
//! load per `push` or `pop`.

use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{fence, AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::{self, Thread};
use vran_util::CachePadded;

/// Condition checks a waiter spins through before it starts yielding.
const SPINS: u32 = 64;

/// `yield_now` rounds after the spin, before the waiter parks.
const YIELDS: u32 = 16;

struct Inner<T> {
    buf: Box<[UnsafeCell<MaybeUninit<T>>]>,
    mask: usize,
    head: CachePadded<AtomicUsize>, // next slot to pop
    tail: CachePadded<AtomicUsize>, // next slot to push
    producer: CachePadded<Waiter>,
    consumer: CachePadded<Waiter>,
    /// Set once, when either endpoint is dropped.
    closed: AtomicBool,
}

// SAFETY: `buf`'s slots are only touched by the one `Producer` (writing
// slots in `[tail, head + cap)`) and the one `Consumer` (reading slots
// in `[head, tail)`), and a slot changes hands only through the
// release/acquire pair on `tail` or `head`; moving a `T` between those
// two threads needs `T: Send`. Every other field is an atomic or a
// `Mutex` over a `Thread`, both `Sync`.
unsafe impl<T: Send> Sync for Inner<T> {}
// SAFETY: as above; `Inner` owns its `T`s, which may be dropped on
// whichever thread drops the last endpoint.
unsafe impl<T: Send> Send for Inner<T> {}

/// One endpoint's parking state.
#[derive(Default)]
struct Waiter {
    /// Stored by the waiting endpoint just before its final check of the
    /// ring, cleared when it stops waiting.
    parked: AtomicBool,
    /// The waiting thread, recorded at every wait.
    thread: Mutex<Option<Thread>>,
}

impl Waiter {
    /// Return once `ready()` holds: spin, then yield, then park. After
    /// every change that can make `ready()` hold, the peer must issue a
    /// `SeqCst` fence, then read `parked` and wake this waiter if set.
    fn wait(&self, ready: impl Fn() -> bool) {
        for _ in 0..SPINS {
            if ready() {
                return;
            }
            std::hint::spin_loop();
        }
        for _ in 0..YIELDS {
            if ready() {
                return;
            }
            thread::yield_now();
        }
        let me = thread::current();
        *self.thread.lock().unwrap_or_else(PoisonError::into_inner) = Some(me);
        // Release: a peer that reads the flag set also sees the handle.
        self.parked.store(true, Ordering::Release);
        // The store above before the re-check below; the peer fences
        // between its publication and its read of `parked`.
        fence(Ordering::SeqCst);
        while !ready() {
            // A wake that lands before this park makes it return at
            // once; a spurious return re-checks.
            thread::park();
        }
        self.parked.store(false, Ordering::Relaxed);
    }

    /// Unpark the waiting thread, if there is one. Called after the
    /// caller's publication and a `SeqCst` fence.
    #[inline]
    fn wake_if_parked(&self) {
        if self.parked.load(Ordering::Acquire) {
            self.wake();
        }
    }

    #[cold]
    fn wake(&self) {
        // Never panics: `Drop` calls this, possibly during an unwind. No
        // update under the lock can be torn, so a poisoned guard is sound.
        let slot = self.thread.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(t) = &*slot {
            t.unpark();
        }
    }
}

impl<T> Inner<T> {
    /// Current occupancy (approximate under concurrency).
    fn len(&self) -> usize {
        let t = self.tail.load(Ordering::Relaxed);
        let h = self.head.load(Ordering::Relaxed);
        t.wrapping_sub(h)
    }

    /// Occupancy at or below which a producer waiting on a full ring
    /// is let go.
    fn low_water(&self) -> usize {
        self.buf.len() / 2
    }

    fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
    }

    /// Mark the ring closed and wake `peer` if it is parked.
    fn close(&self, peer: &Waiter) {
        self.closed.store(true, Ordering::Release);
        fence(Ordering::SeqCst);
        peer.wake_if_parked();
    }
}

/// Producer handle.
pub struct Producer<T> {
    inner: Arc<Inner<T>>,
}

/// Consumer handle.
pub struct Consumer<T> {
    inner: Arc<Inner<T>>,
}

/// A bounded SPSC ring of capacity `cap` (rounded up to a power of
/// two).
pub struct SpscRing;

impl SpscRing {
    /// Create the ring, returning its two endpoints.
    pub fn with_capacity<T>(cap: usize) -> (Producer<T>, Consumer<T>) {
        let cap = cap.max(2).next_power_of_two();
        let buf: Box<[UnsafeCell<MaybeUninit<T>>]> = (0..cap)
            .map(|_| UnsafeCell::new(MaybeUninit::uninit()))
            .collect();
        let inner = Arc::new(Inner {
            buf,
            mask: cap - 1,
            head: CachePadded::new(AtomicUsize::new(0)),
            tail: CachePadded::new(AtomicUsize::new(0)),
            producer: CachePadded::default(),
            consumer: CachePadded::default(),
            closed: AtomicBool::new(false),
        });
        (
            Producer {
                inner: inner.clone(),
            },
            Consumer { inner },
        )
    }
}

impl<T> Producer<T> {
    /// Attempt to enqueue; returns the value back when the ring is
    /// full.
    pub fn push(&mut self, v: T) -> Result<(), T> {
        let inner = &*self.inner;
        let tail = inner.tail.load(Ordering::Relaxed);
        let head = inner.head.load(Ordering::Acquire);
        if tail.wrapping_sub(head) > inner.mask {
            return Err(v);
        }
        // SAFETY: `tail - head <= mask`, so slot `tail` is free: the
        // consumer finished reading it before publishing a `head` past it
        // (acquired above), and only this endpoint writes slots.
        unsafe {
            (*inner.buf[tail & inner.mask].get()).write(v);
        }
        inner.tail.store(tail.wrapping_add(1), Ordering::Release);
        fence(Ordering::SeqCst);
        inner.consumer.wake_if_parked();
        Ok(())
    }

    /// Enqueue, waiting while the ring is full. A producer that finds
    /// the ring full waits until it is at most half full. Returns the
    /// value back, without enqueueing it, once the consumer is gone.
    pub fn push_wait(&mut self, v: T) -> Result<(), T> {
        if self.inner.is_closed() {
            return Err(v);
        }
        let Err(v) = self.push(v) else {
            return Ok(());
        };
        let inner = &*self.inner;
        inner
            .producer
            .wait(|| inner.is_closed() || inner.len() <= inner.low_water());
        if inner.is_closed() {
            return Err(v);
        }
        self.push(v)
    }

    /// Current occupancy (approximate under concurrency).
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Whether the ring appears empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Consumer<T> {
    /// Attempt to dequeue.
    pub fn pop(&mut self) -> Option<T> {
        let inner = &*self.inner;
        let head = inner.head.load(Ordering::Relaxed);
        let tail = inner.tail.load(Ordering::Acquire);
        if head == tail {
            return None;
        }
        // SAFETY: `head != tail`, so slot `head` holds a value the
        // producer published with the `tail` acquired above; only this
        // endpoint reads slots, and it moves `head` past this one next.
        let v = unsafe { (*inner.buf[head & inner.mask].get()).assume_init_read() };
        let head = head.wrapping_add(1);
        inner.head.store(head, Ordering::Release);
        fence(Ordering::SeqCst);
        // `tail` may be stale, which only under-counts: a waiting
        // producer is never left parked below the low-water mark.
        if inner.producer.parked.load(Ordering::Acquire)
            && tail.wrapping_sub(head) <= inner.low_water()
        {
            inner.producer.wake();
        }
        Some(v)
    }

    /// Dequeue, waiting while the ring is empty. Once the producer is
    /// gone, drains what it left and then returns `None`.
    pub fn pop_wait(&mut self) -> Option<T> {
        if let Some(v) = self.pop() {
            return Some(v);
        }
        let inner = &*self.inner;
        inner.consumer.wait(|| inner.is_closed() || inner.len() > 0);
        // Not closed: an item is there. Closed: everything pushed before
        // the close is visible.
        self.pop()
    }

    /// Current occupancy (approximate under concurrency).
    pub fn len(&self) -> usize {
        self.inner.len()
    }

    /// Whether the ring appears empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Drop for Producer<T> {
    fn drop(&mut self) {
        self.inner.close(&self.inner.consumer);
    }
}

impl<T> Drop for Consumer<T> {
    fn drop(&mut self) {
        self.inner.close(&self.inner.producer);
    }
}

impl<T> Drop for Inner<T> {
    fn drop(&mut self) {
        // Drop any items still in the ring.
        let head = self.head.load(Ordering::Relaxed);
        let tail = self.tail.load(Ordering::Relaxed);
        let mut i = head;
        while i != tail {
            // SAFETY: both endpoints are gone (`&mut self`), and slots
            // `[head, tail)` hold initialised values nobody popped.
            unsafe {
                (*self.buf[i & self.mask].get()).assume_init_drop();
            }
            i = i.wrapping_add(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_order_single_thread() {
        let (mut p, mut c) = SpscRing::with_capacity::<u32>(8);
        for i in 0..8 {
            p.push(i).unwrap();
        }
        assert!(p.push(99).is_err(), "ring must report full");
        for i in 0..8 {
            assert_eq!(c.pop(), Some(i));
        }
        assert_eq!(c.pop(), None);
    }

    #[test]
    fn wraps_around() {
        let (mut p, mut c) = SpscRing::with_capacity::<usize>(4);
        for round in 0..10 {
            for i in 0..3 {
                p.push(round * 10 + i).unwrap();
            }
            for i in 0..3 {
                assert_eq!(c.pop(), Some(round * 10 + i));
            }
        }
    }

    #[test]
    fn cross_thread_transfer_is_lossless() {
        const N: usize = 100_000;
        let (mut p, mut c) = SpscRing::with_capacity::<usize>(1024);
        let producer = std::thread::spawn(move || {
            for i in 0..N {
                p.push_wait(i).expect("the consumer outlives the producer");
            }
        });
        for expected in 0..N {
            assert_eq!(c.pop_wait(), Some(expected), "FIFO violated");
        }
        producer.join().unwrap();
        assert_eq!(c.pop_wait(), None, "closed and drained");
    }

    #[test]
    fn drops_remaining_items() {
        // Drop with items still queued; detect leaks via Arc counters.
        let item = Arc::new(0u8);
        {
            let (mut p, _c) = SpscRing::with_capacity::<Arc<u8>>(8);
            for _ in 0..5 {
                p.push(item.clone()).unwrap();
            }
            assert_eq!(Arc::strong_count(&item), 6);
        }
        assert_eq!(Arc::strong_count(&item), 1, "queued items must be dropped");
    }

    #[test]
    fn capacity_rounds_up() {
        let (mut p, _c) = SpscRing::with_capacity::<u8>(5);
        for i in 0..8 {
            p.push(i).unwrap();
        }
        assert!(p.push(8).is_err());
    }
}
