//! Offline stand-in for the `crossbeam` crate (this workspace builds with
//! no network access — see `shims/README.md`).
//!
//! Provides `crossbeam::channel::{unbounded, bounded, Sender, Receiver}`:
//! multi-producer multi-consumer FIFO channels built on a
//! `Mutex<VecDeque>` + `Condvar`s, notified only when a thread waits on
//! them (each notify is a syscall, and every engine task sends and
//! receives). The engine in `bst-runtime` uses one
//! unbounded channel per worker with cloned receivers, so MPMC semantics
//! (any clone of the receiver may take the next message) are required —
//! `std::sync::mpsc` receivers cannot be cloned. The comm fabric uses
//! `bounded` channels as per-node inboxes: `send` blocks while the queue
//! is at capacity, which is the backpressure the transport's credit scheme
//! rides on.

/// Multi-producer multi-consumer FIFO channels.
pub mod channel {
    use std::collections::VecDeque;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Arc, Condvar, Mutex, MutexGuard};

    struct Shared<T> {
        state: Mutex<State<T>>,
        ready: Condvar,
        /// Signalled when a bounded queue frees a slot.
        space: Condvar,
        /// `None` = unbounded; `Some(cap)` = `send` blocks at `cap` queued.
        cap: Option<usize>,
        senders: AtomicUsize,
        receivers: AtomicUsize,
    }

    /// The queue plus the threads blocked on it: a condvar is notified only
    /// when someone waits, since each notify is a syscall.
    struct State<T> {
        queue: VecDeque<T>,
        /// Receivers blocked in `recv`.
        recv_waiting: usize,
        /// Senders blocked on a full bounded queue.
        send_waiting: usize,
    }

    impl<T> Shared<T> {
        fn lock(&self) -> MutexGuard<'_, State<T>> {
            self.state.lock().unwrap_or_else(|e| e.into_inner())
        }

        /// Releases `st` after a message was taken, waking one sender blocked
        /// on the full queue if there is one.
        fn freed_slot(&self, st: MutexGuard<'_, State<T>>) {
            let wake = st.send_waiting > 0;
            drop(st);
            if wake {
                self.space.notify_one();
            }
        }

        /// Wakes every thread blocked on `cv`. Taking the lock first means a
        /// thread that read the old endpoint count under the lock is already
        /// waiting, so it cannot miss the wakeup.
        fn wake_all(&self, cv: &Condvar) {
            drop(self.lock());
            cv.notify_all();
        }
    }

    /// The sending half; cloneable.
    pub struct Sender<T>(Arc<Shared<T>>);

    /// The receiving half; cloneable (MPMC: clones compete for messages).
    pub struct Receiver<T>(Arc<Shared<T>>);

    /// Error returned by [`Sender::send`] when every receiver is gone.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    /// Error returned by [`Receiver::recv`] when the channel is empty and
    /// every sender is gone.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    /// Error returned by [`Receiver::try_recv`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        /// No message available right now.
        Empty,
        /// Channel empty and all senders dropped.
        Disconnected,
    }

    fn mk_channel<T>(cap: Option<usize>) -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                recv_waiting: 0,
                send_waiting: 0,
            }),
            ready: Condvar::new(),
            space: Condvar::new(),
            cap,
            senders: AtomicUsize::new(1),
            receivers: AtomicUsize::new(1),
        });
        (Sender(shared.clone()), Receiver(shared))
    }

    /// Creates an unbounded MPMC channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        mk_channel(None)
    }

    /// Creates a bounded MPMC channel of capacity `cap` (≥ 1): `send`
    /// blocks while `cap` messages are queued, until a receiver frees a
    /// slot or every receiver is dropped.
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        mk_channel(Some(cap.max(1)))
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.0.senders.fetch_add(1, Ordering::Relaxed);
            Sender(self.0.clone())
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            if self.0.senders.fetch_sub(1, Ordering::AcqRel) == 1 {
                // Last sender gone: wake blocked receivers so they can
                // observe disconnection.
                self.0.wake_all(&self.0.ready);
            }
        }
    }

    impl<T> Sender<T> {
        /// Enqueues `value`; on a bounded channel, blocks while the queue is
        /// at capacity. Fails only when every receiver is dropped.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            if self.0.receivers.load(Ordering::Acquire) == 0 {
                return Err(SendError(value));
            }
            let mut st = self.0.lock();
            if let Some(cap) = self.0.cap {
                while st.queue.len() >= cap {
                    if self.0.receivers.load(Ordering::Acquire) == 0 {
                        return Err(SendError(value));
                    }
                    st.send_waiting += 1;
                    st = self.0.space.wait(st).unwrap_or_else(|e| e.into_inner());
                    st.send_waiting -= 1;
                }
            }
            st.queue.push_back(value);
            let wake = st.recv_waiting > 0;
            drop(st);
            if wake {
                self.0.ready.notify_one();
            }
            Ok(())
        }

        /// Messages currently queued (a racy snapshot).
        pub fn len(&self) -> usize {
            self.0.lock().queue.len()
        }

        /// Whether the queue is empty right now (a racy snapshot).
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.0.receivers.fetch_add(1, Ordering::Relaxed);
            Receiver(self.0.clone())
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            if self.0.receivers.fetch_sub(1, Ordering::AcqRel) == 1 {
                // Last receiver gone: wake senders blocked on a full
                // bounded queue so they can observe disconnection.
                self.0.wake_all(&self.0.space);
            }
        }
    }

    impl<T> Receiver<T> {
        /// Blocks until a message arrives or every sender is dropped.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut st = self.0.lock();
            loop {
                if let Some(v) = st.queue.pop_front() {
                    self.0.freed_slot(st);
                    return Ok(v);
                }
                if self.0.senders.load(Ordering::Acquire) == 0 {
                    return Err(RecvError);
                }
                st.recv_waiting += 1;
                st = self.0.ready.wait(st).unwrap_or_else(|e| e.into_inner());
                st.recv_waiting -= 1;
            }
        }

        /// Takes a message if one is immediately available.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut st = self.0.lock();
            match st.queue.pop_front() {
                Some(v) => {
                    self.0.freed_slot(st);
                    Ok(v)
                }
                None if self.0.senders.load(Ordering::Acquire) == 0 => {
                    Err(TryRecvError::Disconnected)
                }
                None => Err(TryRecvError::Empty),
            }
        }

        /// Messages currently queued (a racy snapshot).
        pub fn len(&self) -> usize {
            self.0.lock().queue.len()
        }

        /// Whether the queue is empty right now (a racy snapshot).
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::channel::*;

    #[test]
    fn fifo_order_single_thread() {
        let (tx, rx) = unbounded();
        for i in 0..10 {
            tx.send(i).unwrap();
        }
        for i in 0..10 {
            assert_eq!(rx.recv().unwrap(), i);
        }
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
    }

    #[test]
    fn disconnect_on_all_senders_dropped() {
        let (tx, rx) = unbounded::<u32>();
        tx.send(1).unwrap();
        drop(tx);
        assert_eq!(rx.recv().unwrap(), 1);
        assert!(rx.recv().is_err());
    }

    #[test]
    fn mpmc_across_threads() {
        let (tx, rx) = unbounded::<usize>();
        let n = 1000;
        let consumed = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let rx = rx.clone();
                let consumed = consumed.clone();
                s.spawn(move || {
                    while rx.recv().is_ok() {
                        consumed.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    }
                });
            }
            for _ in 0..2 {
                let tx = tx.clone();
                s.spawn(move || {
                    for i in 0..n {
                        tx.send(i).unwrap();
                    }
                });
            }
            drop(tx); // receivers unblock once the clones finish
        });
        assert_eq!(consumed.load(std::sync::atomic::Ordering::Relaxed), 2 * n);
    }

    #[test]
    fn send_fails_with_no_receivers() {
        let (tx, rx) = unbounded::<u32>();
        drop(rx);
        assert_eq!(tx.send(5), Err(SendError(5)));
    }

    #[test]
    fn bounded_send_blocks_at_capacity() {
        let (tx, rx) = bounded::<u32>(2);
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(rx.len(), 2);
        // The third send must block until a slot frees; verify by receiving
        // from another thread after a delay and timing the send.
        let start = std::time::Instant::now();
        std::thread::scope(|s| {
            s.spawn(|| {
                std::thread::sleep(std::time::Duration::from_millis(50));
                assert_eq!(rx.recv().unwrap(), 1);
            });
            tx.send(3).unwrap();
        });
        assert!(start.elapsed() >= std::time::Duration::from_millis(40));
        assert_eq!(rx.recv().unwrap(), 2);
        assert_eq!(rx.recv().unwrap(), 3);
    }

    #[test]
    fn bounded_queue_never_exceeds_capacity() {
        let (tx, rx) = bounded::<usize>(4);
        std::thread::scope(|s| {
            for t in 0..3 {
                let tx = tx.clone();
                s.spawn(move || {
                    for i in 0..100 {
                        tx.send(t * 100 + i).unwrap();
                    }
                });
            }
            s.spawn(|| {
                for _ in 0..300 {
                    assert!(rx.len() <= 4, "queue exceeded its bound");
                    rx.recv().unwrap();
                }
            });
        });
        assert!(rx.is_empty());
    }

    /// Runs `f` on a fresh thread that meets this one at a barrier first,
    /// then runs `g` here, racing the two; fails unless `f` returns within
    /// 1 s.
    fn race<R: Send + 'static>(f: impl FnOnce() -> R + Send + 'static, g: impl FnOnce()) -> R {
        let start = std::sync::Arc::new(std::sync::Barrier::new(2));
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        let thread_start = start.clone();
        std::thread::spawn(move || {
            thread_start.wait();
            done_tx.send(f()).unwrap();
        });
        start.wait();
        g();
        done_rx
            .recv_timeout(std::time::Duration::from_secs(1))
            .expect("a blocked endpoint missed the disconnect")
    }

    #[test]
    fn blocked_recv_wakes_when_the_last_sender_drops() {
        for _ in 0..1000 {
            let (tx, rx) = unbounded::<u32>();
            assert_eq!(race(move || rx.recv(), || drop(tx)), Err(RecvError));
        }
    }

    #[test]
    fn blocked_send_wakes_when_the_last_receiver_drops() {
        for _ in 0..1000 {
            let (tx, rx) = bounded::<u32>(1);
            tx.send(0).unwrap();
            assert_eq!(race(move || tx.send(1), || drop(rx)), Err(SendError(1)));
        }
    }

    #[test]
    fn bounded_send_unblocks_on_receiver_drop() {
        let (tx, rx) = bounded::<u32>(1);
        tx.send(1).unwrap();
        std::thread::scope(|s| {
            s.spawn(|| {
                std::thread::sleep(std::time::Duration::from_millis(30));
                drop(rx);
            });
            assert_eq!(tx.send(2), Err(SendError(2)));
        });
    }
}
