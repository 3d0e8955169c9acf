//! The queue under the reactor carrier: push-all, take-all,
//! wake-if-parked.
//!
//! A batch is enqueued under one lock with at most one wake-up and the
//! consumer takes its *whole* queue per wake-up, so a pipelined batch
//! costs one context switch each way, not one per request. A reply slot
//! is a mailbox too — of one message, from the server to one waiter.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};

/// Multi-producer, single-consumer (one `parked` flag: one consumer).
pub(crate) struct Mailbox<T> {
    inbox: Mutex<Inbox<T>>,
    ready: Condvar,
}

struct Inbox<T> {
    items: VecDeque<T>,
    /// The consumer is blocked in [`Mailbox::take_all`].
    parked: bool,
    closed: bool,
}

/// One end of a shared mailbox. Dropping an end closes the mailbox: what
/// is queued can still be taken, nothing more can be pushed, and a parked
/// consumer wakes to see it.
pub(crate) struct End<T>(Arc<Mailbox<T>>);

/// A fresh mailbox, as the two ends that share it.
pub(crate) fn mailbox<T>() -> (End<T>, End<T>) {
    let shared = Arc::new(Mailbox {
        inbox: Mutex::new(Inbox {
            items: VecDeque::new(),
            parked: false,
            closed: false,
        }),
        ready: Condvar::new(),
    });
    (End(Arc::clone(&shared)), End(shared))
}

impl<T> End<T> {
    /// Enqueues `items` in order under one lock and wakes the consumer
    /// once — only if it is parked and there is something to take.
    /// Returns `false`, enqueuing nothing, once the mailbox is closed.
    pub(crate) fn push_all(&self, items: impl IntoIterator<Item = T>) -> bool {
        let mut inbox = self.0.inbox.lock().expect("mailbox poisoned");
        if inbox.closed {
            return false;
        }
        inbox.items.extend(items);
        if !inbox.items.is_empty() {
            self.wake(inbox);
        }
        true
    }

    /// Blocks until something is queued, then moves the whole queue into
    /// the (empty) `batch`. Returns `false` once closed and drained.
    pub(crate) fn take_all(&self, batch: &mut VecDeque<T>) -> bool {
        let mut inbox = self.0.inbox.lock().expect("mailbox poisoned");
        while inbox.items.is_empty() {
            if inbox.closed {
                return false;
            }
            inbox.parked = true;
            inbox = self.0.ready.wait(inbox).expect("mailbox poisoned");
        }
        inbox.parked = false;
        std::mem::swap(&mut inbox.items, batch);
        true
    }

    /// The consumer's exit: refuses further pushes and discards whatever
    /// is still queued, so nothing waits on an answer that will not come.
    pub(crate) fn shut(&self) {
        self.close();
        let mut rest = VecDeque::new();
        while self.take_all(&mut rest) {
            rest.clear();
        }
    }

    /// Refuses further pushes; what is already queued can still be taken.
    fn close(&self) {
        // Poisoned means the peer panicked mid-update: nobody to wake.
        if let Ok(mut inbox) = self.0.inbox.lock() {
            inbox.closed = true;
            self.wake(inbox);
        }
    }

    fn wake(&self, mut inbox: std::sync::MutexGuard<Inbox<T>>) {
        let parked = std::mem::take(&mut inbox.parked);
        drop(inbox);
        if parked {
            self.0.ready.notify_one();
        }
    }
}

impl<T> Drop for End<T> {
    fn drop(&mut self) {
        self.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batches_arrive_whole_and_in_order() {
        let (tx, rx) = mailbox();
        assert!(tx.push_all([1, 2, 3]));
        assert!(tx.push_all([4]));
        let mut batch = VecDeque::new();
        assert!(rx.take_all(&mut batch));
        assert_eq!(batch, [1, 2, 3, 4]);
    }

    #[test]
    fn a_dropped_end_refuses_pushes_but_what_was_queued_still_drains() {
        let (tx, rx) = mailbox();
        assert!(tx.push_all([7]));
        drop(tx);
        let mut batch = VecDeque::new();
        assert!(rx.take_all(&mut batch));
        assert_eq!(batch, [7]);
        batch.clear();
        assert!(!rx.take_all(&mut batch), "closed and drained");
        let (tx, rx) = mailbox();
        drop(rx);
        assert!(!tx.push_all([8]), "nobody left to take it");
    }

    /// No lost wake-up in either direction: every ping parks the server
    /// on an empty mailbox or finds it running, every pong parks the
    /// client on an empty slot or finds it filled.
    #[test]
    fn ping_pong_never_loses_a_wake_up() {
        let (tx, rx) = mailbox::<End<u8>>();
        let server = std::thread::spawn(move || {
            let (mut batch, mut served) = (VecDeque::new(), 0u64);
            while rx.take_all(&mut batch) {
                for slot in batch.drain(..) {
                    slot.push_all([1]);
                    served += 1;
                }
            }
            served
        });
        for depth in [1usize, 32] {
            for _ in 0..100_000 / depth {
                let (slots, waiters): (Vec<_>, Vec<_>) = (0..depth).map(|_| mailbox()).unzip();
                assert!(tx.push_all(slots));
                for waiter in waiters {
                    let mut pong = VecDeque::new();
                    assert!(waiter.take_all(&mut pong));
                    assert_eq!(pong, [1]);
                }
            }
        }
        drop(tx);
        assert_eq!(server.join().unwrap(), 100_000 / 32 * 32 + 100_000);
    }
}
