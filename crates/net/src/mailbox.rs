//! The queue under the reactor carrier: quiet pushes, take-all, woken
//! by the waiter.
//!
//! A batch is enqueued under one lock and wakes nobody. The consumer is
//! woken by the first client that waits on a reply still missing (see
//! [`SlotEnd::wait`]), or by the mailbox closing, and it takes its
//! *whole* queue per wake-up. So every batch begun before the first wait
//! — on any number of endpoints of one reactor — is served in one
//! activation: one context switch each way per round trip, not one per
//! batch. Its replies come back through [`slots`], allocated once for
//! the batch.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, Weak};

use crate::few::Few;

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

impl<T> Mailbox<T> {
    fn wake(&self, mut inbox: MutexGuard<Inbox<T>>) {
        let parked = std::mem::take(&mut inbox.parked);
        drop(inbox);
        if parked {
            self.ready.notify_one();
        }
    }
}

/// A consumer a waiter can wake: what the reply slots of a batch hold,
/// so that waiting on a reply still missing wakes whoever owes it.
pub(crate) trait Kick: Send + Sync {
    /// Wakes the consumer if it is parked with something queued.
    fn kick(&self);
}

impl<T: Send> Kick for Mailbox<T> {
    fn kick(&self) {
        // Poisoned means the consumer panicked: nobody to wake.
        if let Ok(inbox) = self.inbox.lock() {
            if !inbox.items.is_empty() {
                self.wake(inbox);
            }
        }
    }
}

impl<T> End<T> {
    /// Enqueues `items` in order under one lock, waking nobody: a parked
    /// consumer stays parked until [`kick`](Self::kick)ed or closed.
    /// Returns `false`, enqueuing nothing, once the mailbox is closed.
    pub(crate) fn push_all(&self, items: impl IntoIterator<Item = T>) -> bool {
        let mut inbox = self.0.inbox.lock().expect("mailbox poisoned");
        if inbox.closed {
            return false;
        }
        inbox.items.extend(items);
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
            self.0.wake(inbox);
        }
    }
}

impl<T: Send + 'static> End<T> {
    /// Wakes the consumer if it is parked with something queued.
    pub(crate) fn kick(&self) {
        self.0.kick();
    }

    /// The handle a batch's reply slots wake this mailbox's consumer by.
    /// It is weak: queued replies never keep their own queue alive, or
    /// the mailbox open.
    pub(crate) fn waker(&self) -> Weak<dyn Kick> {
        Arc::downgrade(&self.0) as Weak<dyn Kick>
    }
}

impl<T> Drop for End<T> {
    fn drop(&mut self) {
        self.close();
    }
}

/// The reply slots of one batch of requests — and whether a waiter is
/// parked on them: one allocation per batch, one lock per reply on each
/// side.
pub(crate) struct Slots<T> {
    slots: Mutex<(Few<Slot<T>>, bool)>,
    ready: Condvar,
    /// The consumer the batch is queued on, woken by a waiter that finds
    /// its slot still empty.
    server: Weak<dyn Kick>,
}

enum Slot<T> {
    Empty,
    Filled(T),
    /// Taken, given up on, or never to be filled.
    Over,
}

/// One end of one slot: the server's fills it, the client's waits on it.
/// An end dropped before it did leaves the slot [`Slot::Over`]: its peer
/// is refused, or wakes to nothing.
pub(crate) struct SlotEnd<T> {
    shared: Arc<Slots<T>>,
    index: usize,
    done: bool,
}

/// The `n` slots of one batch queued on `server`, as their two ends
/// each.
pub(crate) fn slots<T>(
    n: usize,
    server: Weak<dyn Kick>,
) -> impl Iterator<Item = (SlotEnd<T>, SlotEnd<T>)> {
    let empty = (0..n).map(|_| Slot::Empty).collect();
    let shared = Arc::new(Slots {
        slots: Mutex::new((empty, false)),
        ready: Condvar::new(),
        server,
    });
    let end = move |index| SlotEnd {
        shared: Arc::clone(&shared),
        index,
        done: false,
    };
    (0..n).map(move |index| (end(index), end(index)))
}

impl<T> SlotEnd<T> {
    /// Puts `with` into the slot if it is still empty and wakes whoever
    /// waits on the batch. `false` if the peer was there first.
    fn settle(&mut self, with: Slot<T>) -> bool {
        self.done = true;
        // Poisoned means the peer panicked mid-update: nobody to tell.
        let Ok(mut guard) = self.shared.slots.lock() else {
            return false;
        };
        let (slots, parked) = &mut *guard;
        let slot = &mut slots.as_mut_slice()[self.index];
        let open = matches!(slot, Slot::Empty);
        if open {
            *slot = with;
        }
        if std::mem::take(parked) {
            self.shared.ready.notify_all();
        }
        open
    }

    /// Delivers the reply; `false` once the waiter has gone.
    pub(crate) fn fill(mut self, reply: T) -> bool {
        self.settle(Slot::Filled(reply))
    }

    /// Blocks until the slot is filled; `None` once the filler has gone.
    /// A slot found empty first wakes the server, in case it is parked
    /// on the batch: pushes wake nobody.
    pub(crate) fn wait(mut self) -> Option<T> {
        self.done = true;
        let mut kick = Some(&self.shared.server);
        let mut guard = self.shared.slots.lock().expect("slots poisoned");
        loop {
            let slot = &mut guard.0.as_mut_slice()[self.index];
            match std::mem::replace(slot, Slot::Over) {
                Slot::Filled(reply) => return Some(reply),
                Slot::Over => return None,
                Slot::Empty => *slot = Slot::Empty,
            }
            if let Some(server) = kick.take() {
                drop(guard);
                if let Some(server) = server.upgrade() {
                    server.kick();
                }
                guard = self.shared.slots.lock().expect("slots poisoned");
                continue;
            }
            guard.1 = true;
            guard = self.shared.ready.wait(guard).expect("slots poisoned");
        }
    }
}

impl<T> Drop for SlotEnd<T> {
    fn drop(&mut self) {
        if !self.done {
            self.settle(Slot::Over);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl<T> End<T> {
        /// Whether the consumer is parked in [`take_all`](Self::take_all).
        pub(crate) fn parked(&self) -> bool {
            self.0.inbox.lock().expect("mailbox poisoned").parked
        }
    }

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

    #[test]
    fn a_slot_end_dropped_undone_refuses_or_releases_its_peer() {
        let (server, _) = mailbox::<()>();
        let mut batch = slots::<u8>(3, server.waker());
        let (fill, wait) = batch.next().unwrap();
        assert!(fill.fill(7), "the waiter is still there");
        assert_eq!(wait.wait(), Some(7));
        let (fill, wait) = batch.next().unwrap();
        drop(wait);
        assert!(!fill.fill(8), "nobody left to take it");
        let (fill, wait) = batch.next().unwrap();
        let waiter = std::thread::spawn(move || wait.wait());
        drop(fill);
        assert_eq!(
            waiter.join().unwrap(),
            None,
            "woken to nothing, not left parked"
        );
        assert!(batch.next().is_none());
    }

    /// The same, through the slots of one batch: pushed quietly, woken
    /// by the first waiter that finds its slot empty, and filled from
    /// another thread in any order, every reply reaches exactly its own
    /// waiter.
    #[test]
    fn batch_slots_never_lose_a_wake_up_or_cross_replies() {
        let (tx, rx) = mailbox::<SlotEnd<usize>>();
        let server = std::thread::spawn(move || {
            let mut batch = VecDeque::new();
            while rx.take_all(&mut batch) {
                // Newest first: a waiter's reply is rarely the first filled.
                for (k, slot) in batch.drain(..).enumerate().rev() {
                    assert!(slot.fill(k));
                }
            }
        });
        for depth in [1usize, 2, 32] {
            for _ in 0..20_000 / depth {
                let (fills, waits): (Vec<_>, Vec<_>) = slots(depth, tx.waker()).unzip();
                assert!(tx.push_all(fills));
                for (k, wait) in waits.into_iter().enumerate() {
                    assert_eq!(wait.wait(), Some(k));
                }
            }
        }
        drop(tx);
        server.join().unwrap();
    }

    /// No lost wake-up in either direction: every round of pings is
    /// pushed quietly and kicked once by the client about to wait, which
    /// wakes the server parked on it or finds it running; every pong
    /// parks the client on an empty mailbox or finds it filled.
    #[test]
    fn ping_pong_never_loses_a_wake_up() {
        let (tx, rx) = mailbox::<End<u8>>();
        let server = std::thread::spawn(move || {
            let (mut batch, mut served) = (VecDeque::new(), 0u64);
            while rx.take_all(&mut batch) {
                for slot in batch.drain(..) {
                    slot.push_all([1]);
                    slot.kick();
                    served += 1;
                }
            }
            served
        });
        for depth in [1usize, 32] {
            for _ in 0..100_000 / depth {
                let (slots, waiters): (Vec<_>, Vec<_>) = (0..depth).map(|_| mailbox()).unzip();
                assert!(tx.push_all(slots));
                tx.kick();
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
