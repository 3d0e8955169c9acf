//! The queue under the reactor carrier: quiet pushes, drained by the
//! thread that waits.
//!
//! A batch is enqueued under one lock and wakes nobody: there is no
//! consumer thread to wake. The first client that waits on a reply still
//! missing (see [`SlotEnd::wait`]) claims the mailbox's one `serving`
//! flag and drains the *whole* queue on its own thread ([`End::drain`]),
//! in FIFO order — its own batch and every batch begun before it, on any
//! number of endpoints of one reactor — and fills every slot (flat
//! combining). A waiter that finds the flag set parks on its slot: the
//! drain in progress serves it, because a drain clears the flag only
//! under the lock that finds the queue empty. Replies come back through
//! [`slots`], allocated once for the batch.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex};

use crate::few::Few;

/// Multi-producer queue, served by whichever waiter holds its `serving`
/// flag.
pub(crate) struct Mailbox<T, S> {
    inbox: Mutex<Inbox<T, S>>,
}

struct Inbox<T, S> {
    items: VecDeque<T>,
    /// A drain is in progress: its owner serves whatever is queued until
    /// it finds the queue empty here.
    serving: bool,
    closed: bool,
    /// Items the drains so far reported served.
    served: u64,
    /// What a drain works with, kept here between drains: the queue it
    /// took last, emptied (so pushes reuse its capacity), and the scratch
    /// it serves with.
    spare: VecDeque<T>,
    scratch: S,
}

/// One end of a shared mailbox. Dropping an end closes the mailbox: what
/// is queued can still be drained, nothing more can be pushed.
pub(crate) struct End<T, S>(Arc<Mailbox<T, S>>);

/// A fresh mailbox, as the two ends that share it.
pub(crate) fn mailbox<T, S: Default>() -> (End<T, S>, End<T, S>) {
    let shared = Arc::new(Mailbox {
        inbox: Mutex::new(Inbox {
            items: VecDeque::new(),
            serving: false,
            closed: false,
            served: 0,
            spare: VecDeque::new(),
            scratch: S::default(),
        }),
    });
    (End(Arc::clone(&shared)), End(shared))
}

impl<T, S> End<T, S> {
    /// Enqueues `items` in order under one lock, waking nobody: they wait
    /// for a drain. Returns `false`, enqueuing nothing, once the mailbox
    /// is closed.
    pub(crate) fn push_all(&self, items: impl IntoIterator<Item = T>) -> bool {
        let mut inbox = self.0.inbox.lock().expect("mailbox poisoned");
        if inbox.closed {
            return false;
        }
        inbox.items.extend(items);
        true
    }

    /// Refuses further pushes; what is already queued can still be
    /// drained.
    pub(crate) fn close(&self) {
        // Poisoned means a pusher panicked mid-update: nothing to refuse.
        if let Ok(mut inbox) = self.0.inbox.lock() {
            inbox.closed = true;
        }
    }
}

impl<T, S: Default> End<T, S> {
    /// Claims the `serving` flag and serves the whole queue on the calling
    /// thread, in FIFO order, batch after batch until it finds the queue
    /// empty; `serve` reports whether an item counts as served. Returns
    /// everything the mailbox's drains have counted so far — or `None`,
    /// serving nothing, if a drain is already in progress: that one
    /// serves whatever is queued now, for it clears the flag only under
    /// the lock that finds the queue empty.
    ///
    /// The one condition it relies on: `serve` never waits on a reply
    /// from this mailbox. It would park on the drain it runs inside.
    pub(crate) fn drain(&self, mut serve: impl FnMut(T, &mut S) -> bool) -> Option<u64> {
        let mut inbox = self.0.inbox.lock().expect("mailbox poisoned");
        if inbox.serving {
            return None;
        }
        inbox.serving = true;
        let unwound = Unwound(&self.0);
        let mut batch = std::mem::take(&mut inbox.spare);
        let mut scratch = std::mem::take(&mut inbox.scratch);
        while !inbox.items.is_empty() {
            std::mem::swap(&mut inbox.items, &mut batch);
            drop(inbox);
            let mut served = 0;
            for item in batch.drain(..) {
                served += u64::from(serve(item, &mut scratch));
            }
            inbox = self.0.inbox.lock().expect("mailbox poisoned");
            inbox.served += served;
        }
        std::mem::forget(unwound);
        inbox.serving = false;
        (inbox.spare, inbox.scratch) = (batch, scratch);
        Some(inbox.served)
    }
}

/// Ends a drain that a panicking `serve` unwinds out of: the mailbox
/// closes and drops what is queued, so its waiters wake to nothing
/// instead of parking behind a drain that is gone.
struct Unwound<'a, T, S>(&'a Mailbox<T, S>);

impl<T, S> Drop for Unwound<'_, T, S> {
    fn drop(&mut self) {
        let Ok(mut inbox) = self.0.inbox.lock() else {
            return;
        };
        (inbox.serving, inbox.closed) = (false, true);
        let queued = std::mem::take(&mut inbox.items);
        drop(inbox);
        drop(queued);
    }
}

impl<T, S> Drop for End<T, S> {
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

/// The `n` slots of one batch, as their two ends each.
pub(crate) fn slots<T>(n: usize) -> impl Iterator<Item = (SlotEnd<T>, SlotEnd<T>)> {
    let empty = (0..n).map(|_| Slot::Empty).collect();
    let shared = Arc::new(Slots {
        slots: Mutex::new((empty, false)),
        ready: Condvar::new(),
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
    /// A slot found empty first runs `serve` — the drain of the mailbox
    /// its request is queued on, which serves it unless a drain is
    /// already in progress — and parks only if it is still empty after.
    pub(crate) fn wait(mut self, serve: impl FnOnce()) -> Option<T> {
        self.done = true;
        let mut serve = Some(serve);
        let mut guard = self.shared.slots.lock().expect("slots poisoned");
        loop {
            let slot = &mut guard.0.as_mut_slice()[self.index];
            match std::mem::replace(slot, Slot::Over) {
                Slot::Filled(reply) => return Some(reply),
                Slot::Over => return None,
                Slot::Empty => *slot = Slot::Empty,
            }
            if let Some(serve) = serve.take() {
                drop(guard);
                serve();
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

    impl<T, S> End<T, S> {
        /// Whether a drain is in progress.
        pub(crate) fn serving(&self) -> bool {
            self.0.inbox.lock().expect("mailbox poisoned").serving
        }

        /// Whether pushes are refused.
        pub(crate) fn closed(&self) -> bool {
            self.0.inbox.lock().expect("mailbox poisoned").closed
        }
    }

    impl<T> SlotEnd<T> {
        /// Whether a waiter is parked on this slot's batch.
        pub(crate) fn parked(&self) -> bool {
            self.shared.slots.lock().expect("slots poisoned").1
        }
    }

    /// Drains `end`, collecting what it serves; `None` if a drain was
    /// already in progress.
    fn drained<T>(end: &End<T, ()>) -> Option<Vec<T>> {
        let mut out = Vec::new();
        end.drain(|item, _| {
            out.push(item);
            true
        })?;
        Some(out)
    }

    #[test]
    fn batches_arrive_whole_and_in_order() {
        let (tx, rx) = mailbox();
        assert!(tx.push_all([1, 2, 3]));
        assert!(tx.push_all([4]));
        assert_eq!(drained(&rx), Some(vec![1, 2, 3, 4]));
        assert_eq!(drained(&rx), Some(vec![]), "drained empty");
    }

    #[test]
    fn a_dropped_end_refuses_pushes_but_what_was_queued_still_drains() {
        let (tx, rx) = mailbox();
        assert!(tx.push_all([7]));
        drop(tx);
        assert!(!rx.push_all([9]), "closed");
        assert_eq!(drained(&rx), Some(vec![7]));
        let (tx, rx) = mailbox::<u8, ()>();
        drop(rx);
        assert!(!tx.push_all([8]), "nobody left to take it");
    }

    #[test]
    fn a_slot_end_dropped_undone_refuses_or_releases_its_peer() {
        let mut batch = slots::<u8>(3);
        let (fill, wait) = batch.next().unwrap();
        assert!(fill.fill(7), "the waiter is still there");
        assert_eq!(wait.wait(|| unreachable!("filled already")), Some(7));
        let (fill, wait) = batch.next().unwrap();
        drop(wait);
        assert!(!fill.fill(8), "nobody left to take it");
        let (fill, wait) = batch.next().unwrap();
        let waiter = std::thread::spawn(move || wait.wait(|| ()));
        drop(fill);
        assert_eq!(
            waiter.join().unwrap(),
            None,
            "woken to nothing, not left parked"
        );
        assert!(batch.next().is_none());
    }

    /// A panic out of `serve` ends the drain: the flag is released, the
    /// mailbox closes, and what was queued behind the panicking item is
    /// dropped, so its waiters wake to nothing.
    #[test]
    fn a_drain_unwound_by_a_panic_closes_the_mailbox() {
        let (tx, rx) = mailbox::<SlotEnd<u8>, ()>();
        let (fills, waits): (Vec<_>, Vec<_>) = slots(3).unzip();
        assert!(tx.push_all(fills));
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            rx.drain(|slot, _| {
                assert!(slot.fill(1));
                panic!("a handler panicked")
            })
        }));
        assert!(panicked.is_err());
        let replies: Vec<_> = waits.into_iter().map(|w| w.wait(|| ())).collect();
        assert_eq!(replies, [Some(1), None, None]);
        assert!(!tx.push_all([]), "closed");
        assert_eq!(drained(&rx).map(|v| v.len()), Some(0), "flag released");
    }

    /// One batch of `depth` slots per round, pushed and then waited on in
    /// order by each of `threads` clients of one mailbox: each wait either
    /// drains the queue itself or parks on the drain in progress.
    fn rounds(threads: usize, depth: usize, rounds: usize) -> u64 {
        let (tx, rx) = mailbox::<(SlotEnd<usize>, usize), ()>();
        let (tx, rx) = (Arc::new(tx), Arc::new(rx));
        let clients: Vec<_> = (0..threads)
            .map(|t| {
                let (tx, rx) = (Arc::clone(&tx), Arc::clone(&rx));
                std::thread::spawn(move || {
                    for round in 0..rounds {
                        let tag = |k| (t * rounds + round) * depth + k;
                        let (fills, waits): (Vec<_>, Vec<_>) = slots(depth).unzip();
                        let items = fills.into_iter().enumerate();
                        assert!(tx.push_all(items.map(|(k, fill)| (fill, tag(k)))));
                        let serve = || {
                            rx.drain(|(slot, tag), _| slot.fill(tag));
                        };
                        for (k, wait) in waits.into_iter().enumerate() {
                            assert_eq!(wait.wait(serve), Some(tag(k)));
                        }
                    }
                })
            })
            .collect();
        clients.into_iter().for_each(|c| c.join().unwrap());
        rx.drain(|_, _| true).expect("no drain left running")
    }

    /// Pushed quietly, drained by whichever waiter finds its slot empty
    /// and no drain running, every reply reaches exactly its own waiter.
    #[test]
    fn batch_slots_never_lose_a_wake_up_or_cross_replies() {
        for depth in [1usize, 2, 32] {
            let per_thread = 5_000 / depth;
            assert_eq!(
                rounds(4, depth, per_thread),
                (4 * per_thread * depth) as u64
            );
        }
    }

    /// No lost wake-up: two clients each wait on a batch of one, round
    /// after round, so every wait races the other client's drain, and a
    /// drain that cleared its flag without re-checking the queue would
    /// leave one of them parked for good.
    #[test]
    fn ping_pong_never_loses_a_wake_up() {
        assert_eq!(rounds(2, 1, 50_000), 100_000);
    }
}
