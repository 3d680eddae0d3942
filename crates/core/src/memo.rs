//! A keyed memo for chip-independent artifacts.
//!
//! Pattern sets and dictionary banks depend only on the circuit, the
//! configuration and the hypothesized site — never on the chip under
//! diagnosis — so they are built once per key and shared. [`Memo`] is
//! the one primitive behind every such section of the
//! [`DictionaryCache`](crate::DictionaryCache):
//!
//! * a map lock held only to look up or insert a key's slot;
//! * a per-key mutex held across the build, so concurrent requests for
//!   the *same* key block rather than duplicate the work, while requests
//!   for different keys proceed in parallel;
//! * poison recovery: a build that panics leaves its slot reset to
//!   `V::default()` (empty), so the next caller rebuilds instead of
//!   inheriting a half-built value or a poisoned lock.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Mutex, PoisonError, RwLock};

/// A map from keys to independently locked slots. See the module docs.
#[derive(Debug)]
pub(crate) struct Memo<K, V> {
    slots: RwLock<HashMap<K, Arc<Mutex<V>>>>,
}

impl<K, V> Default for Memo<K, V> {
    fn default() -> Self {
        Memo {
            slots: RwLock::default(),
        }
    }
}

impl<K: Eq + Hash, V: Default> Memo<K, V> {
    /// Runs `f` on the slot for `key` (created as `V::default()` on first
    /// use) while holding that slot's lock, and returns its result.
    /// Callers build or extend the value in place; whatever `f` leaves
    /// behind is what the next caller for `key` sees.
    pub(crate) fn with<R>(&self, key: K, f: impl FnOnce(&mut V) -> R) -> R {
        let slot = self.slot(key);
        let mut value = slot.lock().unwrap_or_else(|poisoned| {
            // An earlier build panicked mid-way: discard what it left.
            let mut value = poisoned.into_inner();
            *value = V::default();
            slot.clear_poison();
            value
        });
        f(&mut value)
    }

    /// Number of keys requested so far.
    pub(crate) fn len(&self) -> usize {
        self.slots
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    fn slot(&self, key: K) -> Arc<Mutex<V>> {
        if let Some(slot) = self
            .slots
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .get(&key)
        {
            return Arc::clone(slot);
        }
        let mut slots = self.slots.write().unwrap_or_else(PoisonError::into_inner);
        Arc::clone(slots.entry(key).or_default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{mpsc, Barrier};
    use std::time::Duration;

    #[test]
    fn racing_threads_build_one_key_once() {
        let memo: Memo<u32, Option<u64>> = Memo::default();
        let builds = AtomicUsize::new(0);
        let barrier = Barrier::new(8);
        let values: Vec<u64> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    s.spawn(|| {
                        barrier.wait();
                        memo.with(7, |slot| {
                            *slot.get_or_insert_with(|| {
                                builds.fetch_add(1, Ordering::SeqCst);
                                std::thread::sleep(Duration::from_millis(20));
                                42
                            })
                        })
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(builds.load(Ordering::SeqCst), 1, "key built more than once");
        assert!(values.iter().all(|&v| v == 42));
        assert_eq!(memo.len(), 1);
    }

    #[test]
    fn panicking_build_leaves_the_slot_empty_for_a_rebuild() {
        let memo: Memo<&str, Vec<u32>> = Memo::default();
        let crashed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            memo.with("k", |slot| {
                slot.push(1); // half-built state the panic must not leak
                panic!("build failed");
            })
        }));
        assert!(crashed.is_err());
        let rebuilt = memo.with("k", |slot| {
            assert!(slot.is_empty(), "panicked build leaked {slot:?}");
            slot.extend([1, 2, 3]);
            slot.clone()
        });
        assert_eq!(rebuilt, vec![1, 2, 3]);
        assert_eq!(memo.with("k", |slot| slot.len()), 3, "rebuild not kept");
    }

    #[test]
    fn a_slow_build_does_not_block_another_key() {
        let memo: &Memo<u32, Option<u32>> = &Memo::default();
        let (entered_tx, entered_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        std::thread::scope(|s| {
            s.spawn(move || {
                memo.with(1, |slot| {
                    entered_tx.send(()).unwrap();
                    release_rx.recv().unwrap();
                    *slot = Some(1);
                })
            });
            entered_rx.recv().unwrap();
            // Key 1's build is parked holding its slot lock; key 2 must
            // still complete.
            let (done_tx, done_rx) = mpsc::channel();
            s.spawn(move || done_tx.send(memo.with(2, |slot| *slot.insert(2))).unwrap());
            let other = done_rx.recv_timeout(Duration::from_secs(10));
            release_tx.send(()).unwrap();
            assert_eq!(other, Ok(2), "key 2 waited on key 1's build");
        });
        assert_eq!(memo.with(1, |slot| *slot), Some(1));
    }
}
