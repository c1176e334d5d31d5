//! A bounded least-recently-used map with O(1) lookup, insert and
//! eviction — the one eviction policy behind the service's caches (the
//! derived-site cache and the page-analysis cache).
//!
//! Entries live in a slab threaded by a doubly linked recency list, most
//! recent at the head; a `HashMap` maps each key to its slab slot. A hit
//! moves its entry to the head; an insert past capacity reuses the tail
//! entry's slot. That evicts exactly the entry a scan for the oldest
//! last-use stamp would pick, without the scan.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::Hash;

/// "No slot" in the recency links.
const NIL: u32 = u32::MAX;

struct Slot<K, V> {
    key: K,
    value: V,
    /// Next more recently used entry.
    newer: u32,
    /// Next less recently used entry.
    older: u32,
}

/// A map holding at most `capacity` entries that evicts the least recently
/// used one. [`get`](Lru::get) and [`insert`](Lru::insert) count as uses;
/// [`contains`](Lru::contains) does not.
///
/// ```
/// use cp_serve::lru::Lru;
///
/// let mut lru = Lru::new(2);
/// lru.insert("a", 1);
/// lru.insert("b", 2);
/// assert_eq!(lru.get("a"), Some(&1)); // "b" is now the oldest...
/// lru.insert("c", 3); // ...so it goes.
/// assert!(lru.contains("a") && lru.contains("c") && !lru.contains("b"));
/// ```
pub struct Lru<K, V> {
    capacity: usize,
    map: HashMap<K, u32>,
    slots: Vec<Slot<K, V>>,
    /// Most recently used slot.
    head: u32,
    /// Least recently used slot: the next victim.
    tail: u32,
}

impl<K: Hash + Eq + Clone, V> Lru<K, V> {
    /// An empty map holding at most `capacity` entries (minimum 1).
    pub fn new(capacity: usize) -> Self {
        Lru {
            capacity: capacity.max(1),
            map: HashMap::new(),
            slots: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Whether `key` is present. Not a use: the entry's age is unchanged.
    pub fn contains<Q: Hash + Eq + ?Sized>(&self, key: &Q) -> bool
    where
        K: Borrow<Q>,
    {
        self.map.contains_key(key)
    }

    /// The value for `key`, marking it the most recently used.
    pub fn get<Q: Hash + Eq + ?Sized>(&mut self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
    {
        let slot = *self.map.get(key)?;
        self.touch(slot);
        Some(&self.slots[slot as usize].value)
    }

    /// Inserts `value` under `key` unless the key is present, in which case
    /// the resident value stays and `value` is dropped. Either way the
    /// entry becomes the most recently used, and the returned reference is
    /// the resident value. An insert past capacity evicts the least
    /// recently used entry.
    pub fn insert(&mut self, key: K, value: V) -> &V {
        let slot = match self.map.get(&key) {
            Some(&slot) => {
                self.touch(slot);
                slot
            }
            None if self.slots.len() < self.capacity => {
                let slot = self.slots.len() as u32;
                self.map.insert(key.clone(), slot);
                self.slots.push(Slot { key, value, newer: NIL, older: NIL });
                self.link_head(slot);
                slot
            }
            None => {
                let slot = self.tail;
                self.unlink(slot);
                let victim = &mut self.slots[slot as usize];
                self.map.remove(&victim.key);
                self.map.insert(key.clone(), slot);
                victim.key = key;
                victim.value = value;
                self.link_head(slot);
                slot
            }
        };
        &self.slots[slot as usize].value
    }

    fn touch(&mut self, slot: u32) {
        if self.head != slot {
            self.unlink(slot);
            self.link_head(slot);
        }
    }

    fn unlink(&mut self, slot: u32) {
        let Slot { newer, older, .. } = self.slots[slot as usize];
        match newer {
            NIL => self.head = older,
            n => self.slots[n as usize].older = older,
        }
        match older {
            NIL => self.tail = newer,
            o => self.slots[o as usize].newer = newer,
        }
    }

    fn link_head(&mut self, slot: u32) {
        let old_head = self.head;
        let entry = &mut self.slots[slot as usize];
        entry.newer = NIL;
        entry.older = old_head;
        match old_head {
            NIL => self.tail = slot,
            h => self.slots[h as usize].newer = slot,
        }
        self.head = slot;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cp_runtime::rng::{Rng, SeedableRng, StdRng};

    /// The eviction rule the caches used before: stamp every use with a
    /// tick and, past capacity, drop the entry with the oldest stamp.
    struct TickModel {
        capacity: usize,
        stamps: HashMap<u32, u64>,
        tick: u64,
    }

    impl TickModel {
        fn get(&mut self, key: u32) -> bool {
            self.tick += 1;
            match self.stamps.get_mut(&key) {
                Some(stamp) => {
                    *stamp = self.tick;
                    true
                }
                None => false,
            }
        }

        /// Inserts (or re-stamps) `key`; returns the evicted key, if any.
        fn insert(&mut self, key: u32) -> Option<u32> {
            self.tick += 1;
            self.stamps.insert(key, self.tick);
            if self.stamps.len() <= self.capacity {
                return None;
            }
            let (&victim, _) = self.stamps.iter().min_by_key(|(_, &stamp)| stamp)?;
            self.stamps.remove(&victim);
            Some(victim)
        }
    }

    #[test]
    fn victims_match_the_tick_scan_model() {
        let mut rng = StdRng::seed_from_u64(0x1e0);
        for capacity in [1, 2, 3, 8, 64] {
            let mut lru = Lru::new(capacity);
            let mut model = TickModel { capacity, stamps: HashMap::new(), tick: 0 };
            let keys = capacity as u64 * 3;
            let mut victims = 0;
            for _ in 0..20_000 {
                let key = rng.gen_range(0..keys) as u32;
                if rng.gen_range(0..2u32) == 0 {
                    assert_eq!(lru.get(&key).copied(), model.get(key).then_some(key));
                } else {
                    assert_eq!(*lru.insert(key, key), key);
                    if let Some(victim) = model.insert(key) {
                        assert!(!lru.contains(&victim), "capacity {capacity}: kept {victim}");
                        victims += 1;
                    }
                }
                assert_eq!(lru.len(), model.stamps.len());
                assert!(model.stamps.keys().all(|k| lru.contains(k)));
            }
            assert!(victims > 1_000, "capacity {capacity}: only {victims} evictions");
        }
    }

    #[test]
    fn insert_of_a_present_key_keeps_the_resident_value() {
        let mut lru = Lru::new(2);
        lru.insert("a", 1);
        lru.insert("b", 2);
        assert_eq!(*lru.insert("a", 10), 1, "resident value kept");
        // The re-insert was a use: "b" is the oldest now.
        lru.insert("c", 3);
        assert!(lru.contains("a") && !lru.contains("b"));
    }

    #[test]
    fn contains_does_not_refresh() {
        let mut lru = Lru::new(2);
        lru.insert("a", 1);
        lru.insert("b", 2);
        assert!(lru.contains("a"));
        lru.insert("c", 3);
        assert!(!lru.contains("a"), "contains must not count as a use");
    }
}
