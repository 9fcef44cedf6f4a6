//! Immutable-once-published chunked hash tables.
//!
//! A [`Table`] is one shard's snapshot: a fixed directory of small
//! open-addressed chunks. Writers build a new table off to the side
//! (copy-on-write), publish it with a single pointer store, and never
//! mutate a published table again. The copy is cheap because it is
//! shallow: [`Table::clone_with`] copies the directory, shares every
//! untouched chunk with its source through an [`Arc`], and rebuilds only
//! the one chunk the key lives in — about 8 KiB ([`CHUNK_ENTRIES`]
//! entries at the ½ load factor), whatever the shard holds.
//!
//! Chunks are immutable too, which is what keeps the reader fast path
//! small: a lookup is a plain load of the key's directory entry, a probe
//! over plain `u64` keys (no atomics needed for data that cannot
//! change), and — for a present key — exactly **one** instrumented
//! atomic load, of its value cell. The model checker's purity test
//! counts on that: a read must be `epoch load → pin store → primary
//! fence → table-pointer load → one value load → unpin store` and
//! nothing else. A chunk is nothing but its slots (`Arc<[Slot]>`), and a
//! key shares its 16-byte slot with its value cell, so the directory
//! entry points straight at the probed slots and a hit reads one cache
//! line of chunk data. Readers never touch the chunks' reference counts;
//! only the writer (building and reclaiming tables) does.
//!
//! Value cells are `AtomicU64` (not plain `u64`) for one reason:
//! `Table::poison_chunk`. In [`ReclaimMode::Poison`](crate::shard::ReclaimMode)
//! the shard models allocator reuse by overwriting the values of the
//! chunk a reclaimed table lost to its successor with [`POISON`] while
//! keeping the allocation alive — so a protocol bug (reading a table the
//! writer already reclaimed) becomes a memory-safe, deterministic torn
//! read the checker can observe, instead of an actual use-after-free.

use lbmf::hooks;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Key sentinel marking an empty probe slot. `u64::MAX` is therefore the
/// one key value the store cannot hold.
pub const EMPTY_KEY: u64 = u64::MAX;

/// The value written through reclaimed chunks in poison mode: a pattern
/// no test workload ever stores, so reading it proves a use-after-reclaim.
pub const POISON: u64 = 0xDEAD_DEAD_DEAD_DEAD;

/// Fibonacci-hash multiplier (2⁶⁴/φ), the same mixer the workload
/// generator and the DES schedule use for shard routing.
pub const HASH_MUL: u64 = 0x9E37_79B9_7F4A_7C15;

/// Entries one chunk is sized for when a table is built: 512 probe
/// slots at the ½ load factor, 8 KiB of keys and value cells. A chunk
/// that outgrows it doubles on its own; the directory never changes.
pub const CHUNK_ENTRIES: usize = 256;

/// One probe slot: a key (`EMPTY_KEY` when free) and its value cell.
#[derive(Debug)]
struct Slot {
    key: u64,
    val: AtomicU64,
}

impl Slot {
    fn new(key: u64, val: u64) -> Slot {
        Slot {
            key,
            val: AtomicU64::new(val),
        }
    }
}

/// A chunk: a power-of-two run of linear-probe slots. Immutable once its
/// table is published; shared by every table that did not replace it.
type Chunk = Arc<[Slot]>;

fn empty_chunk(cap: usize) -> Chunk {
    debug_assert!(cap.is_power_of_two() && cap >= 4);
    (0..cap).map(|_| Slot::new(EMPTY_KEY, 0)).collect()
}

fn chunk_bytes(chunk: &[Slot]) -> usize {
    // The `Arc`'s two reference counts, then the slots.
    2 * std::mem::size_of::<usize>() + std::mem::size_of_val(chunk)
}

/// The home slot of `key` in a `cap`-slot chunk of a directory with
/// `dir_bits` bits: the top hash bits below the directory's. Not the
/// low bits of `hash >> 32`, which the store's shard routing consumes:
/// those are alike for every key of one shard, and would leave most
/// slots with no key homed there.
#[inline]
fn home(key: u64, dir_bits: u32, cap: usize) -> usize {
    ((key.wrapping_mul(HASH_MUL) << dir_bits) >> (64 - cap.trailing_zeros())) as usize
}

/// The slot of `chunk` holding `key`, by plain loads of immutable keys.
#[inline]
fn find(chunk: &[Slot], dir_bits: u32, key: u64) -> Option<usize> {
    let mask = chunk.len() - 1;
    let mut i = home(key, dir_bits, chunk.len());
    // The ½ load-factor invariant guarantees an EMPTY_KEY slot, but that
    // is only debug-asserted at build time; bound the probe at one full
    // sweep so a violated invariant in a release build degrades to a
    // miss, never an infinite loop on the fast path.
    for _ in 0..chunk.len() {
        let k = chunk[i].key;
        if k == key {
            return Some(i);
        }
        if k == EMPTY_KEY {
            return None;
        }
        i = (i + 1) & mask;
    }
    None
}

/// Pre-publication insert of a key known to be absent into a chunk
/// still private to the building writer; returns the probe length.
fn place(chunk: &mut [Slot], dir_bits: u32, key: u64, val: u64) -> usize {
    debug_assert_ne!(key, EMPTY_KEY);
    let mask = chunk.len() - 1;
    let mut i = home(key, dir_bits, chunk.len());
    let mut probes = 1;
    while chunk[i].key != EMPTY_KEY {
        debug_assert_ne!(chunk[i].key, key, "place() of a present key");
        debug_assert!(probes <= chunk.len(), "chunk full");
        i = (i + 1) & mask;
        probes += 1;
    }
    chunk[i] = Slot::new(key, val);
    probes
}

/// Live `(key, value)` pairs of one chunk (writer-side, plain loads).
fn entries(chunk: &[Slot]) -> impl Iterator<Item = (u64, u64)> + '_ {
    chunk
        .iter()
        .filter(|s| s.key != EMPTY_KEY)
        .map(|s| (s.key, s.val.load(Ordering::Relaxed)))
}

/// A fresh `cap`-slot chunk holding `old`'s entries except `key`, plus
/// `key -> val` when given; returns it with its worst probe length.
fn rehash(old: &[Slot], dir_bits: u32, cap: usize, key: u64, val: Option<u64>) -> (Chunk, usize) {
    let mut next = empty_chunk(cap);
    let slots = Arc::get_mut(&mut next).expect("fresh chunk");
    let mut probes = 0;
    for (k, v) in entries(old)
        .filter(|&(k, _)| k != key)
        .chain(val.map(|v| (key, v)))
    {
        probes = probes.max(place(slots, dir_bits, k, v));
    }
    (next, probes)
}

/// One shard snapshot: a fixed power-of-two directory of linear-probe
/// chunks, selected by the top bits of the key's hash.
#[derive(Debug)]
pub struct Table {
    /// log2 of the directory length.
    dir_bits: u32,
    chunks: Box<[Chunk]>,
    len: usize,
    /// Bounds the probe length of every present key: the worst any
    /// placement needed in this table or the tables it derives from.
    /// Computed at build time, on the writer's side — the read path must
    /// never be instrumented to measure itself, so the health plane's
    /// probe-length gauge reads this immutable field instead.
    probe_hwm: usize,
}

impl Table {
    /// An empty table able to hold `at_least` entries below the ½ load
    /// factor: a directory of `⌈at_least / CHUNK_ENTRIES⌉` chunks rounded
    /// up to a power of two, each with room for its share (capacity the
    /// next power of two of twice that share, min 4 slots).
    pub fn with_capacity(at_least: usize) -> Table {
        let at_least = at_least.max(1);
        let dir_len = at_least.div_ceil(CHUNK_ENTRIES).next_power_of_two();
        let cap = (at_least.div_ceil(dir_len) * 2).next_power_of_two().max(4);
        Table {
            dir_bits: dir_len.trailing_zeros(),
            chunks: (0..dir_len).map(|_| empty_chunk(cap)).collect(),
            len: 0,
            probe_hwm: 0,
        }
    }

    /// Upper bound on the probe length of any present key (slots
    /// inspected, 1 = home hit; 0 for a table never written). Immutable
    /// once published.
    pub fn probe_hwm(&self) -> usize {
        self.probe_hwm
    }

    /// Heap footprint of this snapshot (header, directory and every
    /// chunk, shared or not).
    pub fn bytes(&self) -> usize {
        self.directory_bytes() + self.chunks.iter().map(|c| chunk_bytes(c)).sum::<usize>()
    }

    /// What a retired snapshot pins on its own once its successor is
    /// published: the header, the directory, and chunk `index` — the one
    /// chunk the successor replaced. Every other chunk is shared with the
    /// successor and stays alive with it.
    pub(crate) fn retired_bytes(&self, index: usize) -> usize {
        self.directory_bytes() + chunk_bytes(&self.chunks[index])
    }

    fn directory_bytes(&self) -> usize {
        std::mem::size_of::<Table>() + std::mem::size_of_val(&*self.chunks)
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the table holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Probe-slot count, over all chunks.
    pub fn capacity(&self) -> usize {
        self.chunks.iter().map(|c| c.len()).sum()
    }

    /// Directory length (a power of two, fixed at construction).
    pub fn chunk_count(&self) -> usize {
        self.chunks.len()
    }

    /// The directory slot of `key`: the top `log2(chunk_count)` bits of
    /// its hash.
    #[inline]
    pub fn chunk_index(&self, key: u64) -> usize {
        // Two shifts, so a one-chunk directory (dir_bits = 0) shifts by
        // 63 + 1 without overflowing the shift amount.
        ((key.wrapping_mul(HASH_MUL) >> 1) >> (63 - self.dir_bits)) as usize
    }

    /// The chunk `key` lives in and its slot there, if present.
    #[inline]
    fn locate(&self, key: u64) -> (&Chunk, Option<usize>) {
        let chunk = &self.chunks[self.chunk_index(key)];
        (chunk, find(chunk, self.dir_bits, key))
    }

    /// Reader fast-path lookup. The directory entry and the key probe are
    /// plain loads of immutable data; a hit performs exactly one
    /// instrumented value load (the only scheduling point the check
    /// harness sees inside the table).
    #[inline]
    pub fn get(&self, key: u64) -> Option<u64> {
        debug_assert_ne!(key, EMPTY_KEY, "u64::MAX is the empty sentinel");
        let (chunk, slot) = self.locate(key);
        slot.map(|i| hooks::load_u64(&chunk[i].val, Ordering::Acquire))
    }

    /// Writer-side lookup of the committed value (plain atomics; callers
    /// hold the shard's writer mutex, published tables are immutable).
    pub fn peek(&self, key: u64) -> Option<u64> {
        let (chunk, slot) = self.locate(key);
        slot.map(|i| chunk[i].val.load(Ordering::Relaxed))
    }

    /// Live `(key, value)` pairs, chunk by chunk in probe order
    /// (writer-side, plain loads).
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.chunks.iter().flat_map(|c| entries(c))
    }

    /// Copy-on-write derivation: this table's entries with `key` updated
    /// (`Some(val)`), or removed (`None`). Copies the directory, shares
    /// every other chunk, and rebuilds `key`'s chunk: an update, or an
    /// insert that keeps the chunk within the ½ load factor, copies its
    /// slots as they are; a removal (linear probing cannot just empty a
    /// slot) rehashes them, and an insert past the load factor rehashes
    /// them into a chunk of twice the size. Chunks never shrink (serving
    /// tiers size for their peak).
    pub fn clone_with(&self, key: u64, val: Option<u64>) -> Table {
        let (index, dir_bits) = (self.chunk_index(key), self.dir_bits);
        let old = &self.chunks[index];
        let (found, cap) = (find(old, dir_bits, key), old.len());
        let (chunk, probes) = match val {
            None => rehash(old, dir_bits, cap, key, None),
            Some(v) => {
                let mut occupied = 0;
                let mut next: Chunk = old
                    .iter()
                    .map(|s| {
                        occupied += usize::from(s.key != EMPTY_KEY);
                        Slot::new(s.key, s.val.load(Ordering::Relaxed))
                    })
                    .collect();
                let slots = Arc::get_mut(&mut next).expect("fresh chunk");
                match found {
                    Some(i) => {
                        slots[i] = Slot::new(key, v);
                        (next, 0)
                    }
                    None if (occupied + 1) * 2 <= cap => {
                        let probes = place(slots, dir_bits, key, v);
                        (next, probes)
                    }
                    // Full: drop the copy and grow (rare — once per
                    // doubling of one chunk).
                    None => rehash(old, dir_bits, cap * 2, key, val),
                }
            }
        };
        let mut chunks = self.chunks.clone();
        chunks[index] = chunk;
        Table {
            dir_bits,
            chunks,
            len: self.len - usize::from(found.is_some()) + usize::from(val.is_some()),
            probe_hwm: self.probe_hwm.max(probes),
        }
    }

    /// Model allocator reuse of the chunk a reclaimed table lost to its
    /// successor: overwrite its value cells with [`POISON`]. Plain
    /// (immediately visible) stores on purpose — a reader still holding
    /// this table must be able to observe the tear at once, under the
    /// harness and on hardware alike. The other chunks are shared with
    /// live tables and must never be poisoned.
    pub(crate) fn poison_chunk(&self, index: usize) {
        for s in self.chunks[index].iter() {
            s.val.store(POISON, Ordering::SeqCst);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbmf_prng::{Rng, SplitMix64};
    use std::collections::BTreeMap;

    /// A key of `t` that lives in a different chunk from `key`.
    fn key_in_other_chunk(t: &Table, key: u64) -> u64 {
        (0..)
            .find(|&k| t.chunk_index(k) != t.chunk_index(key))
            .expect("a multi-chunk table")
    }

    #[test]
    fn empty_table_misses() {
        let t = Table::with_capacity(8);
        assert_eq!(t.len(), 0);
        assert!(t.is_empty());
        assert_eq!(t.get(42), None);
        assert_eq!(t.peek(42), None);
    }

    #[test]
    fn directory_is_sized_from_the_capacity_hint() {
        for (hint, dir, cap) in [
            (1, 1, 4),
            (4, 1, 8),
            (CHUNK_ENTRIES, 1, 2 * CHUNK_ENTRIES),
            (CHUNK_ENTRIES + 1, 2, 4 * CHUNK_ENTRIES),
            (8 * 1024, 32, 16 * 1024),
        ] {
            let t = Table::with_capacity(hint);
            assert_eq!(t.chunk_count(), dir, "hint {hint}");
            assert_eq!(t.capacity(), cap, "hint {hint}");
        }
    }

    #[test]
    fn clone_with_inserts_updates_and_removes() {
        let t0 = Table::with_capacity(4);
        let t1 = t0.clone_with(7, Some(70));
        let t2 = t1.clone_with(9, Some(90));
        let t3 = t2.clone_with(7, Some(71)); // update in place
        assert_eq!(t3.len(), 2);
        assert_eq!(t3.get(7), Some(71));
        assert_eq!(t3.get(9), Some(90));
        // The originals are untouched (copy-on-write).
        assert_eq!(t2.get(7), Some(70));
        let t4 = t3.clone_with(7, None);
        assert_eq!(t4.len(), 1);
        assert_eq!(t4.get(7), None);
        assert_eq!(t4.get(9), Some(90));
        // Removing a missing key is a plain copy.
        assert_eq!(t4.clone_with(1234, None).len(), 1);
    }

    #[test]
    fn grows_past_load_factor_and_keeps_every_entry() {
        let mut t = Table::with_capacity(1);
        let initial_cap = t.capacity();
        for k in 0..200u64 {
            t = t.clone_with(k, Some(k * 10));
        }
        assert_eq!(t.len(), 200);
        assert!(t.capacity() > initial_cap);
        assert!(t.len() * 2 <= t.capacity(), "load factor bound holds");
        for k in 0..200u64 {
            assert_eq!(t.get(k), Some(k * 10), "key {k}");
        }
        assert_eq!(t.get(200), None);
    }

    #[test]
    fn chunks_grow_on_their_own() {
        let mut t = Table::with_capacity(2 * CHUNK_ENTRIES);
        assert_eq!(t.chunk_count(), 2);
        let hot = t.chunk_index(0);
        let initial = t.chunks[hot].len();
        // Fill one chunk well past its sizing; the other stays as built.
        let mut k = 0u64;
        while entries(&t.chunks[hot]).count() < 2 * CHUNK_ENTRIES {
            if t.chunk_index(k) == hot {
                t = t.clone_with(k, Some(k));
            }
            k += 1;
        }
        assert!(t.chunks[hot].len() > initial);
        assert_eq!(t.chunks[1 - hot].len(), initial);
        assert!(entries(&t.chunks[hot]).count() * 2 <= t.chunks[hot].len());
        assert_eq!(t.chunk_count(), 2, "the directory never changes");
    }

    #[test]
    fn colliding_keys_probe_linearly() {
        // Six keys in an 8-slot table collide by pigeonhole.
        let mut t = Table::with_capacity(4);
        for k in [1u64, 2, 3, 4, 5, 6] {
            t = t.clone_with(k, Some(100 + k));
        }
        for k in [1u64, 2, 3, 4, 5, 6] {
            assert_eq!(t.get(k), Some(100 + k));
        }
    }

    #[test]
    fn poison_overwrites_one_chunks_values_but_not_keys() {
        let t = Table::with_capacity(2 * CHUNK_ENTRIES);
        let other = key_in_other_chunk(&t, 5);
        let t = t.clone_with(5, Some(55)).clone_with(other, Some(66));
        t.poison_chunk(t.chunk_index(5));
        assert_eq!(t.get(5), Some(POISON), "probe still finds the key");
        assert_eq!(t.get(6), None);
        assert_eq!(t.get(other), Some(66), "the other chunk is untouched");
    }

    #[test]
    fn probe_hwm_tracks_worst_displacement_and_bytes_scale() {
        let empty = Table::with_capacity(8);
        assert_eq!(empty.probe_hwm(), 0);
        // A one-entry table hits its home slot.
        let one = empty.clone_with(5, Some(50));
        assert_eq!(one.probe_hwm(), 1);
        // Packing 6 keys into capacity 16 forces at least one collision
        // chain; the HWM bounds every get's probe count.
        let mut t = Table::with_capacity(4);
        for k in 1u64..=6 {
            t = t.clone_with(k, Some(k));
        }
        assert!(t.probe_hwm() >= 1);
        assert!(t.probe_hwm() <= t.capacity());
        // bytes(): header, one directory entry, one chunk: its reference
        // counts and 16 bytes per probe slot.
        assert_eq!(
            t.bytes(),
            std::mem::size_of::<Table>()
                + std::mem::size_of::<Chunk>()
                + 2 * std::mem::size_of::<usize>()
                + t.capacity() * 16
        );
        assert_eq!(t.retired_bytes(0), t.bytes(), "one chunk: all of it");
        assert!(t.bytes() > empty.bytes() || t.capacity() == empty.capacity());
    }

    #[test]
    fn iter_yields_live_entries() {
        let t = Table::with_capacity(4)
            .clone_with(1, Some(10))
            .clone_with(2, Some(20));
        let mut pairs: Vec<_> = t.iter().collect();
        pairs.sort();
        assert_eq!(pairs, [(1, 10), (2, 20)]);
    }

    /// Seeded inserts, updates and removes against a `BTreeMap`, over a
    /// key space four times the capacity hint so every chunk grows: each
    /// derived table must match the model, and the table it derives from
    /// must still match the model's previous state.
    #[test]
    fn matches_a_btreemap_model_across_chunk_growth() {
        for seed in [1u64, 0x5EED, 0xC0FFEE] {
            let mut rng = SplitMix64::new(seed);
            let mut t = Table::with_capacity(2 * CHUNK_ENTRIES);
            let initial_cap = t.capacity();
            let mut model = BTreeMap::new();
            let key_space = 8 * CHUNK_ENTRIES as u64;
            for step in 0..6_000 {
                let key = rng.bounded_u64(key_space);
                let val = (rng.random_ratio(3, 4)).then(|| rng.next_u64() >> 1);
                let next = t.clone_with(key, val);
                let before = model.get(&key).copied();
                match val {
                    Some(v) => model.insert(key, v),
                    None => model.remove(&key),
                };
                assert_eq!(
                    t.get(key),
                    before,
                    "seed {seed} step {step}: source mutated"
                );
                assert_eq!(next.get(key), val, "seed {seed} step {step}");
                assert_eq!(next.peek(key), val, "seed {seed} step {step}");
                assert_eq!(next.len(), model.len(), "seed {seed} step {step}");
                t = next;
            }
            let mut pairs: Vec<_> = t.iter().collect();
            pairs.sort_unstable();
            assert_eq!(pairs, model.into_iter().collect::<Vec<_>>(), "seed {seed}");
            assert!(t.capacity() > initial_cap, "seed {seed}: chunks grew");
            assert!(t.len() * 2 <= t.capacity());
            for k in key_space..key_space + 64 {
                assert_eq!(t.get(k), None);
            }
        }
    }

    #[test]
    fn clone_with_shares_every_chunk_but_one() {
        const KEYS: u64 = 1 << 20;
        // Build in place (the chunks are still private), growing a chunk
        // the way clone_with would.
        let mut t = Table::with_capacity(KEYS as usize);
        let mut occupied = vec![0; t.chunk_count()];
        for k in 0..KEYS {
            let index = t.chunk_index(k);
            let cap = t.chunks[index].len();
            if (occupied[index] + 1) * 2 > cap {
                t.chunks[index] = rehash(&t.chunks[index], t.dir_bits, cap * 2, k, None).0;
            }
            let slots = Arc::get_mut(&mut t.chunks[index]).expect("unshared while building");
            place(slots, t.dir_bits, k, k);
            occupied[index] += 1;
            t.len += 1;
        }
        assert_eq!(t.chunk_count(), 4096);
        let next = t.clone_with(12345, Some(0));
        let shared = t
            .chunks
            .iter()
            .zip(next.chunks.iter())
            .filter(|(a, b)| Arc::ptr_eq(a, b))
            .count();
        assert_eq!(shared, t.chunk_count() - 1);
        let index = t.chunk_index(12345);
        assert!(!Arc::ptr_eq(&t.chunks[index], &next.chunks[index]));
        assert_eq!(next.len(), t.len());
        assert_eq!((t.get(12345), next.get(12345)), (Some(12345), Some(0)));
        assert!(t.retired_bytes(index) < t.bytes() / 100);
    }
}
