//! Persistent, structurally-shared storage primitives for the
//! materialized view.
//!
//! [`MaterializedView`](crate::view::MaterializedView) used to be a bag
//! of owned `Vec`s and hash maps, so *snapshotting* it (the `mmv-service`
//! writer publishes a frozen copy per epoch) deep-cloned every entry —
//! O(view) work to make a 1-entry batch visible. The two structures here
//! make a snapshot a handful of `Arc` bumps instead, while keeping the
//! writer's mutations cheap:
//!
//! * [`SharedVec<T>`] — a paged vector whose two-level page table and
//!   pages all live behind `Arc`s. `clone` is O(1); a mutation copies
//!   only the page it lands on (and, once, the top table and the
//!   64-page directory above it), and only when that page is still
//!   shared with an older clone — classic copy-on-write, paid once per
//!   touched page per epoch.
//! * [`SharedMap<K, V>`] — a persistent hash trie (a HAMT over the
//!   key's 64-bit hash, 6 bits per level). `clone` is O(1); `insert`,
//!   `update` and `remove` walk O(log n) nodes, un-share (copy) only
//!   those an older clone still holds, and mutate nodes the handle owns
//!   in place — so sharing costs nothing between snapshots and a path
//!   copy is paid at most once per touched node per epoch. The view's
//!   global dedup indexes (support → entry, canonical-hash → entries)
//!   are insert-only; the per-predicate discrimination indexes
//!   (`by_const`, the `slots` live-set) additionally delete keys via
//!   [`SharedMap::remove`]. [`SharedMap::copied_keys`] counts the
//!   key/value pairs physically re-cloned by leaf un-shares — the
//!   *key-level* CoW traffic: touching one key of a shared index costs
//!   O(that key's bucket), never O(all keys), and the counter is what
//!   proves it (`share_stats()` aggregates it per view).
//!
//! Neither structure uses interior mutability or unsafe code: a clone is
//! an independent *value* that merely shares heap nodes, so concurrent
//! readers of old clones are data-race-free by construction (`&self`
//! everywhere), which is what lets `mmv-service` hand `Arc<ViewSnapshot>`
//! handles to reader threads while the writer keeps mutating its own
//! handle.

use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use mmv_constraints::fxhash::FxHasher;

/// log2 of the [`SharedVec`] page size.
const PAGE_BITS: usize = 6;
/// Entries per [`SharedVec`] page.
const PAGE_SIZE: usize = 1 << PAGE_BITS;
/// log2 of the pages per [`SharedVec`] directory.
const DIR_BITS: usize = 6;
/// Pages per [`SharedVec`] directory.
const DIR_SIZE: usize = 1 << DIR_BITS;
/// log2 of the entries one directory covers.
const DIR_SHIFT: usize = PAGE_BITS + DIR_BITS;

/// A page of a [`SharedVec`].
type Page<T> = Arc<Vec<T>>;

/// A paged copy-on-write vector: O(1) `clone`, O(page) first-touch
/// mutation cost per epoch, `&self` reads with no synchronization.
///
/// Pages are fixed-size chunks behind `Arc`s, listed in directories of
/// 64 pages behind `Arc`s, listed in a top table behind an `Arc`, so
/// cloning shares everything. A mutation un-shares the top table and
/// the touched page's directory (pointer copies only: one per 4,096
/// elements, then 64) and then the page (element clones) via
/// `Arc::make_mut`; everything untouched since the last clone stays
/// physically shared. With one flat page table the first write after a
/// clone would copy one pointer per 64 elements, a cost that grows with
/// the vector. [`SharedVec::copied_pages`] counts how many page copies
/// this handle's mutations actually performed — the "CoW traffic" the
/// service reports per epoch.
#[derive(Clone)]
pub struct SharedVec<T> {
    dirs: Arc<Vec<Arc<Vec<Page<T>>>>>,
    len: usize,
    copied: u64,
}

impl<T> Default for SharedVec<T> {
    fn default() -> Self {
        SharedVec {
            dirs: Arc::new(Vec::new()),
            len: 0,
            copied: 0,
        }
    }
}

impl<T: Clone> SharedVec<T> {
    /// An empty vector.
    pub fn new() -> Self {
        SharedVec::default()
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the vector is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of pages currently allocated.
    pub fn page_count(&self) -> usize {
        self.len.div_ceil(PAGE_SIZE)
    }

    /// Page copies performed by this handle's mutations (cumulative; a
    /// clone inherits the count, so callers diff across epochs).
    pub fn copied_pages(&self) -> u64 {
        self.copied
    }

    /// The element at `i` (panics if out of bounds, like indexing).
    pub fn get(&self, i: usize) -> &T {
        assert!(
            i < self.len,
            "SharedVec index {i} out of bounds {}",
            self.len
        );
        &self.dirs[i >> DIR_SHIFT][(i >> PAGE_BITS) & (DIR_SIZE - 1)][i & (PAGE_SIZE - 1)]
    }

    /// Appends an element.
    pub fn push(&mut self, v: T) {
        let dirs = Arc::make_mut(&mut self.dirs);
        if self.len & ((1 << DIR_SHIFT) - 1) == 0 {
            dirs.push(Arc::new(Vec::with_capacity(DIR_SIZE)));
        }
        let dir = Arc::make_mut(dirs.last_mut().expect("directory just ensured"));
        if self.len & (PAGE_SIZE - 1) == 0 {
            dir.push(Arc::new(Vec::with_capacity(PAGE_SIZE)));
        }
        let page = dir.last_mut().expect("page just ensured");
        unshare_counted(page, &mut self.copied).push(v);
        self.len += 1;
    }

    /// Replaces the element at `i`.
    pub fn set(&mut self, i: usize, v: T) {
        self.update(i, |slot| *slot = v);
    }

    /// Edits the element at `i` in place, un-sharing its page first if
    /// an older clone still holds it.
    pub fn update(&mut self, i: usize, f: impl FnOnce(&mut T)) {
        assert!(
            i < self.len,
            "SharedVec index {i} out of bounds {}",
            self.len
        );
        let dir = Arc::make_mut(&mut Arc::make_mut(&mut self.dirs)[i >> DIR_SHIFT]);
        let page = &mut dir[(i >> PAGE_BITS) & (DIR_SIZE - 1)];
        f(&mut unshare_counted(page, &mut self.copied)[i & (PAGE_SIZE - 1)]);
    }

    /// Iterates the elements in index order.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.dirs
            .iter()
            .flat_map(|d| d.iter())
            .flat_map(|p| p.iter())
    }
}

/// Un-shares a CoW value for mutation, counting the copy iff one was
/// actually performed. The uniqueness test and the clone are one
/// decision (unlike a `strong_count` check before `Arc::make_mut`,
/// which could observe "shared" while a concurrent reader drops the
/// last other handle and `make_mut` then skips the clone — an
/// overcounted copy).
pub(crate) fn unshare_counted<'a, T: Clone>(arc: &'a mut Arc<T>, copies: &mut u64) -> &'a mut T {
    if Arc::get_mut(arc).is_none() {
        *copies += 1;
        *arc = Arc::new((**arc).clone());
    }
    Arc::get_mut(arc).expect("value just un-shared")
}

impl<T: fmt::Debug> fmt::Debug for SharedVec<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list()
            .entries(
                self.dirs
                    .iter()
                    .flat_map(|d| d.iter())
                    .flat_map(|p| p.iter()),
            )
            .finish()
    }
}

/// Branching factor bits per trie level.
const TRIE_BITS: u32 = 6;
/// Mask selecting one level's child index.
const TRIE_MASK: u64 = (1 << TRIE_BITS) - 1;

#[derive(Debug)]
enum Node<K, V> {
    /// An interior node: `bitmap` says which of the 64 child slots are
    /// occupied; `children` holds them densely in slot order.
    Branch {
        bitmap: u64,
        children: Vec<Arc<Node<K, V>>>,
    },
    /// All pairs whose keys share the full 64-bit `hash` (genuine
    /// collisions only — differing hashes always split into a Branch).
    Leaf { hash: u64, pairs: Vec<(K, V)> },
}

/// A persistent hash map (HAMT): O(1) `clone`, lookups, inserts and
/// removals walk ≤ 11 levels, and a mutation copies only the nodes on
/// its path — everything else stays shared with older clones.
#[derive(Clone)]
pub struct SharedMap<K, V> {
    root: Option<Arc<Node<K, V>>>,
    len: usize,
    /// Key/value pairs physically cloned by leaf un-shares (cumulative;
    /// clones inherit the count, so callers diff across epochs).
    copied: u64,
}

impl<K, V> Default for SharedMap<K, V> {
    fn default() -> Self {
        SharedMap {
            root: None,
            len: 0,
            copied: 0,
        }
    }
}

fn hash_key<K: Hash>(k: &K) -> u64 {
    let mut h = FxHasher::default();
    k.hash(&mut h);
    h.finish()
}

fn slot(hash: u64, depth: u32) -> usize {
    ((hash >> (depth * TRIE_BITS)) & TRIE_MASK) as usize
}

impl<K: Hash + Eq + Clone, V: Clone> SharedMap<K, V> {
    /// An empty map.
    pub fn new() -> Self {
        SharedMap::default()
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The value for `k`, if present.
    pub fn get(&self, k: &K) -> Option<&V> {
        let hash = hash_key(k);
        let mut node = self.root.as_deref()?;
        let mut depth = 0u32;
        loop {
            match node {
                Node::Leaf { hash: lh, pairs } => {
                    if *lh != hash {
                        return None;
                    }
                    return pairs.iter().find(|(pk, _)| pk == k).map(|(_, v)| v);
                }
                Node::Branch { bitmap, children } => {
                    let s = slot(hash, depth);
                    let bit = 1u64 << s;
                    if bitmap & bit == 0 {
                        return None;
                    }
                    let idx = (bitmap & (bit - 1)).count_ones() as usize;
                    node = &children[idx];
                    depth += 1;
                }
            }
        }
    }

    /// Whether `k` is present.
    pub fn contains_key(&self, k: &K) -> bool {
        self.get(k).is_some()
    }

    /// Key/value pairs this handle's mutations physically re-cloned
    /// while un-sharing leaf buckets (cumulative; a clone inherits the
    /// count, so callers diff across epochs). This is the *key-level*
    /// copy cost of the structure: mutating one key of a map shared
    /// with an older snapshot bumps this by that key's bucket size
    /// (almost always 1), never by the whole key count.
    pub fn copied_keys(&self) -> u64 {
        self.copied
    }

    /// Inserts `k → v`, returning the previous value if the key was
    /// already present. Nodes still shared with an older clone are
    /// copied on the way down (path copy); nodes this handle already
    /// owns outright are mutated in place — so a burst of inserts
    /// between snapshots (the fixpoint build, a batch's propagation)
    /// pays the structural-sharing tax at most once per touched node.
    pub fn insert(&mut self, k: K, v: V) -> Option<V> {
        let hash = hash_key(&k);
        let old = match &mut self.root {
            slot @ None => {
                *slot = Some(Arc::new(Node::Leaf {
                    hash,
                    pairs: vec![(k, v)],
                }));
                None
            }
            Some(root) => insert_rec(root, 0, hash, k, v, &mut self.copied),
        };
        if old.is_none() {
            self.len += 1;
        }
        old
    }

    /// Edits the value for `k` in place, first inserting `default` if
    /// the key is absent. Like [`SharedMap::insert`], only nodes still
    /// shared with an older clone are copied on the way down — in
    /// particular the value itself is *not* cloned when this handle
    /// already owns its leaf, which is what makes accumulating into a
    /// `Vec` value cheap between snapshots.
    pub fn update(&mut self, k: K, default: V, f: impl FnOnce(&mut V)) {
        let hash = hash_key(&k);
        let fresh = match &mut self.root {
            slot @ None => {
                let mut v = default;
                f(&mut v);
                *slot = Some(Arc::new(Node::Leaf {
                    hash,
                    pairs: vec![(k, v)],
                }));
                true
            }
            Some(root) => update_rec(root, 0, hash, k, default, f, &mut self.copied),
        };
        if fresh {
            self.len += 1;
        }
    }

    /// Removes `k`, returning its value if it was present. Like the
    /// other mutations, only path nodes an older clone still holds are
    /// copied; a leaf bucket left empty is unlinked from its branch
    /// (and the branch's slot bit cleared), so lookups never traverse
    /// tombstones.
    pub fn remove(&mut self, k: &K) -> Option<V> {
        // Probe first: a miss must not un-share anything.
        if !self.contains_key(k) {
            return None;
        }
        let hash = hash_key(k);
        let root = self.root.as_mut().expect("key present, so non-empty");
        let (v, now_empty) = remove_rec(root, 0, hash, k, &mut self.copied);
        if now_empty {
            self.root = None;
        }
        self.len -= 1;
        Some(v)
    }
}

/// Builds the branch chain separating two leaves whose hashes first
/// differ at or below `depth` (they are guaranteed to differ somewhere:
/// equal hashes never reach here).
fn split<K, V>(
    a: Arc<Node<K, V>>,
    ah: u64,
    b: Arc<Node<K, V>>,
    bh: u64,
    depth: u32,
) -> Arc<Node<K, V>> {
    let (sa, sb) = (slot(ah, depth), slot(bh, depth));
    if sa == sb {
        let child = split(a, ah, b, bh, depth + 1);
        return Arc::new(Node::Branch {
            bitmap: 1u64 << sa,
            children: vec![child],
        });
    }
    let (bitmap, children) = if sa < sb {
        ((1u64 << sa) | (1u64 << sb), vec![a, b])
    } else {
        ((1u64 << sa) | (1u64 << sb), vec![b, a])
    };
    Arc::new(Node::Branch { bitmap, children })
}

impl<K: Clone, V: Clone> Node<K, V> {
    /// A one-level copy: leaf buckets are cloned (they are about to be
    /// edited), branch children stay shared `Arc`s.
    fn unshare(&self) -> Self {
        match self {
            Node::Leaf { hash, pairs } => Node::Leaf {
                hash: *hash,
                pairs: pairs.clone(),
            },
            Node::Branch { bitmap, children } => Node::Branch {
                bitmap: *bitmap,
                children: children.clone(),
            },
        }
    }
}

/// Un-shares a trie node for mutation, charging `copied` with the
/// key/value pairs cloned when the node is a leaf bucket (branch
/// un-shares copy child `Arc`s, not keys). No-op on nodes this handle
/// already owns — the uniqueness test and the clone are one decision,
/// like [`unshare_counted`].
fn unshare_node<K: Clone, V: Clone>(node: &mut Arc<Node<K, V>>, copied: &mut u64) {
    if Arc::get_mut(node).is_none() {
        if let Node::Leaf { pairs, .. } = node.as_ref() {
            *copied += pairs.len() as u64;
        }
        *node = Arc::new(node.unshare());
    }
}

fn insert_rec<K: Hash + Eq + Clone, V: Clone>(
    node: &mut Arc<Node<K, V>>,
    depth: u32,
    hash: u64,
    k: K,
    v: V,
    copied: &mut u64,
) -> Option<V> {
    // A leaf with a different hash splits into a branch over both; the
    // old leaf is shared into the new subtree as-is, so no un-sharing.
    if let Node::Leaf { hash: lh, .. } = node.as_ref() {
        if *lh != hash {
            let fresh = Arc::new(Node::Leaf {
                hash,
                pairs: vec![(k, v)],
            });
            let (old_leaf, lh) = (node.clone(), *lh);
            *node = split(old_leaf, lh, fresh, hash, depth);
            return None;
        }
    }
    // Otherwise this node is edited: un-share it first if an older
    // clone still holds it, then mutate in place.
    unshare_node(node, copied);
    match Arc::get_mut(node).expect("node just un-shared") {
        Node::Leaf { pairs, .. } => match pairs.iter_mut().find(|(pk, _)| *pk == k) {
            Some(pair) => Some(std::mem::replace(&mut pair.1, v)),
            None => {
                pairs.push((k, v));
                None
            }
        },
        Node::Branch { bitmap, children } => {
            let s = slot(hash, depth);
            let bit = 1u64 << s;
            let idx = (*bitmap & (bit - 1)).count_ones() as usize;
            if *bitmap & bit == 0 {
                children.insert(
                    idx,
                    Arc::new(Node::Leaf {
                        hash,
                        pairs: vec![(k, v)],
                    }),
                );
                *bitmap |= bit;
                None
            } else {
                insert_rec(&mut children[idx], depth + 1, hash, k, v, copied)
            }
        }
    }
}

/// [`insert_rec`]'s in-place-edit sibling: finds (or creates, from
/// `default`) the value for `k` and applies `f` to it, un-sharing only
/// the path nodes an older clone still holds. Returns whether a fresh
/// key was added.
fn update_rec<K: Hash + Eq + Clone, V: Clone>(
    node: &mut Arc<Node<K, V>>,
    depth: u32,
    hash: u64,
    k: K,
    default: V,
    f: impl FnOnce(&mut V),
    copied: &mut u64,
) -> bool {
    if let Node::Leaf { hash: lh, .. } = node.as_ref() {
        if *lh != hash {
            let mut v = default;
            f(&mut v);
            let fresh = Arc::new(Node::Leaf {
                hash,
                pairs: vec![(k, v)],
            });
            let (old_leaf, lh) = (node.clone(), *lh);
            *node = split(old_leaf, lh, fresh, hash, depth);
            return true;
        }
    }
    unshare_node(node, copied);
    match Arc::get_mut(node).expect("node just un-shared") {
        Node::Leaf { pairs, .. } => match pairs.iter_mut().find(|(pk, _)| *pk == k) {
            Some(pair) => {
                f(&mut pair.1);
                false
            }
            None => {
                let mut v = default;
                f(&mut v);
                pairs.push((k, v));
                true
            }
        },
        Node::Branch { bitmap, children } => {
            let s = slot(hash, depth);
            let bit = 1u64 << s;
            let idx = (*bitmap & (bit - 1)).count_ones() as usize;
            if *bitmap & bit == 0 {
                let mut v = default;
                f(&mut v);
                children.insert(
                    idx,
                    Arc::new(Node::Leaf {
                        hash,
                        pairs: vec![(k, v)],
                    }),
                );
                *bitmap |= bit;
                true
            } else {
                update_rec(&mut children[idx], depth + 1, hash, k, default, f, copied)
            }
        }
    }
}

/// [`insert_rec`]'s removal sibling. Callers have already proven `k` is
/// present, so every node on the path is edited: un-share it (charging
/// leaf-pair copies), remove the pair from its leaf bucket, and unlink
/// emptied children on the way back up (clearing the branch's slot
/// bit). Returns the removed value and whether `node` itself is now
/// empty and should be unlinked by *its* parent.
fn remove_rec<K: Hash + Eq + Clone, V: Clone>(
    node: &mut Arc<Node<K, V>>,
    depth: u32,
    hash: u64,
    k: &K,
    copied: &mut u64,
) -> (V, bool) {
    unshare_node(node, copied);
    match Arc::get_mut(node).expect("node just un-shared") {
        Node::Leaf { pairs, .. } => {
            let idx = pairs
                .iter()
                .position(|(pk, _)| pk == k)
                .expect("caller proved the key is present");
            let (_, v) = pairs.remove(idx);
            (v, pairs.is_empty())
        }
        Node::Branch { bitmap, children } => {
            let s = slot(hash, depth);
            let bit = 1u64 << s;
            debug_assert!(*bitmap & bit != 0, "caller proved the key is present");
            let idx = (*bitmap & (bit - 1)).count_ones() as usize;
            let (v, child_empty) = remove_rec(&mut children[idx], depth + 1, hash, k, copied);
            if child_empty {
                children.remove(idx);
                *bitmap &= !bit;
            }
            (v, children.is_empty())
        }
    }
}

impl<K: fmt::Debug, V: fmt::Debug> fmt::Debug for SharedMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn walk<K: fmt::Debug, V: fmt::Debug>(node: &Node<K, V>, m: &mut fmt::DebugMap<'_, '_>) {
            match node {
                Node::Leaf { pairs, .. } => {
                    for (k, v) in pairs {
                        m.entry(k, v);
                    }
                }
                Node::Branch { children, .. } => {
                    for c in children {
                        walk(c, m);
                    }
                }
            }
        }
        let mut m = f.debug_map();
        if let Some(root) = &self.root {
            walk(root, &mut m);
        }
        m.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn shared_vec_push_get_set_iter() {
        let mut v: SharedVec<i32> = SharedVec::new();
        assert!(v.is_empty());
        for i in 0..200 {
            v.push(i);
        }
        assert_eq!(v.len(), 200);
        assert_eq!(*v.get(0), 0);
        assert_eq!(*v.get(199), 199);
        assert_eq!(v.page_count(), 200usize.div_ceil(PAGE_SIZE));
        v.set(5, 500);
        assert_eq!(*v.get(5), 500);
        v.update(5, |x| *x += 1);
        assert_eq!(*v.get(5), 501);
        let collected: Vec<i32> = v.iter().copied().collect();
        assert_eq!(collected.len(), 200);
        assert_eq!(collected[5], 501);
    }

    #[test]
    fn shared_vec_clone_isolates_and_counts_copies() {
        let mut v: SharedVec<i32> = SharedVec::new();
        for i in 0..100 {
            v.push(i);
        }
        assert_eq!(v.copied_pages(), 0, "unshared pushes copy nothing");
        let snapshot = v.clone();
        // Mutations after the clone leave the snapshot untouched...
        v.set(3, -3);
        v.push(100);
        assert_eq!(*snapshot.get(3), 3);
        assert_eq!(snapshot.len(), 100);
        assert_eq!(*v.get(3), -3);
        assert_eq!(v.len(), 101);
        // ...and each touched a shared page exactly once.
        assert_eq!(v.copied_pages(), 2, "set page + tail page");
        // Re-touching the now-unshared pages copies nothing further.
        v.set(3, -4);
        v.push(101);
        assert_eq!(v.copied_pages(), 2);
    }

    #[test]
    fn shared_vec_crosses_a_directory() {
        // Two directories: 4,096 elements in the first, 104 past it.
        let n: usize = (1 << DIR_SHIFT) + 104;
        let mut v: SharedVec<u32> = SharedVec::new();
        for i in 0..n as u32 {
            v.push(i);
        }
        assert_eq!(v.page_count(), n.div_ceil(PAGE_SIZE));
        assert_eq!(v.copied_pages(), 0, "unshared pushes copy nothing");
        let edge = (1 << DIR_SHIFT) - 1;
        assert_eq!(
            (*v.get(edge), *v.get(edge + 1)),
            (edge as u32, edge as u32 + 1)
        );
        let snapshot = v.clone();
        // One write on each side of the boundary, and a push: three
        // first writes, three pages copied — not the directories' 64.
        v.update(edge, |x| *x += 10_000);
        v.set(edge + 1, 7);
        v.push(n as u32);
        assert_eq!(v.copied_pages(), 3);
        // Writing the now-owned pages again copies nothing.
        v.update(edge - 1, |x| *x += 10_000);
        v.set(edge + 2, 8);
        assert_eq!(v.copied_pages(), 3);
        // A clone of the writer's side stays as it was when taken.
        let second = v.clone();
        v.set(edge + 1, 9);
        assert_eq!(v.copied_pages(), 4);
        assert_eq!((*second.get(edge + 1), *v.get(edge + 1)), (7, 9));
        // The snapshot saw none of it, on either side.
        assert_eq!(snapshot.len(), n);
        assert_eq!(v.len(), n + 1);
        let old: Vec<u32> = snapshot.iter().copied().collect();
        assert_eq!(old, (0..n as u32).collect::<Vec<_>>());
        let new: Vec<u32> = v.iter().copied().collect();
        assert_eq!(new.len(), n + 1);
        assert_eq!(
            &new[edge - 1..edge + 3],
            &[edge as u32 - 1 + 10_000, edge as u32 + 10_000, 9, 8]
        );
        assert_eq!(new[n], n as u32);
    }

    #[test]
    fn shared_map_matches_std_hashmap() {
        let mut m: SharedMap<u64, u64> = SharedMap::new();
        let mut reference: HashMap<u64, u64> = HashMap::new();
        // A keyed pseudo-random walk with plenty of overwrites.
        let mut k = 7u64;
        for i in 0..2000u64 {
            k = k.wrapping_mul(6364136223846793005).wrapping_add(1);
            let key = k % 512;
            assert_eq!(m.insert(key, i), reference.insert(key, i), "key {key}");
            assert_eq!(m.len(), reference.len());
        }
        for key in 0..512u64 {
            assert_eq!(m.get(&key), reference.get(&key), "key {key}");
            assert_eq!(m.contains_key(&key), reference.contains_key(&key));
        }
        assert_eq!(m.get(&10_000), None);
    }

    #[test]
    fn shared_map_clone_isolates() {
        let mut m: SharedMap<String, usize> = SharedMap::new();
        for i in 0..100 {
            m.insert(format!("k{i}"), i);
        }
        let snapshot = m.clone();
        for i in 0..100 {
            m.insert(format!("k{i}"), i + 1000);
        }
        m.insert("fresh".to_string(), 1);
        for i in 0..100 {
            assert_eq!(snapshot.get(&format!("k{i}")), Some(&i));
            assert_eq!(m.get(&format!("k{i}")), Some(&(i + 1000)));
        }
        assert!(!snapshot.contains_key(&"fresh".to_string()));
        assert_eq!(snapshot.len(), 100);
        assert_eq!(m.len(), 101);
    }

    #[test]
    fn shared_map_update_edits_in_place_and_isolates_clones() {
        let mut m: SharedMap<u64, Vec<u32>> = SharedMap::new();
        for i in 0..50u64 {
            m.update(i % 10, Vec::new(), |v| v.push(i as u32));
        }
        assert_eq!(m.len(), 10);
        assert_eq!(m.get(&3), Some(&vec![3, 13, 23, 33, 43]));
        let snapshot = m.clone();
        m.update(3, Vec::new(), |v| v.push(999));
        m.update(77, vec![1], |v| v.push(2));
        assert_eq!(snapshot.get(&3), Some(&vec![3, 13, 23, 33, 43]));
        assert_eq!(snapshot.get(&77), None);
        assert_eq!(snapshot.len(), 10);
        assert_eq!(m.get(&3), Some(&vec![3, 13, 23, 33, 43, 999]));
        assert_eq!(m.get(&77), Some(&vec![1, 2]));
        assert_eq!(m.len(), 11);
    }

    /// Keys engineered to collide on full 64-bit hashes exercise the
    /// leaf bucket path.
    #[derive(Clone, PartialEq, Eq, Debug)]
    struct Colliding(u32);
    impl Hash for Colliding {
        fn hash<H: Hasher>(&self, state: &mut H) {
            state.write_u64(42); // everyone hashes alike
        }
    }

    #[test]
    fn shared_map_remove_matches_std_hashmap() {
        let mut m: SharedMap<u64, u64> = SharedMap::new();
        let mut reference: HashMap<u64, u64> = HashMap::new();
        let mut k = 13u64;
        for i in 0..3000u64 {
            k = k.wrapping_mul(6364136223846793005).wrapping_add(1);
            let key = k % 256;
            if k % 3 == 0 {
                assert_eq!(m.remove(&key), reference.remove(&key), "key {key}");
            } else {
                assert_eq!(m.insert(key, i), reference.insert(key, i), "key {key}");
            }
            assert_eq!(m.len(), reference.len());
        }
        for key in 0..256u64 {
            assert_eq!(m.get(&key), reference.get(&key), "key {key}");
        }
        // Drain to empty: the root must unlink cleanly.
        let keys: Vec<u64> = reference.keys().copied().collect();
        for key in keys {
            assert!(m.remove(&key).is_some());
        }
        assert!(m.is_empty());
        assert_eq!(m.get(&1), None);
        m.insert(1, 1);
        assert_eq!(m.get(&1), Some(&1));
    }

    #[test]
    fn shared_map_remove_isolates_clones_and_counts_key_copies() {
        let mut m: SharedMap<u64, u64> = SharedMap::new();
        for i in 0..512u64 {
            m.insert(i, i);
        }
        assert_eq!(m.copied_keys(), 0, "unshared mutations clone no pairs");
        let snapshot = m.clone();
        let before = m.copied_keys();
        m.remove(&3);
        m.insert(7, 700);
        m.update(9, 0, |v| *v += 1);
        // The snapshot never moves...
        assert_eq!(snapshot.get(&3), Some(&3));
        assert_eq!(snapshot.get(&7), Some(&7));
        assert_eq!(snapshot.get(&9), Some(&9));
        assert_eq!(snapshot.len(), 512);
        assert_eq!(m.get(&3), None);
        assert_eq!(m.len(), 511);
        // ...and the three touched keys cost key-level copies, not a
        // whole-map copy: each path clones one shared leaf bucket
        // (bucket size ~1), never the other ~509 keys.
        let copied = m.copied_keys() - before;
        assert!(copied >= 3, "three shared leaves were edited: {copied}");
        assert!(copied < 64, "key copies must stay ≪ map size: {copied}");
        // Re-touching now-owned paths copies nothing further.
        let owned = m.copied_keys();
        m.insert(7, 701);
        m.update(9, 0, |v| *v += 1);
        assert_eq!(m.copied_keys(), owned);
    }

    #[test]
    fn shared_map_handles_full_hash_collisions() {
        let mut m: SharedMap<Colliding, u32> = SharedMap::new();
        for i in 0..20 {
            assert_eq!(m.insert(Colliding(i), i), None);
        }
        assert_eq!(m.len(), 20);
        for i in 0..20 {
            assert_eq!(m.get(&Colliding(i)), Some(&i));
        }
        assert_eq!(m.insert(Colliding(7), 700), Some(7));
        assert_eq!(m.get(&Colliding(7)), Some(&700));
        assert_eq!(m.len(), 20);
        // Removal inside the shared bucket, down to empty.
        assert_eq!(m.remove(&Colliding(7)), Some(700));
        assert_eq!(m.remove(&Colliding(7)), None);
        assert_eq!(m.get(&Colliding(7)), None);
        assert_eq!(m.len(), 19);
        for i in (0..20).filter(|&i| i != 7) {
            assert_eq!(m.remove(&Colliding(i)), Some(i));
        }
        assert!(m.is_empty());
    }

    #[test]
    fn debug_renders() {
        let mut v: SharedVec<u8> = SharedVec::new();
        v.push(1);
        let mut m: SharedMap<u8, u8> = SharedMap::new();
        m.insert(1, 2);
        assert_eq!(format!("{v:?}"), "[1]");
        assert_eq!(format!("{m:?}"), "{1: 2}");
    }
}
