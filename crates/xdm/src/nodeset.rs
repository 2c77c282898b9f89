//! An order-indexed, bitset-backed node-set kernel.
//!
//! [`NodeSet`] is the data structure behind the node-set operations that
//! dominate the cost of the paper's Delta algorithm (Figure 3(b)): each
//! iteration computes `e_rec(∆) except res` and `∆ union res`, and the
//! termination test is a set-equality check.  Representing node sets as
//! per-document `u64` bitmaps over arena indices makes
//!
//! * `union` / `except` / `intersect` word-parallel (64 nodes per
//!   instruction),
//! * set-equality a word-for-word comparison (no sorting, no hashing),
//! * membership an O(1) bit probe,
//!
//! and — because arena indices within a parsed document coincide with
//! pre-order document positions, and documents are ordered by creation —
//! iteration yields document order *for free* on parsed documents.  For
//! constructed fragments whose arena order diverged from document order
//! (out-of-order `append_child`), [`NodeSet::to_vec`] falls back to a
//! rank-based sort for just those documents; the bit-level set algebra is
//! order-independent and never needs ranks.
//!
//! Each document's bitmap covers only the words between its lowest and
//! highest member (a base word offset plus the words), so a five-node
//! frontier at the end of a large document costs one word, not a bitmap
//! from word 0.
//!
//! Invariants maintained by every operation (and relied on by `PartialEq`):
//! documents are sorted by id, no document span is empty, and no span has a
//! leading or trailing zero word.  Two `NodeSet`s are therefore equal as
//! Rust values exactly when they denote the same set of node identities.

use crate::node::NodeId;
use crate::store::{DocId, NodeStore};

const WORD_BITS: usize = 64;

/// Ids buffered per pass of bulk construction ([`NodeSet::extend`]): each
/// run of same-document ids in a buffer resolves its document span once.
const CHUNK: usize = 128;

/// One document's members: bit `i` of `words[k]` is arena index
/// `(base + k) * 64 + i`.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Span {
    doc: u32,
    /// Absolute word index of `words[0]`.
    base: usize,
    words: Vec<u64>,
}

impl Span {
    /// One past the absolute index of the last word.
    fn end(&self) -> usize {
        self.base + self.words.len()
    }

    /// The word at absolute word index `w`; zero outside the span.
    fn word(&self, w: usize) -> u64 {
        w.checked_sub(self.base)
            .and_then(|i| self.words.get(i))
            .copied()
            .unwrap_or(0)
    }

    /// Grow the span (with one allocation at most) to cover the absolute
    /// words `lo..=hi`.
    fn cover(&mut self, lo: usize, hi: usize) {
        let end = (hi + 1).max(self.end());
        if lo < self.base {
            let mut words = Vec::with_capacity(end - lo);
            words.resize(self.base - lo, 0);
            words.extend_from_slice(&self.words);
            words.resize(end - lo, 0);
            self.words = words;
            self.base = lo;
        } else if end > self.end() {
            self.words.resize(end - self.base, 0);
        }
    }

    /// Drop leading and trailing zero words (the canonical form).
    fn trim(&mut self) {
        while self.words.last() == Some(&0) {
            self.words.pop();
        }
        let lead = self.words.iter().take_while(|&&w| w == 0).count();
        if lead > 0 {
            self.words.drain(..lead);
            self.base += lead;
        }
    }
}

/// A set of node identities, stored as per-document `u64` bitmap spans.
///
/// Documents are kept in creation order (which is their document-order
/// rank across documents); bits within a document are keyed by arena index.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NodeSet {
    spans: Vec<Span>,
    len: usize,
}

impl NodeSet {
    /// The empty set.
    pub fn new() -> Self {
        NodeSet::default()
    }

    /// Build a set from node ids (duplicates collapse).
    pub fn from_nodes(nodes: impl IntoIterator<Item = NodeId>) -> Self {
        let mut set = NodeSet::new();
        set.extend(nodes);
        set
    }

    /// Number of nodes in the set.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no node is present.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn span(&self, doc: u32) -> Option<&Span> {
        self.spans
            .binary_search_by_key(&doc, |s| s.doc)
            .ok()
            .map(|i| &self.spans[i])
    }

    /// The span of `doc`, created or grown to cover the words `lo..=hi`.
    fn span_covering(&mut self, doc: u32, lo: usize, hi: usize) -> &mut Span {
        match self.spans.binary_search_by_key(&doc, |s| s.doc) {
            Ok(i) => {
                self.spans[i].cover(lo, hi);
                &mut self.spans[i]
            }
            Err(i) => {
                let span = Span {
                    doc,
                    base: lo,
                    words: vec![0; hi - lo + 1],
                };
                self.spans.insert(i, span);
                &mut self.spans[i]
            }
        }
    }

    /// `true` when `node` is in the set.
    pub fn contains(&self, node: NodeId) -> bool {
        let idx = node.node as usize;
        self.span(node.doc)
            .is_some_and(|span| span.word(idx / WORD_BITS) & (1u64 << (idx % WORD_BITS)) != 0)
    }

    /// Add `node`; returns `true` if it was not already present.
    pub fn insert(&mut self, node: NodeId) -> bool {
        let idx = node.node as usize;
        let w = idx / WORD_BITS;
        let span = self.span_covering(node.doc, w, w);
        let word = &mut span.words[w - span.base];
        let mask = 1u64 << (idx % WORD_BITS);
        let fresh = *word & mask == 0;
        *word |= mask;
        self.len += fresh as usize;
        fresh
    }

    /// Add a run of ids that all belong to one document, growing its span
    /// once for the whole run.
    fn insert_run(&mut self, run: &[NodeId]) {
        let (lo, hi) = run.iter().fold((u32::MAX, 0), |(lo, hi), n| {
            (lo.min(n.node), hi.max(n.node))
        });
        let span = self.span_covering(run[0].doc, lo as usize / WORD_BITS, hi as usize / WORD_BITS);
        let mut added = 0;
        for n in run {
            let idx = n.node as usize;
            let word = &mut span.words[idx / WORD_BITS - span.base];
            let mask = 1u64 << (idx % WORD_BITS);
            added += (*word & mask == 0) as usize;
            *word |= mask;
        }
        self.len += added;
    }

    /// Remove `node`; returns `true` if it was present.
    pub fn remove(&mut self, node: NodeId) -> bool {
        let Ok(i) = self.spans.binary_search_by_key(&node.doc, |s| s.doc) else {
            return false;
        };
        let span = &mut self.spans[i];
        let idx = node.node as usize;
        let mask = 1u64 << (idx % WORD_BITS);
        if span.word(idx / WORD_BITS) & mask == 0 {
            return false;
        }
        span.words[idx / WORD_BITS - span.base] &= !mask;
        span.trim();
        if span.words.is_empty() {
            self.spans.remove(i);
        }
        self.len -= 1;
        true
    }

    /// Add every node of `other` (word-parallel `self ∪= other`).
    pub fn union_in_place(&mut self, other: &NodeSet) {
        for theirs in &other.spans {
            let span = self.span_covering(theirs.doc, theirs.base, theirs.end() - 1);
            let offset = theirs.base - span.base;
            let mut added = 0;
            for (word, &incoming) in span.words[offset..].iter_mut().zip(&theirs.words) {
                added += (incoming & !*word).count_ones() as usize;
                *word |= incoming;
            }
            self.len += added;
        }
    }

    /// Remove every node of `other` (word-parallel `self ∖= other`).
    pub fn except_in_place(&mut self, other: &NodeSet) {
        let mut removed = 0;
        self.spans.retain_mut(|span| {
            let Some(theirs) = other.span(span.doc) else {
                return true;
            };
            let (lo, hi) = (span.base.max(theirs.base), span.end().min(theirs.end()));
            if lo < hi {
                let masks = &theirs.words[lo - theirs.base..hi - theirs.base];
                for (word, &mask) in span.words[lo - span.base..].iter_mut().zip(masks) {
                    removed += (*word & mask).count_ones() as usize;
                    *word &= !mask;
                }
                span.trim();
            }
            !span.words.is_empty()
        });
        self.len -= removed;
    }

    /// Keep only nodes present in `other` (word-parallel `self ∩= other`).
    pub fn intersect_in_place(&mut self, other: &NodeSet) {
        let mut kept = 0;
        self.spans.retain_mut(|span| {
            let Some(theirs) = other.span(span.doc) else {
                return false;
            };
            let base = span.base;
            for (i, word) in span.words.iter_mut().enumerate() {
                *word &= theirs.word(base + i);
                kept += word.count_ones() as usize;
            }
            span.trim();
            !span.words.is_empty()
        });
        self.len = kept;
    }

    /// `self ∪ other` as a new set.
    pub fn union(&self, other: &NodeSet) -> NodeSet {
        let (mut big, small) = if self.len >= other.len {
            (self.clone(), other)
        } else {
            (other.clone(), self)
        };
        big.union_in_place(small);
        big
    }

    /// `self ∖ other` as a new set.
    pub fn except(&self, other: &NodeSet) -> NodeSet {
        let mut out = self.clone();
        out.except_in_place(other);
        out
    }

    /// `self ∩ other` as a new set.
    pub fn intersect(&self, other: &NodeSet) -> NodeSet {
        let mut out = self.clone();
        out.intersect_in_place(other);
        out
    }

    /// `true` when every node of `self` is in `other`.
    pub fn is_subset(&self, other: &NodeSet) -> bool {
        if self.len > other.len {
            return false;
        }
        self.spans.iter().all(|span| {
            other.span(span.doc).is_some_and(|theirs| {
                span.words
                    .iter()
                    .enumerate()
                    .all(|(i, &word)| word & !theirs.word(span.base + i) == 0)
            })
        })
    }

    /// `true` when the sets share no node.
    pub fn is_disjoint(&self, other: &NodeSet) -> bool {
        self.spans.iter().all(|span| {
            other.span(span.doc).is_none_or(|theirs| {
                let (lo, hi) = (span.base.max(theirs.base), span.end().min(theirs.end()));
                (lo..hi).all(|w| span.word(w) & theirs.word(w) == 0)
            })
        })
    }

    /// Iterate node ids in (document, arena-index) order.
    ///
    /// For parsed documents this **is** document order; constructed
    /// fragments may need [`NodeSet::to_vec`] instead.
    pub fn iter(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.spans.iter().flat_map(|span| {
            span.words.iter().enumerate().flat_map(move |(i, &word)| {
                let first = (span.base + i) * WORD_BITS;
                BitIter(word).map(move |bit| NodeId::new(span.doc, (first + bit) as u32))
            })
        })
    }

    /// Materialize the set as a `Vec<NodeId>` in document order.
    ///
    /// Documents whose arena order coincides with document order (all
    /// parsed documents, and constructed fragments built in pre-order) are
    /// emitted straight from the bitmap; only documents whose order
    /// diverged pay for a rank sort.
    ///
    /// Materialization is a pure read: it works through `&NodeStore` (or a
    /// [`crate::store::StoreSnapshot`]), so set results can be rendered
    /// from shared references — including concurrently from the parallel
    /// drivers' shards.
    pub fn to_vec(&self, store: &NodeStore) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(self.len);
        for span in &self.spans {
            let start = out.len();
            for (i, &word) in span.words.iter().enumerate() {
                let first = (span.base + i) * WORD_BITS;
                out.extend(BitIter(word).map(|bit| NodeId::new(span.doc, (first + bit) as u32)));
            }
            if !store.index_order_is_document_order(DocId(span.doc)) {
                let mut tail: Vec<NodeId> = out.split_off(start);
                store.sort_distinct(&mut tail);
                out.extend(tail);
            }
        }
        out
    }
}

impl Extend<NodeId> for NodeSet {
    /// Bulk insert: ids are buffered a chunk at a time and each run of
    /// same-document ids resolves and grows its document span once.
    fn extend<T: IntoIterator<Item = NodeId>>(&mut self, iter: T) {
        let mut iter = iter.into_iter();
        let mut buf = [NodeId::new(0, 0); CHUNK];
        loop {
            let mut n = 0;
            for (slot, node) in buf.iter_mut().zip(iter.by_ref()) {
                *slot = node;
                n += 1;
            }
            for run in buf[..n].chunk_by(|a, b| a.doc == b.doc) {
                self.insert_run(run);
            }
            if n < CHUNK {
                return;
            }
        }
    }
}

impl FromIterator<NodeId> for NodeSet {
    fn from_iter<T: IntoIterator<Item = NodeId>>(iter: T) -> Self {
        NodeSet::from_nodes(iter)
    }
}

impl<'a> FromIterator<&'a NodeId> for NodeSet {
    fn from_iter<T: IntoIterator<Item = &'a NodeId>>(iter: T) -> Self {
        NodeSet::from_nodes(iter.into_iter().copied())
    }
}

/// Iterator over the set bit positions of one word.
struct BitIter(u64);

impl Iterator for BitIter {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.0 == 0 {
            return None;
        }
        let bit = self.0.trailing_zeros() as usize;
        self.0 &= self.0 - 1;
        Some(bit)
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;
    use crate::node::{Axis, NodeTest, QName};

    fn fixture(store: &mut NodeStore) -> Vec<NodeId> {
        let doc = store
            .parse_document("<r><a/><b/><c/><d/><e/><f/></r>")
            .unwrap();
        let root = store.document_element(doc).unwrap();
        store.axis_nodes(root, Axis::Child, &NodeTest::AnyElement)
    }

    #[test]
    fn insert_contains_remove_and_len() {
        let mut store = NodeStore::new();
        let kids = fixture(&mut store);
        let mut set = NodeSet::new();
        assert!(set.is_empty());
        assert!(set.insert(kids[0]));
        assert!(!set.insert(kids[0]), "duplicate insert reports absent");
        assert!(set.insert(kids[3]));
        assert_eq!(set.len(), 2);
        assert!(set.contains(kids[0]));
        assert!(!set.contains(kids[1]));
        assert!(set.remove(kids[0]));
        assert!(!set.remove(kids[0]));
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn equality_is_set_equality_regardless_of_build_order() {
        let mut store = NodeStore::new();
        let kids = fixture(&mut store);
        let a = NodeSet::from_nodes([kids[2], kids[0], kids[2], kids[4]]);
        let b = NodeSet::from_nodes([kids[4], kids[2], kids[0]]);
        assert_eq!(a, b);
        let c = NodeSet::from_nodes([kids[4], kids[2]]);
        assert_ne!(a, c);
    }

    #[test]
    fn equality_after_removal_normalizes_trailing_words() {
        // A node with arena index >= 64 forces a second bitmap word; removing
        // it must trim the word so equality with a one-word set holds.
        let mut store = NodeStore::new();
        let mut xml = String::from("<r>");
        for _ in 0..70 {
            xml.push_str("<c/>");
        }
        xml.push_str("</r>");
        let doc = store.parse_document(&xml).unwrap();
        let root = store.document_element(doc).unwrap();
        let kids = store.axis_nodes(root, Axis::Child, &NodeTest::AnyElement);
        let far = kids[69]; // arena index > 64
        let mut a = NodeSet::from_nodes([kids[0], far]);
        a.remove(far);
        assert_eq!(a, NodeSet::from_nodes([kids[0]]));
        let mut b = NodeSet::from_nodes([kids[0], far]);
        b.except_in_place(&NodeSet::from_nodes([far]));
        assert_eq!(b, NodeSet::from_nodes([kids[0]]));
    }

    #[test]
    fn word_parallel_algebra() {
        let mut store = NodeStore::new();
        let kids = fixture(&mut store);
        let a = NodeSet::from_nodes([kids[0], kids[1], kids[2]]);
        let b = NodeSet::from_nodes([kids[2], kids[3]]);
        assert_eq!(
            a.union(&b),
            NodeSet::from_nodes([kids[0], kids[1], kids[2], kids[3]])
        );
        assert_eq!(a.except(&b), NodeSet::from_nodes([kids[0], kids[1]]));
        assert_eq!(a.intersect(&b), NodeSet::from_nodes([kids[2]]));
        assert!(NodeSet::from_nodes([kids[0]]).is_subset(&a));
        assert!(!a.is_subset(&b));
        assert!(a.except(&b).is_disjoint(&b));
        assert_eq!(a.union(&b).len(), 4);
    }

    #[test]
    fn cross_document_sets() {
        let mut store = NodeStore::new();
        let k1 = fixture(&mut store);
        let k2 = fixture(&mut store);
        assert_ne!(k1[0].doc, k2[0].doc);
        let mut set = NodeSet::from_nodes([k2[1], k1[0]]);
        set.insert(k1[3]);
        assert_eq!(set.len(), 3);
        // Iteration is ordered by (doc, index): all of doc 1 before doc 2.
        let ids: Vec<NodeId> = set.iter().collect();
        assert_eq!(ids, vec![k1[0], k1[3], k2[1]]);
        // Except only touches the matching document.
        set.except_in_place(&NodeSet::from_nodes([k2[1], k2[3]]));
        assert_eq!(set, NodeSet::from_nodes([k1[0], k1[3]]));
    }

    #[test]
    fn to_vec_yields_document_order_on_parsed_documents() {
        let mut store = NodeStore::new();
        let kids = fixture(&mut store);
        let set = NodeSet::from_nodes([kids[5], kids[1], kids[3], kids[1]]);
        assert_eq!(set.to_vec(&store), vec![kids[1], kids[3], kids[5]]);
    }

    #[test]
    fn to_vec_sorts_constructed_fragments_built_out_of_order() {
        // Build a fragment whose arena order differs from document order:
        // create child before parent, then attach.
        let mut store = NodeStore::new();
        let frag = store.new_fragment();
        let child = store.create_element(frag, QName::local("child"));
        let parent = store.create_element(frag, QName::local("parent"));
        store.append_child(parent, child).unwrap();
        // Arena order: child(0), parent(1); document order: parent, child.
        let set = NodeSet::from_nodes([child, parent]);
        assert_eq!(set.to_vec(&store), vec![parent, child]);
        // Bit iteration remains arena-ordered; only to_vec re-sorts.
        assert_eq!(set.iter().collect::<Vec<_>>(), vec![child, parent]);

        // Children created before their parent and attached in reverse:
        // arena order 0..130, document order parent, c129, …, c0.
        let frag = store.new_fragment();
        let kids: Vec<NodeId> = (0..130)
            .map(|_| store.create_element(frag, QName::local("c")))
            .collect();
        let parent = store.create_element(frag, QName::local("p"));
        for &kid in kids.iter().rev() {
            store.append_child(parent, kid).unwrap();
        }
        assert!(!store.index_order_is_document_order(frag));
        let mut rng = 7u64;
        for _ in 0..50 {
            // Members from arena index 64 up, so the span starts at word 1.
            let picked: Vec<NodeId> = (0..20)
                .map(|_| kids[64 + splitmix64(&mut rng) as usize % 66])
                .chain([parent])
                .collect();
            let set = NodeSet::from_nodes(picked.iter().copied());
            let expected: Vec<NodeId> = std::iter::once(parent)
                .chain(kids.iter().rev().copied())
                .filter(|n| picked.contains(n))
                .collect();
            assert_eq!(set.to_vec(&store), expected);
        }
    }

    #[test]
    fn empty_operand_edge_cases() {
        let mut store = NodeStore::new();
        let kids = fixture(&mut store);
        let empty = NodeSet::new();
        let a = NodeSet::from_nodes([kids[0]]);
        assert_eq!(a.union(&empty), a);
        assert_eq!(empty.union(&a), a);
        assert_eq!(a.except(&empty), a);
        assert_eq!(empty.except(&a), empty);
        assert_eq!(a.intersect(&empty), empty);
        assert!(empty.is_subset(&a));
        assert!(empty.is_subset(&empty));
        assert!(empty.to_vec(&store).is_empty());
        assert_eq!(empty, NodeSet::new());
    }

    /// Deterministic splitmix64 stream; failures reproduce from the seed.
    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Random ids over 1–3 documents, each confined to a window that
    /// starts far from arena index 0 (so spans do not begin at word 0).
    fn random_ids(rng: &mut u64, docs: &[(u32, u32, u32)], count: usize) -> Vec<NodeId> {
        (0..count)
            .map(|_| {
                let (doc, start, width) = docs[splitmix64(rng) as usize % docs.len()];
                NodeId::new(doc, start + (splitmix64(rng) % width as u64) as u32)
            })
            .collect()
    }

    fn model_of(set: &NodeSet) -> BTreeSet<NodeId> {
        set.iter().collect()
    }

    #[test]
    fn span_sets_agree_with_a_btreeset_model() {
        let mut rng = 0x5eed_u64;
        for case in 0..300 {
            let ndocs = 1 + splitmix64(&mut rng) as usize % 3;
            let docs: Vec<(u32, u32, u32)> = (0..ndocs)
                .map(|d| {
                    let start = (splitmix64(&mut rng) % 200_000) as u32;
                    let width = 1 + (splitmix64(&mut rng) % 900) as u32;
                    (d as u32 * 2 + 1, start, width)
                })
                .collect();

            // Unsorted bulk construction, then single inserts and removes.
            let count = splitmix64(&mut rng) as usize % 400;
            let ids = random_ids(&mut rng, &docs, count);
            let mut a = NodeSet::from_nodes(ids.iter().copied());
            let mut model: BTreeSet<NodeId> = ids.iter().copied().collect();
            for node in random_ids(&mut rng, &docs, 40) {
                assert_eq!(a.insert(node), model.insert(node), "case {case}: insert");
            }
            let members: Vec<NodeId> = model.iter().copied().collect();
            for node in random_ids(&mut rng, &docs, 40) {
                assert_eq!(a.remove(node), model.remove(&node), "case {case}: remove");
            }
            for &node in members.iter().step_by(3) {
                assert_eq!(a.remove(node), model.remove(&node), "case {case}: remove");
            }
            assert_eq!(a.len(), model.len(), "case {case}: len");
            assert_eq!(
                a.iter().collect::<Vec<_>>(),
                model.iter().copied().collect::<Vec<_>>(),
                "case {case}: iter order"
            );
            // The removals must leave the canonical form behind.
            assert_eq!(
                a,
                NodeSet::from_nodes(model.iter().copied()),
                "case {case}: eq"
            );
            for node in random_ids(&mut rng, &docs, 20) {
                assert_eq!(
                    a.contains(node),
                    model.contains(&node),
                    "case {case}: contains"
                );
            }

            let count = splitmix64(&mut rng) as usize % 400;
            let mut b_ids = random_ids(&mut rng, &docs, count);
            b_ids.extend(members.iter().copied().step_by(2));
            let mut b = NodeSet::new();
            b.extend(b_ids.iter().rev().copied());
            let b_model: BTreeSet<NodeId> = b_ids.iter().copied().collect();
            assert_eq!(model_of(&b), b_model, "case {case}: extend");

            let union = a.union(&b);
            assert_eq!(model_of(&union), &model | &b_model, "case {case}: union");
            assert_eq!(union.len(), model.union(&b_model).count());
            let except = a.except(&b);
            assert_eq!(model_of(&except), &model - &b_model, "case {case}: except");
            assert_eq!(except.len(), model.difference(&b_model).count());
            let meet = a.intersect(&b);
            assert_eq!(model_of(&meet), &model & &b_model, "case {case}: intersect");
            assert_eq!(meet.len(), model.intersection(&b_model).count());
            assert_eq!(
                meet,
                NodeSet::from_nodes(model.intersection(&b_model).copied())
            );

            assert_eq!(
                a.is_subset(&b),
                model.is_subset(&b_model),
                "case {case}: subset"
            );
            assert_eq!(
                b.is_subset(&a),
                b_model.is_subset(&model),
                "case {case}: subset"
            );
            assert!(a.is_subset(&union) && meet.is_subset(&b));
            assert_eq!(
                a.is_disjoint(&b),
                model.is_disjoint(&b_model),
                "case {case}: disjoint"
            );
            assert!(except.is_disjoint(&b));
        }
    }
}
