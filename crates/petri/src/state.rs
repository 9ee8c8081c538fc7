//! Interned state storage for reachability exploration.
//!
//! Exploration used to carry heap-allocated `Marking(Box<[u32]>)` values
//! everywhere: the BFS frontier, the dedup maps, the parallel shard sets
//! and the per-worker successor records each held (and cloned, and
//! SipHash-hashed) their own copies. This module replaces that with two
//! representations the engines in [`crate::reach`] choose between per net:
//!
//! * [`PackedMarking`] — the whole marking in one `u64`, one byte per
//!   place, for nets with at most [`MAX_PACKED_PLACES`] places and token
//!   counts below 256. Every model in the paper (the 5-place Figure-1
//!   monitor net) and every component scenario fits. A packed marking is
//!   `Copy`: moving it through queues, sets and edge records costs a
//!   register, and [`PackedNet`] fires transitions with two 64-bit adds.
//! * [`StateStore`] — an append-only flat arena for wider nets: each
//!   interned marking is a `stride`-long run of `u32`s stored exactly
//!   once, addressed by a dense `u32` [`StateId`]. Dedup goes through an
//!   FxHash → candidate-id bucket map, comparing token slices only on a
//!   (deterministic) hash match.
//!
//! Both representations are *deterministic by construction*: FxHash has no
//! per-process seed, arena ids are assigned in insertion order, and bucket
//! candidates are compared in insertion order — so the interleaving-free
//! sequential engines produce identical ids on every run.

use crate::net::{Marking, Net, TransId};
use crate::reach::ReachLimits;
use fxhash::FxHashMap;

/// The largest number of places a marking can have and still pack into a
/// single `u64` (one byte per place).
pub const MAX_PACKED_PLACES: usize = 8;

/// A dense identifier of an interned marking inside a [`StateStore`].
///
/// Ids are assigned in insertion order starting at 0, so a store built by
/// a sequential BFS numbers states exactly in discovery order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct StateId(pub u32);

impl StateId {
    /// The dense index of this state.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A whole marking packed into one `u64`: place `i`'s token count lives in
/// byte `i` (little-endian — place 0 is the least-significant byte).
///
/// ```text
///   bit 63                                                    bit 0
///   ┌────────┬────────┬────────┬────────┬────────┬────────┬────────┬────────┐
///   │ place 7│ place 6│ place 5│ place 4│ place 3│ place 2│ place 1│ place 0│
///   └────────┴────────┴────────┴────────┴────────┴────────┴────────┴────────┘
///     tokens   tokens   tokens   tokens   tokens   tokens   tokens   tokens
/// ```
///
/// Unused high bytes (nets with fewer than 8 places) are zero, so equality
/// and hashing of the raw `u64` coincide with marking equality.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PackedMarking(pub u64);

impl PackedMarking {
    /// Pack a marking. `None` when the net is too wide (more than
    /// [`MAX_PACKED_PLACES`] places) or any token count exceeds 255.
    pub fn pack(marking: &Marking) -> Option<PackedMarking> {
        if marking.len() > MAX_PACKED_PLACES {
            return None;
        }
        let mut word = 0u64;
        for (i, &tokens) in marking.0.iter().enumerate() {
            if tokens > u32::from(u8::MAX) {
                return None;
            }
            word |= u64::from(tokens) << (8 * i);
        }
        Some(PackedMarking(word))
    }

    /// Unpack into a fresh `places`-long marking.
    pub fn unpack(self, places: usize) -> Marking {
        let mut tokens = vec![0u32; places];
        self.unpack_into(&mut tokens);
        Marking(tokens.into_boxed_slice())
    }

    /// Unpack into an existing buffer (the engines reuse one scratch
    /// marking instead of allocating per state).
    #[inline]
    pub fn unpack_into(self, out: &mut [u32]) {
        for (i, slot) in out.iter_mut().enumerate() {
            *slot = self.tokens(i);
        }
    }

    /// Token count of place `i`.
    #[inline]
    pub fn tokens(self, i: usize) -> u32 {
        u32::from((self.0 >> (8 * i)) as u8)
    }
}

/// One transition of a [`PackedNet`]: aggregated per-place weights as
/// byte-lane delta words plus the per-arc views the enabling and bound
/// checks walk.
#[derive(Debug, Clone)]
struct PackedTrans {
    /// Aggregated input weights, one byte per consuming place; subtracted
    /// whole (no lane can borrow into its neighbour once enabled).
    sub: u64,
    /// Aggregated output weights, one byte per producing place; added
    /// whole (no lane can carry once the bound check passed).
    add: u64,
    /// (place index, aggregated weight) of each consuming place.
    inputs: Vec<(usize, u32)>,
    /// (place index, aggregated weight) of each producing place.
    outputs: Vec<(usize, u32)>,
}

/// A net compiled for packed firing: every transition's arcs folded into
/// byte-lane delta words over [`PackedMarking`]s.
#[derive(Debug, Clone)]
pub struct PackedNet {
    places: usize,
    trans: Vec<PackedTrans>,
    initial: PackedMarking,
}

impl PackedNet {
    /// Compile `net` for packed exploration under `limits`. `None` when the
    /// net (or the limit configuration) cannot guarantee byte-lane safety:
    /// more than [`MAX_PACKED_PLACES`] places, an aggregated arc weight or
    /// initial token count above 255, or a per-place token bound above 255
    /// (the bound check is what keeps additions carry-free). An initial
    /// marking already over the token bound is also rejected: the boxed
    /// engine notices such a violation by scanning the *whole* successor
    /// marking, while the packed fire only checks produced places, so those
    /// nets take the exact-semantics wide path instead.
    pub fn try_new(net: &Net, limits: &ReachLimits) -> Option<PackedNet> {
        let places = net.num_places();
        if places > MAX_PACKED_PLACES || limits.max_tokens_per_place > u32::from(u8::MAX) {
            return None;
        }
        let m0 = net.initial_marking();
        if m0.0.iter().any(|&t| t > limits.max_tokens_per_place) {
            return None;
        }
        let initial = PackedMarking::pack(&m0)?;
        let mut trans = Vec::with_capacity(net.num_transitions());
        for t in net.transitions() {
            let inputs = aggregate_arcs(net.inputs(t), places)?;
            let outputs = aggregate_arcs(net.outputs(t), places)?;
            let lanes = |arcs: &[(usize, u32)]| {
                arcs.iter()
                    .fold(0u64, |w, &(p, weight)| w | (u64::from(weight) << (8 * p)))
            };
            trans.push(PackedTrans {
                sub: lanes(&inputs),
                add: lanes(&outputs),
                inputs,
                outputs,
            });
        }
        Some(PackedNet {
            places,
            trans,
            initial,
        })
    }

    /// Number of places of the underlying net.
    #[inline]
    pub fn places(&self) -> usize {
        self.places
    }

    /// The packed initial marking.
    #[inline]
    pub fn initial(&self) -> PackedMarking {
        self.initial
    }

    /// True if transition `t` is enabled in `m` (every consuming place
    /// holds at least the aggregated arc weight).
    #[inline]
    pub fn enabled(&self, m: PackedMarking, t: TransId) -> bool {
        self.trans[t.index()]
            .inputs
            .iter()
            .all(|&(p, w)| m.tokens(p) >= w)
    }

    /// Fire `t` (must be enabled) in `m`. Returns the successor, or
    /// `Err(place)` with the lowest-index place whose token count would
    /// exceed `bound` — the exact truncation report the boxed engine makes.
    ///
    /// Safety of the whole-word arithmetic: the enabling check guarantees
    /// every `sub` lane subtracts without borrowing, and the bound check
    /// (`bound` ≤ 255, verified per producing place *before* the add)
    /// guarantees every `add` lane stays below 256, so no carry can cross
    /// into a neighbouring place.
    #[inline]
    pub fn fire(
        &self,
        m: PackedMarking,
        t: TransId,
        bound: u32,
        max_seen: &mut u32,
    ) -> Result<PackedMarking, usize> {
        let tr = &self.trans[t.index()];
        let drained = PackedMarking(m.0.wrapping_sub(tr.sub));
        let mut violation: Option<usize> = None;
        let mut fire_max = 0u32;
        for &(p, w) in &tr.outputs {
            let tokens = drained.tokens(p) + w;
            if tokens > bound {
                // Lowest place index wins, matching the boxed engine's
                // first-offending-place scan.
                violation = Some(violation.map_or(p, |v| v.min(p)));
            } else {
                fire_max = fire_max.max(tokens);
            }
        }
        if let Some(p) = violation {
            // Out-of-bound successors never contribute to `max_seen`, just
            // as the boxed engine discards the whole marking's peak.
            return Err(p);
        }
        *max_seen = (*max_seen).max(fire_max);
        Ok(PackedMarking(drained.0.wrapping_add(tr.add)))
    }
}

/// Fold duplicate arcs to the same place into one aggregated weight;
/// `None` when an aggregate exceeds 255 (not byte-lane safe).
fn aggregate_arcs(
    arcs: &[(crate::net::PlaceId, u32)],
    places: usize,
) -> Option<Vec<(usize, u32)>> {
    let mut weight = vec![0u64; places];
    for &(p, w) in arcs {
        weight[p.index()] += u64::from(w);
    }
    let mut out = Vec::new();
    for (p, &w) in weight.iter().enumerate() {
        if w > u64::from(u8::MAX) {
            return None;
        }
        if w > 0 {
            out.push((p, w as u32));
        }
    }
    Some(out)
}

/// Append-only interning arena for markings of nets too wide to pack.
///
/// Token vectors live contiguously in one flat `Vec<u32>` (`stride` words
/// per state); the dedup index maps an FxHash of the token slice to the
/// ids of every state with that hash, compared by slice on probe. Ids are
/// insertion-ordered, so a store filled by sequential BFS *is* the
/// canonical state numbering.
#[derive(Debug)]
pub struct StateStore {
    stride: usize,
    arena: Vec<u32>,
    /// hash → insertion-ordered candidate ids (collisions are ~never, but
    /// correctness does not depend on that).
    index: FxHashMap<u64, Vec<StateId>>,
}

impl StateStore {
    /// An empty store for markings of `stride` places.
    pub fn new(stride: usize) -> StateStore {
        StateStore {
            stride,
            arena: Vec::new(),
            index: FxHashMap::default(),
        }
    }

    /// Number of interned states.
    #[inline]
    pub fn len(&self) -> usize {
        match self.arena.len().checked_div(self.stride) {
            Some(n) => n,
            // Degenerate zero-place nets still intern the empty marking.
            None => self.index.values().map(Vec::len).sum(),
        }
    }

    /// True when nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The token slice of an interned state.
    #[inline]
    pub fn tokens(&self, id: StateId) -> &[u32] {
        let start = id.index() * self.stride;
        &self.arena[start..start + self.stride]
    }

    /// Look up `tokens` without interning.
    pub fn get(&self, tokens: &[u32]) -> Option<StateId> {
        debug_assert_eq!(tokens.len(), self.stride);
        let hash = fxhash::hash64(tokens);
        self.index
            .get(&hash)?
            .iter()
            .copied()
            .find(|&id| self.tokens(id) == tokens)
    }

    /// Intern `tokens`: return its id and whether it was newly inserted.
    pub fn intern(&mut self, tokens: &[u32]) -> (StateId, bool) {
        debug_assert_eq!(tokens.len(), self.stride);
        let hash = fxhash::hash64(tokens);
        let candidates = self.index.entry(hash).or_default();
        for &id in candidates.iter() {
            let start = id.index() * self.stride;
            if &self.arena[start..start + self.stride] == tokens {
                return (id, false);
            }
        }
        let id = StateId(match self.arena.len().checked_div(self.stride) {
            Some(n) => n as u32,
            // Zero-place nets: the arena stays empty, only the empty
            // marking is ever interned.
            None => candidates.len() as u32,
        });
        self.arena.extend_from_slice(tokens);
        candidates.push(id);
        (id, true)
    }

    /// Materialize every interned state as a [`Marking`], in id order —
    /// the one allocation per state the final [`crate::reach::ReachGraph`]
    /// still makes.
    pub fn to_markings(&self) -> Vec<Marking> {
        (0..self.len())
            .map(|i| Marking(self.tokens(StateId(i as u32)).to_vec().into_boxed_slice()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::NetBuilder;
    use proptest::prelude::*;

    fn marking(tokens: &[u32]) -> Marking {
        Marking(tokens.to_vec().into_boxed_slice())
    }

    #[test]
    fn pack_unpack_known_values() {
        let m = marking(&[1, 0, 255, 7]);
        let p = PackedMarking::pack(&m).unwrap();
        assert_eq!(p.tokens(0), 1);
        assert_eq!(p.tokens(2), 255);
        assert_eq!(p.unpack(4), m);
    }

    #[test]
    fn pack_rejects_wide_or_big() {
        assert!(PackedMarking::pack(&marking(&[0; 9])).is_none());
        assert!(PackedMarking::pack(&marking(&[256])).is_none());
        assert!(PackedMarking::pack(&marking(&[0; 8])).is_some());
        assert!(PackedMarking::pack(&marking(&[255; 8])).is_some());
    }

    #[test]
    fn packed_net_fires_like_boxed_net() {
        let mut b = NetBuilder::new();
        let p = b.place("p", 3);
        let q = b.place("q", 0);
        let t = b.weighted_transition("t", &[(p, 2)], &[(q, 5)]);
        let net = b.build().unwrap();
        let limits = ReachLimits::default();
        let pn = PackedNet::try_new(&net, &limits).unwrap();
        let m0 = pn.initial();
        assert!(pn.enabled(m0, t));
        let mut max_seen = 0;
        let m1 = pn.fire(m0, t, 64, &mut max_seen).unwrap();
        assert_eq!(m1.unpack(2), net.fire(&net.initial_marking(), t).unwrap());
        assert_eq!(max_seen, 5);
        assert!(!pn.enabled(m1, t));
    }

    #[test]
    fn packed_fire_reports_lowest_violating_place() {
        let mut b = NetBuilder::new();
        let p = b.place("p", 1);
        let q = b.place("q", 10);
        let r = b.place("r", 10);
        // Feeds both q and r past a bound of 10 — place index 1 must win.
        let t = b.transition("t", &[p], &[r, q]);
        let net = b.build().unwrap();
        let pn = PackedNet::try_new(&net, &ReachLimits::default()).unwrap();
        let mut max_seen = 0;
        assert_eq!(pn.fire(pn.initial(), t, 10, &mut max_seen), Err(1));
    }

    #[test]
    fn packed_net_rejects_unsafe_configurations() {
        let mut b = NetBuilder::new();
        for i in 0..9 {
            b.place(format!("p{i}"), 0);
        }
        let nine = b.build().unwrap();
        assert!(PackedNet::try_new(&nine, &ReachLimits::default()).is_none());

        let mut b = NetBuilder::new();
        let p = b.place("p", 0);
        b.weighted_transition("t", &[], &[(p, 300)]);
        let heavy = b.build().unwrap();
        assert!(PackedNet::try_new(&heavy, &ReachLimits::default()).is_none());

        let mut b = NetBuilder::new();
        b.place("p", 1);
        let small = b.build().unwrap();
        let wide_bound = ReachLimits {
            max_tokens_per_place: 300,
            ..ReachLimits::default()
        };
        assert!(PackedNet::try_new(&small, &wide_bound).is_none());
        assert!(PackedNet::try_new(&small, &ReachLimits::default()).is_some());

        // Initial marking already over the token bound: the wide engine's
        // whole-marking scan handles that case, so packing refuses it.
        let mut b = NetBuilder::new();
        b.place("p", 50);
        let loaded = b.build().unwrap();
        let tight = ReachLimits {
            max_tokens_per_place: 10,
            ..ReachLimits::default()
        };
        assert!(PackedNet::try_new(&loaded, &tight).is_none());
    }

    #[test]
    fn packed_net_aggregates_duplicate_arcs() {
        let mut b = NetBuilder::new();
        let p = b.place("p", 2);
        let q = b.place("q", 0);
        // q appears twice in the outputs: net effect +2.
        let t = b.transition("t", &[p], &[q, q]);
        let net = b.build().unwrap();
        let pn = PackedNet::try_new(&net, &ReachLimits::default()).unwrap();
        let mut max_seen = 0;
        let m1 = pn.fire(pn.initial(), t, 64, &mut max_seen).unwrap();
        assert_eq!(m1.unpack(2), net.fire(&net.initial_marking(), t).unwrap());
        assert_eq!(m1.tokens(1), 2);
    }

    #[test]
    fn store_interns_once_and_preserves_order() {
        let mut store = StateStore::new(3);
        let (a, new_a) = store.intern(&[1, 2, 3]);
        let (b, new_b) = store.intern(&[4, 5, 6]);
        let (a2, new_a2) = store.intern(&[1, 2, 3]);
        assert!(new_a && new_b && !new_a2);
        assert_eq!(a, a2);
        assert_eq!(a, StateId(0));
        assert_eq!(b, StateId(1));
        assert_eq!(store.len(), 2);
        assert_eq!(store.tokens(b), &[4, 5, 6]);
        assert_eq!(store.get(&[1, 2, 3]), Some(a));
        assert_eq!(store.get(&[9, 9, 9]), None);
        assert_eq!(
            store.to_markings(),
            vec![marking(&[1, 2, 3]), marking(&[4, 5, 6])]
        );
    }

    #[test]
    fn store_handles_zero_stride_nets() {
        let mut store = StateStore::new(0);
        assert!(store.is_empty());
        let (id, new) = store.intern(&[]);
        assert!(new);
        assert_eq!(id, StateId(0));
        let (id2, new2) = store.intern(&[]);
        assert!(!new2);
        assert_eq!(id2, id);
        assert_eq!(store.len(), 1);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Satellite property: pack/unpack round-trips over arbitrary
        /// ≤8-place markings with byte-range token counts.
        #[test]
        fn packed_marking_roundtrips(
            tokens in proptest::collection::vec(0u32..=255, 0..=8),
        ) {
            let m = marking(&tokens);
            let p = PackedMarking::pack(&m).expect("eligible marking");
            prop_assert_eq!(p.unpack(tokens.len()), m);
            for (i, &t) in tokens.iter().enumerate() {
                prop_assert_eq!(p.tokens(i), t);
            }
            // And per-place writes land in disjoint lanes: re-packing the
            // unpacked marking is the identity on the word.
            let again = PackedMarking::pack(&p.unpack(tokens.len())).unwrap();
            prop_assert_eq!(again, p);
        }

        /// The store is a bijection between distinct token slices and ids.
        #[test]
        fn store_intern_is_injective(
            slices in proptest::collection::vec(
                proptest::collection::vec(0u32..4, 4),
                1..40,
            ),
        ) {
            let mut store = StateStore::new(4);
            let mut reference: Vec<Vec<u32>> = Vec::new();
            for s in &slices {
                let (id, new) = store.intern(s);
                match reference.iter().position(|r| r == s) {
                    Some(pos) => {
                        prop_assert!(!new);
                        prop_assert_eq!(id.index(), pos);
                    }
                    None => {
                        prop_assert!(new);
                        prop_assert_eq!(id.index(), reference.len());
                        reference.push(s.clone());
                    }
                }
                prop_assert_eq!(store.tokens(id), s.as_slice());
            }
            prop_assert_eq!(store.len(), reference.len());
        }
    }
}
