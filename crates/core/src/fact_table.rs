//! The fact table (Definition 3) and property catalog (Definition 4).
//!
//! Given the facts `T_W` extracted from a web source `W` and the knowledge
//! base `E` to augment, the [`FactTable`] organises facts by entity
//! (subject), derives the property catalog `C_W`, and precomputes the two
//! per-entity counts every profit evaluation needs:
//!
//! * `facts(e)` — how many extracted facts mention entity `e` (drives the
//!   de-duplication cost), and
//! * `new(e)` — how many of those are absent from `E` (drives the gain and
//!   the validation cost).
//!
//! Because a slice's fact extent `Π*` is *all* facts of its entities
//! (Definition 5), the gain/cost of any slice — or union of slices — reduces
//! to sums of these two counts over a set of distinct entities. That
//! reduction is what makes hierarchy construction cheap.
//!
//! All bulk storage is [`Column`]-backed and flat: entity rows are
//! contiguous slices of the (sorted) source fact column addressed through an
//! offsets array, and per-entity property lists are flattened the same way.
//! A table loaded from a corpus snapshot therefore borrows every column
//! directly from the memory-mapped file; only the hash indexes
//! (`by_subject`, the catalog's `by_pair`) and the derived prefix/packed
//! count arrays are rebuilt in memory.

use midas_kb::fnv::FnvHashMap;
use midas_kb::{Column, Fact, KnowledgeBase, Symbol};

use crate::extent::{calibrate_divisor, ExtentSet};
use crate::source::SourceFacts;

/// Dense per-source entity index (row number in the fact table).
pub type EntityId = u32;

/// Dense per-source property index into the [`PropertyCatalog`].
pub type PropertyId = u32;

/// The catalog `C_W` of all properties derived from a fact table, with an
/// inverted index from property to the (sorted) entities that carry it.
#[derive(Debug, Default, Clone)]
pub struct PropertyCatalog {
    pub(crate) props: Vec<(Symbol, Symbol)>,
    by_pair: FnvHashMap<(Symbol, Symbol), PropertyId>,
    pub(crate) extents: Vec<ExtentSet>,
}

impl PropertyCatalog {
    /// Number of distinct properties.
    pub fn len(&self) -> usize {
        self.props.len()
    }

    /// Whether the catalog is empty.
    pub fn is_empty(&self) -> bool {
        self.props.is_empty()
    }

    /// The `(predicate, value)` pair of a property.
    pub fn pair(&self, id: PropertyId) -> (Symbol, Symbol) {
        self.props[id as usize]
    }

    /// Looks up a property by its `(predicate, value)` pair.
    pub fn get(&self, pred: Symbol, value: Symbol) -> Option<PropertyId> {
        self.by_pair.get(&(pred, value)).copied()
    }

    /// The entities carrying property `id`.
    pub fn extent(&self, id: PropertyId) -> &ExtentSet {
        &self.extents[id as usize]
    }

    /// Reassembles a catalog from its stored parts, rebuilding the
    /// pair-to-id hash index (hash tables are not snapshotted).
    pub(crate) fn from_parts(props: Vec<(Symbol, Symbol)>, extents: Vec<ExtentSet>) -> Self {
        debug_assert_eq!(props.len(), extents.len());
        let by_pair = props
            .iter()
            .enumerate()
            .map(|(i, &p)| (p, i as PropertyId))
            .collect();
        PropertyCatalog {
            props,
            by_pair,
            extents,
        }
    }

    fn intern(&mut self, pred: Symbol, value: Symbol) -> PropertyId {
        if let Some(&id) = self.by_pair.get(&(pred, value)) {
            return id;
        }
        let id = u32::try_from(self.props.len()).expect("property catalog overflow");
        self.props.push((pred, value));
        self.by_pair.insert((pred, value), id);
        id
    }
}

/// The fact table `F_W` of one web source (Definition 3).
#[derive(Debug, Clone)]
pub struct FactTable {
    pub(crate) subjects: Column<Symbol>,
    by_subject: FnvHashMap<Symbol, EntityId>,
    /// All facts in `(s, p, o)` order; row `e` is the slice
    /// `rows_flat[row_offsets[e] .. row_offsets[e + 1]]`. When built from a
    /// `SourceFacts` this is a clone of its column — an `Arc` bump if the
    /// source is snapshot-mapped.
    pub(crate) rows_flat: Column<Fact>,
    /// `num_entities + 1` row start offsets into `rows_flat`.
    pub(crate) row_offsets: Column<u32>,
    /// Distinct sorted properties per entity, flattened; entity `e` owns
    /// `entity_props_flat[entity_props_offsets[e] .. entity_props_offsets[e + 1]]`.
    pub(crate) entity_props_flat: Column<PropertyId>,
    /// `num_entities + 1` offsets into `entity_props_flat`.
    pub(crate) entity_props_offsets: Column<u32>,
    pub(crate) facts_count: Column<u32>,
    pub(crate) new_count: Column<u32>,
    /// `new(e)` in the low 32 bits, `facts(e)` in the high 32 — one load
    /// (and one cache stream) per entity in the profit gather loops.
    packed_counts: Column<u64>,
    /// `facts_prefix[i] = Σ_{e<i} facts(e)` — lets [`Self::fact_counts`]
    /// charge a fully-populated 64-entity word of a dense extent in O(1).
    facts_prefix: Column<u64>,
    /// `new_prefix[i] = Σ_{e<i} new(e)`.
    new_prefix: Column<u64>,
    pub(crate) catalog: PropertyCatalog,
    pub(crate) total_facts: usize,
    pub(crate) distinct_sp_pairs: usize,
    /// The density divisor all extents of this table were sealed with,
    /// calibrated per table from the extent length distribution.
    pub(crate) divisor: u32,
}

impl FactTable {
    /// Builds the fact table for `source` against knowledge base `kb`.
    pub fn build(source: &SourceFacts, kb: &KnowledgeBase) -> Self {
        let facts: &[Fact] = &source.facts;
        // `source.facts` is sorted by (s, p, o), so each entity's facts form
        // one contiguous run and subjects appear in ascending symbol order.
        // Rows are therefore slices of the source column itself.
        debug_assert!(facts.windows(2).all(|w| w[0] < w[1]));
        let mut subjects: Vec<Symbol> = Vec::new();
        let mut row_offsets: Vec<u32> = Vec::new();
        for (i, f) in facts.iter().enumerate() {
            if subjects.last() != Some(&f.subject) {
                u32::try_from(subjects.len()).expect("fact table overflow");
                subjects.push(f.subject);
                row_offsets.push(i as u32);
            }
        }
        row_offsets.push(u32::try_from(facts.len()).expect("fact table overflow"));
        let n = subjects.len();
        let by_subject: FnvHashMap<Symbol, EntityId> = subjects
            .iter()
            .enumerate()
            .map(|(i, &s)| (s, i as EntityId))
            .collect();

        let mut catalog = PropertyCatalog::default();
        let mut raw_extents: Vec<Vec<EntityId>> = Vec::new();
        let mut props_flat: Vec<PropertyId> = Vec::with_capacity(facts.len());
        let mut props_offsets: Vec<u32> = Vec::with_capacity(n + 1);
        props_offsets.push(0);
        let mut row_props: Vec<PropertyId> = Vec::new();
        let mut facts_count: Vec<u32> = Vec::with_capacity(n);
        let mut new_count: Vec<u32> = Vec::with_capacity(n);
        let mut distinct_sp_pairs = 0usize;
        for eid in 0..n {
            let row = &facts[row_offsets[eid] as usize..row_offsets[eid + 1] as usize];
            // The row is sorted by (p, o) with no duplicates, so every fact
            // yields a distinct property; sorting by *property id* is still
            // needed because ids are assigned in global first-seen order.
            row_props.clear();
            row_props.reserve(row.len());
            let mut news = 0u32;
            let mut last_pred: Option<Symbol> = None;
            for f in row {
                let pid = catalog.intern(f.predicate, f.object);
                row_props.push(pid);
                if kb.is_new(f) {
                    news += 1;
                }
                if last_pred != Some(f.predicate) {
                    distinct_sp_pairs += 1;
                    last_pred = Some(f.predicate);
                }
            }
            row_props.sort_unstable();
            row_props.dedup();
            raw_extents.resize_with(catalog.len(), Vec::new);
            for &pid in &row_props {
                raw_extents[pid as usize].push(eid as EntityId);
            }
            props_flat.extend_from_slice(&row_props);
            props_offsets.push(u32::try_from(props_flat.len()).expect("property overflow"));
            facts_count.push(u32::try_from(row.len()).expect("row overflow"));
            new_count.push(news);
        }
        // Extents were filled in ascending entity order, so they are sorted;
        // calibrate one density divisor for the whole table from the extent
        // length distribution, then seal them with it.
        let universe = u32::try_from(n).expect("fact table overflow");
        let lens: Vec<u32> = raw_extents.iter().map(|v| v.len() as u32).collect();
        let divisor = calibrate_divisor(universe, &lens);
        catalog.extents = raw_extents
            .into_iter()
            .map(|v| ExtentSet::from_sorted_with_divisor(universe, divisor, v))
            .collect();

        let (facts_prefix, new_prefix, packed_counts) =
            derive_count_structures(&facts_count, &new_count);

        FactTable {
            subjects: subjects.into(),
            by_subject,
            total_facts: facts.len(),
            rows_flat: source.facts.clone(),
            row_offsets: row_offsets.into(),
            entity_props_flat: props_flat.into(),
            entity_props_offsets: props_offsets.into(),
            facts_count: facts_count.into(),
            new_count: new_count.into(),
            packed_counts,
            facts_prefix,
            new_prefix,
            catalog,
            distinct_sp_pairs,
            divisor,
        }
    }

    /// Reassembles a table from snapshot-loaded columns, rebuilding the
    /// subject hash index and the derived prefix/packed count arrays (which
    /// are not stored — they are cheap to derive and this guarantees they
    /// always agree with the stored counts).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        subjects: Column<Symbol>,
        rows_flat: Column<Fact>,
        row_offsets: Column<u32>,
        entity_props_flat: Column<PropertyId>,
        entity_props_offsets: Column<u32>,
        facts_count: Column<u32>,
        new_count: Column<u32>,
        catalog: PropertyCatalog,
        total_facts: usize,
        distinct_sp_pairs: usize,
        divisor: u32,
    ) -> Self {
        let n = subjects.len();
        debug_assert_eq!(row_offsets.len(), n + 1);
        debug_assert_eq!(entity_props_offsets.len(), n + 1);
        debug_assert_eq!(facts_count.len(), n);
        debug_assert_eq!(new_count.len(), n);
        let by_subject = subjects
            .iter()
            .enumerate()
            .map(|(i, &s)| (s, i as EntityId))
            .collect();
        let (facts_prefix, new_prefix, packed_counts) =
            derive_count_structures(&facts_count, &new_count);
        FactTable {
            subjects,
            by_subject,
            rows_flat,
            row_offsets,
            entity_props_flat,
            entity_props_offsets,
            facts_count,
            new_count,
            packed_counts,
            facts_prefix,
            new_prefix,
            catalog,
            total_facts,
            distinct_sp_pairs,
            divisor,
        }
    }

    /// Number of entities (rows).
    pub fn num_entities(&self) -> usize {
        self.subjects.len()
    }

    /// Total number of extracted facts `|T_W|`.
    pub fn total_facts(&self) -> usize {
        self.total_facts
    }

    /// Number of distinct `(subject, predicate)` pairs — the `m` of
    /// Proposition 15.
    pub fn distinct_subject_predicate_pairs(&self) -> usize {
        self.distinct_sp_pairs
    }

    /// The property catalog `C_W`.
    pub fn catalog(&self) -> &PropertyCatalog {
        &self.catalog
    }

    /// The density divisor this table's extents were calibrated to.
    pub fn divisor(&self) -> u32 {
        self.divisor
    }

    /// Whether the table's bulk columns borrow from a snapshot mapping.
    pub fn is_mapped(&self) -> bool {
        self.rows_flat.is_mapped()
    }

    /// The subject symbol of an entity row.
    pub fn subject(&self, e: EntityId) -> Symbol {
        self.subjects[e as usize]
    }

    /// Looks an entity up by its subject symbol.
    pub fn entity(&self, subject: Symbol) -> Option<EntityId> {
        self.by_subject.get(&subject).copied()
    }

    /// All facts of an entity row.
    pub fn row(&self, e: EntityId) -> &[Fact] {
        let start = self.row_offsets[e as usize] as usize;
        let end = self.row_offsets[e as usize + 1] as usize;
        &self.rows_flat[start..end]
    }

    /// Distinct properties of an entity.
    pub fn entity_properties(&self, e: EntityId) -> &[PropertyId] {
        let start = self.entity_props_offsets[e as usize] as usize;
        let end = self.entity_props_offsets[e as usize + 1] as usize;
        &self.entity_props_flat[start..end]
    }

    /// `facts(e)` — number of facts mentioning entity `e`.
    #[inline]
    pub fn facts_of(&self, e: EntityId) -> u32 {
        self.facts_count[e as usize]
    }

    /// `new(e)` — number of facts of `e` absent from the knowledge base.
    #[inline]
    pub fn new_of(&self, e: EntityId) -> u32 {
        self.new_count[e as usize]
    }

    /// Sum of `facts(e)` over an entity set.
    pub fn facts_sum(&self, entities: &ExtentSet) -> u64 {
        self.fact_counts(entities).1
    }

    /// Sum of `new(e)` over an entity set.
    pub fn new_sum(&self, entities: &ExtentSet) -> u64 {
        self.fact_counts(entities).0
    }

    /// Fused `(new(U), facts(U))` over an entity set in one pass — the hot
    /// inner loop of every profit evaluation. Sparse extents are walked as a
    /// raw id slice; dense extents are walked word-wise, with fully-populated
    /// 64-entity words charged in O(1) via the prefix-sum arrays.
    pub fn fact_counts(&self, entities: &ExtentSet) -> (u64, u64) {
        let (mut new, mut total) = (0u64, 0u64);
        if let Some(ids) = entities.sparse_ids() {
            for &e in ids {
                let p = self.packed_counts[e as usize];
                new += p & 0xFFFF_FFFF;
                total += p >> 32;
            }
        } else if let Some(blocks) = entities.dense_blocks() {
            return self.fact_counts_from_blocks(blocks);
        }
        (new, total)
    }

    /// `(new(U), facts(U))` of the entities selected by one 64-bit word at
    /// `base`. Full words are charged in O(1) via the prefix-sum arrays;
    /// other words walk their set bits as two independent 32-bit chains so
    /// the serial `word &= word - 1` dependency is split in half and the
    /// out-of-order core can overlap them.
    #[inline]
    pub(crate) fn word_counts(&self, base: usize, w: u64) -> (u64, u64) {
        // Bits >= universe are never set, so a full word implies
        // base + 64 <= num_entities and the prefix access is safe.
        if w == u64::MAX {
            debug_assert!(
                base + 64 < self.new_prefix.len(),
                "full word at base {base} exceeds entity universe {}; \
                 caller passed a bitmap with tail bits set or too many blocks",
                self.packed_counts.len()
            );
            return (
                self.new_prefix[base + 64] - self.new_prefix[base],
                self.facts_prefix[base + 64] - self.facts_prefix[base],
            );
        }
        let (mut lo, mut hi) = (w & 0xFFFF_FFFF, w >> 32);
        let (mut new_lo, mut total_lo) = (0u64, 0u64);
        while lo != 0 {
            let p = self.packed_counts[base + lo.trailing_zeros() as usize];
            new_lo += p & 0xFFFF_FFFF;
            total_lo += p >> 32;
            lo &= lo - 1;
        }
        let (mut new_hi, mut total_hi) = (0u64, 0u64);
        while hi != 0 {
            let p = self.packed_counts[base + 32 + hi.trailing_zeros() as usize];
            new_hi += p & 0xFFFF_FFFF;
            total_hi += p >> 32;
            hi &= hi - 1;
        }
        (new_lo + new_hi, total_lo + total_hi)
    }

    /// `(new(U), facts(U))` for a `u64`-block bitmap over the entity
    /// universe (e.g. an accumulator's covered map, or the union of
    /// several extents). Fully-populated words are charged in O(1) via the
    /// prefix-sum arrays.
    ///
    /// The bitmap must cover exactly this table's entity universe: at most
    /// `ceil(num_entities / 64)` blocks, with no bit `>= num_entities` set.
    /// Violating this panics (index out of bounds; caught by a
    /// `debug_assert` in debug builds).
    pub fn fact_counts_from_blocks(&self, blocks: &[u64]) -> (u64, u64) {
        let (mut new, mut total) = (0u64, 0u64);
        for (i, &w) in blocks.iter().enumerate() {
            let (n, t) = self.word_counts(i * 64, w);
            new += n;
            total += t;
        }
        (new, total)
    }

    /// `(new(U'), facts(U'))` where `U'` are the members of `entities` whose
    /// bit is *not* set in `covered` — the marginal-gain loop of Algorithm 1,
    /// fused into one pass. Dense extents walk `extent & !covered` word-wise;
    /// fully-uncovered words are charged in O(1) via the prefix-sum arrays.
    ///
    /// `covered` must span this table's entity universe (at least
    /// `ceil(num_entities / 64)` blocks) and, like the extent itself, have
    /// no bit `>= num_entities` set.
    pub fn fact_counts_missing_from(&self, entities: &ExtentSet, covered: &[u64]) -> (u64, u64) {
        if let Some(blocks) = entities.dense_blocks() {
            let (mut new, mut total) = (0u64, 0u64);
            for (i, (&x, &y)) in blocks.iter().zip(covered).enumerate() {
                let (n, t) = self.word_counts(i * 64, x & !y);
                new += n;
                total += t;
            }
            (new, total)
        } else {
            let (mut new, mut total) = (0u64, 0u64);
            for &e in entities.sparse_ids().unwrap_or(&[]) {
                if covered[(e / 64) as usize] & (1u64 << (e % 64)) == 0 {
                    let p = self.packed_counts[e as usize];
                    new += p & 0xFFFF_FFFF;
                    total += p >> 32;
                }
            }
            (new, total)
        }
    }

    /// Like [`Self::fact_counts_missing_from`], but also marks the counted
    /// entities in `covered` — the fused count-and-claim pass of an
    /// accumulator `add`, one walk instead of count-then-mark.
    pub fn fact_counts_claim(&self, entities: &ExtentSet, covered: &mut [u64]) -> (u64, u64) {
        if let Some(blocks) = entities.dense_blocks() {
            let (mut new, mut total) = (0u64, 0u64);
            for (i, (&x, y)) in blocks.iter().zip(covered.iter_mut()).enumerate() {
                let missing = x & !*y;
                *y |= x;
                let (n, t) = self.word_counts(i * 64, missing);
                new += n;
                total += t;
            }
            (new, total)
        } else {
            let (mut new, mut total) = (0u64, 0u64);
            for &e in entities.sparse_ids().unwrap_or(&[]) {
                let word = &mut covered[(e / 64) as usize];
                let bit = 1u64 << (e % 64);
                if *word & bit == 0 {
                    *word |= bit;
                    let p = self.packed_counts[e as usize];
                    new += p & 0xFFFF_FFFF;
                    total += p >> 32;
                }
            }
            (new, total)
        }
    }

    /// Applies a knowledge-base insertion delta in place: recomputes `new(e)`
    /// for every row whose subject appears in `subjects` and, when any count
    /// changed, invalidates and rebuilds the derived count structures (the
    /// packed per-entity counts and the `new` prefix sums). Everything else —
    /// subjects, rows, the property catalog, extents, `facts(e)` — is
    /// untouched, because inserting facts into the KB can only flip facts
    /// from *new* to *known*.
    ///
    /// This is the incremental-rerun fast path: after an augmentation round
    /// a dirty source's table is refreshed in O(|touched rows| + n) instead
    /// of rebuilt in O(|T_W|) hash/extent work. Returns the (sorted) entity
    /// ids whose `new` count actually changed — the warm-hierarchy patcher
    /// uses them to bound profit re-evaluation to dirty nodes. On a
    /// snapshot-mapped table the mutated count columns are copied out of
    /// the mapping on first change (copy-on-write); the fact rows and
    /// extents stay mapped.
    pub fn refresh_new_counts(
        &mut self,
        kb: &KnowledgeBase,
        subjects: impl IntoIterator<Item = Symbol>,
    ) -> Vec<EntityId> {
        let mut changed: Vec<EntityId> = Vec::new();
        for subject in subjects {
            let Some(&eid) = self.by_subject.get(&subject) else {
                continue;
            };
            let start = self.row_offsets[eid as usize] as usize;
            let end = self.row_offsets[eid as usize + 1] as usize;
            let news = self.rows_flat[start..end]
                .iter()
                .filter(|f| kb.is_new(f))
                .count() as u32;
            let old = self.new_count[eid as usize];
            if old != news {
                debug_assert!(
                    news <= old,
                    "KB insertions can only lower new(e): {news} > {old}"
                );
                self.new_count.make_mut()[eid as usize] = news;
                changed.push(eid);
            }
        }
        if !changed.is_empty() {
            // Count invalidation: the prefix sums and packed words derived
            // from `new_count` are rebuilt in place, reusing their buffers.
            let n = self.new_count.len();
            let mut acc = 0u64;
            let prefix = self.new_prefix.make_mut();
            for (i, slot) in prefix.iter_mut().take(n).enumerate() {
                *slot = acc;
                acc += u64::from(self.new_count[i]);
            }
            prefix[n] = acc;
            let packed = self.packed_counts.make_mut();
            for (i, slot) in packed.iter_mut().take(n).enumerate() {
                *slot = u64::from(self.new_count[i]) | (u64::from(self.facts_count[i]) << 32);
            }
        }
        // Subjects arrive in caller order (typically a sorted set walk, but
        // not guaranteed); dirty-node marking wants a canonical order.
        changed.sort_unstable();
        changed
    }

    /// Re-runs [`calibrate_divisor`] against the table's current
    /// universe/extent-length distribution and, if the preferred divisor
    /// changed, re-seals every catalog extent with it — flipping only the
    /// representations whose density crossover moved. Returns whether
    /// anything changed.
    ///
    /// The divisor is a pure function of `(universe, extent lengths)`,
    /// which table structure updates like [`Self::refresh_new_counts`]
    /// never touch, so in the live augmentation loop this is a cheap
    /// no-op guard; it exists so the loop stays correct if rounds ever
    /// start growing tables in place, and as the recalibration entry
    /// point for snapshot-era tables built under a different divisor.
    /// The divisor only ever selects the representation — never the
    /// contents — so slice output is bit-identical either way.
    pub fn recalibrate_divisor(&mut self) -> bool {
        let universe = u32::try_from(self.subjects.len()).expect("fact table overflow");
        let lens: Vec<u32> = self
            .catalog
            .extents
            .iter()
            .map(|e| e.len() as u32)
            .collect();
        let divisor = calibrate_divisor(universe, &lens);
        if divisor == self.divisor {
            return false;
        }
        self.divisor = divisor;
        for ext in &mut self.catalog.extents {
            ext.set_divisor(divisor);
        }
        true
    }

    /// Drops the table. Engine code drops tables directly; this no-op
    /// exists only for `perfbench/tracer`, until its replay is deleted
    /// (ROADMAP item 3).
    pub fn recycle(self) {}

    /// The entity extent of a property conjunction — `Π` of Definition 5,
    /// computed by intersecting the per-property inverted extents (smallest
    /// extent first).
    pub fn extent_of(&self, props: &[PropertyId]) -> ExtentSet {
        let universe = self.num_entities() as u32;
        if props.is_empty() {
            return ExtentSet::full(universe);
        }
        let mut sets: Vec<&ExtentSet> = props.iter().map(|&p| self.catalog.extent(p)).collect();
        sets.sort_by_key(|s| s.len());
        let mut acc = sets[0].clone();
        for set in &sets[1..] {
            acc.intersect_with(set);
            if acc.is_empty() {
                break;
            }
        }
        acc
    }
}

/// Derives the packed per-entity counts and the two prefix-sum arrays from
/// the stored `facts(e)` / `new(e)` columns.
fn derive_count_structures(
    facts_count: &[u32],
    new_count: &[u32],
) -> (Column<u64>, Column<u64>, Column<u64>) {
    let prefix = |counts: &[u32]| {
        let mut acc = 0u64;
        let mut out = Vec::with_capacity(counts.len() + 1);
        out.push(0);
        for &c in counts {
            acc += u64::from(c);
            out.push(acc);
        }
        out
    };
    let facts_prefix = prefix(facts_count);
    let new_prefix = prefix(new_count);
    let packed_counts: Vec<u64> = new_count
        .iter()
        .zip(facts_count)
        .map(|(&n, &f)| u64::from(n) | (u64::from(f) << 32))
        .collect();
    (facts_prefix.into(), new_prefix.into(), packed_counts.into())
}

/// Intersects two sorted, deduplicated id lists.
pub fn intersect_sorted(a: &[EntityId], b: &[EntityId]) -> Vec<EntityId> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

/// Unions two sorted, deduplicated id lists.
pub fn union_sorted(a: &[EntityId], b: &[EntityId]) -> Vec<EntityId> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => {
                out.push(a[i]);
                i += 1;
            }
            std::cmp::Ordering::Greater => {
                out.push(b[j]);
                j += 1;
            }
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::skyrocket;
    use midas_kb::Interner;
    use midas_weburl::SourceUrl;

    #[test]
    fn builds_five_entity_rows() {
        let mut t = Interner::new();
        let (src, kb) = skyrocket(&mut t);
        let ft = FactTable::build(&src, &kb);
        assert_eq!(ft.num_entities(), 5);
        assert_eq!(ft.total_facts(), 13);
        // Figure 4 lists six distinct properties c1..c6.
        assert_eq!(ft.catalog().len(), 6);
        assert_eq!(ft.distinct_subject_predicate_pairs(), 13);
    }

    #[test]
    fn per_entity_counts_match_figure_2() {
        let mut t = Interner::new();
        let (src, kb) = skyrocket(&mut t);
        let ft = FactTable::build(&src, &kb);
        let atlas = ft.entity(t.intern("Atlas")).unwrap();
        assert_eq!(ft.facts_of(atlas), 3);
        assert_eq!(ft.new_of(atlas), 3);
        let mercury = ft.entity(t.intern("Project Mercury")).unwrap();
        assert_eq!(ft.facts_of(mercury), 3);
        assert_eq!(ft.new_of(mercury), 0);
        let gemini = ft.entity(t.intern("Project Gemini")).unwrap();
        assert_eq!(ft.facts_of(gemini), 2);
    }

    #[test]
    fn property_extents_match_figure_4() {
        let mut t = Interner::new();
        let (src, kb) = skyrocket(&mut t);
        let ft = FactTable::build(&src, &kb);
        let sponsor_nasa = ft
            .catalog()
            .get(t.intern("sponsor"), t.intern("NASA"))
            .unwrap();
        assert_eq!(
            ft.catalog().extent(sponsor_nasa).len(),
            5,
            "c6 covers e1..e5"
        );
        let rocket = ft
            .catalog()
            .get(t.intern("category"), t.intern("rocket_family"))
            .unwrap();
        assert_eq!(ft.catalog().extent(rocket).len(), 2, "c2 covers e3, e5");
    }

    #[test]
    fn extent_of_conjunction_matches_slice_s5() {
        let mut t = Interner::new();
        let (src, kb) = skyrocket(&mut t);
        let ft = FactTable::build(&src, &kb);
        let c2 = ft
            .catalog()
            .get(t.intern("category"), t.intern("rocket_family"))
            .unwrap();
        let c6 = ft
            .catalog()
            .get(t.intern("sponsor"), t.intern("NASA"))
            .unwrap();
        let extent = ft.extent_of(&[c2, c6]);
        let names: Vec<&str> = extent.iter().map(|e| t.resolve(ft.subject(e))).collect();
        assert_eq!(names, vec!["Atlas", "Castor-4"]);
        assert_eq!(ft.facts_sum(&extent), 6);
        assert_eq!(ft.new_sum(&extent), 6);
    }

    #[test]
    fn empty_conjunction_is_whole_source() {
        let mut t = Interner::new();
        let (src, kb) = skyrocket(&mut t);
        let ft = FactTable::build(&src, &kb);
        assert_eq!(ft.extent_of(&[]).len(), 5);
    }

    #[test]
    fn multi_valued_predicates_yield_multiple_properties() {
        let mut t = Interner::new();
        let facts = vec![
            Fact::intern(&mut t, "margarita", "ingredient", "tequila"),
            Fact::intern(&mut t, "margarita", "ingredient", "lime"),
        ];
        let src = SourceFacts::new(SourceUrl::parse("http://c.com/m").unwrap(), facts);
        let ft = FactTable::build(&src, &KnowledgeBase::new());
        assert_eq!(ft.num_entities(), 1);
        assert_eq!(ft.catalog().len(), 2);
        assert_eq!(ft.distinct_subject_predicate_pairs(), 1);
        assert_eq!(ft.entity_properties(0).len(), 2);
    }

    #[test]
    fn rows_are_contiguous_slices_of_source_order() {
        let mut t = Interner::new();
        let (src, kb) = skyrocket(&mut t);
        let ft = FactTable::build(&src, &kb);
        let mut rebuilt: Vec<Fact> = Vec::new();
        for e in 0..ft.num_entities() as EntityId {
            let row = ft.row(e);
            assert!(!row.is_empty());
            assert!(row.iter().all(|f| f.subject == ft.subject(e)));
            rebuilt.extend_from_slice(row);
        }
        assert_eq!(&rebuilt[..], &src.facts[..]);
    }

    #[test]
    fn recalibrate_divisor_reseals_extents_bit_identically() {
        use crate::detector::{DetectInput, SliceDetector};
        let mut t = Interner::new();
        let (src, kb) = skyrocket(&mut t);
        let alg =
            crate::single_source::MidasAlg::new(crate::config::MidasConfig::running_example());
        let input = || DetectInput {
            source: &src,
            kb: &kb,
            seeds: &[],
        };
        let mut ft = FactTable::build(&src, &kb);
        let baseline = alg.detect_on_table(&ft, input());
        assert!(
            !ft.recalibrate_divisor(),
            "a fresh build is already calibrated"
        );
        // Force a stale divisor, as if the table had been sealed before
        // the KB/universe grew into a different calibration.
        let want_extents: Vec<Vec<EntityId>> = (0..ft.catalog().len() as PropertyId)
            .map(|id| ft.catalog().extent(id).iter().collect())
            .collect();
        ft.divisor = crate::extent::DENSITY_DIVISOR;
        for ext in &mut ft.catalog.extents {
            ext.set_divisor(crate::extent::DENSITY_DIVISOR);
        }
        let stale = alg.detect_on_table(&ft, input());
        assert_eq!(stale, baseline, "divisor never changes slice output");
        assert!(ft.recalibrate_divisor(), "stale divisor must recalibrate");
        assert_eq!(ft.divisor(), crate::extent::MAX_DENSITY_DIVISOR);
        for (id, want) in want_extents.iter().enumerate() {
            let ext = ft.catalog().extent(id as PropertyId);
            assert_eq!(ext.divisor(), ft.divisor(), "extents re-sealed");
            let got: Vec<EntityId> = ext.iter().collect();
            assert_eq!(&got, want, "re-sealing must not change contents");
        }
        let resealed = alg.detect_on_table(&ft, input());
        assert_eq!(resealed, baseline, "recalibrated slice output identical");
        assert!(!ft.recalibrate_divisor(), "second call is a no-op");
    }

    #[test]
    fn table_divisor_is_calibrated_and_applied_to_extents() {
        let mut t = Interner::new();
        let (src, kb) = skyrocket(&mut t);
        let ft = FactTable::build(&src, &kb);
        // Tiny universe → the calibrator picks the maximum divisor, and
        // every sealed extent carries the table's divisor.
        assert_eq!(ft.divisor(), crate::extent::MAX_DENSITY_DIVISOR);
        for id in 0..ft.catalog().len() as PropertyId {
            assert_eq!(ft.catalog().extent(id).divisor(), ft.divisor());
        }
    }

    #[test]
    fn from_parts_round_trips_a_built_table() {
        let mut t = Interner::new();
        let (src, kb) = skyrocket(&mut t);
        let ft = FactTable::build(&src, &kb);
        let rebuilt = FactTable::from_parts(
            ft.subjects.clone(),
            ft.rows_flat.clone(),
            ft.row_offsets.clone(),
            ft.entity_props_flat.clone(),
            ft.entity_props_offsets.clone(),
            ft.facts_count.clone(),
            ft.new_count.clone(),
            PropertyCatalog::from_parts(ft.catalog.props.clone(), ft.catalog.extents.clone()),
            ft.total_facts,
            ft.distinct_sp_pairs,
            ft.divisor,
        );
        assert_eq!(rebuilt.num_entities(), ft.num_entities());
        assert_eq!(rebuilt.total_facts(), ft.total_facts());
        assert_eq!(
            rebuilt.distinct_subject_predicate_pairs(),
            ft.distinct_subject_predicate_pairs()
        );
        for e in 0..ft.num_entities() as EntityId {
            assert_eq!(rebuilt.row(e), ft.row(e));
            assert_eq!(rebuilt.entity_properties(e), ft.entity_properties(e));
            assert_eq!(rebuilt.facts_of(e), ft.facts_of(e));
            assert_eq!(rebuilt.new_of(e), ft.new_of(e));
        }
        let full = ExtentSet::full(ft.num_entities() as u32);
        assert_eq!(rebuilt.fact_counts(&full), ft.fact_counts(&full));
    }

    #[test]
    fn sorted_set_helpers() {
        assert_eq!(intersect_sorted(&[1, 3, 5], &[2, 3, 5, 7]), vec![3, 5]);
        assert_eq!(union_sorted(&[1, 3], &[2, 3, 4]), vec![1, 2, 3, 4]);
        assert_eq!(intersect_sorted(&[], &[1]), Vec::<EntityId>::new());
        assert_eq!(union_sorted(&[], &[1]), vec![1]);
    }
}
