//! The hybrid path-based next-trace predictor (Jacobson et al. 1997).

use tp_trace::TraceId;

/// Configuration of the next-trace predictor.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TracePredictorConfig {
    /// log2 of the number of entries in each component table (the paper uses
    /// 2^16-entry tables).
    pub index_bits: u32,
    /// Path history depth of the path-based component (the paper uses 8).
    pub path_depth: usize,
    /// Confidence threshold at or above which the path-based component's
    /// prediction is preferred over the simple component's.
    pub confidence_threshold: u8,
}

impl Default for TracePredictorConfig {
    fn default() -> TracePredictorConfig {
        TracePredictorConfig::paper()
    }
}

impl TracePredictorConfig {
    /// The paper's configuration: two 2^16-entry tables, 8-deep path
    /// history.
    pub fn paper() -> TracePredictorConfig {
        TracePredictorConfig { index_bits: 16, path_depth: 8, confidence_threshold: 1 }
    }

    /// A small configuration for tests.
    pub fn tiny() -> TracePredictorConfig {
        TracePredictorConfig { index_bits: 8, path_depth: 4, confidence_threshold: 1 }
    }
}

/// A rolling history of recently committed (or speculatively fetched) trace
/// ids.
///
/// Histories are plain `Copy` values of fixed size (at most
/// [`TraceHistory::MAX_DEPTH`] ids, no heap) so the trace processor can
/// checkpoint one per dispatched trace and restore it on misprediction
/// recovery without allocating.
///
/// # Example
///
/// ```
/// use tp_predict::TraceHistory;
/// use tp_trace::TraceId;
/// let mut h = TraceHistory::new(4);
/// h.push(TraceId::new(10, 0, 0));
/// h.push(TraceId::new(20, 1, 1));
/// assert_eq!(h.last(), Some(TraceId::new(20, 1, 1)));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceHistory {
    /// `ids[..len]` are the recorded ids, oldest first; the rest stay at
    /// the filler [`TraceHistory::new`] put there, so equality holds.
    ids: [TraceId; TraceHistory::MAX_DEPTH],
    len: u8,
    depth: u8,
}

impl TraceHistory {
    /// The deepest history a `TraceHistory` holds (the paper uses 8).
    /// Configuration validation and checkpoint decoding reject deeper
    /// path depths.
    pub const MAX_DEPTH: usize = 16;

    /// Creates an empty history with the given depth.
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero or above [`TraceHistory::MAX_DEPTH`].
    pub fn new(depth: usize) -> TraceHistory {
        assert!(
            (1..=TraceHistory::MAX_DEPTH).contains(&depth),
            "history depth must be 1..={}",
            TraceHistory::MAX_DEPTH
        );
        TraceHistory {
            ids: [TraceId::new(0, 0, 0); TraceHistory::MAX_DEPTH],
            len: 0,
            depth: depth as u8,
        }
    }

    /// Appends a trace id, discarding the oldest beyond the depth.
    pub fn push(&mut self, id: TraceId) {
        let len = self.len as usize;
        if len == self.depth as usize {
            self.ids.copy_within(1..len, 0);
            self.ids[len - 1] = id;
        } else {
            self.ids[len] = id;
            self.len += 1;
        }
    }

    /// The most recent trace id.
    pub fn last(&self) -> Option<TraceId> {
        self.ids().last().copied()
    }

    /// Number of ids currently recorded.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether no ids have been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The configured depth.
    pub fn depth(&self) -> usize {
        self.depth as usize
    }

    /// The recorded ids, oldest first (checkpoint capture; rebuild with
    /// [`TraceHistory::new`] plus [`TraceHistory::push`]).
    pub fn ids(&self) -> &[TraceId] {
        &self.ids[..self.len as usize]
    }

    /// Hash of the full path history.
    fn path_hash(&self) -> u64 {
        let mut h: u64 = 0x9e37_79b9_7f4a_7c15;
        for id in self.ids() {
            h = h.rotate_left(7) ^ id.hash64();
        }
        h
    }

    /// Hash of the most recent id only.
    fn last_hash(&self) -> u64 {
        self.last().map_or(0x1234_5678_9abc_def0, TraceId::hash64)
    }
}

/// A component entry, unpacked from its [`Component`] slot.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Entry {
    tag: u16,
    pred: TraceId,
    confidence: u8,
}

impl Entry {
    /// The `meta` word's valid bit: the slot holds an entry.
    const VALID: u32 = 1 << 24;

    /// Packs the entry into a slot: `[start, mask, meta]`, where `meta` is
    /// `tag | branches << 16 | confidence << 22 | VALID`. Branches (at most
    /// 32) take six bits and confidence (at most 3) two.
    fn pack(self) -> [u32; 3] {
        let meta = u32::from(self.tag)
            | u32::from(self.pred.branches()) << 16
            | u32::from(self.confidence) << 22
            | Entry::VALID;
        [self.pred.start(), self.pred.mask(), meta]
    }

    /// The entry a slot holds; `None` for an empty slot (one without the
    /// valid bit, such as the all-zero slot a fresh table holds).
    fn unpack([start, mask, meta]: [u32; 3]) -> Option<Entry> {
        (meta & Entry::VALID != 0).then(|| Entry {
            tag: meta as u16,
            pred: TraceId::new(start, mask, (meta >> 16 & 0x3f) as u8),
            confidence: (meta >> 22 & 3) as u8,
        })
    }
}

/// One component table of 12-byte packed slots ([`Entry::pack`]; 768 KiB
/// per table at the paper's 2^16 entries). The table is allocated zeroed
/// and an all-zero slot is empty, so the pages of a table no training has
/// reached are never written.
#[derive(Clone, Debug)]
struct Component {
    slots: Vec<[u32; 3]>,
    mask: u64,
}

/// What a single training update did to a component entry — the raw signal
/// behind the index-pollution counters in [`TracePredictorStats`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum TrainEvent {
    /// Same tag, same successor: confidence reinforced (or decayed without
    /// repointing).
    Trained,
    /// Same tag, confidence exhausted: the entry now predicts a different
    /// successor (a genuine successor change for this context).
    Repointed,
    /// The slot held a *different* context's entry (tag mismatch) and was
    /// evicted — index aliasing pollution.
    TagEvicted,
    /// The slot was empty and allocated.
    Allocated,
}

impl Component {
    fn new(index_bits: u32) -> Component {
        let n = 1usize << index_bits;
        Component { slots: vec![[0; 3]; n], mask: n as u64 - 1 }
    }

    fn entry(&self, idx: usize) -> Option<Entry> {
        Entry::unpack(self.slots[idx])
    }

    fn probe(&self, hash: u64) -> Option<Entry> {
        let idx = (hash & self.mask) as usize;
        let tag = (hash >> 16) as u16;
        self.entry(idx).filter(|e| e.tag == tag)
    }

    /// Whether training `(hash, actual)` would leave the table unchanged:
    /// the slot already holds this context's entry, predicting `actual`
    /// at saturated confidence.
    fn train_is_noop(&self, hash: u64, actual: TraceId) -> bool {
        self.probe(hash)
            .is_some_and(|e| e.pred == actual && e.confidence == NextTracePredictor::MAX_CONFIDENCE)
    }

    fn train(&mut self, hash: u64, actual: TraceId) -> TrainEvent {
        let idx = (hash & self.mask) as usize;
        let tag = (hash >> 16) as u16;
        let (entry, event) = match self.entry(idx) {
            Some(mut e) if e.tag == tag => {
                let event = if e.pred == actual {
                    e.confidence = (e.confidence + 1).min(NextTracePredictor::MAX_CONFIDENCE);
                    TrainEvent::Trained
                } else if e.confidence > 0 {
                    e.confidence -= 1;
                    TrainEvent::Trained
                } else {
                    e.pred = actual;
                    e.confidence = 1;
                    TrainEvent::Repointed
                };
                (e, event)
            }
            Some(_) => (Entry { tag, pred: actual, confidence: 1 }, TrainEvent::TagEvicted),
            None => (Entry { tag, pred: actual, confidence: 1 }, TrainEvent::Allocated),
        };
        self.slots[idx] = entry.pack();
        event
    }
}

/// One trained component entry in a [`TracePredictorImage`]: the table
/// index it occupies plus the full entry contents.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ImageEntry {
    /// Table index.
    pub index: u32,
    /// Stored tag (upper hash bits).
    pub tag: u16,
    /// Predicted successor trace id.
    pub pred: TraceId,
    /// Confidence counter.
    pub confidence: u8,
}

/// A plain-data image of a trained next-trace predictor
/// ([`NextTracePredictor::image`] / [`NextTracePredictor::from_image`]).
/// Only occupied entries are stored; statistics are not part of the image.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TracePredictorImage {
    /// The predictor's configuration (table geometry must match at restore).
    pub config: TracePredictorConfig,
    /// Occupied path-component entries, in index order.
    pub path: Vec<ImageEntry>,
    /// Occupied simple-component entries, in index order.
    pub simple: Vec<ImageEntry>,
}

/// Statistics for the next-trace predictor, including the index-pollution
/// counters the attribution ledger uses to tell *selection-induced
/// predictor pollution* apart from recovery mismodeling: a workload whose
/// trace selection fragments the stream shows up here as tag evictions
/// (contexts aliasing in the component tables) and repoints (unstable
/// successors for one context) out of proportion to its retired traces.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TracePredictorStats {
    /// Predictions requested.
    pub predictions: u64,
    /// Requests for which neither component had a (tag-matching) entry.
    pub no_prediction: u64,
    /// Predictions served by the path-based component.
    pub path_hits: u64,
    /// Predictions served by the simple (last-trace) component.
    pub simple_hits: u64,
    /// Training updates applied.
    pub updates: u64,
    /// Path-component entries evicted by a different context (tag
    /// mismatch) — index aliasing pollution.
    pub path_tag_evictions: u64,
    /// Path-component entries repointed to a new successor after their
    /// confidence was exhausted.
    pub path_repoints: u64,
    /// Simple-component tag evictions.
    pub simple_tag_evictions: u64,
    /// Simple-component repoints.
    pub simple_repoints: u64,
}

/// Which component (index/history) fed a prediction — exposed so the bench
/// harness can attribute a cell's mispredictions to the history that
/// produced them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PredictionSource {
    /// The path-based component (full path-history hash) with the given
    /// confidence.
    Path {
        /// The matching entry's confidence counter.
        confidence: u8,
    },
    /// The simple component (last trace id only).
    Simple,
    /// Neither component matched; the frontend falls back to sequencing.
    None,
}

/// The hybrid next-trace predictor.
///
/// The path-based component indexes a 2^16-entry table with a hash of the
/// last eight trace ids; the simple component uses only the last id. Each
/// table holds 12-byte packed slots (successor start PC, outcome mask, and
/// one word of tag, branch count, confidence and valid bit), so the paper's
/// two tables take 1.5 MiB, allocated zeroed: a fresh predictor writes no
/// table page until training reaches it. The
/// path-based prediction is used when it tag-matches with sufficient
/// confidence, otherwise the simple component's, otherwise there is no
/// prediction and the frontend falls back to instruction-level sequencing
/// with the BTB.
///
/// # Example
///
/// ```
/// use tp_predict::{NextTracePredictor, TraceHistory, TracePredictorConfig};
/// use tp_trace::TraceId;
///
/// let mut pred = NextTracePredictor::new(TracePredictorConfig::paper());
/// let mut h = TraceHistory::new(8);
/// let (a, b) = (TraceId::new(0, 0, 0), TraceId::new(32, 3, 2));
///
/// // Train "after a comes b" a few times.
/// for _ in 0..3 {
///     let mut ctx = h.clone();
///     ctx.push(a);
///     pred.train(&ctx, b);
/// }
/// let mut ctx = h.clone();
/// ctx.push(a);
/// assert_eq!(pred.predict(&ctx), Some(b));
/// ```
#[derive(Clone, Debug)]
pub struct NextTracePredictor {
    config: TracePredictorConfig,
    path: Component,
    simple: Component,
    stats: TracePredictorStats,
}

impl NextTracePredictor {
    /// The saturated confidence counter value.
    pub const MAX_CONFIDENCE: u8 = 3;

    /// Creates a predictor.
    pub fn new(config: TracePredictorConfig) -> NextTracePredictor {
        NextTracePredictor {
            config,
            path: Component::new(config.index_bits),
            simple: Component::new(config.index_bits),
            stats: TracePredictorStats::default(),
        }
    }

    /// The predictor's configuration.
    pub fn config(&self) -> TracePredictorConfig {
        self.config
    }

    /// Predicts the next trace id given the current (speculative) history.
    pub fn predict(&mut self, history: &TraceHistory) -> Option<TraceId> {
        self.predict_explained(history).0
    }

    /// Predicts the next trace id and reports which component (index /
    /// history) fed the prediction.
    pub fn predict_explained(
        &mut self,
        history: &TraceHistory,
    ) -> (Option<TraceId>, PredictionSource) {
        self.stats.predictions += 1;
        let path_entry = self.path.probe(history.path_hash());
        let simple_entry = self.simple.probe(history.last_hash());
        let (pred, source) = match (path_entry, simple_entry) {
            (Some(p), _) if p.confidence >= self.config.confidence_threshold => {
                (Some(p.pred), PredictionSource::Path { confidence: p.confidence })
            }
            (_, Some(s)) => (Some(s.pred), PredictionSource::Simple),
            (Some(p), None) => (Some(p.pred), PredictionSource::Path { confidence: p.confidence }),
            (None, None) => (None, PredictionSource::None),
        };
        match source {
            PredictionSource::Path { .. } => self.stats.path_hits += 1,
            PredictionSource::Simple => self.stats.simple_hits += 1,
            PredictionSource::None => self.stats.no_prediction += 1,
        }
        (pred, source)
    }

    /// Trains both components: `history` is the (retirement-side) history
    /// *before* the trace, `actual` the trace id that actually followed.
    pub fn train(&mut self, history: &TraceHistory, actual: TraceId) {
        self.stats.updates += 1;
        match self.path.train(history.path_hash(), actual) {
            TrainEvent::TagEvicted => self.stats.path_tag_evictions += 1,
            TrainEvent::Repointed => self.stats.path_repoints += 1,
            TrainEvent::Trained | TrainEvent::Allocated => {}
        }
        match self.simple.train(history.last_hash(), actual) {
            TrainEvent::TagEvicted => self.stats.simple_tag_evictions += 1,
            TrainEvent::Repointed => self.stats.simple_repoints += 1,
            TrainEvent::Trained | TrainEvent::Allocated => {}
        }
    }

    /// Whether [`NextTracePredictor::train`] with this `(history, actual)`
    /// pair would leave both component tables unchanged (each slot already
    /// predicts `actual` at saturated confidence). Images carry tables but
    /// not statistics, so such a training round is unobservable in
    /// captured state.
    pub fn train_is_noop(&self, history: &TraceHistory, actual: TraceId) -> bool {
        self.path.train_is_noop(history.path_hash(), actual)
            && self.simple.train_is_noop(history.last_hash(), actual)
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> TracePredictorStats {
        self.stats
    }

    /// Zeroes the statistics, keeping the tables: the state
    /// [`NextTracePredictor::from_image`] of this predictor's image has.
    pub fn reset_stats(&mut self) {
        self.stats = TracePredictorStats::default();
    }

    /// Captures the trained state as a plain-data [`TracePredictorImage`].
    pub fn image(&self) -> TracePredictorImage {
        fn entries(c: &Component) -> Vec<ImageEntry> {
            (0..c.slots.len())
                .filter_map(|i| {
                    c.entry(i).map(|e| ImageEntry {
                        index: i as u32,
                        tag: e.tag,
                        pred: e.pred,
                        confidence: e.confidence,
                    })
                })
                .collect()
        }
        TracePredictorImage {
            config: self.config,
            path: entries(&self.path),
            simple: entries(&self.simple),
        }
    }

    /// Creates a warmed predictor from an image (statistics start at zero).
    ///
    /// # Panics
    ///
    /// Panics if an entry index is outside the configured table size or an
    /// entry's confidence exceeds [`NextTracePredictor::MAX_CONFIDENCE`]
    /// (training never builds one).
    pub fn from_image(image: &TracePredictorImage) -> NextTracePredictor {
        let mut p = NextTracePredictor::new(image.config);
        for (component, entries) in [(&mut p.path, &image.path), (&mut p.simple, &image.simple)] {
            for e in entries {
                assert!(
                    e.confidence <= NextTracePredictor::MAX_CONFIDENCE,
                    "predictor entry confidence {} out of range",
                    e.confidence
                );
                component.slots[e.index as usize] =
                    Entry { tag: e.tag, pred: e.pred, confidence: e.confidence }.pack();
            }
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(start: u32) -> TraceId {
        TraceId::new(start, 0, 0)
    }

    #[test]
    fn empty_history_has_no_prediction_initially() {
        let mut p = NextTracePredictor::new(TracePredictorConfig::tiny());
        let h = TraceHistory::new(4);
        assert_eq!(p.predict(&h), None);
        assert_eq!(p.stats().no_prediction, 1);
    }

    #[test]
    fn learns_a_simple_sequence() {
        let mut p = NextTracePredictor::new(TracePredictorConfig::paper());
        let seq = [id(0), id(32), id(64), id(96)];
        let mut h = TraceHistory::new(8);
        // Two training passes over the cyclic sequence.
        for _ in 0..2 {
            for w in 0..seq.len() {
                let next = seq[(w + 1) % seq.len()];
                h.push(seq[w]);
                p.train(&h, next);
            }
        }
        // Now every step is predicted correctly.
        for w in 0..seq.len() {
            h.push(seq[w]);
            assert_eq!(p.predict(&h), Some(seq[(w + 1) % seq.len()]), "step {w}");
        }
    }

    #[test]
    fn path_component_disambiguates_by_context() {
        // The same last trace B is followed by C after (A,B) but by D after
        // (X,B): only path context can get both right.
        let mut p = NextTracePredictor::new(TracePredictorConfig::paper());
        let (a, b, c, d, x) = (id(1), id(2), id(3), id(4), id(5));
        for _ in 0..8 {
            let mut h = TraceHistory::new(8);
            h.push(a);
            h.push(b);
            p.train(&h, c);
            let mut h = TraceHistory::new(8);
            h.push(x);
            h.push(b);
            p.train(&h, d);
        }
        let mut h = TraceHistory::new(8);
        h.push(a);
        h.push(b);
        assert_eq!(p.predict(&h), Some(c));
        let mut h = TraceHistory::new(8);
        h.push(x);
        h.push(b);
        assert_eq!(p.predict(&h), Some(d));
    }

    #[test]
    fn counter_replacement_needs_two_strikes() {
        let mut p = NextTracePredictor::new(TracePredictorConfig::tiny());
        let mut h = TraceHistory::new(4);
        h.push(id(7));
        p.train(&h, id(100));
        p.train(&h, id(100)); // confidence 2
        p.train(&h, id(200)); // confidence 1, still predicts 100
        assert_eq!(p.predict(&h), Some(id(100)));
        p.train(&h, id(200)); // confidence 0
        p.train(&h, id(200)); // replaced
        assert_eq!(p.predict(&h), Some(id(200)));
    }

    #[test]
    fn prediction_source_attributes_component() {
        let mut p = NextTracePredictor::new(TracePredictorConfig::paper());
        let mut h = TraceHistory::new(8);
        h.push(id(1));
        assert_eq!(p.predict_explained(&h), (None, PredictionSource::None));
        // Two trainings lift the path entry to confidence >= threshold.
        p.train(&h, id(2));
        p.train(&h, id(2));
        let (pred, source) = p.predict_explained(&h);
        assert_eq!(pred, Some(id(2)));
        assert!(matches!(source, PredictionSource::Path { .. }), "{source:?}");
        let s = p.stats();
        assert_eq!(s.no_prediction, 1);
        assert_eq!(s.path_hits, 1);
        assert_eq!(s.updates, 2);
    }

    #[test]
    fn training_counts_repoints_and_evictions() {
        let mut p = NextTracePredictor::new(TracePredictorConfig::tiny());
        let mut h = TraceHistory::new(4);
        h.push(id(7));
        p.train(&h, id(100)); // allocate (confidence 1)
        p.train(&h, id(200)); // decay to 0
        p.train(&h, id(200)); // repoint
        let s = p.stats();
        assert_eq!(s.path_repoints, 1);
        assert_eq!(s.simple_repoints, 1);
        // Find a history whose hashes collide in the 256-entry tables with
        // a different tag, forcing an eviction.
        let mut evicted = false;
        for i in 0..5000u32 {
            let mut g = TraceHistory::new(4);
            g.push(id(i + 8));
            p.train(&g, id(3));
            if p.stats().path_tag_evictions > 0 || p.stats().simple_tag_evictions > 0 {
                evicted = true;
                break;
            }
        }
        assert!(evicted, "no tag eviction in 5000 distinct contexts over 256 entries");
    }

    /// An image round-trip reproduces every prediction (both components,
    /// including tag-mismatch behaviour) with statistics reset.
    #[test]
    fn image_roundtrip_preserves_predictions() {
        let mut p = NextTracePredictor::new(TracePredictorConfig::tiny());
        let seq = [id(0), id(32), id(64), id(96), id(7)];
        let mut h = TraceHistory::new(4);
        for _ in 0..3 {
            for w in 0..seq.len() {
                h.push(seq[w]);
                p.train(&h, seq[(w + 1) % seq.len()]);
            }
        }
        let mut warm = NextTracePredictor::from_image(&p.image());
        assert_eq!(warm.stats(), TracePredictorStats::default());
        let mut g = TraceHistory::new(4);
        for (w, &id) in seq.iter().enumerate() {
            g.push(id);
            assert_eq!(warm.predict(&g), p.predict(&g), "step {w}");
        }
        assert_eq!(warm.image(), p.image());
    }

    /// A slot packs and unpacks to the same entry at every field's
    /// extremes, and an entry of all-zero fields is still not the empty
    /// slot.
    #[test]
    fn packed_slots_round_trip_at_the_extremes() {
        for pred in [
            TraceId::new(u32::MAX, u32::MAX, 32),
            TraceId::new(u32::MAX, 0, 32),
            TraceId::new(0, 0, 0),
            TraceId::new(7, 0b101, 3),
        ] {
            for tag in [0, 0xffff] {
                for confidence in [0, NextTracePredictor::MAX_CONFIDENCE] {
                    let e = Entry { tag, pred, confidence };
                    assert_ne!(e.pack(), [0; 3], "{e:?} packs to the empty slot");
                    assert_eq!(Entry::unpack(e.pack()), Some(e));
                }
            }
        }
        assert_eq!(Entry::unpack([0; 3]), None);
    }

    #[test]
    fn a_fresh_table_reads_empty_everywhere() {
        let c = Component::new(TracePredictorConfig::tiny().index_bits);
        assert!((0..c.slots.len()).all(|i| c.entry(i).is_none()));
        let image = NextTracePredictor::new(TracePredictorConfig::paper()).image();
        assert!(image.path.is_empty() && image.simple.is_empty());
    }

    /// `from_image` then `image` is the identity on an image whose entries
    /// sit at the table's ends and hold every field's extremes.
    #[test]
    fn image_of_from_image_is_the_image() {
        let config = TracePredictorConfig::tiny();
        let last = (1u32 << config.index_bits) - 1;
        let entry = |index, tag, pred, confidence| ImageEntry { index, tag, pred, confidence };
        let image = TracePredictorImage {
            config,
            path: vec![
                entry(0, 0, TraceId::new(0, 0, 0), 0),
                entry(last, 0xffff, TraceId::new(u32::MAX, u32::MAX, 32), 3),
            ],
            simple: vec![entry(last, 0x8001, TraceId::new(u32::MAX, 1 << 31, 32), 2)],
        };
        assert_eq!(NextTracePredictor::from_image(&image).image(), image);
    }

    #[test]
    #[should_panic(expected = "confidence 4 out of range")]
    fn from_image_rejects_an_untrainable_confidence() {
        let config = TracePredictorConfig::tiny();
        let pred = TraceId::new(1, 0, 0);
        let path = vec![ImageEntry { index: 0, tag: 0, pred, confidence: 4 }];
        let _ =
            NextTracePredictor::from_image(&TracePredictorImage { config, path, simple: vec![] });
    }

    #[test]
    fn history_exposes_ids_and_depth() {
        let mut h = TraceHistory::new(3);
        h.push(id(1));
        h.push(id(2));
        assert_eq!(h.depth(), 3);
        assert_eq!(h.ids(), &[id(1), id(2)]);
    }

    #[test]
    fn history_is_bounded() {
        let mut h = TraceHistory::new(2);
        h.push(id(1));
        h.push(id(2));
        h.push(id(3));
        assert_eq!(h.len(), 2);
        assert_eq!(h.last(), Some(id(3)));
        assert_eq!(h.ids(), &[id(2), id(3)], "the oldest id goes first");
        let mut deepest = TraceHistory::new(TraceHistory::MAX_DEPTH);
        for i in 0..40 {
            deepest.push(id(i));
        }
        let want: Vec<_> = (40 - TraceHistory::MAX_DEPTH as u32..40).map(id).collect();
        assert_eq!(deepest.ids(), &want[..]);
    }

    #[test]
    fn histories_checkpoint_by_clone() {
        let mut h = TraceHistory::new(4);
        h.push(id(1));
        let snap = h;
        h.push(id(2));
        assert_ne!(h, snap);
        let h = snap;
        assert_eq!(h.last(), Some(id(1)));
    }

    #[test]
    fn distinct_histories_usually_map_to_distinct_indices() {
        // Smoke-test the hash spread: 64 distinct histories should not all
        // collide in a 256-entry table.
        let mut hashes = std::collections::HashSet::new();
        for i in 0..64u32 {
            let mut h = TraceHistory::new(4);
            h.push(id(i));
            h.push(id(i * 7 + 1));
            hashes.insert(h.path_hash() & 0xff);
        }
        assert!(hashes.len() > 32, "path hash spreads poorly: {}", hashes.len());
    }
}
