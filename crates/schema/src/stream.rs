//! One-pass streaming validation for `R-SDTD`s.
//!
//! The single-type restriction (Definition 6) makes the specialised name of a
//! node a function of its label and its parent's specialised name, so an
//! [`RSdtd`] can type a document top-down while the document is *parsed*,
//! without ever materialising the tree. [`StreamValidator`] consumes the
//! [`SaxEvent`] stream of [`dxml_tree::sax`] with a stack of
//! (specialisation index, content-model DFA state) frames — memory
//! proportional to the open-element chain, not to the document.
//!
//! Element names stay text: the parser borrows them from the input, and the
//! validator resolves each through a per-schema name table from name bytes
//! to a dense label id, then indexes its parent's `states × labels` move
//! table. An element costs one name lookup and one direct index, and takes
//! no lock; a name the schema never mentions has no id, hence no move, and
//! is the usual content violation. Names reach the process-wide intern table
//! only when an error reports them (`RootMismatch.found` and the violating
//! node's `children`), so validating a document interns nothing, however
//! many fresh names it carries.
//!
//! The verdict — and the error value, byte for byte — agrees with the
//! materialising route `parse_xml` + [`RSdtd::validate`] on *every* input
//! string, malformed ones included. The tree route reports the first
//! violating node in document (pre)order; a streaming pass can detect a
//! *later* node's violation first (an ancestor's content model may only fail
//! at its closing tag, after a descendant has already failed). The validator
//! therefore holds one pending violation and lets it be superseded by frames
//! still open on the stack. Two invariants make this sound:
//!
//! * once a violation is pending, new frames are pushed untyped (`Skip`), so
//!   every `Typed` frame still on the stack is a strict ancestor of the
//!   pending node — i.e. *earlier* in preorder, always entitled to supersede;
//! * among open ancestors, violations surface innermost-first (a frame only
//!   steps when it is on top), so each supersession moves the pending node
//!   strictly earlier in preorder and the preorder-minimum wins.
//!
//! A violated frame keeps collecting its direct children until it closes,
//! because [`SchemaError::InvalidContent`] reports the node's full
//! `child-str`, including children after the offending one. Typed frames
//! collect theirs too, in case they fail at their close. Frames nest, so the
//! children of all open frames live in one shared stack: the top frame's
//! children are always its top segment. Its entries are the `u32` byte
//! offsets of the children's names in the input, re-read
//! ([`dxml_tree::sax::name_at`]) only when the violation is reported.

use std::collections::BTreeSet;

use dxml_automata::{Budget, Dfa, FxHashMap, Symbol};
use dxml_telemetry as telemetry;
use dxml_tree::sax::{name_at, SaxEvent, SaxParser, DEFAULT_DEPTH_LIMIT};

use crate::error::SchemaError;
use crate::sdtd::RSdtd;

/// The element labels a schema's content models mention, numbered densely
/// in text order, with an open-addressed index from their name bytes to
/// those ids. A name's first eight bytes, read as one word, and its length
/// pick the home slot and settle the comparison for names of up to eight
/// bytes; longer names compare their tails too.
struct NameTable {
    /// At most half full, so every probe sequence reaches an empty slot.
    slots: Box<[Slot]>,
    /// `64 - log2(slots.len())`: the hash's top bits pick the home slot.
    shift: u32,
    /// The names by id.
    names: Vec<Box<str>>,
}

#[derive(Clone, Copy)]
struct Slot {
    head: u64,
    len: u32,
    /// [`NONE`] for an empty slot.
    id: u32,
}

/// The empty slot's id, and the specialisation of a missing move.
const NONE: u32 = u32::MAX;

impl NameTable {
    fn new(labels: &BTreeSet<Symbol>) -> NameTable {
        let size = (2 * labels.len()).next_power_of_two().max(2);
        let shift = 64 - size.trailing_zeros();
        let mut slots = vec![Slot { head: 0, len: 0, id: NONE }; size].into_boxed_slice();
        let names: Vec<Box<str>> = labels.iter().map(|l| l.as_str().into()).collect();
        for (id, name) in (0..).zip(&names) {
            let head = head_word(name.as_bytes());
            let mut i = home(head, name.len(), shift);
            while slots[i].id != NONE {
                i = (i + 1) & (size - 1);
            }
            slots[i] = Slot { head, len: name.len() as u32, id };
        }
        NameTable { slots, shift, names }
    }

    /// The number of labels.
    fn len(&self) -> usize {
        self.names.len()
    }

    /// The id of the label spelled `name`, `None` for any other name.
    fn id(&self, name: &str) -> Option<u32> {
        let bytes = name.as_bytes();
        let head = head_word(bytes);
        let mut i = home(head, bytes.len(), self.shift);
        loop {
            let slot = self.slots[i];
            if slot.id == NONE {
                return None;
            }
            if slot.head == head
                && slot.len as usize == bytes.len()
                && (bytes.len() <= 8 || self.names[slot.id as usize].as_bytes()[8..] == bytes[8..])
            {
                return Some(slot.id);
            }
            i = (i + 1) & (self.slots.len() - 1);
        }
    }
}

/// The first (up to) eight bytes of a name as one little-endian word,
/// zero-padded.
fn head_word(bytes: &[u8]) -> u64 {
    match bytes.get(..8) {
        Some(head) => u64::from_le_bytes(head.try_into().expect("eight bytes")),
        None => bytes.iter().rev().fold(0, |word, &b| word << 8 | u64::from(b)),
    }
}

/// The home slot of a name: a multiplicative hash of its head word and
/// length.
fn home(head: u64, len: usize, shift: u32) -> usize {
    ((head ^ len as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> shift) as usize
}

/// One entry of a move table: the next DFA state and the child's
/// specialisation index, [`NONE`] when the child's label has no move.
#[derive(Clone, Copy)]
struct Move {
    next: u32,
    spec: u32,
}

/// Per-specialisation machinery, prebuilt once so that typing an element
/// costs one direct index: the content-model DFA's transitions re-keyed by
/// *label id* through the single-type map `µ` (a content model names at most
/// one specialisation of each label), the DFA's start and final states, the
/// specialisation's own label (for error paths) and the rendered content
/// model for error messages.
struct SpecInfo {
    /// `moves[state * labels + label]`, over the schema's [`NameTable`] ids.
    moves: Box<[Move]>,
    start: u32,
    finals: Vec<bool>,
    label: Symbol,
    expected: String,
}

/// Statistics from one streaming validation run, for benchmarks and memory
/// accounting.
#[derive(Debug, Clone, Copy, Default)]
pub struct StreamStats {
    /// Deepest element nesting seen by the parser.
    pub peak_depth: usize,
    /// Largest number of child labels buffered across all open frames at any
    /// one time (the only per-width state, kept for error parity with the
    /// tree route).
    pub peak_buffered: usize,
}

/// A reusable streaming validator for one [`RSdtd`].
///
/// Construction determinises every content model once, numbers the
/// specialised names and the labels the content models mention, and gives
/// each specialisation a dense move table indexed by (DFA state, label id)
/// that yields the next state and the child's specialisation index. A run
/// keeps a stack of frames carrying those indices and one shared stack of
/// the open frames' children, as name offsets. The validator itself is
/// immutable and can be shared across threads to validate many documents
/// concurrently (see `dxml_core`'s batch front end).
pub struct StreamValidator {
    root_label: Symbol,
    /// Specialisation index of the start name.
    start: u32,
    names: NameTable,
    specs: Vec<SpecInfo>,
}

/// One open element during the streaming run. `from` is where the frame's
/// children start in the shared child stack.
enum Frame {
    /// A normally-typed element: its specialisation index and current DFA
    /// state in the content model of its children.
    Typed { spec: u32, state: u32, from: u32 },
    /// The current pending violation's node, still open: collects the rest of
    /// its direct children so the error can report the full `child-str`.
    Violated { spec: u32, from: u32 },
    /// An element whose verdict cannot matter any more (inside a violated
    /// subtree, or opened after a violation was pending).
    Skip,
}

/// A violation found during the run, its names kept as input offsets until
/// [`StreamValidator::report`] turns it into the error.
enum Violation {
    /// The root element's name is not the schema's root label.
    Root { at: u32 },
    /// A typed node's children, named at `children`, fail its content model.
    Content { path: Vec<Symbol>, children: Vec<u32>, spec: u32 },
}

impl StreamValidator {
    /// Prebuilds the streaming machinery for a schema.
    ///
    /// # Panics
    ///
    /// Only on a broken internal invariant (a label some content model
    /// mentions missing from the name table built from those labels).
    pub fn new(sdtd: &RSdtd) -> StreamValidator {
        let edtd = sdtd.as_edtd();
        let start = *edtd.start();
        let label_of = |spec: &Symbol| edtd.label_of(spec).copied().unwrap_or(*spec);
        let mut specs: BTreeSet<Symbol> = BTreeSet::new();
        specs.insert(start);
        specs.extend(edtd.specialized_names().iter().copied());
        for (lhs, content) in edtd.rules() {
            specs.insert(*lhs);
            specs.extend(content.alphabet().iter().copied());
        }
        // Interned symbols number at most 2²⁴, so `u32` indices never wrap.
        let index: FxHashMap<Symbol, u32> = specs.iter().copied().zip(0..).collect();
        let mut labels: BTreeSet<Symbol> = BTreeSet::new();
        for spec in &specs {
            labels.extend(edtd.content(spec).alphabet().iter().map(label_of));
        }
        let names = NameTable::new(&labels);
        let specs = specs
            .iter()
            .map(|spec| {
                let content = edtd.content(spec);
                let dfa = Dfa::from_nfa(&content.to_nfa());
                let mut moves = vec![Move { next: 0, spec: NONE }; dfa.num_states() * names.len()];
                for (q, sym, next) in dfa.transitions() {
                    let label = names.id(label_of(sym).as_str()).expect("content labels are named");
                    moves[q * names.len() + label as usize] =
                        Move { next: next as u32, spec: index[sym] };
                }
                let mut finals = vec![false; dfa.num_states()];
                for &q in dfa.finals() {
                    finals[q] = true;
                }
                SpecInfo {
                    moves: moves.into_boxed_slice(),
                    start: dfa.start() as u32,
                    finals,
                    label: label_of(spec),
                    expected: format!("{content}"),
                }
            })
            .collect();
        StreamValidator { root_label: label_of(&start), start: index[&start], names, specs }
    }

    /// Validates a document given as an XML string, in one streaming pass.
    pub fn validate(&self, input: &str) -> Result<(), SchemaError> {
        self.validate_with_stats(input).0
    }

    /// Governed variant of [`StreamValidator::validate`]: one budget step is
    /// charged per SAX event, one node per element opened, and the budget's
    /// depth limit (when set) replaces the parser's
    /// [`DEFAULT_DEPTH_LIMIT`] — the budget trips first with a typed
    /// [`SchemaError::BudgetExceeded`] so depth overruns are attributable to
    /// the quota rather than to a parse error.
    pub fn validate_with_budget(&self, input: &str, budget: &Budget) -> Result<(), SchemaError> {
        self.validate_impl(input, budget).0
    }

    /// [`StreamValidator::validate`], also reporting peak depth and buffer
    /// use of the run.
    pub fn validate_with_stats(&self, input: &str) -> (Result<(), SchemaError>, StreamStats) {
        self.validate_impl(input, &Budget::unlimited())
    }

    /// The move of a `Typed` frame of specialisation `spec` in DFA `state`
    /// on a child named `name`, `None` when there is none.
    fn step(&self, spec: u32, state: u32, name: &str) -> Option<Move> {
        let label = self.names.id(name)?;
        let moves = &self.specs[spec as usize].moves;
        Some(moves[state as usize * self.names.len() + label as usize]).filter(|m| m.spec != NONE)
    }

    fn validate_impl(&self, input: &str, budget: &Budget) -> (Result<(), SchemaError>, StreamStats) {
        let _span = telemetry::span(telemetry::SpanKind::ValidateStream);
        // The parser's own guard sits one past the budget's depth limit so a
        // depth overrun surfaces as a typed budget trip, not a parse error.
        let parser_limit = budget
            .depth_limit()
            .map_or(DEFAULT_DEPTH_LIMIT, |l| l.saturating_add(1));
        let mut parser = SaxParser::with_depth_limit(input, parser_limit);
        let mut frames: Vec<Frame> = Vec::new();
        // The name offsets of the children of every open typed or violated
        // frame, each frame's segment above its parent's.
        let mut children: Vec<u32> = Vec::new();
        let mut pending: Option<Violation> = None;
        let mut stats = StreamStats::default();
        // Event tally kept local and flushed once per document, so the
        // per-event loop carries no atomic traffic.
        let mut events: u64 = 0;
        // An expired deadline or a pre-raised cancellation trips before any
        // parsing happens.
        if let Err(trip) = budget.check_interrupts() {
            return (Err(trip.into()), stats);
        }
        loop {
            let event = match parser.next_event() {
                Ok(Some(event)) => event,
                Ok(None) => break,
                // A parse error preempts any schema verdict, exactly as in
                // the parse-then-validate composition.
                Err(e) => {
                    stats.peak_depth = parser.peak_depth();
                    flush_stream_telemetry(events, stats.peak_depth, true);
                    return (Err(SchemaError::Automata(e)), stats);
                }
            };
            events += 1;
            let charge = budget.step().and_then(|()| match &event {
                SaxEvent::Open(_) => {
                    budget.grow_nodes(1)?;
                    budget.check_depth(frames.len() + 1)
                }
                SaxEvent::Close => Ok(()),
            });
            if let Err(trip) = charge {
                stats.peak_depth = parser.peak_depth();
                flush_stream_telemetry(events, stats.peak_depth, true);
                return (Err(trip.into()), stats);
            }
            match event {
                SaxEvent::Open(name) => {
                    // The parser keeps name offsets below 2³², so they fit.
                    let at = parser.open_offset().expect("an opened element is open") as u32;
                    // The specialisation index of a child to type, `None`
                    // for a child to skip.
                    let typed = match frames.last_mut() {
                        None => {
                            if name == self.root_label.as_str() {
                                Some(self.start)
                            } else {
                                pending = Some(Violation::Root { at });
                                None
                            }
                        }
                        Some(top) => match *top {
                            Frame::Skip => None,
                            Frame::Violated { .. } => {
                                children.push(at);
                                None
                            }
                            Frame::Typed { spec, ref mut state, from } => {
                                children.push(at);
                                match self.step(spec, *state, name) {
                                    Some(Move { next, spec: child }) => {
                                        *state = next;
                                        Some(child)
                                    }
                                    None => {
                                        // The top frame is Typed, hence a
                                        // strict ancestor of any pending
                                        // node: it supersedes. Its frame
                                        // becomes the collector for its
                                        // remaining children; the child just
                                        // opened is skipped.
                                        pending = None;
                                        *top = Frame::Violated { spec, from };
                                        None
                                    }
                                }
                            }
                        },
                    };
                    stats.peak_buffered = stats.peak_buffered.max(children.len());
                    match typed {
                        Some(spec) if pending.is_none() => frames.push(Frame::Typed {
                            spec,
                            state: self.specs[spec as usize].start,
                            from: children.len() as u32,
                        }),
                        // A violation is already pending and this element is
                        // later in preorder: its parent's DFA was stepped
                        // (the parent, an open ancestor, may still violate),
                        // but its own subtree cannot change the verdict.
                        _ => frames.push(Frame::Skip),
                    }
                }
                SaxEvent::Close => match frames.pop().expect("parser balances open/close events") {
                    Frame::Skip => {}
                    Frame::Typed { spec, state, from }
                        if self.specs[spec as usize].finals[state as usize] =>
                    {
                        children.truncate(from as usize);
                    }
                    // A violated frame, or a typed one failing at its close:
                    // it is a strict ancestor of any pending node, so it
                    // supersedes; its child list is complete, so the
                    // violation is final. Every frame still open is a typed
                    // ancestor.
                    Frame::Typed { spec, from, .. } | Frame::Violated { spec, from } => {
                        let path = frames
                            .iter()
                            .map(|f| match f {
                                Frame::Typed { spec, .. } => *spec,
                                _ => unreachable!("frames under a typed frame are typed"),
                            })
                            .chain([spec])
                            .map(|spec| self.specs[spec as usize].label)
                            .collect();
                        let children = children.split_off(from as usize);
                        pending = Some(Violation::Content { path, children, spec });
                    }
                },
            }
        }
        stats.peak_depth = parser.peak_depth();
        flush_stream_telemetry(events, stats.peak_depth, pending.is_some());
        (pending.map_or(Ok(()), |v| Err(self.report(input, v))), stats)
    }

    /// The error of a final violation: the names it reports are read back
    /// from `input` and interned here, and nowhere else in a run.
    fn report(&self, input: &str, violation: Violation) -> SchemaError {
        let intern = |at: u32| Symbol::try_new(name_at(input, at as usize));
        let error = match violation {
            Violation::Root { at } => intern(at)
                .map(|found| SchemaError::RootMismatch { expected: self.root_label, found }),
            Violation::Content { path, children, spec } => {
                children.into_iter().map(intern).collect::<Result<_, _>>().map(|children| {
                    SchemaError::InvalidContent {
                        path,
                        children,
                        expected: self.specs[spec as usize].expected.clone(),
                    }
                })
            }
        };
        error.unwrap_or_else(SchemaError::from)
    }
}

/// One document's worth of streaming telemetry, flushed at end of run.
fn flush_stream_telemetry(events: u64, peak_depth: usize, violated: bool) {
    telemetry::count(telemetry::Metric::StreamDocs, 1);
    telemetry::count(telemetry::Metric::StreamEvents, events);
    if violated {
        telemetry::count(telemetry::Metric::StreamViolations, 1);
    }
    telemetry::observe(telemetry::Hist::StreamDocEvents, events);
    telemetry::observe(telemetry::Hist::StreamDocDepth, peak_depth as u64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use dxml_automata::RFormalism;
    use dxml_tree::xml::{parse_xml, to_xml};

    fn sdtd() -> RSdtd {
        RSdtd::parse(
            RFormalism::Nre,
            "s -> nat~1*, archive?\n\
             archive -> nat~2*\n\
             nat~1 -> country, year\n\
             nat~2 -> country",
        )
        .unwrap()
    }

    fn tree_route(s: &RSdtd, input: &str) -> Result<(), SchemaError> {
        parse_xml(input)
            .map_err(SchemaError::from)
            .and_then(|t| s.validate(&t))
    }

    #[test]
    fn agrees_with_tree_route_on_curated_documents() {
        let s = sdtd();
        let v = StreamValidator::new(&s);
        for doc in [
            "<s/>",
            "<s><nat><country/><year/></nat></s>",
            "<s><nat><country/><year/></nat><archive><nat><country/></nat></archive></s>",
            "<s><nat><country/></nat></s>",
            "<s><archive><nat><country/><year/></nat></archive></s>",
            "<s><mystery/></s>",
            "<t/>",
            "<s><nat><country/><year/><year/></nat></s>",
            "<s><archive/><archive/></s>",
            "<s><nat/></s>",
            "not xml at all",
            "<s><nat>",
            "<s></t>",
            "",
        ] {
            assert_eq!(v.validate(doc), tree_route(&s, doc), "doc {doc:?}");
        }
    }

    #[test]
    fn ancestor_violation_supersedes_descendant_violation() {
        // The inner `nat` is wrong (detected first by the stream), but the
        // tree route blames `s` itself: `mystery` is not in s's content
        // model, and s precedes nat in preorder. The streaming error must
        // match, down to the full child list of `s`.
        let s = sdtd();
        let v = StreamValidator::new(&s);
        let doc = "<s><nat><country/></nat><mystery/></s>";
        let stream = v.validate(doc).unwrap_err();
        let tree = tree_route(&s, doc).unwrap_err();
        assert_eq!(stream, tree);
        match stream {
            SchemaError::InvalidContent { path, children, .. } => {
                assert_eq!(path.len(), 1, "error blames the root");
                assert_eq!(children.len(), 2, "full child-str is reported");
            }
            other => panic!("expected InvalidContent, got {other:?}"),
        }
    }

    #[test]
    fn close_time_violation_supersedes_descendant_violation() {
        let s = RSdtd::parse(
            RFormalism::Nre,
            "s -> a\n\
             a -> b, c\n\
             b -> d",
        )
        .unwrap();
        let v = StreamValidator::new(&s);
        // b's content is wrong (d missing → detected at b's close), and a's
        // content is also wrong (c missing → detected at a's close, later).
        // The tree route blames a (preorder parent first).
        let doc = "<s><a><b/></a></s>";
        assert_eq!(v.validate(doc), tree_route(&s, doc));
        match v.validate(doc).unwrap_err() {
            SchemaError::InvalidContent { path, .. } => {
                assert_eq!(path.last().unwrap().as_str(), "a");
            }
            other => panic!("expected InvalidContent, got {other:?}"),
        }
    }

    #[test]
    fn ancestor_failing_at_close_reports_only_its_direct_children() {
        // Each `a` closes cleanly after buffering children of its own; `s`
        // then fails at its close (`b` missing). The shared child stack must
        // hand `s` exactly its own segment, with no `c` left over.
        let s = RSdtd::parse(RFormalism::Nre, "s -> a, a, b\na -> c*").unwrap();
        let v = StreamValidator::new(&s);
        let doc = "<s><a><c/><c/></a><a><c/></a></s>";
        let stream = v.validate(doc);
        assert_eq!(stream, tree_route(&s, doc));
        assert_eq!(
            stream,
            Err(SchemaError::InvalidContent {
                path: vec![Symbol::new("s")],
                children: vec![Symbol::new("a"), Symbol::new("a")],
                expected: "a a b".to_string(),
            })
        );
    }

    #[test]
    fn child_label_without_a_move_violates_its_parent() {
        // `s`'s DFA has moves (on `a` first, then on `b`), but none on the
        // label read: `c` is declared only under `a`, and `b` cannot come
        // first. Either way `s` is blamed with its full child list.
        let s = RSdtd::parse(RFormalism::Nre, "s -> a, b*\na -> c?").unwrap();
        let v = StreamValidator::new(&s);
        for (doc, children) in [
            ("<s><a/><c/><b/></s>", ["a", "c", "b"].as_slice()),
            ("<s><b/><a><c/></a></s>", ["b", "a"].as_slice()),
        ] {
            let stream = v.validate(doc);
            assert_eq!(stream, tree_route(&s, doc), "doc {doc:?}");
            assert_eq!(
                stream,
                Err(SchemaError::InvalidContent {
                    path: vec![Symbol::new("s")],
                    children: children.iter().map(Symbol::new).collect(),
                    expected: "a b*".to_string(),
                }),
                "doc {doc:?}"
            );
        }
    }

    #[test]
    fn name_table_resolves_exactly_its_names() {
        // Enough names that probe sequences collide and wrap, short and
        // long, sharing prefixes, with a multibyte character in each.
        let labels: BTreeSet<Symbol> =
            (0..300).map(|i| Symbol::new(format!("n{i}é{}", "x".repeat(i % 11)))).collect();
        let table = NameTable::new(&labels);
        for (id, label) in (0..).zip(&labels) {
            let name = label.as_str();
            assert_eq!(table.id(name), Some(id), "{name}");
            let stem = name.trim_end_matches('x');
            for miss in [format!("{name}y"), format!("{stem}z"), format!("{stem}xxxxxxxxxxx")] {
                assert_eq!(table.id(&miss), None, "{miss}");
            }
        }
        assert_eq!(table.id("n1"), None);
    }

    #[test]
    fn validates_hundred_thousand_deep_document() {
        // Streaming: O(depth) frames, no recursion, no tree.
        let s = RSdtd::parse(RFormalism::Nre, "a -> a?").unwrap();
        let v = StreamValidator::new(&s);
        let depth = 100_000;
        let doc = format!("{}{}", "<a>".repeat(depth), "</a>".repeat(depth));
        let (verdict, stats) = v.validate_with_stats(&doc);
        assert!(verdict.is_ok());
        assert_eq!(stats.peak_depth, depth);
        assert_eq!(stats.peak_buffered, depth - 1);
    }

    #[test]
    fn stats_report_peaks() {
        let s = sdtd();
        let v = StreamValidator::new(&s);
        let doc = "<s><nat><country/><year/></nat></s>";
        let (verdict, stats) = v.validate_with_stats(doc);
        assert!(verdict.is_ok());
        assert_eq!(stats.peak_depth, 3);
        // At peak, s buffers [nat] and nat buffers [country year].
        assert_eq!(stats.peak_buffered, 3);
    }

    #[test]
    fn roundtrip_of_sample_trees_validates() {
        let s = sdtd();
        let v = StreamValidator::new(&s);
        let t = s.sample_tree().unwrap();
        assert_eq!(v.validate(&to_xml(&t)), Ok(()));
    }
}
