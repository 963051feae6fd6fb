//! One-pass streaming validation for `R-SDTD`s.
//!
//! The single-type restriction (Definition 6) makes the specialised name of a
//! node a function of its label and its parent's specialised name, so an
//! [`RSdtd`] can type a document top-down while the document is *parsed*,
//! without ever materialising the tree. [`StreamValidator`] consumes the
//! [`SaxEvent`] stream of [`dxml_tree::sax`] with a stack of (label,
//! specialisation index, content-model DFA state) frames — memory
//! proportional to the open-element chain, not to the document. Each element
//! costs one probe of its parent's per-(state, label) move table, built once
//! per schema.
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
//! A violated frame keeps collecting the labels of its direct children until
//! it closes, because [`SchemaError::InvalidContent`] reports the node's full
//! `child-str`, including children after the offending one. Typed frames
//! collect theirs too, in case they fail at their close. Frames nest, so the
//! children of all open frames live in one shared stack: the top frame's
//! children are always its top segment.

use std::collections::BTreeSet;

use dxml_automata::nfa::StateId;
use dxml_automata::{Budget, Dfa, FxHashMap, Symbol};
use dxml_telemetry as telemetry;
use dxml_tree::sax::{SaxEvent, SaxParser, DEFAULT_DEPTH_LIMIT};

use crate::error::SchemaError;
use crate::sdtd::RSdtd;

/// Per-specialisation machinery, prebuilt once so that validating a document
/// costs one hash probe per element: the content-model DFA's transitions
/// re-keyed by *element label* through the single-type map `µ` (a content
/// model names at most one specialisation of each label), the DFA's start
/// and final states, and the rendered content model for error messages.
struct SpecInfo {
    /// `(state, child label) → (next state, child's specialisation index)`.
    moves: FxHashMap<(StateId, Symbol), (StateId, u32)>,
    start: StateId,
    finals: Vec<bool>,
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
/// Construction determinises every content model once and numbers the
/// specialised names; each specialisation gets a move table keyed by
/// (DFA state, child label) that yields the next state and the child's
/// specialisation index. A run keeps a stack of frames carrying those
/// indices and one shared stack of the open frames' child labels. The
/// validator itself is immutable and can be shared across threads to
/// validate many documents concurrently (see `dxml_core`'s batch front end).
pub struct StreamValidator {
    root_label: Symbol,
    /// Specialisation index of the start name.
    start: u32,
    specs: Vec<SpecInfo>,
}

/// One open element during the streaming run. `from` is where the frame's
/// child labels start in the shared child stack.
enum Frame {
    /// A normally-typed element: its label, specialisation index and current
    /// DFA state in the content model of its children.
    Typed { label: Symbol, spec: u32, state: StateId, from: usize },
    /// The current pending violation's node, still open: collects the rest of
    /// its direct children so the error can report the full `child-str`.
    Violated { label: Symbol, spec: u32, from: usize },
    /// An element whose verdict cannot matter any more (inside a violated
    /// subtree, or opened after a violation was pending).
    Skip,
}

impl StreamValidator {
    /// Prebuilds the streaming machinery for a schema.
    pub fn new(sdtd: &RSdtd) -> StreamValidator {
        let edtd = sdtd.as_edtd();
        let start = *edtd.start();
        let root_label = edtd.label_of(&start).copied().unwrap_or(start);
        let mut names: BTreeSet<Symbol> = BTreeSet::new();
        names.insert(start);
        names.extend(edtd.specialized_names().iter().copied());
        for (lhs, content) in edtd.rules() {
            names.insert(*lhs);
            names.extend(content.alphabet().iter().copied());
        }
        // Interned symbols number at most 2²⁴, so `u32` indices never wrap.
        let index: FxHashMap<Symbol, u32> = names.iter().copied().zip(0..).collect();
        let specs = names
            .iter()
            .map(|spec| {
                let content = edtd.content(spec);
                let dfa = Dfa::from_nfa(&content.to_nfa());
                let moves = dfa
                    .transitions()
                    .map(|(q, sym, next)| {
                        let label = edtd.label_of(sym).copied().unwrap_or(*sym);
                        ((q, label), (next, index[sym]))
                    })
                    .collect();
                let mut finals = vec![false; dfa.num_states()];
                for &q in dfa.finals() {
                    finals[q] = true;
                }
                SpecInfo { moves, start: dfa.start(), finals, expected: format!("{content}") }
            })
            .collect();
        StreamValidator { root_label, start: index[&start], specs }
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

    fn validate_impl(&self, input: &str, budget: &Budget) -> (Result<(), SchemaError>, StreamStats) {
        let _span = telemetry::span(telemetry::SpanKind::ValidateStream);
        // The parser's own guard sits one past the budget's depth limit so a
        // depth overrun surfaces as a typed budget trip, not a parse error.
        let parser_limit = budget
            .depth_limit()
            .map_or(DEFAULT_DEPTH_LIMIT, |l| l.saturating_add(1));
        let mut parser = SaxParser::with_depth_limit(input, parser_limit);
        let mut frames: Vec<Frame> = Vec::new();
        // The child labels of every open typed or violated frame, each
        // frame's segment above its parent's.
        let mut children: Vec<Symbol> = Vec::new();
        let mut pending: Option<SchemaError> = None;
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
                SaxEvent::Open(label) => {
                    // The specialisation index of a child to type, `None`
                    // for a child to skip.
                    let typed = match frames.last_mut() {
                        None => {
                            if label == self.root_label {
                                Some(self.start)
                            } else {
                                pending = Some(SchemaError::RootMismatch {
                                    expected: self.root_label,
                                    found: label,
                                });
                                None
                            }
                        }
                        Some(top) => match top {
                            Frame::Skip => None,
                            Frame::Violated { .. } => {
                                children.push(label);
                                None
                            }
                            Frame::Typed { label: parent, spec, state, from } => {
                                children.push(label);
                                match self.specs[*spec as usize].moves.get(&(*state, label)) {
                                    Some(&(next, child)) => {
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
                                        let (label, spec, from) = (*parent, *spec, *from);
                                        *top = Frame::Violated { label, spec, from };
                                        None
                                    }
                                }
                            }
                        },
                    };
                    stats.peak_buffered = stats.peak_buffered.max(children.len());
                    match typed {
                        Some(spec) if pending.is_none() => frames.push(Frame::Typed {
                            label,
                            spec,
                            state: self.specs[spec as usize].start,
                            from: children.len(),
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
                    Frame::Typed { spec, state, from, .. }
                        if self.specs[spec as usize].finals[state] =>
                    {
                        children.truncate(from);
                    }
                    // A violated frame, or a typed one failing at its close:
                    // it is a strict ancestor of any pending node, so it
                    // supersedes; its child list is complete, so the error
                    // is final. Every frame still open is a typed ancestor.
                    Frame::Typed { label, spec, from, .. }
                    | Frame::Violated { label, spec, from } => {
                        let mut path: Vec<Symbol> = frames
                            .iter()
                            .map(|f| match f {
                                Frame::Typed { label, .. } => *label,
                                _ => unreachable!("frames under a typed frame are typed"),
                            })
                            .collect();
                        path.push(label);
                        pending = Some(SchemaError::InvalidContent {
                            path,
                            children: children.split_off(from),
                            expected: self.specs[spec as usize].expected.clone(),
                        });
                    }
                },
            }
        }
        stats.peak_depth = parser.peak_depth();
        flush_stream_telemetry(events, stats.peak_depth, pending.is_some());
        (pending.map_or(Ok(()), Err), stats)
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
