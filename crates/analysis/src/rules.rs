//! Schema-level analysis passes: structural rules over [`RDtd`], [`RSdtd`]
//! and [`REdtd`], plus the definability advisories built on
//! [`crate::definability`]. See the crate docs for the table of codes.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

use dxml_automata::regex::Glushkov;
use dxml_automata::symbol::Word;
use dxml_automata::{dre, Budget, RSpec, Regex, Symbol};
use dxml_schema::{RDtd, REdtd, RSdtd};
use dxml_tree::uta;

use crate::cost::{suffix_counting, EXPONENTIAL_THRESHOLD};
use crate::definability::{dtd_definable, sdtd_definable};
use crate::{sort_report, Diagnostic, Severity};

/// A schema of any of the three languages, borrowed for analysis.
#[derive(Clone, Copy, Debug)]
pub enum AnySchema<'a> {
    /// An `R-DTD`.
    Dtd(&'a RDtd),
    /// An `R-SDTD`.
    Sdtd(&'a RSdtd),
    /// An `R-EDTD`.
    Edtd(&'a REdtd),
}

/// Analyzes a schema of any language, dispatching to the specific pass.
pub fn analyze_schema(schema: AnySchema<'_>) -> Vec<Diagnostic> {
    match schema {
        AnySchema::Dtd(d) => analyze_dtd(d),
        AnySchema::Sdtd(s) => analyze_sdtd(s),
        AnySchema::Edtd(e) => analyze_edtd(e),
    }
}

/// Analyzes an `R-DTD`: empty language, unreachable/unbound element names,
/// empty and non-one-unambiguous content models.
pub fn analyze_dtd(dtd: &RDtd) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let bound = dtd.bound_names();
    if !bound.contains(dtd.start()) {
        out.push(Diagnostic::new(
            "DX001",
            Severity::Error,
            "schema",
            format!("the schema's language is empty: start `{}` is unsatisfiable", dtd.start()),
        ));
    }
    let reachable = dtd.reachable_names();
    for name in dtd.alphabet() {
        if !reachable.contains(name) {
            out.push(
                Diagnostic::new(
                    "DX002",
                    Severity::Warning,
                    format!("element `{name}`"),
                    format!("element `{name}` is unreachable from the start symbol `{}`", dtd.start()),
                )
                .with_suggestion(
                    "remove the element or reference it from a reachable content model",
                ),
            );
        }
        if !bound.contains(name) {
            out.push(
                Diagnostic::new(
                    "DX003",
                    Severity::Warning,
                    format!("element `{name}`"),
                    format!("element `{name}` is unsatisfiable: no finite tree matches it"),
                )
                .with_suggestion("break the cycle that forces the element to contain itself"),
            );
        }
    }
    for (name, spec) in dtd.rules() {
        out.extend(content_model_rules(&format!("element `{name}`"), spec));
    }
    sort_report(&mut out);
    out
}

/// Analyzes an `R-EDTD`: empty language, unreachable/unproductive
/// specialisations, empty and non-one-unambiguous content models, and the
/// SDTD-/DTD-definability advisories with the downgraded schema attached.
pub fn analyze_edtd(e: &REdtd) -> Vec<Diagnostic> {
    let mut out = structural_edtd_rules(e);
    out.extend(definability_advisories(e));
    sort_report(&mut out);
    out
}

/// Analyzes an `R-SDTD`: the structural EDTD rules plus the
/// DTD-definability advisory (an SDTD is already single-type, so `DX006`
/// cannot apply).
pub fn analyze_sdtd(s: &RSdtd) -> Vec<Diagnostic> {
    let e = s.as_edtd();
    let mut out = structural_edtd_rules(e);
    if !e.language_is_empty() && !is_plain_dtd(e) {
        if let Some(dtd) = dtd_definable(e) {
            out.push(dtd_advisory(&dtd));
        }
    }
    sort_report(&mut out);
    out
}

/// The structural rules shared by the EDTD and SDTD passes.
fn structural_edtd_rules(e: &REdtd) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    // The inhabited names: one pair each of the fixpoint against no target.
    let pairs = uta::run_pairs(&e.to_nuta(), None, &Budget::unlimited())
        .expect("the unlimited budget never trips");
    let productive: BTreeSet<Symbol> = pairs.iter().map(|p| p.name).collect();
    if !productive.contains(e.start()) {
        out.push(Diagnostic::new(
            "DX001",
            Severity::Error,
            "schema",
            format!("the schema's language is empty: start `{}` is unsatisfiable", e.start()),
        ));
    }
    // Reachable: top-down closure from the start through content alphabets.
    let mut reachable: BTreeSet<Symbol> = BTreeSet::from([*e.start()]);
    let mut stack = vec![*e.start()];
    while let Some(name) = stack.pop() {
        if let Some(rule) = e.rule(&name) {
            for child in rule.alphabet().iter() {
                if reachable.insert(*child) {
                    stack.push(*child);
                }
            }
        }
    }
    for name in e.specialized_names().iter() {
        let label = e.label_of(name).copied().unwrap_or(*name);
        let location = if *name == label {
            format!("element `{name}`")
        } else {
            format!("specialisation `{name}` of element `{label}`")
        };
        if !reachable.contains(name) {
            out.push(
                Diagnostic::new(
                    "DX002",
                    Severity::Warning,
                    location.clone(),
                    format!("`{name}` is unreachable from the start name `{}`", e.start()),
                )
                .with_suggestion(
                    "remove the specialisation or reference it from a reachable content model",
                ),
            );
        }
        if !productive.contains(name) {
            out.push(
                Diagnostic::new(
                    "DX003",
                    Severity::Warning,
                    location,
                    format!("`{name}` is unsatisfiable: no finite tree matches it"),
                )
                .with_suggestion("break the cycle that forces the specialisation to contain itself"),
            );
        }
    }
    for (name, spec) in e.rules() {
        out.extend(content_model_rules(&format!("specialisation `{name}`"), spec));
    }
    out
}

/// A concrete witness that an expression is not one-unambiguous: after
/// reading `word`, its final [`AmbiguityWitness::symbol`] can be matched
/// by two distinct occurrences of that symbol in the expression — exactly
/// the Brüggemann-Klein/Wood determinism violation, made tangible.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct AmbiguityWitness {
    /// The symbol both occurrences compete for.
    pub symbol: Symbol,
    /// The 1-based occurrence indices (reading order) of the two
    /// positions competing for [`AmbiguityWitness::symbol`].
    pub occurrences: (usize, usize),
    /// A shortest ambiguous input: reading it up to the final symbol is
    /// unambiguous, the final symbol has two possible matches.
    pub word: Word,
}

impl fmt::Display for AmbiguityWitness {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let rendered: Vec<String> = self.word.iter().map(ToString::to_string).collect();
        write!(
            f,
            "reading `{}` is ambiguous: the final `{}` can match occurrence {} or \
             occurrence {} of `{}` in the expression",
            rendered.join(" "),
            self.symbol,
            self.occurrences.0,
            self.occurrences.1,
            self.symbol
        )
    }
}

/// Two distinct positions in `set` carrying the same symbol, if any.
fn competing_positions(g: &Glushkov, set: &BTreeSet<usize>) -> Option<(usize, usize)> {
    let mut seen: BTreeMap<Symbol, usize> = BTreeMap::new();
    for &p in set {
        match seen.get(&g.position_symbols[p]) {
            Some(&q) => return Some((q, p)),
            None => {
                seen.insert(g.position_symbols[p], p);
            }
        }
    }
    None
}

fn make_witness(g: &Glushkov, mut word: Word, p: usize, q: usize) -> AmbiguityWitness {
    let symbol = g.position_symbols[p];
    let occurrence =
        |pos: usize| g.position_symbols[..=pos].iter().filter(|s| **s == symbol).count();
    word.push(symbol);
    AmbiguityWitness { symbol, occurrences: (occurrence(p), occurrence(q)), word }
}

/// Extracts a concrete [`AmbiguityWitness`] from a non-one-unambiguous
/// expression: a breadth-first search over the Glushkov (position)
/// automaton finds a shortest prefix reaching a position whose first/
/// follow set contains two competing occurrences of one symbol. Returns
/// `None` for deterministic expressions (and for conflicts buried in
/// unreachable positions, which cannot be exhibited by any input).
///
/// # Panics
///
/// Only on a broken internal invariant (a queued position without its
/// reaching word).
pub fn ambiguity_witness(re: &Regex) -> Option<AmbiguityWitness> {
    let g = re.glushkov();
    if let Some((p, q)) = competing_positions(&g, &g.first) {
        return Some(make_witness(&g, Vec::new(), p, q));
    }
    let mut word_to: Vec<Option<Word>> = vec![None; g.position_symbols.len()];
    let mut queue = VecDeque::new();
    for &p in &g.first {
        if word_to[p].is_none() {
            word_to[p] = Some(vec![g.position_symbols[p]]);
            queue.push_back(p);
        }
    }
    while let Some(r) = queue.pop_front() {
        let base = word_to[r].clone().expect("queued positions have words");
        if let Some((p, q)) = competing_positions(&g, &g.follow[r]) {
            return Some(make_witness(&g, base, p, q));
        }
        for &s in &g.follow[r] {
            if word_to[s].is_none() {
                let mut w = base.clone();
                w.push(g.position_symbols[s]);
                word_to[s] = Some(w);
                queue.push_back(s);
            }
        }
    }
    None
}

/// Per-content-model rules: `DX004` (empty content model), `DX005`
/// (not one-unambiguous, ambiguity witness attached) and `DX014`
/// (predicted-exponential suffix-counting shape, witness family attached).
fn content_model_rules(location: &str, spec: &RSpec) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    if spec.is_empty_language() {
        out.push(
            Diagnostic::new(
                "DX004",
                Severity::Warning,
                location.to_string(),
                "the content model accepts no child word at all (not even the empty one)",
            )
            .with_suggestion("every node with this rule is invalid; use `()` for leaf-only names"),
        );
        return out; // The dRE check is noise on an empty language.
    }
    if !spec.formalism().is_deterministic() {
        match spec {
            RSpec::Nre(re) if !dre::one_unambiguous_expr(re) => {
                let message = match ambiguity_witness(re) {
                    Some(w) => format!(
                        "the content model `{re}` is not a one-unambiguous expression: {w}"
                    ),
                    None => {
                        format!("the content model `{re}` is not a one-unambiguous expression")
                    }
                };
                let diag = Diagnostic::new("DX005", Severity::Warning, location.to_string(), message);
                out.push(match dre::smallest_equivalent_dre_hint(re) {
                    Some(hint) => diag.with_suggestion(format!(
                        "an equivalent deterministic expression exists, e.g. `{hint}`"
                    )),
                    None if !dre::one_unambiguous_regex_language(re) => diag.with_suggestion(
                        "no equivalent deterministic expression exists (BKW); \
                         W3C-DTD/XSD validators will reject this content model",
                    ),
                    None => diag,
                });
            }
            RSpec::Nfa(nfa) if !dre::one_unambiguous_language(nfa) => {
                out.push(
                    Diagnostic::new(
                        "DX005",
                        Severity::Warning,
                        location.to_string(),
                        "the content model's language is not one-unambiguous",
                    )
                    .with_suggestion(
                        "no deterministic expression captures it (BKW); \
                         W3C-DTD/XSD validators cannot express this content model",
                    ),
                );
            }
            _ => {}
        }
    }
    if let RSpec::Nre(re) | RSpec::Dre(re) = spec {
        if let Some(sc) = suffix_counting(re) {
            if sc.dfa_lower_bound >= EXPONENTIAL_THRESHOLD {
                out.push(
                    Diagnostic::new(
                        "DX014",
                        Severity::Warning,
                        location.to_string(),
                        format!(
                            "the content model `{re}` is predicted-exponential: {}",
                            sc.describe()
                        ),
                    )
                    .with_suggestion(format!(
                        "determinising this rule cannot stay below {} states; run it \
                         governed (`cost::recommend_budget` synthesises fitting quotas) \
                         or restructure the rule so membership does not depend on a \
                         fixed position from the end",
                        sc.dfa_lower_bound
                    )),
                );
            }
        }
    }
    out
}

/// Whether the EDTD is a plain DTD in EDTD clothing: every specialised name
/// is its own label, so a definability advisory would carry no information.
fn is_plain_dtd(e: &REdtd) -> bool {
    e.specialized_names().iter().all(|name| e.label_of(name) == Some(name))
}

/// The `DX006`/`DX007` advisories for an EDTD (strongest downgrade only).
pub(crate) fn definability_advisories(e: &REdtd) -> Vec<Diagnostic> {
    if e.language_is_empty() || is_plain_dtd(e) {
        return Vec::new();
    }
    if let Some(dtd) = dtd_definable(e) {
        return vec![dtd_advisory(&dtd)];
    }
    if RSdtd::from_edtd(e.clone()).is_ok() {
        // Already single-type: an SDTD advisory would carry no information.
        return Vec::new();
    }
    if let Some(sdtd) = sdtd_definable(e) {
        return vec![Diagnostic::new(
            "DX006",
            Severity::Info,
            "schema",
            "the language is SDTD-definable: an equivalent single-type schema exists, \
             enabling top-down and streaming validation (`StreamValidator`)",
        )
        .with_suggestion(format!("{}", sdtd.as_edtd()))];
    }
    Vec::new()
}

fn dtd_advisory(dtd: &RDtd) -> Diagnostic {
    Diagnostic::new(
        "DX007",
        Severity::Info,
        "schema",
        "the language is DTD-definable: an equivalent plain DTD exists; it is \
         a local target (one typing per label), on which schema synthesis \
         also handles functions docking under several parents",
    )
    .with_suggestion(format!("{dtd}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dxml_automata::{RFormalism, Regex};

    fn codes(report: &[Diagnostic]) -> Vec<&'static str> {
        report.iter().map(|d| d.code).collect()
    }

    #[test]
    fn clean_dtd_yields_no_diagnostics() {
        let dtd = RDtd::parse(RFormalism::Nre, "s -> a, b?\na -> b*").unwrap();
        assert!(analyze_dtd(&dtd).is_empty(), "{:?}", analyze_dtd(&dtd));
    }

    #[test]
    fn dead_and_empty_parts_are_reported() {
        let mut dtd = RDtd::parse(RFormalism::Nre, "s -> a*\na -> b?").unwrap();
        // `c` unreachable; `loop` unreachable and unbound.
        dtd.set_rule("c", RSpec::Nre(Regex::parse("b").unwrap()));
        dtd.set_rule("loop", RSpec::Nre(Regex::sym("loop")));
        let report = analyze_dtd(&dtd);
        assert!(codes(&report).contains(&"DX002"));
        assert!(codes(&report).contains(&"DX003"));
        assert!(!codes(&report).contains(&"DX001"), "language is not empty");
    }

    #[test]
    fn empty_language_is_an_error() {
        let mut dtd = RDtd::new(RFormalism::Nre, "s");
        dtd.set_rule("s", RSpec::Nre(Regex::sym("s")));
        let report = analyze_dtd(&dtd);
        assert_eq!(report[0].code, "DX001");
        assert_eq!(report[0].severity, Severity::Error);
    }

    #[test]
    fn non_deterministic_content_models_get_dx005() {
        // (a|b)* a is not one-unambiguous as written but its language is
        // (the hint helper rewrites it to (b* a)+).
        let mut dtd = RDtd::new(RFormalism::Nre, "s");
        dtd.set_rule("s", RSpec::Nre(Regex::parse("(a | b)* a").unwrap()));
        let report = analyze_dtd(&dtd);
        let dx5: Vec<_> = report.iter().filter(|d| d.code == "DX005").collect();
        assert_eq!(dx5.len(), 1);
        assert!(
            dx5[0].suggestion.as_deref().is_some_and(|s| s.contains("equivalent deterministic")),
            "{:?}",
            dx5[0].suggestion
        );
    }

    #[test]
    fn dx005_attaches_a_concrete_ambiguity_witness() {
        let mut dtd = RDtd::new(RFormalism::Nre, "s");
        dtd.set_rule("s", RSpec::Nre(Regex::parse("(a | b)* a").unwrap()));
        let report = analyze_dtd(&dtd);
        let dx5 = report.iter().find(|d| d.code == "DX005").expect("DX005 fires");
        assert!(dx5.message.contains("ambiguous"), "{}", dx5.message);
        assert!(dx5.message.contains("occurrence 1 or occurrence 2"), "{}", dx5.message);
    }

    #[test]
    fn ambiguity_witness_is_a_shortest_ambiguous_input() {
        // First-set conflict: the very first `a` already has two matches.
        let w = ambiguity_witness(&Regex::parse("(a | b)* a").unwrap()).unwrap();
        assert_eq!(w.word.len(), 1);
        assert_eq!(w.occurrences, (1, 2));
        // Follow-set conflict two letters in: `c (a | b)* a` is only
        // ambiguous after reading `c` and one window letter.
        let w = ambiguity_witness(&Regex::parse("c, (a | b)* a").unwrap()).unwrap();
        assert!(w.word.len() >= 2, "{:?}", w.word);
        // Deterministic expressions yield no witness.
        assert!(ambiguity_witness(&Regex::parse("(b* a)+").unwrap()).is_none());
        assert!(ambiguity_witness(&Regex::parse("a, b?").unwrap()).is_none());
    }

    #[test]
    fn dx014_fires_on_the_suffix_counting_family_with_the_right_bound() {
        // (a|b)* a (a|b)^{n-1} with n = 8: lower bound 2^8 = 256.
        let tail = " (a | b)".repeat(7);
        let mut dtd = RDtd::new(RFormalism::Nre, "s");
        dtd.set_rule("s", RSpec::Nre(Regex::parse(&format!("(a | b)* a{tail}")).unwrap()));
        let report = analyze_dtd(&dtd);
        let dx14 = report.iter().find(|d| d.code == "DX014").expect("DX014 fires");
        assert_eq!(dx14.severity, Severity::Warning);
        assert!(dx14.message.contains("256"), "{}", dx14.message);
        assert!(dx14.message.contains("rejects"), "witness family attached: {}", dx14.message);
        assert!(
            dx14.suggestion.as_deref().is_some_and(|s| s.contains("recommend_budget")),
            "{:?}",
            dx14.suggestion
        );
    }

    #[test]
    fn dx014_stays_silent_below_the_exponential_threshold() {
        // Window 1 → bound 2, far below the threshold: DX005 only.
        let mut dtd = RDtd::new(RFormalism::Nre, "s");
        dtd.set_rule("s", RSpec::Nre(Regex::parse("(a | b)* a").unwrap()));
        let report = analyze_dtd(&dtd);
        assert!(codes(&report).contains(&"DX005"));
        assert!(!codes(&report).contains(&"DX014"));
    }

    #[test]
    fn definability_advisory_round_trips() {
        // Redundant specialisations: DTD-definable, so DX007 fires and the
        // suggested schema is language-equivalent to the original.
        let mut e = REdtd::new(RFormalism::Nre, "s", "s");
        e.add_specialization("x", "a");
        e.add_specialization("y", "a");
        e.set_rule("s", RSpec::Nre(Regex::parse("x y*").unwrap()));
        e.set_rule("x", RSpec::Nre(Regex::parse("b").unwrap()));
        e.set_rule("y", RSpec::Nre(Regex::parse("b").unwrap()));
        let report = analyze_edtd(&e);
        let advisory = report.iter().find(|d| d.code == "DX007").expect("DTD-definable");
        assert_eq!(advisory.severity, Severity::Info);
        let suggested = advisory.suggestion.as_ref().expect("schema attached");
        assert!(suggested.contains("DTD"), "{suggested}");
        assert!(dtd_definable(&e).unwrap().to_edtd().equivalent(&e));
    }

    #[test]
    fn sdtd_advisory_fires_only_for_genuinely_specialised_schemas() {
        // Depth specialisation, *written* non-single-type via a redundant
        // alternative: SDTD-definable but not DTD-definable → DX006.
        let mut e = REdtd::new(RFormalism::Nre, "s", "s");
        e.add_specialization("a1", "a");
        e.add_specialization("a2", "a");
        e.set_rule("s", RSpec::Nre(Regex::parse("a1 | a1 a1", ).unwrap()));
        e.set_rule("a1", RSpec::Nre(Regex::parse("a2?").unwrap()));
        e.set_rule("a2", RSpec::Nre(Regex::parse("b").unwrap()));
        let report = analyze_edtd(&e);
        // `s`'s content uses only a1 — single-type as written, so no DX006.
        assert!(!codes(&report).contains(&"DX006"));
        // Make it non-single-type: a1 and a2 both occur under `s`.
        let mut f = e.clone();
        f.set_rule("s", RSpec::Nre(Regex::parse("a1 | a2").unwrap()));
        let report = analyze_edtd(&f);
        if let Some(advisory) = report.iter().find(|d| d.code == "DX006") {
            assert!(advisory.suggestion.is_some());
        }
        // A genuinely non-SDTD-definable language gets no advisory at all.
        let mut g = REdtd::new(RFormalism::Nre, "s", "s");
        g.add_specialization("ab", "a");
        g.add_specialization("ac", "a");
        g.set_rule("s", RSpec::Nre(Regex::parse("ab* ac ab*").unwrap()));
        g.set_rule("ab", RSpec::Nre(Regex::parse("b").unwrap()));
        g.set_rule("ac", RSpec::Nre(Regex::parse("c").unwrap()));
        let report = analyze_edtd(&g);
        assert!(!codes(&report).contains(&"DX006"));
        assert!(!codes(&report).contains(&"DX007"));
    }

    #[test]
    fn analyze_schema_dispatches() {
        let dtd = RDtd::parse(RFormalism::Nre, "s -> a*").unwrap();
        assert!(analyze_schema(AnySchema::Dtd(&dtd)).is_empty());
        let sdtd = RSdtd::parse(RFormalism::Nre, "s -> a?").unwrap();
        assert!(analyze_schema(AnySchema::Sdtd(&sdtd)).is_empty());
        let e = dtd.to_edtd();
        assert!(analyze_schema(AnySchema::Edtd(&e)).is_empty());
    }
}
