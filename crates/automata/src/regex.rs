//! (Possibly nondeterministic) regular expressions — the paper's `nRE`s.
//!
//! The abstract syntax follows Section 2.1.2:
//!
//! ```text
//! r ::= ε | ∅ | a | (r · r) | (r + r) | r? | r+ | r*
//! ```
//!
//! Two textual syntaxes are supported:
//!
//! * **identifier mode** ([`Regex::parse`]) — symbols are identifiers such as
//!   `nationalIndex`; concatenation is written by juxtaposition or `,` (as in
//!   DTD content models), alternation by `|`, and `+`/`*`/`?` are postfix.
//!   This is the syntax of Figures 3–6 of the paper.
//! * **character mode** ([`Regex::parse_chars`]) — every alphanumeric
//!   character is a symbol, as in the paper's compact examples (`a∗bc∗`,
//!   `(ab)+`, `ab + ba`). A `+` with whitespace before it is alternation,
//!   otherwise it is the postfix iterator; `|` is always alternation.
//!
//! Every expression compiles to one automaton, its Glushkov (position)
//! automaton ([`Regex::to_nfa`]): ε-free, with one state per symbol
//! occurrence plus the start state. The same construction decides
//! one-unambiguity ([`Glushkov::is_deterministic`], used by [`crate::dre`]),
//! since a `dRE` is by definition an expression whose Glushkov automaton is
//! deterministic (Brüggemann-Klein & Wood).

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use crate::error::AutomataError;
use crate::nfa::Nfa;
use crate::symbol::{Alphabet, Symbol};

/// A regular expression over [`Symbol`]s.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Regex {
    /// The empty language `∅`.
    Empty,
    /// The empty word `ε`.
    Epsilon,
    /// A single symbol.
    Sym(Symbol),
    /// Concatenation of the sub-expressions, in order.
    Concat(Vec<Regex>),
    /// Alternation (union) of the sub-expressions.
    Alt(Vec<Regex>),
    /// Kleene star `r*`.
    Star(Box<Regex>),
    /// One-or-more `r+`.
    Plus(Box<Regex>),
    /// Optional `r?`.
    Opt(Box<Regex>),
}

impl Regex {
    /// Builds a single-symbol expression.
    pub fn sym(s: impl Into<Symbol>) -> Regex {
        Regex::Sym(s.into())
    }

    /// Concatenation helper that flattens nested concatenations.
    pub fn concat(parts: Vec<Regex>) -> Regex {
        let mut flat = Vec::new();
        for p in parts {
            match p {
                Regex::Concat(inner) => flat.extend(inner),
                Regex::Epsilon => {}
                other => flat.push(other),
            }
        }
        match flat.pop() {
            None => Regex::Epsilon,
            Some(last) if flat.is_empty() => last,
            Some(last) => {
                flat.push(last);
                Regex::Concat(flat)
            }
        }
    }

    /// Alternation helper that flattens nested alternations.
    pub fn alt(parts: Vec<Regex>) -> Regex {
        let mut flat = Vec::new();
        for p in parts {
            match p {
                Regex::Alt(inner) => flat.extend(inner),
                other => flat.push(other),
            }
        }
        match flat.pop() {
            None => Regex::Empty,
            Some(last) if flat.is_empty() => last,
            Some(last) => {
                flat.push(last);
                Regex::Alt(flat)
            }
        }
    }

    /// `r*`.
    pub fn star(self) -> Regex {
        Regex::Star(Box::new(self))
    }

    /// `r+`.
    pub fn plus(self) -> Regex {
        Regex::Plus(Box::new(self))
    }

    /// `r?`.
    pub fn opt(self) -> Regex {
        Regex::Opt(Box::new(self))
    }

    /// Parses an expression in identifier mode (symbols are identifiers;
    /// see the module documentation).
    pub fn parse(input: &str) -> Result<Regex, AutomataError> {
        Parser::new(input, Mode::Ident)?.parse()
    }

    /// Parses an expression in character mode (every alphanumeric character
    /// is a symbol; see the module documentation).
    pub fn parse_chars(input: &str) -> Result<Regex, AutomataError> {
        Parser::new(input, Mode::Chars)?.parse()
    }

    /// The number of nodes of the expression (a simple size measure).
    pub fn size(&self) -> usize {
        match self {
            Regex::Empty | Regex::Epsilon | Regex::Sym(_) => 1,
            Regex::Concat(parts) | Regex::Alt(parts) => {
                1 + parts.iter().map(Regex::size).sum::<usize>()
            }
            Regex::Star(r) | Regex::Plus(r) | Regex::Opt(r) => 1 + r.size(),
        }
    }

    /// The set of symbols occurring in the expression.
    pub fn alphabet(&self) -> Alphabet {
        let mut out = Alphabet::new();
        self.collect_symbols(&mut out);
        out
    }

    fn collect_symbols(&self, out: &mut Alphabet) {
        match self {
            Regex::Empty | Regex::Epsilon => {}
            Regex::Sym(s) => {
                out.insert(*s);
            }
            Regex::Concat(parts) | Regex::Alt(parts) => {
                for p in parts {
                    p.collect_symbols(out);
                }
            }
            Regex::Star(r) | Regex::Plus(r) | Regex::Opt(r) => r.collect_symbols(out),
        }
    }

    /// Whether ε belongs to the language.
    pub fn nullable(&self) -> bool {
        match self {
            Regex::Empty | Regex::Sym(_) => false,
            Regex::Epsilon | Regex::Star(_) | Regex::Opt(_) => true,
            Regex::Plus(r) => r.nullable(),
            Regex::Concat(parts) => parts.iter().all(Regex::nullable),
            Regex::Alt(parts) => parts.iter().any(Regex::nullable),
        }
    }

    /// Compiles to the Glushkov automaton, trimmed: ε-free, with at most
    /// one state per symbol occurrence plus the start state `0`; state
    /// `p + 1` is position `p` of [`Regex::glushkov`], entered by reading
    /// its symbol.
    pub fn to_nfa(&self) -> Nfa {
        let g = self.glushkov();
        let mut nfa = Nfa::new(g.position_symbols.len() + 1, 0);
        for &p in &g.first {
            nfa.add_transition(0, g.position_symbols[p], p + 1);
        }
        for (p, follow) in g.follow.iter().enumerate() {
            for &q in follow {
                nfa.add_transition(p + 1, g.position_symbols[q], q + 1);
            }
        }
        for &p in &g.last {
            nfa.set_final(p + 1);
        }
        if g.nullable {
            nfa.set_final(0);
        }
        // Without ∅ every position lies on some accepted word, so only an
        // expression mentioning ∅ can leave states to trim.
        if self.mentions_empty() {
            nfa.trim()
        } else {
            nfa
        }
    }

    /// Whether `∅` occurs anywhere in the expression.
    fn mentions_empty(&self) -> bool {
        match self {
            Regex::Empty => true,
            Regex::Epsilon | Regex::Sym(_) => false,
            Regex::Concat(parts) | Regex::Alt(parts) => parts.iter().any(Regex::mentions_empty),
            Regex::Star(r) | Regex::Plus(r) | Regex::Opt(r) => r.mentions_empty(),
        }
    }

    /// The Glushkov (position) automaton of the expression as its position
    /// sets (`first`, `last`, `follow`); [`Regex::to_nfa`] builds the
    /// automaton from them.
    pub fn glushkov(&self) -> Glushkov {
        Glushkov::build(self)
    }

    /// Whether the expression accepts `word` (convenience wrapper over
    /// [`Regex::to_nfa`]).
    pub fn accepts(&self, word: &[Symbol]) -> bool {
        self.to_nfa().accepts(word)
    }
}

impl fmt::Display for Regex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn rec(re: &Regex, f: &mut fmt::Formatter<'_>, parent_prec: u8) -> fmt::Result {
            // precedence: alt=0, concat=1, postfix=2, atom=3
            let prec = match re {
                Regex::Alt(_) => 0,
                Regex::Concat(_) => 1,
                Regex::Star(_) | Regex::Plus(_) | Regex::Opt(_) => 2,
                _ => 3,
            };
            let need_paren = prec < parent_prec;
            if need_paren {
                write!(f, "(")?;
            }
            match re {
                Regex::Empty => write!(f, "∅")?,
                Regex::Epsilon => write!(f, "ε")?,
                Regex::Sym(s) => write!(f, "{s}")?,
                Regex::Concat(parts) => {
                    for (i, p) in parts.iter().enumerate() {
                        if i > 0 {
                            write!(f, " ")?;
                        }
                        rec(p, f, 2)?;
                    }
                }
                Regex::Alt(parts) => {
                    for (i, p) in parts.iter().enumerate() {
                        if i > 0 {
                            write!(f, " | ")?;
                        }
                        rec(p, f, 1)?;
                    }
                }
                Regex::Star(r) => {
                    rec(r, f, 3)?;
                    write!(f, "*")?;
                }
                Regex::Plus(r) => {
                    rec(r, f, 3)?;
                    write!(f, "+")?;
                }
                Regex::Opt(r) => {
                    rec(r, f, 3)?;
                    write!(f, "?")?;
                }
            }
            if need_paren {
                write!(f, ")")?;
            }
            Ok(())
        }
        rec(self, f, 0)
    }
}

// ----------------------------------------------------------------------
// Glushkov automaton
// ----------------------------------------------------------------------

/// The Glushkov (position) automaton of a regular expression.
///
/// Positions are numbered `0..n` in left-to-right order of symbol
/// occurrences. The expression is
/// *deterministic* (one-unambiguous, a `dRE`) exactly when this automaton is
/// deterministic — see [`Glushkov::is_deterministic`] and [`crate::dre`].
#[derive(Debug, Clone)]
pub struct Glushkov {
    /// The symbol at each position.
    pub position_symbols: Vec<Symbol>,
    /// Whether ε belongs to the language.
    pub nullable: bool,
    /// Positions that can start a word.
    pub first: BTreeSet<usize>,
    /// Positions that can end a word.
    pub last: BTreeSet<usize>,
    /// `follow[p]` = positions that can immediately follow position `p`.
    pub follow: Vec<BTreeSet<usize>>,
}

impl Glushkov {
    fn build(re: &Regex) -> Glushkov {
        struct Ctx {
            symbols: Vec<Symbol>,
            follow: Vec<BTreeSet<usize>>,
        }
        struct Info {
            nullable: bool,
            first: BTreeSet<usize>,
            last: BTreeSet<usize>,
        }
        fn go(re: &Regex, ctx: &mut Ctx) -> Info {
            match re {
                Regex::Empty => Info { nullable: false, first: BTreeSet::new(), last: BTreeSet::new() },
                Regex::Epsilon => Info { nullable: true, first: BTreeSet::new(), last: BTreeSet::new() },
                Regex::Sym(s) => {
                    ctx.symbols.push(*s);
                    ctx.follow.push(BTreeSet::new());
                    let p = ctx.symbols.len() - 1;
                    Info {
                        nullable: false,
                        first: BTreeSet::from([p]),
                        last: BTreeSet::from([p]),
                    }
                }
                Regex::Concat(parts) => {
                    let mut acc = Info { nullable: true, first: BTreeSet::new(), last: BTreeSet::new() };
                    for part in parts {
                        let info = go(part, ctx);
                        // follow: every last of acc is followed by every first of info
                        for &l in &acc.last {
                            for &fpos in &info.first {
                                ctx.follow[l].insert(fpos);
                            }
                        }
                        if acc.nullable {
                            acc.first.extend(info.first.iter().copied());
                        }
                        if info.nullable {
                            acc.last.extend(info.last.iter().copied());
                        } else {
                            acc.last = info.last;
                        }
                        acc.nullable = acc.nullable && info.nullable;
                    }
                    acc
                }
                Regex::Alt(parts) => {
                    let mut acc = Info { nullable: false, first: BTreeSet::new(), last: BTreeSet::new() };
                    for part in parts {
                        let info = go(part, ctx);
                        acc.nullable = acc.nullable || info.nullable;
                        acc.first.extend(info.first);
                        acc.last.extend(info.last);
                    }
                    acc
                }
                Regex::Star(r) | Regex::Plus(r) => {
                    let info = go(r, ctx);
                    for &l in &info.last {
                        for &fpos in &info.first {
                            ctx.follow[l].insert(fpos);
                        }
                    }
                    Info {
                        nullable: info.nullable || matches!(re, Regex::Star(_)),
                        first: info.first,
                        last: info.last,
                    }
                }
                Regex::Opt(r) => {
                    let info = go(r, ctx);
                    Info { nullable: true, first: info.first, last: info.last }
                }
            }
        }
        // Positions are indices into ctx.symbols; `go` pushes onto both
        // vectors so positions and follow stay in sync.
        let mut ctx = Ctx { symbols: Vec::new(), follow: Vec::new() };
        let info = go(re, &mut ctx);
        Glushkov {
            position_symbols: ctx.symbols,
            nullable: info.nullable,
            first: info.first,
            last: info.last,
            follow: ctx.follow,
        }
    }

    /// Whether the Glushkov automaton is deterministic, i.e. whether the
    /// originating expression is one-unambiguous (a `dRE`).
    pub fn is_deterministic(&self) -> bool {
        let distinct_symbols = |positions: &BTreeSet<usize>| {
            let mut seen: BTreeMap<&Symbol, usize> = BTreeMap::new();
            for &p in positions {
                let sym = &self.position_symbols[p];
                if let Some(&other) = seen.get(sym) {
                    if other != p {
                        return false;
                    }
                }
                seen.insert(sym, p);
            }
            true
        };
        if !distinct_symbols(&self.first) {
            return false;
        }
        self.follow.iter().all(distinct_symbols)
    }
}

// ----------------------------------------------------------------------
// Parser
// ----------------------------------------------------------------------

#[derive(Clone, Copy, PartialEq, Eq)]
enum Mode {
    Ident,
    Chars,
}

#[derive(Clone, PartialEq, Eq, Debug)]
enum Token {
    Sym(Symbol),
    LParen,
    RParen,
    Star,
    PostPlus,
    AltOp,
    Question,
    Epsilon,
    EmptySet,
    /// An explicit concatenation separator (`,`, `·` or `.`). Kept as a real
    /// token (rather than skipped at tokenisation time) so that an *empty*
    /// operand — `a,,b`, a trailing `a,` — is a parse error instead of being
    /// silently dropped.
    Sep,
}

struct Parser {
    tokens: Vec<(Token, usize)>,
    pos: usize,
    input_len: usize,
}

impl Parser {
    fn new(input: &str, mode: Mode) -> Result<Parser, AutomataError> {
        Ok(Parser {
            tokens: tokenize(input, mode)?,
            pos: 0,
            input_len: input.len(),
        })
    }

    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos).map(|(t, _)| t)
    }

    fn bump(&mut self) -> Option<(Token, usize)> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn here(&self) -> usize {
        self.tokens.get(self.pos).map_or(self.input_len, |(_, p)| *p)
    }

    fn parse(mut self) -> Result<Regex, AutomataError> {
        if self.tokens.is_empty() {
            return Ok(Regex::Epsilon);
        }
        let re = self.parse_alt()?;
        if self.pos != self.tokens.len() {
            return Err(AutomataError::Parse {
                message: "regex: unexpected trailing input".into(),
                position: self.here(),
            });
        }
        Ok(re)
    }

    fn parse_alt(&mut self) -> Result<Regex, AutomataError> {
        let mut parts = vec![self.parse_concat()?];
        while matches!(self.peek(), Some(Token::AltOp)) {
            self.bump();
            parts.push(self.parse_concat()?);
        }
        Ok(Regex::alt(parts))
    }

    fn at_operand_start(&self) -> bool {
        matches!(
            self.peek(),
            Some(Token::Sym(_) | Token::LParen | Token::Epsilon | Token::EmptySet)
        )
    }

    fn parse_concat(&mut self) -> Result<Regex, AutomataError> {
        if !self.at_operand_start() {
            return Err(AutomataError::Parse {
                message: "regex: expected a symbol, '(' , ε or ∅".into(),
                position: self.here(),
            });
        }
        let mut parts = vec![self.parse_postfix()?];
        loop {
            if matches!(self.peek(), Some(Token::Sep)) {
                let sep_pos = self.here();
                self.bump();
                if !self.at_operand_start() {
                    return Err(AutomataError::Parse {
                        message: "regex: empty operand after explicit concatenation separator".into(),
                        position: if self.pos == self.tokens.len() { sep_pos } else { self.here() },
                    });
                }
                parts.push(self.parse_postfix()?);
            } else if self.at_operand_start() {
                parts.push(self.parse_postfix()?);
            } else {
                break;
            }
        }
        Ok(Regex::concat(parts))
    }

    fn parse_postfix(&mut self) -> Result<Regex, AutomataError> {
        let mut re = self.parse_atom()?;
        loop {
            match self.peek() {
                Some(Token::Star) => {
                    self.bump();
                    re = re.star();
                }
                Some(Token::PostPlus) => {
                    self.bump();
                    re = re.plus();
                }
                Some(Token::Question) => {
                    self.bump();
                    re = re.opt();
                }
                _ => break,
            }
        }
        Ok(re)
    }

    fn parse_atom(&mut self) -> Result<Regex, AutomataError> {
        let position = self.here();
        match self.bump() {
            Some((Token::Sym(s), _)) => Ok(Regex::Sym(s)),
            Some((Token::Epsilon, _)) => Ok(Regex::Epsilon),
            Some((Token::EmptySet, _)) => Ok(Regex::Empty),
            Some((Token::LParen, _)) => {
                let inner = self.parse_alt()?;
                match self.bump() {
                    Some((Token::RParen, _)) => Ok(inner),
                    _ => Err(AutomataError::Parse {
                        message: "regex: expected ')'".into(),
                        position: self.here(),
                    }),
                }
            }
            other => Err(AutomataError::Parse {
                message: format!("regex: unexpected token {:?}", other.map(|(t, _)| t)),
                position,
            }),
        }
    }
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_' || c == '~' || c == '#'
}

fn tokenize(input: &str, mode: Mode) -> Result<Vec<(Token, usize)>, AutomataError> {
    let mut tokens = Vec::new();
    let chars: Vec<(usize, char)> = input.char_indices().collect();
    let mut i = 0;
    while i < chars.len() {
        let (pos, c) = chars[i];
        match c {
            c if c.is_whitespace() => {
                i += 1;
            }
            ',' | '·' | '.' => {
                tokens.push((Token::Sep, pos));
                i += 1;
            }
            '(' => {
                tokens.push((Token::LParen, pos));
                i += 1;
            }
            ')' => {
                tokens.push((Token::RParen, pos));
                i += 1;
            }
            '*' | '∗' => {
                tokens.push((Token::Star, pos));
                i += 1;
            }
            '?' => {
                tokens.push((Token::Question, pos));
                i += 1;
            }
            '|' => {
                tokens.push((Token::AltOp, pos));
                i += 1;
            }
            '+' => {
                let preceded_by_space = i > 0 && chars[i - 1].1.is_whitespace();
                let token = match mode {
                    Mode::Ident => Token::PostPlus,
                    Mode::Chars => {
                        if preceded_by_space {
                            Token::AltOp
                        } else {
                            Token::PostPlus
                        }
                    }
                };
                tokens.push((token, pos));
                i += 1;
            }
            'ε' => {
                tokens.push((Token::Epsilon, pos));
                i += 1;
            }
            '∅' => {
                tokens.push((Token::EmptySet, pos));
                i += 1;
            }
            c if is_ident_char(c) => match mode {
                Mode::Chars => {
                    tokens.push((Token::Sym(Symbol::try_new(c.to_string())?), pos));
                    i += 1;
                }
                Mode::Ident => {
                    let start = i;
                    while i < chars.len() && is_ident_char(chars[i].1) {
                        i += 1;
                    }
                    let text: String = chars[start..i].iter().map(|(_, c)| *c).collect();
                    match text.as_str() {
                        "eps" | "epsilon" => tokens.push((Token::Epsilon, pos)),
                        "empty" => tokens.push((Token::EmptySet, pos)),
                        _ => tokens.push((Token::Sym(Symbol::try_new(text)?), pos)),
                    }
                }
            },
            _ => {
                return Err(AutomataError::Parse {
                    message: format!("regex: unexpected character `{c}`"),
                    position: pos,
                });
            }
        }
    }
    Ok(tokens)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbol::{word, word_chars};
    use std::collections::BTreeSet;

    #[test]
    fn parse_chars_basic() {
        let re = Regex::parse_chars("a*bc*").unwrap();
        assert!(re.accepts(&word_chars("b")));
        assert!(re.accepts(&word_chars("aabcc")));
        assert!(!re.accepts(&word_chars("ac")));
    }

    #[test]
    fn parse_chars_plus_disambiguation() {
        // "ab + ba" : alternation (Example 11 of the paper)
        let re = Regex::parse_chars("ab + ba").unwrap();
        assert!(re.accepts(&word_chars("ab")));
        assert!(re.accepts(&word_chars("ba")));
        assert!(!re.accepts(&word_chars("abba")));
        // "a+b+" : concatenation of iterated symbols (Remark 1)
        let re2 = Regex::parse_chars("a+b+").unwrap();
        assert!(re2.accepts(&word_chars("ab")));
        assert!(re2.accepts(&word_chars("aabbb")));
        assert!(!re2.accepts(&word_chars("ba")));
        // "(ab)+" : postfix on a group (Example 5)
        let re3 = Regex::parse_chars("(ab)+").unwrap();
        assert!(re3.accepts(&word_chars("ab")));
        assert!(re3.accepts(&word_chars("abab")));
        assert!(!re3.accepts(&[]));
    }

    #[test]
    fn parse_ident_dtd_style() {
        // Figure 3: eurostat -> averages, nationalIndex*
        let re = Regex::parse("averages, nationalIndex*").unwrap();
        assert!(re.accepts(&word("averages")));
        assert!(re.accepts(&word("averages nationalIndex nationalIndex")));
        assert!(!re.accepts(&word("nationalIndex")));
        // Figure 3: nationalIndex -> country, Good, (index | value, year)
        let re2 = Regex::parse("country, Good, (index | value, year)").unwrap();
        assert!(re2.accepts(&word("country Good index")));
        assert!(re2.accepts(&word("country Good value year")));
        assert!(!re2.accepts(&word("country Good index value")));
        // Figure 5: (Good, index+)+
        let re3 = Regex::parse("(Good, index+)+").unwrap();
        assert!(re3.accepts(&word("Good index")));
        assert!(re3.accepts(&word("Good index index Good index")));
        assert!(!re3.accepts(&word("Good")));
    }

    #[test]
    fn parse_epsilon_and_empty() {
        assert_eq!(Regex::parse("").unwrap(), Regex::Epsilon);
        assert!(Regex::parse("eps").unwrap().accepts(&[]));
        assert!(!Regex::parse("empty").unwrap().accepts(&[]));
        assert!(Regex::parse_chars("ε").unwrap().accepts(&[]));
        assert!(Regex::parse_chars("∅").unwrap().to_nfa().is_empty());
    }

    #[test]
    fn parse_errors() {
        assert!(Regex::parse("(a").is_err());
        assert!(Regex::parse("a )").is_err());
        assert!(Regex::parse("|").is_err());
    }

    #[test]
    fn empty_operands_are_rejected() {
        // `a,,b` used to silently parse as `a b`; the empty operand between
        // the separators must be an error carrying the offending position.
        match Regex::parse("a,,b") {
            Err(AutomataError::Parse { position, .. }) => assert_eq!(position, 2),
            other => panic!("expected a parse error for `a,,b`, got {other:?}"),
        }
        // Trailing separator: the error points at the dangling separator.
        match Regex::parse("a,") {
            Err(AutomataError::Parse { position, .. }) => assert_eq!(position, 1),
            other => panic!("expected a parse error for `a,`, got {other:?}"),
        }
        // Leading separator, doubled alternation, parenthesised variants.
        for bad in [",,", ",a", "a, | b", "| |", "a | | b", "(a,)", "a · · b", "a.."] {
            assert!(Regex::parse(bad).is_err(), "`{bad}` must not parse");
            assert!(Regex::parse_chars(bad).is_err(), "`{bad}` must not parse (chars)");
        }
        // The explicit separators still work when used correctly.
        let re = Regex::parse("a, b · c").unwrap();
        assert!(re.accepts(&word("a b c")));
        assert!(Regex::parse_chars("a,b").unwrap().accepts(&word_chars("ab")));
    }

    #[test]
    fn unknown_characters_are_rejected() {
        for bad in ["a @ b", "a;b", "a&b", "a - b"] {
            match Regex::parse(bad) {
                Err(AutomataError::Parse { .. }) => {}
                other => panic!("expected a parse error for `{bad}`, got {other:?}"),
            }
        }
    }

    #[test]
    fn nullable_and_alphabet() {
        let re = Regex::parse_chars("a*b?").unwrap();
        assert!(re.nullable());
        assert_eq!(re.alphabet(), Alphabet::from_chars("ab"));
        let re2 = Regex::parse_chars("ab").unwrap();
        assert!(!re2.nullable());
    }

    /// The end offsets `j` such that `re` matches `w[from..j]`, computed on
    /// the syntax tree alone — the reference [`Regex::to_nfa`] is checked
    /// against.
    fn match_ends(re: &Regex, w: &[Symbol], from: usize) -> BTreeSet<usize> {
        let iterate = |starts: BTreeSet<usize>, r: &Regex| {
            let mut ends = starts.clone();
            let mut todo: Vec<usize> = starts.into_iter().collect();
            while let Some(i) = todo.pop() {
                for j in match_ends(r, w, i) {
                    if ends.insert(j) {
                        todo.push(j);
                    }
                }
            }
            ends
        };
        match re {
            Regex::Empty => BTreeSet::new(),
            Regex::Epsilon => BTreeSet::from([from]),
            Regex::Sym(s) => (w.get(from) == Some(s)).then_some(from + 1).into_iter().collect(),
            Regex::Concat(parts) => parts.iter().fold(BTreeSet::from([from]), |starts, p| {
                starts.iter().flat_map(|&i| match_ends(p, w, i)).collect()
            }),
            Regex::Alt(parts) => parts.iter().flat_map(|p| match_ends(p, w, from)).collect(),
            Regex::Star(r) => iterate(BTreeSet::from([from]), r),
            Regex::Plus(r) => iterate(match_ends(r, w, from), r),
            Regex::Opt(r) => {
                let mut ends = match_ends(r, w, from);
                ends.insert(from);
                ends
            }
        }
    }

    /// A random expression over {a, b} of nesting depth ≤ `depth`, built
    /// from the constructors directly (no flattening), so ∅ and ε also
    /// occur inside compound expressions.
    fn random_regex(state: &mut u64, depth: usize) -> Regex {
        fn below(state: &mut u64, n: u64) -> u64 {
            // xorshift64
            *state ^= *state << 13;
            *state ^= *state >> 7;
            *state ^= *state << 17;
            *state % n
        }
        let kind = below(state, if depth == 0 { 4 } else { 9 });
        let sub = |state: &mut u64| random_regex(state, depth - 1);
        match kind {
            0 => Regex::Empty,
            1 => Regex::Epsilon,
            2 => Regex::sym("a"),
            3 => Regex::sym("b"),
            4 | 5 => {
                let parts = (0..2 + below(state, 2)).map(|_| sub(state)).collect();
                if kind == 4 { Regex::Concat(parts) } else { Regex::Alt(parts) }
            }
            6 => Regex::Star(Box::new(sub(state))),
            7 => Regex::Plus(Box::new(sub(state))),
            _ => Regex::Opt(Box::new(sub(state))),
        }
    }

    #[test]
    fn to_nfa_matches_the_syntax_tree() {
        let sigma = [Symbol::new("a"), Symbol::new("b")];
        let mut words: Vec<Vec<Symbol>> = vec![Vec::new()];
        let mut i = 0;
        while i < words.len() {
            if words[i].len() < 5 {
                for s in sigma {
                    words.push([words[i].as_slice(), &[s]].concat());
                }
            }
            i += 1;
        }
        assert_eq!(words.len(), 63);
        let mut state = 0x5DEE_CE66_D1CE_4E5Bu64;
        let mut nonempty = 0;
        for case in 0..300 {
            let re = random_regex(&mut state, 4);
            let nfa = re.to_nfa();
            let positions = re.glushkov().position_symbols.len();
            assert!(nfa.num_states() <= positions + 1, "case {case}: `{re}` has too many states");
            assert_eq!(nfa.trim(), nfa, "case {case}: `{re}` compiles to an untrimmed automaton");
            for w in &words {
                assert_eq!(
                    nfa.accepts(w),
                    match_ends(&re, w, 0).contains(&w.len()),
                    "case {case}: `{re}` on {w:?}"
                );
            }
            nonempty += usize::from(!nfa.is_empty());
        }
        assert!(nonempty > 150, "only {nonempty} of 300 expressions denote a non-empty language");
    }

    #[test]
    fn glushkov_determinism() {
        assert!(Regex::parse_chars("a*bc*").unwrap().glushkov().is_deterministic());
        assert!(Regex::parse_chars("(ab)*").unwrap().glushkov().is_deterministic());
        // (a|b)*a is a nondeterministic expression (though the language is
        // one-unambiguous).
        assert!(!Regex::parse_chars("(a|b)*a").unwrap().glushkov().is_deterministic());
        // b*a(b*a)* is an equivalent deterministic expression.
        assert!(Regex::parse_chars("b*a(b*a)*").unwrap().glushkov().is_deterministic());
    }

    #[test]
    fn display_roundtrip() {
        for src in ["a*bc*", "(ab)+", "a?b|c", "(a|b)*a(a|b)"] {
            let re = Regex::parse_chars(src).unwrap();
            let printed = format!("{re}");
            let re2 = Regex::parse(&printed).unwrap_or_else(|e| panic!("reparse `{printed}`: {e}"));
            // Compare languages on a sample of words.
            for w in ["", "a", "b", "c", "ab", "ba", "abc", "abab", "aab"] {
                assert_eq!(
                    re.accepts(&word_chars(w)),
                    re2.accepts(&word_chars(w)),
                    "src {src} word {w}"
                );
            }
        }
    }
}
