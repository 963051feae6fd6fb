//! A streaming SAX-style event layer over element-only XML.
//!
//! The single-type restriction of the paper's R-SDTDs (Section 3) admits
//! *deterministic top-down* typing: a document can be validated in one
//! streaming pass with memory proportional to its depth, not its size. This
//! module provides the event source for that pass: [`SaxParser`], an
//! iterative (explicit-stack, no recursion) pull parser yielding
//! [`SaxEvent::Open`]/[`SaxEvent::Close`] events over element-only XML.
//!
//! The parser handles exactly the dialect [`crate::xml`] has always
//! accepted — start/end/self-closing tags, comments, processing
//! instructions, the XML declaration, attributes and text content (the last
//! three skipped) — and [`crate::xml::parse_xml`] is reimplemented on top of
//! it, so the two agree byte for byte. Unlike the recursive parser it
//! replaces, it
//!
//! * never recurses, so arbitrarily deep documents parse without native
//!   stack growth (a configurable [depth limit](SaxParser::with_depth_limit)
//!   bounds the explicit stack instead);
//! * decodes element names as UTF-8 characters rather than raw bytes, so
//!   multibyte names parse instead of panicking;
//! * tracks quote state while skipping attributes, so `>` inside a quoted
//!   attribute value does not terminate the tag.
//!
//! Element names are borrowed, never interned: [`SaxEvent::Open`] carries
//! the start tag's name as a `&str` slice of the input, and end tags are
//! matched by text against the open element's name. Parsing a document
//! therefore never touches the process-wide intern table; a consumer that
//! wants [`Symbol`](dxml_automata::Symbol)s interns them itself
//! ([`crate::xml::parse_xml`] does, per start tag). Memory while parsing is
//! `O(depth)`: one `u32` byte offset per open element (the name is re-read
//! at its offset when an error reports it), nothing per sibling. Offsets
//! being `u32`, a start tag whose name begins 4 GiB or more into the input
//! is a located error.
//!
//! Names are scanned a byte at a time: an ASCII byte is classified by table
//! lookup, and only a non-ASCII byte decodes its UTF-8 character.

use dxml_automata::AutomataError;

/// Default bound on element nesting depth: far beyond any sane document,
/// small enough that the open-element stack of adversarial input stays a
/// few megabytes instead of exhausting memory.
pub const DEFAULT_DEPTH_LIMIT: usize = 1 << 20;

/// Which ASCII bytes are element name characters: letters, digits and
/// `_ - . : ~`.
const ASCII_NAME: [bool; 128] = {
    let mut table = [false; 128];
    let mut b = 0;
    while b < 128 {
        let c = b as u8;
        table[b] = c.is_ascii_alphanumeric() || matches!(c, b'_' | b'-' | b'.' | b':' | b'~');
        b += 1;
    }
    table
};

/// The end of the element name starting at byte `start` of `input`: the
/// longest run of name characters there (ASCII letters, digits and
/// `_ - . : ~`, or any alphanumeric character). `start` itself when none.
///
/// # Panics
///
/// Panics if `start` is not a character boundary of `input`.
pub fn name_end(input: &str, start: usize) -> usize {
    let bytes = input.as_bytes();
    let mut end = start;
    while let Some(&b) = bytes.get(end) {
        if b.is_ascii() {
            if !ASCII_NAME[b as usize] {
                break;
            }
            end += 1;
        } else {
            // Whole characters are consumed, so `end` is a char boundary.
            match input[end..].chars().next() {
                Some(c) if c.is_alphanumeric() => end += c.len_utf8(),
                _ => break,
            }
        }
    }
    end
}

/// The element name at byte `offset` of `input`, as the parser scanned it:
/// [`SaxParser::open_offset`] locates the names of open elements, so a
/// consumer that kept only their offsets can read them again here.
///
/// # Panics
///
/// Panics if `offset` is not a character boundary of `input`.
pub fn name_at(input: &str, offset: usize) -> &str {
    &input[offset..name_end(input, offset)]
}

/// One event of the element structure of a document.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SaxEvent<'a> {
    /// A start tag (or the opening half of a self-closing tag), with its
    /// name borrowed from the input.
    Open(&'a str),
    /// The end tag matching the most recent unclosed [`SaxEvent::Open`].
    /// The parser guarantees proper nesting, so the event needs no name.
    Close,
}

/// An iterative pull parser producing the [`SaxEvent`] stream of an
/// element-only XML document.
///
/// Call [`SaxParser::next_event`] until it returns `Ok(None)` (clean end of
/// document) or an error; the [`Iterator`] impl adapts the same method for
/// `for`-loops and combinators. After an error the parser is exhausted and
/// yields nothing further.
pub struct SaxParser<'a> {
    input: &'a str,
    pos: usize,
    /// Byte offsets of the names of the currently open elements (for
    /// end-tag matching and error messages).
    open: Vec<u32>,
    depth_limit: usize,
    /// Greatest `open.len()` reached so far — the peak event-buffer size,
    /// reported by throughput benchmarks.
    peak_depth: usize,
    /// A self-closing tag was opened; the next event is its `Close`.
    pending_close: bool,
    /// A root element has been completely closed.
    seen_root: bool,
    /// An error was returned; the stream is exhausted.
    failed: bool,
}

impl<'a> SaxParser<'a> {
    /// Creates a parser over `input` with the [`DEFAULT_DEPTH_LIMIT`].
    pub fn new(input: &'a str) -> SaxParser<'a> {
        SaxParser::with_depth_limit(input, DEFAULT_DEPTH_LIMIT)
    }

    /// Creates a parser that rejects documents nested deeper than
    /// `depth_limit` elements with a located error instead of growing its
    /// stack without bound.
    pub fn with_depth_limit(input: &'a str, depth_limit: usize) -> SaxParser<'a> {
        SaxParser {
            input,
            pos: 0,
            open: Vec::new(),
            depth_limit,
            peak_depth: 0,
            pending_close: false,
            seen_root: false,
            failed: false,
        }
    }

    /// The current byte offset into the input.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// The number of currently open elements.
    pub fn depth(&self) -> usize {
        self.open.len()
    }

    /// The byte offset of the innermost open element's name: right after an
    /// [`SaxEvent::Open`], that of its name. [`name_at`] reads the name
    /// back.
    pub fn open_offset(&self) -> Option<usize> {
        self.open.last().map(|&at| at as usize)
    }

    /// The greatest nesting depth seen so far — proportional to the peak
    /// memory the parser (and any streaming consumer stacked on it) holds.
    pub fn peak_depth(&self) -> usize {
        self.peak_depth
    }

    /// The next event, `Ok(None)` at the clean end of the document.
    ///
    /// Errors are located ([`AutomataError::Parse`] with the byte
    /// offset); after an error every subsequent call returns `Ok(None)`.
    pub fn next_event(&mut self) -> Result<Option<SaxEvent<'a>>, AutomataError> {
        if self.failed {
            return Ok(None);
        }
        match self.advance() {
            Ok(ev) => Ok(ev),
            Err(e) => {
                self.failed = true;
                Err(e)
            }
        }
    }

    fn advance(&mut self) -> Result<Option<SaxEvent<'a>>, AutomataError> {
        if self.pending_close {
            self.pending_close = false;
            return Ok(Some(self.close_top()));
        }
        self.skip_misc();
        if self.pos >= self.input.len() {
            return match self.open.last() {
                Some(&at) => {
                    let name = name_at(self.input, at as usize);
                    Err(self.error(&format!("unterminated element <{name}>")))
                }
                None if !self.seen_root => Err(self.error("expected '<'")),
                None => Ok(None),
            };
        }
        if self.seen_root && self.open.is_empty() {
            return Err(self.error("unexpected content after the root element"));
        }
        if self.starts_with("</") {
            if self.open.is_empty() {
                return Err(self.error("closing tag without a matching open element"));
            }
            self.pos += 2;
            let close = self.scan_name()?;
            let at = *self.open.last().expect("checked non-empty above") as usize;
            // The open name is the longest name run at `at`: it equals
            // `close` iff it starts with it and no name character follows.
            let end = at + close.len();
            let same = self.input.as_bytes()[at..].starts_with(close.as_bytes())
                && name_end(self.input, end) == end;
            if !same {
                let name = name_at(self.input, at);
                return Err(self.error(&format!("mismatched closing tag </{close}> for <{name}>")));
            }
            self.skip_ws();
            if !self.starts_with(">") {
                return Err(self.error("expected '>' after closing tag name"));
            }
            self.pos += 1;
            return Ok(Some(self.close_top()));
        }
        self.pos += 1;
        let at = u32::try_from(self.pos)
            .map_err(|_| self.error("element names past 4 GiB into the input are not supported"))?;
        let name = self.scan_name()?;
        let self_closing = self.skip_attributes(name)?;
        if self.open.len() >= self.depth_limit {
            return Err(self.error(&format!(
                "element nesting exceeds the depth limit of {}",
                self.depth_limit
            )));
        }
        self.open.push(at);
        self.peak_depth = self.peak_depth.max(self.open.len());
        self.pending_close = self_closing;
        Ok(Some(SaxEvent::Open(name)))
    }

    /// Pops the innermost open element and returns its `Close` event.
    fn close_top(&mut self) -> SaxEvent<'a> {
        self.open.pop();
        if self.open.is_empty() {
            self.seen_root = true;
        }
        SaxEvent::Close
    }

    fn error(&self, message: &str) -> AutomataError {
        AutomataError::Parse { message: format!("XML: {message}"), position: self.pos }
    }

    fn starts_with(&self, s: &str) -> bool {
        self.input.as_bytes()[self.pos..].starts_with(s.as_bytes())
    }

    fn skip_ws(&mut self) {
        let bytes = self.input.as_bytes();
        while self.pos < bytes.len() && bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    /// Skips whitespace, text content, comments, processing instructions and
    /// the XML declaration, stopping at the next tag (or end of input). Text
    /// is skipped at the top level too, matching what `parse_xml` has always
    /// accepted; afterwards the cursor sits on `<` or at the end of input.
    fn skip_misc(&mut self) {
        let bytes = self.input.as_bytes();
        loop {
            // Whitespace and text content alike: skip to the next tag.
            let text = &bytes[self.pos..];
            self.pos += text.iter().position(|&b| b == b'<').unwrap_or(text.len());
            let skip_to = match bytes.get(self.pos + 1) {
                Some(b'!') if self.starts_with("<!--") => self.find_sub("-->").map(|end| end + 3),
                Some(b'?') => self.find_sub("?>").map(|end| end + 2),
                _ => return,
            };
            match skip_to {
                Some(end) => self.pos = end,
                None => {
                    self.pos = bytes.len();
                    return;
                }
            }
        }
    }

    fn find_sub(&self, s: &str) -> Option<usize> {
        let needle = s.as_bytes();
        let haystack = self.input.as_bytes();
        (self.pos..haystack.len().saturating_sub(needle.len() - 1))
            .find(|&i| haystack[i..].starts_with(needle))
    }

    /// Scans an element name ([`name_end`]), decoding UTF-8 characters
    /// properly — a multibyte letter is one name character, never a
    /// sequence of byte-casted surrogates (the seed parser classified raw
    /// continuation bytes like `0xB2` as alphanumeric and then panicked
    /// slicing the name mid-character). The name is borrowed from the input.
    fn scan_name(&mut self) -> Result<&'a str, AutomataError> {
        let start = self.pos;
        let end = name_end(self.input, start);
        if end == start {
            return Err(self.error("expected an element name"));
        }
        self.pos = end;
        Ok(&self.input[start..end])
    }

    /// Skips attributes up to the end of the tag, tracking quote state so a
    /// `>` inside a quoted attribute value does not terminate the tag
    /// (`<a x="1>2">` parses as one element with one attribute). Returns
    /// whether the tag is self-closing.
    fn skip_attributes(&mut self, name: &str) -> Result<bool, AutomataError> {
        let bytes = self.input.as_bytes();
        while self.pos < bytes.len() {
            match bytes[self.pos] {
                b'>' => {
                    self.pos += 1;
                    return Ok(false);
                }
                b'/' if bytes.get(self.pos + 1) == Some(&b'>') => {
                    self.pos += 2;
                    return Ok(true);
                }
                quote @ (b'"' | b'\'') => {
                    let value_start = self.pos;
                    self.pos += 1;
                    while self.pos < bytes.len() && bytes[self.pos] != quote {
                        self.pos += 1;
                    }
                    if self.pos >= bytes.len() {
                        self.pos = value_start;
                        return Err(self.error("unterminated attribute value"));
                    }
                    self.pos += 1;
                }
                _ => self.pos += 1,
            }
        }
        Err(self.error(&format!("unterminated start tag <{name}>")))
    }
}

impl<'a> Iterator for SaxParser<'a> {
    type Item = Result<SaxEvent<'a>, AutomataError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_event().transpose()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn events(input: &str) -> Result<Vec<SaxEvent<'_>>, AutomataError> {
        SaxParser::new(input).collect()
    }

    fn open(name: &str) -> SaxEvent<'_> {
        SaxEvent::Open(name)
    }

    #[test]
    fn event_stream_of_a_simple_document() {
        let evs = events("<a><b/><c></c></a>").unwrap();
        assert_eq!(
            evs,
            vec![
                open("a"),
                open("b"),
                SaxEvent::Close,
                open("c"),
                SaxEvent::Close,
                SaxEvent::Close,
            ]
        );
    }

    #[test]
    fn misc_content_is_skipped() {
        let evs = events(
            "<?xml version=\"1.0\"?><!-- hi --><a>text<b/>more<!-- inner --></a><!-- bye -->",
        )
        .unwrap();
        assert_eq!(evs, vec![open("a"), open("b"), SaxEvent::Close, SaxEvent::Close]);
    }

    #[test]
    fn quoted_attribute_values_may_contain_gt() {
        let evs = events(r#"<a x="1>2" y='3>4'><b z="/>"/></a>"#).unwrap();
        assert_eq!(evs, vec![open("a"), open("b"), SaxEvent::Close, SaxEvent::Close]);
    }

    #[test]
    fn multibyte_element_names_parse() {
        // The seed parser classified the continuation bytes of `é`/`²` as
        // alphanumeric byte-by-byte and panicked slicing mid-character.
        let evs = events("<café><möbius²/></café>").unwrap();
        assert_eq!(
            evs,
            vec![open("café"), open("möbius²"), SaxEvent::Close, SaxEvent::Close]
        );
    }

    #[test]
    fn multibyte_boundary_is_an_error_not_a_panic() {
        // A name starting with a non-name character errs cleanly.
        assert!(events("<‰a/>").is_err());
        // Emoji are not alphanumeric: name parsing stops at `a` and the
        // emoji is skipped with the (discarded) attribute region.
        assert_eq!(events("<a🙂/>").unwrap(), vec![open("a"), SaxEvent::Close]);
    }

    #[test]
    fn depth_limit_is_enforced() {
        let doc = format!("{}x{}", "<a>".repeat(40), "</a>".repeat(40));
        assert!(SaxParser::with_depth_limit(&doc, 40)
            .collect::<Result<Vec<_>, _>>()
            .is_ok());
        let err = SaxParser::with_depth_limit(&doc, 39)
            .collect::<Result<Vec<_>, _>>()
            .unwrap_err();
        assert!(err.to_string().contains("depth limit"), "{err}");
    }

    #[test]
    fn error_cases() {
        for bad in [
            "",
            "plain text",
            "<a>",
            "<a><b></a>",
            "<a/><b/>",
            "</a>",
            "<a></a><b/>",
            "<a",
            "<a x=\"unterminated/></a>",
            "<>",
        ] {
            assert!(events(bad).is_err(), "expected error for {bad:?}");
        }
    }

    #[test]
    fn mismatched_end_tag_error_names_both_tags_at_the_end_of_the_close_name() {
        for (doc, message, position) in [
            ("<a><b></c></a>", "XML: mismatched closing tag </c> for <b>", 9),
            ("<café></cafe>", "XML: mismatched closing tag </cafe> for <café>", 13),
            ("<a><b></bé></a>", "XML: mismatched closing tag </bé> for <b>", 11),
        ] {
            assert_eq!(
                events(doc),
                Err(AutomataError::Parse { message: message.to_string(), position }),
                "doc {doc:?}"
            );
        }
    }

    #[test]
    fn names_are_borrowed_and_located_by_offset() {
        let doc = "<ab x='1'><ab²/><é-1.x/></ab>";
        let mut p = SaxParser::new(doc);
        let mut offsets = Vec::new();
        while let Some(event) = p.next_event().unwrap() {
            if let SaxEvent::Open(name) = event {
                let at = p.open_offset().unwrap();
                assert_eq!(name_at(doc, at), name);
                assert!(std::ptr::eq(name, &doc[at..at + name.len()]), "{name} is borrowed");
                offsets.push(at);
            }
        }
        assert_eq!(offsets, [1, 11, 18]);
        assert_eq!(p.open_offset(), None);
    }

    #[test]
    fn an_ascii_prefix_continued_by_a_non_ascii_character_is_one_name() {
        assert_eq!(
            events("<ab²><ab/></ab²>").unwrap(),
            vec![open("ab²"), open("ab"), SaxEvent::Close, SaxEvent::Close]
        );
        // End tags compare whole names: neither is a prefix match.
        for (doc, message, position) in [
            ("<ab></ab²>", "XML: mismatched closing tag </ab²> for <ab>", 10),
            ("<ab²></ab>", "XML: mismatched closing tag </ab> for <ab²>", 10),
        ] {
            assert_eq!(
                events(doc),
                Err(AutomataError::Parse { message: message.to_string(), position }),
                "doc {doc:?}"
            );
        }
        // The name is re-read at its offset for an unterminated element.
        assert_eq!(
            events("<ab²>").unwrap_err().to_string(),
            "parse error at byte 6: XML: unterminated element <ab²>"
        );
    }

    #[test]
    fn top_level_text_is_tolerated() {
        // Parity with the seed `parse_xml`: non-markup outside the root is
        // skipped like any other text content.
        assert_eq!(events("junk <a/> more junk").unwrap(), vec![open("a"), SaxEvent::Close]);
    }

    #[test]
    fn parser_is_exhausted_after_an_error() {
        let mut p = SaxParser::new("<a><b></a>");
        let mut saw_err = false;
        for item in p.by_ref() {
            if item.is_err() {
                saw_err = true;
            }
        }
        assert!(saw_err);
        assert_eq!(p.next_event().unwrap(), None);
    }

    #[test]
    fn peak_depth_tracks_nesting() {
        let mut p = SaxParser::new("<a><b><c/></b><d/></a>");
        while p.next_event().unwrap().is_some() {}
        assert_eq!(p.peak_depth(), 3);
        assert_eq!(p.depth(), 0);
    }
}
