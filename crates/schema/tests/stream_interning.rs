//! Stream validation interns no document text: element names are resolved
//! through the validator's own name table, and reach the process-wide
//! intern table only when an error reports them. Valid documents, and
//! invalid ones whose fresh names sit only in skipped subtrees, must leave
//! `interner.symbols_interned` where it was.
//!
//! This binary holds a single test, so no concurrent test interns while the
//! counter is read.

use dxml_automata::RFormalism;
use dxml_schema::{RSdtd, SchemaError, StreamValidator};
use dxml_telemetry::{self as telemetry, Metric, Snapshot};

#[test]
fn stream_validation_interns_no_document_names() {
    let sdtd = RSdtd::parse(
        RFormalism::Nre,
        "book -> title, chapter~1+\n\
         chapter~1 -> title, (para | section~2)*\n\
         section~2 -> title, para*",
    )
    .unwrap();
    let validator = StreamValidator::new(&sdtd);
    telemetry::set_enabled(true);
    let interned = || Snapshot::take().counter(Metric::SymbolsInterned);
    let before = interned();
    for k in 0..200 {
        let valid = format!(
            "<book><title/><chapter><title/><para/><section><title/>{}</section></chapter></book>",
            "<para/>".repeat(k % 7)
        );
        assert_eq!(validator.validate(&valid), Ok(()), "{valid}");
        // The second chapter is violated at `para` (its title must come
        // first), so `para`'s subtree is skipped.
        let violated_chapter = format!(
            "<book><title/><chapter><title/></chapter>\
             <chapter><para><fresh{k}><deeper{k}/></fresh{k}></para><title/></chapter></book>"
        );
        // The first chapter fails at its close; the second opens while that
        // violation is pending, so its whole subtree is skipped.
        let pending_violation = format!(
            "<book><title/><chapter/>\
             <chapter><title/><section><title/><stray{k}/></section><other{k}/></chapter></book>"
        );
        for invalid in [violated_chapter, pending_violation] {
            assert!(
                matches!(validator.validate(&invalid), Err(SchemaError::InvalidContent { .. })),
                "{invalid}"
            );
        }
    }
    assert_eq!(interned() - before, 0, "stream validation interned document names");
}
