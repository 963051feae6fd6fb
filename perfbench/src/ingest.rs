//! `ingest_stream`: documents validated in one streaming pass against
//! their SDTD, one document per op on the client thread. All of its work
//! is in `tree::sax` and `schema::stream`, none in automata construction.
//! `validate_batch` is deliberately not the op: its thread fan-out on a
//! small shared host would measure the host, not the engine.

use dxml_automata::RFormalism;
use dxml_schema::{RSdtd, SchemaError, StreamValidator};
use dxml_tree::SaxParser;

use crate::gen::{self, DocCase, Rng};
use crate::run::Workload;
use crate::trace::{Tracer, ROOT};

/// The verdict of one op.
pub struct Done {
    doc: usize,
    verdict: Result<(), SchemaError>,
}

/// The `ingest_stream` workload.
pub struct Ingest {
    docs: Vec<DocCase>,
    validators: Vec<StreamValidator>,
    order: Vec<usize>,
}

impl Ingest {
    /// The workload for `seed`.
    pub fn new(seed: u64) -> Ingest {
        let docs = gen::doc_corpus(seed);
        let mut order: Vec<usize> = (0..docs.len()).collect();
        Rng::new(seed, 5).shuffle(&mut order);
        Ingest {
            docs,
            validators: Vec::new(),
            order,
        }
    }
}

impl Workload for Ingest {
    type Done = Done;

    fn setup(&mut self, tr: &Tracer) -> Result<(), String> {
        let sdtds = tr
            .span("schema.syntax", || {
                gen::SDTDS
                    .iter()
                    .map(|text| RSdtd::parse(RFormalism::Nre, text))
                    .collect::<Result<Vec<_>, _>>()
            })
            .map_err(|e| e.to_string())?;
        self.validators = tr.span("schema.stream.new", || {
            sdtds.iter().map(StreamValidator::new).collect()
        });
        // One warm pass: it interns the bounded pool of stray names.
        for doc in 0..self.docs.len() {
            let verdict = tr.span("schema.stream.validate", || self.validate(doc));
            self.check(Done { doc, verdict })?;
        }
        Ok(())
    }

    fn op(&mut self, i: u64, tr: &Tracer) -> Result<Done, String> {
        let doc = self.order[i as usize % self.order.len()];
        let verdict = tr.span(ROOT, || {
            tr.span("schema.stream.validate", || self.validate(doc))
        });
        Ok(Done { doc, verdict })
    }

    fn check(&self, done: Done) -> Result<(), String> {
        let case = &self.docs[done.doc];
        match done.verdict {
            Ok(()) if case.valid => Ok(()),
            Err(SchemaError::Automata(e)) => {
                Err(format!("well-formed document rejected as malformed: {e}"))
            }
            Err(_) if !case.valid => Ok(()),
            verdict => Err(format!(
                "stream verdict {verdict:?}, expected valid={}",
                case.valid
            )),
        }
    }

    fn traced_extra(&mut self, i: u64, tr: &Tracer) {
        // The parse share: drain the same document through the SAX layer
        // alone, outside the op's root span.
        let xml = &self.docs[self.order[i as usize % self.order.len()]].xml;
        tr.span("tree.sax", || {
            let mut parser = SaxParser::new(xml);
            while let Ok(Some(event)) = parser.next_event() {
                std::hint::black_box(event);
            }
        });
    }

    fn counting_ops(&self) -> u64 {
        self.docs.len() as u64
    }
}

impl Ingest {
    fn validate(&self, doc: usize) -> Result<(), SchemaError> {
        let case = &self.docs[doc];
        self.validators[case.sdtd].validate(&case.xml)
    }
}
