//! Seeded text generators for the three workloads, each input paired with
//! its known answer.
//!
//! Everything the engine receives is text: compact DTD and SDTD rules,
//! regex content models, kernel terms and XML. The answers come from how
//! the inputs are built, never from the engine under test. Sizes are
//! stratified: item `i` of `k` draws its size from the `i`-th slice of the
//! range, so every seed covers the whole range evenly and the corpus cost
//! barely depends on the seed.

/// SplitMix64: the benchmark owns its generator so that inputs stay the
/// same across engine changes.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, mixed with a per-stream `salt`.
    pub fn new(seed: u64, salt: u64) -> Rng {
        Rng(seed ^ salt.wrapping_mul(0xD1B5_4A32_D192_ED03))
    }

    /// The next pseudo-random 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A value in `0..bound`; `bound` must be non-zero.
    pub fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }

    /// A value in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// True with probability `num / den`.
    pub fn chance(&mut self, num: usize, den: usize) -> bool {
        self.below(den) < num
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Item `i` of `k` draws from the `i`-th of `k` equal slices of `lo..=hi`.
pub fn stratified(rng: &mut Rng, i: usize, k: usize, lo: usize, hi: usize) -> usize {
    let span = (hi - lo + 1) as f64;
    let v = lo + (((i as f64 + rng.unit()) / k as f64) * span) as usize;
    v.min(hi)
}

// ----------------------------------------------------------------------
// Design problems
// ----------------------------------------------------------------------

/// One kernel of a design, with its known typing verdict.
#[derive(Clone, Debug, PartialEq)]
pub struct KernelCase {
    /// The kernel in term notation, e.g. `e0(e1(e2) f0)`.
    pub term: String,
    /// Whether every extension validates against the target.
    pub valid: bool,
}

/// A design problem as text: a DTD target in compact syntax, or an EDTD
/// target as `name : label -> content` lines.
#[derive(Clone, Debug, PartialEq)]
pub struct DesignCase {
    /// True for an EDTD target (`BoxDesignProblem`).
    pub edtd: bool,
    /// The target schema text.
    pub target: String,
    /// `(function name, schema text)`, in the target's syntax.
    pub functions: Vec<(String, String)>,
    /// Kernels: one for `design_cold`, a pool of variants for `recheck_warm`.
    pub kernels: Vec<KernelCase>,
    /// The function whose perfect schema `design_cold` synthesises.
    pub dock: String,
    /// Forests (term notation) the perfect schema of `dock` must accept.
    pub perfect_accepts: Vec<String>,
    /// Forests the perfect schema of `dock` must reject.
    pub perfect_rejects: Vec<String>,
}

/// Content-model shapes of the chain family: element `ei` refers to
/// `a = e(i+1)` and `b = e(i+2)`, so every element is reachable from `e1`
/// and productive (the last one is a leaf).
#[derive(Clone, Copy, Debug)]
enum Shape {
    AOptB,
    StarA,
    PlusAStarB,
    AOrB,
    OptA,
}

/// A small tree used while generating kernel and forest terms.
#[derive(Clone, Debug)]
struct Node {
    label: String,
    kids: Vec<Node>,
}

impl Node {
    fn leaf(label: impl Into<String>) -> Node {
        Node {
            label: label.into(),
            kids: Vec::new(),
        }
    }

    fn render(&self, out: &mut String) {
        out.push_str(&self.label);
        if !self.kids.is_empty() {
            out.push('(');
            for (i, kid) in self.kids.iter().enumerate() {
                if i > 0 {
                    out.push(' ');
                }
                kid.render(out);
            }
            out.push(')');
        }
    }

    fn size(&self) -> usize {
        1 + self.kids.iter().map(Node::size).sum::<usize>()
    }

    /// Appends an `e0` leaf under the `at`-th node in preorder. No content
    /// model of an inner chain element mentions `e0`, so the tree becomes
    /// invalid wherever it lands.
    fn inject_e0(&mut self, at: &mut usize) -> bool {
        if *at == 0 {
            self.kids.push(Node::leaf("e0"));
            return true;
        }
        *at -= 1;
        self.kids.iter_mut().any(|kid| kid.inject_e0(at))
    }
}

fn render_forest(forest: &[Node]) -> String {
    let mut out = String::new();
    for (i, tree) in forest.iter().enumerate() {
        if i > 0 {
            out.push(' ');
        }
        tree.render(&mut out);
    }
    out
}

/// The chain DTD family `e0 … e(n-1)` with random shapes.
struct Chain {
    shapes: Vec<Shape>,
}

impl Chain {
    fn new(rng: &mut Rng, n: usize) -> Chain {
        // shapes[i] is the rule of e(i); e0's rule is fixed by the design
        // and e(n-1) is a leaf. Every shape is used equally often (in a
        // random order), so designs of one size cost about the same.
        let mut picks: Vec<usize> = (0..n.saturating_sub(1)).map(|i| i % 5).collect();
        rng.shuffle(&mut picks);
        let shapes = picks
            .into_iter()
            .enumerate()
            .map(|(i, pick)| {
                let distinct = i + 2 < n;
                match pick {
                    0 if distinct => Shape::AOptB,
                    1 => Shape::StarA,
                    2 if distinct => Shape::PlusAStarB,
                    3 if distinct => Shape::AOrB,
                    _ => Shape::OptA,
                }
            })
            .collect();
        Chain { shapes }
    }

    fn n(&self) -> usize {
        self.shapes.len() + 1
    }

    fn content(&self, i: usize) -> String {
        let (a, b) = (i + 1, i + 2);
        match self.shapes[i] {
            Shape::AOptB => format!("e{a}, e{b}?"),
            Shape::StarA => format!("e{a}*"),
            Shape::PlusAStarB => format!("e{a}+, e{b}*"),
            Shape::AOrB => format!("e{a} | e{b}"),
            Shape::OptA => format!("e{a}?"),
        }
    }

    /// The rules of `e1 … e(n-2)`, one per line, with `e(widen)` also
    /// admitting the word `e0` when asked.
    fn rules(&self, widen: Option<usize>) -> String {
        let mut out = String::new();
        for i in 1..self.shapes.len() {
            let content = self.content(i);
            if widen == Some(i) {
                out.push_str(&format!("e{i} -> ({content}) | e0\n"));
            } else {
                out.push_str(&format!("e{i} -> {content}\n"));
            }
        }
        out
    }

    /// A random valid `e(i)`-tree; once `budget` nodes are spent every
    /// element takes its shortest word, so trees stay small.
    fn sample(&self, rng: &mut Rng, i: usize, budget: &mut usize) -> Node {
        let mut node = Node::leaf(format!("e{i}"));
        if i + 1 >= self.n() {
            return node;
        }
        let (a, b) = (i + 1, i + 2);
        let free = *budget > 0;
        *budget = budget.saturating_sub(1);
        let word: Vec<usize> = match (self.shapes[i], free) {
            (Shape::AOptB, true) => {
                if rng.chance(1, 2) {
                    vec![a, b]
                } else {
                    vec![a]
                }
            }
            (Shape::AOptB, false) => vec![a],
            (Shape::StarA, true) => vec![a; rng.below(3)],
            (Shape::StarA, false) => vec![],
            (Shape::PlusAStarB, true) => {
                let mut w = vec![a; 1 + rng.below(2)];
                w.resize(w.len() + rng.below(2), b);
                w
            }
            (Shape::PlusAStarB, false) => vec![a],
            (Shape::AOrB, true) => vec![if rng.chance(1, 2) { a } else { b }],
            (Shape::AOrB, false) => vec![b],
            (Shape::OptA, true) => {
                if rng.chance(1, 2) {
                    vec![a]
                } else {
                    vec![]
                }
            }
            (Shape::OptA, false) => vec![],
        };
        node.kids = word
            .into_iter()
            .map(|c| self.sample(rng, c, budget))
            .collect();
        node
    }

    fn sample_e1(&self, rng: &mut Rng) -> Node {
        let mut budget = 6 + rng.below(10);
        self.sample(rng, 1, &mut budget)
    }
}

/// A DTD-target design (the `design_workload` family, as text): target
/// `e0 -> e1+` over a random chain, `fns` functions each returning
/// `r(e1*)` forests over the same rules.
///
/// `bad` makes the design ill-typed through the schema of the dock
/// function: mode 0 lets its forest end with an `e2`, mode 1 widens one
/// chain rule to admit an `e0` child. `variants` adds that many extra
/// kernels (valid and ill-typed by construction) for `recheck_warm`.
fn dtd_design(
    rng: &mut Rng,
    n: usize,
    fns: usize,
    bad: Option<usize>,
    variants: usize,
) -> DesignCase {
    let chain = Chain::new(rng, n);
    let target = format!("e0 -> e1+\n{}", chain.rules(None));
    let dock = rng.below(fns);
    let widen = 1 + rng.below(n - 2);
    let functions = (0..fns)
        .map(|j| {
            let text = match bad {
                Some(0) if j == dock => format!("r -> e1*, e2\n{}", chain.rules(None)),
                Some(_) if j == dock => format!("r -> e1*\n{}", chain.rules(Some(widen))),
                _ => format!("r -> e1*\n{}", chain.rules(None)),
            };
            (format!("f{j}"), text)
        })
        .collect();

    let mut kernels = vec![dtd_kernel(rng, &chain, fns, 1, bad.is_none(), None)];
    for v in 0..variants {
        // Every third variant is ill-typed, alternating between a stray
        // top-level `e2` and an `e0` injected deep in a fixed subtree.
        let ill = (v % 3 == 1).then_some(v % 2);
        let trees = 1 + rng.below(3);
        kernels.push(dtd_kernel(rng, &chain, fns, trees, bad.is_none(), ill));
    }

    let t1 = chain.sample_e1(rng);
    let t2 = chain.sample_e1(rng);
    let mut deep_bad = chain.sample_e1(rng);
    let mut at = rng.below(deep_bad.size());
    deep_bad.inject_e0(&mut at);
    DesignCase {
        edtd: false,
        target,
        functions,
        kernels,
        dock: format!("f{dock}"),
        // The perfect forest language of a dock under `e0 -> e1+` is `e1*`.
        perfect_accepts: vec![
            String::new(),
            render_forest(std::slice::from_ref(&t1)),
            render_forest(&[t1.clone(), t2]),
        ],
        perfect_rejects: vec![
            render_forest(&[t1.clone(), Node::leaf("e0")]),
            render_forest(&[deep_bad]),
        ],
    }
}

/// A kernel `e0(...)` holding `trees` valid `e1`-trees and one call to
/// each function, shuffled. `ill` makes it invalid: 0 adds a top-level
/// `e2` (which `e0 -> e1+` rejects), 1 injects `e0` inside a tree.
fn dtd_kernel(
    rng: &mut Rng,
    chain: &Chain,
    fns: usize,
    trees: usize,
    schemas_valid: bool,
    ill: Option<usize>,
) -> KernelCase {
    let mut kids: Vec<Node> = (0..trees).map(|_| chain.sample_e1(rng)).collect();
    // The first child stays a fixed tree, so some `e1` is always present.
    let mut rest: Vec<Node> = (0..fns).map(|j| Node::leaf(format!("f{j}"))).collect();
    rest.extend(kids.drain(1..));
    rng.shuffle(&mut rest);
    kids.extend(rest);
    match ill {
        Some(0) => {
            let at = 1 + rng.below(kids.len());
            kids.insert(at, Node::leaf("e2"));
        }
        Some(_) => {
            let mut at = rng.below(kids[0].size());
            kids[0].inject_e0(&mut at);
        }
        None => {}
    }
    let mut term = String::new();
    Node {
        label: "e0".into(),
        kids,
    }
    .render(&mut term);
    KernelCase {
        term,
        valid: schemas_valid && ill.is_none(),
    }
}

/// A box-design target (the `box_workload` family, as text): the root
/// requires its `a`-children typed `x0 … x(n-1)`, where `xi` demands a
/// single `ei` leaf. A fixed prefix is stored in the kernel, and `fns`
/// function blocks follow, each supplying its range of `yi` trees.
fn box_design(
    rng: &mut Rng,
    n: usize,
    fns: usize,
    bad: Option<usize>,
    variants: usize,
) -> DesignCase {
    let fns = fns.min(n - 1);
    // Block boundaries: a non-empty fixed prefix, then `fns` non-empty blocks.
    let mut cuts: Vec<usize> = (1..n).collect();
    rng.shuffle(&mut cuts);
    let mut cuts: Vec<usize> = cuts[..fns].to_vec();
    cuts.sort_unstable();
    cuts.push(n);
    let blocks: Vec<(usize, usize)> = cuts.windows(2).map(|w| (w[0], w[1])).collect();
    let prefix = cuts[0];

    let mut target = String::from("s : s -> ");
    target.push_str(
        &(0..n)
            .map(|i| format!("x{i}"))
            .collect::<Vec<_>>()
            .join(", "),
    );
    target.push('\n');
    for i in 0..n {
        target.push_str(&format!("x{i} : a -> e{i}\n"));
    }

    let dock = rng.below(fns);
    let functions = blocks
        .iter()
        .enumerate()
        .map(|(j, &(lo, hi))| {
            let mut order: Vec<usize> = (lo..hi).collect();
            let mut leaf: Vec<usize> = (lo..hi).collect();
            if j == dock {
                match bad {
                    Some(0) if hi - lo >= 2 => order.swap(0, 1),
                    Some(1) if hi - lo >= 2 => {
                        order.pop();
                    }
                    Some(_) => leaf[hi - lo - 1] = if hi - lo >= 2 { lo } else { (lo + 1) % n },
                    None => {}
                }
            }
            let names: Vec<String> = order.iter().map(|i| format!("y{i}")).collect();
            let mut text = format!("r : r -> {}\n", names.join(", "));
            for (k, i) in (lo..hi).enumerate() {
                text.push_str(&format!("y{i} : a -> e{}\n", leaf[k]));
            }
            (format!("f{j}"), text)
        })
        .collect();

    let bad_fn = bad.map(|_| dock);
    let mut kernels = vec![box_kernel(rng, n, prefix, &blocks, bad_fn, None, true)];
    for v in 0..variants {
        // Two of the variants are ill-typed: a swap, then a wrong leaf.
        let ill = (v % 3 == 1).then_some(v / 3);
        kernels.push(box_kernel(rng, n, prefix, &blocks, bad_fn, ill, false));
    }

    let (lo, hi) = blocks[dock];
    let exact: Vec<Node> = (lo..hi).map(a_leaf).collect();
    let mut rejects = vec![String::new()];
    if hi - lo >= 2 {
        let mut swapped = exact.clone();
        swapped.swap(0, 1);
        rejects[0] = render_forest(&swapped);
    }
    let mut wrong = exact.clone();
    wrong[0] = a_leaf((hi) % n);
    rejects.push(render_forest(&wrong));
    DesignCase {
        edtd: true,
        target,
        functions,
        kernels,
        dock: format!("f{dock}"),
        perfect_accepts: vec![render_forest(&exact)],
        perfect_rejects: rejects,
    }
}

fn a_leaf(i: usize) -> Node {
    Node {
        label: "a".into(),
        kids: vec![Node::leaf(format!("e{i}"))],
    }
}

/// A box kernel: the fixed prefix inline, then each block either called
/// or inlined (every block called when `all_calls`, at least one
/// otherwise). It is ill-typed if it calls `bad_fn`; `ill` also breaks it:
/// 0 swaps two adjacent children, any other value changes an inline leaf.
fn box_kernel(
    rng: &mut Rng,
    n: usize,
    prefix: usize,
    blocks: &[(usize, usize)],
    bad_fn: Option<usize>,
    ill: Option<usize>,
    all_calls: bool,
) -> KernelCase {
    let called_one = rng.below(blocks.len());
    let mut kids: Vec<Node> = (0..prefix).map(a_leaf).collect();
    let mut schemas_valid = true;
    for (j, &(lo, hi)) in blocks.iter().enumerate() {
        if all_calls || j == called_one || rng.chance(1, 2) {
            kids.push(Node::leaf(format!("f{j}")));
            schemas_valid &= bad_fn != Some(j);
        } else {
            kids.extend((lo..hi).map(a_leaf));
        }
    }
    match ill {
        Some(0) => {
            let at = rng.below(kids.len() - 1);
            kids.swap(at, at + 1);
        }
        Some(_) => {
            let at = rng.below(prefix);
            kids[at] = a_leaf((at + 1) % n);
        }
        None => {}
    }
    let mut term = String::new();
    Node {
        label: "s".into(),
        kids,
    }
    .render(&mut term);
    KernelCase {
        term,
        valid: schemas_valid && ill.is_none(),
    }
}

/// Designs per corpus.
pub const DESIGNS: usize = 96;

/// Kernel variants per registered problem in `recheck_warm`: more than
/// the engine's FIFO-4 extension memo holds.
pub const VARIANTS: usize = 5;

/// The design corpus. Every fourth design has an EDTD target; about a
/// third of each kind is ill-typed by construction. The function count
/// cycles and the size is stratified within each function count, so the
/// corpus cost barely depends on the seed. `variants` extra kernels per
/// design serve `recheck_warm`.
pub fn design_corpus(seed: u64, variants: usize) -> Vec<DesignCase> {
    let mut rng = Rng::new(seed, 1);
    let boxes = DESIGNS / 4;
    let dtds = DESIGNS - boxes;
    let mut out = Vec::with_capacity(DESIGNS);
    for i in 0..dtds {
        let n = stratified(&mut rng, i / 4, dtds / 4, 6, 28);
        let bad = (i % 3 == 2).then_some((i / 3) % 2);
        out.push(dtd_design(&mut rng, n, 1 + i % 4, bad, variants));
    }
    for i in 0..boxes {
        let n = stratified(&mut rng, i / 3, boxes / 3, 4, 16);
        let bad = ((i / 3) % 3 == 1).then_some(i % 3);
        out.push(box_design(&mut rng, n, 1 + i % 3, bad, variants));
    }
    rng.shuffle(&mut out);
    out
}

// ----------------------------------------------------------------------
// Streaming documents
// ----------------------------------------------------------------------

/// The SDTDs of `ingest_stream`, in compact rule syntax. Specialised
/// names are written `label~i`.
pub const SDTDS: [&str; 3] = [
    // deep: a recursive chain with leaf siblings at every level.
    "a -> b*, a?\n",
    // wide: chapters of paragraphs and one level of sections.
    "book -> title, chapter~1+\n\
     chapter~1 -> title, (para | section~2)*\n\
     section~2 -> title, para*\n",
    // eurostat: Figure 1 of the paper, `index` typed by its context.
    "eurostat -> averages~1*, nationalIndex~2*\n\
     averages~1 -> Good, index~1\n\
     nationalIndex~2 -> country, Good, index~2\n\
     index~1 -> value\n\
     index~2 -> value, year\n",
];

/// Undeclared element names that invalid documents may carry: a bounded
/// pool, so parsing them stops interning after the set-up pass.
pub const STRAY_NAMES: usize = 8;

/// One document of `ingest_stream`.
#[derive(Clone, Debug, PartialEq)]
pub struct DocCase {
    /// Index into [`SDTDS`].
    pub sdtd: usize,
    /// The XML text.
    pub xml: String,
    /// Whether the document validates.
    pub valid: bool,
}

/// Documents per corpus.
pub const DOCS: usize = 384;

/// The document corpus: sizes stratified log-uniformly over 1–100 KB,
/// shapes cycling deep / wide / eurostat, every tenth document mutated
/// to be invalid.
pub fn doc_corpus(seed: u64) -> Vec<DocCase> {
    let mut rng = Rng::new(seed, 2);
    let mut out: Vec<DocCase> = (0..DOCS)
        .map(|i| {
            let bytes = (1024.0 * 100f64.powf((i as f64 + rng.unit()) / DOCS as f64)) as usize;
            let sdtd = i % 3;
            let invalid = i % 10 == 9;
            let xml = match sdtd {
                0 => deep_doc(&mut rng, bytes, invalid),
                1 => book_doc(&mut rng, bytes, invalid),
                _ => eurostat_doc(&mut rng, bytes, invalid),
            };
            DocCase {
                sdtd,
                xml,
                valid: !invalid,
            }
        })
        .collect();
    rng.shuffle(&mut out);
    out
}

fn stray(rng: &mut Rng) -> String {
    format!("<z{}/>", rng.below(STRAY_NAMES))
}

/// A chain `<a><b/>…<a>…</a></a>` of about `bytes` bytes. Invalid
/// documents carry a `b` after the nested `a`, or a stray element.
fn deep_doc(rng: &mut Rng, bytes: usize, invalid: bool) -> String {
    let depth = (bytes / 12).max(2);
    let bad_level = rng.below(depth - 1);
    let stray_kind = rng.chance(1, 2);
    let mut open = String::with_capacity(bytes + 64);
    let mut close = Vec::with_capacity(depth);
    for level in 0..depth {
        open.push_str("<a>");
        for _ in 0..rng.below(3) {
            open.push_str("<b/>");
        }
        let mut tail = String::from("</a>");
        if invalid && level == bad_level {
            if stray_kind {
                open.push_str(&stray(rng));
            } else {
                tail = String::from("<b/></a>");
            }
        }
        close.push(tail);
    }
    for tail in close.iter().rev() {
        open.push_str(tail);
    }
    open
}

/// A book of chapters, paragraphs and sections of about `bytes` bytes.
/// Invalid documents lose one chapter title, or carry a stray element.
fn book_doc(rng: &mut Rng, bytes: usize, invalid: bool) -> String {
    let mut chapters: Vec<String> = Vec::new();
    let mut len = 0usize;
    while len < bytes || chapters.is_empty() {
        let mut ch = String::from("<chapter><title/>");
        for _ in 0..1 + rng.below(6) {
            if rng.chance(1, 3) {
                ch.push_str("<section><title/>");
                for _ in 0..rng.below(5) {
                    ch.push_str("<para/>");
                }
                ch.push_str("</section>");
            } else {
                ch.push_str("<para/>");
            }
        }
        ch.push_str("</chapter>");
        len += ch.len();
        chapters.push(ch);
    }
    if invalid {
        let at = rng.below(chapters.len());
        let ch = &mut chapters[at];
        if rng.chance(1, 2) {
            *ch = ch.replacen("<title/>", "", 1);
        } else {
            let cut = ch.len() - "</chapter>".len();
            ch.insert_str(cut, &stray(rng));
        }
    }
    format!("<book><title/>{}</book>", chapters.concat())
}

/// A Eurostat document of about `bytes` bytes: some averages, then
/// national-index records. Invalid documents put a `year` into an
/// averages index (which `index~1 -> value` forbids), or a stray element
/// into a record.
fn eurostat_doc(rng: &mut Rng, bytes: usize, invalid: bool) -> String {
    let records = (bytes / 90).max(1);
    let averages = records / 4;
    let bad_at = rng.below(records);
    let stray_kind = averages == 0 || rng.chance(1, 2);
    let mut out = String::with_capacity(bytes + 128);
    out.push_str("<eurostat>");
    for k in 0..averages {
        if invalid && !stray_kind && k == bad_at % averages {
            out.push_str("<averages><Good/><index><value/><year/></index></averages>");
        } else {
            out.push_str("<averages><Good/><index><value/></index></averages>");
        }
    }
    for k in 0..records {
        out.push_str("<nationalIndex><country/><Good/><index><value/><year/></index>");
        if invalid && stray_kind && k == bad_at {
            out.push_str(&stray(rng));
        }
        out.push_str("</nationalIndex>");
    }
    out.push_str("</eurostat>");
    out
}
