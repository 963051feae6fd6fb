//! Finite ordered unranked labelled trees.
//!
//! The accessors mirror Section 2.1.1 of the paper: for a node `x` of a tree
//! `t` we can ask for `parent(x)`, `children(x)`, `tree_t(x)` (the subtree
//! rooted at `x`), `lab(x)`, `anc-str(x)` (labels from the root down to `x`)
//! and `child-str(x)` (labels of the children in left-to-right order). The
//! size `‖t‖` is the number of nodes.

use std::fmt;

use dxml_automata::Symbol;

/// Identifier of a node inside an [`XTree`] arena.
pub type NodeId = usize;

#[derive(Clone, Debug, PartialEq, Eq)]
struct NodeData {
    label: Symbol,
    parent: Option<NodeId>,
    children: Vec<NodeId>,
}

/// A finite ordered unranked tree with [`Symbol`] labels, stored in an arena.
///
/// The root is always node `0`. Node identifiers are stable under
/// [`XTree::add_child`] but not across [`XTree::replace_nodes`], which
/// rebuilds the arena.
#[derive(Clone)]
pub struct XTree {
    nodes: Vec<NodeData>,
}

/// A forest: an ordered sequence of trees. The paper's extension operation
/// replaces a function node by the forest of trees directly connected to the
/// root of the document returned by the resource.
pub type XForest = Vec<XTree>;

impl XTree {
    /// Creates a single-node tree with the given root label.
    pub fn leaf(label: impl Into<Symbol>) -> XTree {
        XTree {
            nodes: vec![NodeData { label: label.into(), parent: None, children: Vec::new() }],
        }
    }

    /// Creates a tree with the given root label and subtrees.
    pub fn node(label: impl Into<Symbol>, children: Vec<XTree>) -> XTree {
        let mut tree = XTree::leaf(label);
        for child in children {
            tree.graft(0, &child);
        }
        tree
    }

    /// The root node (always `0`).
    pub fn root(&self) -> NodeId {
        0
    }

    /// The number of nodes `‖t‖`.
    pub fn size(&self) -> usize {
        self.nodes.len()
    }

    /// The label of a node.
    pub fn label(&self, node: NodeId) -> &Symbol {
        &self.nodes[node].label
    }

    /// The label of the root.
    pub fn root_label(&self) -> &Symbol {
        self.label(0)
    }

    /// The parent of a node (`None` for the root).
    pub fn parent(&self, node: NodeId) -> Option<NodeId> {
        self.nodes[node].parent
    }

    /// The children of a node, in left-to-right order.
    pub fn children(&self, node: NodeId) -> &[NodeId] {
        &self.nodes[node].children
    }

    /// Whether a node is a leaf.
    pub fn is_leaf(&self, node: NodeId) -> bool {
        self.nodes[node].children.is_empty()
    }

    /// `child-str(x)`: the labels of the children of `x` in left-to-right
    /// order.
    pub fn child_str(&self, node: NodeId) -> Vec<Symbol> {
        self.nodes[node].children.iter().map(|&c| self.nodes[c].label).collect()
    }

    /// `anc-str(x)`: the labels on the path from the root down to `x`
    /// (inclusive).
    pub fn anc_str(&self, node: NodeId) -> Vec<Symbol> {
        let mut path = Vec::new();
        let mut cur = Some(node);
        while let Some(n) = cur {
            path.push(self.nodes[n].label);
            cur = self.nodes[n].parent;
        }
        path.reverse();
        path
    }

    /// Adds a child with the given label as the new last child of `parent`,
    /// returning its node id.
    ///
    /// # Panics
    ///
    /// Panics if `parent` is not a node of the tree.
    pub fn add_child(&mut self, parent: NodeId, label: impl Into<Symbol>) -> NodeId {
        assert!(parent < self.nodes.len(), "invalid parent node");
        let id = self.nodes.len();
        self.nodes.push(NodeData { label: label.into(), parent: Some(parent), children: Vec::new() });
        self.nodes[parent].children.push(id);
        id
    }

    /// Grafts a copy of `subtree` as the new last child of `parent`,
    /// returning the id of the copied root.
    pub fn graft(&mut self, parent: NodeId, subtree: &XTree) -> NodeId {
        let root_id = self.add_child(parent, *subtree.root_label());
        self.graft_children(root_id, subtree, subtree.root());
        root_id
    }

    fn graft_children(&mut self, target: NodeId, source: &XTree, source_node: NodeId) {
        // Iterative so grafting (and everything built on it: `node`,
        // `subtree`, `graft`) copes with arbitrarily deep sources. All
        // children of a source node are appended before descending, so
        // sibling order is preserved regardless of stack order.
        let mut stack = vec![(target, source_node)];
        while let Some((into, from)) = stack.pop() {
            for &child in source.children(from) {
                let new_id = self.add_child(into, *source.label(child));
                stack.push((new_id, child));
            }
        }
    }

    /// `tree_t(x)`: the subtree rooted at `node`, as a fresh tree.
    pub fn subtree(&self, node: NodeId) -> XTree {
        let mut out = XTree::leaf(*self.label(node));
        out.graft_children(0, self, node);
        out
    }

    /// The nodes in document (pre-) order.
    pub fn document_order(&self) -> Vec<NodeId> {
        let mut order = Vec::with_capacity(self.nodes.len());
        let mut stack = vec![0];
        while let Some(n) = stack.pop() {
            order.push(n);
            for &c in self.nodes[n].children.iter().rev() {
                stack.push(c);
            }
        }
        order
    }

    /// The nodes in bottom-up order (every node appears after all of its
    /// children) — convenient for the bottom-up runs of tree automata.
    pub fn bottom_up_order(&self) -> Vec<NodeId> {
        let mut order = self.document_order();
        order.reverse();
        order
    }

    /// The leaves in document order.
    pub fn leaves(&self) -> Vec<NodeId> {
        self.document_order().into_iter().filter(|&n| self.is_leaf(n)).collect()
    }

    /// All nodes carrying the given label, in document order.
    pub fn nodes_labelled(&self, label: &Symbol) -> Vec<NodeId> {
        self.document_order().into_iter().filter(|&n| self.label(n) == label).collect()
    }

    /// The set of labels used in the tree.
    pub fn labels(&self) -> dxml_automata::Alphabet {
        self.nodes.iter().map(|n| n.label).collect()
    }

    /// The depth of the tree (a single node has depth 1).
    pub fn depth(&self) -> usize {
        // Document order visits parents before children, so each node's
        // depth is available from its parent's — no recursion.
        let mut depths = vec![1usize; self.nodes.len()];
        let mut max = 1;
        for n in self.document_order() {
            if let Some(p) = self.nodes[n].parent {
                depths[n] = depths[p] + 1;
                max = max.max(depths[n]);
            }
        }
        max
    }

    /// Rebuilds the tree with some nodes replaced by forests: every node
    /// for which `replacement` returns a forest is replaced, subtree and
    /// all, by the trees of that forest, in order; every other node is
    /// copied. The descendants of a replaced node are never offered.
    ///
    /// This is the *materialisation* primitive: the extension
    /// `ext_T(t1..tn)` of a kernel replaces each function node `fi` by the
    /// forest of trees directly connected to the root of `ti` (Section 2.3).
    /// It is iterative, so it copes with arbitrarily deep trees, and it
    /// numbers the copied nodes in document order.
    ///
    /// # Panics
    ///
    /// Panics if the root is replaced by a forest that is not a single
    /// tree.
    pub fn replace_nodes<'f>(
        &self,
        mut replacement: impl FnMut(NodeId) -> Option<&'f [XTree]>,
    ) -> XTree {
        if let Some(forest) = replacement(0) {
            assert!(forest.len() == 1, "replace_nodes: the root must become exactly one tree");
            return forest[0].clone();
        }
        let mut out = XTree::leaf(*self.root_label());
        // (source node, parent in `out`), popped in document order.
        let mut stack: Vec<(NodeId, NodeId)> =
            self.children(0).iter().rev().map(|&c| (c, 0)).collect();
        while let Some((node, parent)) = stack.pop() {
            if let Some(forest) = replacement(node) {
                for tree in forest {
                    out.graft(parent, tree);
                }
            } else {
                let id = out.add_child(parent, *self.label(node));
                stack.extend(self.children(node).iter().rev().map(|&c| (c, id)));
            }
        }
        out
    }
}

impl PartialEq for XTree {
    fn eq(&self, other: &Self) -> bool {
        if self.nodes.len() != other.nodes.len() {
            return false;
        }
        let mut stack = vec![(0, 0)];
        while let Some((na, nb)) = stack.pop() {
            if self.label(na) != other.label(nb)
                || self.children(na).len() != other.children(nb).len()
            {
                return false;
            }
            stack.extend(self.children(na).iter().copied().zip(other.children(nb).iter().copied()));
        }
        true
    }
}

impl Eq for XTree {}

impl fmt::Debug for XTree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", crate::term::to_term(self))
    }
}

impl fmt::Display for XTree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", crate::term::to_term(self))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> XTree {
        // s(a f1 b(f2))  — the kernel T0 of Section 2.2.1
        XTree::node(
            "s",
            vec![XTree::leaf("a"), XTree::leaf("f1"), XTree::node("b", vec![XTree::leaf("f2")])],
        )
    }

    #[test]
    fn construction_and_accessors() {
        let t = sample();
        assert_eq!(t.size(), 5);
        assert_eq!(t.root_label().as_str(), "s");
        assert_eq!(t.child_str(t.root()), vec!["a".into(), "f1".into(), "b".into()]);
        let b = t.nodes_labelled(&"b".into())[0];
        assert_eq!(t.child_str(b), vec![Symbol::new("f2")]);
        assert_eq!(t.anc_str(b), vec![Symbol::new("s"), Symbol::new("b")]);
        let f2 = t.nodes_labelled(&"f2".into())[0];
        assert_eq!(t.anc_str(f2), vec![Symbol::new("s"), Symbol::new("b"), Symbol::new("f2")]);
        assert_eq!(t.depth(), 3);
        assert_eq!(t.leaves().len(), 3);
        assert!(t.is_leaf(f2));
        assert_eq!(t.parent(b), Some(t.root()));
        assert_eq!(t.parent(t.root()), None);
    }

    #[test]
    fn subtree_and_equality() {
        let t = sample();
        let b = t.nodes_labelled(&"b".into())[0];
        let sub = t.subtree(b);
        assert_eq!(sub, XTree::node("b", vec![XTree::leaf("f2")]));
        assert_ne!(sub, XTree::leaf("b"));
        assert_eq!(t, sample());
    }

    #[test]
    fn document_and_bottom_up_order() {
        let t = sample();
        let order = t.document_order();
        assert_eq!(order[0], t.root());
        let labels: Vec<&str> = order.iter().map(|&n| t.label(n).as_str()).collect();
        assert_eq!(labels, vec!["s", "a", "f1", "b", "f2"]);
        let bu = t.bottom_up_order();
        // every node appears after its children
        for (i, &n) in bu.iter().enumerate() {
            for &c in t.children(n) {
                assert!(bu.iter().position(|&x| x == c).unwrap() < i);
            }
        }
    }

    #[test]
    fn replace_nodes_materialises_extension() {
        // The example from Section 2.3: T0 = s(a f1 b(f2)), f1 returns
        // s1(c(dd)) and f2 returns s2(d(ef)); the extension is
        // s(a c(dd) b(d(ef))).
        let t = sample();
        let f1 = [XTree::node("c", vec![XTree::leaf("d"), XTree::leaf("d")])];
        let f2 = [XTree::node("d", vec![XTree::leaf("e"), XTree::leaf("f")])];
        let ext = t.replace_nodes(|n| match t.label(n).as_str() {
            "f1" => Some(&f1[..]),
            "f2" => Some(&f2[..]),
            _ => None,
        });
        let expected = XTree::node(
            "s",
            vec![
                XTree::leaf("a"),
                XTree::node("c", vec![XTree::leaf("d"), XTree::leaf("d")]),
                XTree::node("b", vec![XTree::node("d", vec![XTree::leaf("e"), XTree::leaf("f")])]),
            ],
        );
        assert_eq!(ext, expected);
        // Copied nodes are numbered in document order.
        assert_eq!(ext.document_order(), (0..ext.size()).collect::<Vec<_>>());
        // Replacing an inner node drops its subtree.
        let b = t.nodes_labelled(&"b".into())[0];
        let dropped = t.replace_nodes(|n| (n == b).then_some(&f1[..]));
        let kept = vec![XTree::leaf("a"), XTree::leaf("f1"), f1[0].clone()];
        assert_eq!(dropped, XTree::node("s", kept));
        // Replacing the root by one tree yields that tree.
        assert_eq!(t.replace_nodes(|n| (n == 0).then_some(&f2[..])), f2[0]);
    }

    #[test]
    fn replace_with_empty_and_multi_tree_forest() {
        let t = XTree::node("s", vec![XTree::leaf("f1")]);
        let f1 = |n: NodeId| t.label(n).as_str() == "f1";
        let empty = t.replace_nodes(|n| f1(n).then_some(&[][..]));
        assert_eq!(empty, XTree::leaf("s"));
        let two = [XTree::leaf("a"), XTree::leaf("b")];
        let multi = t.replace_nodes(|n| f1(n).then_some(&two[..]));
        assert_eq!(multi, XTree::node("s", vec![XTree::leaf("a"), XTree::leaf("b")]));
        assert_eq!(t.replace_nodes(|_| None), t);
    }

    #[test]
    fn subtree_replacement_and_relabelling() {
        let t = sample();
        let a = t.nodes_labelled(&"a".into())[0];
        let new = [XTree::node("x", vec![XTree::leaf("y")])];
        let replaced = t.replace_nodes(|n| (n == a).then_some(&new[..]));
        assert_eq!(replaced.nodes_labelled(&"x".into()).len(), 1);
        assert_eq!(replaced.size(), 6);
    }

    #[test]
    #[should_panic(expected = "the root must become exactly one tree")]
    fn replacing_the_root_by_a_forest_panics() {
        let t = sample();
        let two = [XTree::leaf("a"), XTree::leaf("b")];
        t.replace_nodes(|n| (n == 0).then_some(&two[..]));
    }

    #[test]
    fn replace_nodes_rebuilds_a_hundred_thousand_deep_tree() {
        // a(a(…a(z)…)) with 100,000 `a`s; the node at depth 50,000 is
        // replaced by b(c), dropping the 50,001 nodes below it.
        const DEPTH: usize = 100_000;
        let mut t = XTree::leaf("a");
        let mut cur = t.root();
        for _ in 1..DEPTH {
            cur = t.add_child(cur, "a");
        }
        t.add_child(cur, "z");
        let mid = DEPTH / 2 - 1;
        let forest = [XTree::node("b", vec![XTree::leaf("c")])];
        let out = t.replace_nodes(|n| (n == mid).then_some(&forest[..]));
        assert_eq!(out.size(), mid + 2);
        assert_eq!(out.depth(), mid + 2);
        assert_eq!(out.leaves().len(), 1);
        assert_eq!(out.label(out.leaves()[0]).as_str(), "c");
        assert_eq!(out.nodes_labelled(&"b".into()).len(), 1);
    }
}
