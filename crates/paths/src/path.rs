//! Simple paths: loop-free sequences of contiguous edges, plus the invalid
//! path `⊥`.
//!
//! Following Section 5.1 of the paper, a path is a sequence of contiguous
//! edges, it is *simple* if it never visits a node more than once, the empty
//! path `[]` is the path of the trivial route, and the distinguished path
//! `⊥` is the path of the invalid route.  In order to reason about
//! arbitrary starting states, paths are **not** restricted to the edges of
//! any particular topology.

use std::cmp::Ordering;
use std::fmt;

/// A node identifier.  Nodes are dense indices `0..n`, matching the row and
/// column indices of the adjacency and routing-state matrices.
pub type NodeId = usize;

/// Errors arising when constructing or extending simple paths.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PathError {
    /// The extension `(i, j)` would revisit node `i`, creating a loop.
    Loop {
        /// The node that would be revisited.
        node: NodeId,
    },
    /// The extension `(i, j)` does not join onto the path's source
    /// (`j ≠ src(p)`), so the edges would not be contiguous.
    NotContiguous {
        /// The far end of the extending edge.
        expected_source: NodeId,
        /// The actual source of the path being extended.
        actual_source: NodeId,
    },
    /// A node sequence given to [`SimplePath::from_nodes`] repeats a node.
    DuplicateNode {
        /// The repeated node.
        node: NodeId,
    },
    /// A node sequence given to [`SimplePath::from_nodes`] has exactly one
    /// node; paths are edge sequences, so a path has either zero nodes (the
    /// empty path) or at least two.
    SingletonSequence,
}

impl fmt::Display for PathError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PathError::Loop { node } => write!(f, "extension would revisit node {node}"),
            PathError::NotContiguous {
                expected_source,
                actual_source,
            } => write!(
                f,
                "extension edge ends at {expected_source} but the path starts at {actual_source}"
            ),
            PathError::DuplicateNode { node } => {
                write!(f, "node sequence repeats node {node}")
            }
            PathError::SingletonSequence => {
                write!(f, "a path cannot consist of a single node")
            }
        }
    }
}

impl std::error::Error for PathError {}

/// A simple (loop-free) path, stored as its node sequence from source to
/// destination.  The empty sequence is the empty path `[]`.
#[derive(Clone, PartialEq, Eq, Hash, Default)]
pub struct SimplePath {
    nodes: Vec<NodeId>,
}

impl SimplePath {
    /// The empty path `[]` (the path of the trivial route).
    pub fn empty() -> Self {
        Self { nodes: Vec::new() }
    }

    /// Build a path from a node sequence (source first).
    ///
    /// The sequence must not repeat a node and must not consist of exactly
    /// one node.
    pub fn from_nodes(nodes: Vec<NodeId>) -> Result<Self, PathError> {
        if nodes.len() == 1 {
            return Err(PathError::SingletonSequence);
        }
        for (idx, n) in nodes.iter().enumerate() {
            if nodes[idx + 1..].contains(n) {
                return Err(PathError::DuplicateNode { node: *n });
            }
        }
        Ok(Self { nodes })
    }

    /// The number of edges in the path (`0` for the empty path).
    pub fn len(&self) -> usize {
        self.nodes.len().saturating_sub(1)
    }

    /// Is this the empty path?
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The first node of the path, if any.
    pub fn source(&self) -> Option<NodeId> {
        self.nodes.first().copied()
    }

    /// The last node of the path, if any.
    pub fn destination(&self) -> Option<NodeId> {
        self.nodes.last().copied()
    }

    /// Does the path visit `node`?
    pub fn contains(&self, node: NodeId) -> bool {
        self.nodes.contains(&node)
    }

    /// The node sequence, source first.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Iterate over the edges `(i, j)` of the path, source first.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.nodes.windows(2).map(|w| (w[0], w[1]))
    }

    /// Extend the path by prepending the edge `(i, j)` (the paper's
    /// `(i, j) :: p`), or explain why that is impossible.
    ///
    /// For the empty path any `(i, j)` with `i ≠ j` is a valid extension
    /// (the empty path is the trivial route at `j`, so extending it over
    /// `(i, j)` yields the one-hop path `[i, j]`).
    pub fn try_extend(&self, i: NodeId, j: NodeId) -> Result<SimplePath, PathError> {
        if self.is_empty() {
            if i == j {
                return Err(PathError::Loop { node: i });
            }
            return Ok(SimplePath { nodes: vec![i, j] });
        }
        let src = self.source().expect("non-empty path has a source");
        if j != src {
            return Err(PathError::NotContiguous {
                expected_source: j,
                actual_source: src,
            });
        }
        if self.contains(i) {
            return Err(PathError::Loop { node: i });
        }
        let mut nodes = Vec::with_capacity(self.nodes.len() + 1);
        nodes.push(i);
        nodes.extend_from_slice(&self.nodes);
        Ok(SimplePath { nodes })
    }
}

impl Ord for SimplePath {
    fn cmp(&self, other: &Self) -> Ordering {
        // Shorter paths first, then lexicographic on the node sequence.
        // This is the tie-breaking order used by the path-vector lifting and
        // by the Section 7 algebra's step (3)-(4).
        self.len()
            .cmp(&other.len())
            .then_with(|| self.nodes.cmp(&other.nodes))
    }
}

impl PartialOrd for SimplePath {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl fmt::Debug for SimplePath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.nodes.is_empty() {
            return write!(f, "[]");
        }
        write!(f, "[")?;
        for (k, n) in self.nodes.iter().enumerate() {
            if k > 0 {
                write!(f, "→")?;
            }
            write!(f, "{n}")?;
        }
        write!(f, "]")
    }
}

impl fmt::Display for SimplePath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// A path value as carried by routes: either the invalid path `⊥` or a
/// simple path.
#[derive(Clone, PartialEq, Eq, Hash)]
pub enum Path {
    /// The invalid path `⊥` (the path of the invalid route).
    Invalid,
    /// A simple path.
    Simple(SimplePath),
}

impl Path {
    /// The empty (trivial) path.
    pub fn empty() -> Self {
        Path::Simple(SimplePath::empty())
    }

    /// Is this the invalid path?
    pub fn is_invalid(&self) -> bool {
        matches!(self, Path::Invalid)
    }

    /// The simple path, if this is not `⊥`.
    pub fn as_simple(&self) -> Option<&SimplePath> {
        match self {
            Path::Invalid => None,
            Path::Simple(p) => Some(p),
        }
    }

    /// The number of edges, or `None` for `⊥`.
    pub fn len(&self) -> Option<usize> {
        self.as_simple().map(SimplePath::len)
    }

    /// Is this the empty path?
    pub fn is_empty(&self) -> bool {
        matches!(self, Path::Simple(p) if p.is_empty())
    }

    /// Extend by the edge `(i, j)` following property P3 of the paper:
    /// the result is `⊥` when the extension would loop or break contiguity,
    /// and `(i, j) :: p` otherwise.  Extending `⊥` gives `⊥`.
    pub fn extend(&self, i: NodeId, j: NodeId) -> Path {
        match self {
            Path::Invalid => Path::Invalid,
            Path::Simple(p) => match p.try_extend(i, j) {
                Ok(q) => Path::Simple(q),
                Err(_) => Path::Invalid,
            },
        }
    }

    /// Does the path visit `node`?  (`⊥` visits nothing.)
    pub fn contains(&self, node: NodeId) -> bool {
        self.as_simple().is_some_and(|p| p.contains(node))
    }

    /// The source node, if any.
    pub fn source(&self) -> Option<NodeId> {
        self.as_simple().and_then(SimplePath::source)
    }
}

impl From<SimplePath> for Path {
    fn from(p: SimplePath) -> Self {
        Path::Simple(p)
    }
}

impl fmt::Debug for Path {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Path::Invalid => write!(f, "⊥"),
            Path::Simple(p) => write!(f, "{p:?}"),
        }
    }
}

impl fmt::Display for Path {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_path_basics() {
        let p = SimplePath::empty();
        assert!(p.is_empty());
        assert_eq!(p.len(), 0);
        assert_eq!(p.source(), None);
        assert_eq!(p.destination(), None);
        assert_eq!(p.edges().count(), 0);
        assert_eq!(format!("{p}"), "[]");
    }

    #[test]
    fn from_nodes_validates() {
        assert!(SimplePath::from_nodes(vec![]).is_ok());
        assert!(SimplePath::from_nodes(vec![1, 2, 3]).is_ok());
        assert_eq!(
            SimplePath::from_nodes(vec![5]),
            Err(PathError::SingletonSequence)
        );
        assert_eq!(
            SimplePath::from_nodes(vec![1, 2, 1]),
            Err(PathError::DuplicateNode { node: 1 })
        );
    }

    #[test]
    fn extension_prepends_an_edge() {
        let p = SimplePath::empty();
        let p = p.try_extend(1, 2).unwrap(); // [1→2]
        assert_eq!(p.nodes(), &[1, 2]);
        let p = p.try_extend(0, 1).unwrap(); // [0→1→2]
        assert_eq!(p.nodes(), &[0, 1, 2]);
        assert_eq!(p.len(), 2);
        assert_eq!(p.source(), Some(0));
        assert_eq!(p.destination(), Some(2));
        assert_eq!(p.edges().collect::<Vec<_>>(), vec![(0, 1), (1, 2)]);
    }

    #[test]
    fn extension_rejects_loops_and_discontiguity() {
        let p = SimplePath::from_nodes(vec![1, 2, 3]).unwrap();
        assert_eq!(p.try_extend(2, 1), Err(PathError::Loop { node: 2 }));
        assert_eq!(
            p.try_extend(0, 2),
            Err(PathError::NotContiguous {
                expected_source: 2,
                actual_source: 1
            })
        );
        assert!(p.try_extend(0, 1).is_ok());
        assert!(p.try_extend(3, 1).is_err());
        // self-loop on the empty path
        assert_eq!(
            SimplePath::empty().try_extend(4, 4),
            Err(PathError::Loop { node: 4 })
        );
    }

    #[test]
    fn ordering_is_length_then_lexicographic() {
        let short = SimplePath::from_nodes(vec![5, 6]).unwrap();
        let long = SimplePath::from_nodes(vec![0, 1, 2]).unwrap();
        assert!(short < long);
        let a = SimplePath::from_nodes(vec![0, 2]).unwrap();
        let b = SimplePath::from_nodes(vec![1, 2]).unwrap();
        assert!(a < b);
        assert!(SimplePath::empty() < a);
    }

    #[test]
    fn path_extension_follows_p3() {
        // extending ⊥ stays ⊥
        assert_eq!(Path::Invalid.extend(0, 1), Path::Invalid);
        // looping extension collapses to ⊥
        let p: Path = SimplePath::from_nodes(vec![1, 2]).unwrap().into();
        assert_eq!(p.extend(2, 1), Path::Invalid);
        // discontiguous extension collapses to ⊥
        assert_eq!(p.extend(0, 2), Path::Invalid);
        // good extension prepends
        let q = p.extend(0, 1);
        assert_eq!(
            q.as_simple().unwrap().nodes(),
            &[0, 1, 2],
            "good extensions prepend the edge"
        );
    }

    #[test]
    fn path_accessors() {
        let p: Path = SimplePath::from_nodes(vec![3, 4, 5]).unwrap().into();
        assert!(!p.is_invalid());
        assert!(!p.is_empty());
        assert_eq!(p.len(), Some(2));
        assert_eq!(p.source(), Some(3));
        assert!(p.contains(4));
        assert!(!p.contains(9));
        assert!(Path::empty().is_empty());
        assert_eq!(Path::Invalid.len(), None);
        assert!(!Path::Invalid.contains(0));
        assert_eq!(format!("{:?}", Path::Invalid), "⊥");
        assert_eq!(format!("{}", p), "[3→4→5]");
    }

    #[test]
    fn display_of_errors() {
        assert!(PathError::Loop { node: 3 }.to_string().contains('3'));
        assert!(PathError::SingletonSequence.to_string().contains("single"));
        assert!(PathError::DuplicateNode { node: 2 }
            .to_string()
            .contains('2'));
        assert!(PathError::NotContiguous {
            expected_source: 1,
            actual_source: 2
        }
        .to_string()
        .contains("starts at 2"));
    }
}
