//! Internal (binary) alphabet symbols.
//!
//! A binary symbol corresponds to one qubit variable `x_t`.  During the
//! composition-based gate construction of the AutoQ paper (Section 6), the
//! tagging procedure decorates symbols with unique numbers so that trees keep
//! their identity ("tag") across the per-term automaton copies; the forward
//! variable-order swap additionally records a *pair* of tags so that the
//! backward swap can restore them.

use std::fmt;

/// Tag attached to an internal symbol by the composition-based construction.
///
/// ```
/// use autoq_treeaut::Tag;
/// assert_eq!(Tag::None.to_string(), "");
/// assert_eq!(Tag::Single(3).to_string(), "#3");
/// assert_eq!(Tag::Pair(3, 5).to_string(), "#3,5");
/// ```
///
/// Tag values are *transition indices* (the tagging procedure numbers the
/// internal transitions `1..=|Δ|`), never basis-state indices, so they are
/// `u32`, like state ids, even though basis indices are `u128`
/// ([`crate::BasisIndex`]).  `u32::MAX` transitions of 28 bytes each are
/// over 100 GiB, so tagging never runs out of numbers in practice (it
/// panics if it does), and the narrow tag is what keeps every
/// [`crate::InternalTransition`] at 28 bytes on the reduction hot path (a
/// `u64` pair made it 48).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub enum Tag {
    /// Untagged symbol (the normal state outside gate application).
    #[default]
    None,
    /// A unique number assigned by the tagging procedure (Algorithm 3).
    Single(u32),
    /// A pair of tags remembered by the forward variable-order swap
    /// (Algorithm 7) so the backward swap (Algorithm 8) can undo it.
    Pair(u32, u32),
}

impl fmt::Display for Tag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Tag::None => Ok(()),
            Tag::Single(t) => write!(f, "#{t}"),
            Tag::Pair(i, j) => write!(f, "#{i},{j}"),
        }
    }
}

/// A binary alphabet symbol: a qubit variable index plus an optional tag.
///
/// Variable indices are 0-based: variable `0` labels the root layer of every
/// tree (the paper's `x₁`), variable `n − 1` labels the layer directly above
/// the leaves.
///
/// ```
/// use autoq_treeaut::{InternalSymbol, Tag};
/// let sym = InternalSymbol::new(2);
/// assert_eq!(sym.to_string(), "x2");
/// assert_eq!(sym.with_tag(Tag::Single(9)).to_string(), "x2#9");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct InternalSymbol {
    /// 0-based qubit variable index.
    pub var: u32,
    /// Tag (only used transiently during composition-based gate application).
    pub tag: Tag,
}

impl InternalSymbol {
    /// Creates an untagged symbol for variable `var`.
    pub fn new(var: u32) -> Self {
        InternalSymbol {
            var,
            tag: Tag::None,
        }
    }

    /// Returns a copy of the symbol carrying `tag`.
    pub fn with_tag(self, tag: Tag) -> Self {
        InternalSymbol { var: self.var, tag }
    }

    /// Returns a copy of the symbol with the tag removed.
    pub fn untagged(self) -> Self {
        InternalSymbol {
            var: self.var,
            tag: Tag::None,
        }
    }
}

impl fmt::Display for InternalSymbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "x{}{}", self.var, self.tag)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symbol_construction_and_tagging() {
        let sym = InternalSymbol::new(5);
        assert_eq!(sym.var, 5);
        assert_eq!(sym.tag, Tag::None);
        let tagged = sym.with_tag(Tag::Single(2));
        assert_eq!(tagged.var, 5);
        assert_eq!(tagged.tag, Tag::Single(2));
        assert_eq!(tagged.untagged(), sym);
        assert_eq!(sym.with_tag(Tag::Pair(1, 2)).untagged(), sym);
    }

    #[test]
    fn symbols_with_different_tags_are_distinct() {
        let a = InternalSymbol::new(1).with_tag(Tag::Single(1));
        let b = InternalSymbol::new(1).with_tag(Tag::Single(2));
        assert_ne!(a, b);
        assert_eq!(a.untagged(), b.untagged());
    }

    #[test]
    fn display_formats() {
        assert_eq!(InternalSymbol::new(0).to_string(), "x0");
        assert_eq!(
            InternalSymbol::new(1).with_tag(Tag::Pair(4, 7)).to_string(),
            "x1#4,7"
        );
    }

    #[test]
    fn tag_default_is_none() {
        assert_eq!(Tag::default(), Tag::None);
    }
}
