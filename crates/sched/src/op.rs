//! Pipeline operations.

use serde::{Deserialize, Serialize};

/// The three GPU operations of recompute-based pipeline training
/// (paper Figure 4: F, R, and B).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum OpKind {
    /// Forward pass of one micro-batch through the stage.
    Forward,
    /// Recompute: re-run the forward from the stashed input activation to
    /// rematerialize intermediate activations for the backward pass.
    Recompute,
    /// Backward pass of one micro-batch through the stage.
    Backward,
}

impl OpKind {
    /// One-letter code used in Gantt charts (`F`/`R`/`B`) and in
    /// `varuna-obs` op events.
    pub fn code(&self) -> char {
        match self {
            OpKind::Forward => 'F',
            OpKind::Recompute => 'R',
            OpKind::Backward => 'B',
        }
    }

    /// The inverse of [`OpKind::code`].
    pub fn from_code(c: char) -> Option<OpKind> {
        match c {
            'F' => Some(OpKind::Forward),
            'R' => Some(OpKind::Recompute),
            'B' => Some(OpKind::Backward),
            _ => None,
        }
    }
}

/// One operation bound to a micro-batch index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Op {
    /// Operation kind.
    pub kind: OpKind,
    /// Micro-batch index, 0-based.
    pub micro: usize,
}

impl Op {
    /// Convenience constructor.
    pub fn new(kind: OpKind, micro: usize) -> Self {
        Op { kind, micro }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codes_are_distinct() {
        let codes = [
            OpKind::Forward.code(),
            OpKind::Recompute.code(),
            OpKind::Backward.code(),
        ];
        assert_eq!(codes, ['F', 'R', 'B']);
    }
}
