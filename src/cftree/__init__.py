"""Finite-automaton encodings of context-free trees.

Deterministic context-free trees are exactly the trees generated from states
of reduced partial DFAs; general context-free trees come from multi-edge
NFAs.  This package models both automaton kinds, materializes finite discs of
the generated trees, moves roots along words, decides rooted and non-rooted
isomorphism with witness extraction, compresses finite involutive trees into
minimal automata, and ships the two hardness reductions as instance
generators.
"""

from .alphabet import InvolutiveAlphabet, involutive_closure, merge_alphabets
from .automata import (
    Issue,
    MNfa,
    PDfa,
    Transition,
    ValidationReport,
    as_pdfa,
    find_nondeterministic_pair,
    is_reduced,
    pdfa_to_mnfa,
    reachable_states,
    reducedness_violation,
    require_reduced,
    trim,
    validate_mnfa,
    validate_pdfa,
)
from .compression import compress_finite_tree, minimize, quotient
from .errors import (
    AlphabetError,
    CFTreeError,
    MaterializationLimitError,
    NondeterministicTreeError,
    NotDeterministicError,
    NotReducedError,
    RadiusMismatchError,
    SchemaError,
    UnknownLetterError,
    UnknownNodeError,
    UnknownStateError,
    WordNotInLanguageError,
)
from .isomorphism import (
    NonRootedWitness,
    Witness,
    iso_nonrooted,
    iso_rooted,
    language_classes,
    verify_nonrooted_witness,
)
from .reductions import (
    Gap2Instance,
    TOP_LETTER,
    gap2_has_path,
    reduce_gap2_to_rooted_iso,
    reduce_rooted_to_nonrooted,
)
from .rerooting import reroot_along_word, reroot_step
from .unfolding import (
    DEFAULT_MAX_NODES,
    DiscTree,
    disc_equal_rooted,
    end_cone,
    export_dot,
    nondeterministic_vertex,
    reroot_disc,
    truncate,
    unfold_mnfa,
    unfold_pdfa,
)

__version__ = "0.1.0"

__all__ = [
    "AlphabetError",
    "CFTreeError",
    "DEFAULT_MAX_NODES",
    "DiscTree",
    "Gap2Instance",
    "InvolutiveAlphabet",
    "Issue",
    "MNfa",
    "MaterializationLimitError",
    "NonRootedWitness",
    "NondeterministicTreeError",
    "NotDeterministicError",
    "NotReducedError",
    "PDfa",
    "RadiusMismatchError",
    "SchemaError",
    "TOP_LETTER",
    "Transition",
    "UnknownLetterError",
    "UnknownNodeError",
    "UnknownStateError",
    "ValidationReport",
    "Witness",
    "WordNotInLanguageError",
    "as_pdfa",
    "compress_finite_tree",
    "disc_equal_rooted",
    "end_cone",
    "export_dot",
    "find_nondeterministic_pair",
    "gap2_has_path",
    "involutive_closure",
    "is_reduced",
    "iso_nonrooted",
    "iso_rooted",
    "language_classes",
    "merge_alphabets",
    "minimize",
    "nondeterministic_vertex",
    "pdfa_to_mnfa",
    "quotient",
    "reachable_states",
    "reduce_gap2_to_rooted_iso",
    "reduce_rooted_to_nonrooted",
    "reducedness_violation",
    "require_reduced",
    "reroot_along_word",
    "reroot_disc",
    "reroot_step",
    "trim",
    "truncate",
    "unfold_mnfa",
    "unfold_pdfa",
    "validate_mnfa",
    "validate_pdfa",
    "verify_nonrooted_witness",
]
