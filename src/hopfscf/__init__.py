"""Exact computer algebra for QSym and NSym over the q,t fraction field,
with the group-theoretic side realized on direct sums of cyclic groups."""

from .compositions import (
    Composition,
    SubsetLabel,
    a_shuffle,
    comp_of_set,
    complement,
    near_concat,
    overlapping_shuffles,
    preshuffle,
    run_markers,
    set_of_comp,
)
from .scalars import ONE, Q, T, ZERO, ScalarQT, parse_scalar, rational
from .groupscf import ClassFunction, GroupSpec
from .qsym import QSymElem
from .nsym import NSymElem
from .symring import Partition, SymElem, comm
from .charmap import ScfElem, ch

__all__ = [
    "Composition",
    "SubsetLabel",
    "a_shuffle",
    "comp_of_set",
    "complement",
    "near_concat",
    "overlapping_shuffles",
    "preshuffle",
    "run_markers",
    "set_of_comp",
    "ONE",
    "Q",
    "T",
    "ZERO",
    "ScalarQT",
    "parse_scalar",
    "rational",
    "ClassFunction",
    "GroupSpec",
    "QSymElem",
    "NSymElem",
    "Partition",
    "SymElem",
    "comm",
    "ScfElem",
    "ch",
]
