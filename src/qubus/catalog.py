"""Named operators, standard example specs, and their expected matrices.

The named two-qubit operators are the three pairwise swaps ``q1, q2, q3`` and
the cyclic permutations ``r1, r2, r3``; the two-qutrit operators ``y{n}{m}``
are products of the vertical and horizontal block cycles.  The expected
tables were transcribed by hand and are kept verbatim as an independent check
against the computed matrices; the transcription of the maximal two-qutrit
table carries one known slip (row 2, column 2 reads 3 where the computation
gives 1), so :func:`diff_tables` is expected to report exactly that cell.
"""

from __future__ import annotations

import re

from .mappings import InteractionSpec
from .perms import (
    OperatorSet,
    Permutation,
    build_hv_sets,
    compose,
    cyclic_set,
    parse_cycles,
    shift_power,
)

__all__ = [
    "QUBIT_COMBINED_TABLE",
    "QUBIT_ENTANGLING_TABLE",
    "QUBIT_LOCAL_TABLE",
    "QUTRIT_ENTANGLING_TABLE",
    "QUTRIT_LOCAL_TABLE",
    "QUTRIT_MAXIMAL_TABLE_AS_TRANSCRIBED",
    "QUTRIT_SHIFT_TABLE",
    "canonical_spec",
    "corrupted_cross_party_spec",
    "corrupted_qutrit_spec",
    "diff_tables",
    "named_operator",
    "qutrit_y",
]

_QUBIT_CYCLES = {
    "q1": "(0,1)(2,3)",
    "q2": "(0,2)(1,3)",
    "q3": "(0,3)(1,2)",
    "r1": "(0,1,2,3)",
    "r2": "(0,1,3,2)",
    "r3": "(0,2,1,3)",
}

_Y_NAME = re.compile(r"^y([0-9])([0-9])$")
_X_NAME = re.compile(r"^x([0-9]+)$")


def qutrit_y(n: int, m: int, d: int = 3) -> Permutation:
    """Block-cycle product ``V**n o H**m`` on ``d*d`` labels (the generators
    commute, so the order is immaterial)."""
    h_set, v_set = build_hv_sets(d)
    h = h_set.members[1]
    v = v_set.members[1]
    return compose(v.power(n), h.power(m))


def named_operator(name: str, d: int, m: int = 2) -> Permutation:
    """Resolve an operator shorthand to a permutation of ``d**m`` bus labels.

    ``q1..q3``/``r1..r3`` are the two-qubit operators (``d=2, m=2``),
    ``y{n}{m}`` the two-qudit block-cycle products, ``x{k}`` the ``k``-th
    power of the full bus cycle; anything else must be cycle notation.
    """
    bus = d**m
    key = name.strip().lower()
    if key in _QUBIT_CYCLES:
        if bus != 4:
            raise ValueError(f"{name!r} is a 4-label operator; bus has {bus} labels")
        return parse_cycles(_QUBIT_CYCLES[key], 4)
    match = _Y_NAME.match(key)
    if match:
        if m != 2:
            raise ValueError(f"{name!r} needs a two-subsystem bus")
        return qutrit_y(int(match.group(1)), int(match.group(2)), d)
    match = _X_NAME.match(key)
    if match:
        return shift_power(bus, int(match.group(1)))
    return parse_cycles(name, bus)


def _sets(d: int, *names: str) -> tuple[OperatorSet, ...]:
    return tuple(cyclic_set(named_operator(name, d), d) for name in names)


def canonical_spec(name: str) -> InteractionSpec:
    """Build one of the standard example specs by name.

    Two-qubit (``d=2``): ``qubit-local`` (both parties Q1, Q3),
    ``qubit-entangling`` (Alice Q1, Q3; Bob Q2, Q3), ``qubit-combined``
    (both parties R1, Q2).  Two-qutrit (``d=3``): ``qutrit-local``,
    ``qutrit-entangling``, ``qutrit-maximal`` (block-cycle products),
    ``qutrit-shift`` (powers of the full bus cycle, inverse-ordered Bob).
    """
    if name == "qubit-local":
        return InteractionSpec(2, 2, _sets(2, "q1", "q3"), _sets(2, "q1", "q3"))
    if name == "qubit-entangling":
        return InteractionSpec(2, 2, _sets(2, "q1", "q3"), _sets(2, "q2", "q3"))
    if name == "qubit-combined":
        return InteractionSpec(2, 2, _sets(2, "r1", "q2"), _sets(2, "r1", "q2"))
    if name == "qutrit-local":
        return InteractionSpec(3, 2, _sets(3, "y01", "y10"), _sets(3, "y02", "y20"))
    if name == "qutrit-entangling":
        return InteractionSpec(3, 2, _sets(3, "y01", "y10"), _sets(3, "y01", "y22"))
    if name == "qutrit-maximal":
        return InteractionSpec(3, 2, _sets(3, "y01", "y10"), _sets(3, "y21", "y22"))
    if name == "qutrit-shift":
        return InteractionSpec(3, 2, _sets(3, "x1", "x3"), _sets(3, "x8", "x6"))
    raise ValueError(f"unknown spec name {name!r}")


def corrupted_cross_party_spec() -> InteractionSpec:
    """The two-qubit combined spec with Alice's first set replaced by Bob's
    second; Alice then holds the Q2 set twice, which fails validation."""
    good = canonical_spec("qubit-combined")
    return InteractionSpec(
        2, 2, (good.bob_sets[1], good.alice_sets[1]), good.bob_sets
    )


def corrupted_qutrit_spec() -> InteractionSpec:
    """The two-qutrit local spec with one member swapped between Alice's two
    sets; the cross combination of the swapped members collapses to the
    identity, which fails validation."""
    good = canonical_spec("qutrit-local")
    first = good.alice_sets[0].members
    second = good.alice_sets[1].members
    swapped_first = OperatorSet(3, (first[0], second[1], first[2]))
    swapped_second = OperatorSet(3, (second[0], first[1], second[2]))
    return InteractionSpec(3, 2, (swapped_first, swapped_second), good.bob_sets)


QUBIT_LOCAL_TABLE = (
    (0, 3, 1, 2),
    (3, 0, 2, 1),
    (1, 2, 0, 3),
    (2, 1, 3, 0),
)

QUBIT_ENTANGLING_TABLE = (
    (0, 3, 1, 2),
    (3, 0, 2, 1),
    (2, 1, 3, 0),
    (1, 2, 0, 3),
)

QUBIT_COMBINED_TABLE = (
    (0, 2, 1, 3),
    (2, 0, 3, 1),
    (1, 3, 2, 0),
    (3, 1, 0, 2),
)

QUTRIT_LOCAL_TABLE = (
    (0, 3, 6, 1, 4, 7, 2, 5, 8),
    (6, 0, 3, 7, 1, 4, 8, 2, 5),
    (3, 6, 0, 4, 7, 1, 5, 8, 2),
    (2, 5, 8, 0, 3, 6, 1, 4, 7),
    (8, 2, 5, 6, 0, 3, 7, 1, 4),
    (5, 8, 2, 3, 6, 0, 4, 7, 1),
    (1, 4, 7, 2, 5, 8, 0, 3, 6),
    (7, 1, 4, 8, 2, 5, 6, 0, 3),
    (4, 7, 1, 5, 8, 2, 3, 6, 0),
)

QUTRIT_ENTANGLING_TABLE = (
    (0, 3, 6, 1, 4, 7, 2, 5, 8),
    (8, 2, 5, 6, 0, 3, 7, 1, 4),
    (4, 7, 1, 5, 8, 2, 3, 6, 0),
    (1, 4, 7, 2, 5, 8, 0, 3, 6),
    (6, 0, 3, 7, 1, 4, 8, 2, 5),
    (5, 8, 2, 3, 6, 0, 4, 7, 1),
    (2, 5, 8, 0, 3, 6, 1, 4, 7),
    (7, 1, 4, 8, 2, 5, 6, 0, 3),
    (3, 6, 0, 4, 7, 1, 5, 8, 2),
)

QUTRIT_MAXIMAL_TABLE_AS_TRANSCRIBED = (
    (0, 3, 6, 1, 4, 7, 2, 5, 8),
    (8, 2, 5, 6, 0, 3, 7, 1, 4),
    (4, 7, 3, 5, 8, 2, 3, 6, 0),
    (7, 1, 4, 8, 2, 5, 6, 0, 3),
    (3, 6, 0, 4, 7, 1, 5, 8, 2),
    (2, 5, 8, 0, 3, 6, 1, 4, 7),
    (5, 8, 2, 3, 6, 0, 4, 7, 1),
    (1, 4, 7, 2, 5, 8, 0, 3, 6),
    (6, 0, 3, 7, 1, 4, 8, 2, 5),
)

QUTRIT_SHIFT_TABLE = (
    (0, 3, 6, 1, 4, 7, 2, 5, 8),
    (6, 0, 3, 7, 1, 4, 8, 2, 5),
    (3, 6, 0, 4, 7, 1, 5, 8, 2),
    (8, 2, 5, 0, 3, 6, 1, 4, 7),
    (5, 8, 2, 6, 0, 3, 7, 1, 4),
    (2, 5, 8, 3, 6, 0, 4, 7, 1),
    (7, 1, 4, 8, 2, 5, 0, 3, 6),
    (4, 7, 1, 5, 8, 2, 6, 0, 3),
    (1, 4, 7, 2, 5, 8, 3, 6, 0),
)


def diff_tables(
    computed: tuple[tuple[int, ...], ...], expected: tuple[tuple[int, ...], ...]
) -> tuple[tuple[int, int, int, int], ...]:
    """Cells where two equally sized integer tables disagree, as
    ``(row, column, computed, expected)`` in row-major order."""
    if len(computed) != len(expected) or any(
        len(a) != len(b) for a, b in zip(computed, expected)
    ):
        raise ValueError("tables have different shapes")
    return tuple(
        (r, c, computed[r][c], expected[r][c])
        for r in range(len(computed))
        for c in range(len(computed[r]))
        if computed[r][c] != expected[r][c]
    )
