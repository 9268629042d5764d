"""Permutation algebra for bus-mediated coupling schemes.

Basis labels are zero-based integers ``0..size-1``.  A permutation acts on a
label as ``p(s)``; composition is right-to-left, so ``compose(p, q)`` applies
``q`` first.  Conditional couplings are described by :class:`OperatorSet`
(one permutation of the bus per level of the controlling qudit), and a family
of sets is usable for faithful transfer exactly when
:func:`validate_interaction_sets` reports Hilbert-Schmidt orthogonality of all
conditional combinations.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "CycleParseError",
    "OperatorSet",
    "Permutation",
    "ValidityReport",
    "build_hv_sets",
    "build_shift_sets",
    "bus_registers",
    "combined_operators",
    "compose",
    "cyclic_set",
    "derangement_count",
    "digits_to_label",
    "enumerate_derangements",
    "format_cycles",
    "hs_inner",
    "identity",
    "is_derangement",
    "label_digits",
    "parse_cycles",
    "registers_to_label",
    "shift_power",
    "validate_interaction_sets",
]

DERANGEMENT_COUNT_CAP = 20
DERANGEMENT_ENUM_LIMIT = 9


class CycleParseError(ValueError):
    """Raised when cycle-notation text is malformed."""


@dataclass(frozen=True, slots=True)
class Permutation:
    """Bijection on ``range(size)`` stored as an image tuple.

    ``mapping[s]`` is the image of label ``s``.
    """

    mapping: tuple[int, ...]

    def __post_init__(self) -> None:
        seen = [False] * len(self.mapping)
        for image in self.mapping:
            if not isinstance(image, int) or not 0 <= image < len(self.mapping):
                raise ValueError(f"label {image!r} outside range(0, {len(self.mapping)})")
            if seen[image]:
                raise ValueError(f"label {image} repeated; not a bijection")
            seen[image] = True

    @property
    def size(self) -> int:
        return len(self.mapping)

    def __call__(self, label: int) -> int:
        return self.mapping[label]

    def __repr__(self) -> str:
        return f"Permutation({format_cycles(self) or 'identity'}, size={self.size})"

    def is_identity(self) -> bool:
        return all(image == s for s, image in enumerate(self.mapping))

    def fixed_points(self) -> tuple[int, ...]:
        return tuple(s for s, image in enumerate(self.mapping) if image == s)

    def inverse(self) -> "Permutation":
        inv = [0] * self.size
        for s, image in enumerate(self.mapping):
            inv[image] = s
        return Permutation(tuple(inv))

    def power(self, exponent: int) -> "Permutation":
        """Integer power; negative exponents use the inverse.  Each label
        moves ``exponent`` steps along its cycle, so the cost is O(size)
        whatever the exponent."""
        images = list(range(self.size))
        for cycle in self.cycles():
            for i, s in enumerate(cycle):
                images[s] = cycle[(i + exponent) % len(cycle)]
        return Permutation(tuple(images))

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Nontrivial cycles, each starting at its smallest label, ordered by it."""
        out: list[tuple[int, ...]] = []
        visited = [False] * self.size
        for start in range(self.size):
            if visited[start]:
                continue
            cycle = [start]
            visited[start] = True
            current = self.mapping[start]
            while current != start:
                visited[current] = True
                cycle.append(current)
                current = self.mapping[current]
            if len(cycle) > 1:
                out.append(tuple(cycle))
        return tuple(out)


def identity(size: int) -> Permutation:
    return Permutation(tuple(range(size)))


def compose(p: Permutation, q: Permutation) -> Permutation:
    """Composition ``p after q``: ``compose(p, q)(s) == p(q(s))``."""
    if p.size != q.size:
        raise ValueError(f"size mismatch: {p.size} != {q.size}")
    return Permutation(tuple(p.mapping[image] for image in q.mapping))


def is_derangement(p: Permutation) -> bool:
    """True when ``p`` moves every label."""
    return not p.fixed_points() and p.size > 0


def hs_inner(p: Permutation, q: Permutation) -> int:
    """Hilbert-Schmidt inner product Tr(P Q^dagger) of the permutation matrices.

    Equals the number of labels on which ``p`` and ``q`` agree, so it is 0
    exactly when ``compose(p.inverse(), q)`` is a derangement.
    """
    if p.size != q.size:
        raise ValueError(f"size mismatch: {p.size} != {q.size}")
    return sum(a == b for a, b in zip(p.mapping, q.mapping))


def parse_cycles(text: str, size: int) -> Permutation:
    """Parse disjoint cycle notation like ``"(0,1)(2,3)"`` into a Permutation.

    Grammar: zero or more cycles, each ``"(" int ("," int)+ ")"``; whitespace
    is allowed between tokens.  The empty string is the identity.

    Args:
        text: cycle-notation source.
        size: number of labels the permutation acts on.

    Raises:
        CycleParseError: on malformed text, out-of-range labels, labels
            repeated across or within cycles, or single-element cycles.
    """
    if size < 0:
        raise ValueError("size must be nonnegative")
    mapping = list(range(size))
    seen: set[int] = set()
    pos = 0
    end = len(text)

    def skip_ws(i: int) -> int:
        while i < end and text[i].isspace():
            i += 1
        return i

    def parse_int(i: int) -> tuple[int, int]:
        j = i
        while j < end and text[j].isdigit():
            j += 1
        if j == i:
            raise CycleParseError(f"expected a label at position {i} in {text!r}")
        return int(text[i:j]), j

    pos = skip_ws(pos)
    while pos < end:
        if text[pos] != "(":
            raise CycleParseError(f"expected '(' at position {pos} in {text!r}")
        pos = skip_ws(pos + 1)
        labels: list[int] = []
        while True:
            label, pos = parse_int(pos)
            if label >= size:
                raise CycleParseError(f"label {label} outside range(0, {size})")
            if label in seen:
                raise CycleParseError(f"label {label} appears twice; cycles must be disjoint")
            seen.add(label)
            labels.append(label)
            pos = skip_ws(pos)
            if pos < end and text[pos] == ",":
                pos = skip_ws(pos + 1)
                continue
            if pos < end and text[pos] == ")":
                pos += 1
                break
            raise CycleParseError(f"expected ',' or ')' at position {pos} in {text!r}")
        if len(labels) < 2:
            raise CycleParseError("single-element cycles are not allowed")
        for a, b in zip(labels, labels[1:]):
            mapping[a] = b
        mapping[labels[-1]] = labels[0]
        pos = skip_ws(pos)
    return Permutation(tuple(mapping))


def format_cycles(p: Permutation) -> str:
    """Canonical cycle notation: fixed points omitted, cycles ordered and
    rotated so each starts at its smallest label; identity formats as ``""``."""
    return "".join("(" + ",".join(str(s) for s in cycle) + ")" for cycle in p.cycles())


@dataclass(frozen=True, slots=True)
class OperatorSet:
    """Bus permutations conditioned on one qudit: member ``k`` acts when the
    controlling qudit is in level ``k``.

    Invariants: exactly ``subsystem_dim`` members, member 0 is the identity,
    and all members act on the same number of bus labels.
    """

    subsystem_dim: int
    members: tuple[Permutation, ...]

    def __post_init__(self) -> None:
        if self.subsystem_dim < 1:
            raise ValueError("subsystem_dim must be positive")
        if len(self.members) != self.subsystem_dim:
            raise ValueError(
                f"need {self.subsystem_dim} members, got {len(self.members)}"
            )
        if not self.members[0].is_identity():
            raise ValueError("member 0 must be the identity")
        sizes = {member.size for member in self.members}
        if len(sizes) != 1:
            raise ValueError(f"members act on mixed label counts {sorted(sizes)}")

    @property
    def bus_dim(self) -> int:
        return self.members[0].size

    def inverses(self) -> "OperatorSet":
        """The inverse-ordered set: member ``k`` replaced by its inverse."""
        return OperatorSet(self.subsystem_dim, tuple(m.inverse() for m in self.members))


@dataclass(frozen=True, slots=True, eq=False)
class ValidityReport:
    """Outcome of the Hilbert-Schmidt orthogonality check for one party.

    ``table`` is the party's compiled form: ``table[a]`` holds the images of
    conditional combination ``a`` (composite odometer order, first qudit most
    significant), as a ``(d**m, d**m)`` integer array.  The family is valid
    when no two combinations agree on any label; the first violating pair of
    combination digit-tuples is recorded when invalid.
    """

    valid: bool
    violating_pair: tuple[tuple[int, ...], tuple[int, ...]] | None
    table: np.ndarray

    @property
    def fixed_point_counts(self) -> tuple[tuple[int, ...], ...]:
        """``hs_inner`` of every pair of combinations; O(D**3) time, computed
        on each access."""
        return tuple(tuple(int(n) for n in (self.table == row).sum(axis=1)) for row in self.table)


def _combination_table(sets: tuple[OperatorSet, ...] | list[OperatorSet]) -> np.ndarray:
    """Images of every conditional combination as rows, composite odometer
    order; see :func:`combined_operators`."""
    if not sets:
        raise ValueError("need at least one operator set")
    bus = sets[0].bus_dim
    table = np.arange(bus, dtype=np.intp)[None, :]
    for opset in sets:
        if opset.bus_dim != bus:
            raise ValueError(f"size mismatch: {opset.bus_dim} != {bus}")
        members = np.array([member.mapping for member in opset.members], dtype=np.intp)
        # members[k][table[p]] is combination p followed by member k, at index p*d + k.
        table = members[:, table].swapaxes(0, 1).reshape(-1, bus)
    return table


def combined_operators(sets: tuple[OperatorSet, ...] | list[OperatorSet]) -> list[Permutation]:
    """All conditional combinations, composite odometer order.

    Combination for digits ``(k_1, .., k_m)`` applies set 1's member first:
    ``members_m[k_m] o .. o members_1[k_1]``.  Index in the returned list is
    the composite label with the first qudit as the most significant digit.
    """
    return [Permutation(tuple(row)) for row in _combination_table(sets).tolist()]


def validate_interaction_sets(
    sets: tuple[OperatorSet, ...] | list[OperatorSet], d: int, m: int
) -> ValidityReport:
    """Check one party's operator sets for faithful conditional readout.

    The ratio of two combinations is a derangement exactly when they
    disagree on every label, so the family is valid exactly when every
    column of the combination table holds distinct labels.  The check takes
    O(D**2) time and memory for ``D = d**m``.

    Args:
        sets: ``m`` operator sets, one per qudit, each with ``d`` members
            acting on ``d**m`` bus labels.
        d: qudit dimension.
        m: number of qudits coupled to the bus.

    Returns:
        ValidityReport holding the combination table; the first violating
        pair (lowest first combination, then lowest partner) is recorded
        when invalid.

    Raises:
        ValueError: on structural mismatch (wrong set count, member count,
            or bus label count).
    """
    if m < 1 or d < 1:
        raise ValueError("d and m must be positive")
    if len(sets) != m:
        raise ValueError(f"need {m} operator sets, got {len(sets)}")
    bus = d**m
    for j, opset in enumerate(sets):
        if opset.subsystem_dim != d:
            raise ValueError(f"set {j} conditions a dim-{opset.subsystem_dim} qudit, expected {d}")
        if opset.bus_dim != bus:
            raise ValueError(f"set {j} acts on {opset.bus_dim} bus labels, expected {bus}")
    table = _combination_table(sets)
    columns = np.arange(bus)
    # counts[label, column]: how many combinations send that column to that label.
    counts = np.bincount((table * bus + columns).ravel(), minlength=bus * bus).reshape(bus, bus)
    clashing = (counts[table, columns] > 1).any(axis=1)
    violating_pair = None
    if clashing.any():
        a = int(np.argmax(clashing))
        partners = (table == table[a]).any(axis=1)
        partners[a] = False
        b = int(np.argmax(partners))
        violating_pair = (label_digits(a, d, m), label_digits(b, d, m))
    return ValidityReport(valid=violating_pair is None, violating_pair=violating_pair, table=table)


def _horizontal_step(d: int) -> Permutation:
    """Cycle the low digit of a two-digit label: ``s -> d*(s//d) + (s%d + 1)%d``."""
    return Permutation(tuple(d * (s // d) + (s % d + 1) % d for s in range(d * d)))


def _vertical_step(d: int) -> Permutation:
    """Cycle the high digit of a two-digit label: ``s -> s%d + d*((s//d + 1)%d)``."""
    return Permutation(tuple(s % d + d * ((s // d + 1) % d) for s in range(d * d)))


def build_hv_sets(d: int) -> tuple[OperatorSet, OperatorSet]:
    """Row/column cycling sets for two qudits on a ``d*d`` bus.

    Set 1 holds powers of the horizontal step ``h`` (cycles the bus label
    within a block of ``d``), set 2 powers of the vertical step ``v`` (cycles
    between blocks).  Both families are valid for every ``d >= 2``.
    """
    if d < 2:
        raise ValueError("qudit dimension must be at least 2")
    h = _horizontal_step(d)
    v = _vertical_step(d)
    first = OperatorSet(d, tuple(h.power(k) for k in range(d)))
    second = OperatorSet(d, tuple(v.power(k) for k in range(d)))
    return first, second


def shift_power(size: int, k: int) -> Permutation:
    """Power ``k`` of the full cycle ``s -> s+1`` on ``size`` labels:
    ``s -> (s + k) % size``."""
    return Permutation(tuple((s + k) % size for s in range(size)))


def cyclic_set(generator: Permutation, d: int) -> OperatorSet:
    """Operator set ``{generator**k : k < d}``; the powers must be distinct."""
    members = tuple(generator.power(k) for k in range(d))
    if len({member.mapping for member in members}) != d:
        raise ValueError("generator powers collide; cannot form a d-member set")
    return OperatorSet(d, members)


def build_shift_sets(d: int, m: int) -> tuple[OperatorSet, ...]:
    """Single-cycle power sets for ``m`` qudits on a ``d**m`` bus.

    Set ``j`` (zero-based) holds ``{X**(k * d**j) : k < d}`` where ``X`` is
    the full ``d**m``-cycle ``s -> s+1``; distinct qudits address disjoint
    digit strides, so the family is valid for every ``d, m``.
    """
    if d < 2 or m < 1:
        raise ValueError("need d >= 2 and m >= 1")
    bus = d**m
    return tuple(
        OperatorSet(d, tuple(shift_power(bus, k * d**j) for k in range(d))) for j in range(m)
    )


def derangement_count(n: int) -> int:
    """Exact number of derangements of ``n`` labels.

    Uses the alternating-sum formula ``!n = sum_k (-1)^k n!/k!`` with integer
    arithmetic.  Capped at ``n <= 20`` to keep the result a provably exact
    machine-checkable integer path.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > DERANGEMENT_COUNT_CAP:
        raise ValueError(f"n={n} exceeds the exact-count cap {DERANGEMENT_COUNT_CAP}")
    total = math.factorial(n)
    return sum((-1) ** k * (total // math.factorial(k)) for k in range(n + 1))


def enumerate_derangements(n: int, limit: int = DERANGEMENT_ENUM_LIMIT) -> list[Permutation]:
    """All derangements of ``n`` labels in lexicographic image order.

    Args:
        n: number of labels.
        limit: refuse enumeration beyond this size (default 9, i.e. at most
            133496 permutations).
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    if n > limit:
        raise ValueError(f"n={n} exceeds enumeration limit {limit}")
    if n == 0:
        return [Permutation(())]
    return [
        Permutation(images)
        for images in itertools.permutations(range(n))
        if all(image != s for s, image in enumerate(images))
    ]


def label_digits(label: int, d: int, m: int) -> tuple[int, ...]:
    """Big-endian digits of a composite label (first qudit most significant)."""
    if not 0 <= label < d**m:
        raise ValueError(f"label {label} outside range(0, {d**m})")
    digits = []
    for j in range(m):
        digits.append(label // d ** (m - 1 - j) % d)
    return tuple(digits)


def digits_to_label(digits: tuple[int, ...] | list[int], d: int) -> int:
    """Inverse of :func:`label_digits`."""
    label = 0
    for digit in digits:
        if not 0 <= digit < d:
            raise ValueError(f"digit {digit} outside range(0, {d})")
        label = label * d + digit
    return label


def bus_registers(label: int, d: int) -> tuple[int, int]:
    """Two-register reading of a ``d*d`` bus label: ``(label % d, label // d)``.

    The first register is the low digit; a transfer over row/column cycling
    sets parks the first qudit's shift there.
    """
    if not 0 <= label < d * d:
        raise ValueError(f"label {label} outside range(0, {d * d})")
    return label % d, label // d


def registers_to_label(first: int, second: int, d: int) -> int:
    """Inverse of :func:`bus_registers`."""
    if not (0 <= first < d and 0 <= second < d):
        raise ValueError("register values must lie in range(0, d)")
    return first + d * second
