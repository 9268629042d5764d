"""Induced mappings of bus-mediated transfer: matrices, classification, search.

A valid interaction spec induces, for every bus outcome, a permutation of
Bob's register relative to Alice's input.  This module builds the
pre-measurement matrix that tabulates those outcomes, extracts and classifies
the outcome permutations (local vs entangling, maximally entangling or not),
and searches structured families of operator sets for specs with a requested
character.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .perms import (
    OperatorSet,
    Permutation,
    ValidityReport,
    build_hv_sets,
    compose,
    cyclic_set,
    enumerate_derangements,
    identity,
    shift_power,
    validate_interaction_sets,
)
from .states import DEFAULT_DIMENSION_CAP

__all__ = [
    "DEFAULT_SEARCH_BUDGET",
    "InteractionSpec",
    "InvalidInteractionError",
    "MAX_BUS_DIM",
    "MappingClass",
    "PreMeasurementMatrix",
    "SearchHit",
    "SearchResult",
    "block_criteria",
    "check_bus_dim",
    "classify_mapping",
    "factor_composite",
    "is_maximally_entangling",
    "outcome_permutation",
    "premeasurement_matrix",
    "search_sets",
    "strip_local_factor",
]

DEFAULT_SEARCH_BUDGET = 9**4
SEARCH_FAMILIES = ("pairwise+cyclic", "hv_products", "shift_powers", "exhaustive")
SEARCH_OBJECTIVES = ("any-valid", "local", "entangling", "maximal")
# Largest bus d**m: a party's (D, D) combination table then holds at most
# DEFAULT_DIMENSION_CAP entries.
MAX_BUS_DIM = math.isqrt(DEFAULT_DIMENSION_CAP)


def check_bus_dim(d: int, m: int) -> None:
    """Refuse ``d**m > MAX_BUS_DIM``; the loop stops at the first power past
    the limit, so a huge ``m`` is never evaluated.

    Raises:
        ValueError: naming the bus dimension and the limit.
    """
    if abs(d) < 2:
        return
    bus = 1
    for _ in range(m):
        bus *= abs(d)
        if bus > MAX_BUS_DIM:
            raise ValueError(f"bus dimension {d}**{m} exceeds the limit {MAX_BUS_DIM}")


class InvalidInteractionError(ValueError):
    """An interaction spec failed Hilbert-Schmidt orthogonality validation."""

    def __init__(self, party: str, report: ValidityReport):
        self.party = party
        self.report = report
        super().__init__(
            f"{party} operator sets are invalid: combinations {report.violating_pair} "
            "share fixed points"
        )


@dataclass(frozen=True, slots=True)
class InteractionSpec:
    """Operator sets for both parties of a bus-mediated protocol.

    Structural consistency (counts and dimensions) is enforced on
    construction; Hilbert-Schmidt validity is checked by :meth:`validate`,
    which every simulation and matrix entry point calls first.
    """

    d: int
    m: int
    alice_sets: tuple[OperatorSet, ...]
    bob_sets: tuple[OperatorSet, ...]

    def __post_init__(self) -> None:
        if self.d < 2 or self.m < 1:
            raise ValueError("need d >= 2 and m >= 1")
        for party, sets in (("alice", self.alice_sets), ("bob", self.bob_sets)):
            if len(sets) != self.m:
                raise ValueError(f"{party} needs {self.m} operator sets, got {len(sets)}")
            for j, opset in enumerate(sets):
                if opset.subsystem_dim != self.d:
                    raise ValueError(f"{party} set {j} has subsystem_dim {opset.subsystem_dim}")
                if opset.bus_dim != self.bus_dim:
                    raise ValueError(f"{party} set {j} acts on {opset.bus_dim} bus labels")

    @property
    def bus_dim(self) -> int:
        return self.d**self.m

    def validate(self) -> tuple[ValidityReport, ValidityReport]:
        """Validate both parties; raise on the first invalid one.

        Raises:
            InvalidInteractionError: carrying the failing party's report.
        """
        reports = []
        for party, sets in (("alice", self.alice_sets), ("bob", self.bob_sets)):
            report = validate_interaction_sets(sets, self.d, self.m)
            if not report.valid:
                raise InvalidInteractionError(party, report)
            reports.append(report)
        return reports[0], reports[1]


@dataclass(frozen=True, slots=True)
class PreMeasurementMatrix:
    """Bus labels just before the final computational measurement.

    Rows are indexed by the measuring party's conditional combination (Bob's
    in transfer, Alice's in teleport), columns by the preparing party's
    combination; both use composite odometer order.  ``entries[r][c]`` is the
    bus label on that branch.  For a valid spec every row and column is a
    permutation of the labels (a Latin square).  ``outcomes[label]`` is the
    outcome permutation of that bus label (see :func:`outcome_permutation`).
    """

    d: int
    m: int
    direction: str
    entries: tuple[tuple[int, ...], ...]
    outcomes: tuple[Permutation, ...] = field(repr=False, compare=False)

    @property
    def size(self) -> int:
        return self.d**self.m

    def is_latin(self) -> bool:
        full = set(range(self.size))
        rows_ok = all(set(row) == full for row in self.entries)
        cols_ok = all({row[c] for row in self.entries} == full for c in range(self.size))
        return rows_ok and cols_ok


def _outcome_tables(entries: np.ndarray) -> np.ndarray:
    """Outcome permutations of ``(..., D, D)`` matrix entries, one per row:
    ``sigma[..., label, c]`` is the row holding ``label`` in column ``c``.

    Validity makes every column of the entries a permutation of the labels,
    so one scatter inverts all columns at once.
    """
    sigma = np.empty_like(entries)
    rows = np.arange(entries.shape[-1])
    np.put_along_axis(sigma, entries, rows[:, None], axis=-2)
    return sigma


def _gather_matrix(
    d: int, m: int, direction: str, alice: np.ndarray, bob: np.ndarray
) -> PreMeasurementMatrix:
    """Matrix and outcome permutations from two valid combination tables."""
    if direction == "transfer":
        entries = bob[:, alice[:, 0]]
    else:
        entries = alice[:, bob[:, 0]].T
    return PreMeasurementMatrix(
        d,
        m,
        direction,
        tuple(map(tuple, entries.tolist())),
        tuple(Permutation(tuple(images)) for images in _outcome_tables(entries).tolist()),
    )


def premeasurement_matrix(spec: InteractionSpec, direction: str = "transfer") -> PreMeasurementMatrix:
    """Tabulate the bus label for every (preparer, measurer) branch.

    In transfer, Alice's combination ``c`` sends the bus to label ``A_c(0)``
    and Bob's combination ``r`` then takes it to ``B_r(A_c(0))``.  In
    teleport Bob couples first, so the entry is ``A_c(B_r(0))``.

    Raises:
        InvalidInteractionError: the spec fails validation.
    """
    if direction not in ("transfer", "teleport"):
        raise ValueError(f"unknown direction {direction!r}")
    alice, bob = spec.validate()
    return _gather_matrix(spec.d, spec.m, direction, alice.table, bob.table)


def outcome_permutation(matrix: PreMeasurementMatrix, bus_label: int) -> Permutation:
    """Permutation linking preparer combinations to measurer combinations for
    one bus outcome: column ``c`` maps to the row ``r`` with
    ``entries[r][c] == bus_label``.

    Raises:
        ValueError: the label is outside the bus.
    """
    if not 0 <= bus_label < matrix.size:
        raise ValueError(f"bus label {bus_label} outside range(0, {matrix.size})")
    return matrix.outcomes[bus_label]


def factor_composite(p: Permutation, dims: tuple[int, ...] | list[int]) -> list[Permutation] | None:
    """Factor a composite-label permutation into independent per-subsystem
    permutations, or return None when impossible.

    ``dims`` are the subsystem dimensions in most-significant-first order and
    must multiply to ``p.size``.
    """
    dims = tuple(int(d) for d in dims)
    total = 1
    for d in dims:
        total *= d
    if total != p.size:
        raise ValueError(f"dims {dims} do not multiply to {p.size}")
    strides = []
    acc = 1
    for d in reversed(dims):
        strides.append(acc)
        acc *= d
    strides.reverse()
    factors = []
    for j, d in enumerate(dims):
        images = [p(k * strides[j]) // strides[j] % d for k in range(d)]
        if sorted(images) != list(range(d)):
            return None
        factors.append(Permutation(tuple(images)))
    for labels in itertools.product(*(range(d) for d in dims)):
        composite = sum(k * s for k, s in zip(labels, strides))
        expected = sum(f(k) * s for f, k, s in zip(factors, labels, strides))
        if p(composite) != expected:
            return None
    return factors


def strip_local_factor(p: Permutation, d: int) -> tuple[tuple[Permutation, Permutation], Permutation]:
    """Split ``p = (a (x) b) o residual`` with the canonical local factor.

    ``a`` is read off the first output digit along column 0 and ``b`` off the
    second output digit along row 0; when either read-off is not a bijection
    the local factor defaults to the identity pair and the residual is ``p``
    itself.  For a locally factorizable ``p`` the residual is the identity;
    for the entangling branches of valid two-qudit specs the residual is the
    canonical entangling core (a controlled shift).
    """
    if p.size != d * d:
        raise ValueError(f"permutation acts on {p.size} labels, expected {d * d}")
    a_images = [p(i * d) // d for i in range(d)]
    b_images = [p(j) % d for j in range(d)]
    if sorted(a_images) != list(range(d)) or sorted(b_images) != list(range(d)):
        ident = identity(d)
        return (ident, ident), p
    a = Permutation(tuple(a_images))
    b = Permutation(tuple(b_images))
    local = Permutation(tuple(a(i) * d + b(j) for i in range(d) for j in range(d)))
    residual = compose(local.inverse(), p)
    return (a, b), residual


def _exchange(d: int) -> Permutation:
    return Permutation(tuple((s % d) * d + s // d for s in range(d * d)))


def block_criteria(p: Permutation, d: int) -> tuple[bool, bool, bool, bool]:
    """The four block-structure criteria on the ``d**2 x d**2`` permutation
    matrix of ``p`` partitioned into ``d x d`` blocks.

    Reading: matrix row = output label ``p(s)``, column = input label ``s``;
    block row/column = leading digit, position within a block = trailing
    digit.  Criteria: (1) every block holds exactly one entry, (2) all blocks
    differ as patterns, (3) within each block row the entries occupy distinct
    sub-columns, (4) within each block column the entries occupy distinct
    sub-rows.  All four hold exactly when both output digits are Latin-square
    functions of the input digits.
    """
    if p.size != d * d:
        raise ValueError(f"permutation acts on {p.size} labels, expected {d * d}")
    block_entries: dict[tuple[int, int], list[tuple[int, int]]] = {}
    for col in range(d * d):
        row = p(col)
        key = (row // d, col // d)
        block_entries.setdefault(key, []).append((row % d, col % d))
    one_entry_each = len(block_entries) == d * d and all(
        len(v) == 1 for v in block_entries.values()
    )
    patterns = [
        frozenset(block_entries.get((block_row, block_col), ()))
        for block_row in range(d)
        for block_col in range(d)
    ]
    all_blocks_differ = len(set(patterns)) == d * d
    row_subcols_ok = all(
        len(
            subcols := [
                sc
                for block_col in range(d)
                for _, sc in block_entries.get((block_row, block_col), ())
            ]
        )
        == len(set(subcols))
        for block_row in range(d)
    )
    col_subrows_ok = all(
        len(
            subrows := [
                sr
                for block_row in range(d)
                for sr, _ in block_entries.get((block_row, block_col), ())
            ]
        )
        == len(set(subrows))
        for block_col in range(d)
    )
    return one_entry_each, all_blocks_differ, row_subcols_ok, col_subrows_ok


def is_maximally_entangling(p: Permutation, d: int) -> bool:
    """Whether a two-subsystem permutation gate creates maximal average
    entanglement from product inputs.

    For ``d >= 3`` this is the four block criteria of :func:`block_criteria`.
    No two-qubit permutation satisfies those literally, yet the
    entangling-power-maximal two-qubit classes exist (the controlled-flip
    classes and their exchange composites); at ``d == 2`` the equivalent test
    is that neither ``p`` nor ``exchange o p`` factors into local
    permutations.
    """
    if p.size != d * d:
        raise ValueError(f"permutation acts on {p.size} labels, expected {d * d}")
    if d == 2:
        return (
            factor_composite(p, (d, d)) is None
            and factor_composite(compose(_exchange(d), p), (d, d)) is None
        )
    return all(block_criteria(p, d))


def _all_distinct(keys: np.ndarray) -> np.ndarray:
    """Whether each row of ``keys`` (last axis, values in ``range(n)`` for a
    last axis of length ``n``) holds every value once."""
    return (np.sort(keys, axis=-1) == np.arange(keys.shape[-1])).all(axis=-1)


def _local_mask(sigma: np.ndarray, d: int, m: int) -> np.ndarray:
    """Which permutations, the rows of ``sigma`` (last axis the ``d**m``
    composite labels), factor into per-qudit permutations: the table form
    of :func:`factor_composite`.

    Qudit ``j`` with stride ``s`` reads its factor off the labels ``k*s``;
    the row is local when every read-off is a bijection and the product of
    the read-offs reproduces the row.
    """
    labels = np.arange(sigma.shape[-1])
    levels = np.arange(d)
    local = np.ones(sigma.shape[:-1], dtype=bool)
    product = np.zeros_like(sigma)
    for j in range(m):
        stride = d ** (m - 1 - j)
        factor = sigma[..., levels * stride] // stride % d
        local &= _all_distinct(factor)
        product += factor[..., labels // stride % d] * stride
    return local & (product == sigma).all(axis=-1)


def _maximal_mask(sigma: np.ndarray, d: int) -> np.ndarray:
    """Which two-qudit permutations, the rows of ``sigma``, are maximally
    entangling: the table form of :func:`is_maximally_entangling`.

    At ``d >= 3`` the four block criteria hold together exactly when each
    of four keys, pairing the block or in-block digit of the output
    (``row``) with that of the input (``col``), takes ``d*d`` distinct
    values: one entry per block, distinct in-block patterns, distinct
    sub-columns per block row and distinct sub-rows per block column.
    """
    if d == 2:
        exchanged = sigma % d * d + sigma // d
        return ~_local_mask(sigma, d, 2) & ~_local_mask(exchanged, d, 2)
    col_block, col_sub = np.divmod(np.arange(d * d), d)
    row_block, row_sub = np.divmod(sigma, d)
    # One key at a time keeps a single key table alive.
    return (
        _all_distinct(row_block * d + col_block)
        & _all_distinct(row_sub * d + col_sub)
        & _all_distinct(row_block * d + col_sub)
        & _all_distinct(col_block * d + row_sub)
    )


def _classify_outcomes(sigma: np.ndarray, d: int, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Classify ``(..., D, D)`` outcome tables, one mapping per leading index:
    the ``(..., D)`` local mask of the outcomes and the ``(...)`` mask of
    mappings whose every outcome is maximally entangling (``m == 2`` only)."""
    local = _local_mask(sigma, d, m)
    if m != 2:
        return local, np.zeros(sigma.shape[:-2], dtype=bool)
    return local, _maximal_mask(sigma, d).all(axis=-1)


@dataclass(frozen=True, slots=True)
class MappingClass:
    """Classification of a spec's induced mapping across all bus outcomes."""

    kind: str
    per_outcome: tuple[str, ...]
    maximal: bool


def classify_mapping(
    source: InteractionSpec | PreMeasurementMatrix, d: int | None = None
) -> MappingClass:
    """Classify every bus outcome of a mapping as local or entangling.

    Accepts either an :class:`InteractionSpec` (its transfer matrix is built
    first) or a :class:`PreMeasurementMatrix`; ``d`` is an optional
    cross-check against the matrix dimension.  ``kind`` is ``"local"`` /
    ``"entangling"`` when all outcomes agree and ``"combined"`` otherwise;
    ``maximal`` is True when every outcome permutation is maximally
    entangling.

    Raises:
        InvalidInteractionError: the spec fails validation.
        ValueError: ``d`` disagrees with the matrix dimension.
    """
    if isinstance(source, InteractionSpec):
        matrix = premeasurement_matrix(source, "transfer")
    else:
        matrix = source
    if d is not None and d != matrix.d:
        raise ValueError(f"matrix has subsystem dimension {matrix.d}, not {d}")
    sigma = np.array([outcome.mapping for outcome in matrix.outcomes], dtype=np.intp)
    local, maximal = _classify_outcomes(sigma, matrix.d, matrix.m)
    return _mapping_class(local, maximal)


def _mapping_class(local: np.ndarray, maximal: np.ndarray) -> MappingClass:
    """The :class:`MappingClass` of one mapping from its outcomes' local mask."""
    if local.all():
        kind = "local"
    elif not local.any():
        kind = "entangling"
    else:
        kind = "combined"
    labels = tuple("local" if flag else "entangling" for flag in local.tolist())
    return MappingClass(kind=kind, per_outcome=labels, maximal=bool(maximal))


@dataclass(frozen=True, slots=True)
class SearchHit:
    """One valid spec found by :func:`search_sets`, with its classification."""

    spec: InteractionSpec
    mapping: MappingClass


@dataclass(frozen=True, slots=True)
class SearchResult:
    """Hits plus bookkeeping; ``budget_exceeded`` marks a truncated search."""

    hits: tuple[SearchHit, ...]
    examined: int
    budget_exceeded: bool


def _cyclic_sets(generators, d: int) -> list[OperatorSet]:
    """The cyclic sets of those generators whose first ``d`` powers differ."""
    sets = []
    for generator in generators:
        try:
            sets.append(cyclic_set(generator, d))
        except ValueError:
            pass
    return sets


def _slot_sets(d: int, m: int, family: str):
    """A restartable source of candidate operator sets for one qudit slot:
    a callable returning a fresh iterable, deterministic order."""
    bus = d**m
    if family == "pairwise+cyclic":
        if d != 2 or m != 2:
            raise ValueError("pairwise+cyclic family is defined for d=2, m=2")
        slot_sets = [OperatorSet(2, (identity(4), g)) for g in enumerate_derangements(4)]
    elif family == "hv_products":
        if m != 2:
            raise ValueError("hv_products family is defined for m=2")
        h, v = (s.members[1] for s in build_hv_sets(d))
        slot_sets = _cyclic_sets(
            (
                compose(v.power(n), h.power(k))
                for n, k in itertools.product(range(d), repeat=2)
                if (n, k) != (0, 0)
            ),
            d,
        )
    elif family == "shift_powers":
        slot_sets = _cyclic_sets((shift_power(bus, stride) for stride in range(1, bus)), d)
    elif family == "exhaustive":
        generators = enumerate_derangements(bus)

        def slots():
            for choice in itertools.permutations(generators, d - 1):
                yield OperatorSet(d, (identity(bus),) + tuple(choice))

        return slots
    else:
        raise ValueError(f"unknown family {family!r}; expected one of {SEARCH_FAMILIES}")
    return lambda: slot_sets


def _lazy_product(factory, repeat: int):
    """Cartesian power of a restartable iterable without materializing it;
    unlike ``itertools.product`` this stays lazy for huge factor spaces."""
    if repeat == 0:
        yield ()
        return
    for head in factory():
        for tail in _lazy_product(factory, repeat - 1):
            yield (head,) + tail


def search_sets(
    d: int,
    family: str,
    objective: str,
    m: int = 2,
    budget: int | None = None,
) -> SearchResult:
    """Search a structured family of operator sets for specs matching an
    objective.

    Candidates pair every valid Alice family with every valid Bob family from
    the same search space; a candidate spec counts toward the budget when its
    per-party validity is evaluated.  Hits carry the spec and its mapping
    classification.

    Args:
        d: qudit dimension.
        family: one of ``pairwise+cyclic`` (two qubits, one derangement per
            slot), ``hv_products`` (cyclic sets generated by row/column step
            products), ``shift_powers`` (cyclic sets generated by powers of
            the full bus cycle), ``exhaustive`` (every assignment of distinct
            derangements to set members; budget-bound).
        objective: ``any-valid``, ``local``, ``entangling`` or ``maximal``.
        m: qudits per party.
        budget: maximum number of candidate specs to examine; default 6561.

    Returns:
        SearchResult; ``budget_exceeded`` is True when candidates remained.

    Raises:
        ValueError: an unknown family or objective, a budget below 1, or a
            bus ``d**m`` above ``MAX_BUS_DIM`` (refused before any candidate
            is built).
    """
    check_bus_dim(d, m)
    if objective not in SEARCH_OBJECTIVES:
        raise ValueError(f"unknown objective {objective!r}; expected one of {SEARCH_OBJECTIVES}")
    limit = DEFAULT_SEARCH_BUDGET if budget is None else budget
    if limit < 1:
        raise ValueError("budget must be positive")

    slots = _slot_sets(d, m, family)
    size = d**m
    # Choice index in the slot product -> combination table, None when
    # invalid; Alice and Bob walk the same product, so they share it.
    tables: dict[int, np.ndarray | None] = {}

    def party_table(index: int, sets: tuple[OperatorSet, ...]) -> np.ndarray | None:
        if index not in tables:
            report = validate_interaction_sets(sets, d, m)
            tables[index] = report.table if report.valid else None
        return tables[index]

    hits: list[SearchHit] = []

    def classify_batch(alice_sets, alice_table, batch) -> None:
        """Classify every valid Bob party of one Alice party at once and
        keep the hits, in Bob order."""
        bob = np.stack([table for _, table in batch])
        local, maximal = _classify_outcomes(_outcome_tables(bob[:, :, alice_table[:, 0]]), d, m)
        keep = {
            "any-valid": np.ones(len(batch), dtype=bool),
            "local": local.all(axis=-1),
            "entangling": ~local.any(axis=-1),
            "maximal": maximal,
        }[objective]
        for i in np.flatnonzero(keep).tolist():
            spec = InteractionSpec(d=d, m=m, alice_sets=alice_sets, bob_sets=batch[i][0])
            hits.append(SearchHit(spec=spec, mapping=_mapping_class(local[i], maximal[i])))

    examined = 0
    exceeded = False
    for a, alice_sets in enumerate(_lazy_product(slots, m)):
        alice = party_table(a, alice_sets)
        batch: list[tuple[tuple[OperatorSet, ...], np.ndarray]] = []
        for b, bob_sets in enumerate(_lazy_product(slots, m)):
            if examined >= limit:
                exceeded = True
                break
            examined += 1
            if alice is None:
                continue
            bob = party_table(b, bob_sets)
            if bob is None:
                continue
            batch.append((bob_sets, bob))
            # Bound the batch's outcome tables to DEFAULT_DIMENSION_CAP entries.
            if len(batch) * size * size >= DEFAULT_DIMENSION_CAP:
                classify_batch(alice_sets, alice, batch)
                batch = []
        if batch:
            classify_batch(alice_sets, alice, batch)
        if exceeded:
            break
    return SearchResult(hits=tuple(hits), examined=examined, budget_exceeded=exceeded)
