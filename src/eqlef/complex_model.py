"""Loading, validation, and serialization of equivariant complex documents.

A document describes a finite symmetry group, one isotropy class per pair
(conjugacy class of subgroups, component of that fixed-point stratum), and
for each class the relative cellular data of a twisted self-map: ranks,
masks separating the singular sub-part, per-cell Weyl stabilizers, the
chain map, and optional boundary operators.  Everything is validated on
load; the loaded :class:`EquivariantComplex` is immutable.

Integers anywhere in a document may be written either as JSON numbers or
as decimal strings (an optional sign and ASCII digits, surrounding
whitespace ignored); values beyond the double-precision-safe range are
serialized back as strings.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import operator
import re
import sys
from typing import AbstractSet, Any, Callable, Mapping, Sequence

from .corpus import BUILTIN_COMPLEXES
from .exact_algebra import MAX_MATRIX_ORDER, IntMatrix, _INT_ONLY
from .equivariant_groups import (
    AutGroup,
    FiniteGroup,
    GroupRingElement,
    GroupRingMatrix,
    Subgroup,
    TwistData,
    _check_group_order,
    _shown,
    weyl_group,
)

__all__ = [
    "ChainDegree",
    "IsoClassData",
    "FixedPointDatum",
    "EquivariantComplex",
    "load_complex",
    "load_builtin",
    "serialize_complex",
]

FORMAT_VERSION = 1
_JSON_SAFE_BOUND = 2**53 - 1
_DECIMAL = re.compile(r"[+-]?[0-9]+")


# ---------------------------------------------------------------------------
# primitive decoding helpers


def _require_mapping(value: Any, where: str) -> Mapping:
    if not isinstance(value, Mapping):
        raise ValueError(f"expected an object at {where}, got {type(value).__name__}.")
    return value


class _Malformed(ValueError):
    """A malformed document value; its message names the value's location.

    Decoders of the values inside a matrix raise it with a location relative
    to the value they were given, and each enclosing decoder prefixes its own
    part with :meth:`within` on the way out, so a location is formatted only
    when decoding fails.
    """

    def __init__(self, where: str, describe: Callable[[str], str]) -> None:
        super().__init__()
        self.where = where
        self._describe = describe

    def within(self, prefix: str) -> None:
        self.where = prefix + self.where

    def __str__(self) -> str:
        return self._describe(self.where)


class _TooManyDigits(_Malformed):
    """A decimal string longer than the interpreter converts to an integer."""


def _require_list(value: Any, where: str) -> list:
    if type(value) is list:
        return value
    if not isinstance(value, tuple):
        raise _Malformed(
            where, lambda at: f"expected an array at {at}, got {type(value).__name__}."
        )
    return list(value)


def _require_names(values: Sequence[Any], where: Callable[[int], str]) -> Sequence[Any]:
    """``values``, if each is a ``str``; the first that is not is refused at ``where(i)``."""
    for i, value in enumerate(values):
        if type(value) is not str:
            raise ValueError(f"expected a string at {where(i)}, got {type(value).__name__}.")
    return values


def _check_allowed_keys(mapping: Mapping, allowed: AbstractSet[str], where: str) -> None:
    for key in mapping:
        if key not in allowed:
            shown = _shown(f"'{key}'")
            raise _Malformed(
                where,
                lambda at: f"unknown field {shown} at {at}; allowed fields: {sorted(allowed)}.",
            )


def _decode_int(value: Any, where: str = "") -> int:
    """An integer written as a JSON number or a decimal string.

    ``where`` locates the value in messages; a caller that knows the
    location only on failure passes ``""`` and prefixes it with
    :meth:`_Malformed.within`.
    """
    if type(value) is int:
        return value
    if isinstance(value, bool):
        raise _Malformed(where, lambda at: f"expected an integer at {at}, got a boolean.")
    if isinstance(value, int):
        return int(value)  # a plain int, like every value the decoders return
    if isinstance(value, str):
        text = value.strip()
        if _DECIMAL.fullmatch(text):
            try:
                return int(text)
            except ValueError:  # more digits than the interpreter converts
                digits = len(text.lstrip("+-"))
                raise _TooManyDigits(
                    where,
                    lambda at: f"integer at {at} has {digits} digits, more than "
                    f"sys.get_int_max_str_digits() = {sys.get_int_max_str_digits()}.",
                ) from None
        raise _Malformed(
            where, lambda at: f"expected an integer at {at}, got {_shown(repr(value))}."
        )
    raise _Malformed(
        where, lambda at: f"expected an integer at {at}, got {type(value).__name__}."
    )


def _encode_int(value: int) -> int | str:
    return value if abs(value) <= _JSON_SAFE_BOUND else str(value)


def _decode_list(items: list, where: str, decode: Callable[[Any], Any]) -> list:
    """Every item of ``items`` decoded by ``decode``, plain ints as they are.

    ``decode`` raises :class:`_Malformed` with a location relative to the
    item, which gets the prefix ``where[j]`` on the way out; the list is
    decoded in one pass, and walked again only to find ``j`` once it fails.
    """
    if decode is _decode_int and _INT_ONLY.issuperset(map(type, items)):
        return items  # plain ints decode to themselves
    try:
        return list(map(decode, items))
    except _Malformed as exc:
        for j, item in enumerate(items):  # the first item that fails again
            try:
                decode(item)
            except _Malformed:
                break
        exc.within(f"{where}[{j}]")
        raise


def _decode_rows(
    value: Any,
    where: str,
    decode: Callable[[Any], Any],
    shape: tuple[int, int] | None = None,
) -> list[list]:
    """The rows of the array of arrays at ``where``, each entry decoded by ``decode``.

    Failures are located at ``where[i][j]`` (see :func:`_decode_list`).
    With ``shape = (rows, cols)``, the array must have exactly that shape.
    """
    raw_rows = _require_list(value, where)
    if shape is not None and len(raw_rows) != shape[0]:
        raise ValueError(f"expected {shape[0]} rows at {where}, got {len(raw_rows)}.")
    rows = []
    for i, raw_row in enumerate(raw_rows):
        try:
            row = _require_list(raw_row, "")
        except _Malformed as exc:
            exc.within(f"{where}[{i}]")
            raise
        if shape is not None and len(row) != shape[1]:
            raise ValueError(
                f"expected {shape[1]} entries in row {i} at {where}, got {len(row)}."
            )
        rows.append(_decode_list(row, f"{where}[{i}]", decode))
    return rows


def _decode_int_matrix(value: Any, rows: int, cols: int, where: str) -> IntMatrix:
    decoded = _decode_rows(value, where, _decode_int, (rows, cols))
    return IntMatrix(rows, cols, tuple(itertools.chain.from_iterable(decoded)))


def _encode_int_matrix(matrix: IntMatrix) -> list[list[int | str]]:
    return [
        [_encode_int(matrix.entry(i, j)) for j in range(matrix.cols)]
        for i in range(matrix.rows)
    ]


# ---------------------------------------------------------------------------
# group-ring entry coding

_TERM_FIELDS = frozenset({"coeff", "vector", "weyl_elem"})


def _decode_term(item: Any, aut: AutGroup) -> tuple[tuple[int, ...], int, int]:
    """One term c·(v, w) of an entry; failures are located relative to the term.

    A term is an integer c, or an object with ``coeff`` (default 1),
    ``vector`` (default 0) and ``weyl_elem`` (default the identity).
    """
    if type(item) is dict or (type(item) is not int and isinstance(item, Mapping)):
        if not _TERM_FIELDS.issuperset(item):
            _check_allowed_keys(item, _TERM_FIELDS, "")
        coefficient = _decode_int(item.get("coeff", 1), ".coeff")
        raw_vector = item.get("vector")
        if raw_vector is None:
            vector = (0,) * aut.pi1_rank
        else:
            vector_list = _require_list(raw_vector, ".vector")
            if len(vector_list) != aut.pi1_rank:
                raise _Malformed(
                    "",
                    lambda at: f"vector at {at} has length {len(vector_list)}; "
                    f"expected {aut.pi1_rank}.",
                )
            vector = tuple(_decode_list(vector_list, ".vector", _decode_int))
        raw_weyl = item.get("weyl_elem")
        if raw_weyl is None:
            w = aut.weyl.identity
        elif isinstance(raw_weyl, str):
            w = aut.weyl.element_index(raw_weyl)
        else:
            raise _Malformed(".weyl_elem", lambda at: f"expected a Weyl element label at {at}.")
        return (vector, w, coefficient)
    return ((0,) * aut.pi1_rank, aut.weyl.identity, _decode_int(item))


_PLAIN_FIELDS = frozenset({"coeff", "vector"})


def _entry_terms(value: Any, aut: AutGroup) -> tuple[tuple[tuple[int, ...], int, int], ...]:
    """The terms of a group-ring entry, one term or a list of them, in written order.

    The common shapes are decoded inline: a plain ``int``, or a ``dict``
    with no key but ``coeff`` (a plain ``int``, or absent) and ``vector``
    (absent, ``None``, or a ``list`` of ``pi1_rank`` plain ints).
    Every other term goes through :func:`_decode_term`, whose failures are
    located at ``[term k]``, so a refusal reads the same either way.
    """
    items = value if isinstance(value, (list, tuple)) else (value,)
    zero, identity = (0,) * aut.pi1_rank, aut.weyl.identity
    terms = []
    for k, item in enumerate(items):
        if type(item) is int:
            terms.append((zero, identity, item))
            continue
        if type(item) is dict and _PLAIN_FIELDS.issuperset(item):
            coefficient, vector = item.get("coeff", 1), item.get("vector")
            if type(coefficient) is int:
                if vector is None:
                    terms.append((zero, identity, coefficient))
                    continue
                if (
                    type(vector) is list
                    and len(vector) == aut.pi1_rank
                    and _INT_ONLY.issuperset(map(type, vector))
                ):
                    terms.append((tuple(vector), identity, coefficient))
                    continue
        try:
            terms.append(_decode_term(item, aut))
        except _Malformed as exc:
            exc.within(f"[term {k}]")
            raise
    return tuple(terms)


def _element(
    aut: AutGroup, terms: tuple[tuple[tuple[int, ...], int, int], ...]
) -> GroupRingElement:
    """The element Σ c·(v, w) of checked ``terms``, unchecked.

    Terms written combined already (nonzero coefficients, (w, v) strictly
    increasing, as a torus map's entries are) are the element's terms as
    they are; any others go through ``GroupRingElement._combined``.
    """
    previous = None
    for vector, w, coefficient in terms:
        if not coefficient or previous is not None and not previous < (w, vector):
            return GroupRingElement._combined(aut, terms)
        previous = (w, vector)
    return GroupRingElement._from_combined(aut, terms)


def _decode_entry(value: Any, aut: AutGroup) -> GroupRingElement:
    """A group-ring entry, one term or a list of them; failures name ``[term k]``.

    :func:`_entry_terms` decodes and checks every term, and :func:`_element`
    combines them, unchecked.
    """
    return _element(aut, _entry_terms(value, aut))


def _encode_term(
    vector: tuple[int, ...], w: int, coefficient: int, aut: AutGroup
) -> int | str | dict:
    if not any(vector) and w == aut.weyl.identity:
        return _encode_int(coefficient)
    encoded: dict[str, Any] = {"coeff": _encode_int(coefficient)}
    if any(vector):
        encoded["vector"] = [_encode_int(v) for v in vector]
    if w != aut.weyl.identity:
        encoded["weyl_elem"] = aut.weyl.labels[w]
    return encoded


def _encode_entry(element: GroupRingElement) -> Any:
    if element.is_zero:
        return 0
    encoded = [
        _encode_term(vector, w, coefficient, element.aut)
        for vector, w, coefficient in element.terms
    ]
    return encoded[0] if len(encoded) == 1 else encoded


def _decode_group_ring_matrix(
    value: Any, aut: AutGroup, rows: int, cols: int, where: str
) -> GroupRingMatrix:
    """The ``rows``×``cols`` matrix over ℤ[ℤᵏ ⋊ W] at ``where``.

    Entries with equal terms share one validated :class:`GroupRingElement`,
    built once, which is safe because elements are immutable: no method
    reassigns ``aut`` or ``terms``, and ``terms`` is a tuple.  An entry
    written as a bare integer is keyed by its value, any other by its terms
    as written (:func:`_entry_terms`).  An entry's location is formatted
    only when the entry fails to decode.
    """
    shared: dict[Any, list[GroupRingElement]] = {}

    def decode(item: Any) -> GroupRingElement:
        key = item if type(item) is int else _entry_terms(item, aut)
        # one hash of the key, hit or miss: a get, then a store, hashes a new
        # entry twice, which cost 3–5% on loads with 4000-digit coordinates
        slot = shared.setdefault(key, [])
        if not slot:
            slot.append(_decode_entry(item, aut) if key is item else _element(aut, key))
        return slot[0]

    decoded = _decode_rows(value, where, decode, (rows, cols))
    return GroupRingMatrix(aut, rows, cols, tuple(itertools.chain.from_iterable(decoded)))


def _encode_group_ring_matrix(matrix: GroupRingMatrix) -> list[list[Any]]:
    return [
        [_encode_entry(matrix.entry(i, j)) for j in range(matrix.cols)]
        for i in range(matrix.rows)
    ]


# ---------------------------------------------------------------------------
# data model


@dataclasses.dataclass(frozen=True)
class ChainDegree:
    """One degree of the relative cellular data of a class.

    ``expanded_basis`` indexes the degree restricted to the translation
    group ring: one pair (row j, r) per row and per Weyl coset of its
    stabilizer, r the coset's least element.  The loader builds it from the
    stabilizers, before any matrix is read.  :attr:`relative_map` is the
    square part of the chain map on the unmasked rows and columns: the chain
    map itself when no cell is masked.
    """

    degree: int
    rank: int
    relative_mask: tuple[bool, ...]
    stabilizers: tuple[tuple[int, ...], ...]
    expanded_basis: tuple[tuple[int, int], ...]
    chain_map: GroupRingMatrix
    boundary: GroupRingMatrix | None

    @property
    def unmasked_indices(self) -> tuple[int, ...]:
        return tuple(i for i, masked in enumerate(self.relative_mask) if not masked)

    @functools.cached_property
    def relative_map(self) -> GroupRingMatrix:
        if not any(self.relative_mask):
            return self.chain_map
        unmasked = self.unmasked_indices
        return self.chain_map.submatrix(unmasked, unmasked)


def class_label(subgroup_labels: Sequence[str], component: str) -> str:
    """The label ``(subgroup {…}, component '…')`` of an isotropy class."""
    return f"(subgroup {{{', '.join(subgroup_labels)}}}, component '{component}')"


@dataclasses.dataclass(frozen=True)
class IsoClassData:
    """The validated data of one isotropy class of a twisted self-map.

    :attr:`ladder` is the class's expanded chain data: one rung per degree,
    built on first use and then read by load-time validation, R and L.  A
    boundary into a missing degree has no columns; its rung has no degree
    below and no expanded boundary, so it enters no check and no invariant.
    """

    subgroup: Subgroup
    component: str
    aut: AutGroup
    twist: TwistData
    orbit_size: int
    degrees: tuple[ChainDegree, ...]

    @property
    def key(self) -> tuple[tuple[int, ...], str]:
        return (self.subgroup.members, self.component)

    @property
    def label(self) -> str:
        return class_label(self.subgroup.member_labels, self.component)

    def pi1_aut(self) -> AutGroup:
        """The translation-only group of the expanded matrices: :attr:`aut` if W is trivial."""
        return self.aut if self.aut.weyl.order == 1 else AutGroup.translations(self.aut.pi1_rank)

    @functools.cached_property
    def ladder(
        self,
    ) -> tuple[tuple[ChainDegree, ChainDegree | None, GroupRingMatrix, GroupRingMatrix | None], ...]:
        """One rung per degree: (entry, the degree just below or ``None``,
        expanded map, expanded boundary or ``None``), each expanded once."""
        below = {entry.degree + 1: entry for entry in self.degrees}  # keyed by the degree above
        return tuple(
            (
                entry,
                below.get(entry.degree),
                self.expand_matrix(entry.chain_map, entry, entry),
                None
                if entry.boundary is None or entry.degree not in below
                else self.expand_matrix(entry.boundary, entry, below[entry.degree]),
            )
            for entry in self.degrees
        )

    def expand_matrix(
        self,
        matrix: GroupRingMatrix,
        source: ChainDegree,
        target: ChainDegree,
    ) -> GroupRingMatrix:
        """Expand a module matrix over the Weyl cosets to translation-ring form.

        Each source basis element splits into one element per coset
        representative r of its stabilizer; a term c·(v, w) of the entry at
        (j, i) contributes c·(θ(r)·v) at target coset representative of
        r·w modulo the target stabilizer.  A trivial W makes this the
        identity, since every expanded basis is ``[(j, 0)]`` and
        :meth:`pi1_aut` is :attr:`aut`, so the module matrix is returned as
        it is.
        """
        weyl = self.aut.weyl
        if weyl.order == 1:
            return matrix
        pi1 = self.pi1_aut()
        position = {key: p for p, key in enumerate(target.expanded_basis)}
        accumulated: dict[tuple[int, int], list[tuple[tuple[int, ...], int, int]]] = {}
        for a, (j, r) in enumerate(source.expanded_basis):
            for i, element in enumerate(matrix.row(j)):
                stabilizer = target.stabilizers[i]
                for vector, w, coefficient in element.terms:
                    b = position[(i, weyl.coset_representative(weyl.multiply(r, w), stabilizer))]
                    accumulated.setdefault((a, b), []).append(
                        (self.aut.act(r, vector), pi1.weyl.identity, coefficient)
                    )
        zero = GroupRingElement.zero(pi1)
        rows, cols = len(source.expanded_basis), len(target.expanded_basis)
        entries = tuple(
            GroupRingElement._combined(pi1, accumulated[(a, b)])
            if (a, b) in accumulated
            else zero
            for a in range(rows)
            for b in range(cols)
        )
        return GroupRingMatrix(pi1, rows, cols, entries)


@dataclasses.dataclass(frozen=True)
class FixedPointDatum:
    """A recorded fixed point: its class, translation path, and local index."""

    subgroup: Subgroup
    component: str
    orbit: str | None
    index: int
    path: tuple[int, ...]


@dataclasses.dataclass(frozen=True)
class EquivariantComplex:
    """A validated equivariant complex document with its twisted self-map.

    ``builtin_group`` is the builtin name the document gave its group, if any.
    """

    group: FiniteGroup
    builtin_group: str | None
    name: str | None
    description: str | None
    classes: tuple[IsoClassData, ...]
    fixed_points: tuple[FixedPointDatum, ...]

    def fixed_points_for(self, iso: IsoClassData) -> tuple[FixedPointDatum, ...]:
        return tuple(
            fp
            for fp in self.fixed_points
            if (fp.subgroup.members, fp.component) == iso.key
        )


# ---------------------------------------------------------------------------
# loading


def _load_group(spec: Any) -> FiniteGroup:
    spec = _require_mapping(spec, "group")
    if "builtin" in spec:
        _check_allowed_keys(spec, {"builtin"}, "group")
        if not isinstance(spec["builtin"], str):
            raise ValueError("group.builtin must be a string name.")
        return FiniteGroup.builtin(spec["builtin"])
    _check_allowed_keys(spec, {"labels", "table"}, "group")
    if "labels" not in spec or "table" not in spec:
        raise ValueError("group must give either 'builtin' or both 'labels' and 'table'.")
    raw_labels = _require_list(spec["labels"], "group.labels")
    _check_group_order(len(raw_labels), "group.labels")
    labels = _require_names(raw_labels, lambda i: f"group.labels[{i}]")
    return FiniteGroup(labels, _decode_rows(spec["table"], "group.table", _decode_int))


def _load_stabilizer(
    raw: Any, weyl: FiniteGroup, where: str, members: Callable[[tuple[int, ...]], tuple[int, ...]]
) -> tuple[int, ...]:
    labels = _require_names(_require_list(raw, where), lambda k: f"{where}[{k}]")
    indices = tuple(sorted({weyl.element_index(label) for label in labels}))
    try:
        return members(indices)  # a subgroup check, once per distinct set of a degree
    except ValueError as exc:
        raise ValueError(f"stabilizer at {where}: {exc}") from None


def _load_chain_degree(
    raw: Any,
    aut: AutGroup,
    previous: ChainDegree | None,
    where: str,
) -> ChainDegree:
    raw = _require_mapping(raw, where)
    _check_allowed_keys(
        raw,
        {"degree", "rank", "relative_mask", "stabilizers", "map", "boundary"},
        where,
    )
    if "degree" not in raw or "rank" not in raw:
        raise ValueError(f"chain entry at {where} needs 'degree' and 'rank'.")
    degree = _decode_int(raw["degree"], f"{where}.degree")
    rank = _decode_int(raw["rank"], f"{where}.rank")
    if degree < 0:
        raise ValueError(f"chain degree must be nonnegative at {where}, got {degree}.")
    if rank < 0:
        raise ValueError(f"chain rank must be nonnegative at {where}, got {rank}.")
    if rank > MAX_MATRIX_ORDER:
        raise ValueError(
            f"chain rank at {where} is {rank}; ranks are limited to "
            f"MAX_MATRIX_ORDER = {MAX_MATRIX_ORDER}."
        )

    raw_mask = _require_list(raw.get("relative_mask", [False] * rank), f"{where}.relative_mask")
    if len(raw_mask) != rank:
        raise ValueError(
            f"relative_mask at {where} has length {len(raw_mask)}; expected {rank}."
        )
    for i, flag in enumerate(raw_mask):
        if not isinstance(flag, bool):
            raise ValueError(f"relative_mask[{i}] at {where} must be true or false.")
    mask = tuple(bool(v) for v in raw_mask)

    raw_stabilizers = raw.get("stabilizers")
    if raw_stabilizers is None:
        stabilizers = tuple((aut.weyl.identity,) for _ in range(rank))
    else:
        stabilizer_list = _require_list(raw_stabilizers, f"{where}.stabilizers")
        if len(stabilizer_list) != rank:
            raise ValueError(
                f"stabilizers at {where} has length {len(stabilizer_list)}; expected {rank}."
            )
        members = functools.cache(lambda indices: Subgroup(aut.weyl, indices).members)
        stabilizers = tuple(
            _load_stabilizer(s, aut.weyl, f"{where}.stabilizers[{i}]", members)
            for i, s in enumerate(stabilizer_list)
        )
    for i in range(rank):
        if not mask[i] and stabilizers[i] != (aut.weyl.identity,):
            raise ValueError(
                f"basis element {i} at {where} is unmasked but has a nontrivial "
                "stabilizer; relative basis elements must be free."
            )
    weyl = aut.weyl
    expanded_basis = tuple(
        (j, r)
        for j, stabilizer in enumerate(stabilizers)
        for r in sorted({weyl.coset_representative(w, stabilizer) for w in range(weyl.order)})
    )
    if len(expanded_basis) > MAX_MATRIX_ORDER:
        raise ValueError(
            f"chain entry at {where} expands over the Weyl cosets of its stabilizers "
            f"to rank {len(expanded_basis)}; expanded ranks are limited to "
            f"MAX_MATRIX_ORDER = {MAX_MATRIX_ORDER}."
        )

    if "map" not in raw:
        raise ValueError(f"chain entry at {where} needs a 'map' matrix.")
    chain_map = _decode_group_ring_matrix(raw["map"], aut, rank, rank, f"{where}.map")

    boundary = None
    if "boundary" in raw:
        target_rank = previous.rank if previous is not None and previous.degree == degree - 1 else 0
        boundary = _decode_group_ring_matrix(
            raw["boundary"], aut, rank, target_rank, f"{where}.boundary"
        )

    return ChainDegree(
        degree=degree,
        rank=rank,
        relative_mask=mask,
        stabilizers=stabilizers,
        expanded_basis=expanded_basis,
        chain_map=chain_map,
        boundary=boundary,
    )


def _validate_module_structure(iso: IsoClassData) -> None:
    """Masked cells map and bound into masked ones, and each masked row is
    invariant under its cell's stabilizer S_j modulo each target stabilizer.

    One walk of the ladder reads the nonzero entries of masked rows, the only
    rows with S_j ≠ 1.  Invariance is tried on the ``generators`` of S_j: coset
    reduction modulo a right stabilizer commutes with left translation, so the
    s that pass are closed under products.  Invariance failures come first.
    """
    aut, weyl = iso.aut, iso.aut.weyl

    @functools.cache  # once per distinct S_j of the class
    def generators_of(stabilizer: tuple[int, ...]) -> tuple[int, ...]:
        return tuple(stabilizer[g] for g in weyl.restricted_to(stabilizer).generators)

    leaves_mask = None
    for entry, below, _, expanded_boundary in iso.ladder:
        matrices = [("map", entry.chain_map, entry, "be preserved")]
        if expanded_boundary is not None:
            matrices.append(("boundary", entry.boundary, below, "be a subcomplex"))
        for kind, matrix, target, rule in matrices:
            for j, row in enumerate(matrix._nonzero_rows()):
                if not entry.relative_mask[j]:
                    continue
                generators = generators_of(entry.stabilizers[j])
                for i, element in row:
                    if leaves_mask is None and not target.relative_mask[i]:
                        leaves_mask = (
                            f"{kind} row {j} in degree {entry.degree} of {iso.label} sends a "
                            "masked basis element to an unmasked one; the singular part "
                            f"must {rule}."
                        )
                    here = target.stabilizers[i]
                    reduced = element.coset_reduce(here) if generators else None
                    for s in generators:
                        moved = [(aut.act(s, v), weyl.table[s][w], c) for v, w, c in element.terms]
                        if GroupRingElement._combined(aut, moved).coset_reduce(here) != reduced:
                            raise ValueError(
                                f"{kind} row {j} in degree {entry.degree} of {iso.label} "
                                "is not invariant under its stabilizer; the module "
                                "structure is inconsistent."
                            )
    if leaves_mask is not None:
        raise ValueError(leaves_mask)


def _products_cancel(
    phi_pi: IntMatrix, *products: tuple[GroupRingMatrix, GroupRingMatrix, int, bool]
) -> bool:
    """Whether Σ sign·(ψ(left) @ right) over ``products`` is zero, where ψ is
    φ_π on the translation vectors if the flag is set and the identity if not.

    Every matrix is over the translation group, so a product term is
    (cell (j, l), v₁ + v₂), or (cell, φ_π·v₁ + v₂) when twisted, and each is
    summed under one packed integer key: a balanced mixed radix, built with
    shifts only.  With M_i the largest |v_i| of any term and
    T_i = Σ_j |φ_ij|·M_j, coordinate i of either sum lies in [−2D_i, 2D_i]
    for D_i = max(M_i, T_i).  Its bit field has b_i = bitlen(2D_i) + 1 bits,
    so it is strictly inside (−2^{b_i−1}, 2^{b_i−1}), and the vector part is
    strictly inside (−2^{B−1}, 2^{B−1}) for B = Σ b_i.  The key is
    (j·cols + l)·2^B plus the vector part, so distinct (cell, vector) pairs
    get distinct keys, and the sums cancel exactly when the products do.

    Each matrix finds its M_i once and keeps them
    (:meth:`GroupRingMatrix._coordinate_bounds`); a check takes their
    elementwise maximum over its operands, so its radix is the one a scan of
    every term gives.  Within a call each distinct vector is packed once:
    ``plain`` keeps v's vector part, for right operands and untwisted left
    ones alike, and ``twisted_keys`` keeps φ_π·v's, each in a one-slot list
    reached by ``setdefault``: one hash per lookup, hit or miss, since with
    4000-digit translations few vectors repeat and a hash costs half a pack.
    On a 2-vCPU virtual machine the T⁷ load's checks take 6.5 ms, against
    9.5 ms with a scan and a pack per use.
    """
    rank = phi_pi.rows
    bounds = [0] * rank  # M_i
    if rank:
        bounds = list(map(max, *(m._coordinate_bounds() for p in products for m in p[:2])))
    shifts, width = [], 0
    for i in range(rank):
        reach = max(bounds[i], sum(abs(a) * m for a, m in zip(phi_pi.row(i), bounds)))  # D_i
        shifts.append(width)
        width += (2 * reach).bit_length() + 1
    twist_rows = [(shift, phi_pi.row(i)) for i, shift in enumerate(shifts) if any(phi_pi.row(i))]
    spread = 1 << width
    plain: dict[tuple[int, ...], list] = {}  # [vector part of v], once per distinct v
    twisted_keys: dict[tuple[int, ...], list] = {}  # [vector part of φ_π·v]

    sums: dict[int, int] = {}
    for left, right, sign, twisted in products:
        if left.cols != right.rows:
            raise ValueError(
                f"cannot multiply {left.rows}×{left.cols} by {right.rows}×{right.cols}."
            )
        assert left.aut.weyl.order == right.aut.weyl.order == 1  # every w is the identity
        right_rows = right._nonzero_rows()
        keys = twisted_keys if twisted else plain
        packed_rows: dict[int, list[tuple[int, int]]] = {}
        for j, left_row in enumerate(left._nonzero_rows()):
            base = j * right.cols * spread
            for i, entry in left_row:
                if not right_rows[i]:
                    continue
                packed = packed_rows.get(i)
                if packed is None:
                    packed = packed_rows[i] = []
                    for l, other in right_rows[i]:
                        for v, _, c in other.terms:
                            slot = plain.setdefault(v, [None])
                            if slot[0] is None:
                                slot[0] = sum(map(operator.lshift, v, shifts))
                            packed.append((l * spread + slot[0], c))
                for v, _, c1 in entry.terms:
                    slot = keys.setdefault(v, [None])
                    if slot[0] is None:
                        if twisted:
                            slot[0] = sum(sum(map(operator.mul, row, v)) << s for s, row in twist_rows)
                        else:
                            slot[0] = sum(map(operator.lshift, v, shifts))
                    key = slot[0] + base
                    c1 *= sign
                    for k2, c2 in packed:
                        k2 += key
                        sums[k2] = sums.get(k2, 0) + c1 * c2
    return not any(sums.values())


def _validate_chain_algebra(iso: IsoClassData) -> None:
    """Expanded-level checks: boundaries compose to zero and commute with the map.

    Both identities are checked by letting the products cancel in one set of
    sums (:func:`_products_cancel`): ∂_p·∂_{p−1}, and ψ(∂_p)·f_{p−1} − f_p·∂_p.
    Each term is summed under an integer key packing its result cell and its
    vector in a balanced mixed radix whose fields hold any coordinate a sum
    of two terms can reach, so distinct terms never share a key and the
    check is exact.  Each check sizes its own radix, so ∂_p·∂_{p−1}, whose
    vectors are small, is not widened by a map's large translations.
    """
    ladder = iso.ladder
    phi_pi = iso.twist.phi_pi
    for k, (entry, _, map_here, expanded_boundary) in enumerate(ladder):
        if expanded_boundary is None:
            continue
        _, _, map_below, boundary_below = ladder[k - 1]  # the degree just below
        if boundary_below is not None:
            if not _products_cancel(phi_pi, (expanded_boundary, boundary_below, 1, False)):
                raise ValueError(
                    f"boundary composition is nonzero between degrees {entry.degree} "
                    f"and {entry.degree - 1} of {iso.label}."
                )
        if not _products_cancel(
            phi_pi,
            (expanded_boundary, map_below, 1, True),
            (map_here, expanded_boundary, -1, False),
        ):
            raise ValueError(
                f"chain map does not commute with the boundary at degree "
                f"{entry.degree} of {iso.label}."
            )


def _load_iso_class(raw: Any, group: FiniteGroup, where: str) -> IsoClassData:
    raw = _require_mapping(raw, where)
    _check_allowed_keys(
        raw,
        {
            "subgroup_class",
            "component",
            "pi1_rank",
            "weyl",
            "action",
            "phi_pi",
            "orbit_size",
            "chain",
        },
        where,
    )
    for required in ("subgroup_class", "component", "pi1_rank", "phi_pi", "chain"):
        if required not in raw:
            raise ValueError(f"isotropy class at {where} needs '{required}'.")

    raw_subgroup = _require_list(raw["subgroup_class"], f"{where}.subgroup_class")
    subgroup = Subgroup.from_labels(
        group, _require_names(raw_subgroup, lambda i: f"{where}.subgroup_class[{i}]")
    )
    canonical = subgroup.least_conjugate()
    if canonical.members != subgroup.members:
        raise ValueError(
            f"subgroup_class {list(subgroup.member_labels)} at {where} is not the "
            f"canonical conjugacy representative; expected "
            f"{list(canonical.member_labels)}."
        )
    (component,) = _require_names((raw["component"],), lambda _: f"{where}.component")

    quotient = weyl_group(group, subgroup).group
    raw_weyl = raw.get("weyl")
    if raw_weyl is None:
        weyl = quotient
    else:
        labels = _require_names(
            _require_list(raw_weyl, f"{where}.weyl"), lambda i: f"{where}.weyl[{i}]"
        )
        indices = sorted({quotient.element_index(label) for label in labels})
        if quotient.identity not in indices:
            raise ValueError(
                f"weyl at {where} must contain the identity coset "
                f"'{quotient.labels[quotient.identity]}'."
            )
        try:
            weyl = quotient.restricted_to(indices)
        except ValueError as exc:
            raise ValueError(f"weyl at {where}: {exc}") from None

    pi1_rank = _decode_int(raw["pi1_rank"], f"{where}.pi1_rank")
    if pi1_rank < 0:
        raise ValueError(f"pi1_rank at {where} must be nonnegative, got {pi1_rank}.")
    if pi1_rank > MAX_MATRIX_ORDER:
        raise ValueError(
            f"pi1_rank at {where} is {pi1_rank}; translation ranks are limited to "
            f"MAX_MATRIX_ORDER = {MAX_MATRIX_ORDER}."
        )

    raw_action = _require_mapping(raw.get("action", {}), f"{where}.action")
    action = None  # no matrices given: the trivial action, which AutGroup need not check
    if raw_action:
        identity = IntMatrix.identity(pi1_rank)
        action = tuple(
            _decode_int_matrix(raw_action[label], pi1_rank, pi1_rank, f"{where}.action['{label}']")
            if label in raw_action
            else identity
            for label in weyl.labels
        )
    for label in raw_action:
        if label not in weyl.labels:
            raise ValueError(
                f"action at {where} names '{label}', which is not a Weyl element; "
                f"known: {list(weyl.labels)}."
            )
    aut = AutGroup(pi1_rank, weyl, action)

    phi_pi = _decode_int_matrix(raw["phi_pi"], pi1_rank, pi1_rank, f"{where}.phi_pi")
    twist = TwistData(phi_pi)
    twist.validate_against(aut)

    # The class stands for one W_G(K)-orbit of components, and ``weyl`` is the
    # stabilizer W_c of its component, so the orbit has [W_G(K) : W_c] of them.
    orbit = quotient.order // weyl.order
    orbit_size = _decode_int(raw.get("orbit_size", orbit), f"{where}.orbit_size")
    if orbit_size < 1:
        raise ValueError(f"orbit_size at {where} must be positive, got {orbit_size}.")
    if orbit_size != orbit:
        raise ValueError(
            f"{where}.orbit_size must be {orbit}, the index [W_G(K) : W_c] = "
            f"{quotient.order}/{weyl.order} of the class's weyl in its Weyl group."
        )

    raw_chain = _require_list(raw["chain"], f"{where}.chain")
    degrees: list[ChainDegree] = []
    for i, raw_degree in enumerate(raw_chain):
        previous = degrees[-1] if degrees else None
        entry = _load_chain_degree(raw_degree, aut, previous, f"{where}.chain[{i}]")
        if previous is not None and entry.degree <= previous.degree:
            raise ValueError(
                f"chain degrees at {where} must be strictly increasing; "
                f"{entry.degree} follows {previous.degree}."
            )
        degrees.append(entry)

    iso = IsoClassData(
        subgroup=subgroup,
        component=component,
        aut=aut,
        twist=twist,
        orbit_size=orbit_size,
        degrees=tuple(degrees),
    )
    _validate_module_structure(iso)
    _validate_chain_algebra(iso)
    return iso


def _load_fixed_point(
    raw: Any,
    complex_classes: dict[tuple[tuple[int, ...], str], IsoClassData],
    group: FiniteGroup,
    where: str,
) -> FixedPointDatum:
    raw = _require_mapping(raw, where)
    _check_allowed_keys(
        raw, {"subgroup_class", "component", "orbit", "index", "path"}, where
    )
    for required in ("subgroup_class", "component", "index", "path"):
        if required not in raw:
            raise ValueError(f"fixed point at {where} needs '{required}'.")
    raw_subgroup = _require_list(raw["subgroup_class"], f"{where}.subgroup_class")
    subgroup = Subgroup.from_labels(
        group, _require_names(raw_subgroup, lambda i: f"{where}.subgroup_class[{i}]")
    )
    (component,) = _require_names((raw["component"],), lambda _: f"{where}.component")
    iso = complex_classes.get((subgroup.members, component))
    if iso is None:
        raise ValueError(
            f"fixed point at {where} references missing isotropy class "
            f"{class_label(subgroup.member_labels, component)}."
        )
    orbit = raw.get("orbit")
    if orbit is not None and not isinstance(orbit, str):
        raise ValueError(f"orbit at {where} must be a string name.")
    index = _decode_int(raw["index"], f"{where}.index")
    path_list = _require_list(raw["path"], f"{where}.path")
    if len(path_list) != iso.aut.pi1_rank:
        raise ValueError(
            f"path at {where} has length {len(path_list)}; expected "
            f"{iso.aut.pi1_rank} for {iso.label}."
        )
    path = tuple(_decode_int(v, f"{where}.path[{i}]") for i, v in enumerate(path_list))
    return FixedPointDatum(
        subgroup=subgroup, component=component, orbit=orbit, index=index, path=path
    )


def load_complex(document: Mapping) -> EquivariantComplex:
    """Validate a parsed JSON document and build an :class:`EquivariantComplex`.

    Raises :class:`ValueError` with a location-specific message on the first
    violated constraint.

    >>> load_builtin("example1").classes[0].component
    'sphere'
    """
    document = _require_mapping(document, "document")
    _check_allowed_keys(
        document,
        {"format_version", "group", "name", "description", "iso_classes", "fixed_points"},
        "document",
    )
    if "format_version" not in document:
        raise ValueError("document needs 'format_version'.")
    version = _decode_int(document["format_version"], "format_version")
    if version != FORMAT_VERSION:
        raise ValueError(
            f"unsupported format_version {version}; this build reads version {FORMAT_VERSION}."
        )
    if "group" not in document:
        raise ValueError("document needs 'group'.")
    group = _load_group(document["group"])
    builtin_group = document["group"].get("builtin")

    name = document.get("name")
    if name is not None and not isinstance(name, str):
        raise ValueError("name must be a string.")
    description = document.get("description")
    if description is not None and not isinstance(description, str):
        raise ValueError("description must be a string.")

    if "iso_classes" not in document:
        raise ValueError("document needs 'iso_classes' (possibly empty).")
    raw_classes = _require_list(document["iso_classes"], "iso_classes")

    class_by_key: dict[tuple[tuple[int, ...], str], IsoClassData] = {}
    for i, raw_class in enumerate(raw_classes):
        iso = _load_iso_class(raw_class, group, f"iso_classes[{i}]")
        if iso.key in class_by_key:
            raise ValueError(f"duplicate isotropy class {iso.label} at iso_classes[{i}].")
        class_by_key[iso.key] = iso

    fixed_points: list[FixedPointDatum] = []
    raw_fixed = document.get("fixed_points", [])
    for i, raw_point in enumerate(_require_list(raw_fixed, "fixed_points")):
        fixed_points.append(
            _load_fixed_point(raw_point, class_by_key, group, f"fixed_points[{i}]")
        )

    orbit_indices: dict[tuple[tuple[int, ...], str, str], int] = {}
    for point in fixed_points:
        if point.orbit is None:
            continue
        key = (point.subgroup.members, point.component, point.orbit)
        if key in orbit_indices and orbit_indices[key] != point.index:
            raise ValueError(
                f"fixed point indices must be constant on each orbit; orbit "
                f"'{point.orbit}' of component '{point.component}' has indices "
                f"{orbit_indices[key]} and {point.index}."
            )
        orbit_indices[key] = point.index

    return EquivariantComplex(
        group=group,
        builtin_group=builtin_group,
        name=name,
        description=description,
        classes=tuple(class_by_key.values()),
        fixed_points=tuple(fixed_points),
    )


def load_builtin(name: str) -> EquivariantComplex:
    """Load one of the bundled example complexes by name.

    >>> sorted(BUILTIN_COMPLEXES)
    ['example1', 'example2', 'example3']
    """
    if name not in BUILTIN_COMPLEXES:
        raise ValueError(
            f"unknown builtin complex '{name}'; available: {sorted(BUILTIN_COMPLEXES)}."
        )
    return load_complex(BUILTIN_COMPLEXES[name])


# ---------------------------------------------------------------------------
# serialization


def _serialize_iso_class(iso: IsoClassData) -> dict:
    encoded: dict[str, Any] = {
        "subgroup_class": list(iso.subgroup.member_labels),
        "component": iso.component,
        "pi1_rank": iso.aut.pi1_rank,
        "weyl": list(iso.aut.weyl.labels),
    }
    action = {
        iso.aut.weyl.labels[w]: _encode_int_matrix(iso.aut.action[w])
        for w in range(iso.aut.weyl.order)
        if w != iso.aut.weyl.identity
    }
    if action:
        encoded["action"] = action
    encoded["phi_pi"] = _encode_int_matrix(iso.twist.phi_pi)
    encoded["orbit_size"] = iso.orbit_size
    chain = []
    for entry in iso.degrees:
        raw: dict[str, Any] = {
            "degree": entry.degree,
            "rank": entry.rank,
            "relative_mask": list(entry.relative_mask),
            "stabilizers": [
                [iso.aut.weyl.labels[s] for s in stabilizer]
                for stabilizer in entry.stabilizers
            ],
            "map": _encode_group_ring_matrix(entry.chain_map),
        }
        if entry.boundary is not None:
            raw["boundary"] = _encode_group_ring_matrix(entry.boundary)
        chain.append(raw)
    encoded["chain"] = chain
    return encoded


def _serialize_fixed_point(point: FixedPointDatum) -> dict:
    encoded: dict[str, Any] = {
        "subgroup_class": list(point.subgroup.member_labels),
        "component": point.component,
    }
    if point.orbit is not None:
        encoded["orbit"] = point.orbit
    encoded["index"] = _encode_int(point.index)
    encoded["path"] = [_encode_int(v) for v in point.path]
    return encoded


def serialize_complex(complex_data: EquivariantComplex) -> dict:
    """Encode a complex back into a document; ``load_complex`` inverts this.

    The encoding is canonical: loading a document and serializing it again
    always produces the same result as serializing once.
    """
    document: dict[str, Any] = {"format_version": FORMAT_VERSION}
    if complex_data.builtin_group is not None:
        document["group"] = {"builtin": complex_data.builtin_group}
    else:
        document["group"] = {
            "labels": list(complex_data.group.labels),
            "table": [list(row) for row in complex_data.group.table],
        }
    if complex_data.name is not None:
        document["name"] = complex_data.name
    if complex_data.description is not None:
        document["description"] = complex_data.description
    document["iso_classes"] = [_serialize_iso_class(iso) for iso in complex_data.classes]
    if complex_data.fixed_points:
        document["fixed_points"] = [
            _serialize_fixed_point(point) for point in complex_data.fixed_points
        ]
    return document
