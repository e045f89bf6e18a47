"""Finite groups, Weyl quotients, split automorphism groups, and twisted classes.

The module supplies the group-theoretic layer used by the invariant
computations:

* :class:`FiniteGroup` -- multiplication-table groups with validated axioms,
  a generating set, and named builtins ("Z2", "Z2xZ2", "Zn:k", "Sym:n"), of
  order at most :data:`MAX_GROUP_ORDER`,
* :class:`Subgroup`, :func:`conjugacy_classes_of_subgroups`,
  :func:`weyl_group` -- subgroup enumeration, canonical conjugates and
  normalizer quotients,
* :class:`AutGroup` -- split extensions ℤᵏ ⋊ W with an integral W-action,
* :class:`TwistData`, :class:`TwistedClassSet`, :func:`twisted_classes` --
  twisted conjugacy a ∼ θ(w)·a + (φ_π − I)·m with canonical representatives,
* :class:`GroupRingElement` / :class:`GroupRingMatrix` -- finitely supported
  integer combinations of automorphism-group elements and matrices of them,
* :func:`pi1_projection` -- the trace projection onto twisted classes of the
  translation subgroup.

Group-ring terms are validated once, where they enter: the public
:class:`GroupRingElement` constructor, or the document decoder, which checks
each term itself.  Every element is then built by one unchecked combiner,
:meth:`GroupRingElement._combined`, which adds equal (vector, w) pairs,
drops zeros and sorts the rest; arithmetic (sums, products, negation,
scaling, twists, coset reduction, traces and the Weyl expansion) passes it
terms made from terms it already trusts.  Products walk only the nonzero
entries of each row, a trace reads only the diagonal, and θ(w) is applied
only when w is not the identity.  The loader checks its chain identities
without these kernels: ``complex_model._validate_chain_algebra`` lets the
products cancel under packed integer keys, with no product matrix built.
Group-ring values hash by their terms alone.  The translation-only group of
each rank is one shared :class:`AutGroup` (:meth:`AutGroup.translations`),
so same-group checks are identity tests.
Group maps (θ, its commutation with φ_π, embeddings) are checked on the
source's ``generators``, since where such a map holds is closed under products.
Groups are validated once, where they enter: the :class:`FiniteGroup`
constructor, which builtins and explicit ``labels``/``table`` documents go
through.  A Weyl quotient or a restriction to a subgroup is derived from a
validated group and built unchecked; the quotient by the trivial subgroup
is the group itself, N_G(1)/1 = G.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import operator
import sys
from typing import Any, Callable, Iterable, Iterator, Sequence

from .exact_algebra import _DIMENSIONS, IntMatrix, _require_ints

__all__ = [
    "MAX_GROUP_ORDER",
    "FiniteGroup",
    "Subgroup",
    "WeylGroup",
    "AutGroup",
    "TwistData",
    "TwistedClassSet",
    "GroupRingElement",
    "GroupRingMatrix",
    "conjugacy_classes_of_subgroups",
    "weyl_group",
    "twisted_classes",
    "pi1_projection",
]

_MINUS = "−"
_MIDDLE_DOT = "·"
_SUPERSCRIPTS = str.maketrans("0123456789-", "⁰¹²³⁴⁵⁶⁷⁸⁹⁻")

MAX_GROUP_ORDER = 120
"""The largest group order accepted: Sym:5 (order 120) loads, Sym:6 does not.

A group of order n costs an n×n table, validated in O(n²·log n), and loading
enumerates conjugates and Weyl quotients over it, so the order is checked
before anything of that size is built.
"""


def _check_group_order(order: int, what: str) -> None:
    """Raise unless a group of ``order`` elements is within :data:`MAX_GROUP_ORDER`."""
    if order > MAX_GROUP_ORDER:
        raise ValueError(
            f"{what} has {order} elements; groups are limited to "
            f"MAX_GROUP_ORDER = {MAX_GROUP_ORDER} elements."
        )


_MAX_SHOWN = 64


def _shown(text: str) -> str:
    """``text`` for a one-line message: whole, or its head and its length once it is long."""
    if len(text) <= _MAX_SHOWN:
        return text
    return f"{text[:_MAX_SHOWN]}… ({len(text)} characters)"


def _shown_name(name: str) -> str:
    """A builtin group name for a message: quoted, or shortened once it is long."""
    return f"'{name}'" if len(name) <= _MAX_SHOWN else _shown(name)


def _require_names(values: Sequence[Any], where: Callable[[int], str]) -> Sequence[Any]:
    """``values``, if each is a ``str``; the first that is not is refused at ``where(i)``."""
    for i, value in enumerate(values):
        if type(value) is not str:
            raise ValueError(f"expected a string at {where(i)}, got {type(value).__name__}.")
    return values


def _name_number(name: str, kind: str, form: str) -> int:
    """The ASCII decimal number after the colon of a builtin name like 'Zn:12'."""
    digits = name.split(":", 1)[1]
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(
            f"malformed {kind} group name {_shown_name(name)}; expected '{form}'."
        )
    try:
        number = int(digits)
    except ValueError:  # more digits than the interpreter converts
        raise ValueError(
            f"{kind} group name has {len(digits)} digits after the colon, more than "
            f"sys.get_int_max_str_digits() = {sys.get_int_max_str_digits()}."
        ) from None
    significant = digits.lstrip("0")
    if len(significant) > 20:  # far past the cap: name its length, do not echo it
        raise ValueError(
            f"{kind} group name has a {len(significant)}-digit number after the colon; "
            f"groups are limited to MAX_GROUP_ORDER = {MAX_GROUP_ORDER} elements."
        )
    return number


def _generating_set(table: tuple[tuple[int, ...], ...], identity: int) -> list[int]:
    """A set S whose products, in any bracketing, reach every index of ``table``.

    Greedy: each index not yet reached joins S, and the reached set, which
    starts at the identity, is closed under left and right products with S.
    For a group, each new generator at least doubles the reached subgroup,
    so |S| ≤ log₂ n.
    """
    reached = {identity}
    generators: list[int] = []
    for x in range(len(table)):
        if x in reached:
            continue
        generators.append(x)
        reached.add(x)
        pending = list(reached)
        while pending:
            r = pending.pop()
            for s in generators:
                for p in (table[r][s], table[s][r]):
                    if p not in reached:
                        reached.add(p)
                        pending.append(p)
    return generators


class FiniteGroup:
    """A finite group given by labels and a multiplication table.

    ``table[i][j]`` is the index of ``labels[i] * labels[j]``.  The group
    axioms are validated on construction: the identity and inverses
    directly, and associativity by Light's test (Clifford & Preston, *The
    Algebraic Theory of Semigroups* I, §1.2) over a generating set S,
    checking (a·g)·c = a·(g·c) for all a, c and every g in S.  The g that
    satisfy it are closed under products, so this holds for every g exactly
    when the table is associative, at O(n²·|S|) cost.  S is kept as
    ``generators``, and every group map in the package is checked on it.
    Each label must be a ``str`` and each table entry an ``int``; anything
    else is refused, not converted.  Only builtins and explicit tables are
    validated; :func:`weyl_group` quotients and :meth:`restricted_to` are
    derived from a validated group and skip the checks, and the quotient by
    the trivial subgroup is this group itself.

    >>> g = FiniteGroup.builtin("Z2")
    >>> g.labels
    ('1', 'g')
    >>> g.multiply(1, 1)
    0
    """

    __slots__ = ("labels", "table", "identity", "generators", "_inverses")

    def __init__(self, labels: Sequence[str], table: Sequence[Sequence[int]]) -> None:
        _check_group_order(len(labels), "the group")
        label_tuple = tuple(_require_names(labels, lambda i: f"labels[{i}]"))
        n = len(label_tuple)
        if n == 0:
            raise ValueError("a group must have at least one element.")
        if len(set(label_tuple)) != n:
            raise ValueError("group element labels must be distinct.")
        row_tuples = tuple(tuple(row) for row in table)
        if len(row_tuples) != n or any(len(row) != n for row in row_tuples):
            raise ValueError(
                f"multiplication table must be {n}×{n} to match {n} labels."
            )
        for i, row in enumerate(row_tuples):
            _require_ints(row, lambda j: f"table entry at ({i}, {j})")
            if min(row) < 0 or max(row) >= n:
                j, v = next((j, v) for j, v in enumerate(row) if not 0 <= v < n)
                raise ValueError(
                    f"table entry at ({i}, {j}) is {v}, outside 0..{n - 1}."
                )
        everything = tuple(range(n))
        identity = next(
            (
                e
                for e in range(n)
                if row_tuples[e] == everything == tuple(map(operator.itemgetter(e), row_tuples))
            ),
            None,
        )
        if identity is None:
            raise ValueError("multiplication table has no identity element.")
        inverses = []
        for x, row in enumerate(row_tuples):
            try:  # the least y with x·y = y·x = 1, trying each y with x·y = 1 in turn
                y = row.index(identity)
                while row_tuples[y][x] != identity:
                    y = row.index(identity, y + 1)
            except ValueError:
                raise ValueError(f"element '{label_tuple[x]}' has no inverse.") from None
            inverses.append(y)
        generators = tuple(_generating_set(row_tuples, identity))
        for g in generators:
            row_g = row_tuples[g]
            for a, row_a in enumerate(row_tuples):
                ag_row = row_tuples[row_a[g]]
                a_gc = tuple(map(row_a.__getitem__, row_g))
                if ag_row != a_gc:
                    c = next(c for c in range(n) if ag_row[c] != a_gc[c])
                    raise ValueError(
                        "multiplication table is not associative at "
                        f"('{label_tuple[a]}', '{label_tuple[g]}', '{label_tuple[c]}')."
                    )
        self.labels = label_tuple
        self.table = row_tuples
        self.identity = identity
        self.generators = generators
        self._inverses = tuple(inverses)

    @classmethod
    def _derived(
        cls, labels: tuple[str, ...], table: tuple[tuple[int, ...], ...], identity: int
    ) -> "FiniteGroup":
        """The group on ``table``, derived from a validated group and trusted as a group.

        ``identity`` comes from the parent; inverses and ``generators`` are
        read off the table.
        """
        group = object.__new__(cls)
        group.labels = labels
        group.table = table
        group.identity = identity
        group.generators = tuple(_generating_set(table, identity))
        group._inverses = tuple(row.index(identity) for row in table)
        return group

    # -- builtins -----------------------------------------------------

    @classmethod
    def builtin(cls, name: str) -> "FiniteGroup":
        """Named builtin groups: "Z2", "Z2xZ2", "Zn:k", "Sym:n", "trivial"."""
        if name == "trivial":
            return cls.builtin("Zn:1")
        if name == "Z2":
            return cls(("1", "g"), ((0, 1), (1, 0)))
        if name == "Z2xZ2":  # index i has bits (g, h), so products add them mod 2
            table = tuple(tuple(i ^ j for j in range(4)) for i in range(4))
            return cls(("1", "g", "h", "gh"), table)
        if name.startswith("Zn:"):
            k = _name_number(name, "cyclic", "Zn:k")
            if k < 1:
                raise ValueError(f"cyclic group order must be positive, got {k}.")
            _check_group_order(k, f"'Zn:{k}'")
            labels = tuple("1" if i == 0 else f"r{i}" for i in range(k))
            table = tuple(tuple((i + j) % k for j in range(k)) for i in range(k))
            return cls(labels, table)
        if name.startswith("Sym:"):
            n = _name_number(name, "symmetric", "Sym:n")
            if n < 1:
                raise ValueError(f"symmetric group degree must be positive, got {n}.")
            order = 1
            for m in range(2, n + 1):  # stops at the first factor past the cap
                order *= m
                if order > MAX_GROUP_ORDER:
                    raise ValueError(
                        f"'Sym:{n}' has {n}! elements; groups are limited to "
                        f"MAX_GROUP_ORDER = {MAX_GROUP_ORDER} elements."
                    )
            perms = sorted(itertools.permutations(range(n)))
            index = {p: i for i, p in enumerate(perms)}
            labels = tuple("".join(str(v) for v in p) for p in perms)
            table = tuple(
                tuple(index[tuple(map(p.__getitem__, q))] for q in perms)
                for p in perms
            )
            return cls(labels, table)
        raise ValueError(
            f"unknown builtin group {_shown_name(name)}; expected one of "
            "'Z2', 'Z2xZ2', 'Zn:k', 'Sym:n', 'trivial'."
        )

    # -- structure ----------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.labels)

    def multiply(self, i: int, j: int) -> int:
        return self.table[i][j]

    def inverse(self, i: int) -> int:
        return self._inverses[i]

    def conjugate(self, g: int, x: int) -> int:
        """g · x · g⁻¹."""
        return self.table[self.table[g][x]][self._inverses[g]]

    def coset_representative(self, x: int, members: Iterable[int]) -> int:
        """The least element of the coset x·K, K given by its ``members``."""
        row = self.table[x]
        return min(row[k] for k in members)

    def element_index(self, label: str) -> int:
        _require_names((label,), lambda _: "label")
        try:
            return self.labels.index(label)
        except ValueError:
            raise ValueError(
                f"unknown group element label '{_shown(label)}'; "
                f"known labels: {[_shown(known) for known in self.labels]}."
            )

    def restricted_to(self, members: Sequence[int]) -> "FiniteGroup":
        """The subgroup on ``members`` as a standalone group (labels kept)."""
        member_list = Subgroup(self, members).members
        position = {m: i for i, m in enumerate(member_list)}
        labels = tuple(self.labels[m] for m in member_list)
        table = tuple(
            tuple(position[self.table[a][b]] for b in member_list) for a in member_list
        )
        return FiniteGroup._derived(labels, table, position[self.identity])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FiniteGroup):
            return NotImplemented
        return self is other or (self.labels == other.labels and self.table == other.table)

    def __hash__(self) -> int:
        return hash((self.labels, self.table))

    def __repr__(self) -> str:
        return f"FiniteGroup(order={self.order}, labels={self.labels})"


class Subgroup:
    """A validated subgroup of a :class:`FiniteGroup`, stored as sorted indices.

    Members must contain the identity and be closed under products, which in a
    finite group makes them closed under inverses.

    >>> g = FiniteGroup.builtin("Z2xZ2")
    >>> h = Subgroup.from_labels(g, ["1", "h"])
    >>> h.order
    2
    """

    __slots__ = ("parent", "members")

    def __init__(self, parent: FiniteGroup, members: Iterable[int]) -> None:
        member_list = _require_ints(tuple(members), lambda i: f"subgroup member {i}")
        member_tuple = tuple(sorted(set(member_list)))
        for m in member_tuple:
            if not 0 <= m < parent.order:
                raise ValueError(f"subgroup member index {m} outside the group.")
        member_set = set(member_tuple)
        if parent.identity not in member_set:
            raise ValueError("subgroup does not contain the identity element.")
        for a in member_tuple:
            for b in member_tuple:
                if parent.table[a][b] not in member_set:
                    raise ValueError(
                        "subgroup is not closed under multiplication at "
                        f"('{parent.labels[a]}', '{parent.labels[b]}')."
                    )
        self.parent = parent
        self.members = member_tuple

    @classmethod
    def from_labels(cls, parent: FiniteGroup, labels: Iterable[str]) -> "Subgroup":
        return cls(parent, (parent.element_index(label) for label in labels))

    @property
    def order(self) -> int:
        return len(self.members)

    @property
    def member_labels(self) -> tuple[str, ...]:
        return tuple(self.parent.labels[m] for m in self.members)

    def conjugate_by(self, g: int) -> "Subgroup":
        return Subgroup(self.parent, (self.parent.conjugate(g, m) for m in self.members))

    def least_conjugate(self) -> "Subgroup":
        """The conjugate with the least ``members`` tuple, in O(|G|·|H|).

        This is the representative :func:`conjugacy_classes_of_subgroups`
        picks for the class of this subgroup.

        >>> g = FiniteGroup.builtin("Sym:3")
        >>> Subgroup.from_labels(g, ["012", "210"]).least_conjugate()
        Subgroup(['012', '021'])
        """
        x = self.least_conjugator()
        return self if x == self.parent.identity else self.conjugate_by(x)

    def least_conjugator(self) -> int:
        """The identity if H is its least conjugate, else the least x with x·H·x⁻¹ least."""
        g = self.parent

        def key(x: int) -> tuple[tuple[int, ...], bool]:
            return tuple(sorted(g.conjugate(x, m) for m in self.members)), x != g.identity

        return min(range(g.order), key=key)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Subgroup):
            return NotImplemented
        return self.parent == other.parent and self.members == other.members

    def __hash__(self) -> int:
        return hash((self.parent, self.members))

    def __repr__(self) -> str:
        return f"Subgroup({list(self.member_labels)})"


def _closure(group: FiniteGroup, seed: Iterable[int]) -> frozenset[int]:
    """The subgroup generated by ``seed``: its closure under products, with the identity."""
    current = set(seed)
    current.add(group.identity)
    changed = True
    while changed:
        changed = False
        for a in list(current):
            for b in list(current):
                p = group.table[a][b]
                if p not in current:
                    current.add(p)
                    changed = True
    return frozenset(current)


def all_subgroups(g: FiniteGroup) -> list[Subgroup]:
    """All subgroups, found by growing generating sets one element at a time."""
    found = {frozenset({g.identity})}
    frontier = [frozenset({g.identity})]
    while frontier:
        next_frontier = []
        for current in frontier:
            for x in range(g.order):
                if x in current:
                    continue
                grown = _closure(g, current | {x})
                if grown not in found:
                    found.add(grown)
                    next_frontier.append(grown)
        frontier = next_frontier
    return sorted(
        (Subgroup(g, members) for members in found),
        key=lambda s: (s.order, s.members),
    )


def conjugacy_classes_of_subgroups(
    g: FiniteGroup,
) -> list[tuple[Subgroup, tuple[Subgroup, ...]]]:
    """Conjugacy classes of subgroups with deterministic representatives.

    Returns a list of ``(representative, class_members)`` pairs; the
    representative is the member with the smallest index tuple, and classes
    are ordered by (order, representative indices).

    >>> [rep.member_labels for rep, _ in conjugacy_classes_of_subgroups(FiniteGroup.builtin("Z2"))]
    [('1',), ('1', 'g')]
    """
    remaining = {s.members: s for s in all_subgroups(g)}
    classes = []
    while remaining:
        members, subgroup = min(remaining.items())
        orbit = {}
        for x in range(g.order):
            conjugated = subgroup.conjugate_by(x)
            orbit[conjugated.members] = conjugated
        for key in orbit:
            remaining.pop(key, None)
        ordered = tuple(orbit[key] for key in sorted(orbit))
        classes.append((ordered[0], ordered))
    classes.sort(key=lambda pair: (pair[0].order, pair[0].members))
    return classes


@dataclasses.dataclass(frozen=True)
class WeylGroup:
    """The quotient N_G(H)/H together with coset representatives.

    ``group`` is the quotient as a standalone :class:`FiniteGroup` whose
    element labels are the parent labels of the coset representatives;
    ``coset_representatives[i]`` is the parent index representing quotient
    element ``i``; ``cosets[i]`` lists the parent indices in that coset.
    """

    group: FiniteGroup
    parent: FiniteGroup
    subgroup: Subgroup
    coset_representatives: tuple[int, ...]
    cosets: tuple[tuple[int, ...], ...]


def weyl_group(g: FiniteGroup, h: Subgroup) -> WeylGroup:
    """The normalizer quotient N_G(H)/H with coset representatives.

    For the trivial H the quotient is ``g`` itself.

    >>> g = FiniteGroup.builtin("Z2")
    >>> weyl_group(g, Subgroup(g, [g.identity])).group is g
    True
    >>> weyl_group(g, Subgroup(g, range(g.order))).group.order
    1
    """
    if h.parent != g:
        raise ValueError("subgroup does not belong to the given group.")
    if h.order == 1:  # N_G(1)/1 = G
        everything = tuple(range(g.order))
        return WeylGroup(
            group=g, parent=g, subgroup=h,
            coset_representatives=everything, cosets=tuple((x,) for x in everything),
        )
    member_set = set(h.members)
    normalizer = [
        n
        for n in range(g.order)
        if all(g.conjugate(n, m) in member_set for m in h.members)
    ]
    # Walking the normalizer in ascending order meets each coset first at its
    # least element, which represents it; ``position`` maps every element of
    # the coset to the coset's index.
    cosets: list[tuple[int, ...]] = []
    position: dict[int, int] = {}
    for n in normalizer:
        if n not in position:
            coset = tuple(sorted(g.table[n][m] for m in h.members))
            position.update(dict.fromkeys(coset, len(cosets)))
            cosets.append(coset)
    representatives = tuple(coset[0] for coset in cosets)
    labels = tuple(g.labels[rep] for rep in representatives)
    table = tuple(
        tuple(position[g.table[a][b]] for b in representatives)
        for a in representatives
    )
    quotient = FiniteGroup._derived(labels, table, position[g.identity])
    if quotient.order * h.order != len(normalizer):
        raise ValueError("normalizer does not partition into whole cosets.")
    return WeylGroup(
        group=quotient,
        parent=g,
        subgroup=h,
        coset_representatives=representatives,
        cosets=tuple(cosets),
    )


class AutGroup:
    """The split extension ℤᵏ ⋊ W with integral W-action θ.

    Elements are pairs ``(vector, w)`` with ``vector`` a length-k integer
    tuple and ``w`` an index into ``weyl``; the product is
    ``(v, w)·(v', w') = (v + θ(w)·v', w·w')``.  ``action[w]`` is the matrix
    θ(w); ``None`` is the trivial action, which is not checked.  A given one is
    checked on the Weyl ``generators`` S, in |S|·|W| products: θ(1) = I and
    θ(s)θ(w) = θ(s·w).  The g that pass for all w are closed under products,
    so θ is a homomorphism, and θ(w)θ(w⁻¹) = I makes it unimodular.

    >>> flip = [IntMatrix.identity(1), IntMatrix.from_rows([[-1]])]
    >>> aut = AutGroup(1, FiniteGroup.builtin("Z2"), flip)
    >>> aut.multiply(((3,), 1), ((1,), 0))
    ((2,), 1)
    """

    __slots__ = ("pi1_rank", "weyl", "action")

    def __init__(
        self,
        pi1_rank: int,
        weyl: FiniteGroup,
        action: Sequence[IntMatrix] | None = None,
    ) -> None:
        _require_ints((pi1_rank,), lambda _: "translation rank")
        if pi1_rank < 0:
            raise ValueError(f"translation rank must be nonnegative, got {pi1_rank}.")
        identity = IntMatrix.identity(pi1_rank)
        if action is None:
            action = (identity,) * weyl.order
        else:
            action = tuple(action)
            if len(action) != weyl.order:
                raise ValueError(
                    f"need one action matrix per Weyl element ({weyl.order}), got {len(action)}."
                )
            for w, matrix in enumerate(action):
                if matrix.rows != pi1_rank or matrix.cols != pi1_rank:
                    raise ValueError(
                        f"action matrix for '{weyl.labels[w]}' must be "
                        f"{pi1_rank}×{pi1_rank}, got {matrix.rows}×{matrix.cols}."
                    )
            if action[weyl.identity] != identity:
                raise ValueError("action of the identity Weyl element must be the identity matrix.")
            for s in weyl.generators:
                for w in range(weyl.order):
                    if action[s] @ action[w] != action[weyl.multiply(s, w)]:
                        raise ValueError(
                            "action is not a homomorphism at "
                            f"('{weyl.labels[s]}', '{weyl.labels[w]}')."
                        )
        self.pi1_rank = pi1_rank
        self.weyl = weyl
        self.action = action

    @classmethod
    @functools.lru_cache(maxsize=32)  # keyed by rank alone, so it stays small
    def translations(cls, rank: int) -> "AutGroup":
        """The translation-only group ℤᵏ (trivial W), one shared instance per rank.

        >>> AutGroup.translations(2) is AutGroup.translations(2)
        True
        """
        return cls(rank, FiniteGroup.builtin("trivial"))

    @property
    def identity(self) -> tuple[tuple[int, ...], int]:
        return ((0,) * self.pi1_rank, self.weyl.identity)

    @property
    def is_trivial(self) -> bool:
        return self.pi1_rank == 0 and self.weyl.order == 1

    def act(self, w: int, vector: Sequence[int]) -> tuple[int, ...]:
        if w == self.weyl.identity:
            return tuple(vector)
        return self.action[w].apply_to_vector(tuple(vector))

    def multiply(
        self,
        a: tuple[tuple[int, ...], int],
        b: tuple[tuple[int, ...], int],
    ) -> tuple[tuple[int, ...], int]:
        (va, wa), (vb, wb) = a, b
        return (
            tuple(map(operator.add, va, self.act(wa, vb))),
            self.weyl.multiply(wa, wb),
        )

    def inverse(self, a: tuple[tuple[int, ...], int]) -> tuple[tuple[int, ...], int]:
        va, wa = a
        winv = self.weyl.inverse(wa)
        moved = self.act(winv, va)
        return (tuple(-x for x in moved), winv)

    def render_element(self, vector: Sequence[int], w: int) -> str:
        """Human-readable basis element: "1", "g", "t³", "t³·g", "t^(1,0)"."""
        vector = tuple(vector)
        translation = ""
        if any(vector):
            if self.pi1_rank == 1:
                translation = "t" + str(vector[0]).translate(_SUPERSCRIPTS) if vector[0] != 1 else "t"
            else:
                translation = "t^(" + ",".join(str(v) for v in vector) + ")"
        weyl_part = "" if w == self.weyl.identity else self.weyl.labels[w]
        if translation and weyl_part:
            return f"{translation}{_MIDDLE_DOT}{weyl_part}"
        if translation:
            return translation
        if weyl_part:
            return weyl_part
        return "1"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AutGroup):
            return NotImplemented
        return self is other or (
            self.pi1_rank == other.pi1_rank
            and self.weyl == other.weyl
            and self.action == other.action
        )

    def __hash__(self) -> int:
        return hash((self.pi1_rank, self.weyl, self.action))

    def __repr__(self) -> str:
        return f"AutGroup(pi1_rank={self.pi1_rank}, weyl_order={self.weyl.order})"


def _require_same_aut(a: AutGroup, b: AutGroup) -> None:
    if a is not b and a != b:
        raise ValueError("cannot combine elements over different automorphism groups.")


def _product_terms(
    aut: AutGroup,
    left: Sequence[tuple[tuple[int, ...], int, int]],
    right: Sequence[tuple[tuple[int, ...], int, int]],
) -> Iterator[tuple[tuple[int, ...], int, int]]:
    """The terms (v₁ + θ(w₁)·v₂, w₁·w₂, c₁·c₂) of the product of two term sequences."""
    add = operator.add
    for v1, w1, c1 in left:
        products = aut.weyl.table[w1]
        for v2, w2, c2 in right:
            yield (tuple(map(add, v1, aut.act(w1, v2))), products[w2], c1 * c2)


@dataclasses.dataclass(frozen=True)
class TwistData:
    """The translation-part matrix of a self-map's action on automorphisms.

    ``phi_pi`` is the k×k integer matrix through which the map acts on the
    translation subgroup ℤᵏ.  Only self-maps that fix the Weyl component are
    modelled, which is what makes the twisted conjugacy relation well
    defined, so the Weyl part of the twist is always the identity.
    """

    phi_pi: IntMatrix

    def __post_init__(self) -> None:
        if not self.phi_pi.is_square:
            raise ValueError(
                f"twist matrix must be square, got {self.phi_pi.rows}×{self.phi_pi.cols}."
            )

    def validate_against(self, aut: AutGroup) -> None:
        """Check the rank, and that φ_π commutes with θ(s) for the Weyl ``generators`` s.

        The w with θ(w)·φ_π = φ_π·θ(w) are closed under products: all of W.
        """
        if self.phi_pi.rows != aut.pi1_rank:
            raise ValueError(
                f"twist matrix is {self.phi_pi.rows}×{self.phi_pi.cols} but the "
                f"translation rank is {aut.pi1_rank}."
            )
        for s in aut.weyl.generators:
            theta = aut.action[s]
            if theta @ self.phi_pi != self.phi_pi @ theta:
                raise ValueError(
                    "twist matrix does not commute with the Weyl action at "
                    f"'{aut.weyl.labels[s]}'; the twisted relation would be ill defined."
                )


def _echelon_columns(
    k: int, columns: Iterable[Sequence[int]]
) -> list[tuple[int, tuple[int, ...]]]:
    """Column-echelon basis of the lattice spanned by ``columns`` in ℤᵏ.

    Returns ``(pivot_row, column)`` pairs with strictly increasing pivot
    rows, positive pivots, and zeros above each pivot.
    """
    cols = [list(c) for c in columns if any(c)]
    basis = []
    for row in range(k):
        while True:
            nonzero = sorted(
                (j for j in range(len(cols)) if cols[j][row]),
                key=lambda j: abs(cols[j][row]),
            )
            if len(nonzero) <= 1:
                break
            p = nonzero[0]
            for j in nonzero[1:]:
                q = cols[j][row] // cols[p][row]
                cols[j] = [a - q * b for a, b in zip(cols[j], cols[p])]
            cols = [c for c in cols if any(c)]
        nonzero = [j for j in range(len(cols)) if cols[j][row]]
        if nonzero:
            pivot_column = cols.pop(nonzero[0])
            if pivot_column[row] < 0:
                pivot_column = [-x for x in pivot_column]
            basis.append((row, tuple(pivot_column)))
    return basis


class TwistedClassSet:
    """Canonical representatives for a ∼ θ(w)·a + (φ_π − I)·m, w in the Weyl group.

    The relation is chosen by the group passed in: over an :class:`AutGroup`
    with Weyl group W the moves are the lattice moves a ∼ a + (φ_π − I)·m
    and the Weyl moves a ∼ θ(w)·a; over a group with a trivial W, such as
    :meth:`AutGroup.translations`, only the lattice moves remain, which is
    the Reidemeister relation of the component map.  Representatives are
    computed by reducing top-down against a column-echelon basis of the
    image lattice of (φ_π − I), which picks the unique coset element whose
    pivot-row entries lie in ``[0, pivot)``, and then minimizing
    lexicographically over the Weyl orbit.

    >>> phi = IntMatrix.from_rows([[-1]])
    >>> classes = twisted_classes(AutGroup.translations(1), TwistData(phi))
    >>> classes.representative((7,)), classes.representative((-4,))
    ((1,), (0,))
    """

    __slots__ = ("aut", "twist", "_basis")

    def __init__(self, aut: AutGroup, twist: TwistData) -> None:
        twist.validate_against(aut)
        self.aut = aut
        self.twist = twist
        k = aut.pi1_rank
        difference = twist.phi_pi - IntMatrix.identity(k)
        self._basis = _echelon_columns(k, (difference.column(j) for j in range(k)))

    def _lattice_reduce(self, vector: Sequence[int]) -> tuple[int, ...]:
        reduced = list(vector)
        for row, column in self._basis:
            q = reduced[row] // column[row]
            reduced = [a - q * b for a, b in zip(reduced, column)]
        return tuple(reduced)

    def representative(self, vector: Sequence[int]) -> tuple[int, ...]:
        """The canonical representative of the class of ``vector``."""
        vector = _require_ints(tuple(vector), lambda i: f"vector entry {i}")
        if len(vector) != self.aut.pi1_rank:
            raise ValueError(
                f"vector of length {len(vector)} does not match rank {self.aut.pi1_rank}."
            )
        reduced = self._lattice_reduce(vector)
        if self.aut.weyl.order != 1:
            reduced = min(
                self._lattice_reduce(self.aut.act(w, reduced))
                for w in range(self.aut.weyl.order)
            )
        return reduced


def twisted_classes(aut: AutGroup, twist: TwistData) -> TwistedClassSet:
    """The twisted class set over ``aut``, whose Weyl group gives the Weyl moves.

    λ and ℓ pass a class's own group; the Reidemeister trace passes its
    translation-only group (``IsoClassData.pi1_aut``: the class's own group
    when W is trivial), so it uses lattice moves only.

    >>> classes = twisted_classes(AutGroup.translations(0), TwistData(IntMatrix.zeros(0, 0)))
    >>> classes.representative(())
    ()
    """
    return TwistedClassSet(aut, twist)


class GroupRingElement:
    """A finitely supported integer combination of automorphism-group elements.

    Terms are ``(vector, weyl_index, coefficient)`` triples, sorted by
    (weyl_index, vector), with equal pairs added and zeros dropped.  This
    constructor validates every term (each vector entry, Weyl index and
    coefficient must be an ``int``; a boolean, float or string is refused,
    not converted), then builds the element, as the document decoder and
    the arithmetic below do, with the unchecked combiner :meth:`_combined`,
    since terms made from valid terms are valid.  A scale factor is checked too.

    >>> aut = AutGroup(0, FiniteGroup.builtin("Z2"))
    >>> e = GroupRingElement.basis(aut, (), 1)
    >>> (e * e).terms
    (((), 0, 1),)
    """

    __slots__ = ("aut", "terms")

    def __init__(
        self,
        aut: AutGroup,
        terms: Iterable[tuple[tuple[int, ...], int, int]],
    ) -> None:
        checked = []
        for k, (vector, w, coefficient) in enumerate(terms):
            vector = tuple(vector)
            if len(vector) != aut.pi1_rank:
                raise ValueError(
                    f"support vector of length {len(vector)} does not match "
                    f"rank {aut.pi1_rank}."
                )
            _require_ints(vector, lambda i: f"vector entry {i} of term {k}")
            _require_ints((w,), lambda _: f"Weyl index of term {k}")
            _require_ints((coefficient,), lambda _: f"coefficient of term {k}")
            if not 0 <= w < aut.weyl.order:
                raise ValueError(f"Weyl index {w} outside 0..{aut.weyl.order - 1}.")
            checked.append((vector, w, coefficient))
        self.aut = aut
        self.terms = GroupRingElement._combined(aut, checked).terms

    @classmethod
    def _combined(
        cls, aut: AutGroup, terms: Iterable[tuple[tuple[int, ...], int, int]]
    ) -> "GroupRingElement":
        """The element Σ c·(v, w) over ``terms``, trusted as valid: equal (v, w)
        pairs added, zero sums dropped, and the rest sorted by (w, v)."""
        sums: dict[tuple[tuple[int, ...], int], int] = {}
        for vector, w, coefficient in terms:
            key = (vector, w)
            sums[key] = sums.get(key, 0) + coefficient
        combined = sorted(((v, w, c) for (v, w), c in sums.items() if c), key=operator.itemgetter(1, 0))
        return cls._from_combined(aut, tuple(combined))

    @classmethod
    def _from_combined(
        cls, aut: AutGroup, terms: tuple[tuple[tuple[int, ...], int, int], ...]
    ) -> "GroupRingElement":
        """The element whose ``terms`` are trusted as valid and combined already, in
        the form :meth:`_combined` leaves them."""
        element = object.__new__(cls)
        element.aut = aut
        element.terms = terms
        return element

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, aut: AutGroup) -> "GroupRingElement":
        return cls._combined(aut, ())

    @classmethod
    def basis(
        cls, aut: AutGroup, vector: Sequence[int], w: int, coefficient: int = 1
    ) -> "GroupRingElement":
        return cls(aut, ((tuple(vector), w, coefficient),))

    # -- queries ------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def augmentation(self) -> int:
        """Sum of all coefficients (every group element sent to 1)."""
        return sum(coefficient for _, _, coefficient in self.terms)

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "GroupRingElement") -> "GroupRingElement":
        if not isinstance(other, GroupRingElement):
            return NotImplemented
        _require_same_aut(self.aut, other.aut)
        return GroupRingElement._combined(self.aut, self.terms + other.terms)

    def __neg__(self) -> "GroupRingElement":
        return self.scale(-1)

    def __sub__(self, other: "GroupRingElement") -> "GroupRingElement":
        if not isinstance(other, GroupRingElement):
            return NotImplemented
        return self + (-other)

    def scale(self, factor: int) -> "GroupRingElement":
        _require_ints((factor,), lambda _: "scale factor")
        return GroupRingElement._combined(
            self.aut, [(v, w, factor * c) for v, w, c in self.terms]
        )

    def __mul__(self, other: "GroupRingElement") -> "GroupRingElement":
        if not isinstance(other, GroupRingElement):
            return NotImplemented
        _require_same_aut(self.aut, other.aut)
        return GroupRingElement._combined(
            self.aut, _product_terms(self.aut, self.terms, other.terms)
        )

    def apply_twist(self, twist: TwistData) -> "GroupRingElement":
        """Apply (v, w) ↦ (φ_π·v, w) to every support element."""
        return GroupRingElement._combined(
            self.aut, [(twist.phi_pi.apply_to_vector(v), w, c) for v, w, c in self.terms]
        )

    def coset_reduce(self, stabilizer: Sequence[int]) -> "GroupRingElement":
        """Canonical form modulo right multiplication by a Weyl stabilizer.

        Each support element (v, w) is replaced by (v, least element of
        w·stabilizer); the vector part is unchanged because the stabilizer
        acts trivially on translations.
        """
        representative = self.aut.weyl.coset_representative
        return GroupRingElement._combined(
            self.aut, [(v, representative(w, stabilizer), c) for v, w, c in self.terms]
        )

    # -- rendering ----------------------------------------------------

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        for vector, w, coefficient in self.terms:
            basis = self.aut.render_element(vector, w)
            sign = "+" if coefficient > 0 else _MINUS
            magnitude = abs(coefficient)
            body = basis if magnitude == 1 else f"{magnitude}{_MIDDLE_DOT}{basis}"
            parts.append((sign, body))
        first_sign, first_body = parts[0]
        rendered = (first_sign if first_sign == _MINUS else "") + first_body
        for sign, body in parts[1:]:
            rendered += f" {sign} {body}"
        return rendered

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GroupRingElement):
            return NotImplemented
        return self.terms == other.terms and (self.aut is other.aut or self.aut == other.aut)

    def __hash__(self) -> int:
        return hash(self.terms)  # equal elements have equal terms; hashing aut would rehash θ

    def __repr__(self) -> str:
        return f"GroupRingElement({self})"


class GroupRingMatrix:
    """A matrix of :class:`GroupRingElement` entries, row-major.

    Row convention: ``entry(j, i)`` is the coefficient of target basis
    element ``i`` in the image of source basis element ``j``, so a map
    C → C' with source rank r and target rank r' is an r×r' matrix and
    composition "first M, then N with twist ψ" is ``ψ(M) @ N``.

    Entries are stored densely, in ``entries``.  The nonzero entries of each
    row are listed once per matrix, on first use, and kept as a tuple of
    tuples (:meth:`_nonzero_rows`); products, the chain check and the block
    split walk only those, and a trace reads only the diagonal.  The chain
    check also keeps each matrix's largest |v_i| per coordinate
    (:meth:`_coordinate_bounds`).
    """

    __slots__ = ("aut", "rows", "cols", "entries", "_sparse", "_bounds")

    def __init__(
        self,
        aut: AutGroup,
        rows: int,
        cols: int,
        entries: Sequence[GroupRingElement],
    ) -> None:
        _require_ints((rows, cols), _DIMENSIONS.__getitem__)
        if rows < 0 or cols < 0:
            raise ValueError(f"matrix dimensions must be nonnegative, got {rows}×{cols}.")
        entries = tuple(entries)
        if len(entries) != rows * cols:
            raise ValueError(
                f"expected {rows * cols} entries for {rows}×{cols}, got {len(entries)}."
            )
        for entry in entries:
            if entry.aut is not aut and entry.aut != aut:
                raise ValueError("matrix entries must share the matrix's automorphism group.")
        self.aut = aut
        self.rows = rows
        self.cols = cols
        self.entries = entries

    def entry(self, i: int, j: int) -> GroupRingElement:
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"entry ({i}, {j}) outside {self.rows}×{self.cols} matrix.")
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple[GroupRingElement, ...]:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def _nonzero_rows(self) -> tuple[tuple[tuple[int, GroupRingElement], ...], ...]:
        """Per row, the ``(column, entry)`` pairs of its nonzero entries.

        Built on the first call and kept, immutable, for the next ones.
        """
        try:
            return self._sparse
        except AttributeError:
            pass
        # built from lists: tuple() over a generator regrows the tuple it
        # builds, which left dense_blocks' peak RSS 0.4 MB higher
        self._sparse = tuple([
            tuple([(i, entry) for i, entry in enumerate(self.row(j)) if entry.terms])
            for j in range(self.rows)
        ])
        return self._sparse

    def _coordinate_bounds(self) -> tuple[int, ...]:
        """Per coordinate i, the largest |v_i| over the terms of every entry.

        Found on the first call and kept for the next ones.
        """
        try:
            return self._bounds
        except AttributeError:
            pass
        vectors = [v for row in self._nonzero_rows() for _, e in row for v, _, _ in e.terms]
        columns = zip(*vectors)
        self._bounds = tuple([max(map(abs, c)) for c in columns]) or (0,) * self.aut.pi1_rank
        return self._bounds

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    @property
    def is_zero(self) -> bool:
        return not any(entry.terms for entry in self.entries)

    def __add__(self, other: "GroupRingMatrix") -> "GroupRingMatrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError(
                f"shape mismatch: {self.rows}×{self.cols} vs {other.rows}×{other.cols}."
            )
        return GroupRingMatrix(
            self.aut,
            self.rows,
            self.cols,
            tuple(a + b for a, b in zip(self.entries, other.entries)),
        )

    def __matmul__(self, other: "GroupRingMatrix") -> "GroupRingMatrix":
        if self.cols != other.rows:
            raise ValueError(
                f"cannot multiply {self.rows}×{self.cols} by {other.rows}×{other.cols}."
            )
        aut = self.aut
        _require_same_aut(aut, other.aut)
        cells: dict[tuple[int, int], list[tuple[tuple[int, ...], int, int]]] = {}
        other_rows = other._nonzero_rows()
        for j, row in enumerate(self._nonzero_rows()):
            for i, entry in row:
                for l, factor in other_rows[i]:
                    cells.setdefault((j, l), []).extend(
                        _product_terms(aut, entry.terms, factor.terms)
                    )
        zero = GroupRingElement.zero(aut)
        return GroupRingMatrix(
            aut,
            self.rows,
            other.cols,
            tuple(
                GroupRingElement._combined(aut, cells[cell]) if cell in cells else zero
                for cell in itertools.product(range(self.rows), range(other.cols))
            ),
        )

    def apply_twist(self, twist: TwistData) -> "GroupRingMatrix":
        return GroupRingMatrix(
            self.aut,
            self.rows,
            self.cols,
            tuple(entry.apply_twist(twist) if entry.terms else entry for entry in self.entries),
        )

    def trace(self) -> GroupRingElement:
        if not self.is_square:
            raise ValueError(f"trace requires a square matrix, got {self.rows}×{self.cols}.")
        diagonal = self.entries[:: self.cols + 1]
        return GroupRingElement._combined(
            self.aut, itertools.chain.from_iterable(entry.terms for entry in diagonal)
        )

    def augmented(self) -> IntMatrix:
        """The integer matrix of entrywise augmentations."""
        return IntMatrix(
            self.rows,
            self.cols,
            tuple(entry.augmentation() for entry in self.entries),
        )

    def submatrix(self, row_indices: Sequence[int], col_indices: Sequence[int]) -> "GroupRingMatrix":
        return GroupRingMatrix(
            self.aut,
            len(row_indices),
            len(col_indices),
            tuple(self.entry(i, j) for i in row_indices for j in col_indices),
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GroupRingMatrix):
            return NotImplemented
        return (
            self.aut == other.aut
            and (self.rows, self.cols) == (other.rows, other.cols)
            and self.entries == other.entries
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self.entries))

    def __str__(self) -> str:
        if self.rows == 0 or self.cols == 0:
            return f"[empty {self.rows}×{self.cols}]"
        body = "; ".join(
            ", ".join(str(self.entry(i, j)) for j in range(self.cols))
            for i in range(self.rows)
        )
        return f"[{body}]"

    def __repr__(self) -> str:
        return f"GroupRingMatrix({self.rows}×{self.cols} over {self.aut!r})"


def pi1_projection(
    element: GroupRingElement, classes: TwistedClassSet
) -> dict[tuple[int, ...], int]:
    """Project onto twisted classes of the translation subgroup.

    Support elements with a nontrivial Weyl component are dropped; the rest
    map to the canonical representative of their vector's twisted class.
    Returns a mapping from representatives to nonzero coefficients.

    >>> aut = AutGroup(0, FiniteGroup.builtin("Z2"))
    >>> classes = twisted_classes(aut, TwistData(IntMatrix.zeros(0, 0)))
    >>> pi1_projection(GroupRingElement.basis(aut, (), 1, -1), classes)
    {}
    >>> pi1_projection(GroupRingElement.basis(aut, (), 0, -1), classes)
    {(): -1}
    """
    if element.aut is not classes.aut and element.aut != classes.aut:
        raise ValueError("element and class set live over different automorphism groups.")
    identity_w = element.aut.weyl.identity
    projected: dict[tuple[int, ...], int] = {}
    for vector, w, coefficient in element.terms:
        if w != identity_w:
            continue
        representative = classes.representative(vector)
        projected[representative] = projected.get(representative, 0) + coefficient
    return {key: value for key, value in sorted(projected.items()) if value != 0}
