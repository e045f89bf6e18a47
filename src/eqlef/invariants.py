"""Invariants of twisted self-maps on equivariant complexes.

Computes, for a validated :class:`~eqlef.complex_model.EquivariantComplex`:

* :func:`universal_invariant` -- the universal class u, a per-isotropy-class
  formal sum of group-ring matrices in a Grothendieck-style normal form
  (block splitting, a canonical renumbering per block, cancellation), with
  an integer-class image when the automorphism data is trivial; different
  normal forms stay inconclusive (see :class:`KClass`).  A block's
  canonical renumbering comes from individualization-refinement: the least
  leaf by refinement trace, then row-major key, found with trace,
  automorphism and orbit pruning under the node budget
  :data:`MAX_CANONICAL_NODES`; 1×1 and 2×2 blocks keep their lex-least
  renumbering,
* :func:`lambda_invariant` -- the generalized Lefschetz class λ, the
  projected alternating group-ring trace per isotropy class,
* :func:`reidemeister_trace` / :func:`reidemeister_from_fixed_points` --
  the component-level Reidemeister trace, from chains or from recorded
  fixed-point data,
* :func:`lefschetz_number` -- the classical Lefschetz number of the
  component self-map,
* :func:`klein_williams` -- the fixed-point-theoretic decomposition ℓ with
  one summand per subgroup conjugacy class,
* :func:`induce` -- induction of complexes and of ℓ along a subgroup
  embedding,
* :func:`vanishing_report` -- simultaneous-vanishing consistency of ℓ and λ,
* :func:`build_report` / :func:`render_report` -- deterministic JSON and
  human-readable summaries.
"""

from __future__ import annotations

import dataclasses
import itertools
import operator
from typing import Any, Iterable, Mapping, Sequence

from .complex_model import (
    EquivariantComplex,
    FixedPointDatum,
    IsoClassData,
    _encode_group_ring_matrix,
    _encode_int,
    class_label,
    load_complex,
    serialize_complex,
)
from .equivariant_groups import (
    FiniteGroup,
    GroupRingElement,
    GroupRingMatrix,
    Subgroup,
    TwistedClassSet,
    pi1_projection,
    twisted_classes,
)
from .exact_algebra import FormalSum, _require_ints
from .uz import UZClass, _diagonal_blocks, class_of_matrix

__all__ = [
    "MAX_CANONICAL_NODES",
    "ClassSum",
    "KClass",
    "UniversalEntry",
    "UniversalInvariant",
    "LambdaEntry",
    "LambdaVector",
    "EllContribution",
    "EllSlot",
    "EllInvariant",
    "universal_invariant",
    "lambda_invariant",
    "reidemeister_trace",
    "reidemeister_from_fixed_points",
    "lefschetz_number",
    "klein_williams",
    "induce",
    "vanishing_report",
    "build_report",
    "render_report",
]

_MINUS = "−"
_MIDDLE_DOT = "·"


# ---------------------------------------------------------------------------
# finitely supported sums over twisted-class representatives


def _render_class_label(vector: tuple[int, ...]) -> str:
    if not vector:
        return "1"
    if len(vector) == 1:
        return str(vector[0]).replace("-", _MINUS)
    return "(" + ",".join(str(v) for v in vector).replace("-", _MINUS) + ")"


class ClassSum(FormalSum):
    """A finitely supported integer sum over twisted-class representatives.

    Keys are representative vectors, stored as tuples of ints and ordered by
    length, then lexicographically; vectors of different lengths may coexist
    (sums aggregated over components of different fundamental-group ranks).

    >>> str(ClassSum.from_mapping({(): 2}))
    '2[1]'
    >>> str(ClassSum.zero())
    '0'
    """

    @staticmethod
    def check_key(vector: Sequence[int]) -> tuple[int, ...]:
        return _require_ints(tuple(vector), lambda i: f"class vector entry {i}")

    @staticmethod
    def sort_key(vector: tuple[int, ...]) -> tuple:
        return (len(vector), vector)

    def total(self) -> int:
        """Sum of all coefficients (the augmentation)."""
        return sum(c for _, c in self.terms)

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        rendered = []
        for vector, coefficient in self.terms:
            coeff_str = str(coefficient).replace("-", _MINUS)
            rendered.append(f"{coeff_str}[{_render_class_label(vector)}]")
        return " ".join(rendered)


# ---------------------------------------------------------------------------
# the universal class and its normal form


MAX_CANONICAL_NODES = 8_000
"""The most search nodes :func:`_canonical_block` visits for one block.

A node is the root or one individualization, each with its refinement.
A directed n-cycle needs 3 nodes at every n, an all-equal n×n block (every
renumbering is an automorphism) n(n+1)/2, so 2,080 at n = 64, and the
graph of a random 8×8 Latin square (strongly regular, so one
individualization refines to only three cells) 2,753.  A block that needs
more has ties that refinement does not split and no automorphism
explains, and is refused with ``ValueError`` naming this limit.  At n = 64
a node costs 0.05 to 0.25 ms on a 2-vCPU virtual machine (those blocks,
the rook's graph K₈×K₈ and the 6-cube), so a search that reaches the
limit ends in about 2 s.
"""


def _canonical_block(matrix: GroupRingMatrix) -> GroupRingMatrix:
    """The block simultaneously renumbered into its canonical form.

    Individualization-refinement (McKay & Piperno, *Practical graph
    isomorphism, II*, 2014).  Entries are ranked by their terms, and the
    pair (v, w) is coloured by (rank of entry (v, w), rank of entry (w, v)).
    A node is an ordered partition of the indices, refined to the coarsest
    equitable one: starting from the cells of equal diagonal rank,
    ascending, each splitter cell W from a queue splits every cell by its
    members' sorted colours towards W, subcells in ascending key order; a
    split cell queues its subcells, all but its first largest one unless it
    was queued itself (Hopcroft).  A child individualizes one index of the
    first non-singleton cell.  A node's refinement trace (each split's cell,
    splitter size, keys and subcell sizes) is an invariant of the node; a
    node whose trace is larger than the best trace at its depth is pruned,
    its refinement stopping as soon as the trace passes the best one, and
    the form is the leaf with the least (trace sequence, row-major rank
    key).  A leaf equal
    to the best is an automorphism: the search jumps back to the depth
    where the two diverge and skips the stabilizer orbits of explored
    children.

    The form is a renumbering of the block that depends only on the block's
    renumbering class, and a 1×1 or 2×2 block keeps its least row-major key.
    A directed n-cycle is discrete after one individualization.  A search
    past :data:`MAX_CANONICAL_NODES` nodes raises ``ValueError``.
    """
    n = matrix.rows
    if n < 2:
        return matrix
    rank = {terms: r for r, terms in enumerate(sorted({e.terms for e in matrix.entries}))}
    table = [[rank[e.terms] for e in matrix.row(v)] for v in range(n)]
    width = len(rank)
    # towards[w][v]: the colour of the pair (v, w)
    towards = [[table[v][w] * width + table[w][v] for v in range(n)] for w in range(n)]

    def refine(
        lab: list[int], size: list[int], cells: list[int], queue: list[int], bound: list | None
    ) -> list:
        """Refine the partition in place from the splitter cells starting at ``queue``.

        ``lab`` lists the indices cell by cell, ``size[s]`` is the size of
        the cell starting at position s, and ``cells`` lists the starts of
        the cells of two or more indices, ascending.  Returns the trace, or
        a prefix of it that is already larger than ``bound``.
        """
        trace = []
        tied = bound is not None  # the trace so far equals a prefix of bound
        pending = set(queue)
        for s in queue:  # the queue grows while it is read
            if not cells:
                break
            pending.discard(s)
            length = size[s]
            if length == 1:
                keys_of = towards[lab[s]]
            else:  # each index's colours towards the splitter, sorted
                colours = zip(*[towards[w] for w in lab[s : s + length]])
                keys_of = [tuple(sorted(t)) for t in colours]
            key = keys_of.__getitem__
            still_open = []
            for c in cells:
                end = c + size[c]
                members = lab[c:end]
                keys = list(map(key, members))
                if keys.count(keys[0]) == len(keys):
                    still_open.append(c)
                    continue
                values = sorted(set(keys))
                sizes = list(map(keys.count, values))
                members.sort(key=key)
                lab[c:end] = members
                starts = list(itertools.accumulate(sizes[:-1], initial=c))
                for a, m in zip(starts, sizes):
                    size[a] = m
                    if m > 1:
                        still_open.append(a)
                entry = (c, length, tuple(zip(values, sizes)))
                trace.append(entry)
                if tied:
                    if len(trace) > len(bound) or entry > bound[len(trace) - 1]:
                        return trace
                    tied = entry == bound[len(trace) - 1]
                if c in pending:
                    new = starts[1:]
                else:  # every cell is equitable towards the old cell
                    largest = sizes.index(max(sizes))
                    new = starts[:largest] + starts[largest + 1 :]
                queue.extend(new)
                pending.update(new)
            cells[:] = still_open
        return trace

    diagonal = [table[v][v] for v in range(n)]
    lab = sorted(range(n), key=diagonal.__getitem__)
    size = [1] * n
    starts = [s for s in range(n) if s == 0 or diagonal[lab[s]] != diagonal[lab[s - 1]]]
    for a, b in zip(starts, starts[1:] + [n]):
        size[a] = b - a
    cells = [a for a in starts if size[a] > 1]
    refine(lab, size, cells, starts[:], None)

    best_traces: list[list] = []  # best_traces[d]: the trace of the best leaf's depth-(d+1) node
    best = None  # the best leaf's (key, order, individualized path), while known
    automorphisms: list[list[int]] = []
    nodes = 1

    def search(lab: list[int], size: list[int], cells: list[int], path: list[int]) -> int:
        """Explore below the node ``path`` individualizes; return the depth to resume at."""
        nonlocal nodes, best
        depth = len(path)
        if not cells:
            row_major = operator.itemgetter(*lab)
            key = [row_major(table[v]) for v in lab]
            if best is None or key < best[0]:
                best = (key, lab, path)
                return depth
            if key > best[0]:
                return depth
            image = [0] * n
            for v, w in zip(best[1], lab):
                image[v] = w
            automorphisms.append(image)
            return next(d for d in range(depth) if path[d] != best[2][d])
        s = cells[0]
        length = size[s]
        explored: set[int] = set()
        for v in lab[s : s + length]:
            if v in explored:
                continue
            nodes += 1
            if nodes > MAX_CANONICAL_NODES:
                raise ValueError(
                    f"the canonical form of a {n}×{n} block needs more than "
                    f"MAX_CANONICAL_NODES = {MAX_CANONICAL_NODES} search nodes."
                )
            child = lab[:]
            i = child.index(v, s)
            child[s], child[i] = v, child[s]
            child_size = size[:]
            child_size[s], child_size[s + 1] = 1, length - 1
            child_cells = cells[1:] if length == 2 else [s + 1] + cells[1:]
            bound = best_traces[depth] if depth < len(best_traces) else None
            trace = refine(child, child_size, child_cells, [s], bound)
            if depth == len(best_traces) or trace < best_traces[depth]:
                del best_traces[depth:]
                best = None
                best_traces.append(trace)
            if trace == best_traces[depth]:
                resume = search(child, child_size, child_cells, path + [v])
                if resume < depth:
                    return resume
            explored.add(v)
            stabilizer = [g for g in automorphisms if all(g[p] == p for p in path)]
            grown = len(explored) - 1
            while grown != len(explored):
                grown = len(explored)
                explored |= {g[x] for g in stabilizer for x in explored}
        return depth

    search(lab, size, cells, [])
    order = best[1]
    if order == list(range(n)):
        return matrix
    entries = tuple(matrix.entries[v * n + w] for v in order for w in order)
    return GroupRingMatrix(matrix.aut, n, n, entries)


class KClass(FormalSum):
    """A formal integer combination of square group-ring matrices.

    Keys must be square matrices, ordered by size, then by their entries'
    terms.  Equality of normal forms implies equality of classes; inequality
    is inconclusive, since conjugations that are not permutations are not
    seen, so :meth:`compare` answers ``"equal"`` or ``"not provably equal"``.
    """

    exact = True  # every normal form is exact; a constant, not a field

    @staticmethod
    def check_key(matrix: GroupRingMatrix) -> GroupRingMatrix:
        if not matrix.is_square:
            raise ValueError(
                f"universal-class terms must be square matrices, got {matrix.rows}×{matrix.cols}."
            )
        return matrix

    @staticmethod
    def sort_key(matrix: GroupRingMatrix) -> tuple:
        return (matrix.rows, tuple(entry.terms for entry in matrix.entries))

    @classmethod
    def normal_keys(cls, matrix: GroupRingMatrix) -> list[GroupRingMatrix]:
        """The blocks of ``matrix``, each in its canonical form.

        A matrix splits along the strongly connected components of its
        support digraph, and each block takes its canonical renumbering
        (:func:`_canonical_block`: the same form for every renumbering of the
        block, a different one for any other block); empty matrices vanish.
        A block whose search passes :data:`MAX_CANONICAL_NODES` nodes raises
        ``ValueError``.
        """
        n = cls.check_key(matrix).rows
        support = [sum(1 << i for i, _ in row) for row in matrix._nonzero_rows()]
        return [
            _canonical_block(matrix if len(c) == n else matrix.submatrix(c, c))
            for c in _diagonal_blocks(support)
        ]

    @classmethod
    def from_terms(cls, terms: Iterable[tuple[GroupRingMatrix, int]]) -> "KClass":
        """The normal form of ``terms``.

        Defined on the class itself, where ``perfbench/tracing.py`` wraps it
        by name; construction does the work (:meth:`normal_keys`).
        """
        return cls(tuple(terms))

    def compare(self, other: "KClass") -> str:
        """``"equal"`` when normal forms match, else ``"not provably equal"``."""
        if self.terms == other.terms:
            return "equal"
        return "not provably equal"

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        rendered = []
        for matrix, coefficient in self.terms:
            sign = "+" if coefficient > 0 else _MINUS
            magnitude = abs(coefficient)
            body = str(matrix) if magnitude == 1 else f"{magnitude}{_MIDDLE_DOT}{matrix}"
            rendered.append(f"{sign}{body}")
        return " ".join(rendered)


# ---------------------------------------------------------------------------
# per-class invariant computations


def _sign(degree: int) -> int:
    return -1 if degree % 2 else 1


def _diagonal(matrix: GroupRingMatrix) -> tuple[GroupRingElement, ...]:
    """The diagonal entries of the square ``matrix``, uncombined."""
    return matrix.entries[:: matrix.cols + 1]


@dataclasses.dataclass(frozen=True)
class UniversalEntry:
    """The universal-class term of one isotropy class."""

    subgroup_labels: tuple[str, ...]
    component: str
    kclass: KClass
    uz_image: UZClass | None


@dataclasses.dataclass(frozen=True)
class UniversalInvariant:
    """The universal class u: one formal matrix combination per isotropy class."""

    entries: tuple[UniversalEntry, ...]

    def __str__(self) -> str:
        if not self.entries:
            return "0"
        lines = []
        for entry in self.entries:
            line = f"{class_label(entry.subgroup_labels, entry.component)}: {entry.kclass}"
            if entry.uz_image is not None:
                line += f"  [integer class: {entry.uz_image}]"
            lines.append(line)
        return "\n".join(lines)


def _integer_class(terms: Iterable[tuple[GroupRingMatrix, int]]) -> UZClass:
    """Σ c · class_of_matrix(matrix.augmented()) over ``(matrix, c)`` pairs.

    :func:`class_of_matrix` splits each matrix into its diagonal blocks, so
    the matrices may be whole relative maps or the blocks of a normal form.
    """
    return UZClass(
        tuple((p, c * m) for matrix, c in terms for p, m in class_of_matrix(matrix.augmented()).terms)
    )


def universal_invariant(c: EquivariantComplex) -> UniversalInvariant:
    """The universal class: Σ_p (−1)^p [relative chain map in degree p] per class.

    Only the non-masked (relative) rows and columns of each chain map enter.
    When a class has trivial automorphism data (no translations, trivial
    Weyl group) the entry also carries its image in the integer-matrix class
    group, read off the normal form: Σ c · [block] over its terms.
    """
    entries = []
    for iso in c.classes:
        kclass = KClass.from_terms(
            (entry.relative_map, _sign(entry.degree)) for entry in iso.degrees
        )
        entries.append(
            UniversalEntry(
                subgroup_labels=iso.subgroup.member_labels,
                component=iso.component,
                kclass=kclass,
                uz_image=_integer_class(kclass.terms) if iso.aut.is_trivial else None,
            )
        )
    return UniversalInvariant(entries=tuple(entries))


@dataclasses.dataclass(frozen=True)
class LambdaEntry:
    """The λ-coordinate of one isotropy class."""

    subgroup_labels: tuple[str, ...]
    component: str
    value: ClassSum


@dataclasses.dataclass(frozen=True)
class LambdaVector:
    """The generalized Lefschetz class λ: one projected trace per isotropy class."""

    entries: tuple[LambdaEntry, ...]

    def __str__(self) -> str:
        if not self.entries:
            return "0"
        return "\n".join(
            f"{class_label(entry.subgroup_labels, entry.component)}: {entry.value}"
            for entry in self.entries
        )


def lambda_invariant(c: EquivariantComplex) -> LambdaVector:
    """λ per isotropy class: alternating projected group-ring traces.

    In each degree p the non-masked square part of the chain map contributes
    its group-ring trace with sign (−1)^p; the sum is projected to twisted
    conjugacy classes once (support elements with nontrivial Weyl part
    vanish).  With a trivial Weyl group and no masked cell this is R.
    """
    entries = (_lambda_entry(iso, twisted_classes(iso.aut, iso.twist)) for iso in c.classes)
    return LambdaVector(entries=tuple(entries))


def _alternating_projection(
    iso: IsoClassData, matrices: Iterable[GroupRingMatrix], classes: TwistedClassSet
) -> ClassSum:
    """The projection of Σ_p (−1)^p tr(M_p), one M_p per degree of ``iso``, summed over
    the matrices' own group and projected once, so each vector is reduced once.

    Every degree's diagonal terms, signed, enter one ``_combined``: no per-degree
    trace is built.  This serves R and λ.
    """
    signed = [(_sign(entry.degree), matrix) for entry, matrix in zip(iso.degrees, matrices)]
    if not signed:
        return ClassSum.zero()
    summed = GroupRingElement._combined(
        signed[0][1].aut,
        (
            (v, w, sign * c)
            for sign, matrix in signed
            for diagonal in _diagonal(matrix)
            for v, w, c in diagonal.terms
        ),
    )
    return ClassSum._from_normal(pi1_projection(summed, classes).items())


def _lambda_entry(iso: IsoClassData, classes: TwistedClassSet) -> LambdaEntry:
    """The λ entry of ``iso``, given its Weyl-merged twisted class set."""
    return LambdaEntry(
        subgroup_labels=iso.subgroup.member_labels,
        component=iso.component,
        value=_alternating_projection(iso, (e.relative_map for e in iso.degrees), classes),
    )


def reidemeister_trace(d: IsoClassData) -> ClassSum:
    """The Reidemeister trace of the component self-map, from chain data.

    The chain modules are restricted to the translation group ring along
    Weyl coset representatives (the expansion), and the alternating sum of
    diagonal coefficients is projected to the twisted classes over the
    translation-only group ``d.pi1_aut()``: lattice moves only, no Weyl
    identification.
    """
    return _alternating_projection(
        d,
        (expanded_map for _, _, expanded_map, _ in d.ladder),
        twisted_classes(d.pi1_aut(), d.twist),
    )


def reidemeister_from_fixed_points(
    data: Sequence[FixedPointDatum], classes: TwistedClassSet
) -> ClassSum:
    """Σ index·[twisted class of the point's path], merging equal classes.

    >>> reidemeister_from_fixed_points([], None).is_zero
    True
    """
    if data and classes is None:
        raise ValueError("a twisted class set is required for nonempty fixed-point data.")
    return ClassSum(tuple((classes.representative(point.path), point.index) for point in data))


def lefschetz_number(d: IsoClassData) -> int:
    """The Lefschetz number of the component self-map.

    Computed as the alternating trace of the integer chain matrices of the
    component: expand over Weyl cosets, then sum (−1)^p·aug(tr(expanded
    map)).  Augmentation is additive, so aug(tr) is Σ c over the terms of
    the diagonal entries, read as they are, with no trace element built.
    It is summed apart from R, so aug(R) = L stays an independent check.

    >>> from .complex_model import load_builtin
    >>> lefschetz_number(load_builtin("example2").classes[0])
    2
    """
    return sum(
        _sign(entry.degree)
        * sum(c for diagonal in _diagonal(expanded_map) for _, _, c in diagonal.terms)
        for entry, _, expanded_map, _ in d.ladder
    )


# ---------------------------------------------------------------------------
# the Klein–Williams decomposition


@dataclasses.dataclass(frozen=True)
class EllContribution:
    """The contribution of one component orbit to its subgroup-class slot."""

    subgroup_labels: tuple[str, ...]
    component: str
    orbit_size: int
    value: ClassSum


@dataclasses.dataclass(frozen=True)
class EllSlot:
    """One subgroup-conjugacy-class summand of the decomposition.

    Equality compares the subgroup labels and the total; the recorded
    per-component contributions are informational.
    """

    subgroup_labels: tuple[str, ...]
    total: ClassSum
    contributions: tuple[EllContribution, ...] = dataclasses.field(compare=False)


@dataclasses.dataclass(frozen=True)
class EllInvariant:
    """The decomposed fixed-point invariant ℓ: one summand per subgroup class."""

    slots: tuple[EllSlot, ...]

    @property
    def is_zero(self) -> bool:
        return all(slot.total.is_zero for slot in self.slots)

    def __str__(self) -> str:
        if not self.slots:
            return "0"
        return f" {chr(0x2295)} ".join(str(slot.total) for slot in self.slots)


def klein_williams(c: EquivariantComplex) -> EllInvariant:
    """The decomposition ℓ: per subgroup class, orbit-aggregated Reidemeister data.

    For each isotropy class (one representative component per Weyl orbit of
    components): compute the Reidemeister trace, identify twisted classes
    along the Weyl action of the component's stabilizer, multiply by the
    orbit size, and add into the slot of the subgroup conjugacy class.  With a
    trivial Weyl group nothing is identified: the summand is orbit·R.
    """
    return _ell(_ell_part(iso, reidemeister_trace(iso)) for iso in c.classes)


def _ell_part(
    iso: IsoClassData, trace: ClassSum, classes: TwistedClassSet | None = None
) -> tuple[tuple[int, ...], EllContribution]:
    """The slot key and ℓ contribution of ``iso``: orbit·R, R's keys reduced over the
    Weyl-merged ``classes`` (built if not given) unless W is trivial."""
    if iso.aut.weyl.order != 1:
        classes = classes or twisted_classes(iso.aut, iso.twist)
        trace = ClassSum(tuple((classes.representative(v), n) for v, n in trace.terms))
    return iso.subgroup.members, EllContribution(
        subgroup_labels=iso.subgroup.member_labels,
        component=iso.component,
        orbit_size=iso.orbit_size,
        value=trace.scale(iso.orbit_size),
    )


def _ell(parts: Iterable[tuple[tuple[int, ...], EllContribution]]) -> EllInvariant:
    """ℓ from ``(subgroup members, contribution)`` pairs; every ℓ is built here.

    Contributions with the same members share one slot, in the order given,
    and the slot total is their sum.  Slots are ordered by (subgroup order,
    members), as :func:`~eqlef.equivariant_groups.conjugacy_classes_of_subgroups`
    orders the classes.
    """
    slots: dict[tuple[int, ...], list[EllContribution]] = {}
    for members, part in parts:
        slots.setdefault(members, []).append(part)
    return EllInvariant(
        tuple(
            EllSlot(
                subgroup_labels=contributions[0].subgroup_labels,
                total=ClassSum(tuple(t for part in contributions for t in part.value.terms)),
                contributions=tuple(contributions),
            )
            for _, contributions in sorted(slots.items(), key=lambda item: (len(item[0]), item[0]))
        )
    )


# ---------------------------------------------------------------------------
# induction


def _validate_embedding(
    h_group: FiniteGroup, g_group: FiniteGroup, embedding: Mapping[str, str]
) -> dict[str, int]:
    """The embedding as source label → target index, checked to be an injective homomorphism.

    image(a·b) = image(a)·image(b) is checked for a in the source's ``generators``
    (the a that pass for all b are closed under products) or, when it has none,
    its identity.
    """
    mapping = {str(k): str(v) for k, v in embedding.items()}
    missing = sorted(set(h_group.labels) - set(mapping))
    if missing:
        raise ValueError(f"embedding must map every source group element; missing {missing}.")
    unknown = sorted(set(mapping) - set(h_group.labels))
    if unknown:
        raise ValueError(f"embedding names labels outside the source group: {unknown}.")
    if len(set(mapping.values())) != len(mapping):
        raise ValueError("embedding is not injective.")
    image = [g_group.element_index(mapping[label]) for label in h_group.labels]
    for a in h_group.generators or (h_group.identity,):
        for b in range(h_group.order):
            if image[h_group.multiply(a, b)] != g_group.multiply(image[a], image[b]):
                raise ValueError(
                    "embedding does not preserve multiplication at "
                    f"('{h_group.labels[a]}', '{h_group.labels[b]}')."
                )
    return dict(zip(h_group.labels, image))


def _relabel_matrix(value: Any, mapping: Mapping[str, str]) -> Any:
    """Relabel ``weyl_elem`` fields inside an encoded matrix, row, or entry."""
    if isinstance(value, list):
        return [_relabel_matrix(v, mapping) for v in value]
    if isinstance(value, Mapping):
        relabeled = dict(value)
        if "weyl_elem" in relabeled:
            relabeled["weyl_elem"] = mapping[relabeled["weyl_elem"]]
        return relabeled
    return value


def _relabel_document(document: Mapping, mapping: Mapping[str, int], g_group: FiniteGroup) -> dict:
    """A ``serialize_complex`` document moved along an embedding, without orbit sizes.

    The loader wants each class's subgroup to be the least conjugate, so a
    class on K moves along c_x∘``mapping``, c_x the conjugation by the
    ``least_conjugator`` x of mapping(K): its subgroup, Weyl labels,
    ``action`` keys, stabilizers, entries' ``weyl_elem`` and fixed points.
    A Weyl element is labelled by the least element of its coset, so each
    Weyl label becomes the least element of its image coset.  The loader
    derives each orbit size; the group spec is left to the caller.
    """
    subgroups: dict[tuple[str, ...], list[str]] = {}
    classes = []
    for raw_class in document["iso_classes"]:
        image = Subgroup(g_group, (mapping[v] for v in raw_class["subgroup_class"]))
        x = image.least_conjugator()
        image = image.conjugate_by(x)
        weyl_mapping = {
            label: g_group.labels[
                g_group.coset_representative(g_group.conjugate(x, y), image.members)
            ]
            for label, y in mapping.items()
        }
        subgroups[tuple(raw_class["subgroup_class"])] = list(image.member_labels)
        updated = {
            **raw_class,
            "subgroup_class": list(image.member_labels),
            "weyl": [weyl_mapping[v] for v in raw_class["weyl"]],
        }
        del updated["orbit_size"]
        if "action" in raw_class:
            updated["action"] = {
                weyl_mapping[label]: matrix for label, matrix in raw_class["action"].items()
            }
        chain = []
        for raw_degree in raw_class["chain"]:
            degree = dict(raw_degree)
            degree["stabilizers"] = [
                [weyl_mapping[v] for v in stabilizer] for stabilizer in raw_degree["stabilizers"]
            ]
            for key in ("map", "boundary"):
                if key in degree:
                    degree[key] = _relabel_matrix(degree[key], weyl_mapping)
            chain.append(degree)
        updated["chain"] = chain
        classes.append(updated)
    relabeled = {**document, "iso_classes": classes}
    if "fixed_points" in document:
        relabeled["fixed_points"] = [
            {**point, "subgroup_class": subgroups[tuple(point["subgroup_class"])]}
            for point in document["fixed_points"]
        ]
    return relabeled


def _push_forward(
    ell: EllInvariant, mapping: Mapping[str, int], g_group: FiniteGroup, factor: int
) -> EllInvariant:
    """ℓ along an embedding into ``g_group``, with orbit sizes and values × ``factor``.

    Each slot moves to the least conjugate of its image, the subgroup
    :func:`_relabel_document` gives the slot's classes.
    """
    parts = []
    for slot in ell.slots:
        image = Subgroup(g_group, (mapping[v] for v in slot.subgroup_labels)).least_conjugate()
        parts.extend(
            (
                image.members,
                dataclasses.replace(
                    part,
                    subgroup_labels=image.member_labels,
                    orbit_size=part.orbit_size * factor,
                    value=part.value.scale(factor),
                ),
            )
            for part in slot.contributions
        )
    return _ell(parts)


def induce(
    c: EquivariantComplex, g_group: FiniteGroup, embedding: Mapping[str, str]
) -> tuple[EquivariantComplex, EllInvariant]:
    """Induce a complex and its ℓ along a subgroup embedding.

    Supported regimes: the embedding is an isomorphism (relabeling), or the
    source group is trivial (free induction: each component acquires a free
    orbit of |G| copies; the name gains ``-induced``, and the description
    and fixed points are dropped).  Both go through :func:`_relabel_document`.
    The returned invariant is the induced image of the source's ℓ, pushed
    forward with factor |G|/|H|; it equals ``klein_williams`` of the induced
    complex.
    """
    mapping = _validate_embedding(c.group, g_group, embedding)
    if c.group.order not in (1, g_group.order):
        raise ValueError(
            "induction is supported for isomorphisms and for trivial source groups; "
            f"got source order {c.group.order} inside target order {g_group.order}."
        )
    factor = g_group.order // c.group.order
    document = _relabel_document(serialize_complex(c), mapping, g_group)
    document["group"] = {
        "labels": list(g_group.labels),
        "table": [list(row) for row in g_group.table],
    }
    if factor > 1:
        document.pop("description", None)
        document.pop("fixed_points", None)
        if c.name is not None:
            document["name"] = f"{c.name}-induced"
    return load_complex(document), _push_forward(klein_williams(c), mapping, g_group, factor)


# ---------------------------------------------------------------------------
# vanishing consistency and reports


def vanishing_report(c: EquivariantComplex) -> dict:
    """Whether ℓ and λ vanish simultaneously on this complex.

    >>> from .complex_model import load_builtin
    >>> vanishing_report(load_builtin("example1"))
    {'ell_zero': True, 'lambda_zero': True, 'consistent': True}
    """
    return _analyze(c).vanishing


def _vanishing(ell_zero: bool, lambda_zero: bool) -> dict:
    return {"ell_zero": ell_zero, "lambda_zero": lambda_zero, "consistent": ell_zero == lambda_zero}


@dataclasses.dataclass(frozen=True)
class _Analysis:
    """Every invariant of one complex but u, each computed once.

    ``rows`` holds one ``(class, λ, R, L)`` tuple per isotropy class, in
    document order.
    """

    rows: tuple[tuple[IsoClassData, ClassSum, ClassSum, int], ...]
    ell: EllInvariant
    vanishing: dict


def _analyze(c: EquivariantComplex) -> _Analysis:
    """With a trivial W, ℓ's summand is orbit·R; with no masked cell as well, λ is R
    (one matrix, equal class sets).  L is computed apart: aug(R) = L stays a check.
    u is left to the reports, so :func:`vanishing_report` shares this pass."""
    rows, parts = [], []
    for iso in c.classes:
        trace = reidemeister_trace(iso)
        masked = any(any(entry.relative_mask) for entry in iso.degrees)
        classes = twisted_classes(iso.aut, iso.twist) if masked or iso.aut.weyl.order != 1 else None
        parts.append(_ell_part(iso, trace, classes))
        l_value = trace if classes is None else _lambda_entry(iso, classes).value
        rows.append((iso, l_value, trace, lefschetz_number(iso)))
    ell = _ell(parts)
    lambda_zero = all(l_value.is_zero for _, l_value, _, _ in rows)
    return _Analysis(rows=tuple(rows), ell=ell, vanishing=_vanishing(ell.is_zero, lambda_zero))


def _encode_class_sum(value: ClassSum) -> list[dict]:
    return [
        {"class": [_encode_int(v) for v in vector], "coeff": _encode_int(coefficient)}
        for vector, coefficient in value.terms
    ]


def _encode_uz(value: UZClass) -> dict:
    return {
        "rendered": str(value),
        "terms": [
            {
                "polynomial": str(polynomial),
                "coefficients": [_encode_int(v) for v in polynomial.coefficients],
                "coeff": _encode_int(coefficient),
            }
            for polynomial, coefficient in value.terms
        ],
    }


def build_report(c: EquivariantComplex) -> dict:
    """A deterministic JSON-ready report of every invariant of the complex."""
    analysis = _analyze(c)
    classes = []
    u_entries = universal_invariant(c).entries
    for (iso, l_value, trace, lefschetz), u_entry in zip(analysis.rows, u_entries):
        entry = {
            "subgroup_class": list(iso.subgroup.member_labels),
            "component": iso.component,
            "orbit_size": iso.orbit_size,
            "u": {
                "rendered": str(u_entry.kclass),
                "terms": [
                    {
                        "coeff": _encode_int(coefficient),
                        "matrix": _encode_group_ring_matrix(matrix),
                    }
                    for matrix, coefficient in u_entry.kclass.terms
                ],
            },
            "lambda": _encode_class_sum(l_value),
            "reidemeister": _encode_class_sum(trace),
            "lefschetz": _encode_int(lefschetz),
        }
        if u_entry.uz_image is not None:
            entry["u"]["uz_image"] = _encode_uz(u_entry.uz_image)
        classes.append(entry)
    report = {
        "group": {"order": c.group.order, "labels": list(c.group.labels)},
        "classes": classes,
        "ell": {
            "rendered": str(analysis.ell),
            "slots": [
                {
                    "subgroup_class": list(slot.subgroup_labels),
                    "total": _encode_class_sum(slot.total),
                    "contributions": [
                        {
                            "component": contribution.component,
                            "orbit_size": contribution.orbit_size,
                            "value": _encode_class_sum(contribution.value),
                        }
                        for contribution in slot.contributions
                    ],
                }
                for slot in analysis.ell.slots
            ],
        },
        "vanishing": analysis.vanishing,
    }
    if c.name is not None:
        report["name"] = c.name
    return report


def render_report(c: EquivariantComplex) -> str:
    """A human-readable summary of every invariant of the complex."""
    analysis = _analyze(c)
    vanishing = analysis.vanishing
    lines = []
    title = c.name if c.name is not None else "complex"
    lines.append(f"{title} (group order {c.group.order})")
    u_entries = universal_invariant(c).entries
    for (iso, l_value, trace, lefschetz), u_entry in zip(analysis.rows, u_entries):
        lines.append(f"  {iso.label}:")
        lines.append(f"    u = {u_entry.kclass}")
        if u_entry.uz_image is not None:
            lines.append(f"    u integer class = {u_entry.uz_image}")
        lines.append(f"    lambda = {l_value}")
        lines.append(f"    R = {trace}")
        lines.append(f"    L = {lefschetz}")
    lines.append(f"  ell = {analysis.ell}")
    lines.append(
        "  vanishing: ell zero: {}; lambda zero: {}; consistent: {}".format(
            "yes" if vanishing["ell_zero"] else "no",
            "yes" if vanishing["lambda_zero"] else "no",
            "yes" if vanishing["consistent"] else "no",
        )
    )
    return "\n".join(lines)
