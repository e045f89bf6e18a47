"""Invariants of twisted self-maps on equivariant complexes.

Computes, for a validated :class:`~eqlef.complex_model.EquivariantComplex`:

* :func:`universal_invariant` -- the universal class u, a per-isotropy-class
  formal sum of group-ring matrices in a Grothendieck-style normal form
  (block splitting, an exact permutation-canonical form per block,
  cancellation), with an integer-class image when the automorphism data is
  trivial; different normal forms stay inconclusive (see :class:`KClass`),
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
    GroupRingMatrix,
    Subgroup,
    TwistedClassSet,
    pi1_projection,
    twisted_classes,
)
from .exact_algebra import FormalSum
from .uz import UZClass, class_of_matrix

__all__ = [
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
        return tuple(int(v) for v in vector)

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


def _canonical_block(matrix: GroupRingMatrix) -> GroupRingMatrix:
    """The simultaneous renumbering of the block with the least row-major key.

    Individualization-refinement (McKay–Piperno): row r is picked from the
    first cell of an ordered partition of the unplaced indices.  A
    candidate's row key is its entries against the placed rows, its diagonal
    entry, then the sorted entries within each remaining cell, in cell order;
    only least keys are branched on, a branch whose key is worse than the
    best at its depth is pruned, and the chosen row splits every cell by its
    entries, ascending.  A leaf equal to the best leaf is an automorphism:
    the search jumps back to where the two diverge and skips the orbits of
    explored candidates.  Exact at every size; the work is exponential only
    in ties that no automorphism explains.
    """
    n = matrix.rows
    rank = {terms: i for i, terms in enumerate(sorted({e.terms for e in matrix.entries}))}
    table = [[rank[matrix.entry(i, j).terms] for j in range(n)] for i in range(n)]
    best_keys: list[tuple[int, ...]] = []
    best_order: list[int] = []
    automorphisms: list[dict[int, int]] = []

    def search(placed: list[int], cells: list[list[int]]) -> int:
        """Explore below ``placed``; return the depth to resume at."""
        depth = len(placed)
        if depth == n:
            if not best_order:
                best_order.extend(placed)
                return depth
            automorphisms.append(dict(zip(best_order, placed)))
            return next(i for i in range(n) if placed[i] != best_order[i])
        candidates = []
        for p in cells[0]:
            row = table[p]
            refined = [
                [q for q in cell if row[q] == value]
                for cell in [[q for q in cells[0] if q != p]] + cells[1:]
                for value in sorted({row[q] for q in cell})
            ]
            # each refined cell holds one value, ascending within its old cell
            row_key = tuple(row[q] for q in placed) + (row[p],)
            row_key += tuple(row[c[0]] for c in refined for _ in c)
            candidates.append((row_key, p, refined))
        least = min(row_key for row_key, _, _ in candidates)
        if depth < len(best_keys) and least > best_keys[depth]:
            return depth
        if depth == len(best_keys) or least < best_keys[depth]:
            del best_keys[depth:]
            best_order.clear()
            best_keys.append(least)
        explored: set[int] = set()
        for row_key, p, refined in candidates:
            if row_key != least or p in explored:
                continue
            resume = search(placed + [p], refined)
            if resume < depth:
                return resume
            explored.add(p)
            stabilizer = [g for g in automorphisms if all(g[q] == q for q in placed)]
            size = 0
            while size < len(explored):
                size = len(explored)
                explored |= {g[x] for g in stabilizer for x in explored}
        return depth

    search([], [list(range(n))])
    if best_order == list(range(n)):
        return matrix
    entries = tuple(matrix.entry(i, j) for i in best_order for j in best_order)
    return GroupRingMatrix(matrix.aut, n, n, entries)


def _split_blocks(matrix: GroupRingMatrix) -> list[GroupRingMatrix]:
    """Split along the strongly connected components of the support digraph.

    The class of a visibly block-triangular matrix is the sum of the classes
    of its diagonal blocks, so only the component submatrices survive.
    """
    n = matrix.rows
    edges = [[i for i in range(n) if not matrix.entry(j, i).is_zero] for j in range(n)]
    reach = []
    for start in range(n):
        seen, frontier = {start}, [start]
        while frontier:
            for i in edges[frontier.pop()]:
                if i not in seen:
                    seen.add(i)
                    frontier.append(i)
        reach.append(seen)
    components = {tuple(i for i in sorted(reach[j]) if j in reach[i]) for j in range(n)}
    return [matrix.submatrix(list(c), list(c)) for c in sorted(components)]


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
    def from_terms(cls, terms: Iterable[tuple[GroupRingMatrix, int]]) -> "KClass":
        """The normal form of ``terms``, block by block.

        Each matrix splits along the strongly connected components of its
        support digraph, and each block takes its exact permutation-canonical
        form (one search at every size); empty matrices vanish.
        """
        return cls(
            tuple(
                (_canonical_block(block), coefficient)
                for matrix, coefficient in terms
                for block in _split_blocks(cls.check_key(matrix))
            )
        )

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


def _unmasked_submatrix(iso: IsoClassData, degree_index: int) -> GroupRingMatrix:
    entry = iso.degrees[degree_index]
    unmasked = entry.unmasked_indices
    return entry.chain_map.submatrix(unmasked, unmasked)


def _sign(degree: int) -> int:
    return -1 if degree % 2 else 1


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

    def entry_for(self, subgroup_labels: Sequence[str], component: str) -> UniversalEntry:
        key = (tuple(subgroup_labels), component)
        for entry in self.entries:
            if (entry.subgroup_labels, entry.component) == key:
                return entry
        raise ValueError(f"no universal-class entry for {key}.")

    @property
    def is_zero(self) -> bool:
        return all(entry.kclass.is_zero for entry in self.entries)

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


def universal_invariant(c: EquivariantComplex) -> UniversalInvariant:
    """The universal class: Σ_p (−1)^p [relative chain map in degree p] per class.

    Only the non-masked (relative) rows and columns of each chain map enter.
    When a class has trivial automorphism data (no translations, trivial
    Weyl group) the entry also carries its image in the integer-matrix class
    group, computed through characteristic polynomials.
    """
    entries = []
    for iso in c.classes:
        kclass = KClass.from_terms(
            (_unmasked_submatrix(iso, i), _sign(entry.degree))
            for i, entry in enumerate(iso.degrees)
        )
        uz_image = None
        if iso.aut.is_trivial:
            uz_image = UZClass(
                tuple(
                    (polynomial, _sign(entry.degree) * coefficient)
                    for i, entry in enumerate(iso.degrees)
                    for polynomial, coefficient in class_of_matrix(
                        _unmasked_submatrix(iso, i).augmented()
                    ).terms
                )
            )
        entries.append(
            UniversalEntry(
                subgroup_labels=iso.subgroup.member_labels,
                component=iso.component,
                kclass=kclass,
                uz_image=uz_image,
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

    def entry_for(self, subgroup_labels: Sequence[str], component: str) -> LambdaEntry:
        key = (tuple(subgroup_labels), component)
        for entry in self.entries:
            if (entry.subgroup_labels, entry.component) == key:
                return entry
        raise ValueError(f"no λ entry for {key}.")

    def totals(self) -> tuple[int, ...]:
        """Per-class coefficient totals, in document order."""
        return tuple(entry.value.total() for entry in self.entries)

    @property
    def is_zero(self) -> bool:
        return all(entry.value.is_zero for entry in self.entries)

    def __str__(self) -> str:
        if not self.entries:
            return "0"
        return "\n".join(
            f"{class_label(entry.subgroup_labels, entry.component)}: {entry.value}"
            for entry in self.entries
        )


def lambda_invariant(c: EquivariantComplex) -> LambdaVector:
    """λ per isotropy class: alternating projected group-ring traces.

    In each degree the non-masked square part of the chain map contributes
    its group-ring trace; the trace is projected to twisted conjugacy
    classes (support elements with nontrivial Weyl part vanish), and degrees
    alternate in sign.
    """
    entries = (_lambda_entry(iso, twisted_classes(iso.aut, iso.twist)) for iso in c.classes)
    return LambdaVector(entries=tuple(entries))


def _alternating_projection(
    iso: IsoClassData, matrices: Iterable[GroupRingMatrix], classes: TwistedClassSet
) -> ClassSum:
    """Σ_p (−1)^p [projected trace of the degree-p matrix], one matrix per degree of ``iso``."""
    return ClassSum(
        tuple(
            (vector, _sign(entry.degree) * coefficient)
            for entry, matrix in zip(iso.degrees, matrices)
            for vector, coefficient in pi1_projection(matrix.trace(), classes).items()
        )
    )


def _lambda_entry(iso: IsoClassData, classes: TwistedClassSet) -> LambdaEntry:
    """The λ entry of ``iso``, given its Weyl-merged twisted class set."""
    return LambdaEntry(
        subgroup_labels=iso.subgroup.member_labels,
        component=iso.component,
        value=_alternating_projection(
            iso, (_unmasked_submatrix(iso, i) for i in range(len(iso.degrees))), classes
        ),
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
        (d.expanded_chain_map(entry.degree) for entry in d.degrees),
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
    component: expand over Weyl cosets, apply the augmentation, and trace.

    >>> from .complex_model import load_builtin
    >>> lefschetz_number(load_builtin("example2").classes[0])
    2
    """
    total = 0
    for entry in d.degrees:
        expanded = d.expanded_chain_map(entry.degree)
        total += _sign(entry.degree) * expanded.augmented().trace()
    return total


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
    """One subgroup-conjugacy-class summand of the decomposition."""

    subgroup_labels: tuple[str, ...]
    total: ClassSum
    contributions: tuple[EllContribution, ...]


class EllInvariant:
    """The decomposed fixed-point invariant ℓ: one summand per subgroup class.

    Equality compares slot subgroup labels and slot totals; the recorded
    per-component contributions are informational.
    """

    __slots__ = ("slots",)

    def __init__(self, slots: Sequence[EllSlot]) -> None:
        self.slots = tuple(slots)

    @property
    def is_zero(self) -> bool:
        return all(slot.total.is_zero for slot in self.slots)

    def slot_for(self, subgroup_labels: Sequence[str]) -> EllSlot:
        key = tuple(subgroup_labels)
        for slot in self.slots:
            if slot.subgroup_labels == key:
                return slot
        raise ValueError(f"no ℓ slot for subgroup class {list(key)}.")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EllInvariant):
            return NotImplemented
        mine = tuple((slot.subgroup_labels, slot.total.terms) for slot in self.slots)
        theirs = tuple((slot.subgroup_labels, slot.total.terms) for slot in other.slots)
        return mine == theirs

    def __hash__(self) -> int:
        return hash(tuple((slot.subgroup_labels, slot.total.terms) for slot in self.slots))

    def __str__(self) -> str:
        if not self.slots:
            return "0"
        return f" {chr(0x2295)} ".join(str(slot.total) for slot in self.slots)


def klein_williams(c: EquivariantComplex) -> EllInvariant:
    """The decomposition ℓ: per subgroup class, orbit-aggregated Reidemeister data.

    For each isotropy class (one representative component per Weyl orbit of
    components): compute the Reidemeister trace, identify twisted classes
    along the Weyl action of the component's stabilizer, multiply by the
    orbit size, and add into the slot of the subgroup conjugacy class.
    """
    return _ell(
        _ell_part(iso, reidemeister_trace(iso), twisted_classes(iso.aut, iso.twist))
        for iso in c.classes
    )


def _ell_part(
    iso: IsoClassData, trace: ClassSum, classes: TwistedClassSet
) -> tuple[tuple[int, ...], EllContribution]:
    """The slot key and ℓ contribution of ``iso``, from R and the Weyl-merged class set."""
    return iso.subgroup.members, EllContribution(
        subgroup_labels=iso.subgroup.member_labels,
        component=iso.component,
        orbit_size=iso.orbit_size,
        value=ClassSum(
            tuple((classes.representative(v), iso.orbit_size * n) for v, n in trace.terms)
        ),
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
        [
            EllSlot(
                subgroup_labels=contributions[0].subgroup_labels,
                total=ClassSum(tuple(t for part in contributions for t in part.value.terms)),
                contributions=tuple(contributions),
            )
            for _, contributions in sorted(slots.items(), key=lambda item: (len(item[0]), item[0]))
        ]
    )


# ---------------------------------------------------------------------------
# induction


def _validate_embedding(
    h_group: FiniteGroup, g_group: FiniteGroup, embedding: Mapping[str, str]
) -> dict[str, int]:
    """The embedding as source label → target index, checked to be an injective homomorphism."""
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
    for a in range(h_group.order):
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


def _relabel_document(
    document: Mapping, mapping: Mapping[str, int], g_group: FiniteGroup, factor: int
) -> dict:
    """A ``serialize_complex`` document moved along an embedding, orbit sizes × ``factor``.

    The loader wants each class's subgroup to be the least conjugate, so a
    class on K moves along c_x∘``mapping``, c_x the conjugation by the
    ``least_conjugator`` x of mapping(K): its subgroup, Weyl labels,
    ``action`` keys, stabilizers, entries' ``weyl_elem`` and fixed points.
    A Weyl element is labelled by the least element of its coset, so each
    Weyl label becomes the least element of its image coset.  The group
    spec is left to the caller.
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
            "orbit_size": raw_class["orbit_size"] * factor,
        }
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
    and fixed points are dropped).  Both go through :func:`_relabel_document`
    with factor |G|/|H|.  The returned invariant is the induced image of the
    source's ℓ; it equals ``klein_williams`` of the induced complex.
    """
    mapping = _validate_embedding(c.group, g_group, embedding)
    if c.group.order not in (1, g_group.order):
        raise ValueError(
            "induction is supported for isomorphisms and for trivial source groups; "
            f"got source order {c.group.order} inside target order {g_group.order}."
        )
    factor = g_group.order // c.group.order
    document = _relabel_document(serialize_complex(c), mapping, g_group, factor)
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
    return _vanishing(klein_williams(c).is_zero, lambda_invariant(c).is_zero)


def _vanishing(ell_zero: bool, lambda_zero: bool) -> dict:
    return {"ell_zero": ell_zero, "lambda_zero": lambda_zero, "consistent": ell_zero == lambda_zero}


@dataclasses.dataclass(frozen=True)
class _Analysis:
    """Every invariant of one complex, each computed once.

    ``rows`` holds one ``(class, u entry, λ entry, R, L)`` tuple per
    isotropy class, in document order.
    """

    rows: tuple[tuple[IsoClassData, UniversalEntry, LambdaEntry, ClassSum, int], ...]
    ell: EllInvariant
    vanishing: dict


def _analyze(c: EquivariantComplex) -> _Analysis:
    rows, parts = [], []
    for iso, u_entry in zip(c.classes, universal_invariant(c).entries):
        trace = reidemeister_trace(iso)
        classes = twisted_classes(iso.aut, iso.twist)
        parts.append(_ell_part(iso, trace, classes))
        rows.append((iso, u_entry, _lambda_entry(iso, classes), trace, lefschetz_number(iso)))
    ell = _ell(parts)
    lambda_zero = all(l_entry.value.is_zero for _, _, l_entry, _, _ in rows)
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
    for iso, u_entry, l_entry, trace, lefschetz in analysis.rows:
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
            "lambda": _encode_class_sum(l_entry.value),
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
    for iso, u_entry, l_entry, trace, lefschetz in analysis.rows:
        lines.append(f"  {iso.label}:")
        lines.append(f"    u = {u_entry.kclass}")
        if u_entry.uz_image is not None:
            lines.append(f"    u integer class = {u_entry.uz_image}")
        lines.append(f"    lambda = {l_entry.value}")
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
