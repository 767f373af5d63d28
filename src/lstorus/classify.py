"""Equivalence deciders for characteristic pairs.

Two notions are decided:

* strong: a poset isomorphism matching facet labels exactly;
* weak: a poset isomorphism matching labels up to one torus automorphism
  A in GL(k, Z) applied to all labels at once.

Searches are exact backtracking over faces, pruned by an iterated color
refinement of the Hasse diagram (codimension, cover degrees, and label data
that is invariant for the mode), mapping next the face most connected to
those already mapped.  Every positive verdict carries a witness
that is re-verified by an independent recomputation before being returned.
``poset_automorphisms`` runs the same search on the bare poset; the census
dedup is built on it.

``canonical_form`` produces a string equal across a mode's equivalence class
by minimizing a deterministic serialization over an individualization-
refinement tree.  The weak form serializes label classes, not labels, and
adds the least GL(k, Z) x sign normal form of the label matrix over the
tree's least leaves.  It is bounded to posets with at most 64 faces; the
deciders have no such bound.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable, Iterator, Mapping, Optional, Sequence

from .charpair import CharacteristicPair
from .faceposet import FacePoset
from .lattice import (
    Matrix,
    PrimitiveVector,
    apply_auto,
    det_int,
    gl_sign_normal_form,
    solve_unimodular,
)

CANONICAL_FORM_MAX_FACES = 64


class CanonicalFormError(ValueError):
    """Raised when a pair exceeds the supported canonical-form size."""


@dataclass(frozen=True)
class IsoWitness:
    """A face bijection, plus the torus automorphism for weak equivalence."""

    phi: dict[str, str]
    auto: Optional[Matrix] = None


@dataclass(frozen=True)
class Verdict:
    equivalent: bool
    mode: str
    witness: Optional[IsoWitness] = None
    reason: str = ""
    hypotheses: dict[str, bool] = field(default_factory=dict)
    conclusion: str = ""
    witness_unique: Optional[bool] = None


# ---------------------------------------------------------------------------
# Refined backtracking search for poset isomorphisms.


class _SearchPoset:
    """Preprocessed view of a poset and its facet labels for the
    isomorphism search; an empty label map gives the bare poset.

    Facets carrying the same label are "mates".  They are kept as label
    classes, not as per-face sets, so a class of m facets costs O(m), not
    O(m^2).
    """

    def __init__(
        self, poset: FacePoset, labels: Mapping[str, PrimitiveVector], mode: str
    ):
        self.ids = poset.ids()
        self.codim = {f: poset.codim(f) for f in self.ids}
        self.up = {f: frozenset(poset.covering(f)) for f in self.ids}
        self.down = {f: frozenset(poset.covered_by(f)) for f in self.ids}
        # Label class (the label's coordinates) of each facet, and members.
        self.label_class = {f: v.coords for f, v in labels.items()}
        self.classes: dict[tuple[int, ...], list[str]] = {}
        for f in self.ids:
            if f in labels:
                self.classes.setdefault(labels[f].coords, []).append(f)
        # Color keys are nested integer tuples so rounds sort structurally.
        self.init_key = {}
        for f in self.ids:
            if f in labels:
                if mode == "strong":
                    label_part = (1,) + labels[f].coords
                else:
                    label_part = (2, len(self.classes[labels[f].coords]))
            else:
                label_part = (0,)
            self.init_key[f] = (
                self.codim[f],
                len(self.up[f]),
                len(self.down[f]),
                label_part,
            )

    def mate_colors(self, col: dict[str, int]) -> dict[str, tuple[int, ...]]:
        """Sorted colors of each face's mates (itself excluded); faces of one
        class and one color share the tuple."""
        class_cols = {
            c: sorted(col[g] for g in members) for c, members in self.classes.items()
        }
        shared: dict[tuple, tuple[int, ...]] = {}
        out: dict[str, tuple[int, ...]] = {}
        for f in self.ids:
            c = self.label_class.get(f)
            if c is None:
                out[f] = ()
                continue
            key = (c, col[f])
            if key not in shared:
                cols = class_cols[c]
                i = cols.index(col[f])
                shared[key] = tuple(cols[:i] + cols[i + 1:])
            out[f] = shared[key]
        return out


def _joint_refine(
    structs: Sequence[_SearchPoset], init_keys: Sequence[dict[str, tuple]]
) -> list[dict[str, int]]:
    """Stable color refinement with ids shared across all the structs,
    starting from the given per-struct keys.

    Keys are comparable tuples and each round keeps the previous color as
    the leading component, so dense re-indexing preserves the color order
    and the iteration reaches a genuine fixed point.
    """

    def intern_round(keys: list[list[tuple]]) -> list[dict[str, int]]:
        flat = sorted({k for ks in keys for k in ks})
        table = {k: i for i, k in enumerate(flat)}
        return [
            {f: table[k] for f, k in zip(s.ids, ks)}
            for s, ks in zip(structs, keys)
        ]

    colors = intern_round([[ks[f] for f in s.ids] for s, ks in zip(structs, init_keys)])
    while True:
        keys = []
        for s, col in zip(structs, colors):
            mates = s.mate_colors(col)
            ks = []
            for f in s.ids:
                sig = (
                    col[f],
                    tuple(sorted(col[g] for g in s.up[f])),
                    tuple(sorted(col[g] for g in s.down[f])),
                    mates[f],
                )
                ks.append(sig)
            keys.append(ks)
        new = intern_round(keys)
        if new == colors:
            return colors
        colors = new


def _histogram(colors: dict[str, int]) -> dict[int, int]:
    out: dict[int, int] = {}
    for c in colors.values():
        out[c] = out.get(c, 0) + 1
    return out


def _search_order(
    sa: _SearchPoset, col_a: dict[str, int], hist_a: dict[int, int]
) -> list[str]:
    """Connectivity-driven order for the search (the VF2 order of Cordella,
    Foggia, Sansone and Vento, IEEE TPAMI 2004).

    The next face is the unplaced one with the most placed neighbours (up,
    down and label mates); ties go to the smaller color class, then the
    color, then the face id.  A face placed next to mapped ones has few
    consistent images, so symmetric posets branch little.

    Placing a facet raises the score of all its mates at once, so a label
    class keeps its own heap (ordered by placed up/down neighbours) and only
    the class's best member is pushed to the global heap.  Stale entries of
    both heaps are skipped when popped.
    """
    nbrs = {f: 0 for f in sa.ids}  # placed up/down neighbours
    in_class = {c: 0 for c in sa.classes}  # placed members per label class

    def rank(f: str) -> tuple:
        return (hist_a[col_a[f]], col_a[f], f)

    def score(f: str) -> int:
        c = sa.label_class.get(f)
        return nbrs[f] + (in_class[c] if c is not None else 0)

    class_heaps = {
        c: [(0,) + rank(f) for f in members] for c, members in sa.classes.items()
    }
    for h in class_heaps.values():
        heapq.heapify(h)
    heap = [(0,) + rank(f) for f in sa.ids]
    heapq.heapify(heap)
    placed: set[str] = set()

    def push_best(c: tuple[int, ...]) -> None:
        h = class_heaps[c]
        while h and (h[0][-1] in placed or -h[0][0] != nbrs[h[0][-1]]):
            heapq.heappop(h)
        if h:
            f = h[0][-1]
            heapq.heappush(heap, (-score(f),) + rank(f))

    order: list[str] = []
    while heap:
        entry = heapq.heappop(heap)
        u = entry[-1]
        if u in placed or -entry[0] != score(u):
            continue
        order.append(u)
        placed.add(u)
        for w in sa.up[u] | sa.down[u]:
            if w in placed:
                continue
            nbrs[w] += 1
            heapq.heappush(heap, (-score(w),) + rank(w))
            c = sa.label_class.get(w)
            if c is not None:
                heapq.heappush(class_heaps[c], (-nbrs[w],) + rank(w))
        c = sa.label_class.get(u)
        if c is not None:
            in_class[c] += 1
            push_best(c)
    return order


def _iso_candidates(
    sa: _SearchPoset, sb: _SearchPoset
) -> Iterator[dict[str, str]]:
    """Yield poset isomorphisms (mate-consistent) in deterministic order.

    The backtracking runs on an explicit stack, so its depth is not bounded
    by the interpreter's recursion limit.  For ``sa is sb`` (automorphisms)
    one refinement serves both sides: interning one copy of the keys gives
    the same colour ids as interning two.
    """
    if len(sa.ids) != len(sb.ids):
        return
    if sa is sb:
        col_a = col_b = _joint_refine([sa], [sa.init_key])[0]
    else:
        col_a, col_b = _joint_refine([sa, sb], [sa.init_key, sb.init_key])
    hist_a = _histogram(col_a)
    if hist_a != _histogram(col_b):
        return

    by_color_b: dict[int, list[str]] = {}
    for f in sb.ids:
        by_color_b.setdefault(col_b[f], []).append(f)

    order = _search_order(sa, col_a, hist_a)
    # sb.ids is sorted, so each color's candidates are in id order.
    candidates = [by_color_b.get(col_a[u], []) for u in order]
    phi: dict[str, str] = {}
    used: set[str] = set()
    # Mates must map to mates.  The placed members of a label class of a all
    # map into one class of b, image[class], and the counts must agree.
    placed_a = {c: 0 for c in sa.classes}
    used_b = {c: 0 for c in sb.classes}
    image: dict[tuple[int, ...], tuple[int, ...]] = {}

    def consistent(u: str, v: str) -> bool:
        for rel_a, rel_b in ((sa.up, sb.up), (sa.down, sb.down)):
            count = 0
            for w in rel_a[u]:
                if w in phi:
                    count += 1
                    if phi[w] not in rel_b[v]:
                        return False
            if sum(1 for w in rel_b[v] if w in used) != count:
                return False
        ca = sa.label_class.get(u)
        if ca is None:
            return True
        cb = sb.label_class[v]
        n = placed_a[ca]
        return n == used_b[cb] and (n == 0 or image[ca] == cb)

    def place(u: str, v: str) -> None:
        phi[u] = v
        used.add(v)
        ca = sa.label_class.get(u)
        if ca is not None:
            cb = sb.label_class[v]
            placed_a[ca] += 1
            used_b[cb] += 1
            image[ca] = cb

    def unplace(u: str) -> None:
        v = phi.pop(u)
        used.discard(v)
        ca = sa.label_class.get(u)
        if ca is not None:
            placed_a[ca] -= 1
            used_b[sb.label_class[v]] -= 1

    # next_index[i]: where the scan of order[i]'s candidates resumes.
    next_index = [0] * len(order)
    depth = 0
    while depth >= 0:
        if depth == len(order):
            yield dict(phi)
            depth -= 1
            unplace(order[depth])
            continue
        u = order[depth]
        cands = candidates[depth]
        j = next_index[depth]
        while j < len(cands) and (cands[j] in used or not consistent(u, cands[j])):
            j += 1
        if j == len(cands):
            next_index[depth] = 0
            depth -= 1
            if depth >= 0:
                unplace(order[depth])
            continue
        next_index[depth] = j + 1
        place(u, cands[j])
        depth += 1


def poset_automorphisms(poset: FacePoset) -> Iterator[dict[str, str]]:
    """Yield each automorphism of the bare poset once, lazily, as a face map.

    Nothing is computed until the first automorphism is asked for, and a
    caller that stops early never pays for the rest of the group.
    """
    sp = _SearchPoset(poset, {}, "strong")
    yield from _iso_candidates(sp, sp)


# ---------------------------------------------------------------------------
# Verdicts.


def _shape_mismatch(a: CharacteristicPair, b: CharacteristicPair) -> Optional[str]:
    if a.k != b.k:
        return f"k differs ({a.k} vs {b.k})"
    if a.dim_orbit != b.dim_orbit:
        return f"dim_orbit differs ({a.dim_orbit} vs {b.dim_orbit})"
    counts_a = sorted(a.poset.codim(f) for f in a.poset.ids())
    counts_b = sorted(b.poset.codim(f) for f in b.poset.ids())
    if counts_a != counts_b:
        return "face counts per codimension differ"
    return None


def has_four_dim_faces(cp: CharacteristicPair) -> bool:
    d = cp.dim_orbit
    return any(d - cp.poset.codim(f) == 4 for f in cp.poset.ids())


def _hypotheses(a: CharacteristicPair, b: CharacteristicPair) -> dict[str, bool]:
    aa, bb = a.attestations, b.attestations
    vacuous = not has_four_dim_faces(a) and not has_four_dim_faces(b)
    return {
        "sections_exist": aa.sections_exist and bb.sections_exist,
        "faces_contractible": aa.faces_contractible and bb.faces_contractible,
        "four_faces_matched": aa.four_faces_matched and bb.four_faces_matched,
        "four_faces_vacuous": vacuous,
    }


def _conclusion(equivalent: bool, mode: str, hyp: dict[str, bool]) -> str:
    if not equivalent:
        return "not equivalent"
    kind = (
        "equivariantly diffeomorphic"
        if mode == "strong"
        else "weakly equivariantly diffeomorphic"
    )
    four_ok = hyp["four_faces_matched"] or hyp["four_faces_vacuous"]
    if hyp["faces_contractible"] and four_ok:
        return (
            f"combinatorially equivalent; with the attested hypotheses the "
            f"underlying manifolds are {kind}"
        )
    missing = []
    if not hyp["faces_contractible"]:
        missing.append("faces_contractible")
    if not four_ok:
        missing.append("four_faces_matched")
    return (
        "combinatorially equivalent; geometric conclusion additionally needs "
        + ", ".join(missing)
    )


def strong_equivalence(a: CharacteristicPair, b: CharacteristicPair) -> Verdict:
    """Decide equivalence with facet labels matched exactly."""
    hyp = _hypotheses(a, b)
    reason = _shape_mismatch(a, b)
    if reason is None:
        multiset_a = sorted(v.coords for v in a.labels().values())
        multiset_b = sorted(v.coords for v in b.labels().values())
        if multiset_a != multiset_b:
            reason = "facet label multisets differ"
    if reason is not None:
        return Verdict(False, "strong", reason=reason, hypotheses=hyp,
                       conclusion="not equivalent")
    labels_a, labels_b = a.labels(), b.labels()
    sa = _SearchPoset(a.poset, labels_a, "strong")
    sb = _SearchPoset(b.poset, labels_b, "strong")
    for phi in _iso_candidates(sa, sb):
        if all(labels_a[f] == labels_b[phi[f]] for f in labels_a):
            witness = IsoWitness(phi=phi, auto=None)
            if not verify_witness(a, b, witness, "strong"):
                raise RuntimeError("internal: strong witness failed re-verification")
            return Verdict(
                True,
                "strong",
                witness=witness,
                hypotheses=hyp,
                conclusion=_conclusion(True, "strong", hyp),
                witness_unique=True,
            )
    return Verdict(
        False,
        "strong",
        reason="no label-preserving poset isomorphism",
        hypotheses=hyp,
        conclusion="not equivalent",
    )


def weak_equivalence(a: CharacteristicPair, b: CharacteristicPair) -> Verdict:
    """Decide equivalence with labels matched up to one A in GL(k, Z)."""
    hyp = _hypotheses(a, b)
    reason = _shape_mismatch(a, b)
    if reason is None:
        sizes_a = sorted(_label_class_sizes(a))
        sizes_b = sorted(_label_class_sizes(b))
        if sizes_a != sizes_b:
            reason = "label-class size multisets differ"
    if reason is not None:
        return Verdict(False, "weak", reason=reason, hypotheses=hyp,
                       conclusion="not equivalent")
    facets = a.poset.facets()
    labels_a, labels_b = a.labels(), b.labels()
    sa = _SearchPoset(a.poset, labels_a, "weak")
    sb = _SearchPoset(b.poset, labels_b, "weak")
    for phi in _iso_candidates(sa, sb):
        src = [labels_a[f] for f in facets]
        dst = [labels_b[phi[f]] for f in facets]
        sol = solve_unimodular(src, dst, a.k)
        if sol is None:
            continue
        witness = IsoWitness(phi=phi, auto=sol.matrix)
        if not verify_witness(a, b, witness, "weak"):
            raise RuntimeError("internal: weak witness failed re-verification")
        return Verdict(
            True,
            "weak",
            witness=witness,
            hypotheses=hyp,
            conclusion=_conclusion(True, "weak", hyp),
            witness_unique=sol.unique,
        )
    return Verdict(
        False,
        "weak",
        reason="no poset isomorphism admits a compatible torus automorphism",
        hypotheses=hyp,
        conclusion="not equivalent",
    )


def _label_class_sizes(cp: CharacteristicPair) -> list[int]:
    counts: dict[tuple[int, ...], int] = {}
    for v in cp.labels().values():
        counts[v.coords] = counts.get(v.coords, 0) + 1
    return list(counts.values())


def verify_witness(
    a: CharacteristicPair,
    b: CharacteristicPair,
    witness: IsoWitness,
    mode: str,
) -> bool:
    """Recheck a witness from scratch; False (never an exception) on any flaw.

    Independent of the search: only the claimed bijection and matrix are
    used, against the raw poset and label data.
    """
    if mode not in ("strong", "weak"):
        return False
    if a.k != b.k or a.dim_orbit != b.dim_orbit:
        return False
    phi = witness.phi
    ids_a, ids_b = a.poset.ids(), b.poset.ids()
    if sorted(phi) != ids_a:
        return False
    if sorted(phi.values()) != ids_b or len(set(phi.values())) != len(ids_b):
        return False
    for f in ids_a:
        if a.poset.codim(f) != b.poset.codim(phi[f]):
            return False
    mapped = {(phi[lo], phi[up]) for lo, up in a.poset.covers()}
    if mapped != set(b.poset.covers()):
        return False
    labels_a, labels_b = a.labels(), b.labels()
    if mode == "strong":
        return all(labels_a[f] == labels_b[phi[f]] for f in labels_a)
    auto = witness.auto
    if auto is None or len(auto) != a.k or any(len(r) != a.k for r in auto):
        return False
    if any(not isinstance(x, int) for r in auto for x in r):
        return False
    if abs(det_int(auto)) != 1:
        return False
    return all(
        apply_auto(auto, labels_a[f]) == labels_b[phi[f]] for f in labels_a
    )


# ---------------------------------------------------------------------------
# Canonical forms.


def canonical_form(cp: CharacteristicPair, mode: str) -> str:
    """String equal across the strong (or weak) equivalence class.

    Supported for posets with at most 64 faces; beyond that a
    CanonicalFormError is raised and the pairwise deciders remain usable.
    """
    if mode not in ("strong", "weak"):
        raise ValueError(f"mode must be 'strong' or 'weak', got {mode!r}")
    if len(cp.poset) > CANONICAL_FORM_MAX_FACES:
        raise CanonicalFormError(
            f"no canonical form: poset has {len(cp.poset)} faces "
            f"(limit {CANONICAL_FORM_MAX_FACES})"
        )
    if mode == "strong":
        return _canon_strong(cp)
    return _canon_weak(cp)


def _least_leaves(
    struct: _SearchPoset, serialize: Callable[[list[str]], str]
) -> tuple[str, list[list[str]]]:
    """Individualization-refinement search over ``struct``: the least
    serialization of a leaf, and the face order of every leaf reaching it.

    A leaf is a discrete refined colouring, read as a face order.  The tree
    depends on ``struct`` only up to isomorphism, so the least serialization
    is invariant; two least leaves differ by an automorphism of whatever the
    serialization records (McKay and Piperno, "Practical graph isomorphism,
    II", J. Symbolic Comput. 2014).
    """

    def descend(col: dict[str, int]) -> tuple[str, list[list[str]]]:
        cells: dict[int, list[str]] = {}
        for f, c in col.items():
            cells.setdefault(c, []).append(f)
        target = None
        for c in sorted(cells):
            if len(cells[c]) > 1:
                target = c
                break
        if target is None:
            order = sorted(struct.ids, key=lambda f: col[f])
            return serialize(order), [order]
        best, leaves = None, []
        for f in sorted(cells[target]):
            keys = {g: (col[g], 1 if g == f else 0) for g in struct.ids}
            s, sub = descend(_joint_refine([struct], [keys])[0])
            if best is None or s < best:
                best, leaves = s, sub
            elif s == best:
                leaves.extend(sub)
        return best, leaves

    return descend(_joint_refine([struct], [struct.init_key])[0])


def _shape_serializer(
    cp: CharacteristicPair, struct: _SearchPoset
) -> Callable[[list[str]], tuple[dict[str, int], str]]:
    """Map a face order to its face index and to k, d, the codimensions and
    the covers written in that order."""
    covers = cp.poset.covers()
    head = f"k={cp.k}|d={cp.dim_orbit}"

    def shape(order: list[str]) -> tuple[dict[str, int], str]:
        index = {f: i for i, f in enumerate(order)}
        codims = ",".join(str(struct.codim[f]) for f in order)
        cov = ";".join(
            f"{lo}>{up}" for lo, up in sorted((index[lo], index[up]) for lo, up in covers)
        )
        return index, f"{head}|c={codims}|cov={cov}"

    return shape


def _canon_strong(cp: CharacteristicPair) -> str:
    labels = cp.labels()
    struct = _SearchPoset(cp.poset, labels, "strong")
    shape = _shape_serializer(cp, struct)

    def serialize(order: list[str]) -> str:
        index, head = shape(order)
        lam = ";".join(
            f"{index[f]}:" + ",".join(str(x) for x in labels[f].coords)
            for f in sorted(labels, key=lambda f: index[f])
        )
        return f"{head}|lam={lam}"

    return _least_leaves(struct, serialize)[0]


def _canon_weak(cp: CharacteristicPair) -> str:
    """Least weak-invariant serialization, plus the least GL(k, Z) x sign
    normal form of the label matrix over the leaves that reach it.

    The serialization records the label classes, not the labels, so its
    least leaves are exactly the automorphisms of the poset that keep the
    label-class partition.  Every weak isomorphism keeps that partition, so
    the minimum over those leaves is a complete weak invariant.
    """
    labels = cp.labels()
    struct = _SearchPoset(cp.poset, labels, "weak")
    shape = _shape_serializer(cp, struct)

    def serialize(order: list[str]) -> str:
        index, head = shape(order)
        first: dict[tuple[int, ...], int] = {}
        cls = []
        for f in order:
            c = struct.label_class.get(f)
            if c is not None:
                cls.append(f"{index[f]}:{first.setdefault(c, index[f])}")
        return f"{head}|cls={';'.join(cls)}"

    best, leaves = _least_leaves(struct, serialize)
    lam = ""
    if labels:
        matrices = {
            tuple(zip(*(labels[f].coords for f in order if f in labels)))
            for order in leaves
        }
        form = min(gl_sign_normal_form(m) for m in matrices)
        lam = ";".join(",".join(str(x) for x in row) for row in form)
    return f"{best}|lam={lam}"
