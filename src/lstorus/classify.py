"""Equivalence deciders for characteristic pairs.

Two notions are decided:

* strong: a poset isomorphism matching facet labels exactly;
* weak: a poset isomorphism matching labels up to one torus automorphism
  A in GL(k, Z) applied to all labels at once.

Every search runs on one graph: the Hasse diagram of the poset plus one
label node per distinct facet label, covering the facets that carry it.  A
label node's colour holds the label in strong mode and nothing more in weak
mode, so a graph isomorphism maps facets sharing a label to facets sharing
a label, and in strong mode keeps the labels themselves.  Searches are
exact backtracking over the nodes, pruned by an iterated colour refinement
of that graph (codimension, cover degrees, label data), mapping next the
node most connected to those already mapped.  Every positive verdict
carries a witness that is re-verified by an independent recomputation
before being returned.  ``poset_automorphisms`` runs the same search on the
bare poset, which has no label nodes; the census dedup is built on it.

``canonical_form`` produces a string equal across a mode's equivalence class
by minimizing a deterministic serialization of the same graph over an
individualization-refinement tree.  The weak form adds the least
GL(k, Z) x sign normal form of the label matrix over the tree's least
leaves.  It is bounded to posets with at most 64 faces; the deciders have
no such bound.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Sequence

from .charpair import CharacteristicPair
from .faceposet import FacePoset
from .lattice import (
    Matrix,
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
# Refined backtracking search for isomorphisms of the search graph.


class _SearchPoset:
    """The search graph of a poset and its facet labels: the Hasse diagram
    plus one label node per distinct label, covering the facets that carry
    it.  No labels give the bare Hasse diagram.

    Nodes are the poset's face numbers, which follow id order, then the
    label nodes in label order.  ``up[u]`` and ``down[u]`` are the sorted
    tuples of the nodes covering u and covered by u: the poset's own for
    the faces, with each facet's label node appended.  A label node's
    initial key marks it as one and, in strong mode, holds the label's
    coordinates; the number of facets sharing the label is its down-degree.
    """

    def __init__(
        self,
        poset: FacePoset,
        coords: Sequence[Optional[tuple[int, ...]]],
        mode: str,
    ):
        """``coords`` holds the label of each face by number, None off the
        facets, as ``CharacteristicPair.coords`` does; it may be empty."""
        self.ids = poset.ids()
        self.codim = poset.codims
        members: dict[tuple[int, ...], list[int]] = {}
        for u, label in enumerate(coords):
            if label is not None:
                members.setdefault(label, []).append(u)
        self.label_coords = sorted(members)
        self.up = up = poset.up[:]
        self.down = down = poset.down[:]
        for label in self.label_coords:
            node = len(up)
            for u in members[label]:
                up[u] += (node,)
            up.append(())
            down.append(tuple(members[label]))
        # Color keys are integer tuples so rounds sort structurally.
        self.init_key = [
            (0, c, len(up[u]), len(down[u])) for u, c in enumerate(self.codim)
        ]
        for node, label in enumerate(self.label_coords, len(self.ids)):
            self.init_key.append((1, len(down[node])) + (label if mode == "strong" else ()))


def _joint_refine(
    structs: Sequence[_SearchPoset], init_keys: Sequence[list[tuple]]
) -> list[list[int]]:
    """Stable color refinement with ids shared across all the structs,
    starting from the given per-node keys.

    Keys are comparable tuples and each round keeps the previous color as
    the leading component, so dense re-indexing preserves the color order
    and the iteration reaches a genuine fixed point.  A round reads the
    neighbour colours of each node off the integer adjacency tuples.
    """

    def intern_round(keys: Sequence[list[tuple]]) -> list[list[int]]:
        flat = sorted({k for ks in keys for k in ks})
        table = {k: i for i, k in enumerate(flat)}
        return [list(map(table.__getitem__, ks)) for ks in keys]

    colors = intern_round(init_keys)
    while True:
        keys = []
        for s, col in zip(structs, colors):
            get = col.__getitem__
            keys.append([
                (c, tuple(sorted(map(get, ups))), tuple(sorted(map(get, downs))))
                for c, ups, downs in zip(col, s.up, s.down)
            ])
        new = intern_round(keys)
        if new == colors:
            return colors
        colors = new


def _histogram(colors: list[int]) -> list[int]:
    out = [0] * (max(colors, default=-1) + 1)
    for c in colors:
        out[c] += 1
    return out


def _search_order(
    sa: _SearchPoset, col_a: list[int], hist_a: list[int]
) -> list[int]:
    """Connectivity-driven order for the search (the VF2 order of Cordella,
    Foggia, Sansone and Vento, IEEE TPAMI 2004).

    The next node is the unplaced one with the most placed neighbours (up
    and down); ties go to the smaller color class, then the color, then the
    node.  A node placed next to mapped ones has few consistent images, so
    symmetric posets branch little.  Stale heap entries are skipped when
    popped.
    """
    nbrs = [0] * len(col_a)  # placed neighbours
    placed = [False] * len(col_a)
    heap = [(0, hist_a[c], c, u) for u, c in enumerate(col_a)]
    heapq.heapify(heap)
    order: list[int] = []
    while heap:
        score, _, _, u = heapq.heappop(heap)
        if placed[u] or -score != nbrs[u]:
            continue
        order.append(u)
        placed[u] = True
        for w in sa.up[u] + sa.down[u]:
            if not placed[w]:
                nbrs[w] += 1
                heapq.heappush(heap, (-nbrs[w], hist_a[col_a[w]], col_a[w], w))
    return order


def _iso_candidates(
    sa: _SearchPoset, sb: _SearchPoset
) -> Iterator[dict[str, str]]:
    """Yield the isomorphisms of the search graphs, restricted to the faces,
    in deterministic order.

    A face map fixes the image of every label node, so each is yielded
    once.  The backtracking runs on an explicit stack, so its depth is not
    bounded by the interpreter's recursion limit.  For ``sa is sb``
    (automorphisms) one refinement serves both sides: interning one copy of
    the keys gives the same colour ids as interning two.
    """
    if len(sa.up) != len(sb.up):
        return
    if sa is sb:
        col_a = col_b = _joint_refine([sa], [sa.init_key])[0]
    else:
        col_a, col_b = _joint_refine([sa, sb], [sa.init_key, sb.init_key])
    hist_a = _histogram(col_a)
    if hist_a != _histogram(col_b):
        return

    by_color_b: dict[int, list[int]] = {}
    for v, c in enumerate(col_b):
        by_color_b.setdefault(c, []).append(v)

    order = _search_order(sa, col_a, hist_a)
    # Faces of b are numbered in id order, so each color's candidates are too.
    candidates = [by_color_b[col_a[u]] for u in order]
    phi = [-1] * len(sa.up)  # image of each node of a; -1 while unplaced
    used = [False] * len(sb.up)

    def consistent(u: int, v: int) -> bool:
        for rel_a, rel_b in ((sa.up, sb.up), (sa.down, sb.down)):
            near = rel_b[v]
            placed = 0
            for w in rel_a[u]:
                image = phi[w]
                if image >= 0:
                    if image not in near:
                        return False
                    placed += 1
            if sum(map(used.__getitem__, near)) != placed:
                return False
        return True

    def unplace(u: int) -> None:
        used[phi[u]] = False
        phi[u] = -1

    # next_index[i]: where the scan of order[i]'s candidates resumes.
    next_index = [0] * len(order)
    depth = 0
    while depth >= 0:
        if depth == len(order):
            # phi lists the faces first; zip stops before the label nodes.
            yield dict(zip(sa.ids, map(sb.ids.__getitem__, phi)))
            depth -= 1
            unplace(order[depth])
            continue
        u = order[depth]
        cands = candidates[depth]
        j = next_index[depth]
        while j < len(cands) and (used[cands[j]] or not consistent(u, cands[j])):
            j += 1
        if j == len(cands):
            next_index[depth] = 0
            depth -= 1
            if depth >= 0:
                unplace(order[depth])
            continue
        next_index[depth] = j + 1
        phi[u] = cands[j]
        used[cands[j]] = True
        depth += 1


def poset_automorphisms(poset: FacePoset) -> Iterator[dict[str, str]]:
    """Yield each automorphism of the bare poset once, lazily, as a face map.

    Nothing is computed until the first automorphism is asked for, and a
    caller that stops early never pays for the rest of the group.
    """
    sp = _SearchPoset(poset, (), "strong")
    yield from _iso_candidates(sp, sp)


# ---------------------------------------------------------------------------
# Verdicts.


def _shape_mismatch(a: CharacteristicPair, b: CharacteristicPair) -> Optional[str]:
    if a.k != b.k:
        return f"k differs ({a.k} vs {b.k})"
    if a.dim_orbit != b.dim_orbit:
        return f"dim_orbit differs ({a.dim_orbit} vs {b.dim_orbit})"
    if a.poset.faces_per_codim() != b.poset.faces_per_codim():
        return "face counts per codimension differ"
    return None


def has_four_dim_faces(cp: CharacteristicPair) -> bool:
    return cp.dim_orbit - 4 in cp.poset.faces_per_codim()


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
    return _decide(a, b, "strong")


def weak_equivalence(a: CharacteristicPair, b: CharacteristicPair) -> Verdict:
    """Decide equivalence with labels matched up to one A in GL(k, Z)."""
    return _decide(a, b, "weak")


def _decide(a: CharacteristicPair, b: CharacteristicPair, mode: str) -> Verdict:
    """The decider of both modes.  In strong mode every isomorphism of the
    search graphs keeps the labels; in weak mode the first one whose label
    matrices admit a torus automorphism is the witness."""
    hyp = _hypotheses(a, b)
    labels_a, labels_b = a.labels(), b.labels()
    reason = _shape_mismatch(a, b)
    if reason is None and mode == "strong":
        multiset_a = sorted(v.coords for v in labels_a.values())
        multiset_b = sorted(v.coords for v in labels_b.values())
        if multiset_a != multiset_b:
            reason = "facet label multisets differ"
    elif reason is None:
        sizes_a = sorted(Counter(v.coords for v in labels_a.values()).values())
        sizes_b = sorted(Counter(v.coords for v in labels_b.values()).values())
        if sizes_a != sizes_b:
            reason = "label-class size multisets differ"
    if reason is not None:
        return Verdict(False, mode, reason=reason, hypotheses=hyp,
                       conclusion="not equivalent")
    facets = a.poset.facets()
    sa = _SearchPoset(a.poset, a.coords, mode)
    sb = _SearchPoset(b.poset, b.coords, mode)
    src = [labels_a[f] for f in facets]
    for phi in _iso_candidates(sa, sb):
        auto, unique = None, True
        if mode == "weak":
            dst = [labels_b[phi[f]] for f in facets]
            sol = solve_unimodular(src, dst, a.k)
            if sol is None:
                continue
            auto, unique = sol.matrix, sol.unique
        witness = IsoWitness(phi=phi, auto=auto)
        if not verify_witness(a, b, witness, mode):
            raise RuntimeError(f"internal: {mode} witness failed re-verification")
        return Verdict(
            True,
            mode,
            witness=witness,
            hypotheses=hyp,
            conclusion=_conclusion(True, mode, hyp),
            witness_unique=unique,
        )
    if mode == "strong":
        reason = "no label-preserving poset isomorphism"
    else:
        reason = "no poset isomorphism admits a compatible torus automorphism"
    return Verdict(False, mode, reason=reason, hypotheses=hyp,
                   conclusion="not equivalent")


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
    if mapped != b.poset.covers():
        return False
    labels_a, labels_b = a.labels(), b.labels()
    if mode == "strong":
        return all(labels_a[f] == labels_b[phi[f]] for f in labels_a)
    auto = witness.auto
    if type(auto) not in (tuple, list) or len(auto) != a.k:
        return False
    if any(type(r) not in (tuple, list) or len(r) != a.k for r in auto):
        return False
    if any(type(x) is not int for r in auto for x in r):
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

    Both modes serialize the search graph in the node order of a least
    leaf: k, d, each node's codimension ("L" for a label node) and the
    covers.  The strong form also lists the label nodes' coordinates, so
    its least leaves are the label-preserving automorphisms.  The weak
    form's least leaves are the poset automorphisms that keep which facets
    share a label.  Every weak isomorphism keeps that, so the least
    GL(k, Z) x sign normal form of the label matrix over those leaves,
    appended to the string, completes a weak invariant.
    """
    if mode not in ("strong", "weak"):
        raise ValueError(f"mode must be 'strong' or 'weak', got {mode!r}")
    if len(cp.poset) > CANONICAL_FORM_MAX_FACES:
        raise CanonicalFormError(
            f"no canonical form: poset has {len(cp.poset)} faces "
            f"(limit {CANONICAL_FORM_MAX_FACES})"
        )
    struct = _SearchPoset(cp.poset, cp.coords, mode)
    n_faces = len(struct.ids)
    tags = [str(c) for c in struct.codim] + ["L"] * len(struct.label_coords)
    edges = [(lo, up) for lo, ups in enumerate(struct.up) for up in ups]
    head = f"k={cp.k}|d={cp.dim_orbit}"

    def serialize(order: list[int]) -> str:
        index = [0] * len(order)
        for i, u in enumerate(order):
            index[u] = i
        cov = ";".join(
            f"{lo}>{up}" for lo, up in sorted((index[lo], index[up]) for lo, up in edges)
        )
        out = f"{head}|c={','.join(tags[u] for u in order)}|cov={cov}"
        if mode == "strong":
            lam = ";".join(
                ",".join(str(x) for x in struct.label_coords[u - n_faces])
                for u in order
                if u >= n_faces
            )
            out += f"|lam={lam}"
        return out

    best, leaves = _least_leaves(struct, serialize)
    if mode == "strong":
        return best
    lam = ""
    if struct.label_coords:
        coords = cp.coords
        matrices = {
            tuple(zip(*(coords[u] for u in order if u < n_faces and coords[u] is not None)))
            for order in leaves
        }
        form = min(gl_sign_normal_form(m) for m in matrices)
        lam = ";".join(",".join(str(x) for x in row) for row in form)
    return f"{best}|lam={lam}"


def _least_leaves(
    struct: _SearchPoset, serialize: Callable[[list[int]], str]
) -> tuple[str, list[list[int]]]:
    """Individualization-refinement search over ``struct``: the least
    serialization of a leaf, and the node order of every leaf reaching it.

    A leaf is a discrete refined colouring, read as a node order.  The tree
    depends on ``struct`` only up to isomorphism, so the least serialization
    is invariant; two least leaves differ by an automorphism of whatever the
    serialization records (McKay and Piperno, "Practical graph isomorphism,
    II", J. Symbolic Comput. 2014).
    """

    def descend(col: list[int]) -> tuple[str, list[list[int]]]:
        cells: dict[int, list[int]] = {}
        for u, c in enumerate(col):
            cells.setdefault(c, []).append(u)
        target = None
        for c in sorted(cells):
            if len(cells[c]) > 1:
                target = c
                break
        if target is None:
            order = sorted(range(len(col)), key=col.__getitem__)
            return serialize(order), [order]
        best, leaves = None, []
        for u in cells[target]:
            keys = [(c, 1 if g == u else 0) for g, c in enumerate(col)]
            s, sub = descend(_joint_refine([struct], [keys])[0])
            if best is None or s < best:
                best, leaves = s, sub
            elif s == best:
                leaves.extend(sub)
        return best, leaves

    return descend(_joint_refine([struct], [struct.init_key])[0])
