"""Seeded workload generation: input documents, the command pass, answers.

Everything here runs at set-up.  Input documents are written to a work
directory, so the program under test sees only generated files.  A pass is
one fixed list of commands; the timed phase repeats it and keeps each
command's best time, so every run of a workload measures the same work.
"""

from __future__ import annotations

import json
import os
import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

import pairs as P

# Per-command deadline on iso and canon.  The slowest command that finishes
# on the seed code (weak iso on cube3) takes under 1 s.
DEADLINE_S = 5.0

LOCALCHECK_SAMPLES = 50
LOCALCHECK_SPEC_COUNT = 5  # run_local_checks default; the CLI does not expose it
LOCALCHECK_SHAPES = [(1, 2, 1), (2, 3, 1), (3, 3, 0), (2, 2, 2)]


@dataclass
class Command:
    argv: list[str]
    kind: str  # validate | iso | canon | census | localcheck
    expect: dict
    items: int  # work units behind items_per_s
    deadline: Optional[float] = None


@dataclass
class Workload:
    name: str
    threads: int
    commands: list[Command]  # one pass
    warmup: list[Command]
    probes: list[Command] = field(default_factory=list)


class _Writer:
    """Writes documents into the work directory under sequential names."""

    def __init__(self, root: str):
        self.root = root
        self.count = 0

    def write(self, doc: dict) -> str:
        self.count += 1
        path = os.path.join(self.root, f"d{self.count:05d}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        return path


# ---------------------------------------------------------------------------
# iso-mixed


def _product(a: P.Pair, b: P.Pair, poset) -> P.Pair:
    """Block-diagonal labels on a product poset built by fixtures.product_poset."""
    top_a = next(f for f, c in a.codim.items() if c == 0)
    top_b = next(f for f, c in b.codim.items() if c == 0)
    labels = {f"{f}|{top_b}": v + (0,) * b.k for f, v in a.labels.items()}
    labels.update({f"{top_a}|{f}": (0,) * a.k + v for f, v in b.labels.items()})
    out = P.from_lstorus(poset)
    out.k = a.k + b.k
    out.labels = labels
    return out


def iso_families(fx) -> dict[str, P.Pair]:
    """The input families, built from lstorus.fixtures."""
    fam = {f"cp{n}": P.from_lstorus(fx.cp_pair(n)) for n in range(1, 5)}
    fam.update({f"hirzebruch{a}": P.from_lstorus(fx.hirzebruch_pair(a)) for a in range(3)})
    fam["square_std"] = P.from_lstorus(fx.square_pair([(1, 0), (0, 1), (1, 0), (0, 1)]))
    fam["half_plane"] = P.from_lstorus(fx.half_plane_pair())
    for sides, name in ((3, "triangle"), (5, "pentagon"), (6, "hexagon")):
        fam[name] = P.from_lstorus(fx.polygon_pair(sides))
    fam["prism"] = P.from_lstorus(fx.prism_pair())
    for n in (2, 3, 4):
        fam[f"cube{n}"] = P.from_lstorus(fx.cube_pair(n))
    for left, right in (("cp2", "cp1"), ("pentagon", "cp1"), ("hirzebruch1", "cp1"), ("cp2", "cp2")):
        a, b = fam[left], fam[right]
        poset = fx.product_poset(_poset_of(fx, left), _poset_of(fx, right))
        fam[f"{left}x{right}"] = _product(a, b, poset)
    return fam


def _poset_of(fx, name: str):
    if name.startswith("cp"):
        return fx.simplex_poset(int(name[2:]))
    if name == "pentagon":
        return fx.pentagon_poset()
    return fx.square_poset()  # hirzebruch


# One block of iso-mixed: kind -> {family: commands per block}.  The mix is
# fixed, so every block does comparable work; the seed picks the renamings,
# relabelings, negatives and the order.  Weak cube3 is about 7% of commands,
# so op_p95_ms lands inside the weak-isomorphism tail.  Weak iso on cube4
# and cp2xcp2 does not finish (the search explores every bijection), so
# those run only as the traced-run probe.
BLOCK = {
    "iso-strong-pos": {
        "cp1": 2, "cp2": 3, "cp3": 3, "cp4": 2, "hirzebruch0": 2, "hirzebruch1": 2,
        "hirzebruch2": 2, "square_std": 2, "half_plane": 2, "triangle": 2,
        "pentagon": 3, "hexagon": 3, "cube2": 2, "prism": 2, "cube3": 2, "cube4": 1,
        "cp2xcp1": 2, "pentagonxcp1": 1, "hirzebruch1xcp1": 1, "cp2xcp2": 1,
    },
    "iso-strong-neg": {
        "cp2": 1, "cp3": 1, "hirzebruch0": 1, "hirzebruch2": 1, "square_std": 1,
        "pentagon": 1, "hexagon": 1, "prism": 1, "cube3": 1, "hirzebruch1xcp1": 1,
    },
    "iso-weak-pos": {
        "cp2": 2, "cp3": 2, "cp4": 1, "hirzebruch0": 1, "hirzebruch1": 2,
        "hirzebruch2": 2, "square_std": 1, "half_plane": 1, "triangle": 1,
        "pentagon": 2, "hexagon": 2, "cube2": 1, "prism": 2, "cp2xcp1": 1,
        "pentagonxcp1": 1, "hirzebruch1xcp1": 1, "cube3": 7,
    },
    "iso-weak-neg": {
        "hirzebruch1": 1, "hirzebruch2": 1, "prism": 1, "cp2xcp1": 1,
        "pentagonxcp1": 1, "hirzebruch1xcp1": 1, "pentagon": 1, "hexagon": 1,
    },
    "validate-valid": {"cube4": 1, "hexagon": 1, "cp3": 1},
    "validate-invalid": {"prism": 1, "pentagon": 1, "cube3": 1},
}
# Each block also holds one strong and one weak canon group (base, positive
# copy, negative): 6 commands.  Weak groups use families whose weak canonical
# form takes under 0.1 s, so blocks stay comparable.
CANON_STRONG = ["cp2", "cp3", "hirzebruch0", "hirzebruch2", "square_std", "pentagon",
                "hexagon", "prism", "cube3", "hirzebruch1xcp1"]
CANON_WEAK = ["hirzebruch1", "hirzebruch2", "prism", "cp2xcp1", "pentagonxcp1",
              "hirzebruch1xcp1", "pentagon"]
D1_PROBES = ["cube4", "cp2xcp2"]
POOL = 3  # instances of each variant per family
ISO_BLOCKS = 2  # 200 commands: op_p95_ms has at least 10 samples beyond it
# Weak iso on cube3 costs 0.1-0.8 s depending on the copy's face ids, and it
# is most of a block's time.  Its copies come from a fixed stream, and every
# block runs each of them once, so the seed does not change the block's cost.
FIXED_WEAK = "cube3"


def _pools(fam: dict[str, P.Pair], rng: random.Random, out: _Writer, lattice) -> dict:
    """Per family: base document and pools of seeded variants on disk."""
    pools = {}
    for name in sorted(fam):
        base = fam[name]
        entry = {"base": (out.write(base.document(rng)), base)}

        def variants(pairs_list, vrng=rng):
            docs = []
            for q in pairs_list:
                r, _ = P.renamed(q, vrng)
                docs.append((out.write(r.document(vrng)), r))
            return docs

        entry["strong-pos"] = variants([base] * POOL)
        weak_rng = random.Random(f"fixed:{name}") if name == FIXED_WEAK else rng
        weak_count = BLOCK["iso-weak-pos"][name] if name == FIXED_WEAK else POOL
        entry["weak-pos"] = variants(
            [P.relabeled(base, lattice.random_unimodular(base.k, weak_rng))
             for _ in range(weak_count)],
            weak_rng,
        )
        entry["strong-neg"] = variants(P.negatives(base, "strong", rng, POOL))
        entry["weak-neg"] = variants(P.negatives(base, "weak", rng, POOL))
        entry["invalid"] = variants(P.invalid_variants(base, rng, POOL))
        pools[name] = entry
    return pools


def _iso(a, b, mode: str, equivalent: bool) -> Command:
    (pa, qa), (pb, qb) = a, b
    return Command(
        ["iso", pa, pb, "--mode", mode],
        "iso",
        {"a": qa, "b": qb, "mode": mode, "equivalent": equivalent},
        items=2,
        deadline=DEADLINE_S,
    )


def _canon_group(entry: dict, mode: str, rng: random.Random, group: int) -> list[Command]:
    pos = rng.choice(entry[f"{mode}-pos"])
    neg = rng.choice(entry[f"{mode}-neg"])
    roles = [(entry["base"], "base"), (pos, "same"), (neg, "different")]
    return [
        Command(["canon", path, "--mode", mode], "canon",
                {"group": group, "role": role}, items=1, deadline=DEADLINE_S)
        for (path, _), role in roles
    ]


def iso_mixed(fx, lattice, rng: random.Random, out: _Writer) -> Workload:
    pools = _pools(iso_families(fx), rng, out, lattice)
    commands = []
    group = 0
    for _ in range(ISO_BLOCKS):
        cmds = []
        for kind, counts in BLOCK.items():
            for name, count in counts.items():
                entry = pools[name]
                if kind == "iso-weak-pos" and name == FIXED_WEAK:
                    cmds.extend(_iso(entry["base"], copy, "weak", True)
                                for copy in entry["weak-pos"])
                    continue
                for _ in range(count):
                    if kind.startswith("iso"):
                        mode, sign = kind.split("-")[1:]
                        cmds.append(_iso(entry["base"], rng.choice(entry[f"{mode}-{sign}"]),
                                         mode, sign == "pos"))
                    else:
                        valid = kind == "validate-valid"
                        path, _ = rng.choice(entry["strong-pos" if valid else "invalid"])
                        cmds.append(Command(["validate", path], "validate",
                                            {"valid": valid}, items=1))
        for mode, names in (("strong", CANON_STRONG), ("weak", CANON_WEAK)):
            group += 1
            cmds.extend(_canon_group(pools[rng.choice(names)], mode, rng, group))
        rng.shuffle(cmds)
        commands.extend(cmds)
    small = pools["cp2"]
    warmup = [
        Command(["validate", small["base"][0]], "validate", {"valid": True}, items=1),
        _iso(small["base"], small["strong-pos"][0], "strong", True),
        _iso(small["base"], small["weak-pos"][0], "weak", True),
        Command(["canon", small["base"][0], "--mode", "strong"], "canon",
                {"group": 0, "role": "base"}, items=1),
        Command(["canon", small["base"][0], "--mode", "weak"], "canon",
                {"group": -1, "role": "base"}, items=1),
    ]
    probes = [_iso(pools[n]["base"], pools[n]["weak-pos"][0], "weak", True) for n in D1_PROBES]
    return Workload("iso-mixed", 1, commands, warmup, probes)


# ---------------------------------------------------------------------------
# census workloads

# (poset, k, bound, dedup, total_valid, {class size: multiplicity}); recorded
# from the seed code.  With dedup none every labeling is its own class.
CENSUS_ENUM = [
    ("prism", 3, 1, "none", 10164, None),
    ("simplex3", 3, 1, "none", 1248, None),
    ("pentagon", 2, 3, "none", 1840, None),
    ("hexagon", 2, 2, "none", 2450, None),
    ("square", 2, 4, "none", 994, None),
]
CENSUS_DEDUP = [
    ("square", 2, 3, "weak", 578, {8: 1, 24: 1, 40: 1, 58: 1, 72: 1, 104: 2, 168: 1}),
    ("pentagon", 2, 2, "weak", 600, {40: 1, 60: 1, 120: 1, 180: 1, 200: 1}),
    ("hexagon", 2, 1, "weak", 298, {10: 1, 12: 3, 24: 4, 36: 1, 48: 1, 72: 1}),
    ("triangle", 3, 1, "weak", 1170, {72: 1, 96: 1, 132: 1, 870: 1}),
    ("pentagon", 2, 3, "strong", 1840, {10: 184}),
    ("simplex3", 3, 1, "strong", 1248, {24: 52}),
]


def _census_posets(fx) -> dict:
    return {
        "prism": fx.prism_poset(),
        "simplex3": fx.simplex_poset(3),
        "triangle": fx.triangle_poset(),
        "square": fx.square_poset(),
        "pentagon": fx.pentagon_poset(),
        "hexagon": fx.polygon_poset(6),
    }


def census(name: str, specs: list, threads: int, fx, rng: random.Random, out: _Writer) -> Workload:
    """The pass runs every spec once, in seeded order.  Face ids are renamed
    keeping their sort order, so the enumeration order and the work done
    are the same for every seed."""
    posets = {n: P.from_lstorus(p) for n, p in _census_posets(fx).items()}
    cmds = []
    for poset, k, bound, dedup, total, sizes in specs:
        renamed, _ = P.renamed(posets[poset], rng, keep_order=True)
        renamed.k = k
        path = out.write(renamed.document(rng, bare=True))
        cmds.append(Command(
            ["census", "--poset", path, "--k", str(k), "--bound", str(bound), "--dedup", dedup],
            "census",
            {"poset": renamed, "bound": bound, "total": total,
             "sizes": Counter(sizes) if sizes else Counter({1: total})},
            items=total,
        ))
    rng.shuffle(cmds)
    square = P.renamed(posets["square"], rng, keep_order=True)[0]
    path = out.write(square.document(rng, bare=True))
    dedups = sorted({spec[3] for spec in specs})
    warmup = [
        Command(["census", "--poset", path, "--k", "2", "--bound", "1", "--dedup", d],
                "census", {}, items=0)
        for d in dedups
    ]
    return Workload(name, threads, cmds, warmup)


# ---------------------------------------------------------------------------
# localcheck

LOCALCHECK_SEEDS = 10  # commands per shape in the pass


def localcheck(rng: random.Random) -> Workload:
    cmds = []
    for n, k, m in LOCALCHECK_SHAPES:
        for _ in range(LOCALCHECK_SEEDS):
            seed = rng.randrange(2 ** 31)
            cmds.append(Command(
                ["localcheck", "--n", str(n), "--k", str(k), "--m", str(m),
                 "--samples", str(LOCALCHECK_SAMPLES), "--seed", str(seed)],
                "localcheck",
                {"shape": (n, k, m), "seed": seed},
                items=LOCALCHECK_SAMPLES * LOCALCHECK_SPEC_COUNT,
            ))
    rng.shuffle(cmds)
    warmup = [Command(["localcheck", "--n", "1", "--k", "1", "--m", "0", "--samples", "5"],
                      "localcheck", {}, items=0)]
    return Workload("localcheck", 1, cmds, warmup)


WORKLOADS = ["iso-mixed", "census-enum", "census-dedup", "localcheck"]


def build(name: str, seed: int, workdir: str, lstorus) -> Workload:
    """Generate the workload's inputs into workdir; deterministic for a seed."""
    rng = random.Random(f"{name}:{seed}")
    out = _Writer(workdir)
    if name == "iso-mixed":
        return iso_mixed(lstorus.fixtures, lstorus.lattice, rng, out)
    if name == "census-enum":
        return census(name, CENSUS_ENUM, 2, lstorus.fixtures, rng, out)
    if name == "census-dedup":
        return census(name, CENSUS_DEDUP, 1, lstorus.fixtures, rng, out)
    if name == "localcheck":
        return localcheck(rng)
    raise ValueError(f"unknown workload {name!r}")
