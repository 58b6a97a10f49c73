"""The three benchmark workloads: seeded inputs, one op each, output checks.

Every op goes through sphgeo's module attributes (``finder.enumerate_classes``,
``counts.count_tetra``, ``cli.main``) so that the tracer's wrappers see it.
Angles are stratified: the admissible range is cut into equal strata and
each stratum gets one seeded jitter, kept off the stratum edges, so every
seed gives the same op count and nearly the same work.  The ops then run in
a seeded random order, so that the costly ones are spread over the run
instead of all meeting the same stretch of a shared machine's load.
"""

from __future__ import annotations

import json
import math
import os
import random
from typing import Dict, List, Optional, Sequence, Tuple

from sphgeo import cli, counts, finder, solids
from sphgeo.solids import SolidKind

KINDS = {"tetra": SolidKind.TETRAHEDRON, "octa": SolidKind.OCTAHEDRON,
         "cube": SolidKind.CUBE}

# octahedron and cube classes: tag -> orbit size
EXPECTED = {
    "octa": {"type1": 4, "type2": 6},
    "cube": {"type1": 3, "type2": 4, "type3": 12},
}

TETRA_CLI_CLASSES = 2  # at depth 8: (0,1) plus (1,1) or vertex-loop


def strata(rng: random.Random, lo: float, hi: float, n: int) -> List[float]:
    """One angle per stratum of (lo, hi), jittered within its middle half.

    A narrower jitter would make seeds alike; a wider one moves the costliest
    ops of `sweep-flat`, where cost climbs steeply towards pi/3, so much that
    its tail latency changes with the seed by more than with the machine.
    """
    return [lo + (hi - lo) * (k + 0.25 + 0.5 * rng.random()) / n for k in range(n)]


def _even(x: float) -> int:
    # An even stratum count puts pi/2, where the tetrahedron trades its (1,1)
    # class for the vertex loop, on a stratum edge that no angle comes near.
    return max(2, 2 * round(x / 2))


def _check_classes(solid: str, alpha: float, depth: int,
                   classes: Sequence[Tuple[str, int, float, float]]) -> List[str]:
    """Errors for one enumeration result given as (tag, orbit, residual, length)."""
    errs = []
    for tag, _, residual, length in classes:
        if not residual <= 1e-9:
            errs.append(f"{tag}: closure residual {residual!r}")
        if not length < 2 * math.pi:
            errs.append(f"{tag}: length {length!r} >= 2pi")
    got = {tag: orbit for tag, orbit, _, _ in classes}
    if len(got) != len(classes):
        errs.append(f"repeated tags {[c[0] for c in classes]}")
    if solid == "tetra":
        want = {f"{p},{q}" for p, q in counts.count_tetra(alpha, depth).realizable}
        if alpha > math.pi / 2:
            want.add("vertex-loop")
        if set(got) != want:
            errs.append(f"tags {sorted(got)} != {sorted(want)}")
    elif got != EXPECTED[solid]:
        errs.append(f"classes {got} != {EXPECTED[solid]}")
    return errs


class EnumerateDeep:
    """finder.enumerate_classes(build_solid(kind, alpha), 20): search-bound."""

    name = "enumerate-deep"
    solid_names = ("tetra", "octa", "cube")
    depth = 20

    def ops(self, rng: random.Random, seconds: int, work: str) -> List[Dict]:
        n = _even(9.4 * seconds / 10)
        ops = [{"solid": s, "alpha": a, "depth": self.depth}
               for s in self.solid_names
               for a in strata(rng, *solids.ADMISSIBLE[KINDS[s]], n)]
        rng.shuffle(ops)
        return ops

    def run(self, op: Dict) -> object:
        spec = solids.build_solid(KINDS[op["solid"]], op["alpha"])
        return finder.enumerate_classes(spec, op["depth"])

    def check(self, op: Dict, out: object) -> List[str]:
        rows = [(c.tag, c.orbit_size, c.path.closure_residual, c.path.total_length)
                for c in out]
        return _check_classes(op["solid"], op["alpha"], op["depth"], rows)


class SweepFlat:
    """counts.count_tetra(alpha) near the flat limit: closure-bound, no DFS."""

    name = "sweep-flat"
    solid_names = ("tetra",)
    # 0.3336pi already takes ~6.5 s per op and 0.3334pi ~75 s
    lo, hi = 0.334 * math.pi, 0.340 * math.pi

    def ops(self, rng: random.Random, seconds: int, work: str) -> List[Dict]:
        n = _even(96 * seconds / 10)
        ops = [{"alpha": a} for a in strata(rng, self.lo, self.hi, n)]
        rng.shuffle(ops)
        return ops

    def run(self, op: Dict) -> object:
        return counts.count_tetra(op["alpha"])

    def check(self, op: Dict, rep: object) -> List[str]:
        errs = []
        if not rep.c1 < rep.n < rep.c2:
            errs.append(f"N={rep.n} outside ({rep.c1!r}, {rep.c2!r})")
        if rep.n != len(rep.realizable):
            errs.append(f"N={rep.n} but {len(rep.realizable)} realizable types")
        for v in rep.verdicts:
            if v.verdict == "depth-capped":
                errs.append(f"({v.p},{v.q}) depth-capped")
            if v.verdict == "sufficient-guaranteed" and not v.found:
                errs.append(f"guaranteed ({v.p},{v.q}) not found")
        return errs


class CliRoundtrip:
    """cli.main(argv): enumerate --depth 8 to a file, then export every class."""

    name = "cli-roundtrip"
    solid_names = ("tetra", "octa", "cube")
    depth = 8

    def ops(self, rng: random.Random, seconds: int, work: str) -> List[Dict]:
        n = _even(76 * seconds / 10)
        calls = []  # per angle: enumerate, then export of each class
        for s in self.solid_names:
            n_classes = len(EXPECTED.get(s, ())) or TETRA_CLI_CLASSES
            for k, a in enumerate(strata(rng, *solids.ADMISSIBLE[KINDS[s]], n)):
                doc = os.path.join(work, f"{s}-{k}.json")
                group = [{"argv": ["enumerate", "--solid", s, "--alpha", repr(a),
                                   "--depth", str(self.depth), "--out", doc]}]
                for i in range(n_classes):
                    svg = os.path.join(work, f"{s}-{k}-{i}.svg")
                    group.append({"argv": ["export", "--in", doc, "--class-index",
                                           str(i), "--out", svg]})
                calls.append(group)
        rng.shuffle(calls)
        return [op for group in calls for op in group]

    def run(self, op: Dict) -> object:
        return cli.main(op["argv"])

    def check(self, op: Dict, code: object) -> List[str]:
        if code != 0:
            return [f"exit code {code}"]
        argv = op["argv"]
        path = argv[argv.index("--out") + 1]
        if argv[0] == "export":
            with open(path, encoding="utf-8") as fh:
                svg = fh.read()
            return [] if '<g id="geodesic"' in svg else ["SVG has no geodesic group"]
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        rows = [(c["kind_tag"], c["orbit_size"], c["closure_residual"], c["total_length"])
                for c in doc["classes"]]
        solid, alpha = argv[argv.index("--solid") + 1], float(argv[argv.index("--alpha") + 1])
        return _check_classes(solid, alpha, self.depth, rows)

    def rerun_ops(self, ops: Sequence[Dict]) -> List[Tuple[Dict, str]]:
        """First enumerate and first export per solid, with a fresh --out:
        (op, path whose bytes the re-run must reproduce)."""
        out = []
        for s in self.solid_names:
            first = next(i for i, op in enumerate(ops) if op["argv"][0] == "enumerate"
                         and op["argv"][op["argv"].index("--solid") + 1] == s)
            for op in ops[first:first + 2]:
                argv = list(op["argv"])
                k = argv.index("--out") + 1
                orig, argv[k] = argv[k], argv[k] + ".rerun"
                out.append(({"argv": argv}, orig))
        return out


WORKLOADS = {w.name: w for w in (EnumerateDeep(), SweepFlat(), CliRoundtrip())}


def replay_input(op: Dict) -> Dict:
    """The op's input as recorded in the run output (alpha as its repr)."""
    return {k: (repr(v) if isinstance(v, float) else v) for k, v in op.items()}


def compare_bytes(a: str, b: str) -> Optional[str]:
    with open(a, "rb") as fa, open(b, "rb") as fb:
        return None if fa.read() == fb.read() else f"{b} differs from {a}"
