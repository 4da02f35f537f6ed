"""The benchmark's four workloads.

Each workload turns a seed into one round of cases (plain data, no
polychow objects), builds each case into a call through polychow's public
constructors, asks the oracle for the expected result, and reduces the
call's output to the same plain form so the two can be compared.

Round r of a run moves every case by r fixed steps (`vary`): polygons are
translated by r lattice vectors, point sets sheared and groups conjugated.
Each op keeps its cost, but no value repeats between rounds, so a cache
keyed on the inputs cannot answer a later round from an earlier one.

Sizes are stratified: the c cases of one kind each draw a size inside
one of c equal strata of the kind's range. The other choices that set an
op's cost (the base polygon, the dilation i, the number of cuts, the
length of the unimodular map) follow a fixed pattern along the sorted
sizes. Every seed then has the same mix of costs, so round cost, p50 and
p90 move little from seed to seed, while each seed still gives different
inputs. A round holds enough
ops that neighbouring latencies near p50 and p90 are close together; with
few ops spread over decades, a percentile jumps between distant ops.
"""

from __future__ import annotations

import json
import os
import subprocess
import threading
from dataclasses import dataclass
from math import ceil, sqrt
from pathlib import Path
from random import Random

import oracle
from oracle import F, fmt, fmt_vec, mat_apply, mat_inv, mat_mul, vadd, vmul

# Delzant bases, counter-clockwise. Every input polygon is one of these
# under a unimodular map, a translation and a dilation.
DELZANT = {
    "unit-triangle": ((0, 0), (1, 0), (0, 1)),
    "triangle-2": ((0, 0), (2, 0), (0, 2)),
    "triangle-3": ((0, 0), (3, 0), (0, 3)),
    "square": ((0, 0), (1, 0), (1, 1), (0, 1)),
    "square-3": ((0, 0), (3, 0), (3, 3), (0, 3)),
    "rect-2x1": ((0, 0), (2, 0), (2, 1), (0, 1)),
    "rect-3x2": ((0, 0), (3, 0), (3, 2), (0, 2)),
    "hexagon": ((1, 0), (2, 0), (2, 1), (1, 2), (0, 2), (0, 1)),
    "hexagon-2": ((2, 0), (4, 0), (4, 2), (2, 4), (0, 4), (0, 2)),
    "pentagon": ((0, 0), (2, 0), (2, 1), (1, 2), (0, 2)),
    "hirzebruch-1": ((0, 0), (2, 0), (1, 1), (0, 1)),
    "hirzebruch-2": ((0, 0), (3, 0), (1, 1), (0, 1)),
    "hirzebruch-1-2": ((0, 0), (3, 0), (1, 2), (0, 2)),
}
SMALL = ("unit-triangle", "triangle-2", "triangle-3", "square", "rect-2x1", "rect-3x2",
         "hexagon", "pentagon", "hirzebruch-1", "hirzebruch-2", "hirzebruch-1-2")
# Blow-up bases by depth denominator (the chop's lattice multiple k).
# Denominator 1 uses bases whose averaged-point invariant vanishes, so the
# corner-chop sum rule applies; larger k goes with smaller bases, so the
# scaled polygons have similar sizes.
CHOP_BASES = {
    1: ("triangle-2", "triangle-3", "square-3", "rect-3x2", "hexagon-2"),
    2: ("triangle-2", "triangle-3", "rect-2x1", "hexagon", "pentagon", "hirzebruch-1-2"),
    3: ("unit-triangle", "triangle-2", "square", "rect-2x1", "hirzebruch-1", "hirzebruch-2"),
}

# Polygons centred at the origin with a finite symmetry, for `fo --group`.
SYMMETRIC = {
    "hexagon-c": ((1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1), (0, -1)),
    "square-c": ((-1, -1), (1, -1), (1, 1), (-1, 1)),
    "triangle-c": ((1, 0), (0, 1), (-1, -1)),
}
CYCLIC = {2: (-1, 0, 0, -1), 3: (0, -1, 1, -1), 4: (0, -1, 1, 0), 6: (1, -1, 1, 0)}
ELEMENTARY = ((1, 1, 0, 1), (1, -1, 0, 1), (1, 0, 1, 1), (1, 0, -1, 1), (0, -1, 1, 0))


# Round r translates polygons by r * STEP, conjugates groups by SHEAR^r
# and applies the projective shear (a, b, c) -> (a + r c, b + 2 r c, c) to
# point sets.
STEP = (1, 2)
SHEAR = (1, 1, 0, 1)


@dataclass(frozen=True)
class Case:
    kind: str
    spec: dict


def grid(rng: Random, count: int, lo: float, hi: float, log: bool = True) -> list[float]:
    """`count` sizes in [lo, hi), log-uniform or uniform, one drawn inside
    each of `count` equal strata, shuffled."""
    quantiles = [(j + rng.random()) / count for j in range(count)]
    if log:
        sizes = [lo * (hi / lo) ** q for q in quantiles]
    else:
        sizes = [lo + (hi - lo) * q for q in quantiles]
    rng.shuffle(sizes)
    return sizes


def unimodular(rng: Random, factors: int) -> tuple:
    u = (1, 0, 0, 1)
    for _ in range(factors):
        u = mat_mul(u, rng.choice(ELEMENTARY))
    return u


def conjugate(order: int, p: tuple) -> tuple:
    """p C p^-1 for the cyclic generator C of the given order."""
    return mat_mul(mat_mul(p, CYCLIC[order]), mat_inv(p))


def sheared(r: int, p: tuple) -> tuple:
    """SHEAR^r p."""
    return mat_mul((1, r, 0, 1), p)


def shifted(spec: dict, r: int) -> dict:
    """A polygon spec translated by r * STEP."""
    t = spec["t"]
    return {**spec, "t": (t[0] + r * STEP[0], t[1] + r * STEP[1])}


def shear_points(points: list, r: int) -> list:
    return [(a + r * c, b + 2 * r * c, c) for a, b, c in points]


def affine(rng: Random) -> tuple:
    """Random rational affine map: four linear entries and an offset."""
    def r():
        return F(rng.randint(-6, 6), rng.randint(1, 4))
    return (r(), r(), r(), r()), (r(), r())


# ----------------------------------------------------------------- building

def build_polygon(pc, spec):
    """k * (U * base + t) through the library's constructors."""
    base = pc.Polygon.from_coords(spec["base_verts"])
    a, b, c, d = spec["u"]
    image = pc.apply_affine(base, pc.AffineMap.from_int_mat(pc.IntMat2(a, b, c, d),
                                                            pc.Vec2.of(*spec["t"])))
    return pc.scale(image, spec["k"])


def polygon_spec(name, u=(1, 0, 0, 1), t=(0, 0), k=1, verts=None):
    return {"base": name, "base_verts": verts or DELZANT[name], "u": u, "t": t, "k": k}


def image_verts(spec) -> list:
    """Vertices of k * (U * base + t), counter-clockwise."""
    k, t = spec["k"], spec["t"]
    return [vmul(vadd(mat_apply(spec["u"], v), t), k) for v in spec["base_verts"]]


def oracle_data(spec) -> oracle.PolyData:
    return oracle.transported(spec["base_verts"], spec["u"], spec["t"], spec["k"])


def vec(v):
    return (v.x, v.y)


def vec_poly(p):
    return (vec(p.c2), vec(p.c1), vec(p.c0))


# --------------------------------------------------------- dilated-polygons

class DilatedPolygons:
    """Counting polynomials and Chow weights on large dilations and on thin
    slivers. The row-scan kernel does nearly all of the work."""

    name = "dilated-polygons"
    # ops per round: (kind, family) -> count. Cheap chow_eval ops are the
    # majority so p50 sits among them; p90 sits among the polynomial ops.
    MIX = {("chow_eval", "dilation"): 67, ("ehrhart_poly", "dilation"): 22,
           ("sum_poly", "dilation"): 6, ("chow_poly", "dilation"): 6,
           ("chow_eval", "sliver"): 2, ("ehrhart_poly", "sliver"): 2,
           ("sum_poly", "sliver"): 2, ("chow_poly", "sliver"): 2}
    # lattice points of k * base, one decade per kind. sum_poly and
    # chow_poly enumerate more dilations than ehrhart_poly and cost about
    # 2.5x and 3.6x as much per point, so their ranges are scaled down by
    # that much: the 34 polynomial ops then share one band of latencies,
    # dense where p90 falls.
    POINTS = {"chow_eval": (700.0, 7000.0), "ehrhart_poly": (700.0, 7000.0),
              "sum_poly": (280.0, 2800.0), "chow_poly": (190.0, 1900.0)}
    ROWS = (1000.0, 10000.0)         # rows one sliver op scans over all its dilations
    ROWS_PER_HEIGHT = {"chow_poly": 16, "ehrhart_poly": 6, "sum_poly": 10}

    def cases(self, rng: Random) -> list[Case]:
        cases = []
        for (kind, family), count in self.MIX.items():
            make = self._dilation if family == "dilation" else self._sliver
            lo, hi = self.POINTS[kind] if family == "dilation" else self.ROWS
            sizes = sorted(grid(rng, count, lo, hi))
            cases.extend(make(rng, kind, size, j) for j, size in enumerate(sizes))
        # The largest list in every round comes from this fixed op, above
        # the range, so peak_rss_mb does not depend on the seed.
        cases.append(Case("sum_poly/dilation", polygon_spec("hexagon", k=60)))
        rng.shuffle(cases)
        return cases

    def _extra(self, rng, kind, j):
        if kind != "chow_eval":
            return {}
        linear, offset = affine(rng)
        return {"i": 1 + j % 2, "linear": linear, "offset": offset}

    def _dilation(self, rng, kind, points, j):
        """k * (base + t), with k chosen so that it has about `points`
        lattice points."""
        name = SMALL[(j // 2) % len(SMALL)]
        extra = self._extra(rng, kind, j)
        area = oracle.shoelace_area(DELZANT[name])
        spec = polygon_spec(name, t=(rng.randint(-9, 9), rng.randint(-9, 9)),
                            k=max(2, round(sqrt(points / area))))
        spec.update(extra)
        return Case(kind + "/dilation", spec)

    def _sliver(self, rng, kind, rows, j):
        extra = self._extra(rng, kind, j)
        per_height = 2 * extra["i"] if extra else self.ROWS_PER_HEIGHT[kind]
        height = max(2, round(rows / per_height))
        twist = rng.choice(((1, 0, 0, 1), (1, 1, 0, 1), (-1, 0, 0, -1), (-1, -1, 0, -1)))
        u = mat_mul((1, 0, height, 1), twist)
        spec = polygon_spec("unit-triangle", u, (rng.randint(-9, 9), rng.randint(-99, 99)))
        spec.update(extra)
        return Case(kind + "/sliver", spec)

    def vary(self, case, r):
        return Case(case.kind, shifted(case.spec, r))

    def build(self, case, env):
        pc = env.pc
        polygon = build_polygon(pc, case.spec)
        kind = case.kind.split("/")[0]
        if kind == "chow_eval":
            (xx, xy, yx, yy), (ox, oy) = case.spec["linear"], case.spec["offset"]
            f = pc.AffineMap.linear(xx, xy, yx, yy, pc.Vec2(ox, oy))
            i = case.spec["i"]
            return lambda: env.pc.chow_eval(polygon, f, i)
        return lambda: getattr(env.pc, kind)(polygon)

    def expect(self, case):
        data = oracle_data(case.spec)
        kind = case.kind.split("/")[0]
        if kind == "chow_poly":
            return data.chow_poly()
        if kind == "ehrhart_poly":
            return data.e
        if kind == "sum_poly":
            return data.s
        return oracle.affine_chow(data, case.spec["linear"], case.spec["i"])

    def observe(self, case, out):
        kind = case.kind.split("/")[0]
        if kind == "ehrhart_poly":
            return out.as_tuple()
        if kind == "chow_eval":
            return vec(out)
        return vec_poly(out)


# ------------------------------------------------------------ blowup-chains

def random_cuts(rng: Random, name: str, denominator: int, wanted: int):
    """Corner cuts (vertex index, depth) at up to `wanted` vertices, whose
    triangles stay inside the base and apart: on every edge the two depths
    add up to less than the edge's lattice length."""
    verts = DELZANT[name]
    n = len(verts)
    lengths = [oracle.primitive(oracle.vsub(oracle.as_point(verts[(j + 1) % n]),
                                            oracle.as_point(verts[j])))[1] for j in range(n)]
    chosen = rng.sample(range(n), min(n, wanted))
    steps: dict[int, int] = {}
    for j in chosen:
        room = min(lengths[j] - F(steps.get((j + 1) % n, 0), denominator),
                   lengths[j - 1] - F(steps.get((j - 1) % n, 0), denominator))
        top = ceil(room * denominator) - 1
        if top >= 1:
            steps[j] = rng.randint(1, top)
    if not steps:
        return None
    if denominator > 1 and all(m % denominator == 0 for m in steps.values()):
        steps[next(iter(steps))] = 1
    return [(j, F(m, denominator)) for j, m in steps.items()]


class BlowupChains:
    """The blow-up pipeline on random corner-chop decompositions of small
    bases: geometry, the blow-up layer and repeated small enumerations
    weigh here, the per-point kernel cost does not."""

    name = "blowup-chains"
    PER_ROUND = 60
    IMAX = (3, 10)

    def cases(self, rng: Random) -> list[Case]:
        # imax is stratified; the denominator, the base, the number of
        # cuts, the unimodular map and the identity's dilation follow a
        # fixed pattern along the sorted imax values, so every seed gets the
        # same mix of costs. The seed varies the translations, the cut
        # vertices and depths and the test function.
        imaxes = sorted(int(x) for x in grid(rng, self.PER_ROUND, self.IMAX[0],
                                             self.IMAX[1] + 1, log=False))
        cases = []
        for j, imax in enumerate(imaxes):
            denominator = 1 + j % 3
            names = CHOP_BASES[denominator]
            cases.append(Case("pipeline", self.spec(rng, imax, denominator,
                                                    names[(j // 3) % len(names)], j)))
        rng.shuffle(cases)
        return cases

    @staticmethod
    def spec(rng: Random, imax: int, denominator: int, name: str, j: int) -> dict:
        cuts = None
        while not cuts:
            cuts = random_cuts(rng, name, denominator, 1 + (j // 2) % len(DELZANT[name]))
        spec = polygon_spec(name, unimodular(Random(j), (j // 5) % 3),
                            (rng.randint(-5, 5), rng.randint(-5, 5)))
        linear, offset = affine(rng)
        spec.update(cuts=cuts, imax=imax, gi=1 + (j // 7) % 2, linear=linear, offset=offset)
        return spec

    def vary(self, case, r):
        return Case(case.kind, shifted(case.spec, r))

    def build(self, case, env):
        pc = env.pc
        s = case.spec
        base = build_polygon(pc, s)
        cut_at = [(mat_apply(s["u"], s["base_verts"][j]), depth) for j, depth in s["cuts"]]
        cuts = [pc.CornerCut.of((x + s["t"][0], y + s["t"][1]), depth) for (x, y), depth in cut_at]
        (xx, xy, yx, yy), (ox, oy) = s["linear"], s["offset"]
        f = pc.AffineMap.linear(xx, xy, yx, yy, pc.Vec2(ox, oy))

        def pipeline():
            lib = env.pc
            d = lib.chop_corners(base, cuts)
            df = lib.df_invariants(d)
            after = lib.chow_after_blowup(d)
            check = lib.verify_blowup_theorem(d, s["imax"])
            residual = lib.verify_general_identity(d, f, s["gi"])
            extra = None
            if d.k == 1:
                extra = (lib.fo_invariant(d.chopped, 1), lib.sum_rule_residuals(d))
            return d, df, after, check, residual, extra
        return pipeline

    def expect(self, case):
        s = case.spec
        c = oracle.chop(s["base_verts"], s["u"], s["t"], s["cuts"])
        c1, c0 = c.chow_poly()
        base_c = c.base.chow_poly()
        extra = None
        if c.k == 1:
            fo = oracle.fo_value(c.count(1), c.raw_sum(1), 1, c.area, c.moment)
            extra = (fo, oracle.sum_rule_residuals(c))
        return (c.k, c.m, c.frames, frozenset(c.chopped), c.a_const, c.b_const,
                oracle.is_delzant([vmul(p, c.k) for p in c.chopped]),
                (oracle.vsub(c1, base_c[1]), oracle.vsub(c0, base_c[2])),
                (oracle.ZERO, c1, c0),
                tuple((i, c.chow(i), c.chow(i)) for i in range(1, s["imax"] + 1)), True,
                oracle.ZERO, extra)

    def observe(self, case, out):
        d, (df1, df2), after, check, residual, extra = out
        frames = tuple(((f.a, f.c), (f.b, f.d)) for f in d.frames)
        if extra is not None:
            extra = (vec(extra[0]), extra[1])
        return (d.k, d.m, frames, frozenset(vec(v) for v in d.chopped.vertices), d.a_const,
                d.b_const, d.chopped_scaled_delzant, (vec(df1), vec(df2)), vec_poly(after),
                tuple((i, vec(lhs), vec(rhs)) for i, lhs, rhs in check.entries), check.all_equal,
                vec(residual), extra)


# ------------------------------------------------------------- point sets

def configuration(rng: Random, n: int, layout: str) -> list[tuple]:
    """n distinct projective points: generic, on a grid, or with a line
    holding more than two thirds of them (line-unstable) or exactly two
    thirds (line-borderline, n a multiple of 3)."""
    seen: set = set()
    points: list = []

    def add(p) -> bool:
        key = oracle.primitive_triple(p)
        if key in seen:
            return False
        seen.add(key)
        points.append(p)
        return True

    if layout == "grid":
        side = ceil(sqrt(1.5 * n))
        cells = [(a, b, 1) for a in range(side) for b in range(side)]
        for p in rng.sample(cells, n):
            add(p)
        return points
    on_line = 0
    if layout.startswith("line-"):
        target = 2 * n // 3
        if layout == "line-unstable":
            target = min(n, target + 1 + rng.randint(0, 2))
        p = (rng.randint(-50, 50), rng.randint(-50, 50), 1)
        q = (rng.randint(-50, 50), rng.randint(-50, 50), 0)
        q = q if q[:2] != (0, 0) else (1, 0, 0)
        while on_line < target:
            lam, mu = rng.randint(-40, 40), rng.randint(1, 40)
            if add(tuple(mu * a + lam * b for a, b in zip(p, q))):
                on_line += 1
    while len(points) < n:
        r = (rng.randint(-999, 999), rng.randint(-999, 999), rng.randint(1, 60))
        if on_line and sum(a * b for a, b in zip(oracle.cross3(p, q), r)) == 0:
            continue
        add(r)
    return points


# --------------------------------------------------------------- incidence

class Incidence:
    """`mukai_classify` on 20-160 points and batches of finite group
    closures. The counting kernel does no work here: this is the control
    for `counting` changes, and the stability layer does all of the work."""

    name = "incidence"
    MUKAI = 36                  # mukai ops per round; p90 sits among them
    GROUPS = 74                 # group-closure ops per round; p50 sits among them
    PER_GROUP_OP = 128          # closures per group-closure op
    POINTS = (20.0, 161.0)
    LAYOUTS = ("generic", "grid", "line-unstable", "line-borderline")

    def cases(self, rng: Random) -> list[Case]:
        # As in blowup-chains, the layout follows a fixed pattern along the
        # sorted sizes, so every seed gets the same mix of costs.
        sizes = sorted(int(x) for x in grid(rng, self.MUKAI, *self.POINTS))
        cases = []
        for j, n in enumerate(sizes):
            layout = self.LAYOUTS[j % len(self.LAYOUTS)]
            if layout == "line-borderline":
                n -= n % 3
            cases.append(Case("mukai/" + layout, {"points": configuration(rng, n, layout)}))
        for _ in range(self.GROUPS):
            groups = [(rng.choice(sorted(CYCLIC)), unimodular(rng, rng.randint(1, 3)))
                      for _ in range(self.PER_GROUP_OP)]
            cases.append(Case("groups", {"groups": groups}))
        rng.shuffle(cases)
        return cases

    def vary(self, case, r):
        if case.kind == "groups":
            return Case(case.kind, {"groups": [(order, sheared(r, p))
                                               for order, p in case.spec["groups"]]})
        return Case(case.kind, {"points": shear_points(case.spec["points"], r)})

    def build(self, case, env):
        pc = env.pc
        if case.kind == "groups":
            gens = [pc.IntMat2(*conjugate(order, p)) for order, p in case.spec["groups"]]
            return lambda: [env.pc.SymmetryGroup.generated_by([g]) for g in gens]
        config = pc.PointConfiguration.of(case.spec["points"])
        return lambda: env.pc.mukai_classify(config)

    def expect(self, case):
        if case.kind == "groups":
            return [oracle.group_closure([conjugate(order, p)])
                    for order, p in case.spec["groups"]]
        return oracle.mukai(case.spec["points"])

    def observe(self, case, out):
        if case.kind == "groups":
            return [frozenset((g.a, g.b, g.c, g.d) for g in group.elements) for group in out]
        w = out.witness
        return (out.verdict, w.dim, w.coordinates, w.incident, w.ratio, w.bound)


# --------------------------------------------------------------- cli-batch

def write_json(path: Path, data) -> None:
    path.write_text(json.dumps(data), encoding="utf-8")


def polygon_file(path: Path, verts) -> None:
    write_json(path, {"vertices": [[fmt(x), fmt(y)] for x, y in verts]})


@dataclass(frozen=True)
class CliResult:
    returncode: int
    stdout: bytes
    input_file: Path


def run_child(argv: list, env_vars: dict, timeout: float = 120.0):
    """Run one child to its end; return (exit code, stdout, its own peak
    RSS in KB). The child is killed if it outlives `timeout`."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                            env=env_vars)
    watchdog = threading.Timer(timeout, proc.kill)
    watchdog.start()
    reaped = False
    try:
        with proc.stdout:
            stdout = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        reaped = True
    finally:
        watchdog.cancel()
        if not reaped:
            proc.kill()
            proc.wait()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, stdout, usage.ru_maxrss


class CliBatch:
    """One `python -m polychow.cli <subcommand> ... --json` process per op
    on small generated files: interpreter start, import, parsing and
    rendering dominate, as they do for every CLI user."""

    name = "cli-batch"
    PER_KIND = 5
    # subcommand -> range of its size knob: dilation, imax or point count
    SIZES = {"info": (1, 8), "ehrhart": (1, 6), "sum": (1, 6), "chow": (1, 3),
             "blowup": (3, 10), "fo": (1, 3), "mukai": (8, 30)}

    def cases(self, rng: Random) -> list[Case]:
        cases = []
        for kind, (lo, hi) in self.SIZES.items():
            for j, size in enumerate(grid(rng, self.PER_KIND, lo, hi + 1)):
                cases.append(Case(kind, getattr(self, "_" + kind)(rng, int(size), j)))
        rng.shuffle(cases)
        return cases

    @staticmethod
    def _polygon(rng, k):
        return polygon_spec(rng.choice(SMALL), unimodular(rng, rng.randint(0, 2)),
                            (rng.randint(-9, 9), rng.randint(-9, 9)), k)

    def _info(self, rng, k, j):
        return {"polygon": self._polygon(rng, k)}

    def _ehrhart(self, rng, k, j):
        return {"polygon": self._polygon(rng, k), "i": None if j % 2 else rng.randint(1, 6)}

    _sum = _ehrhart

    def _chow(self, rng, k, j):
        return {"polygon": self._polygon(rng, k), "laws": 1 + j % 3}

    def _blowup(self, rng, imax, j):
        denominator = 1 + j % 3
        return BlowupChains.spec(rng, imax, denominator, rng.choice(CHOP_BASES[denominator]), j)

    def _fo(self, rng, k, j):
        """A centred symmetric polygon and a cyclic group, both conjugated
        by the polygon's map, so the group acts on the image."""
        name = rng.choice(sorted(SYMMETRIC))
        p = unimodular(rng, rng.randint(0, 3))
        return {"polygon": polygon_spec(name, p, (0, 0), k, SYMMETRIC[name]),
                "i": rng.randint(1, 4), "order": rng.choice(sorted(CYCLIC))}

    def _mukai(self, rng, n, j):
        layout = ("generic", "grid", "line-unstable")[j % 3]
        return {"points": configuration(rng, n - n % 3, layout)}

    def vary(self, case, r):
        s = case.spec
        if case.kind == "mukai":
            return Case(case.kind, {"points": shear_points(s["points"], r)})
        if case.kind == "fo":   # the polygon stays centred, so conjugate it
            return Case(case.kind, {**s, "polygon": {**s["polygon"],
                                                     "u": sheared(r, s["polygon"]["u"])}})
        if case.kind == "blowup":
            return Case(case.kind, shifted(s, r))
        return Case(case.kind, {**s, "polygon": shifted(s["polygon"], r)})

    # ---- files and argv
    def build(self, case, env):
        s = case.spec
        stem = env.workdir / f"case{env.next_id()}"
        main = stem.with_suffix(".json")
        args = [case.kind, str(main)]
        if case.kind == "mukai":
            write_json(main, {"points": [[str(c) for c in p] for p in s["points"]]})
        elif case.kind == "blowup":
            verts = image_verts(s)
            polygon_file(main, verts)
            cuts = stem.with_name(stem.name + "-cuts.json")
            write_json(cuts, {"cuts": [{"vertex": fmt_vec(verts[j]), "depth": fmt(d)}
                                       for j, d in s["cuts"]]})
            args += ["--cuts", str(cuts), "--verify", "--imax", str(s["imax"])]
        else:
            polygon_file(main, image_verts(s["polygon"]))
            if case.kind in ("ehrhart", "sum"):
                args += ["--poly"] if s["i"] is None else ["--i", str(s["i"])]
            elif case.kind == "chow":
                args += ["--poly", "--laws", str(s["laws"])]
            elif case.kind == "fo":
                gens = stem.with_name(stem.name + "-group.json")
                g = conjugate(s["order"], s["polygon"]["u"])
                write_json(gens, {"generators": [[[g[0], g[1]], [g[2], g[3]]]]})
                args += ["--i", str(s["i"]), "--group", str(gens)]
        args.append("--json")
        return lambda: env.run_cli(args, main)

    def expect(self, case):
        return {"command": case.kind, **getattr(self, "_expect_" + case.kind)(case.spec)}

    def observe(self, case, out):
        if out.returncode != 0:
            raise RuntimeError(f"exit code {out.returncode}")
        report = json.loads(out.stdout)
        if report.pop("input_digest") != oracle.sha256_digest(out.input_file):
            raise RuntimeError("input digest differs from the file's sha256")
        return report

    # ---- expected reports, formatted as the CLI formats them
    @staticmethod
    def _expect_info(s):
        data = oracle_data(s["polygon"])
        m = data.moment
        return {"polytope": {
            "vertices": [fmt_vec(v) for v in oracle.canonical_order(data.verts)],
            "area": fmt(data.area),
            "boundary_lattice_length": fmt(2 * data.e[1]),
            "is_lattice": True,
            "is_delzant": oracle.is_delzant(data.verts),
            "denominator_lcm": oracle.denominator_lcm(data.verts),
            "moment_integral": fmt_vec(m),
            "barycenter": fmt_vec((m[0] / data.area, m[1] / data.area)),
        }}

    @staticmethod
    def _expect_ehrhart(s):
        data = oracle_data(s["polygon"])
        if s["i"] is None:
            return {"ehrhart_poly": dict(zip(("i2", "i1", "const"), map(fmt, data.e)))}
        return {"i": s["i"], "count": int(data.count(s["i"]))}

    @staticmethod
    def _expect_sum(s):
        data = oracle_data(s["polygon"])
        if s["i"] is None:
            return {"sum_poly": dict(zip(("i2", "i1", "const"), map(fmt_vec, data.s)))}
        return {"i": s["i"], "sum": fmt_vec(data.point_sum(s["i"]))}

    @staticmethod
    def _expect_chow(s):
        data = oracle_data(s["polygon"])
        _, c1, c0 = data.chow_poly()
        laws = []
        for i in range(1, s["laws"] + 1):
            w = data.chow(i)
            sheared = mat_apply((1, 1, 0, 1), w)
            doubled = vmul(data.chow(2 * i), 8)
            for law, value in (("translation", w), ("unimodular", sheared), ("scaling", doubled)):
                laws.append({"law": law, "i": i, "holds": True,
                             "lhs": fmt_vec(value), "rhs": fmt_vec(value)})
        return {"chow_poly": {"linear": fmt_vec(c1), "const": fmt_vec(c0)},
                "coefficient_span_dim": oracle.span_dim(c1, c0), "laws": laws}

    @staticmethod
    def _expect_blowup(s):
        c = oracle.chop(s["base_verts"], s["u"], s["t"], s["cuts"])
        c1, c0 = c.chow_poly()
        base_c = c.base.chow_poly()
        return {
            "k": c.k, "m": list(c.m), "M": sum(c.m), "M_tilde": sum(x * x for x in c.m),
            "A": c.a_const, "B": c.b_const,
            "frames": [[[e1[0], e2[0]], [e1[1], e2[1]]] for e1, e2 in c.frames],
            "chopped_vertices": [fmt_vec(v) for v in oracle.canonical_order(c.chopped)],
            "chopped_scaled_delzant": oracle.is_delzant([vmul(p, c.k) for p in c.chopped]),
            "DF1": fmt_vec(oracle.vsub(c1, base_c[1])),
            "DF2": fmt_vec(oracle.vsub(c0, base_c[2])),
            "chow_poly": {"linear": fmt_vec(c1), "const": fmt_vec(c0)},
            "coefficient_span_dim": oracle.span_dim(c1, c0),
            "verification": [{"i": i, "identity": fmt_vec(c.chow(i)),
                              "enumerated": fmt_vec(c.chow(i)), "equal": True}
                             for i in range(1, s["imax"] + 1)],
            "verified": True,
        }

    @staticmethod
    def _expect_fo(s):
        data = oracle_data(s["polygon"])
        fo = [{"i": i, "value": fmt_vec(oracle.fo_value(
            data.count(i), vmul(data.point_sum(i), i), i, data.area, data.moment))}
            for i in range(1, s["i"] + 1)]
        vset = set(data.verts)
        central = {(-x, -y) for x, y in vset} == vset
        report = {"fo": fo, "centrally_symmetric": central}
        if central:
            report["weakly_symmetric_via_point_reflection"] = oracle.weakly_symmetric(
                data.verts, oracle.group_closure([CYCLIC[2]]))
        group = oracle.group_closure([conjugate(s["order"], s["polygon"]["u"])])
        report["group_order"] = len(group)
        report["weakly_symmetric"] = oracle.weakly_symmetric(data.verts, group)
        return report

    @staticmethod
    def _expect_mukai(s):
        verdict, dim, coords, incident, ratio, bound = oracle.mukai(s["points"])
        return {"points": len(s["points"]), "verdict": verdict,
                "witness": {"dim": dim, "coordinates": list(coords), "incident": incident,
                            "ratio": fmt(ratio), "bound": fmt(bound)}}


WORKLOADS = {w.name: w for w in (DilatedPolygons(), BlowupChains(), Incidence(), CliBatch())}
