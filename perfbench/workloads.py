"""The three benchmark workloads, driven through h2star's public entry points.

Each workload is a fixed list of ops.  ``run(i)`` does op i and nothing else,
so it is what gets timed; ``verify(i, result)`` checks the output against
the acceptance tolerances afterwards and returns the problems found.  Ops
look their entry point up on the module at call time (``search.maximize_param``,
``cli.main``, ``checks.CHECKS_BY_NAME[...]``) so the traced run sees the
wrapped functions.  README.md says why each workload was chosen.
"""

from __future__ import annotations

import csv
import hashlib
import io
import math
import os

from h2star import checks, cli, search
from h2star.hankel import sharp_bound
from h2star.starlike import Alpha

from tracing import GATE_CHECKS


class Workload:
    """Ops plus the checks on their outputs.

    Subclasses set ``labels`` (one per op) and ``inputs`` (recorded with
    every result) and implement ``run`` and ``check``.

    Outputs with a canonical byte form must repeat exactly on every pass of
    a run; ``digest`` hashes the first pass's outputs so that separate runs
    can be compared too.
    """

    name = ""
    seed_used = False

    def __init__(self, seed: int, workdir: str):
        self._first = {}

    def run(self, i: int):
        raise NotImplementedError

    def check(self, i: int, result) -> list:
        raise NotImplementedError

    def canonical(self, i: int, result):
        """Bytes that must repeat exactly across passes, or None."""
        return None

    def verify(self, i: int, result) -> list:
        problems = self.check(i, result)
        blob = self.canonical(i, result)
        if blob is not None and self._first.setdefault(i, blob) != blob:
            problems.append("output differs from the first pass of this run")
        return problems

    def digest(self):
        if not self._first:
            return None
        h = hashlib.sha256()
        for i in sorted(self._first):
            h.update(self._first[i])
        return h.hexdigest()


class LemmaGrid(Workload):
    """maximize_param on the default 201 x 101 x 64 x 64 box, one op per alpha."""

    name = "lemma-grid"
    ALPHAS = (0.0, 0.25, 0.75)
    GRID = (search.DEFAULT_GRID_P, search.DEFAULT_GRID_T,
            search.DEFAULT_GRID_YARG, search.DEFAULT_GRID_ZARG)
    POINTS = math.prod(GRID)  # 83,152,896 grid evaluations per alpha

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.labels = tuple(f"alpha={a}" for a in self.ALPHAS)
        self.inputs = {"alphas": list(self.ALPHAS), "grid": list(self.GRID), "workers": 1}

    def run(self, i):
        return search.maximize_param(Alpha(self.ALPHAS[i]), workers=1)

    def check(self, i, outcome):
        # The clauses of the full-parameter-search acceptance check, without
        # its 60 s time limit.
        a = self.ALPHAS[i]
        bound = sharp_bound(Alpha(a))
        p_cell = 2.0 / (self.GRID[0] - 1)
        t_cell = 1.0 / (self.GRID[1] - 1)
        p_at = float(outcome.argmax["p"])
        y_mod = abs(outcome.argmax["y"])
        problems = []
        if not bound - 5e-3 <= outcome.value <= bound + 1e-9:
            problems.append(f"value {outcome.value!r} outside [bound - 5e-3, bound + 1e-9]")
        if p_at > p_cell + 1e-12:
            problems.append(f"argmax p = {p_at!r} beyond the first p cell")
        if abs(1.0 - y_mod) > t_cell + 1e-12:
            problems.append(f"argmax |y| = {y_mod!r} not in the last t cell")
        if a == 0.0 and p_at != 0.0:
            problems.append(f"tie-break reported p = {p_at!r}, expected 0")
        if outcome.evaluations != self.POINTS:
            problems.append(f"evaluations = {outcome.evaluations}, expected {self.POINTS}")
        return problems

    def canonical(self, i, outcome):
        return outcome.to_json().encode()


class HerglotzSweep(Workload):
    """One `h2star sweep --method herglotz` over 10 alphas, through cli.main."""

    name = "herglotz-sweep"
    seed_used = True
    ALPHAS = tuple(k / 10 for k in range(10))

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.out = os.path.join(workdir, "sweep.csv")
        self.argv = [
            "sweep", "--method", "herglotz",
            "--alpha-start", "0", "--alpha-end", "0.9", "--steps", "9",
            "--workers", "2", "--seed", str(seed), "--out", self.out,
        ]
        self.labels = ("sweep",)
        self.inputs = {"argv": [a if a != self.out else "<tmp>/sweep.csv" for a in self.argv]}

    def run(self, i):
        if os.path.exists(self.out):
            os.remove(self.out)
        return cli.main(self.argv)

    def _csv(self):
        try:
            with open(self.out, "rb") as fh:
                return fh.read()
        except FileNotFoundError:
            return None

    def check(self, i, code):
        if code != 0:
            return [f"exit code {code}"]
        blob = self._csv()
        if blob is None:
            return ["no CSV written"]
        rows = list(csv.DictReader(io.StringIO(blob.decode("utf-8"))))
        if len(rows) != len(self.ALPHAS):
            return [f"{len(rows)} CSV rows, expected {len(self.ALPHAS)}"]
        problems = []
        for want, row in zip(self.ALPHAS, rows):
            alpha = float(row["alpha"])
            searched = float(row["searched_max"])
            bound = (1.0 - alpha) ** 2
            if abs(alpha - want) > 1e-12 or abs(float(row["sharp_bound"]) - bound) > 1e-12:
                problems.append(f"row alpha={row['alpha']}: wrong alpha or bound column")
            elif not bound - 1e-2 <= searched <= bound + 1e-9:
                problems.append(
                    f"alpha={alpha}: searched {searched!r} outside [bound - 1e-2, bound + 1e-9]"
                )
        return problems

    def canonical(self, i, code):
        return self._csv()


class PointwiseGate(Workload):
    """Six acceptance checks, each one op, through checks.CHECKS_BY_NAME."""

    name = "pointwise-gate"

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.labels = GATE_CHECKS
        self.inputs = {"checks": list(GATE_CHECKS)}

    def run(self, i):
        return checks.CHECKS_BY_NAME[GATE_CHECKS[i]]()

    def check(self, i, result):
        return [] if result.passed else [f"check failed: {result.detail}"]


WORKLOADS = {w.name: w for w in (LemmaGrid, HerglotzSweep, PointwiseGate)}
