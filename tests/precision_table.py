"""Double's rounding error against the finite-radius truncation error of
`degenerate_limit`: the table `darboux.EXTENDED_EPS_RADIUS` is read from.

    PYTHONPATH=src python tests/precision_table.py [--nodes 41]

prints one row per window, order and radius eps in 1e-1 .. 1e-7, of

- rounding: max |I_double - I_extended| over the window's lattice, where I
  is |Q|^2 of `degenerate_limit` in that precision;
- truncation: max |I_extended - I_0|, the finite-eps error against the
  eps -> 0 limit I_0: the closed form where the catalog has one (`rogue1`,
  `rogue2`, `one_soliton`, `positon`), otherwise the Richardson
  extrapolation of extended runs at eps and eps/2, with the convergence
  order p measured from a third run at eps/4;
- their ratio, against `darboux.ROUNDING_SHARE`: double serves a radius
  while rounding stays within that share of truncation.

A lattice node masked in either precision is reported instead of a ratio.
"""
from __future__ import annotations

import argparse
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from kundu_dnls import catalog
from kundu_dnls.darboux import (EXTENDED_EPS_RADIUS, ROUNDING_SHARE, DegenerationSpec,
                                degenerate_limit)
from kundu_dnls.lax import make_plane_wave_seed, zero_seed
from kundu_dnls.numerics.grid import intensity

PLANE = make_plane_wave_seed(-2.0, 1.0, 1.0)
ZERO = zero_seed()
EPSILONS = (1e-1, 3e-2, 1e-2, 3e-3, 1e-3, 3e-4, 1e-4, 3e-5, 1e-5, 3e-6, 1e-6, 3e-7, 1e-7)


@dataclass
class Window:
    """A square lattice on [-half, half]^2 (`nodes` per axis, or the table's
    count) with its seed, critical eigenvalue, split phase, and the
    closed-form limit of each order it covers (None: Richardson)."""

    name: str
    seed: object
    lambda_c: complex
    half: float
    limits: dict
    S1: float = 0.0
    S2: float = 0.0
    nodes: Optional[int] = None

    def lattice(self, nodes: int):
        axis = np.linspace(-self.half, self.half, self.nodes or nodes)
        return np.meshgrid(axis, axis, indexing="ij")

    def intensity(self, n: int, eps: float, precision: str, X, T) -> np.ndarray:
        spec = DegenerationSpec(self.lambda_c, eps, n, S1=self.S1, S2=self.S2)
        return intensity(degenerate_limit(spec, self.seed, precision=precision).Q(X, T))


ROGUES = {1: catalog.rogue1, 2: catalog.rogue2, 3: None}
# the coalescence benchmark's window around the rogue centre (11 x 11), fig8's
# unsplit window, the split figure windows at their own orders and phases,
# and the zero seed at the positon's eigenvalue
WINDOWS = {w.name: w for w in (
    Window("coalescence", PLANE, 1 + 1j, 1.0, ROGUES, nodes=11),
    Window("fig8", PLANE, 1 + 1j, 6.0, ROGUES),
    Window("fig7", PLANE, 1 + 1j, 30.0, {2: None}, S1=500.0),
    Window("fig9", PLANE, 1 + 1j, 40.0, {3: None}, S1=500.0),
    Window("fig10", PLANE, 1 + 1j, 25.0, {3: None}, S2=1000.0),
    Window("zero", ZERO, 0.8 + 0.8j, 10.0, {1: lambda: catalog.one_soliton(0.8, 0.8),
                                           2: lambda: catalog.positon(0.8, 0.8), 3: None}),
)}


def measure(window: Window, n: int, eps: float, nodes: int = 41) -> dict:
    """One row: rounding, truncation, their ratio, the measured order p
    (Richardson rows only) and the masked node count of either precision."""
    X, T = window.lattice(nodes)
    Ie = window.intensity(n, eps, "extended", X, T)
    Id = window.intensity(n, eps, "double", X, T)
    row = {"window": window.name, "n": n, "eps": eps, "p": None,
           "masked": int(np.sum(~np.isfinite(Ie) | ~np.isfinite(Id)))}
    limit = window.limits[n]
    if limit is not None:
        I0 = intensity(limit().eval(X, T))
    else:
        Ih = window.intensity(n, eps / 2, "extended", X, T)
        Iq = window.intensity(n, eps / 4, "extended", X, T)
        d1, d2 = np.max(np.abs(Ie - Ih)), np.max(np.abs(Ih - Iq))
        row["p"] = p = math.log2(d1 / d2) if d1 > 0 and d2 > 0 else math.nan
        I0 = Ih + (Ih - Ie) / (2.0 ** p - 1.0)
    row["rounding"] = float(np.max(np.abs(Id - Ie)))
    row["truncation"] = float(np.max(np.abs(Ie - I0)))
    row["ratio"] = row["rounding"] / row["truncation"] if row["truncation"] > 0 else math.inf
    return row


def resolved(row: dict) -> bool:
    """Whether the row measures both errors: no masked node, and a Richardson
    ladder that contracts at least linearly (p >= 1).  Far from the limit the
    ladder is not yet asymptotic, and on a split window at tiny eps the
    extended runs themselves stop converging (likely from their split-phase
    weights, which are rounded to double)."""
    return row["masked"] == 0 and (row["p"] is None or row["p"] >= 1.0)


def double_serves(row: dict) -> bool:
    """The rule the radii follow: double unless its rounding error exceeds
    `ROUNDING_SHARE` of the truncation error."""
    return row["ratio"] <= ROUNDING_SHARE


def table(nodes: int = 41, epsilons=EPSILONS, orders=(1, 2, 3)):
    """The rows of every window at each of its orders among `orders`."""
    for window in WINDOWS.values():
        for n in sorted(set(window.limits) & set(orders)):
            for eps in epsilons:
                yield measure(window, n, eps, nodes)


def radius(n: int, coarse: list, nodes: int = 41):
    """(radius, rows) of order n: the largest eps at which a window's ratio
    reaches `ROUNDING_SHARE`, rounded to two significant digits.

    The `coarse` rows of `table` bracket the crossing: from the largest eps
    that fails the rule on a resolved row of order n up to the next.  Fifteen radii spaced
    evenly in log eps fill the bracket, and each window's resolved rows there
    are fitted with a power law, ratio = C eps^-k, whose crossing is that
    window's.  The fit, not the single rows, sets the radius: double's
    rounding error scatters by a factor of about 1.5 from one radius to the
    next, so near the crossing single rows pass and fail at random.
    """
    coarse = [r for r in coarse if r["n"] == n and resolved(r)]
    lo = max(r["eps"] for r in coarse if not double_serves(r))
    hi = min(e for e in EPSILONS if e > lo)
    fine = sorted({float(f"{lo * (hi / lo) ** (k / 16):.1e}") for k in range(1, 16)})
    rows = [r for r in coarse if lo <= r["eps"] <= hi]
    rows += [r for r in table(nodes, fine, orders=(n,)) if resolved(r)]
    crossings = []
    for name in {r["window"] for r in rows}:
        own = [r for r in rows if r["window"] == name and r["ratio"] > 0]
        slope, icpt = np.polyfit(np.log([r["eps"] for r in own]),
                                 np.log([r["ratio"] for r in own]), 1)
        crossings.append(math.exp((math.log(ROUNDING_SHARE) - icpt) / slope))
    return float(f"{max(crossings):.1e}"), sorted(rows, key=lambda r: (r["window"], r["eps"]))


def _line(r: dict) -> str:
    p = "" if r["p"] is None else f"{r['p']:.2f}"
    ratio = f"{r['masked']} masked" if r["masked"] else f"{r['ratio']:.2e}"
    verdict = ("unresolved" if not resolved(r)
               else "double serves" if double_serves(r) else "over the share")
    return (f"{r['window']:<12} {r['n']:>1} {r['eps']:>7.1e} {r['rounding']:>9.2e} "
            f"{r['truncation']:>10.2e} {ratio:>10} {p:>5}  {verdict}")


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--nodes", type=int, default=41,
                    help="lattice nodes per axis (the coalescence window keeps its 11)")
    args = ap.parse_args(argv)
    print(f"rule: double unless rounding > {ROUNDING_SHARE} x truncation")
    header = (f"{'window':<12} {'n':>1} {'eps':>7} {'rounding':>9} {'truncation':>10} "
              f"{'ratio':>10} {'p':>5}  verdict")
    print(header)
    coarse = []
    for r in table(args.nodes):
        coarse.append(r)
        print(_line(r), flush=True)
    for n in (1, 2, 3):
        found, rows = radius(n, coarse, args.nodes)
        print(f"\norder {n}: the crossing bracket\n{header}")
        for r in rows:
            print(_line(r))
        print(f"order {n}: measured radius {found:.1e}, "
              f"darboux.EXTENDED_EPS_RADIUS[{n}] = {EXTENDED_EPS_RADIUS[n]:.1e}", flush=True)


if __name__ == "__main__":
    main()
