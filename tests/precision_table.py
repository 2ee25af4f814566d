"""Double's rounding error against the finite-radius truncation error of
`darboux.finite_radius`: the table `darboux.EXACT_LIMIT_RADIUS` is read from.

    PYTHONPATH=src python tests/precision_table.py [--nodes 11]

prints one row per window, order and radius eps in 1e-1 .. 1e-7, of

- rounding: max |I_double - I_mp| over the window's lattice, where I is
  |Q|^2 of the finite-radius field, I_double from `finite_radius` and I_mp
  node by node in 40-digit mpmath (`mp_reference.finite_radius_q`);
- truncation: max |I_mp - I_0|, the finite-eps error against the eps -> 0
  limit I_0, `darboux.exact_limit` (which matches the catalog's closed
  forms `rogue1`, `rogue2`, `one_soliton` and `positon` to about 1e-15 of
  their peak);
- their ratio, against `ROUNDING_SHARE`: double serves a radius while
  rounding stays within that share of truncation, and below the radius
  `degenerate_limit` serves the exact limit.

A lattice node masked in double, in mpmath or in the limit is reported
instead of a ratio.  The mpmath nodes set the run time: about 2, 4 and
10 ms a node at n = 1, 2 and 3, so the default 11 x 11 lattices take about
4 minutes on a 2-vCPU machine (252 s measured), and 41 x 41 about an hour.
"""
from __future__ import annotations

import argparse
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from kundu_dnls.darboux import EXACT_LIMIT_RADIUS, DegenerationSpec, exact_limit, finite_radius
from kundu_dnls.lax import make_plane_wave_seed, zero_seed
from kundu_dnls.numerics.grid import intensity

import mp_reference

# the rule the radii follow: double unless its rounding error exceeds this
# share of the truncation error
ROUNDING_SHARE = 0.1

PLANE = make_plane_wave_seed(-2.0, 1.0, 1.0)
ZERO = zero_seed()
EPSILONS = (1e-1, 3e-2, 1e-2, 3e-3, 1e-3, 3e-4, 1e-4, 3e-5, 1e-5, 3e-6, 1e-6, 3e-7, 1e-7)


@dataclass
class Window:
    """A square lattice on [-half, half]^2 (`nodes` per axis, or the table's
    count) with its seed, critical eigenvalue, split phase, and the orders
    it covers."""

    name: str
    seed: object
    lambda_c: complex
    half: float
    orders: tuple
    S1: float = 0.0
    S2: float = 0.0
    nodes: Optional[int] = None

    def lattice(self, nodes: int):
        axis = np.linspace(-self.half, self.half, self.nodes or nodes)
        return np.meshgrid(axis, axis, indexing="ij")

    def intensity(self, n: int, eps: float, kind: str, X, T) -> np.ndarray:
        """|Q|^2 of the finite-radius field in double or in mpmath, or of the
        exact limit: `kind` is "double", "mp" or "exact"."""
        spec = DegenerationSpec(self.lambda_c, eps, n, S1=self.S1, S2=self.S2)
        if kind == "mp":
            return intensity(mp_reference.finite_radius_q(spec, self.seed, X, T))
        out = exact_limit(spec, self.seed) if kind == "exact" else finite_radius(spec, self.seed)
        return intensity(out.Q(X, T))


# the coalescence benchmark's window around the rogue centre (11 x 11), fig8's
# unsplit window, the split figure windows at their own orders and phases,
# and the zero seed at the positon's eigenvalue
WINDOWS = {w.name: w for w in (
    Window("coalescence", PLANE, 1 + 1j, 1.0, (1, 2, 3), nodes=11),
    Window("fig8", PLANE, 1 + 1j, 6.0, (1, 2, 3)),
    Window("fig7", PLANE, 1 + 1j, 30.0, (2,), S1=500.0),
    Window("fig9", PLANE, 1 + 1j, 40.0, (3,), S1=500.0),
    Window("fig10", PLANE, 1 + 1j, 25.0, (3,), S2=1000.0),
    Window("zero", ZERO, 0.8 + 0.8j, 10.0, (1, 2, 3)),
)}


def measure(window: Window, n: int, eps: float, nodes: int = 11) -> dict:
    """One row: rounding, truncation, their ratio and the count of nodes
    masked in double, in mpmath or in the limit."""
    X, T = window.lattice(nodes)
    Im, Id, I0 = (window.intensity(n, eps, kind, X, T) for kind in ("mp", "double", "exact"))
    row = {"window": window.name, "n": n, "eps": eps,
           "masked": int(np.sum(~np.isfinite(Im) | ~np.isfinite(Id) | ~np.isfinite(I0)))}
    row["rounding"] = float(np.max(np.abs(Id - Im)))
    row["truncation"] = float(np.max(np.abs(Im - I0)))
    row["ratio"] = row["rounding"] / row["truncation"] if row["truncation"] > 0 else math.inf
    return row


def resolved(row: dict) -> bool:
    """Whether the row measures both errors: no masked node."""
    return row["masked"] == 0


def double_serves(row: dict) -> bool:
    """The rule the radii follow: double unless its rounding error exceeds
    `ROUNDING_SHARE` of the truncation error."""
    return row["ratio"] <= ROUNDING_SHARE


def table(nodes: int = 11, epsilons=EPSILONS, orders=(1, 2, 3)):
    """The rows of every window at each of its orders among `orders`."""
    for window in WINDOWS.values():
        for n in sorted(set(window.orders) & set(orders)):
            for eps in epsilons:
                yield measure(window, n, eps, nodes)


def radius(n: int, coarse: list, nodes: int = 11):
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
    ratio = f"{r['masked']} masked" if r["masked"] else f"{r['ratio']:.2e}"
    verdict = ("unresolved" if not resolved(r)
               else "double serves" if double_serves(r) else "over the share")
    return (f"{r['window']:<12} {r['n']:>1} {r['eps']:>7.1e} {r['rounding']:>9.2e} "
            f"{r['truncation']:>10.2e} {ratio:>10}  {verdict}")


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--nodes", type=int, default=11,
                    help="lattice nodes per axis (the coalescence window keeps its 11)")
    args = ap.parse_args(argv)
    print(f"rule: double unless rounding > {ROUNDING_SHARE} x truncation")
    header = (f"{'window':<12} {'n':>1} {'eps':>7} {'rounding':>9} {'truncation':>10} "
              f"{'ratio':>10}  verdict")
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
              f"darboux.EXACT_LIMIT_RADIUS[{n}] = {EXACT_LIMIT_RADIUS[n]:.1e}", flush=True)


if __name__ == "__main__":
    main()
