"""Seeded workloads: the susypiv CLI command lists the benchmark runs.

A workload is a fixed list of CLI commands.  The seed draws only the
(eps, lambda, kappa) sets of ``grid_export`` and ``wide_domain``;
``verify_suite`` always runs the built-in benchmark parameter sets.  The draw
ranges are narrow so that the amount of series work, and hence the run time,
barely depends on the seed.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

# Built-in parameter sets swept by ``verify --all`` and residual kinds run per
# set (eigen levels 0..3 count once each).
VERIFY_ALL_SETS = 5
REPORTS_PER_SET = 11


@dataclass(frozen=True)
class Command:
    """One CLI invocation of a workload.

    ``argv`` holds no ``--output`` flag: the runner adds it for data commands
    so outputs land in its temporary directory.  ``points`` is the number of
    grid points the command evaluates: a data command counts its rows, a
    ``verify`` command counts the grid once per report.
    """

    argv: tuple
    points: int
    eps: complex = 0j
    coefficient: complex = 0j  # lambda + i*kappa
    xmin: float = -5.0
    xmax: float = 5.0
    step: float = 0.01

    @property
    def name(self) -> str:
        return self.argv[0]

    @property
    def is_verify(self) -> bool:
        return self.name == "verify"

    @property
    def family(self) -> int | None:
        if "--family" not in self.argv:
            return None
        return int(self.argv[self.argv.index("--family") + 1])

    @property
    def fmt(self) -> str:
        return self.argv[self.argv.index("--format") + 1] if "--format" in self.argv else "csv"

    @property
    def n_reports(self) -> int:
        sets = VERIFY_ALL_SETS if "--all" in self.argv else 1
        return sets * REPORTS_PER_SET if self.is_verify else 0

    @property
    def max_z(self) -> float:
        """Largest 1F1 argument z = x**2 on the command's grid."""
        return max(self.xmin * self.xmin, self.xmax * self.xmax)


def grid_points(xmin: float, xmax: float, step: float) -> int:
    """Point count of susypiv's closed uniform grid (same rounding slack)."""
    return int(math.floor((xmax - xmin) / step + 1e-9)) + 1


def command(name, eps, lam, kappa, xmin, xmax, step, extra=()) -> Command:
    """A CLI command with its parameter and grid flags spelled out."""
    argv = (
        name,
        *extra,
        "--epsilon-re", repr(eps.real),
        "--epsilon-im", repr(eps.imag),
        "--lambda", repr(lam),
        "--kappa", repr(kappa),
        "--xmin", repr(xmin),
        "--xmax", repr(xmax),
        "--step", repr(step),
    )
    n = grid_points(xmin, xmax, step)
    points = n * REPORTS_PER_SET if name == "verify" else n
    return Command(argv, points, eps, complex(lam, kappa), xmin, xmax, step)


def _draw(rng, re_range, im_range, coeff_range, log_im=False):
    re = round(rng.uniform(*re_range), 4)
    if log_im:
        lo, hi = (math.log10(v) for v in im_range)
        im = float(f"{10.0 ** rng.uniform(lo, hi):.3g}")
    else:
        im = round(rng.uniform(*im_range), 4)
    lam = round(rng.uniform(*coeff_range), 3)
    kappa = round(rng.uniform(*coeff_range), 3)
    return complex(re, im), lam, kappa


def verify_suite(seed: int) -> list:
    # ``verify --all`` on the default +-5 grid, step 0.01: 5 sets x 11 reports
    # x 1001 points.  2530 small 1F1 calls; the seed is not used.
    del seed
    n = grid_points(-5.0, 5.0, 0.01)
    return [Command(("verify", "--all"), VERIFY_ALL_SETS * REPORTS_PER_SET * n)]


def grid_export(seed: int) -> list:
    # Four data commands at 1e5 points (step 1e-4 on +-5), one drawn set each,
    # in the range of the built-in sets.  Time goes into per-row formatting
    # and 1F1 calls on 1e5-point arrays.
    rng = random.Random(f"grid_export:{seed}")
    plan = (
        ("potential", ("--format", "csv")),
        ("piv", ("--family", "1", "--format", "json")),
        ("piv", ("--family", "3", "--format", "csv")),
        ("extremal", ("--family", "2", "--format", "csv")),
    )
    commands = []
    for name, extra in plan:
        eps, lam, kappa = _draw(rng, (-2.0, 4.5), (0.05, 1.5), (0.5, 3.0))
        commands.append(command(name, eps, lam, kappa, -5.0, 5.0, 1e-4, extra))
    return commands


def wide_domain(seed: int) -> list:
    # Large-|Re eps| seeds on grids past +-5, the only workload with z > 30,
    # where the asymptotic 1F1 branch does the work:
    #   verify on +-7 with Re eps near 21, verify on +-12 with Re eps near -40,
    #   potential on +-26 (step 1e-3, z up to 676, near the overflow limit at
    #   z ~ 709) with Re eps near 9 and a small imaginary part.
    rng = random.Random(f"wide_domain:{seed}")
    eps, lam, kappa = _draw(rng, (20.0, 22.0), (0.3, 0.7), (0.5, 1.5))
    commands = [command("verify", eps, lam, kappa, -7.0, 7.0, 0.01)]
    eps, lam, kappa = _draw(rng, (-41.0, -39.0), (0.5, 1.5), (0.5, 1.5))
    commands.append(command("verify", eps, lam, kappa, -12.0, 12.0, 0.01))
    eps, lam, kappa = _draw(rng, (8.5, 9.5), (1e-6, 1e-3), (0.5, 1.5), log_im=True)
    commands.append(
        command("potential", eps, lam, kappa, -26.0, 26.0, 1e-3, ("--format", "csv"))
    )
    return commands


_BUILDERS = {"verify_suite": verify_suite, "grid_export": grid_export, "wide_domain": wide_domain}
WORKLOADS = tuple(_BUILDERS)


def build(workload: str, seed: int) -> list:
    """The command list of ``workload`` for ``seed``."""
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return _BUILDERS[workload](seed)
