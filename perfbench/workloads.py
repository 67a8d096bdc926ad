"""Seeded request generators for the benchmark workloads.

A workload is an endless, deterministic stream of CLI requests.  The seed is
the only input: the program under test receives nothing but the generated
argv lists, so the same seed always sends the same requests.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Iterator

# Criterion 9's mutation set: each entry must make `verify --suite all` exit 4.
MUTATE_PI = ("1,2,both", "3,4,both", "2,5,both", "4,5,both", "2,5")
MUTATE_FAMILY = ("xi:t", "eta1:q1", "eta1:q2", "eta2:q1", "eta2:q2", "eta3:q3")


@dataclass(frozen=True)
class Orbit:
    """One fixed-step integration setting of an orbit workload."""

    system: str
    method: str
    dim: int
    h: str
    t_end: str

    @property
    def steps(self) -> int:
        return round(float(self.t_end) / float(self.h))


@dataclass(frozen=True)
class Request:
    """One CLI call: ``kind`` names the request type, ``cycle`` its round."""

    kind: str
    argv: tuple[str, ...]
    cycle: int
    orbit: Orbit | None = None


@dataclass(frozen=True)
class Workload:
    name: str
    kinds: tuple[str, ...]  # request kinds of one cycle, in order
    summary_kind: str  # the short JSON-verdict request
    bulk_kind: str  # the request that produces the bulk output
    orbit: Orbit | None = None
    setup_orbit: Orbit | None = None


RK4_ORBIT = Orbit("mb5", "rk4", 5, "1e-3", "20")
MIDPOINT_ORBIT = Orbit("ham6", "midpoint", 6, "1e-2", "50")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="rk4-orbits",
            kinds=("invariants", "simulate"),
            summary_kind="invariants",
            bulk_kind="simulate",
            orbit=RK4_ORBIT,
            setup_orbit=Orbit("mb5", "rk4", 5, "1e-3", "0.01"),
        ),
        Workload(
            name="midpoint-orbits",
            kinds=("invariants", "simulate"),
            summary_kind="invariants",
            bulk_kind="simulate",
            orbit=MIDPOINT_ORBIT,
            setup_orbit=Orbit("ham6", "midpoint", 6, "1e-2", "0.1"),
        ),
        Workload(
            name="certify",
            kinds=("verify", "solve", "mutant-pi", "mutant-family"),
            summary_kind="verify",
            bulk_kind="solve",
        ),
    )
}


def _orbit_argv(command: str, orbit: Orbit, init: str) -> tuple[str, ...]:
    return (
        command,
        "--system", orbit.system,
        "--method", orbit.method,
        f"--init={init}",  # joined: a leading minus sign would read as a flag
        "--t-end", orbit.t_end,
        "--h", orbit.h,
    )


def argv_value(argv: tuple[str, ...], flag: str) -> str:
    """The value given to ``flag`` as ``--flag value`` or ``--flag=value``."""
    for i, arg in enumerate(argv):
        if arg == flag:
            return argv[i + 1]
        if arg.startswith(flag + "="):
            return arg[len(flag) + 1 :]
    raise KeyError(flag)


HALTON_BASES = (2, 3, 5, 7, 11, 13)


def radical_inverse(k: int, base: int) -> float:
    inv, scale = 0.0, 1.0 / base
    while k:
        k, digit = divmod(k, base)
        inv += digit * scale
        scale /= base
    return inv


def orbit_inits(rng: random.Random, dim: int) -> Iterator[str]:
    """Initial states with components uniform in [-1, 1], written exactly.

    The points are a Halton sequence shifted by a seeded random vector
    modulo 1 (a Cranley-Patterson rotation).  Each component is still
    uniform, but any prefix of the sequence covers the cube evenly.  So every
    run's orbits have the same mix of difficulty; Newton iterations per step
    range from 2.1 to 3.0 between orbits.
    """
    shift = [rng.random() for _ in range(dim)]
    for k in itertools.count(1):
        point = ((radical_inverse(k, b) + u) % 1.0 for b, u in zip(HALTON_BASES, shift))
        yield ",".join(repr(2.0 * x - 1.0) for x in point)


def orbit_pair(orbit: Orbit, init: str, cycle: int) -> tuple[Request, Request]:
    """The invariants/simulate pair on one initial state."""
    return (
        Request("invariants", _orbit_argv("invariants", orbit, init), cycle, orbit),
        Request("simulate", _orbit_argv("simulate", orbit, init), cycle, orbit),
    )


def certify_cycle(rng: random.Random, cycle: int) -> tuple[Request, ...]:
    return (
        Request("verify", ("verify", "--suite", "all"), cycle),
        Request("solve", ("solve-symmetries", "--max-degree", "3"), cycle),
        Request(
            "mutant-pi",
            ("verify", "--suite", "all", "--mutate-pi", rng.choice(MUTATE_PI)),
            cycle,
        ),
        Request(
            "mutant-family",
            ("verify", "--suite", "all", "--mutate-family", rng.choice(MUTATE_FAMILY)),
            cycle,
        ),
    )


def requests(workload: Workload, seed: int) -> Iterator[Request]:
    """The workload's endless request stream for ``seed``."""
    rng = random.Random(seed)
    if workload.orbit is not None:
        inits = orbit_inits(rng, workload.orbit.dim)
        for cycle, init in enumerate(inits):
            yield from orbit_pair(workload.orbit, init, cycle)
    for cycle in itertools.count():
        yield from certify_cycle(rng, cycle)


def setup_requests(workload: Workload) -> tuple[Request, ...]:
    """One minimal request of each kind, as run by a fresh interpreter."""
    if workload.setup_orbit is not None:
        init = ",".join(["0.5"] * workload.setup_orbit.dim)
        return orbit_pair(workload.setup_orbit, init, 0)
    return (
        Request("verify", ("verify", "--suite", "all"), 0),
        Request("solve", ("solve-symmetries", "--max-degree", "1"), 0),
    )
