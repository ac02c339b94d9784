"""Seeded generator of the CLI-study configs each workload runs.

A study is one `strainlim <command>` invocation on one JSON config. The
generator only builds configs: the same (workload, seed) always gives the
same list, and the program under test sees nothing but those configs.
"""

import math
import random

ACCEPT_LADDER = [2.0 ** -k for k in range(6, 14)]
STIFF_LADDER = [2.0 ** -k for k in range(8, 16)]

# the three families of the acceptance gate
POWER = {"kind": "power_law", "a": 1.0, "p": 2.0}
RECIP = {"kind": "density_modulus_reciprocal", "E0": 1.0, "nu": 0.3,
         "a": 0.3, "b": 0.5, "c": 1.0}
DIRECT = {"kind": "density_modulus_direct", "E0": 1.0, "nu": 0.3,
          "a": 0.3, "b": 0.5, "c": 1.0}
# stiff reciprocal family: Picard stalls on it, so the Newton fallback runs
STIFF = {"kind": "density_modulus_reciprocal", "E0": 1.0, "nu": 0.45,
         "a": 0.9, "b": 0.5, "c": 3.0}

CERTIFY_FAMILIES = (POWER, RECIP, DIRECT)
# certify_constants refuses fewer samples than this
CERTIFY_SAMPLES = 100

ENERGY_PROBES = 4
ONED_POINTS = 12
# the scalar gap decays with order p + 1 = 3 for p = 2 (README, criterion 6);
# the sweep checks that order instead of the gate's [0.9, 1.1]
ONED_SLOPE = [2.5, 3.5]

WORKLOADS = ("certify", "converge", "energy")


def _ball_stress(rng, radius):
    """Six components uniform in the Frobenius ball of `radius` (full off-diagonals)."""
    g = [rng.gauss(0.0, 1.0) for _ in range(6)]
    norm = math.sqrt(sum(x * x for x in g))
    rho = radius * rng.random() ** (1.0 / 6.0)
    s = 1.0 / math.sqrt(2.0)
    weights = (1.0, 1.0, 1.0, s, s, s)
    return [x * rho / norm * w for x, w in zip(g, weights)]


def _unit_axis(rng):
    g = [rng.gauss(0.0, 1.0) for _ in range(3)]
    norm = math.sqrt(sum(x * x for x in g))
    return [x / norm for x in g]


def _certify(rng, index):
    return "certify", {
        "family": dict(CERTIFY_FAMILIES[index % len(CERTIFY_FAMILIES)]),
        "deltas": list(ACCEPT_LADDER),
        "samples": CERTIFY_SAMPLES,
        "seed": rng.randrange(2 ** 31),
    }


_CONVERGE_MIX = ("converge", "converge-hencky", "solve")
_CONVERGE_FAMILIES = (POWER, RECIP, DIRECT, STIFF)


def _converge(rng, index):
    command = _CONVERGE_MIX[index % len(_CONVERGE_MIX)]
    family = _CONVERGE_FAMILIES[(index // len(_CONVERGE_MIX)) % len(_CONVERGE_FAMILIES)]
    ladder = STIFF_LADDER if family is STIFF else ACCEPT_LADDER
    cfg = {"family": dict(family),
           "stress": _ball_stress(rng, 0.9 * family.get("c", 1.0))}
    if command == "solve":
        cfg["delta"] = rng.choice(ladder)
    else:
        cfg["rotation"] = {"axis": _unit_axis(rng),
                           "coefficient": rng.uniform(0.5, 2.0)}
        cfg["deltas"] = list(ladder)
    return command, cfg


# p = 3 twice per cycle: the median study then sits inside one cost cluster
# (oned < p = 2 < p = 3 < scaled_base) instead of on a boundary between two
_ENERGY_MIX = ("oned", "p2", "p3", "p3", "scaled")


def _energy(rng, index):
    kind = _ENERGY_MIX[index % len(_ENERGY_MIX)]
    if kind == "oned":
        lo = rng.uniform(0.05, 0.1)
        stresses = [lo * (0.5 / lo) ** (i / (ONED_POINTS - 1)) for i in range(ONED_POINTS)]
        return "oned", {"family": dict(POWER), "delta": rng.choice(ACCEPT_LADDER[2:]),
                        "stresses": stresses, "thresholds": {"slope": list(ONED_SLOPE)}}
    # a narrow range of `a`: the quadrature cost, and so the median, hardly moves
    a = rng.uniform(0.8, 1.25)
    if kind == "p2":
        family = {"kind": "power_law", "a": a, "p": 2.0}
    elif kind == "p3":
        family = {"kind": "power_law", "a": a, "p": 3.0}
    else:
        family = {"kind": "scaled_base", "base": "power_law", "a": a, "p": 2.0}
    return "energy", {"family": family, "delta": rng.choice(ACCEPT_LADDER),
                      "samples": ENERGY_PROBES, "seed": rng.randrange(2 ** 31)}


_MAKERS = {"certify": _certify, "converge": _converge, "energy": _energy}

# studies in one cycle of each workload's mix: one of every kind it runs
CYCLE = {"certify": len(CERTIFY_FAMILIES),
         "converge": len(_CONVERGE_MIX) * len(_CONVERGE_FAMILIES),
         "energy": len(_ENERGY_MIX)}


def generate(workload, seed, length):
    """The workload's first `length` (command, config dict) pairs for `seed`.

    A shorter list is a prefix of a longer one for the same seed.
    """
    if workload not in _MAKERS:
        raise ValueError("unknown workload %r" % workload)
    rng = random.Random("%s:%d" % (workload, seed))
    make = _MAKERS[workload]
    return [make(rng, index) for index in range(length)]


def smallest(workload):
    """The workload's smallest valid config, for the fresh-interpreter set-up probe."""
    if workload == "certify":
        return "certify", {"family": dict(POWER), "deltas": ACCEPT_LADDER[:4],
                           "samples": CERTIFY_SAMPLES, "seed": 0}
    if workload == "converge":
        return "solve", {"family": dict(POWER), "stress": [0.5, 0.25, -0.125, 0.0, 0.0, 0.0],
                         "delta": ACCEPT_LADDER[0]}
    return "energy", {"family": dict(POWER), "delta": ACCEPT_LADDER[0],
                      "samples": 1, "seed": 0}
