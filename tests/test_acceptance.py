"""Acceptance gate: nine go/no-go checks over the full pipeline.

Each test prints exactly one `[PASS]`/`[FAIL]` line with its measurements
before asserting, so the verdict survives into captured logs. Criterion 6
is expected to fail: the scalar round trip cannot reach 1e-12 relative
error across the full requested stress range (the conditioning factor
1 + |aS|^p inflates the floor well past it for two of the three parameter
pairs), and the measured gap decay order is ~3, not ~1. The numbers are
printed so the failure is auditable, not hidden.
"""

import json
import math
import time

import numpy as np
import pytest

from strainlim.analysis import certify_constants, fit_order, run_convergence, run_convergence_hencky
from strainlim.cli import main
from strainlim.energy import (
    complementary_energy,
    complementary_gradient,
    conjugate_stress,
    green_stress,
    legendre_transform,
)
from strainlim.families import FamilySpec, family_leading
from strainlim.kinematics import (
    RotationSpec,
    deformation_from_green,
    deformation_from_hencky,
    density_linearization_gap,
    make_rotation,
)
from strainlim.scalar1d import oned_delta0_study, oned_forward, oned_invert
from strainlim.symtensor import SymTensor, frobenius, inner

from draws import ball

POWER = FamilySpec(kind="power_law", a=1.0, p=2.0)
RECIP = FamilySpec(kind="density_modulus_reciprocal", E0=1.0, nu=0.3, a=0.3, b=0.5, c=1.0)
DIRECT = FamilySpec(kind="density_modulus_direct", E0=1.0, nu=0.3, a=0.3, b=0.5, c=1.0)
FAMILIES = {"power_law": POWER, "reciprocal": RECIP, "direct": DIRECT}

SBAR = SymTensor(0.5, 0.25, -0.125)
AXIS = (1.0 / math.sqrt(3.0),) * 3
ROT = RotationSpec(axis=AXIS, magnitude_coefficient=1.0)
LADDER = [2.0 ** -k for k in range(6, 14)]

CERT_SAMPLES = 10000


def _verdict(num, ok, text):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {text}")
    return ok


@pytest.fixture(scope="module")
def green_studies():
    out = {}
    for name, spec in FAMILIES.items():
        t0 = time.perf_counter()
        out[name] = (run_convergence(spec, SBAR, ROT, LADDER), time.perf_counter() - t0)
    return out


@pytest.fixture(scope="module")
def hencky_studies():
    out = {}
    for name, spec in FAMILIES.items():
        t0 = time.perf_counter()
        out[name] = (
            run_convergence_hencky(spec, SBAR, ROT, LADDER),
            time.perf_counter() - t0,
        )
    return out


@pytest.fixture(scope="module")
def certifications():
    out = {}
    for name, spec in (("power_law", POWER), ("reciprocal", RECIP)):
        t0 = time.perf_counter()
        out[name] = (
            certify_constants(spec, LADDER, CERT_SAMPLES, 0),
            time.perf_counter() - t0,
        )
    return out


def test_criterion_1_green_route_quadratic(green_studies):
    parts, ok = [], True
    for name, (rep, secs) in green_studies.items():
        good = (
            not rep.failures
            and 1.9 <= rep.fitted_order_full <= 2.1
            and secs < 5.0
        )
        ok = ok and good
        parts.append(f"{name}={rep.fitted_order_full:.4f}/{secs:.2f}s")
    assert _verdict(
        1, ok, "green-route full residual order in [1.9, 2.1], <5s per family: " + " ".join(parts)
    )


def test_criterion_2_hencky_route_quadratic(hencky_studies):
    parts, ok = [], True
    for name, (rep, secs) in hencky_studies.items():
        good = (
            not rep.failures
            and 1.9 <= rep.fitted_order_full <= 2.1
            and secs < 5.0
        )
        ok = ok and good
        parts.append(f"{name}={rep.fitted_order_full:.4f}/{secs:.2f}s")
    assert _verdict(
        2, ok, "hencky-route full residual order in [1.9, 2.1], <5s per family: " + " ".join(parts)
    )


def test_criterion_3_leading_profile_agreement(green_studies):
    parts, ok = [], True
    for name in ("reciprocal", "direct"):
        rep, _ = green_studies[name]
        good = 1.9 <= rep.fitted_order_leading <= 2.1
        ok = ok and good
        parts.append(f"{name}_leading={rep.fitted_order_leading:.4f}")
    rep, _ = green_studies["power_law"]
    bit_equal = all(r.residual_leading == r.residual_full for r in rep.records)
    ok = ok and bit_equal
    parts.append(f"power_law_bit_equal={bit_equal}")
    assert _verdict(
        3, ok, "density leading-residual order in [1.9, 2.1]; power-law leading "
        "residual bit-equal to full: " + " ".join(parts)
    )


def test_criterion_4_stress_consistency(green_studies, hencky_studies):
    sn = frobenius(SBAR)
    parts, ok = [], True
    for lane, studies in (("green", green_studies), ("hencky", hencky_studies)):
        for name, (rep, _) in studies.items():
            order_ok = 0.9 <= rep.fitted_order_stress <= 1.1
            rows_ok = all(r.stress_gap <= 10.0 * r.delta * sn for r in rep.records)
            ok = ok and order_ok and rows_ok
            parts.append(f"{lane}/{name}={rep.fitted_order_stress:.4f}")
    assert _verdict(
        4, ok, "stress gap first order in [0.9, 1.1] and per-row gap <= 10 delta |S|: "
        + " ".join(parts)
    )


def test_criterion_5_certified_constants(certifications):
    cp, tp = certifications["power_law"]
    cr, tr = certifications["reciprocal"]
    recip_c0_cap = (1.0 + 4.0 * RECIP.nu) * RECIP.c / (RECIP.E0 * (1.0 - 2.0 * RECIP.a * RECIP.b))
    power_ok = (
        cp.C0_hat <= 1.0 + 1e-9
        and cp.C1_hat <= 1e-12
        and cp.D0_hat <= 2.0 + 1e-6
    )
    recip_ok = (
        cr.C0_hat <= recip_c0_cap
        and math.isfinite(cr.C3_hat)
        # per rung the largest measured leading gap is C3_hat(delta) delta^2,
        # so the global C3_hat dominating every rung is exactly the claim
        # that C3_hat delta^2 bounds the gaps
        and all(row.C3_hat <= cr.C3_hat for row in cr.rows)
    )
    time_ok = tp < 10.0 and tr < 10.0
    ok = power_ok and recip_ok and time_ok
    assert _verdict(
        5, ok,
        f"sampled constants within closed-form caps at {CERT_SAMPLES} draws/rung: "
        f"power C0={cp.C0_hat:.4f} (<=1+1e-9) C1={cp.C1_hat:.2e} (<=1e-12) "
        f"D0={cp.D0_hat:.4f} (<=2+1e-6); reciprocal C0={cr.C0_hat:.4f} "
        f"(<={recip_c0_cap:.4f}) C3={cr.C3_hat:.4f} (finite, bounds every rung); "
        f"times {tp:.1f}s/{tr:.1f}s (<10s)"
    )


def test_criterion_6_scalar_diagnostics():
    # part one: S -> E -> S round trip, 1000 points across [-1e3, 1e3],
    # relative error <= 1e-12 demanded for three (a, p) pairs
    worst = {}
    for a, p in ((1.0, 2.0), (0.5, 1.0), (2.0, 4.0)):
        spec = FamilySpec(kind="power_law", a=a, p=p)
        w = 0.0
        for s in np.linspace(-1e3, 1e3, 1000):
            back = oned_invert(spec, 1e-3, oned_forward(spec, 1e-3, float(s)))
            w = max(w, abs(back - s) / abs(s))
        worst[(a, p)] = w
    trip_ok = all(w <= 1e-12 for w in worst.values())

    # part two: decay order of |sigma - S| against delta0, demanded window
    # [0.9, 1.1]
    study = oned_delta0_study(POWER, 1e-3, np.linspace(0.01, 0.5, 100))
    slope_ok = 0.9 <= study.slope <= 1.1

    ok = trip_ok and slope_ok
    trip_txt = " ".join(f"(a={a},p={p})={w:.2e}" for (a, p), w in worst.items())
    assert _verdict(
        6, ok,
        f"scalar round trip <= 1e-12 over [-1e3, 1e3]: {trip_txt}; "
        f"gap decay order {study.slope:.3f} in [0.9, 1.1]"
    )


def test_criterion_7_energy_consistency():
    spec = FamilySpec(kind="power_law", a=1.0, p=2.0, c=3.0)
    rng = np.random.default_rng(7)
    zero = SymTensor()

    grad_worst = 0.0
    for _ in range(100):
        S = ball(rng, 0.9 * spec.c)
        grad_worst = max(
            grad_worst,
            frobenius(complementary_gradient(spec, S) - family_leading(spec, zero, S)),
        )

    fy_worst = 0.0
    for _ in range(100):
        Et = ball(rng, 0.9)
        star = conjugate_stress(spec, Et)
        fy_worst = max(
            fy_worst,
            abs(legendre_transform(spec, Et) + complementary_energy(spec, star) - inner(Et, star)),
        )

    delta = 0.01
    rt_worst = 0.0
    for _ in range(50):
        eps = ball(rng, 0.9 * delta)
        sig = green_stress(spec, delta, eps)
        rt_worst = max(rt_worst, frobenius(family_leading(spec, zero, sig) * delta - eps))

    ok = grad_worst <= 1e-6 and fy_worst <= 1e-9 and rt_worst <= 1e-8
    assert _verdict(
        7, ok,
        f"energy gradient vs profile {grad_worst:.2e} (<=1e-6), Fenchel-Young "
        f"{fy_worst:.2e} (<=1e-9), stress round trip {rt_worst:.2e} (<=1e-8)"
    )


def test_criterion_8_kinematic_fidelity():
    rng = np.random.default_rng(8)
    ident = np.eye(3)

    trip_worst = 0.0
    for _ in range(100):
        E = ball(rng, 0.3)
        axis = rng.standard_normal(3)
        axis = tuple(axis / np.linalg.norm(axis))
        R = make_rotation(RotationSpec(axis=axis, magnitude_coefficient=1.0), 0.02)
        state = deformation_from_green(E, R)
        trip_worst = max(trip_worst, frobenius(state.E - E) / max(1.0, frobenius(E)))
        H = ball(rng, 0.8)
        state = deformation_from_hencky(H, R)
        trip_worst = max(trip_worst, frobenius(state.H - H) / max(1.0, frobenius(H)))

    # quadratic collapse of both strain-measure spread and density
    # linearization error as delta0 shrinks
    direction = SymTensor(0.6, 0.25, -0.2, 0.1, 0.05, 0.0)
    direction = direction * (1.0 / frobenius(direction))
    d0s, strain_gaps, dens_gaps = [], [], []
    for t in np.geomspace(1e-5, 1e-2, 10):
        state = deformation_from_green(direction * float(t), ident)
        d0s.append(state.delta0)
        strain_gaps.append(frobenius(state.E - state.eps))
        dens_gaps.append(density_linearization_gap(state))
    strain_slope = fit_order(d0s, strain_gaps)
    dens_slope = fit_order(d0s, dens_gaps)

    ok = (
        trip_worst <= 1e-11
        and 1e-5 * 0.9 <= min(d0s) and max(d0s) <= 1e-2 * 1.1
        and 1.9 <= strain_slope <= 2.1
        and 1.9 <= dens_slope <= 2.1
    )
    assert _verdict(
        8, ok,
        f"strain round trips {trip_worst:.2e} (<=1e-11); over delta0 in "
        f"[1e-5, 1e-2]: |E - eps| order {strain_slope:.3f}, density gap order "
        f"{dens_slope:.3f} (both in [1.9, 2.1])"
    )


def test_criterion_9_run_determinism(tmp_path):
    config = {
        "family": {"kind": "power_law", "a": 1.0, "p": 2.0},
        "deltas": LADDER,
        "samples": 1000,
        "seed": 0,
    }
    cert_cfg = tmp_path / "certify.json"
    cert_cfg.write_text(json.dumps(config))
    conv_cfg = tmp_path / "converge.json"
    conv_cfg.write_text(json.dumps({
        "family": {"kind": "power_law", "a": 1.0, "p": 2.0},
        "stress": [0.5, 0.25, -0.125, 0.0, 0.0, 0.0],
        "rotation": {"axis": list(AXIS), "coefficient": 1.0},
        "deltas": LADDER,
    }))

    outs = []
    for run in ("one", "two"):
        d = tmp_path / run
        code_cert = main(["certify", "--config", str(cert_cfg), "--out", str(d)])
        code_conv = main(["converge", "--config", str(conv_cfg), "--out", str(d)])
        outs.append(
            (
                code_cert,
                code_conv,
                (d / "certify.csv").read_bytes(),
                (d / "converge.csv").read_bytes(),
            )
        )
    codes_ok = all(o[0] == 0 and o[1] == 0 for o in outs)
    byte_ok = outs[0][2] == outs[1][2] and outs[0][3] == outs[1][3]
    ok = codes_ok and byte_ok
    assert _verdict(
        9, ok,
        f"repeated runs byte-identical: certify={outs[0][2] == outs[1][2]} "
        f"converge={outs[0][3] == outs[1][3]}, exit codes 0"
    )
