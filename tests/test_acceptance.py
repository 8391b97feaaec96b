"""Acceptance gate: every guaranteed property, exact, within its time budget.

Each test runs one named suite at the canonical seed and prints a single
pass/fail line (visible with pytest -s, or via `takiff suite --human`).
All checks inside the suites are exact equalities over the rationals; there
are no tolerances to tune. Budgets are wall-clock seconds on modest hardware
and the real margins are large. Each report must also serialize to the
recorded bytes, so a change that keeps the suites passing but alters what
they check or find still fails here.
"""

import hashlib
import json
import time

import pytest

from takiff import jsonio, suites
from takiff.decompose import Decomposition, takiff_decompose
from takiff.suites import SUITES, RunConfig

SEED = RunConfig().seed

# sha256 of jsonio.dumps(report.to_json()) for each suite at SEED
REPORT_SHA256 = {
    "jacobi": "6e0af1bdf22f7328904e6add7f62dae29f240fff07514d4ede981e2aff5a0fb1",
    "homomorphism": "34a004b82efaec1014e2b07202472b17a2624ace1f6387dbd84ec8e04c619c8b",
    "invariance": "beaeba69b42db269e608a57ece348c4c609add47f2f22aa0870bae11d1e461be",
    "linearity": "3ce92484c644deda5571e74b85ec43f45451cdd16a26d617b17cf198932fdb5c",
    "faa-di-bruno": "4b4adbb5ad1d6adf47bbdbe6848aaf1c463ebbc0eeddeab4e759e44c28ae7c1f",
    "cylindrical": "b4ae1b639fe6dfdcf1b06d03eeaceb68049617f35346dc8337e40ac7f47cd042",
    "base-solver": "214bd6eb8ef7679bf5e74090f77f2a0e834006d6b771a615f1f3980cce1d3922",
    "roundtrip": "07aefca1de32e4458acd73f4952547dc114d9e0569687cfbf910f7c4aca22061",
    "refusal": "3dd022b5bd959faefea224851c21ef8fc2e3056f2e95a417a22b39463df995ad",
    "flip": "5945f2f52112ced8bdd0ceb0c0e01b600158873deb92cf36ec65c6ccbf08f764",
    "quadratic-lift": "7cffea5d03e4efea39cbb95b7b1f295405cbacc7190fc7ba25589adb838498ee",
    "transport": "9fb5637deec2d8c8b3866361331b0474437f1c8bb9ef44305ffb43b1283c6a6c",
}


def run_criterion(name, budget=None, min_checks=1):
    start = time.perf_counter()
    report = SUITES[name](SEED)
    elapsed = time.perf_counter() - start
    status = "PASS" if report.passed else "FAIL"
    limit = f", budget {budget:.0f}s" if budget is not None else ""
    print(f"{status} {name}: {report.checks} exact checks in {elapsed:.2f}s{limit}")
    assert report.passed, (name, report.details, report.witnesses)
    assert report.checks >= min_checks
    if budget is not None:
        assert elapsed < budget
    text = jsonio.dumps(report.to_json())
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == REPORT_SHA256[name], text
    return report


def test_truncated_bracket_laws():
    # antisymmetry and Jacobi for g_m over the whole algebra/level grid
    run_criterion("jacobi", budget=10.0, min_checks=1000)


def test_lifted_representation_homomorphism():
    # rho_m([X, Y]) = [rho_m(X), rho_m(Y)] on every basis pair of the grid
    run_criterion("homomorphism", budget=20.0, min_checks=100)


def test_lifted_invariants_annihilated():
    # every Killing field of g_m kills every lifted curve coefficient
    run_criterion("invariance", budget=30.0, min_checks=100)


def test_curve_coefficient_linear_structure():
    # coefficient k uses only f_0..f_k and, for k >= 1, is affine in f_k
    # with linear part the pairing of dphi(f_0) against f_k
    run_criterion("linearity", min_checks=50)


def test_directional_derivative_cross_check():
    # 50 seeded polynomials: t-expansion equals the weighted-partition sum
    run_criterion("faa-di-bruno", budget=60.0, min_checks=50)


def test_cylindrical_invariance_agreement():
    # 50 seeded top-block-free functions: level-m and level-(m-1)
    # invariance answers coincide
    run_criterion("cylindrical", min_checks=50)


def test_base_solver_against_oracle():
    # 100 seeded antisymmetric fields reconstructed exactly, then an
    # independent linear-system oracle confirms the homotopy solutions
    run_criterion("base-solver", budget=60.0, min_checks=120)


def test_decomposition_roundtrip():
    # 50 seeded Killing combinations: decompose, then verify the
    # reconstruction identity term by term
    run_criterion("roundtrip", budget=120.0, min_checks=50)


def test_refusal_with_witnesses():
    # radial fields and seeded non-annihilating fields are refused,
    # each with a nonzero residual witness
    run_criterion("refusal", min_checks=23)


def test_flip_conjugation_identity():
    # block reversal conjugates the lifted coadjoint action into the
    # coadjoint action of g_m itself
    run_criterion("flip", min_checks=6)


def test_lifted_bilinear_form_properties():
    # the level-paired form is symmetric, nondegenerate and g_m-invariant
    run_criterion("quadratic-lift", min_checks=18)


def test_transport_under_change_of_basis():
    # seeded invertible theta: both the freshly decomposed and the
    # transported coefficients verify under the conjugated action
    run_criterion("transport", min_checks=20)


# A failing suite reports its witnesses and still serializes.

def run_broken(name, monkeypatch, attr, replacement):
    monkeypatch.setattr(suites, attr, replacement)
    report = SUITES[name](SEED)
    assert report.passed is False
    assert report.witnesses
    return json.loads(jsonio.dumps(report.to_json()))["witnesses"]


def wrong_b0(lifted, solver, field):
    dec = takiff_decompose(lifted, solver, field)
    first = dec.coefficients[0]
    return Decomposition(dec.ring, ((first[0] + 1,) + first[1:],) + dec.coefficients[1:])


def reported_not_annihilating(field, generators):
    return False, field.components[0] + 1


@pytest.mark.parametrize("attr, replacement, kind", [
    ("takiff_decompose", wrong_b0, "reconstruction-residual"),
    ("annihilates_invariants", reported_not_annihilating, "manufactured-not-annihilating"),
])
def test_a_failing_roundtrip_reports_its_witnesses(monkeypatch, attr, replacement, kind):
    witnesses = run_broken("roundtrip", monkeypatch, attr, replacement)
    assert {w["kind"] for w in witnesses} == {kind}
    assert witnesses[0]["algebra"] == "so_n(n=2)"


def test_a_failing_refusal_suite_reports_its_witnesses(monkeypatch):
    witnesses = run_broken("refusal", monkeypatch, "takiff_decompose",
                           lambda lifted, solver, field: None)
    kinds = [w["kind"] for w in witnesses]
    assert kinds[:3] == ["radial-accepted"] * 3
    assert set(kinds[3:]) == {"non-annihilating-accepted"}
