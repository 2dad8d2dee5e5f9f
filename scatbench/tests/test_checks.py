"""Each check passes the program's real output and rejects a corrupted one."""

import copy
import json

import pytest

import checks
from ref import RefField, psi_coeffs
from scatpoly import build_field, cli, codes, linsets, scattered
from scatpoly.linpoly import LinPoly


def ref_for(p, e, t):
    ctx = build_field(p, e, t)
    return ctx, RefField(p, e, t, ctx.modulus)


@pytest.fixture(scope="module")
def f53():
    return ref_for(5, 1, 3)


@pytest.fixture(scope="module")
def f34():
    return ref_for(3, 1, 4)


def scatter_outputs(ctx, F, k):
    f = LinPoly(ctx, psi_coeffs(F, k))
    return f.coeffs, {"fibers": scattered.is_scattered_fibers(f).to_json(),
                      "ranks": scattered.is_scattered_ranks(f).to_json(),
                      "witness": scattered.nonscattered_witness_search(f)}


def test_scatter_accepts_real_verdicts(f53):
    ctx, F = f53
    for k in (1, 2):
        coeffs, out = scatter_outputs(ctx, F, k)
        assert checks.check_scatter(F, k, coeffs, out) == []


def test_scatter_rejects_a_changed_witness_coordinate(f53):
    ctx, F = f53
    coeffs, out = scatter_outputs(ctx, F, 2)
    for method in ("fibers", "ranks"):
        y, z = out[method]["witness"]
        # z/y in GF(q), a zero entry, an entry outside the field
        for pair in ([y, F.mul(2, y)], [0, z], [y, F.order]):
            bad = copy.deepcopy(out)
            bad[method]["witness"] = pair
            assert checks.check_scatter(F, 2, coeffs, bad)
    rho, x = out["witness"]
    for pair in ((rho, 0), (2, x), (rho, F.order)):
        assert checks.check_scatter(F, 2, coeffs, dict(out, witness=pair))
    bad = copy.deepcopy(out)
    bad["ranks"]["bad_shift"] += 1
    assert checks.check_scatter(F, 2, coeffs, bad)


def test_scatter_rejects_wrong_verdicts_and_counts(f53):
    ctx, F = f53
    coeffs, out = scatter_outputs(ctx, F, 1)
    bad = copy.deepcopy(out)
    bad["fibers"]["n_values"] -= 1
    assert checks.check_scatter(F, 1, coeffs, bad)
    coeffs, out = scatter_outputs(ctx, F, 2)
    assert checks.check_scatter(F, 2, coeffs, dict(out, witness=None))
    bad = copy.deepcopy(out)
    bad["fibers"].update(scattered=True, witness=None)
    assert checks.check_scatter(F, 2, coeffs, bad)


def test_baer_rejects_an_off_by_one_size():
    ctx, F = ref_for(5, 1, 3)
    rep = scattered.baer_partition_check(ctx, 1).to_json()
    assert checks.check_baer(F, rep) == []
    assert checks.check_baer(F, dict(rep, intersection_size=rep["intersection_size"] + 1))


def cli_json(tmp_path, argv):
    out = tmp_path / "out.json"
    assert cli.main(argv + ["--out", str(out)]) == 0
    return json.loads(out.read_text())


def test_code_report_rejects_an_off_by_one_rank_count(f34, tmp_path):
    ctx, F = f34
    for k in (1, 2):
        rep = cli_json(tmp_path, ["code-report", "--p", "3", "--t", "4", "--k", str(k)])
        assert checks.check_code_report(F, k, rep) == []
        n = F.n
        bad = copy.deepcopy(rep)
        bad["rank_distribution"]["counts"][n - 1] -= 1
        bad["rank_distribution"]["counts"][n] += 1
        assert checks.check_code_report(F, k, bad)
        bad = copy.deepcopy(rep)
        bad["parameters"]["d"] += 1
        assert checks.check_code_report(F, k, bad)


def test_idealiser_rejects_a_perturbed_basis(f53):
    ctx, F = f53
    code = codes.build_code(LinPoly(ctx, psi_coeffs(F, 1)))
    for side in ("left", "right"):
        rep = codes.idealiser(code, side).to_json()
        assert checks.check_idealiser(F, psi_coeffs(F, 1), rep, side, True) == []
        bad = copy.deepcopy(rep)
        bad["basis"][-1][1] = F.add(bad["basis"][-1][1], 1)
        assert checks.check_idealiser(F, psi_coeffs(F, 1), bad, side, True)
        bad = copy.deepcopy(rep)
        bad["basis"].pop()
        bad["dim_p"] -= 1
        assert checks.check_idealiser(F, psi_coeffs(F, 1), bad, side, True)


def test_geometry_rejects_a_wrong_intersection_number(f34, tmp_path):
    ctx, F = f34
    rep = cli_json(tmp_path, ["geometry", "--p", "3", "--t", "4", "--k", "3"])
    assert checks.check_geometry(F, 3, rep) == []
    bad = copy.deepcopy(rep)
    bad["intn"]["1"] += 1
    assert checks.check_geometry(F, 3, bad)
    bad = copy.deepcopy(rep)
    bad["gamma"]["basis"][0][1] = F.add(bad["gamma"]["basis"][0][1], 1)
    assert checks.check_geometry(F, 3, bad)


def test_equiv_rejects_a_perturbed_certificate_entry(f34):
    ctx, F = f34
    f, g = psi_coeffs(F, 1), psi_coeffs(F, 3)
    cert = linsets.subspace_equivalent(LinPoly(ctx, f), LinPoly(ctx, g)).to_json()
    assert checks.check_equiv(F, f, g, cert, "equivalent") == []
    for i in range(2):
        for j in range(2):
            bad = copy.deepcopy(cert)
            bad["matrix"][i][j] = F.add(bad["matrix"][i][j], 1)
            assert checks.check_equiv(F, f, g, bad, "equivalent")
    assert checks.check_equiv(F, f, g, None, "equivalent")
    assert checks.check_equiv(F, f, g, cert, "theorem")


def test_equiv_none_needs_a_differing_invariant():
    ctx, F = ref_for(3, 1, 3)
    f = psi_coeffs(F, 1)  # not scattered at q = 3, t = 3
    g = [F.mul(2, c) for c in f]
    u1 = [0, 1, 0, 0, 0, 0]  # x^q, scattered
    assert checks.check_equiv(F, f, u1, None, "invariant") == []
    assert checks.check_equiv(F, f, g, None, "invariant")
