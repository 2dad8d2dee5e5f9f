import json

import pytest

from scatpoly import cli, fields, linsets
from scatpoly.scattered import build_psi


def _run(capsys, argv):
    rc = cli.main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def _run_json(capsys, argv):
    rc, out, err = _run(capsys, argv)
    assert rc == 0, err
    return json.loads(out)


def test_verify_scattered_negative(capsys):
    obj = _run_json(capsys, ["verify-scattered", "--p", "3", "--t", "4",
                             "--k", "2"])
    assert obj["schema"] == 1
    assert obj["field"] == {"p": 3, "e": 1, "t": 4, "q": 3, "n": 8,
                            "modulus": [2, 0, 1, 0, 0, 0, 0, 0, 1]}
    assert obj["predicate"] is False
    assert obj["fibers"]["scattered"] is False
    assert obj["ranks"]["scattered"] is False
    assert obj["agree"] is True
    assert obj["scaling_witness"] is not None
    assert set(obj["scaling_witness"]) == {"rho", "x"}


def test_verify_scattered_positive(capsys):
    obj = _run_json(capsys, ["verify-scattered", "--p", "5", "--t", "3",
                             "--k", "1"])
    assert obj["predicate"] is True and obj["agree"] is True
    assert obj["fibers"]["n_values"] == (5**6 - 1) // 4
    assert "scaling_witness" not in obj


def test_output_bytes_deterministic(capsys, tmp_path):
    argv = ["verify-scattered", "--p", "3", "--t", "3", "--k", "1"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.main(argv + ["--out", str(a)]) == 0
    assert cli.main(argv + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
    # file output matches stdout output byte for byte
    rc, out, _ = _run(capsys, argv)
    assert rc == 0 and out.encode() == a.read_bytes()


def test_code_report_json(capsys):
    obj = _run_json(capsys, ["code-report", "--p", "3", "--t", "3", "--k", "1"])
    assert obj["parameters"] == {"rows": 6, "cols": 6, "q": 3, "d": 3}
    assert obj["size"] == 3**12
    assert obj["mrd"] is False and obj["degenerate"] is False
    assert sum(obj["rank_distribution"]["counts"]) == 3**12
    assert obj["idealisers"]["left"]["dim_q"] == 6
    assert obj["idealisers"]["left"]["is_field"] is True
    assert obj["idealisers"]["right"]["dim_q"] == 2


def test_code_report_csv(capsys):
    rc, out, _ = _run(capsys, ["code-report", "--p", "3", "--t", "3",
                               "--k", "1", "--format", "csv"])
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0] == "rank,count"
    assert len(lines) == 8  # header + ranks 0..6
    counts = [int(line.split(",")[1]) for line in lines[1:]]
    assert sum(counts) == 3**12 and counts[0] == 1


def test_csv_rejected_elsewhere(capsys):
    rc, _, err = _run(capsys, ["verify-scattered", "--p", "3", "--t", "3",
                               "--k", "1", "--format", "csv"])
    assert rc == 2
    assert "csv output is only available" in err


def test_equiv_adjoint_pair(capsys):
    obj = _run_json(capsys, ["equiv", "--p", "3", "--t", "4",
                             "--left", "psi:1", "--right", "psi:7"])
    assert obj["verified"] is True
    assert obj["certificate"]["matrix"] == [[0, 1], [1, 0]]


def test_equiv_family_targets(capsys):
    obj = _run_json(capsys, ["equiv", "--p", "3", "--t", "3",
                             "--left", "u1:5", "--right", "pseudoregulus"])
    assert obj["family_member"] is True
    obj = _run_json(capsys, ["equiv", "--p", "3", "--t", "3",
                             "--left", "psi:1", "--right", "pseudoregulus"])
    assert obj["family_member"] is False


def test_equiv_lp_type_exact_at_n8(capsys):
    # psi_1 is new at n = 8: no u2(s, delta) is equivalent to it, and the
    # sweep covers every valid delta through one per coset
    obj = _run_json(capsys, ["equiv", "--p", "3", "--t", "4",
                             "--left", "psi:1", "--right", "lp-type"])
    assert obj["family_member"] is False


def test_equiv_certificate_matches_library_on_tabled_field(capsys):
    obj = _run_json(capsys, ["equiv", "--p", "3", "--t", "4", "--left", "psi:1",
                             "--right", "psi:3"])
    ctx = fields.build_field(3, 1, 4)
    assert ctx.has_tables
    cert = linsets.subspace_equivalent(build_psi(ctx, 1), build_psi(ctx, 3))
    assert obj["certificate"] == cert.to_json() and obj["verified"] is True


def test_equiv_builds_no_tables(capsys):
    # psi_7 is psi_1's inverse; tables at (3, 8) would take 1.4 GB
    obj = _run_json(capsys, ["equiv", "--p", "3", "--t", "8", "--left", "psi:1",
                             "--right", "psi:7"])
    assert obj["verified"] is True
    built = [c for key, c in fields._CTX_CACHE.items() if key[:3] == (3, 1, 8)]
    assert built and not any(c.has_tables for c in built)


def test_equiv_budget_option_rejected(capsys):
    # equivalence is exact linear algebra, so there is no budget to set
    with pytest.raises(SystemExit) as ex:
        cli.main(["equiv", "--p", "3", "--t", "4", "--left", "psi:1",
                  "--right", "psi:7", "--budget", "10"])
    assert ex.value.code == 2
    assert "--budget" in capsys.readouterr().err


def test_bad_inputs_exit_code(capsys):
    cases = [
        ["verify-scattered", "--p", "9", "--t", "3", "--k", "1"],   # p not prime
        ["verify-scattered", "--p", "2", "--t", "3", "--k", "1"],   # even p
        ["verify-scattered", "--p", "3", "--t", "2", "--k", "1"],   # t too small
        ["verify-scattered", "--p", "3", "--t", "3", "--k", "6"],   # k = 0 mod n
        ["equiv", "--p", "3", "--t", "3", "--left", "junk", "--right", "psi:1"],
        ["equiv", "--p", "3", "--t", "3", "--left", "u2:1,1", "--right", "psi:1"],
        ["equiv", "--p", "3", "--t", "3", "--left", "pseudoregulus",
         "--right", "psi:1"],
        ["geometry", "--p", "3", "--t", "4", "--k", "2"],           # gcd(k, n) > 1
    ]
    for argv in cases:
        rc, _, err = _run(capsys, argv)
        assert rc == 2, argv
        assert err.startswith("invalid config:"), argv


def test_field_above_table_limit(capsys):
    # 191^6 elements: whole-field passes are refused with exit 2, while
    # equivalence needs no tables and answers
    for cmd in ("verify-scattered", "geometry", "code-report"):
        rc, out, err = _run(capsys, [cmd, "--p", "191", "--t", "3", "--k", "1"])
        assert rc == 2 and out == "", cmd
        assert err.startswith("invalid config:") and "Traceback" not in err, cmd
        assert len(err.splitlines()) == 1, cmd
    rc, out, err = _run(capsys, ["equiv", "--p", "191", "--t", "3",
                                 "--left", "psi:1", "--right", "lp-type"])
    assert rc == 2 and err.startswith("invalid config:") and "Traceback" not in err
    obj = _run_json(capsys, ["equiv", "--p", "191", "--t", "3",
                             "--left", "psi:1", "--right", "psi:5"])
    assert obj["certificate"] is not None and obj["verified"] is True


def test_field_above_int64_indices(capsys):
    # 1451^6 > 2^63: refused with exit 2 before the modulus search
    rc, out, err = _run(capsys, ["equiv", "--p", "1451", "--t", "3",
                                 "--left", "psi:1", "--right", "psi:5"])
    assert rc == 2 and out == ""
    assert err.startswith("invalid config:") and len(err.splitlines()) == 1


def test_modulus_file(capsys, tmp_path):
    default = _run_json(capsys, ["verify-scattered", "--p", "3", "--t", "3",
                                 "--k", "1"])
    path = tmp_path / "mod.txt"
    path.write_text("2, 1, 0, 0, 0, 0, 1\n")
    explicit = _run_json(capsys, ["verify-scattered", "--p", "3", "--t", "3",
                                  "--k", "1", "--modulus-file", str(path)])
    assert explicit == default
    missing = tmp_path / "nope.txt"
    rc, _, err = _run(capsys, ["verify-scattered", "--p", "3", "--t", "3",
                               "--k", "1", "--modulus-file", str(missing)])
    assert rc == 2 and "invalid config:" in err


def test_geometry_report(capsys):
    obj = _run_json(capsys, ["geometry", "--p", "3", "--t", "4", "--k", "1"])
    assert obj["gamma"]["projdim"] == 5
    assert obj["meets_orbit"] is False
    assert obj["self_intersection_dims"] == [3, 1]
    assert obj["intn"] == {"1": 3, "7": 3}
    assert obj["projection_matches"] is True
    assert obj["pseudoregulus"] is False


def test_acceptance_text_mode(capsys):
    rc, out, err = _run(capsys, ["acceptance", "--only", "geometry"])
    assert rc == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("PASS  geometry")
    assert lines[-1] == "passed 1/1 criteria"


def test_acceptance_json_mode(capsys):
    rc, out, _ = _run(capsys, ["acceptance", "--only", "size",
                               "--format", "json"])
    assert rc == 0
    obj = json.loads(out)
    assert obj["schema"] == 1 and obj["total"] == 1 and obj["passed"] == 1
    entry = obj["criteria"][0]
    assert entry["slug"] == "size" and entry["ok"] is True
    assert "seconds" not in entry


def test_acceptance_rejects_bad_field_injection(capsys):
    # acceptance takes no field flags, valid or not, and no unknown slugs:
    # the argument parser itself rejects them
    for argv in (["--only", "size", "--p", "2"], ["--only", "size", "--p", "3"],
                 ["--only", "nosuch"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(["acceptance"] + argv)
        assert exc.value.code == 2, argv
    capsys.readouterr()


def test_acceptance_text_to_file(capsys, tmp_path):
    path = tmp_path / "report.txt"
    rc, out, _ = _run(capsys, ["acceptance", "--only", "size",
                               "--out", str(path)])
    assert rc == 0
    text = path.read_text()
    assert "PASS  size" in text and "passed 1/1 criteria" in text


def test_parser_keeps_no_state_between_calls(capsys):
    # the parser is built once per process: a csv run must not leave its
    # format to the next call
    argv = ["code-report", "--p", "3", "--t", "3", "--k", "1"]
    rc, out, _ = _run(capsys, argv + ["--format", "csv"])
    assert rc == 0 and out.startswith("rank,count")
    obj = _run_json(capsys, argv)
    assert obj["rank_distribution"]["total"] == 3**12
