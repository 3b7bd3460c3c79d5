import hashlib
import json
import re

import pytest

from smtorus import cli, straighten
from smtorus.cli import main


def run(tmp_path, *argv):
    out = tmp_path / "report.json"
    code = main(list(argv) + ["--out", str(out)])
    return code, json.loads(out.read_text())


# sha256 of the seed-0 reports, pinned so that refactors keep them byte-identical
REPORT_SHA256 = {
    "spin8": "79a1bffee2e129883485e93241bc7b5765ef10c3dc307821a843e6b9bbb3df54",
    "spin8n --n 2": "859b376925d6664d13ad67ad572ce838bb99462db59833fa9c787873ace47348",
    "spin8n --n 3": "e0aea75b804208c9e40f82a34d74c11b54f28663d0bfc1386465eef1e0f05b0e",
    "spin8n --n 4": "09a77ba757e40de375088119790112a1756fdf5cf74a7971c1956f6679e13a69",
    "p-alpha1": "7d5593ae11ce59f62a736c6a248e7cc185fbfeb3e65cf0e1de3f512807c53fe8",
    "sp": "2c14f09e33aa75637951de7bae1efb24e4b6fc80e0b1eee271e804634f676e01",
    "spin8 text": "413dac25a1ded66026d9317e1fb5f7dd07137878216319a611c5c2e40985c5a3",
    "enumerate": "5aa14a1fc1027ff221983e4dcc825e9bcce8daf96b76409f16fb9fd0c7caab0d",
    "straighten": "b8df5ef43341ed74317b820ad2d5208d562dd5882f26928e50ad05b8f16da9c3",
    "hilbert": "861dab2e30cf1636e4e15d6021775a90c121a81975da6ed6bbce573157850662",
    "hilbert csv": "2db69cc45a1b65ce0a006e2f9a54b4c80a79c9960c3595b00ec8f3ef470317c2",
    "check-generation": "ed788f130ce32eef7e9fe9881564cfe59c1c34def18a1e15001288420d24c391",
    "check-generation fails": "1d3335ad5835dfb0e915ea9e08fcbb4888b5f4652a4bd161bf8b5eab011cee37",
    "relations": "31fa2f5c55b1c41619dece37eedb8cf51074043c44ac51f207e27a0bf5432a0b",
    "diamond": "ddb0c1edfca5189f4858457cc35eee4812640ff9591c0bdcddba11b3d90e3b41",
    "verify-pfaffian": "b6ab984f3fab4543faf99b43163a329ed24827960f3b5eb7ad6e1f804000fb88",
}


def report_sha256(tmp_path, name="report.json"):
    return hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()


def test_enumerate(tmp_path):
    code, rep = run(tmp_path, "enumerate", "--n", "4", "--w", "5,6,7,8", "--degree", "1")
    assert code == 0
    assert rep["results"]["count"] == 3
    assert report_sha256(tmp_path) == REPORT_SHA256["enumerate"]


def test_enumerate_omega_1(tmp_path):
    code, rep = run(
        tmp_path, "enumerate", "--shape", "omega-1", "--group-type", "C", "--n", "2",
        "--degree", "1",
    )
    assert code == 0 and rep["results"]["count"] == 2


def test_straighten(tmp_path):
    code, rep = run(tmp_path, "straighten", "--n", "4", "--rows", "1,4,6,7;2,3,5,8")
    assert code == 0
    exp = rep["results"]["expansion"]
    assert [term["coeff"] for term in exp] == ["1", "-1", "1"]
    assert report_sha256(tmp_path) == REPORT_SHA256["straighten"]


def test_hilbert_json_and_identification(tmp_path):
    code, rep = run(tmp_path, "hilbert", "--n", "4", "--w", "5,6,7,8", "--max-degree", "3")
    assert code == 0
    assert rep["results"]["hilbert"] == [1, 3, 6, 10]
    assert rep["results"]["identified"] == {"m": 2, "e": 1}
    assert report_sha256(tmp_path) == REPORT_SHA256["hilbert"]


def test_hilbert_csv(tmp_path):
    out = tmp_path / "h.csv"
    code = main([
        "hilbert", "--n", "4", "--w", "3,4,7,8", "--max-degree", "3",
        "--format", "csv", "--out", str(out),
    ])
    assert code == 0
    assert out.read_text() == "degree,dimension\n0,1\n1,2\n2,3\n3,4\n"
    assert report_sha256(tmp_path, "h.csv") == REPORT_SHA256["hilbert csv"]


def test_check_generation_exit_codes(tmp_path):
    code, rep = run(
        tmp_path, "check-generation", "--n", "4", "--w", "5,6,7,8", "--max-gen-degree", "1",
    )
    assert code == 0 and rep["ok"]
    assert report_sha256(tmp_path) == REPORT_SHA256["check-generation"]
    code, rep = run(
        tmp_path, "check-generation", "--n", "8", "--w", "2,5,9,10,11,13,14,16",
        "--max-gen-degree", "1", "--max-degree", "2",
    )
    assert code == 1 and not rep["ok"]
    assert report_sha256(tmp_path) == REPORT_SHA256["check-generation fails"]


def test_relations(tmp_path):
    code, rep = run(tmp_path, "relations", "--n", "4", "--w", "3,4,7,8", "--degree", "2")
    assert code == 0
    assert rep["results"]["dimension"] == 0
    assert report_sha256(tmp_path) == REPORT_SHA256["relations"]


def test_diamond_named_system(tmp_path):
    code, rep = run(tmp_path, "diamond", "--system", "veronese-p2")
    assert code == 0
    assert rep["results"]["confluent"]
    assert rep["results"]["normal_form_counts"] == [1, 6, 15, 28, 45]
    assert rep["results"]["identified"] == [2, 2]
    assert report_sha256(tmp_path) == REPORT_SHA256["diamond"]


def test_diamond_from_file(tmp_path):
    path = tmp_path / "sys.txt"
    path.write_text("vars a b c\na c -> b b\n")
    code, rep = run(tmp_path, "diamond", "--system", str(path))
    assert code == 0 and rep["results"]["confluent"]


def test_diamond_broken_system_fails(tmp_path):
    path = tmp_path / "broken.txt"
    path.write_text("a b -> c c\na c -> b b\n")
    out = tmp_path / "report.json"
    code = main(["diamond", "--system", str(path), "--out", str(out)])
    assert code == 1
    assert not json.loads(out.read_text())["results"]["confluent"]


def test_verify_pfaffian(tmp_path):
    code, rep = run(tmp_path, "verify-pfaffian", "--n", "5", "--trials", "3")
    assert code == 0 and rep["ok"]
    assert report_sha256(tmp_path) == REPORT_SHA256["verify-pfaffian"]


def test_reproduce_spin8(tmp_path):
    code, rep = run(tmp_path, "reproduce", "spin8")
    assert code == 0 and rep["ok"]
    assert all(c["ok"] for c in rep["claims"])
    assert "descent" in rep
    assert report_sha256(tmp_path) == REPORT_SHA256["spin8"]


def test_reproduce_spin8_text(tmp_path):
    code = main(["reproduce", "spin8", "--format", "text", "--out", str(tmp_path / "spin8.txt")])
    assert code == 0
    assert report_sha256(tmp_path, "spin8.txt") == REPORT_SHA256["spin8 text"]


def test_reproduce_p_alpha1(tmp_path):
    code, rep = run(tmp_path, "reproduce", "p-alpha1")
    assert code == 0 and rep["ok"]
    assert set(rep["results"]) == {str(n) for n in range(4, 9)}
    assert report_sha256(tmp_path) == REPORT_SHA256["p-alpha1"]


def test_reproduce_sp(tmp_path):
    code, rep = run(tmp_path, "reproduce", "sp")
    assert code == 0 and rep["ok"]
    assert set(rep["results"]) == {str(n) for n in range(2, 9)}
    assert report_sha256(tmp_path) == REPORT_SHA256["sp"]


def test_reports_are_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for out in (a, b):
        main(["hilbert", "--n", "4", "--w", "5,6,7,8", "--seed", "7", "--out", str(out)])
    assert a.read_bytes() == b.read_bytes()


def test_reports_do_not_depend_on_the_order_of_presets(tmp_path, monkeypatch):
    """Each order starts from empty caches; the second preset then reuses what the first filled."""
    presets = [["reproduce", "spin8"], ["reproduce", "spin8n", "--n", "2"]]
    reports = []
    for order in (presets, presets[::-1]):
        monkeypatch.setattr(straighten, "_PAIR_MEMO", {})
        monkeypatch.setattr(straighten, "_PRODUCT_MEMO", {})
        monkeypatch.setattr(straighten, "_INTERP_CACHE", {})
        got = {}
        for argv in order:
            out = tmp_path / "report.json"
            assert main(argv + ["--out", str(out)]) == 0
            got[" ".join(argv[1:])] = hashlib.sha256(out.read_bytes()).hexdigest()
        reports.append(got)
    assert reports[0] == reports[1] == {name: REPORT_SHA256[name] for name in got}


@pytest.mark.parametrize("preset", ["spin8", "spin8n --n 2"])
def test_reports_do_not_depend_on_the_seed(tmp_path, preset):
    """The seed only lands in the config: written back as 0, the report is the pinned one."""
    out = tmp_path / "report.json"
    assert main(["reproduce", *preset.split(), "--seed", "5", "--out", str(out)]) == 0
    text, count = re.subn(r'^(\s*"seed": )5$', r"\g<1>0", out.read_text(), flags=re.M)
    assert count == 1
    assert hashlib.sha256(text.encode()).hexdigest() == REPORT_SHA256[preset]


def test_text_format(tmp_path, capsys):
    code = main(["hilbert", "--n", "4", "--w", "2,4,6,8", "--format", "text"])
    assert code == 0
    text = capsys.readouterr().out
    assert "command: hilbert" in text and "ok: True" in text


def test_env_output_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("SMTORUS_OUT", str(tmp_path))
    code = main(["hilbert", "--n", "4", "--w", "2,4,6,8"])
    assert code == 0
    assert (tmp_path / "hilbert.json").exists()


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        main(["hilbert"])  # missing --n
    assert exc.value.code == 2


def test_csv_outside_hilbert_is_rejected_before_computing(monkeypatch, capsys):
    monkeypatch.setitem(cli.PRESETS, "spin8", lambda args: pytest.fail("preset ran"))
    with pytest.raises(SystemExit) as exc:
        main(["reproduce", "spin8", "--format", "csv"])
    assert exc.value.code == 2
    assert "--format" in capsys.readouterr().err


def test_unknown_system_exits_2(capsys):
    assert main(["diamond", "--system", "nosuch"]) == 2
    assert "unknown system 'nosuch'" in capsys.readouterr().err


def test_reproduce_spin8n(tmp_path):
    code, rep = run(tmp_path, "reproduce", "spin8n", "--n", "2")
    assert code == 0 and rep["ok"]
    assert all(c["ok"] for c in rep["claims"])
    assert "scope_note" in rep
    assert set(rep["diamond"]) == {"veronese-p1", "veronese-p2", "veronese-p3"}
    assert report_sha256(tmp_path) == REPORT_SHA256["spin8n --n 2"]


def test_reproduce_spin8n_rank12(tmp_path):
    code, rep = run(tmp_path, "reproduce", "spin8n", "--n", "3")
    assert code == 0 and rep["ok"]
    assert all(c["ok"] for c in rep["claims"])
    assert report_sha256(tmp_path) == REPORT_SHA256["spin8n --n 3"]


def test_reproduce_spin8n_rank16(tmp_path):
    code, rep = run(tmp_path, "reproduce", "spin8n", "--n", "4")
    assert code == 0 and rep["ok"]
    assert all(c["ok"] for c in rep["claims"])
    assert report_sha256(tmp_path) == REPORT_SHA256["spin8n --n 4"]


def test_invalid_values_exit_2(capsys):
    assert main(["enumerate", "--n", "4", "--w", "1,2,3,5"]) == 2
    assert "smtorus:" in capsys.readouterr().err
    assert main(["straighten", "--n", "4", "--rows", "1,2,3,5;1,2,3,4"]) == 2
    assert main(["relations", "--n", "4", "--w", "5,6,7,8", "--degree", "1"]) == 2


def test_route_disagreement_exits_1(tmp_path, monkeypatch, capsys):
    """Rewriting that leaves the enumerated basis is a failed run, not a usage error."""
    real = straighten.straighten_rows

    def skewed(rows, n, **kwargs):
        exp = dict(real(rows, n, **kwargs))
        key = next(iter(exp))
        exp[key + key] = 1  # twice the degree: in no basis of the product's degree
        return exp

    monkeypatch.setattr(straighten, "straighten_rows", skewed)
    # a memoized product would skip the skewed rewriting
    monkeypatch.setattr(straighten, "_PRODUCT_MEMO", {})
    out = tmp_path / "report.json"
    code = main([
        "check-generation", "--n", "4", "--w", "5,6,7,8", "--max-gen-degree", "1",
        "--out", str(out),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert "BasisMismatchError" in err and "outside the basis" in err
    assert not out.exists()


def test_unsolved_content_class_exits_1(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(straighten, "_candidate_rewrites", lambda pair, n, w=None: iter(()))
    monkeypatch.setattr(straighten.linalg, "integer_solution", lambda equations, k, width: None)
    monkeypatch.setattr(straighten, "_PAIR_MEMO", {})
    out = tmp_path / "report.json"
    code = main(["straighten", "--n", "4", "--rows", "1,4,6,7;2,3,5,8", "--out", str(out)])
    assert code == 1
    assert "ContentClassError" in capsys.readouterr().err
    assert not out.exists()


def test_exhausted_fuel_exits_1(tmp_path, monkeypatch, capsys):
    real = straighten.straighten_rows

    def no_fuel(rows, n, **kwargs):
        return real(rows, n, fuel=0, **kwargs)

    monkeypatch.setattr(cli, "straighten_rows", no_fuel)
    out = tmp_path / "report.json"
    code = main(["straighten", "--n", "4", "--rows", "1,4,6,7;2,3,5,8", "--out", str(out)])
    assert code == 1
    assert "FuelExhaustedError" in capsys.readouterr().err
    assert not out.exists()
