"""Every module-level container that a run fills is named as a memo or a cache.

The benchmark's cold-start check (``perfbench/child.py``, ``warm_caches``)
finds process-wide state by those names only, so an unnamed one would let a
warm run pass for a cold one.
"""

import sys

from smtorus.cli import main


def _is_memo(attr):
    return "MEMO" in attr.upper() or "CACHE" in attr.upper()


def _containers():
    return {
        (name, attr): value
        for name, mod in list(sys.modules.items())
        if name == "smtorus" or name.startswith("smtorus.")
        for attr, value in vars(mod).items()
        if isinstance(value, (dict, list, set))
    }


def test_every_container_a_run_fills_is_a_memo_or_cache(tmp_path, monkeypatch):
    for (name, attr), value in _containers().items():
        if _is_memo(attr):
            monkeypatch.setattr(sys.modules[name], attr, type(value)())
    before = {key: len(value) for key, value in _containers().items()}
    assert main(["reproduce", "spin8", "--out", str(tmp_path / "report.json")]) == 0
    grown = sorted(
        f"{name}.{attr}"
        for (name, attr), value in _containers().items()
        if len(value) > before.get((name, attr), 0)
    )
    assert "smtorus.straighten._PRODUCT_MEMO" in grown
    assert "smtorus.pfaffian._BSET_MEMO" in grown
    assert "smtorus.ring._BASIS_MEMO" in grown
    assert [g for g in grown if not _is_memo(g.rsplit(".", 1)[1])] == []
