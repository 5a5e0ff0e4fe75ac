"""``benchmarks/contract/run.py``: the verbs that need no simulator run.

``digest`` is held by CI to the committed ``benchmarks/baselines/contract.txt``;
``rebaseline`` rewrites that file and the tier-1 fixture.
"""

import importlib.util
import json
import os

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "contract_run", os.path.join(REPO, "benchmarks", "contract", "run.py")
)
contract = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(contract)

DIGESTS = (
    "FFT:O:lrc  5e6f35  32a5ad  7105\n"
    "SOR:P:lrc:corrupt-static  49c61d  39d29f  2649\n"
    "\n"
    "network/msg_drop                   2201\n"
)
LEDGER = {
    "workloads": {
        "observed": {
            "report_digest": "a28394",
            "failed": 0,
            "counts": {"sim.events": 71840},
            "end_to_end": {"host_s": {"value": 1.09, "unit": "s"}},
            "cells": [{"id": "FFT:small:O:8+observed", "events": 6418, "sim_wall_ms": 35.45,
                       "digest": "033ee4", "host_s": [0.09]}],
        }
    }
}


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_diff_of_equal_digest_files_is_clean(tmp_path, capsys):
    a, b = write(tmp_path, "a.txt", DIGESTS), write(tmp_path, "b.txt", DIGESTS)
    assert contract.main(["diff", a, b]) == 0
    assert "0 moved" in capsys.readouterr().out


@pytest.mark.parametrize(
    "old, new, says",
    [
        ("32a5ad", "32a5ae", "MOVED FFT:O:lrc: trace 32a5ad -> 32a5ae"),
        ("7105", "7106", "MOVED FFT:O:lrc: events 7105 -> 7106"),
        ("2201", "2200", "MOVED network/msg_drop: 2201 -> 2200"),
        ("SOR:P:lrc:corrupt-static", "SOR:P:lrc:corrupt-statiC", "(absent)"),
    ],
)
def test_diff_exits_nonzero_on_a_one_character_change_to_either_file(
    tmp_path, capsys, old, new, says
):
    a = write(tmp_path, "a.txt", DIGESTS)
    b = write(tmp_path, "b.txt", DIGESTS.replace(old, new))
    assert contract.main(["diff", a, b]) == 1
    assert says in capsys.readouterr().out
    assert contract.main(["diff", b, a]) == 1


def test_diff_of_ledger_results_ignores_host_times_only(tmp_path, capsys):
    slower = json.loads(json.dumps(LEDGER))
    slower["workloads"]["observed"]["end_to_end"]["host_s"]["value"] = 2.0
    slower["workloads"]["observed"]["cells"][0]["host_s"] = [0.2]
    a = write(tmp_path, "a.json", json.dumps(LEDGER))
    assert contract.main(["diff", a, write(tmp_path, "b.json", json.dumps(slower))]) == 0
    for path, value in (
        (("report_digest",), "a28395"),
        (("counts", "sim.events"), 71841),
        (("cells", 0, "sim_wall_ms"), 35.46),
        (("failed",), 1),
    ):
        moved = json.loads(json.dumps(LEDGER))
        target = moved["workloads"]["observed"]
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        capsys.readouterr()
        assert contract.main(["diff", a, write(tmp_path, "c.json", json.dumps(moved))]) == 1
        assert f"-> {value}" in capsys.readouterr().out


def test_verdict_needs_nine_wins_in_ten_and_a_gap_wider_than_the_parents_quartiles():
    parent = [1.00, 1.02, 0.98, 1.01, 0.99, 1.00, 1.03, 0.97, 1.00, 1.01]
    assert contract.verdict(parent, [x - 0.10 for x in parent]).count("GAIN") == 1
    # Wins every pair, but by less than the parent's own q3 - q1.
    assert "no gain shown" in contract.verdict(parent, [x - 0.001 for x in parent])
    # A wide median gap, but only eight pairs won.
    mixed = [x - 0.10 for x in parent[:8]] + [x + 0.01 for x in parent[8:]]
    assert "no gain shown" in contract.verdict(parent, mixed)
    assert "no gain shown" in contract.verdict(parent, parent)


def test_numbers_holds_src_to_the_committed_ceilings(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(REPO)
    committed = os.path.join("benchmarks", "baselines", "design-numbers.json")
    assert contract.main(["numbers", "--check", committed]) == 0
    printed = dict(line.split(": ") for line in capsys.readouterr().out.splitlines())
    with open(committed, encoding="utf-8") as handle:
        ceilings = json.load(handle)
    assert printed.keys() == ceilings.keys()
    lowered = {**ceilings, "config_fields": ceilings["config_fields"] - 1}
    assert contract.main(["numbers", "--check", write(tmp_path, "n.json", json.dumps(lowered))]) == 1
    assert "config_fields" in capsys.readouterr().out.splitlines()[-1]


def test_numbers_definitions(tmp_path, monkeypatch, capsys):
    source = (
        '"""Docstring: not code."""\n'
        "from dataclasses import dataclass\n"
        "\n"
        "@dataclass\n"
        "class FooConfig:\n"
        "    a: int = 1  # comment: not code\n"
        "    b: int = 2\n"
        "\n"
        "class LinkConfig:\n"
        "    def __init__(self, c=1, d=2, e=3):\n"
        "        if sim.trace_on and tr.enabled:  # one line, one site\n"
        "            pass\n"
        "x = f\"{a!r:>{w}} and {f'{b}'}\"  # one token, nested fields and all\n"
        'y = f"""{c}"""  # triple-quoted: not counted, as a docstring is not\n'
    )
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "m.py").write_text(source, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    assert contract.main(["numbers"]) == 0
    printed = dict(line.split(": ") for line in capsys.readouterr().out.splitlines())
    assert printed == {
        "src_py_lines": "14",
        "code_tokens": "55",
        "hook_sites": "1",
        "config_fields": "5",
    }


def test_usage_on_a_bad_verb(capsys):
    assert contract.main(["digests"]) == 2
    assert "run.py digest ROOT OUT [SEED]" in capsys.readouterr().err
