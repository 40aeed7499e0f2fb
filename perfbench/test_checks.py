"""The benchmark's own tests: every checker accepts a genuine report and
rejects a corrupted one; the tracer's self time; BENCHMARK.json agrees with
the metrics the benchmark prints.

    python3 -m pytest perfbench/test_checks.py

Genuine reports come from running one request of each kind through the
program (about 10 s, most of it one degree-12 specialize request).
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

# (checker, old, new): replacing the first `old` in a genuine report by `new`
# (new None: deleting the line holding it) must make the checker fail
CORRUPTIONS = [
    ("psl2_11_specialize", "\t-1\topposite", "\t+1\topposite"),  # flipped ratio
    ("psl2_11_specialize", "\ncandidate\t", None),  # dropped candidate line
    ("mestre_specialize", "\t+1\tequal", "\t-1\tequal"),
    ("mestre_specialize", "\ncandidate\t", None),
    ("orbit_search", "\ttrue\n", "\tfalse\n"),  # I_in_An flipped
    ("orbit_search", "\n(", None),  # one pair row dropped
    ("involution_certificate", '"orbit_counts": [', '"orbit_counts": [2, '),
    ("involution_certificate", '"C": [[', '"C": [[1, 0, '),
    ("mestre_solve", "solutions: ", "solutions: 1"),
    ("mestre_solve", "\t1,0,", "\t1,1,"),  # r no longer squares to f'g - g'f
    ("mestre_verify", "r = 1,0,", "r = 1,0,1"),
    ("root_number", "W(E/F) = -", "W(E/F) = +"),
    ("root_number", "W(E/F) = +", "W(E/F) = -"),
    ("profile", "signature: (", "signature: (1"),
    ("profile", "[1:", "[1:1,1:"),
    ("jacobian", "\t+1\t", "\t-1\t"),
    ("jacobian", "flip (", "no-flip ("),
    ("an_certificate", "contained_in_alternating=True", "contained_in_alternating=False"),
    ("an_certificate", "verdict=alternating-consistent", "verdict=patterns-insufficient"),
]


def corrupt(text: str, old: str, new: str | None) -> str:
    if new is not None:
        return text.replace(old, new, 1)
    at = text.index(old) + 1  # old starts with the newline ending the line before
    end = text.find("\n", at)
    return text[:at] + (text[end + 1 :] if end >= 0 else "")


@pytest.fixture(scope="module")
def genuine(tmp_path_factory):
    """{checker: [(request, code, text), ...]}: every request of a kind that
    runs in well under a second, and one rank-gain specialize request."""
    rg = worker.import_program()
    ctx = checks.load_context({})
    out = {}
    for name in workloads.WORKLOADS:
        reqs = workloads.build(name, 3, rg, tmp_path_factory.mktemp(name))
        chosen = []
        for req in reqs:
            if req.check == "psl2_11_specialize" and any(r.check == req.check for r in chosen):
                continue
            if req.check == "involution_certificate" and req.meta["p"] != 19:
                continue
            if req.check == "orbit_search" and "13" in req.meta["label"]:
                continue
            if req.check == "an_certificate" and len(req.meta["poly"].split(",")) > 7:
                continue  # degree 7 would build the 17 s typeset table
            chosen.append(req)
        _, outcomes = worker.run_round(rg, chosen)
        reports, failures = worker.collect(chosen, outcomes)
        assert not failures
        for req in chosen:
            rep = reports[req.rid]
            out.setdefault(req.check, []).append(
                ({"rid": req.rid, "check": req.check, "meta": req.meta}, rep["code"], rep["text"])
            )
    return out, ctx


def test_genuine_reports_pass(genuine):
    reports, ctx = genuine
    assert set(reports) == set(checks.CHECKERS)
    for items in reports.values():
        for req, code, text in items:
            assert checks.check_request(req, code, text, ctx) == [], req["rid"]


@pytest.mark.parametrize("check,old,new", CORRUPTIONS)
def test_corrupted_report_rejected(genuine, check, old, new):
    reports, ctx = genuine
    hits = [(req, code, text) for req, code, text in reports[check] if old in text]
    assert hits, f"no {check} report contains {old!r}"
    for req, code, text in hits:
        assert checks.check_request(req, code, corrupt(text, old, new), ctx), req["rid"]


def test_wrong_exit_code_rejected(genuine):
    reports, ctx = genuine
    req, code, text = reports["orbit_search"][0]
    assert checks.check_request(req, 3 if code == 0 else 0, text, ctx)


def test_self_time_subtracts_traced_children():
    spans = [
        ["extension.certify_irreducible", 0.0, 1.0, -1, False],
        ["algebra.is_irreducible_mod_p", 0.1, 0.4, 0, False],
        ["algebra.factor_mod_p", 0.2, 0.3, 1, False],
        ["algebra.is_irreducible_mod_p", 0.5, 0.6, 0, False],
    ]
    m = tracer.layer_metrics(spans, {"algebra.is_prime": 7}, 0.25)
    assert m["algebra.is_irreducible_mod_p.calls"] == 2
    assert m["algebra.is_irreducible_mod_p.self_s"] == pytest.approx(0.3)
    assert m["extension.certify_irreducible.total_s"] == pytest.approx(1.0)
    assert m["extension.certify_irreducible.primes_per_call"] == 2
    assert m["algebra.is_prime.calls"] == 7
    assert m["trace.overhead_s"] == 0.25


def test_benchmark_json_matches_printed_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == tracer.PER_LAYER
    assert [m["name"] for m in spec["end_to_end"]] == ["setup_s", "wall_s", "peak_rss_mb"]
    assert tuple(w["name"] for w in spec["workloads"]) == workloads.WORKLOADS == run.WORKLOADS
