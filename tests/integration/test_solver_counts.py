"""Solver counts are sums over spans, and they depend on the request only.

A run's ``solver`` stats are what the solver substrate counted on the run's
``service.run`` span (``repro.obs.trace.count``).  These tests pin the
counts of real requests and check the span properties they rest on: a
traced solve counts like an untraced one even past the trace's span budget,
an enclosing span sums its nested spans, and a solve run in another thread
through a copied context counts on the spans that were open where the
context was copied.

Nothing a run reuses outlives its instance, so a request solved again on
the same service, or in a fresh process, reports the same envelope: no
cache is cleared here.  The ``*_seconds`` fields are timings and are left
out.
"""

import contextvars
import json
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import repro
import repro.obs.trace as trace_module
from repro.api.service import RecoveryService
from repro.obs.trace import span, trace_context

#: The count keys of a run's ``solver`` dict, in its order, timings left out.
COUNT_KEYS = (
    "lp_solves",
    "milp_solves",
    "warm_start_attempts",
    "warm_start_hits",
    "structure_hits",
    "structure_misses",
    "incumbent_seeds",
)

#: Every run of the first 6 ``paper-bell`` requests of workload seed 2016,
#: solved in order on one service: (algorithm, counts in COUNT_KEYS order).
#: Identical under PYTHONHASHSEED=0 and 1.
GOLDEN = [
    # request 0
    ("ISP", (3, 0, 0, 0, 2, 1, 0)),
    ("OPT", (3, 1, 0, 0, 3, 0, 1)),
    ("SRT", (1, 0, 0, 0, 1, 0, 0)),
    ("GRD-COM", (1, 0, 0, 0, 1, 0, 0)),
    ("GRD-NC", (2, 0, 0, 0, 2, 0, 0)),
    ("ALL", (1, 0, 0, 0, 0, 1, 0)),
    # request 1
    ("ISP", (3, 0, 0, 0, 2, 1, 0)),
    ("OPT", (3, 1, 0, 0, 3, 0, 1)),
    ("SRT", (1, 0, 0, 0, 1, 0, 0)),
    ("GRD-COM", (1, 0, 0, 0, 0, 1, 0)),
    ("GRD-NC", (2, 0, 0, 0, 1, 1, 0)),
    ("ALL", (1, 0, 0, 0, 0, 1, 0)),
    # request 2
    ("ISP", (3, 0, 0, 0, 2, 1, 0)),
    ("OPT", (3, 1, 0, 0, 2, 1, 1)),
    ("SRT", (1, 0, 0, 0, 0, 1, 0)),
    ("GRD-COM", (1, 0, 0, 0, 0, 1, 0)),
    ("GRD-NC", (2, 0, 0, 0, 1, 1, 0)),
    ("ALL", (1, 0, 0, 0, 0, 1, 0)),
    # request 3
    ("ISP", (3, 0, 0, 0, 2, 1, 0)),
    ("OPT", (3, 1, 0, 0, 3, 0, 1)),
    ("SRT", (1, 0, 0, 0, 1, 0, 0)),
    ("GRD-COM", (1, 0, 0, 0, 0, 1, 0)),
    ("GRD-NC", (2, 0, 0, 0, 1, 1, 0)),
    ("ALL", (1, 0, 0, 0, 0, 1, 0)),
    # request 4
    ("ISP", (3, 0, 0, 0, 2, 1, 0)),
    ("OPT", (3, 1, 0, 0, 3, 0, 1)),
    ("SRT", (1, 0, 0, 0, 0, 1, 0)),
    ("GRD-COM", (1, 0, 0, 0, 0, 1, 0)),
    ("GRD-NC", (2, 0, 0, 0, 1, 1, 0)),
    ("ALL", (1, 0, 0, 0, 0, 1, 0)),
    # request 5
    ("ISP", (27, 0, 15, 15, 24, 3, 0)),
    ("OPT", (4, 1, 0, 0, 3, 1, 1)),
    ("SRT", (1, 0, 0, 0, 0, 1, 0)),
    ("GRD-COM", (1, 0, 0, 0, 0, 1, 0)),
    ("GRD-NC", (2, 0, 0, 0, 1, 1, 0)),
    ("ALL", (1, 0, 0, 0, 1, 0, 0)),
]

#: The timing fields of an envelope.
TIMING_FIELDS = frozenset({"wall_seconds", "elapsed_seconds", "build_seconds", "solve_seconds"})

#: Solves the request dicts read from stdin on one fresh service and prints
#: their envelopes as one JSON list.
SOLVE_IN_A_FRESH_PROCESS = """
import json, sys
from repro.api.requests import RecoveryRequest
from repro.api.service import RecoveryService
service = RecoveryService()
requests = [RecoveryRequest.from_dict(payload) for payload in json.load(sys.stdin)]
json.dump([service.solve(request).to_dict() for request in requests], sys.stdout)
"""


def without_timing(value):
    if isinstance(value, dict):
        return {
            key: without_timing(item) for key, item in value.items() if key not in TIMING_FIELDS
        }
    if isinstance(value, list):
        return [without_timing(item) for item in value]
    return value


def comparable(envelopes):
    """JSON-normalised envelope dicts, timing fields dropped."""
    return without_timing(json.loads(json.dumps([envelope.to_dict() for envelope in envelopes])))


@pytest.fixture(scope="module")
def six_bell_requests(paper_bell_requests):
    return paper_bell_requests(2016)[:6]


@pytest.fixture(scope="module")
def solved_twice(six_bell_requests):
    """The six requests solved in order twice on one service: two lists of
    envelopes."""
    service = RecoveryService()
    return [[service.solve(request) for request in six_bell_requests] for _ in range(2)]


def run_counts(result):
    """``(algorithm, [(key, value), ...])`` per run, timings dropped."""
    return [
        (
            run.algorithm,
            [(key, value) for key, value in run.solver.items() if not key.endswith("_seconds")],
        )
        for run in result.results
    ]


def span_counts(node):
    return tuple(node.counts.get(key, 0) for key in COUNT_KEYS)


@pytest.mark.parametrize("solve_pass", [0, 1], ids=["first", "second"])
def test_paper_bell_counts_are_golden(solved_twice, solve_pass):
    observed = [run for result in solved_twice[solve_pass] for run in run_counts(result)]
    expected = [
        (algorithm, [(key, float(value)) for key, value in zip(COUNT_KEYS, counts)])
        for algorithm, counts in GOLDEN
    ]
    assert observed == expected


def test_a_re_solve_and_a_fresh_process_give_equal_envelopes(six_bell_requests, solved_twice):
    child = subprocess.run(
        [sys.executable, "-c", SOLVE_IN_A_FRESH_PROCESS],
        input=json.dumps([request.to_dict() for request in six_bell_requests]),
        capture_output=True,
        text=True,
        check=True,
        cwd=Path(repro.__file__).resolve().parents[1],
        timeout=600,
    )
    first, second = (comparable(envelopes) for envelopes in solved_twice)
    fresh = without_timing(json.loads(child.stdout))
    assert second == first
    assert fresh == first


def test_a_trace_over_its_budget_counts_like_no_trace(paper_bell_requests, monkeypatch):
    request = paper_bell_requests(2016)[0]
    untraced = run_counts(RecoveryService().solve(request))
    monkeypatch.setattr(trace_module, "MAX_SPANS_PER_TRACE", 5)
    service = RecoveryService()
    with trace_context() as trace:
        traced = run_counts(service.solve(request))
    assert trace.span_count == 5 and trace.dropped_spans > 0
    assert traced == untraced


def traced_solve(request):
    """Solve ``request`` under a ``caller`` span, in a thread run through a
    context copied inside that span; return the trace and the span."""
    service = RecoveryService()
    results = []
    with trace_context() as trace, span("caller") as caller:
        context = contextvars.copy_context()
        worker = threading.Thread(
            target=context.run, args=(lambda: results.append(service.solve(request)),)
        )
        worker.start()
        worker.join()
    return trace, caller, results[0]


def test_an_enclosing_span_sums_its_nested_spans(paper_bell_requests):
    request = paper_bell_requests(2016)[0]
    untraced = run_counts(RecoveryService().solve(request))
    trace, caller, result = traced_solve(request)
    assert run_counts(result) == untraced
    assert trace.roots == [caller]
    children = caller.children
    assert [node.name for node in children] == ["service.materialise"] + ["service.run"] * 6
    for key in COUNT_KEYS:
        assert caller.counts.get(key, 0) == sum(node.counts.get(key, 0) for node in children)
    runs = {node.attrs["algorithm"]: node for node in children[1:]}
    for run in result.results:
        node = runs[run.algorithm]
        assert tuple(run.solver[key] for key in COUNT_KEYS) == span_counts(node)
        # the trace's leaves and the counts describe the same solves
        solves = sum(1 for leaf in node.children if leaf.name == "solver.solve")
        assert solves == run.solver["lp_solves"] + run.solver["milp_solves"]

