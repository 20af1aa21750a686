"""Solver counts are sums over spans, and they stay what they were.

A run's ``solver`` stats are what the solver substrate counted on the run's
``service.run`` span (``repro.obs.trace.count``).  These tests pin the
counts of real requests and check the span properties they rest on: a
traced solve counts like an untraced one even past the trace's span budget,
an enclosing span sums its nested spans, and a solve run in another thread
through a copied context counts on the spans that were open where the
context was copied.

Every solve starts from a fresh service with the process-wide structure
and bound caches cleared, because the structure and bound counters depend
on what earlier solves left in them.  The two ``*_seconds`` counts are
timings and are left out.
"""

import contextvars
import threading

import repro.obs.trace as trace_module
from repro.api.service import RecoveryService
from repro.flows.decomposition import clear_bound_cache
from repro.flows.solver.incremental import clear_structure_cache
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
    "benders_iterations",
    "benders_cuts",
    "bound_reuses",
)

#: Every run of the first 6 ``paper-bell`` requests of workload seed 2016,
#: solved in order on one fresh service: (algorithm, counts in COUNT_KEYS
#: order).  Identical under PYTHONHASHSEED=0 and 1.
GOLDEN = [
    # request 0
    ("ISP", (9, 0, 4, 4, 7, 2, 0, 0, 0, 0)),
    ("OPT", (4, 1, 0, 0, 3, 0, 1, 0, 0, 0)),
    ("SRT", (1, 0, 0, 0, 1, 0, 0, 0, 0, 0)),
    ("GRD-COM", (1, 0, 0, 0, 1, 0, 0, 0, 0, 0)),
    ("GRD-NC", (2, 0, 0, 0, 2, 0, 0, 0, 0, 0)),
    ("ALL", (1, 0, 0, 0, 1, 0, 0, 0, 0, 0)),
    # request 1
    ("ISP", (16, 0, 9, 9, 15, 1, 0, 0, 0, 0)),
    ("OPT", (5, 1, 0, 0, 3, 0, 1, 0, 0, 0)),
    ("SRT", (1, 0, 0, 0, 1, 0, 0, 0, 0, 0)),
    ("GRD-COM", (1, 0, 0, 0, 0, 1, 0, 0, 0, 0)),
    ("GRD-NC", (2, 0, 0, 0, 1, 1, 0, 0, 0, 0)),
    ("ALL", (1, 0, 0, 0, 1, 0, 0, 0, 0, 0)),
    # request 2
    ("ISP", (24, 0, 15, 15, 23, 1, 0, 0, 0, 0)),
    ("OPT", (6, 1, 0, 0, 2, 1, 1, 0, 0, 0)),
    ("SRT", (1, 0, 0, 0, 0, 1, 0, 0, 0, 0)),
    ("GRD-COM", (1, 0, 0, 0, 0, 1, 0, 0, 0, 0)),
    ("GRD-NC", (2, 0, 0, 0, 1, 1, 0, 0, 0, 0)),
    ("ALL", (1, 0, 0, 0, 1, 0, 0, 0, 0, 0)),
    # request 3
    ("ISP", (25, 0, 15, 15, 24, 1, 0, 0, 0, 0)),
    ("OPT", (7, 1, 0, 0, 3, 0, 1, 0, 0, 0)),
    ("SRT", (1, 0, 0, 0, 1, 0, 0, 0, 0, 0)),
    ("GRD-COM", (1, 0, 0, 0, 0, 1, 0, 0, 0, 0)),
    ("GRD-NC", (2, 0, 0, 0, 1, 1, 0, 0, 0, 0)),
    ("ALL", (1, 0, 0, 0, 1, 0, 0, 0, 0, 0)),
    # request 4
    ("ISP", (34, 0, 22, 22, 33, 1, 0, 0, 0, 0)),
    ("OPT", (8, 1, 0, 0, 3, 0, 1, 0, 0, 0)),
    ("SRT", (1, 0, 0, 0, 0, 1, 0, 0, 0, 0)),
    ("GRD-COM", (1, 0, 0, 0, 0, 1, 0, 0, 0, 0)),
    ("GRD-NC", (2, 0, 0, 0, 1, 1, 0, 0, 0, 0)),
    ("ALL", (1, 0, 0, 0, 1, 0, 0, 0, 0, 0)),
    # request 5
    ("ISP", (52, 0, 34, 34, 50, 2, 0, 0, 0, 0)),
    ("OPT", (10, 1, 0, 0, 3, 1, 1, 0, 0, 0)),
    ("SRT", (1, 0, 0, 0, 0, 1, 0, 0, 0, 0)),
    ("GRD-COM", (1, 0, 0, 0, 0, 1, 0, 0, 0, 0)),
    ("GRD-NC", (2, 0, 0, 0, 1, 1, 0, 0, 0, 0)),
    ("ALL", (1, 0, 0, 0, 1, 0, 0, 0, 0, 0)),
]


def fresh_service() -> RecoveryService:
    clear_structure_cache()
    clear_bound_cache()
    return RecoveryService()


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


def test_paper_bell_counts_are_golden(paper_bell_requests):
    service = fresh_service()
    observed = []
    for request in paper_bell_requests(2016)[:6]:
        observed += run_counts(service.solve(request))
    expected = [
        (algorithm, [(key, float(value)) for key, value in zip(COUNT_KEYS, counts)])
        for algorithm, counts in GOLDEN
    ]
    assert observed == expected


def test_a_trace_over_its_budget_counts_like_no_trace(paper_bell_requests, monkeypatch):
    request = paper_bell_requests(2016)[0]
    untraced = run_counts(fresh_service().solve(request))
    monkeypatch.setattr(trace_module, "MAX_SPANS_PER_TRACE", 5)
    service = fresh_service()
    with trace_context() as trace:
        traced = run_counts(service.solve(request))
    assert trace.span_count == 5 and trace.dropped_spans > 0
    assert traced == untraced


def traced_solve(request):
    """Solve ``request`` under a ``caller`` span, in a thread run through a
    context copied inside that span; return the trace and the span."""
    service = fresh_service()
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
    untraced = run_counts(fresh_service().solve(request))
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

