"""Span tracing of the program's layers, installed from the benchmark's side.

``install`` replaces public functions of the program's modules with wrappers
that record a span (name, start, end, parent span, query id) or bump a
counter, in every ``sdgsolve`` module that bound the function by name, so
calls between modules are traced as well.  Wrappers record only while a
query runs; set-up and the correctness checks pass straight through.  Spans
stay in memory and are written out once, when the run ends.
"""

import functools
import sys
from collections import defaultdict
from time import perf_counter

ALGORITHMS = ("brute", "twdp", "fptdp", "vc", "brute-raised")

# (module, function) -> span name
SPANS = {
    ("cli", "main"): "cli.main",
    ("formats", "read_gr"): "formats.read_gr",
    ("formats", "result_report"): "formats.result_report",
    ("dispatch", "solve"): "dispatch.solve",
    ("dispatch", "choose_algorithm"): "dispatch.choose_algorithm",
    ("treedecomp", "compute_decomposition"): "treedecomp.compute_decomposition",
    ("treedecomp", "make_nice"): "treedecomp.make_nice",
    ("solver_twdp", "solve_tw_welfare"): "solver_twdp",
    ("solver_twdp", "solve_tw_ir"): "solver_twdp",
    ("solver_twdp", "solve_tw_ns"): "solver_twdp",
    ("solver_fptdp", "solve_fpt"): "solver_fptdp",
    ("solver_fptdp", "select_sz"): "solver_fptdp.select_sz",
    ("canon", "canonical_order"): "canon.canonical_order",
    ("solver_vc", "solve_vc"): "solver_vc",
    ("solver_vc", "compute_vertex_cover"): "solver_vc.compute_vertex_cover",
    ("solver_vc", "solve_qp"): "solver_vc.solve_qp",
    ("oracle", "brute_force_solve"): "oracle.brute_force_solve",
    ("core", "social_welfare"): "core.social_welfare",
    ("stability", "is_individually_rational"): "stability.is_individually_rational",
    ("stability", "is_nash_stable"): "stability.is_nash_stable",
}
# generators: one span per item produced
GENERATOR_SPANS = {
    ("solver_vc", "enumerate_structures"): "solver_vc.enumerate_structures",
}
# functions called too often for a span: counted only
COUNTED = {
    ("core", "utility_in_coalition"): "core.utility_in_coalition",
}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, query id]
        self.stack = []
        self.counts = defaultdict(int)
        self.decomposed_graphs = set()
        self.query = None

    def begin_query(self, query_id):
        self.query = query_id
        self._open("query")

    def end_query(self):
        self._close()
        self.query = None

    def _open(self, name):
        record = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.query]
        self.stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = perf_counter()
        return record

    def _close(self):
        self.spans[self.stack.pop()][2] = perf_counter()

    def span(self, name, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.query is None:
                return fn(*args, **kwargs)
            self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close()
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def generator_span(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            if self.query is None:
                yield from inner
                return
            while True:
                self._open(name)
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    self._close()
                self.counts[name + ".items"] += 1
                yield item

        return wrapper

    def counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.query is not None:
                counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _picked(self, args, algo):
        self.counts["picked." + algo] += 1

    def _qp_solved(self, args, result):
        if result is not None:
            self.counts["qp.feasible"] += 1

    def _decomposed(self, args, result):
        G = args[0]
        self.decomposed_graphs.add((G.n, G.edges))


def install(tracer):
    """Wrap the traced functions in every loaded ``sdgsolve`` module."""
    modules = [m for name, m in sys.modules.items() if name == "sdgsolve" or name.startswith("sdgsolve.")]
    after = {
        "dispatch.choose_algorithm": tracer._picked,
        "solver_vc.solve_qp": tracer._qp_solved,
        "treedecomp.compute_decomposition": tracer._decomposed,
    }
    wrappers = {}
    for (module, fn_name), name in SPANS.items():
        fn = getattr(sys.modules["sdgsolve." + module], fn_name)
        wrappers[fn] = tracer.span(name, fn, after.get(name))
    for (module, fn_name), name in GENERATOR_SPANS.items():
        fn = getattr(sys.modules["sdgsolve." + module], fn_name)
        wrappers[fn] = tracer.generator_span(name, fn)
    for (module, fn_name), name in COUNTED.items():
        fn = getattr(sys.modules["sdgsolve." + module], fn_name)
        wrappers[fn] = tracer.counter(name, fn)
    for m in modules:
        for attr, value in list(vars(m).items()):
            if callable(value) and value in wrappers:
                setattr(m, attr, wrappers[value])
    network = sys.modules["sdgsolve.core"].SocialNetwork
    network.distances_in = tracer.counter("core.distances_in", network.distances_in)


def layer_metrics(tracer, queries, speed):
    """Per-layer metrics of a traced run, per completed query.

    ``*_ms`` is milliseconds per query: the layer's whole span time, or its
    self time (span time minus the time its child spans cover) for the
    ``self_ms`` metrics, each span scaled by ``speed[query id]``, the
    host-speed correction of its query.  Counts are per query; the two
    ratios are plain.
    """
    spans = tracer.spans
    length = [(end - start) * speed[query] for _, start, end, _, query in spans]
    covered = [0.0] * len(spans)
    total = defaultdict(float)
    calls = defaultdict(int)
    for (name, _, _, parent, _), d in zip(spans, length):
        total[name] += d
        calls[name] += 1
        if parent >= 0:
            covered[parent] += d
    own = defaultdict(float)
    for idx, (name, *_) in enumerate(spans):
        own[name] += length[idx] - covered[idx]
    counts = tracer.counts

    def ms(value):
        return {"value": 1000.0 * value / queries, "unit": "ms/query"}

    def per_query(value):
        return {"value": value / queries, "unit": "calls/query"}

    def ratio(num, den):
        return {"value": num / den if den else 0.0, "unit": "ratio"}

    decompose_calls = calls["treedecomp.compute_decomposition"]
    metrics = {
        "formats.read_gr_ms": ms(total["formats.read_gr"]),
        "formats.report_ms": ms(total["formats.result_report"]),
        "cli.self_ms": ms(own["cli.main"]),
        "dispatch.choose_ms": ms(total["dispatch.choose_algorithm"]),
        "dispatch.self_ms": ms(own["dispatch.solve"]),
    }
    for algo in ALGORITHMS:
        metrics[f"dispatch.picked.{algo}"] = per_query(counts["picked." + algo])
    metrics.update(
        {
            "treedecomp.decompose_ms": ms(total["treedecomp.compute_decomposition"]),
            "treedecomp.decompose_calls": per_query(decompose_calls),
            "treedecomp.graphs_per_decompose": ratio(len(tracer.decomposed_graphs), decompose_calls),
            "treedecomp.make_nice_ms": ms(total["treedecomp.make_nice"]),
            "solver_twdp.self_ms": ms(own["solver_twdp"]),
            "solver_twdp.calls": per_query(calls["solver_twdp"]),
            "solver_fptdp.self_ms": ms(own["solver_fptdp"]),
            "solver_fptdp.select_sz_ms": ms(total["solver_fptdp.select_sz"]),
            "canon.ms": ms(total["canon.canonical_order"]),
            "canon.calls": per_query(calls["canon.canonical_order"]),
            "solver_vc.cover_ms": ms(total["solver_vc.compute_vertex_cover"]),
            "solver_vc.enumerate_ms": ms(total["solver_vc.enumerate_structures"]),
            "solver_vc.structures": per_query(counts["solver_vc.enumerate_structures.items"]),
            "solver_vc.qp_ms": ms(total["solver_vc.solve_qp"]),
            "solver_vc.qp_calls": per_query(calls["solver_vc.solve_qp"]),
            "solver_vc.qp_feasible_per_call": ratio(counts["qp.feasible"], calls["solver_vc.solve_qp"]),
            "oracle.brute_ms": ms(total["oracle.brute_force_solve"]),
            "oracle.brute_calls": per_query(calls["oracle.brute_force_solve"]),
            "core.social_welfare_ms": ms(total["core.social_welfare"]),
            "core.utility_calls": per_query(counts["core.utility_in_coalition"]),
            "core.bfs_calls": per_query(counts["core.distances_in"]),
            "stability.is_individually_rational_ms": ms(total["stability.is_individually_rational"]),
            "stability.is_nash_stable_ms": ms(total["stability.is_nash_stable"]),
        }
    )
    return metrics


def write_spans(tracer, path):
    """One tab-separated line per span: name, start and end in microseconds
    from the first span, parent index (-1 for a query's root), query id."""
    origin = tracer.spans[0][1] if tracer.spans else 0.0
    with open(path, "w") as out:
        out.write("name\tstart_us\tend_us\tparent\tquery\n")
        for name, start, end, parent, query in tracer.spans:
            out.write(f"{name}\t{(start - origin) * 1e6:.1f}\t{(end - origin) * 1e6:.1f}\t{parent}\t{query}\n")
