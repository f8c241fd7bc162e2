"""Traced in-process replay of one feyngen command, for per-layer numbers.

The replay calls the same public functions the command handler in
``feyngen.cli`` calls, in the same order, with a span around each call.
``GraphSum.canonical_merge`` is replayed as its two steps, ``canonicalize``
per term and the ``GraphSum`` construction that sums the weights, so that the
``graphs`` and ``recursion`` shares of the merge are told apart.  Rendering
goes through the handler's own helpers, so the replayed output is the exact
bytes the command prints and is checked against the same reference.

A span records its name, start, end, parent span and pass (run id).  A
layer is the module a span's name starts with; its self time is the time
its spans cover minus the time their child spans cover.  ``algebra`` has no
span: it has no public call on these paths and its cost shows up in the
self time of the caller.
"""

from __future__ import annotations

import contextlib
import io
import statistics
import time
from collections import Counter
from dataclasses import asdict, dataclass
from typing import Callable

from feyngen import (
    GenOptions,
    GraphSum,
    canonicalize,
    evaluate_graph_sum,
    load_model,
    omega,
    vertex_bound,
)
from feyngen import cli, recursion

LAYERS = ("recursion", "graphs", "evaluation", "cli")

#: Per-layer metrics: (name, unit).  Times are medians over the traced passes.
PER_LAYER = (
    ("recursion.omega_s", "s"),
    ("recursion.ordered_terms", "count"),
    ("recursion.class_ratio", "ratio"),
    ("recursion.split_terms", "count"),
    ("recursion.restricted_s", "s"),
    ("recursion.kept_ratio", "ratio"),
    ("recursion.graphsum_build_s", "s"),
    ("graphs.canonicalize_s", "s"),
    ("graphs.canonicalize_calls", "count"),
    ("evaluation.evaluate_graph_sum_s", "s"),
    ("evaluation.assignments", "count"),
    ("evaluation.load_model_s", "s"),
    ("cli.render_s", "s"),
    ("cli.output_bytes", "bytes"),
    *((f"{layer}.self_s", "s") for layer in LAYERS),
    ("trace.overhead_s", "s"),
)

#: Counts that must repeat exactly from one traced pass to the next.
EXACT_COUNTS = ("ordered_terms", "split_terms", "canonicalize_calls", "assignments",
                "output_bytes")


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int | None
    run_id: int

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


class Tracer:
    """Spans of one pass, kept in memory."""

    def __init__(self, run_id: int) -> None:
        self.run_id = run_id
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, 0, 0, parent, self.run_id))
        self._open.append(index)
        self.spans[index].start_ns = time.perf_counter_ns()
        try:
            yield
        finally:
            self.spans[index].end_ns = time.perf_counter_ns()
            self._open.pop()

    def total_s(self, name: str) -> float:
        return sum(s.seconds for s in self.spans if s.name == name)

    def self_s(self) -> dict[str, float]:
        """Self time per layer: span time minus the time of its child spans."""
        own = [s.seconds for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.seconds
        per_layer = dict.fromkeys(LAYERS, 0.0)
        for s, t in zip(self.spans, own):
            per_layer[s.name.split(".")[0]] += t
        return per_layer


# ---------------------------------------------------------------------------
# replays of the command handlers


def _merge(tr: Tracer, s: GraphSum, counts: Counter) -> GraphSum:
    """``s.canonical_merge()``, one span per step."""
    with tr.span("graphs.canonicalize"):
        terms = [(canonicalize(g), c) for g, c in s.items()]
    with tr.span("recursion.graphsum_build"):
        merged = GraphSum(s.vertex_count, terms)
    counts["canonicalize_calls"] += len(terms)
    counts["ordered_terms"] += len(s)
    counts["classes"] += len(merged)
    return merged


def _replay_generate(tr: Tracer, args, counts: Counter) -> str:
    externals = cli.parse_externals(args.externals)
    l_lo, l_hi = cli.parse_range(args.loops)
    if args.vertices is not None:
        v_lo, v_hi = cli.parse_range(args.vertices)
    else:
        v_lo, v_hi = 1, max(vertex_bound(externals.degree, args.max_loops or l_hi,
                                         args.min_valence), 1)
    opts = GenOptions(
        min_valence=max(args.min_valence - 1, 0),
        max_loops=args.max_loops if args.max_loops is not None
        else (l_hi if args.min_valence else None),
    )
    collected = []
    for l in range(l_lo, l_hi + 1):
        for v in range(v_lo, v_hi + 1):
            with tr.span("recursion.omega"):
                s = omega(l, v, externals, opts)
            s = _merge(tr, s, counts)
            if args.min_valence:
                with tr.span("recursion.restricted"):
                    s = s.restricted(
                        lambda g: all(g.valence(i) >= args.min_valence
                                      for i in range(1, g.vertex_count + 1))
                    )
            counts["kept"] += len(s)
            with tr.span("cli.render"):
                collected.extend(cli._sorted_graphs(s))
    with tr.span("cli.render"):
        return cli._render(collected, args.format)


def _replay_evaluate(tr: Tracer, args, counts: Counter) -> str:
    with tr.span("evaluation.load_model"):
        model = load_model(args.model)
    externals = cli.parse_externals(args.externals)
    l_lo, l_hi = cli.parse_range(args.loops)
    v_lo, v_hi = cli.parse_range(args.vertices)
    if v_lo < 1:
        raise ValueError("the replay covers cells with at least one vertex")
    lines = []
    for l in range(l_lo, l_hi + 1):
        total = None
        for v in range(v_lo, v_hi + 1):
            with tr.span("recursion.omega"):
                s = omega(l, v, externals)
            s = _merge(tr, s, counts)
            counts["kept"] += len(s)
            with tr.span("evaluation.evaluate_graph_sum"):
                value = evaluate_graph_sum(model, s)
            counts["assignments"] += sum(len(model.labels) ** (2 * g.edge_count)
                                         for g, _ in s.items())
            total = value if total is None else total + value
            with tr.span("cli.render"):
                lines.append(f"sigma[l={l},v={v}]({externals}) = {cli._format_scalar(value)}")
        with tr.span("cli.render"):
            lines.append(f"sigma[l={l}]({externals}) = {cli._format_scalar(total)}")
    return "\n".join(lines) + "\n"


REPLAYS = {"generate": _replay_generate, "evaluate": _replay_evaluate}


def untraced_pass(argv: tuple[str, ...]) -> tuple[float, int, bytes]:
    """Run ``feyngen <argv>`` in this process, cold and untraced; return its
    wall time, exit code and stdout."""
    recursion.clear_cache()
    recursion.reset_stats()
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return time.perf_counter() - start, code, out.getvalue().encode()


def traced_pass(argv: tuple[str, ...], run_id: int) -> tuple[Tracer, Counter, bytes]:
    """Replay ``feyngen <argv>`` once, cold: the omega cache and counters are reset."""
    args = cli.build_parser().parse_args(list(argv))
    recursion.clear_cache()
    recursion.reset_stats()
    tr = Tracer(run_id)
    counts: Counter = Counter()
    with tr.span(f"cli.{args.command}"):
        stdout = REPLAYS[args.command](tr, args, counts).encode()
    counts["split_terms"] = recursion.split_term_count()
    counts["output_bytes"] = len(stdout)
    return tr, counts, stdout


def layer_metrics(tracers: list[Tracer], counts: Counter) -> dict[str, float]:
    """Per-layer metrics (without trace.overhead_s): medians of times over passes."""
    def med(f: Callable[[Tracer], float]) -> float:
        return statistics.median(f(tr) for tr in tracers)

    metrics = {
        "recursion.omega_s": med(lambda tr: tr.total_s("recursion.omega")),
        "recursion.ordered_terms": counts["ordered_terms"],
        "recursion.class_ratio": counts["classes"] / counts["ordered_terms"],
        "recursion.split_terms": counts["split_terms"],
        "recursion.restricted_s": med(lambda tr: tr.total_s("recursion.restricted")),
        "recursion.kept_ratio": counts["kept"] / counts["classes"],
        "recursion.graphsum_build_s": med(lambda tr: tr.total_s("recursion.graphsum_build")),
        "graphs.canonicalize_s": med(lambda tr: tr.total_s("graphs.canonicalize")),
        "graphs.canonicalize_calls": counts["canonicalize_calls"],
        "evaluation.evaluate_graph_sum_s":
            med(lambda tr: tr.total_s("evaluation.evaluate_graph_sum")),
        "evaluation.assignments": counts["assignments"],
        "evaluation.load_model_s": med(lambda tr: tr.total_s("evaluation.load_model")),
        "cli.render_s": med(lambda tr: tr.total_s("cli.render")),
        "cli.output_bytes": counts["output_bytes"],
    }
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = med(lambda tr: tr.self_s()[layer])
    return metrics


def spans_as_dicts(tracers: list[Tracer]) -> list[dict]:
    return [asdict(s) for tr in tracers for s in tr.spans]
