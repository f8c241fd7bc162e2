"""Command-line front-end: generate, verify, evaluate and export graph sums.

Exit codes: 0 ok, 1 verification mismatch, 2 usage error, 3 resource limit,
4 invalid model.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from typing import Sequence

from .algebra import ONE, ModelError, Monomial, ResourceLimitError, _unique_keys
from .graphs import format_weight
from .recursion import GraphSum, min_valence_classes, planned_placements, vertex_bound

# Each command handler imports the evaluation and oracle modules it runs
# (generate and export load neither, evaluate no oracle; verify's suites live
# in oracle), the graph records are imported where they are written or read
# and json where it is read: a run without a bytecode cache compiles every
# module it imports.

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_MODEL = 4

#: Hard safety limit on the internal edge number of a single generated cell.
GENERATION_EDGE_LIMIT = 8

#: Hard safety limit on the placements of external labels on vacuum classes,
#: each a canonical search, that one generate run makes (planned_placements).
GENERATION_PLACEMENT_LIMIT = 10**6

#: Hard safety limit on the work of one evaluate run's eliminations, counted
#: before any is made (planned_eliminations): one unit per vacuum class and
#: state of the labels left, prod_x (k_x + 1) states for a label x repeated k_x
#: times.  On a 2-vCPU host a unit takes 0.2-0.5 ms on average on the multiset
#: twin of benchmark/two_label_model.json (zeros written out), where the
#: largest admitted runs take up to 9 s, and 3 ms on a two-label multiset
#: model with no zero value; one unit of an 8-edge one-vertex cell takes
#: 0.13 s.  A degree model evaluates in closed form and plans no
#: elimination; its vacuum work is bounded by the edge limit.
EVALUATION_ELIMINATION_LIMIT = 10**4

#: Each verify suite and the edge count of the first cells it compares;
#: omega_alt takes its base cell (0, 1) from omega, so it compares from 1 on.
_FIRST_EDGES = {"graph-oracle": 0, "alt-recursion": 1, "sigma": 0}
VERIFY_SUITES = tuple(_FIRST_EDGES)


def parse_externals(text: str) -> Monomial:
    """Comma list of labels; the empty string means vacuum graphs."""
    if not text:
        return ONE
    labels = tuple(part.strip() for part in text.split(","))
    if "" in labels:
        raise ValueError(f"empty external label in {text!r}")
    return Monomial(labels)


def parse_range(text: str) -> tuple[int, int]:
    """Single integer "N" or inclusive range "A-B" with 0 <= A <= B."""
    invalid = f"invalid range {text!r}: expected N or A-B with 0 <= A <= B"
    first, dash, last = text.partition("-")
    try:
        lo = int(first)
        hi = int(last) if dash else lo
    except ValueError:
        raise ValueError(invalid) from None
    if hi < 0:  # "A--B"; a leading "-" leaves first empty
        raise ValueError(invalid)
    if lo > hi:
        raise ValueError(f"reversed range {text!r}")
    return lo, hi


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="feyngen",
        description="Generate, verify, evaluate and export connected Feynman graphs "
        "with exact symmetry-factor weights.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="generate weighted connected graphs")
    gen.add_argument("--loops", required=True, help="loop number N or range A-B")
    gen.add_argument("--vertices", help="vertex number N or range A-B "
                     "(default: up to the valence bound when --min-valence is set)")
    gen.add_argument("--externals", default="", help="comma list of external labels")
    gen.add_argument("--min-valence", type=int, default=0,
                     help="keep only graphs whose vertices have at least this valence (>= 3)")
    gen.add_argument("--max-loops", type=int, default=None,
                     help="the largest loop number --loops may reach: a run whose --loops "
                     "goes above it is refused; it changes neither the output nor the "
                     "work of a run it admits")
    gen.add_argument("--format", choices=("text", "json", "dot"), default="text")
    gen.add_argument("--output", default=None, help="output path (default stdout)")

    ver = sub.add_parser("verify", help="run engine-vs-oracle equivalence suites")
    ver.add_argument("--max-edges", type=int, default=3)
    ver.add_argument("--suite", choices=("all",) + VERIFY_SUITES, default="all")

    ev = sub.add_parser("evaluate", help="evaluate n-point grades in a finite model")
    ev.add_argument("--model", required=True, help="model JSON path")
    ev.add_argument("--loops", required=True, help="loop number N or range A-B")
    ev.add_argument("--vertices", required=True, help="vertex number N or range A-B")
    ev.add_argument("--externals", default="")
    ev.add_argument("--output", default=None)

    exp = sub.add_parser("export", help="convert an exported graph-sum JSON file")
    exp.add_argument("--input", required=True, help="graph-sum JSON path")
    exp.add_argument("--format", choices=("text", "json", "dot"), default="dot")
    exp.add_argument("--output", default=None)
    return parser


def _sorted_graphs(s: GraphSum):
    return sorted(s.items(), key=lambda item: (item[0].edges, item[0].externals))


def _render(graphs, fmt: str) -> str:
    if fmt == "json":
        from .records import graphs_to_json

        return graphs_to_json(graphs)
    if fmt == "dot":
        from .records import to_dot

        blocks = [to_dot(g, w, name=f"g{idx}") for idx, (g, w) in enumerate(graphs)]
        return "\n".join(blocks) + "\n" if blocks else ""
    lines = []
    for g, w in graphs:
        edges = " ".join(f"({a},{b})" for a, b in g.edges) or "-"
        ext = " ".join(f"{lab}->{vtx}" for lab, vtx in g.externals) or "-"
        lines.append(f"{format_weight(w)}  v={g.vertex_count}  edges: {edges}  externals: {ext}")
    return "\n".join(lines) + "\n" if lines else ""


def _check_cell_limit(l: int, v: int) -> None:
    """Refuse a run, before any work, whose largest generated cell (l, v) has
    more than GENERATION_EDGE_LIMIT edges; v < 1 generates no cell."""
    if v >= 1 and l + v - 1 > GENERATION_EDGE_LIMIT:
        raise ResourceLimitError(
            f"cell l={l} v={v} has {l + v - 1} edges, "
            f"above the limit of {GENERATION_EDGE_LIMIT}"
        )


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def cmd_generate(args) -> int:
    externals = parse_externals(args.externals)
    l_lo, l_hi = parse_range(args.loops)
    if args.min_valence and args.min_valence < 3:
        print("--min-valence must be 0 or at least 3", file=sys.stderr)
        return EXIT_USAGE
    if args.max_loops is not None and l_hi > args.max_loops:
        raise ValueError(f"--loops reaches {l_hi}, above max_loops {args.max_loops} (--max-loops)")
    if args.vertices is not None:
        v_lo, v_hi = parse_range(args.vertices)
    elif args.min_valence:
        v_lo, v_hi = 1, max(vertex_bound(externals.degree, l_hi, args.min_valence), 1)
    else:
        print("--vertices is required unless --min-valence is set", file=sys.stderr)
        return EXIT_USAGE
    _check_cell_limit(l_hi, v_hi)
    cells = [(l, v) for l in range(l_lo, l_hi + 1) for v in range(v_lo, v_hi + 1)]
    placements = sum([planned_placements(l, v, externals, args.min_valence, l_hi)
                      for l, v in cells])
    if placements > GENERATION_PLACEMENT_LIMIT:
        raise ResourceLimitError(f"the run places its labels {placements} times, "
                                 f"above the limit of {GENERATION_PLACEMENT_LIMIT}")
    collected = []
    for l, v in cells:
        s = min_valence_classes(l, v, externals, args.min_valence, l_hi)
        collected.extend(_sorted_graphs(s))
    _emit(_render(collected, args.format), args.output)
    return EXIT_OK


def cmd_verify(args) -> int:
    from .oracle import (
        DEFAULT_EDGE_LIMIT, verify_alt_recursion, verify_graph_oracle, verify_sigma,
    )

    suites = VERIFY_SUITES if args.suite == "all" else (args.suite,)
    for suite in suites:
        if args.max_edges < _FIRST_EDGES[suite]:
            print(f"--max-edges {args.max_edges} leaves the {suite} suite no cell to compare; "
                  f"it needs at least {_FIRST_EDGES[suite]}", file=sys.stderr)
            return EXIT_USAGE
    _check_cell_limit(args.max_edges, 1)
    if "graph-oracle" in suites and args.max_edges > DEFAULT_EDGE_LIMIT:
        raise ResourceLimitError(
            f"graph-oracle grid up to {args.max_edges} edges exceeds the "
            f"brute-force oracle's limit of {DEFAULT_EDGE_LIMIT}"
        )
    lines: list[str] = []
    ok = True
    runners = {
        "graph-oracle": verify_graph_oracle,
        "alt-recursion": verify_alt_recursion,
        "sigma": verify_sigma,
    }
    for suite in suites:
        ok = runners[suite](_FIRST_EDGES[suite], args.max_edges, lines) and ok
    print("\n".join(lines))
    print("all suites passed" if ok else "verification FAILED")
    return EXIT_OK if ok else EXIT_MISMATCH


def cmd_evaluate(args) -> int:
    from .evaluation import load_model, planned_eliminations, sigma_lv

    model = load_model(args.model)
    externals = parse_externals(args.externals)
    l_lo, l_hi = parse_range(args.loops)
    v_lo, v_hi = parse_range(args.vertices)
    _check_cell_limit(l_hi, v_hi)
    units = sum([planned_eliminations(model, l, v, externals)
                 for l in range(l_lo, l_hi + 1) for v in range(v_lo, v_hi + 1)])
    if units > EVALUATION_ELIMINATION_LIMIT:
        raise ResourceLimitError(f"the run eliminates {units} (vacuum class, label state) "
                                 f"pairs, above the limit of {EVALUATION_ELIMINATION_LIMIT}")
    lines = []
    for l in range(l_lo, l_hi + 1):
        total = None
        for v in range(v_lo, v_hi + 1):
            value = sigma_lv(model, l, v, externals)
            total = value if total is None else total + value
            lines.append(f"sigma[l={l},v={v}]({externals}) = {_format_scalar(value)}")
        lines.append(f"sigma[l={l}]({externals}) = {_format_scalar(total)}")
    _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK


def _format_scalar(value) -> str:
    if isinstance(value, Fraction):
        return format_weight(value)
    return repr(value)


def cmd_export(args) -> int:
    import json

    from .records import graph_from_dict

    with open(args.input) as fh:
        docs = json.load(fh, object_pairs_hook=_unique_keys(ValueError))
    if not isinstance(docs, list):
        raise ValueError(f"{args.input}: a graph-sum file is a JSON array of graph records")
    graphs = [graph_from_dict(doc) for doc in docs]
    graphs = [(g, w if w is not None else Fraction(1)) for g, w in graphs]
    _emit(_render(graphs, args.format), args.output)
    return EXIT_OK


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    handlers = {
        "generate": cmd_generate,
        "verify": cmd_verify,
        "evaluate": cmd_evaluate,
        "export": cmd_export,
    }
    try:
        return handlers[args.command](args)
    except ModelError as exc:
        print(f"invalid model: {exc}", file=sys.stderr)
        return EXIT_MODEL
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    raise SystemExit(main())
