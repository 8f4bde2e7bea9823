"""Command-line front end: generate, run, suite, verify."""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict, List, Optional

from .corpus import builtin_corpus
from .experiments import (_ALGOS, _D_SOURCES, _FAMILIES, ExperimentError,
                          _as_int, build_instance, run_experiment, run_suite)
from .graphs import (_OUT_OF_RANGE, GraphError, _token_ints, _token_pieces,
                     girth, render_girth, write_graph)
from .oracles import is_independent, is_r_dominating

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_ERROR = 2


def _emit(obj: Dict) -> None:
    """Print one JSON line; every command ends with one, so it flushes."""
    print(json.dumps(obj, sort_keys=True), flush=True)


#: Parsed arguments that are not spec fields.
_NOT_SPEC = ("command", "func", "output")


def _spec_from_args(args) -> Dict:
    """Every flag given (or with a default) as its spec field.  ``--graph``
    names the file family unless ``--family`` is given too, and then
    ``build_instance`` refuses the spec, as it does an empty path."""
    spec = {key: value for key, value in vars(args).items()
            if value is not None and key not in _NOT_SPEC}
    if "graph" in spec:
        spec.setdefault("family", "file")
    return spec


def _m_arg(text: str):
    return text if text in ("exact", "family") else text.split(",")


def _int_arg(text: str) -> int:
    try:  # spelt as a spec's integer; argparse names the flag
        return _as_int(text, "")
    except ExperimentError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def cmd_generate(args) -> int:
    """Write the spec's graph and its sidecar.  ``r`` is a common spec
    field, the radius ``run`` checks at, but a graph file has none: only a
    family that reads ``r`` to build its graph takes ``--r`` here."""
    spec = _spec_from_args(args)
    family = spec.get("family")
    if "r" in spec and family is not None and (
            family not in _FAMILIES or "r" not in _FAMILIES[family][0]):
        raise ExperimentError("bad_spec", f"family {family!r} does not read 'r'")
    g, f_r = build_instance(spec)
    write_graph(g, args.output)
    sidecar = spec | {"n": g.vertex_count, "girth": render_girth(girth(g)),
                      "expansion_bound": f_r}
    with open(str(args.output) + ".json", "w", encoding="ascii") as fh:
        json.dump(sidecar, fh, sort_keys=True)
        fh.write("\n")
    _emit({"written": str(args.output), "n": g.vertex_count,
           "m": g.edge_count})
    return EXIT_OK


def cmd_run(args) -> int:
    result = run_experiment(_spec_from_args(args))
    _emit(result.to_dict())
    return EXIT_OK if result.passed else EXIT_CHECK_FAILED


def cmd_suite(args) -> int:
    if args.config == "" or (args.config is not None) == args.builtin:
        raise ExperimentError("bad_spec",
                              "pass either a config path or --builtin")
    if args.builtin:
        specs = builtin_corpus()
    else:
        with open(args.config, "r", encoding="utf-8") as fh:
            try:
                loaded = json.load(fh)
            except (ValueError, RecursionError) as exc:  # deep nesting
                raise ExperimentError(
                    "bad_input", f"config file {args.config}: {exc}") from None
        specs = loaded.get("experiments") if isinstance(loaded, dict) else loaded
        if not (isinstance(specs, list)
                and all(isinstance(spec, dict) for spec in specs)):
            raise ExperimentError(
                "bad_spec", 'config must be a list of spec objects or '
                            '{"experiments": [...]}')
    results, csv_text = run_suite(specs)
    if args.csv:
        with open(args.csv, "w", encoding="ascii") as fh:
            fh.write(csv_text)
    else:
        sys.stdout.write(csv_text)
    failures = [{"spec": res.spec, "failures": res.failures}
                for res in results if not res.passed]
    _emit({"experiments": len(results), "failed": len(failures),
           "failures": failures})
    return EXIT_OK if not failures else EXIT_CHECK_FAILED


def cmd_verify(args) -> int:
    dominating = args.check != "independent"
    if dominating and (args.r is None or args.r < 1):
        raise ExperimentError(
            "bad_spec", "--r >= 1 is required for the dominating check")
    if not dominating and args.r is not None:
        raise ExperimentError("bad_spec",
                              "--check independent does not read --r")
    g, _ = build_instance({"family": "file", "graph": args.graph})
    # Read a piece at a time, keeping the IDs in g and only the smallest of
    # the rest, so memory stays within n IDs and one piece.  Every token is
    # judged before an ID out of range is named.
    members, low, first = set(), None, 1
    with open(args.set, "rb") as fh:
        try:
            for tokens in _token_pieces(fh):
                for v in _token_ints(tokens, first):
                    if v in g:
                        members.add(v)
                    elif low is None or v < low:
                        low = v
                first += len(tokens)
            if low is not None:
                raise GraphError(_OUT_OF_RANGE.format(low, g.vertex_count))
        except GraphError as exc:
            raise ExperimentError("bad_input", f"set file {args.set}: {exc}") from None
    verdicts = {}
    if dominating:
        verdicts["dominating"] = is_r_dominating(g, members, args.r)
    if args.check != "dominating":
        verdicts["independent"] = is_independent(g, members)
    passed = all(verdicts.values())
    _emit({"n": g.vertex_count, "set_size": len(members), **verdicts, "pass": passed})
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def _add_family_args(parser) -> None:
    parser.add_argument("--family", choices=_FAMILIES)
    parser.add_argument("--graph", help="load a graph file instead of generating")
    readers: Dict[str, List[str]] = {}
    for family, (params, _, _) in _FAMILIES.items():
        for key in params:
            readers.setdefault(key, []).append(family)
    for key, families in readers.items():
        if key != "r":
            parser.add_argument(f"--{key}", type=_int_arg,
                                help=f"read by {', '.join(families)}")
    parser.add_argument("--r", type=_int_arg)


class _Parser(argparse.ArgumentParser):
    """Malformed arguments raise ``bad_spec`` instead of printing usage;
    subparsers inherit the class."""

    def error(self, message):
        raise ExperimentError("bad_spec", message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rdomsim",
        description="Distributed distance-r dominating set: simulation, "
                    "oracles, and approximation analysis.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("generate", help="write a graph file plus metadata sidecar")
    _add_family_args(p_gen)
    p_gen.add_argument("-o", "--output", required=True)
    p_gen.set_defaults(func=cmd_generate)

    p_run = sub.add_parser("run", help="run one experiment end to end")
    _add_family_args(p_run)
    p_run.set_defaults(r=1)
    p_run.add_argument("--algo", choices=_ALGOS, default="rmds")
    p_run.add_argument("--f-r", dest="f_r", type=_int_arg,
                       help="expansion bound f(r) used in the analysis")
    p_run.add_argument("--m", type=_m_arg,
                       help='"exact", "family", or comma-separated IDs')
    p_run.add_argument("--d-source", dest="d_source", choices=_D_SOURCES)
    p_run.add_argument("--allow-low-girth", action="store_true", default=None)
    p_run.set_defaults(func=cmd_run)

    p_suite = sub.add_parser("suite", help="run an experiment corpus")
    p_suite.add_argument("config", nargs="?", help="JSON corpus file")
    p_suite.add_argument("--builtin", action="store_true",
                         help="use the built-in acceptance corpus")
    p_suite.add_argument("--csv", help="write the aggregate CSV here")
    p_suite.set_defaults(func=cmd_suite)

    p_verify = sub.add_parser("verify", help="check predicates on graph + set files")
    p_verify.add_argument("--graph", required=True)
    p_verify.add_argument("--set", required=True,
                          help="file with whitespace-separated vertex IDs")
    p_verify.add_argument("--r", type=_int_arg)
    p_verify.add_argument("--check",
                          choices=["dominating", "independent", "both"],
                          default="both")
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """Run one command.  ``ExperimentError`` (its reason; ``bad_spec`` for
    malformed arguments) and ``OSError`` (``bad_input``) become one JSON
    error line and exit 2; any other exception is a bug and keeps its
    traceback.  A closed stdout ends the command with exit 2 and nothing
    more written, its error line included."""
    try:
        try:
            args = build_parser().parse_args(argv)
            return args.func(args)
        except ExperimentError as exc:
            _emit({"error": exc.reason, "detail": exc.detail})
        except OSError as exc:
            _emit({"error": "bad_input", "detail": str(exc)})
    except BrokenPipeError:
        # Send what is still buffered to the null device, so the
        # interpreter's exit-time flush of stdout has nowhere to fail.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
