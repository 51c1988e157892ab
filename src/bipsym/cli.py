"""Command-line interface.

Subcommands: classify, realize, verify, census.  All structured output is
canonical JSON on stdout (CSV optional for census); diagnostics go to
stderr.  Exit codes: 0 success, 2 parse/validation error or a file that
cannot be read or written, 3 out of theorem scope (n or m <= 2), 4 not
realizable, 5 certificate failure.

Realizability depends only on the cycle type, so ``classify``, ``census``
and every usage error are integer work.  Only the subcommands that build or
check an isometry import numpy (through ``geometry`` and ``verifier``):
``realize`` once the classifier has found a case, ``verify``, and
``census --realize-all``.  A process that needs no matrix never pays for
loading numpy.

``main()``, the entry point of the ``bipsym`` script and of ``python -m
bipsym.cli``, has those launches load numpy with one BLAS thread: it sets
``OPENBLAS_NUM_THREADS=1`` unless the user has set ``OPENBLAS_NUM_THREADS``,
``GOTO_NUM_THREADS`` or ``OMP_NUM_THREADS``, and a value the user sets wins.
``cli_main`` and ``import bipsym`` leave the environment and BLAS alone.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from ._version import __version__
from .census import census
from .classifier import Orientation, classify, classify_aut, dispatch_case
from .core import BipartiteShape, parse_cycles, signature
from .errors import BipsymError, NotRealizable, OutOfTheoremScope
from .jsonio import (
    canonical_json,
    certificate_to_obj,
    realization_from_obj,
    realization_to_obj,
    report_csv,
    report_to_obj,
    verdict_to_obj,
    write_text_atomic,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_SCOPE = 3
EXIT_NOT_REALIZABLE = 4
EXIT_CERT_FAIL = 5

# The variables OpenBLAS reads for its thread count, in the order it reads
# them.  The OpenBLAS bundled with numpy starts one thread per CPU when numpy
# is imported, yet bipsym's largest BLAS product is (K x 4) @ (4 x 4).  On 2
# CPUs `import numpy` takes 133-160 ms with that pool and 55-64 ms with one
# thread, which makes each `realize` and `verify` launch about 70 ms faster.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _graph_arg(text: str) -> BipartiteShape:
    try:
        n, m = (int(t) for t in text.split(","))
        return BipartiteShape(n, m)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"expected N,M with positive integers, got {text!r}"
        ) from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bipsym",
        description="Symmetries of complete bipartite graphs embedded in S^3",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="decide realizability of an automorphism")
    p.add_argument("--graph", type=_graph_arg, required=True, metavar="N,M")
    p.add_argument("--perm", required=True, help='cycle notation, e.g. "(v1 v2)(w1 w2)"')

    p = sub.add_parser("realize", help="construct and output an explicit isometry")
    p.add_argument("--graph", type=_graph_arg, required=True, metavar="N,M")
    p.add_argument("--perm", required=True)
    p.add_argument("--orientation", choices=("op", "or"), required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("-o", "--output", metavar="FILE", default=None)

    p = sub.add_parser("verify", help="check a realization JSON file")
    p.add_argument("file", metavar="FILE")
    p.add_argument("--tol", type=float, default=1e-9)

    p = sub.add_parser("census", help="classify the full automorphism group")
    p.add_argument("n", type=int)
    p.add_argument("m", type=int)
    p.add_argument("--realize-all", action="store_true")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument(
        "--seed",
        type=int,
        default=1,
        help="seed of the representatives' realizations under --realize-all",
    )
    return parser


def _cmd_classify(args) -> int:
    aut = parse_cycles(args.graph, args.perm)
    verdict = classify_aut(aut)
    print(canonical_json(verdict_to_obj(verdict)))
    return EXIT_OK


def _cmd_realize(args) -> int:
    aut = parse_cycles(args.graph, args.perm)
    sig = signature(aut)
    case = dispatch_case(classify(sig), Orientation(args.orientation))
    from .geometry import _realize

    iso, emb = _realize(aut, sig.r, case, args.seed)
    text = canonical_json(realization_to_obj(aut, iso, emb, case.label, args.seed))
    if args.output:
        write_text_atomic(args.output, text + "\n")
    else:
        print(text)
    return EXIT_OK


def _cmd_verify(args) -> int:
    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        print(f"error: cannot read {args.file}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    aut, iso, emb = realization_from_obj(obj)
    from .verifier import verify

    cert = verify(aut, iso, emb, tol=args.tol)
    print(canonical_json(certificate_to_obj(cert)))
    return EXIT_OK if cert.overall else EXIT_CERT_FAIL


def _cmd_census(args) -> int:
    shape = BipartiteShape(args.n, args.m)
    report = census(shape, realize_all=args.realize_all, seed=args.seed)
    if args.format == "csv":
        sys.stdout.write(report_csv(report))
    else:
        print(canonical_json(report_to_obj(report)))
    return EXIT_OK


def cli_main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    handlers = {
        "classify": _cmd_classify,
        "realize": _cmd_realize,
        "verify": _cmd_verify,
        "census": _cmd_census,
    }
    try:
        return handlers[args.command](args)
    except OutOfTheoremScope as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCOPE
    except NotRealizable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_REALIZABLE
    except (BipsymError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    # Only the process entry point may configure BLAS, and only before the
    # first import of numpy; a library call must not.
    if not any(var in os.environ for var in BLAS_THREAD_VARS):
        os.environ["OPENBLAS_NUM_THREADS"] = "1"
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
