"""Command-line front end, result serialization, and the JSON-lines cache.

Subcommands: deg (degree report for one symbol), table (the C(d)/p_d table,
optionally checked against the embedded published copy), census (prime-order
isomorphism counts with optional witnesses), integral (connected integral
counts), verify (the fast or full verification suite).

Exit codes: 0 ok, 1 verification failure, 2 usage or malformed input (every
input the library rejects with ValueError, e.g. a modulus above 2^63 - 1, and
an unusable cache path: each command writes its envelope before any output),
3 internal disagreement between independent routes or a construction that
contradicts a computed result (ConstructionError), 4 golden-table mismatch.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
import time
from typing import Any, Iterable, Optional

from . import __version__
from .census import prime_census
from .circulant import (
    algebraic_degree,
    fixing_subgroup,
    is_connected,
    parse_connection_set,
)
from .cyclotomic import splitting_field_degree
from .golden import table_mismatch
from .integral import (
    as_integral_symbol,
    count_connected_integral,
    count_connected_integral_bruteforce,
)
from .mintable import TableRow, _table_orders, _witnessed
from .unitgroup import ConstructionError

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_DISAGREEMENT = 3
EXIT_GOLDEN_MISMATCH = 4

CACHE_ENV_VAR = "CIRCDEG_CACHE"


@dataclasses.dataclass(frozen=True)
class ResultEnvelope:
    """One cached command result; round-trips losslessly through JSON."""

    command: str
    inputs: dict[str, Any]
    output: Any
    library_version: str
    timestamp: int

    def to_json(self) -> str:
        # the fields as they are: dataclasses.asdict would deep-copy every value
        return json.dumps(vars(self), sort_keys=True)

    @staticmethod
    def from_json(line: str) -> "ResultEnvelope":
        data = json.loads(line)
        return ResultEnvelope(
            **{f.name: data[f.name] for f in dataclasses.fields(ResultEnvelope)}
        )


def append_cache(path: str, envelope: ResultEnvelope) -> None:
    """Append one envelope as a single line with one O_APPEND write.

    One write call on an O_APPEND descriptor lands as a whole at the end of
    the file, so lines from concurrent writers never interleave; a short
    write raises.
    """
    data = (envelope.to_json() + "\n").encode("utf-8")
    try:
        fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o666)
        try:
            written = os.write(fd, data)
        finally:
            os.close(fd)
    except OSError as exc:
        raise OSError(f"cannot append to cache {path}: {exc}") from exc
    if written != len(data):
        raise OSError(
            f"cannot append to cache {path}: wrote {written} of {len(data)} bytes"
        )


def read_cache(path: str) -> list[ResultEnvelope]:
    """All parseable envelopes in the cache; corrupt lines are skipped loudly."""
    if not os.path.exists(path):
        return []
    out = []
    try:
        with open(path, "rb") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    out.append(ResultEnvelope.from_json(line.decode("utf-8")))
                except (UnicodeDecodeError, json.JSONDecodeError, KeyError, TypeError):
                    print(
                        f"warning: skipping corrupt cache line {lineno} in {path}",
                        file=sys.stderr,
                    )
    except OSError as exc:
        raise OSError(f"cannot read cache {path}: {exc}") from exc
    return out


def _cache_result(args, command: str, inputs: dict[str, Any], output: Any) -> None:
    path = args.cache or os.environ.get(CACHE_ENV_VAR)
    if not path:
        return
    append_cache(
        path,
        ResultEnvelope(command, inputs, output, __version__, int(time.time())),
    )


def _row_dict(row: TableRow) -> dict[str, Any]:
    return {
        "d": row.d,
        "c": row.c_of_d,
        "p": row.p_d,
        "strict": row.strict,
        "witness": row.witness.encode(),
    }


def table_csv(rows: Iterable[TableRow]) -> str:
    """RFC-4180-style CSV; the witness field is quoted (it contains commas)."""
    lines = ["d,C(d),p_d,strict,witness"]
    for row in rows:
        strict = "true" if row.strict else "false"
        lines.append(
            f'{row.d},{row.c_of_d},{row.p_d},{strict},"{row.witness.encode()}"'
        )
    return "\n".join(lines) + "\n"


def cmd_deg(args) -> int:
    symbol = parse_connection_set(args.symbol)
    # The fixer scan refuses moduli over its int64 limit, and scans listing
    # too many candidate units, before any work.  It runs once: the second
    # call finds the result fixing_subgroup kept for this symbol object.
    degree = algebraic_degree(symbol)
    fix_order = len(fixing_subgroup(symbol))
    connected = is_connected(symbol)
    integral = as_integral_symbol(symbol)
    report = {
        "degree": degree,
        "fix_order": fix_order,
        "valency": symbol.valency(),
        "connected": connected,
        "integral": integral.encode() if integral is not None else None,
    }
    lines = [
        f"degree {degree}",
        f"fix-order {fix_order}",
        f"valency {symbol.valency()}",
        f"connected {'true' if connected else 'false'}",
        f"integral {integral.encode() if integral is not None else 'no'}",
    ]
    if args.oracle:
        # Before any output, so that a symbol over the oracle's size limit
        # prints no partial report.
        oracle = report["oracle"] = splitting_field_degree(symbol)
        lines.append(f"oracle {oracle}")
        if oracle != degree:  # the report is printed, and nothing cached
            print("\n".join(lines))
            print(
                f"error: eigenvalue degree {oracle} disagrees with formula {degree}",
                file=sys.stderr,
            )
            return EXIT_DISAGREEMENT
        lines.append("agree true")
    _cache_result(args, "deg", {"symbol": symbol.encode(), "oracle": args.oracle}, report)
    print("\n".join(lines))
    return EXIT_OK


def cmd_table(args) -> int:
    orders = _table_orders(args.d_max)
    # The check compares the sieved orders, before any witness is built,
    # so a mismatch prints no row and caches nothing.
    d_check = min(args.d_max, 100)
    if args.check:
        mismatch = table_mismatch(orders[:d_check], d_check)
        if mismatch is not None:
            print(
                f"error: computed table deviates from the published table: {mismatch}",
                file=sys.stderr,
            )
            return EXIT_GOLDEN_MISMATCH
    rows = _witnessed(orders)
    row_dicts = [_row_dict(r) for r in rows]
    _cache_result(
        args,
        "table",
        {"d_max": args.d_max, "format": args.format, "check": args.check},
        {"rows": row_dicts, "check_passed": True},
    )
    if args.format == "json":
        # = json.dumps(row_dicts, indent=2, sort_keys=True); witnesses keep the C encoder
        print("[\n" + ",\n".join(
            f'  {{\n    "c": {r["c"]},\n    "d": {r["d"]},\n    "p": {r["p"]},\n'
            f'    "strict": {"true" if r["strict"] else "false"},\n'
            f'    "witness": {json.dumps(r["witness"])}\n  }}' for r in row_dicts
        ) + "\n]")
    else:
        sys.stdout.write(table_csv(rows))
    if args.check:
        print(f"check ok: {d_check} rows match the published table", file=sys.stderr)
    return EXIT_OK


def cmd_census(args) -> int:
    record = prime_census(args.p, args.d)
    payload = {"count": record.value, "method": record.method}
    if args.witnesses:
        payload["witnesses"] = record.witnesses.encoded()
    _cache_result(
        args, "census", {"p": args.p, "d": args.d, "witnesses": args.witnesses}, payload
    )
    print(f"count {record.value}")
    print(f"method {record.method}")
    if payload.get("witnesses"):
        print("\n".join(payload["witnesses"]))
    elif args.witnesses:
        print("note: witnesses are not materialized for this degree", file=sys.stderr)
    return EXIT_OK


def cmd_integral(args) -> int:
    # Both counts before any output, so that a refused enumeration prints
    # no partial result.
    count = count_connected_integral(args.n)
    brute = count_connected_integral_bruteforce(args.n) if args.brute else None
    payload: dict[str, Any] = {"count": count}
    if args.brute:
        payload["brute"] = brute
    _cache_result(args, "integral", {"n": args.n, "brute": args.brute}, payload)
    print(f"count {count}")
    if args.brute:
        print(f"brute {brute}")
        if brute != count:
            print(
                f"error: enumeration {brute} disagrees with formula {count}",
                file=sys.stderr,
            )
            return EXIT_DISAGREEMENT
    return EXIT_OK


def cmd_verify(args) -> int:
    from . import verify

    suite = verify.fast_suite if args.suite == "fast" else verify.full_suite
    results = suite()
    failures = [result.name for result in results if not result.passed]
    summary = {
        "suite": args.suite,
        "passed": not failures,
        "failures": failures,
        "checks": [
            {"name": r.name, "passed": r.passed, "seconds": round(r.seconds, 3)}
            for r in results
        ],
    }
    _cache_result(args, "verify", {"suite": args.suite}, summary)
    for result in results:
        tag = "PASS" if result.passed else "FAIL"
        print(f"{tag} {result.name} ({result.seconds:.2f}s): {result.detail}")
    print(f"{'ok' if not failures else 'FAILED'}: {len(results) - len(failures)}/{len(results)} checks passed")
    return EXIT_OK if not failures else EXIT_VERIFY_FAILED


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The circdeg parser, built on first use and shared by every call."""
    parser = argparse.ArgumentParser(
        prog="circdeg",
        description="Algebraic degree of circulant graphs: degrees, censuses, tables.",
    )
    parser.add_argument(
        "--cache",
        metavar="PATH",
        default=None,
        help=f"JSON-lines result cache (also via ${CACHE_ENV_VAR})",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_deg = sub.add_parser("deg", help="degree report for one connection set")
    p_deg.add_argument("symbol", help="connection set as n:s1,s2,...")
    p_deg.add_argument(
        "--oracle",
        action="store_true",
        help="also compute the eigenvalue-based degree and compare",
    )
    p_deg.set_defaults(func=cmd_deg)

    p_table = sub.add_parser("table", help="minimal-order table for degrees 1..d_max")
    p_table.add_argument("d_max", type=int)
    p_table.add_argument("--format", choices=("csv", "json"), default="csv")
    p_table.add_argument(
        "--check",
        action="store_true",
        help="compare against the embedded published table (d <= 100)",
    )
    p_table.set_defaults(func=cmd_table)

    p_census = sub.add_parser("census", help="isomorphism count at an odd prime order")
    p_census.add_argument("p", type=int, help="odd prime order")
    p_census.add_argument("d", type=int, help="target degree, d | (p-1)/2, d > 1")
    p_census.add_argument(
        "--witnesses", action="store_true", help="print one canonical witness per class"
    )
    p_census.set_defaults(func=cmd_census)

    p_integral = sub.add_parser(
        "integral", help="count connected integral circulant graphs of order n"
    )
    p_integral.add_argument("n", type=int)
    p_integral.add_argument(
        "--brute", action="store_true", help="cross-check by enumerating all symbols"
    )
    p_integral.set_defaults(func=cmd_integral)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", choices=("fast", "full"))
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConstructionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DISAGREEMENT
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
