"""Seeded op lists, per-op correctness checks and result digests.

Each workload is a fixed list of ops (one ``circdeg`` command each) drawn
from the seed.  The draws are balanced, not independent: every stratum of
the input space gets the same number of ops in every seed, and where the
cost of an op climbs steeply with an input the input is fixed, so that
seeds change which inputs run but barely change the cost profile of a pass.

The number theory here is the harness's own (trial division), so that the
expected census counts and the computed work sizes never share code with
the library under test.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import statistics
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

WORKLOADS = ("deg-oracle", "census", "reproduce")

# deg-oracle: a 12 x 10 grid of (modulus stratum, density stratum) cells.
DEG_N_RANGE = (48, 768)  # strata are log-uniform in this range
DEG_N_STRATA = 12
DEG_DENSITY_RANGE = (0.02, 0.5)  # share of the inverse pairs {s, n - s} in S
DEG_DENSITY_STRATA = 10

# census: every d in 2..14 gets the same number of ops; p < CENSUS_P_BOUND,
# the least bound that admits a prime for every d (73 for d = 12).  The
# costliest request, (53, 13), is a few percent of a pass.
CENSUS_DEGREES = range(2, 15)
CENSUS_OPS_PER_DEGREE = 6
CENSUS_P_BOUND = 74

# reproduce: tables of 3, 8, ..., 98 rows (fixed: a table's cost climbs
# steeply with its size and the median op is a table), and brute-force
# integral counts whose mask count 2^(tau(n)-1) spans 8 to 32768.
TABLE_OPS = 20
TABLE_D_MAX = 100
INTEGRAL_TAU_CLASSES = (4, 8, 12, 16)
INTEGRAL_OPS_PER_CLASS = 10
INTEGRAL_N_MAX = 400


@dataclass(frozen=True)
class Op:
    """One command: its arguments and the parameters the checks need."""

    kind: str  # "deg" | "census" | "table" | "integral"
    argv: tuple[str, ...]
    params: tuple


@lru_cache(maxsize=None)
def factor(n: int) -> tuple[tuple[int, int], ...]:
    out, p = [], 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        if e:
            out.append((p, e))
        p += 1
    if n > 1:
        out.append((n, 1))
    return tuple(out)


def phi(n: int) -> int:
    return math.prod((p - 1) * p ** (e - 1) for p, e in factor(n))


def tau(n: int) -> int:
    return math.prod(e + 1 for _, e in factor(n))


def mobius(n: int) -> int:
    f = factor(n)
    return 0 if any(e > 1 for _, e in f) else (-1) ** len(f)


def is_prime(n: int) -> bool:
    return n >= 2 and factor(n) == ((n, 1),)


def census_count(d: int) -> int:
    """Classes of degree-d circulants at prime order: sum mu(d/c) 2^c / d."""
    total = sum(mobius(d // c) * 2**c for c in range(1, d + 1) if d % c == 0)
    return total // d


def make_ops(workload: str, seed: int) -> list[Op]:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "deg-oracle":
        ops = _deg_oracle_ops(rng)
    elif workload == "census":
        ops = _census_ops(rng)
    elif workload == "reproduce":
        ops = _reproduce_ops(rng)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(ops)
    return ops


def _deg_oracle_ops(rng: random.Random) -> list[Op]:
    """One op per (modulus stratum, density stratum) cell.

    The grid is the same for every seed, because a 120-op sample of a
    cost that spans five orders of magnitude moves its 90th percentile by
    10% from seed to seed.  Within a modulus stratum the candidates are
    ranked by n * phi(n), the size of the power table; the first nine ops
    take the middle of each ninth of that ranking, and the tenth reuses one
    of those moduli (a power-table hit).  Densities sit at the middle of
    their strata.  The seed picks the tenth op's modulus, which
    round(density * n/2) inverse pairs form each S, and the order.
    """
    lo, hi = DEG_N_RANGE
    d_lo, d_hi = DEG_DENSITY_RANGE
    cells = DEG_DENSITY_STRATA
    ops = []
    for i in range(DEG_N_STRATA):
        first = math.ceil(lo * (hi / lo) ** (i / DEG_N_STRATA))
        stop = math.ceil(lo * (hi / lo) ** ((i + 1) / DEG_N_STRATA))
        ranked = sorted(range(first, stop), key=lambda n: (n * phi(n), n))
        moduli = [ranked[int((j + 0.5) * len(ranked) / (cells - 1))] for j in range(cells - 1)]
        moduli.append(rng.choice(moduli))
        for j, n in enumerate(moduli):
            # 3j mod 10 spreads densities across the table-size ranking.
            density = d_lo + ((3 * j) % cells + 0.5) / cells * (d_hi - d_lo)
            pairs = rng.sample(range(1, n // 2 + 1), max(1, round(density * (n // 2))))
            elems = sorted({s for h in pairs for s in (h, n - h)})
            symbol = f"{n}:" + ",".join(map(str, elems))
            ops.append(Op("deg", ("deg", symbol, "--oracle"), (n, tuple(elems), density)))
    return ops


def _census_ops(rng: random.Random) -> list[Op]:
    """CENSUS_OPS_PER_DEGREE ops per d, cycling through its admissible
    primes in ascending order; when there are more primes than ops the seed
    picks which.  Extra ops go to the smallest (cheapest) primes."""
    ops = []
    for d in CENSUS_DEGREES:
        primes = [
            p for p in range(3, CENSUS_P_BOUND) if is_prime(p) and ((p - 1) // 2) % d == 0
        ]
        if len(primes) > CENSUS_OPS_PER_DEGREE:
            primes = sorted(rng.sample(primes, CENSUS_OPS_PER_DEGREE))
        for k in range(CENSUS_OPS_PER_DEGREE):
            p = primes[k % len(primes)]
            ops.append(Op("census", ("census", str(p), str(d), "--witnesses"), (p, d)))
    return ops


def _reproduce_ops(rng: random.Random) -> list[Op]:
    ops = []
    width = TABLE_D_MAX // TABLE_OPS
    for k in range(TABLE_OPS):
        d_max = k * width + (width + 1) // 2
        ops.append(
            Op("table", ("table", str(d_max), "--check", "--format", "json"), (d_max,))
        )
    for t in INTEGRAL_TAU_CLASSES:
        pool = [n for n in range(1, INTEGRAL_N_MAX + 1) if tau(n) == t]
        for k in range(INTEGRAL_OPS_PER_CLASS):
            n = pool[int((k + rng.random()) * len(pool) / INTEGRAL_OPS_PER_CLASS)]
            ops.append(Op("integral", ("integral", str(n), "--brute"), (n,)))
    return ops


def _quartiles(values) -> dict[str, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"min": min(values), "q1": q1, "median": q2, "q3": q3, "max": max(values)}


def input_properties(workload: str, ops: list[Op]) -> dict:
    """What the workload's behaviour depends on, recorded with every result."""
    props: dict = {"ops_per_pass": len(ops)}
    if workload == "deg-oracle":
        seen: set[int] = set()
        repeats = 0
        for op in ops:
            repeats += op.params[0] in seen
            seen.add(op.params[0])
        props["repeated_modulus_share"] = repeats / len(ops)
        props["distinct_moduli"] = len(seen)
        props["modulus"] = _quartiles([op.params[0] for op in ops])
        props["valency"] = _quartiles([len(op.params[1]) for op in ops])
        props["density_drawn"] = _quartiles([op.params[2] for op in ops])
        props["density_realized"] = _quartiles(
            [len(op.params[1]) / (op.params[0] - 1) for op in ops]
        )
    elif workload == "census":
        props["ops_per_d"] = dict(sorted(Counter(op.params[1] for op in ops).items()))
        props["ops_per_p_d"] = {
            f"{p},{d}": c for (p, d), c in sorted(Counter(op.params for op in ops).items())
        }
    else:
        tables = [op.params[0] for op in ops if op.kind == "table"]
        integrals = [op.params[0] for op in ops if op.kind == "integral"]
        props["table_ops"] = len(tables)
        props["integral_ops"] = len(integrals)
        props["table_rows"] = _quartiles(tables)
        props["tau_histogram"] = dict(sorted(Counter(tau(n) for n in integrals).items()))
    return props


def check_output(op: Op, status, stdout: str) -> str | None:
    """Why the command's exit status or printed result is wrong, or None."""
    if status != 0:
        return f"exit status {status}"
    lines = stdout.splitlines()
    if op.kind == "deg":
        return None if "agree true" in lines else "no 'agree true' line"
    if op.kind == "census":
        p, d = op.params
        fields = dict(line.split(" ", 1) for line in lines if " " in line)
        witnesses = [line for line in lines if line.startswith(f"{p}:")]
        expected = census_count(d)
        if int(fields.get("count", -1)) != expected:
            return f"count {fields.get('count')} != Mobius count {expected}"
        if len(witnesses) != expected:
            return f"{len(witnesses)} witnesses != count {expected}"
        return None
    if op.kind == "table":
        rows = json.loads(stdout)
        if [row["d"] for row in rows] != list(range(1, op.params[0] + 1)):
            return "table rows are not d = 1..D"
        return None
    fields = dict(line.split(" ", 1) for line in lines if " " in line)
    if "brute" not in fields or fields["brute"] != fields.get("count"):
        return f"brute {fields.get('brute')} != count {fields.get('count')}"
    return None


def _parse_symbol(text: str) -> list[int]:
    head, _, tail = text.partition(":")
    return [int(head)] + [int(s) for s in tail.split(",") if s]


def envelope_is_for(op: Op, envelope) -> bool:
    """True if the cached envelope records this op's command and inputs."""
    inputs = envelope.inputs
    if envelope.command != op.kind:
        return False
    if op.kind == "deg":
        return inputs.get("symbol") == op.argv[1]
    if op.kind == "census":
        return [inputs.get("p"), inputs.get("d")] == list(op.params)
    if op.kind == "table":
        return inputs.get("d_max") == op.params[0]
    return inputs.get("n") == op.params[0]


def envelope_result(op: Op, envelope):
    """The mathematical result the op's envelope records, or None if it is
    internally inconsistent.  Leaves out formatting, timestamps and version."""
    out = envelope.output
    if op.kind == "deg":
        if out.get("degree") != out.get("oracle"):
            return None
        return [op.argv[1], out["degree"], out["fix_order"], out["valency"],
                out["connected"], out["integral"]]
    if op.kind == "census":
        return [*op.params, out["count"], sorted(_parse_symbol(w) for w in out["witnesses"])]
    if op.kind == "table":
        if not out.get("check_passed"):
            return None
        return [[r["d"], r["c"], r["p"], r["strict"], _parse_symbol(r["witness"])]
                for r in out["rows"]]
    if out.get("brute") != out.get("count"):
        return None
    return [op.params[0], out["count"]]


def digest(results: list) -> str:
    return hashlib.sha256(json.dumps(results, sort_keys=True).encode()).hexdigest()
