"""Seeded input generator for the three benchmark workloads.

A workload is a list of *rounds*; a round is a fixed list of job templates
whose sizes are stratified, so every round costs about the same and the mix
of job kinds is identical from seed to seed.  The seed only picks the
instance: orders jittered inside each template's range, random band values,
fields, weight rules and recursion documents, and the order of jobs inside
a round.  The CLI sees nothing but the files written here and an argv.

Random specs always satisfy the block-reduction conditions: the block size
is a multiple of the period and at least the bandwidth, and the only
exceptional entry is the (1,1) corner, so ``block_reduce`` accepts them.
Every generated spec declares its ``block_size`` so the reference checker
knows the residue count of the weight rules without calling the package.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

WORKLOADS = {
    "certify": "annihilate on ex4.1/ex4.2 at orders 46-84, half over Q and half over a large F_p: "
    "time to a certified annihilator, dominated by the fixed-point route",
    "crosscheck": "series, verify-example, check-identity and oracle on fixtures and random "
    "fractional specs up to s=6: the 3^L walk oracle and both block routes over Fraction",
    "section5": "weighted and affine at orders 92-219 on fixtures and random specs: "
    "the standard-walk table u_table, whose memory grows as O(n^2 s^2)",
}

LARGE_PRIMES = (2**61 - 1, 2**31 - 1)
FRACTIONS = ("1/2", "-1/2", "1/3", "2/3", "-2/3", "3/2", "3/4", "-1/3")
SMALL_INTS = (1, 1, 1, 2, -1, 3)

# Block sizes of the built-in fixtures, as they declare them.
FIXTURE_BLOCK = {"ex4.1": 2, "ex4.2": 4, "ex4.3": 3, "ex5.12": 1}

ROUNDS = 16


class Job:
    """One CLI invocation: its argv and the command it runs."""

    __slots__ = ("jid", "argv")

    def __init__(self, jid: str, argv):
        self.jid = jid
        self.argv = list(argv)

    @property
    def command(self) -> str:
        return self.argv[0]


class _Writer:
    """Writes generated documents under one directory, numbering them."""

    def __init__(self, root: Path):
        self.root = root
        self.count = 0

    def put(self, kind: str, doc) -> str:
        self.count += 1
        path = self.root / f"{kind}{self.count:04d}.json"
        path.write_text(json.dumps(doc, sort_keys=True) + "\n", encoding="utf-8")
        return str(path)


# -- random documents ------------------------------------------------------------


def _scalar(rng: random.Random, fractional: bool):
    if fractional and rng.random() < 0.5:
        return rng.choice(FRACTIONS)
    return rng.choice(SMALL_INTS)


def random_spec(rng: random.Random, kind: str, block: int) -> dict:
    """A banded spec with block size ``block`` that block_reduce accepts.

    ``kind`` is "fraction" (Q with at least one true fraction) or "prime"
    (F_p for a 61-bit p).  The period (1-3) divides the block size; bands sit
    at -1/0/+1, plus an optional band at +-2 or +-3 that fits inside the
    block; the (1,1) entry may be overridden.  Fixing the block size per
    template keeps a template's cost about the same from seed to seed.
    """
    fractional = kind == "fraction"
    period = rng.choice([p for p in (1, 2, 3) if block % p == 0])
    offsets = [-1, 0, 1]
    extra = [o for o in (-3, -2, 2, 3) if abs(o) <= block]
    if extra and rng.random() < 0.7:
        offsets.append(rng.choice(extra))
    bands = []
    for off in offsets:
        if off in (-1, 1):
            values = [_scalar(rng, fractional) for _ in range(period)]
        else:
            values = [rng.choice((0, _scalar(rng, fractional))) for _ in range(period)]
        bands.append({"offset": off, "values": values})
    if fractional and not any(isinstance(v, str) for b in bands for v in b["values"]):
        bands[0]["values"][0] = rng.choice(FRACTIONS)
    doc = {
        "field": "rational" if fractional else {"prime": LARGE_PRIMES[0]},
        "period": period,
        "bands": bands,
        "block_size": block,
    }
    if rng.random() < 0.4:
        doc["exceptional"] = [{"i": 1, "j": 1, "value": _scalar(rng, fractional)}]
    return doc


def random_weight_rules(rng: random.Random, s: int) -> dict:
    """One eventually-polynomial rule per residue 1..s (degree <= 2)."""
    rules = []
    for i in range(1, s + 1):
        rules.append(
            {
                "residue": i,
                "initial": [_scalar(rng, True) for _ in range(rng.randint(0, 2))],
                "poly": [_scalar(rng, True) for _ in range(rng.randint(1, 3))],
            }
        )
    return {"weights": rules}


def random_recursion(rng: random.Random, s: int) -> dict:
    """Affine recursion with dimY in 1..3, small T, readout and forcing rules."""
    d = rng.randint(1, 3)
    return {
        "dimY": d,
        "T": [[rng.choice((0, 0, 1, 2, -1, 4)) for _ in range(d)] for _ in range(d)],
        "l": [rng.choice((1, 0, 2, -1)) for _ in range(d)],
        "y_rule": [random_weight_rules(rng, s) for _ in range(d)],
    }


# -- rounds ----------------------------------------------------------------------
#
# Each round has the same templates at about the same sizes, so the job-time
# distribution is the same from seed to seed.  Orders are either spread evenly
# over a range inside one round or jittered by a step or two around a centre.

def _near(rng: random.Random, centre: int, width: int = 2) -> int:
    return centre + rng.randint(-width, width)


def _spread(rng: random.Random, lo: int, hi: int, count: int):
    """``count`` orders evenly spaced over [lo, hi], each jittered by one."""
    step = (hi - lo) / (count - 1)
    return [min(hi, max(lo, round(lo + k * step) + rng.randint(-1, 1))) for k in range(count)]


def _certify_round(rng: random.Random, out: _Writer):
    """Eight annihilate jobs: four per fixture, half over Q and half over F_p.

    Orders are spread so ex4.1 (s=2) and ex4.2 (s=4) jobs cover one common
    range of job times, which keeps the distribution unimodal.  ex4.2 runs
    with --degz 5, which needs order 44 or more; ex4.1 alternates 5 and 7.
    """
    jobs = []
    for name, lo, hi, degz in (("ex4.1", 66, 84, [5, 5, 7, 7]), ("ex4.2", 46, 54, [5] * 4)):
        fields = [None, None, *LARGE_PRIMES]
        rng.shuffle(fields)
        rng.shuffle(degz)
        for order, prime, dz in zip(_spread(rng, lo, hi, 4), fields, degz):
            argv = [
                "annihilate", "--example", name, "--order", str(order),
                "--degx", "3", "--degz", str(dz),
            ]
            if prime:
                argv += ["--field", f"p:{prime}"]
            jobs.append(argv)
    return jobs


def _crosscheck_round(rng: random.Random, out: _Writer):
    """Every oracle-backed command, on fixtures and on random fractional specs.

    The oracle length moves cost in steps of three, so job times fall into
    two groups; eight of the eleven jobs are in the slower one, which keeps
    the median and the tail inside that group rather than on the gap.
    """
    jobs = [
        ["series", "--example", "ex4.1", "--order", str(_near(rng, 18))],
        ["series", "--example", "ex4.2", "--order", "9"],
        ["series", "--example", "ex4.3", "--order", "9"],
        ["verify-example", "ex4.1", "--order", str(_near(rng, 22))],
        ["verify-example", "ex5.12", "--order", str(_near(rng, 28))],
        ["check-identity", "--example", "ex4.2", "--order", str(_near(rng, 11, 1))],
        ["oracle", "--example", "ex4.2", "--length", "9"],
    ]
    # Walk enumeration costs about 3^L s^3 Fraction products, so the oracle
    # length falls as the block size grows.
    for cmd, block, size in (("series", 2, 9), ("series", 6, 6), ("oracle", 2, 9)):
        spec = out.put("spec", random_spec(rng, "fraction", block))
        flag = "--order" if cmd == "series" else "--length"
        jobs.append([cmd, "--spec", spec, flag, str(size)])
    spec = out.put("spec", random_spec(rng, "fraction", 3))
    jobs.append(["check-identity", "--spec", spec, "--order", "12", "--enum-length", "6"])
    return jobs


def _section5_round(rng: random.Random, out: _Writer):
    """Weighted and affine jobs at high order, on fixtures and random specs.

    Orders are sized so every template costs about the same, which keeps the
    job-time distribution unimodal and its median steady.
    """
    jobs = []
    for name, cmd, centre in (
        ("ex4.1", "weighted", 166),
        ("ex4.2", "affine", 105),
        ("ex5.12", "weighted", 217),
        ("ex4.3", "affine", 120),
    ):
        s = FIXTURE_BLOCK[name]
        if cmd == "weighted":
            extra = ["--weights", out.put("weights", random_weight_rules(rng, s))]
        else:
            extra = ["--recursion", out.put("recursion", random_recursion(rng, s))]
        jobs.append([cmd, "--example", name, "--order", str(_near(rng, centre, 4))] + extra)
    # u_table costs about n^2 s^3 operations on coefficients that grow with n,
    # faster over Q with fractions than over F_p.
    for kind, cmd, block, centre in (("prime", "weighted", 3, 138), ("fraction", "affine", 2, 96)):
        spec = random_spec(rng, kind, block)
        if cmd == "weighted":
            extra = ["--weights", out.put("weights", random_weight_rules(rng, block))]
        else:
            extra = ["--recursion", out.put("recursion", random_recursion(rng, block))]
        jobs.append([cmd, "--spec", out.put("spec", spec), "--order", str(_near(rng, centre, 4))]
                    + extra)
    return jobs


ROUND_BUILDERS = {
    "certify": _certify_round,
    "crosscheck": _crosscheck_round,
    "section5": _section5_round,
}


def generate(workload: str, seed: int, root: Path, rounds: int = ROUNDS):
    """Write the inputs of ``rounds`` rounds under ``root``; return the rounds of jobs."""
    if workload not in ROUND_BUILDERS:
        raise ValueError(f"unknown workload {workload!r}")
    root.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}:{seed}")
    out = _Writer(root)
    plan = []
    for r in range(rounds):
        argvs = ROUND_BUILDERS[workload](rng, out)
        rng.shuffle(argvs)
        plan.append([Job(f"r{r:02d}j{k:02d}", argv) for k, argv in enumerate(argvs)])
    return plan
