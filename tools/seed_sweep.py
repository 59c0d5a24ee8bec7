#!/usr/bin/env python3
"""Sweep run seeds and count, for every claim, the seeds it fails at.

Usage:
  python3 tools/seed_sweep.py [--suites incidence] [--seeds 0-299]
                              [--expect-sha256 HEX]

Each seed is one `report.run` of the chosen suites at the default primes
31 and 61, as `verify run --seed N` would do it, in two worker processes.
For every claim id the sweep prints how many seeds gave `fail` and
`soft-fail`.  For every soft claim whose witness states a measured value
it also prints the range of that value over the seeds, the envelope the
claim holds it to (from the same probe function the claim uses) and the
margin: how close the value came to the nearer end of the envelope (for
the kernel rank band, the ranks seen).  After the table it prints one
SHA-256 over the (seed, claim id, status, witness) of every claim, seed
by seed, so two versions of the package can be compared claim for claim
over a whole seed range.  The exit status is 1 when any claim failed, or
when `--expect-sha256` is given and the digest differs from it.

Standard library only, apart from the package, imported from ./src of
the checkout this file sits in.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import multiprocessing
import re
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from pentangle import probe, report  # noqa: E402


def _claims_at(spec: tuple) -> list:
    """(id, status, witness) of every claim of one seeded run."""
    seed, suites = spec
    result = report.run(report.make_config(seed=seed, suites=suites))
    return [(c["id"], c["status"], c["witness"]) for c in result["claims"]]


def _numbers(pattern: str, witness: str) -> tuple:
    return tuple(map(int, re.match(pattern, witness).groups()))


def _density(p: int, witness: str):
    zeros, samples = _numbers(r"(\d+) zeros in (\d+) uniform", witness)
    return zeros, probe._density_envelope(samples, p)


def _full_scan(p: int, witness: str):
    zeros, total = _numbers(r"(\d+) singular directions among (\d+)", witness)
    return zeros, probe._factor_two_envelope(total, p)


def _rank_three(p: int, witness: str):
    return _numbers(r"(\d+) rank-three", witness)[0], probe._rank_three_envelope(p)


def _kernel_ranks(p: int, witness: str):
    """The ranks seen; the claim holds them to the set {3, 4}, which has no
    margin to report."""
    return frozenset(int(r) for r in re.findall(r"rank (\d+):", witness)), None


#: soft claims by the name part of their id, with the reader of their
#: witness: (measured value, (low, high) envelope or None for a set)
MEASURES = {
    "vanishing-density-tracks-the-hypersurface-heuristic": _density,
    "full-scan-vanishing-density-tracks-the-hypersurface-heuristic": _full_scan,
    "rank-three-locus-has-curve-scale": _rank_three,
    "sampled-kernel-ranks-stay-in-the-expected-band": _kernel_ranks,
}


def _measure(claim_id: str, witness: str):
    name, _, instance = claim_id.split(":", 1)[1].partition("@")
    reader = MEASURES.get(name)
    if reader is None:
        return None
    return reader(int(re.match(r"p(\d+)-", instance).group(1)), witness)


def _seed_range(text: str) -> range:
    low, _, high = text.partition("-")
    return range(int(low), int(high or low) + 1)


def sweep(seeds, suites) -> tuple[dict, str]:
    """Per claim id: [fails, soft-fails, measured values, envelope]; and
    the SHA-256 of the claims, one JSON line [seed, id, status, witness]
    per claim, in seed order."""
    specs = [(seed, suites) for seed in seeds]
    table: dict[str, list] = {}
    digest = hashlib.sha256()
    with multiprocessing.get_context("spawn").Pool(2) as pool:
        for seed, claims in zip(seeds, pool.imap(_claims_at, specs)):
            for claim_id, status, witness in claims:
                digest.update(json.dumps([seed, claim_id, status, witness]).encode() + b"\n")
                row = table.setdefault(claim_id, [0, 0, [], None])
                row[0] += status == "fail"
                row[1] += status == "soft-fail"
                measured = _measure(claim_id, witness)
                if measured is not None:
                    row[2].append(measured[0])
                    row[3] = measured[1]
    return table, digest.hexdigest()


def describe(table: dict, count: int) -> list:
    lines = [f"{count} seeds; fail and soft-fail counts per claim"]
    for claim_id, (fails, soft_fails, values, envelope) in table.items():
        line = f"{fails:4d} {soft_fails:4d}  {claim_id}"
        if values and envelope is None:
            line += f"\n           ranks seen {sorted(frozenset().union(*values))}"
        elif values:
            low, high = envelope
            margin = min(min(v - low for v in values), min(high - v for v in values))
            line += (f"\n           measured {min(values)}..{max(values)} in envelope "
                     f"[{low}, {high}], closest margin {margin}")
        lines.append(line)
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--suites", default="incidence",
                        help="comma-separated suites, or all (default: incidence)")
    parser.add_argument("--seeds", default="0-299", help="seed range LOW-HIGH")
    parser.add_argument("--expect-sha256", metavar="HEX",
                        help="the claims digest the sweep must print")
    args = parser.parse_args(argv)
    seeds = _seed_range(args.seeds)
    try:
        suites = report.make_config(suites="all" if args.suites == "all"
                                    else args.suites.split(",")).suites
    except ValueError as exc:
        parser.error(str(exc))
    table, digest = sweep(seeds, suites)
    print("\n".join(describe(table, len(seeds))))
    print(f"claims sha256 {digest}")
    differs = args.expect_sha256 is not None and digest != args.expect_sha256.lower()
    if differs:
        print(f"expected sha256 {args.expect_sha256}")
    return 1 if differs or any(row[0] for row in table.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
