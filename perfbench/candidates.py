"""The candidates12 worker: screen a seeded stream of n=12 candidate divisors.

Each candidate is the biplane divisor with its markings relabelled by a
random permutation; every third one also gets a random multiple of a random
pair relation added.  The stream comes in batches of ``BATCH`` candidates.
Set-up (biplane, the n=12 partition array, the n=12 relation system) is paid
once and timed on its own; then every candidate goes through ``fnef_check``
and ``reduce_canonical``, timed per candidate (wall and process CPU).  The
checks (the oracle pairing at the reported minimiser, and the reduction of
the unshifted relabelling) run outside the timed region.

With ``--seconds S`` the worker screens batch 0 as an untimed warm-up, then
batches 1, 2, ... until S seconds have passed, and times a host-speed
calibration sample between batches.  With ``--batches N`` it screens
batches 0..N-1 (the traced run).  With neither it times the set-up alone.

Prints one JSON object on stdout.  Run from the repository root::

    PYTHONPATH=src python3 perfbench/candidates.py --seed 1 --batches 1
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time

THREADS = 1  # as in run.py: the worker runs pinned to one vCPU
#: Candidates per batch; with every third one shifted, each batch holds the
#: same mix (8 relabellings, 4 relation-shifted).
BATCH = 12
PAIR_MULTIPLES = (-3, -2, -1, 1, 2, 3)


def candidate_specs(seed: int, batch: int, count: int = BATCH) -> list[dict]:
    """One batch of the seeded candidate stream: a marking permutation per
    candidate, and for every third one a pair relation (i, j) with a nonzero
    multiple."""
    rng = random.Random(seed * 1_000_003 + batch)
    specs = []
    for k in range(count):
        spec = {"perm": rng.sample(range(1, 13), 12)}
        if k % 3 == 2:
            i, j = sorted(rng.sample(range(1, 13), 2))
            spec["relation"] = [i, j, rng.choice(PAIR_MULTIPLES)]
        specs.append(spec)
    return specs


def relabel(d, perm: list[int]):
    """The divisor with marking m renamed perm[m-1]."""
    from fnef.divisors import DivisorClass
    from fnef.subsets import elements_from_mask

    def image(mask: int) -> int:
        out = 0
        for m in elements_from_mask(mask):
            out |= 1 << (perm[m - 1] - 1)
        return out

    return DivisorClass.from_terms(d.n, ((image(mask), c) for mask, c in d.coeffs.items()))


def set_up():
    """What a screening process pays once: returns (biplane, seconds)."""
    from fnef import biplane, divisors, subsets

    t0 = time.perf_counter()
    bp = biplane.build_biplane_qr()
    subsets.fcurve_block_arrays(12)
    divisors.relation_system(12)
    return bp, time.perf_counter() - t0


def screen(specs: list[dict], bp, batch: int, recorder=None) -> list[dict]:
    """Time fnef_check + reduce_canonical per candidate; check each one."""
    from contextlib import nullcontext

    from fnef import cone, divisors, pairing

    untraced = recorder.pause if recorder else nullcontext
    base = divisors.biplane_divisor(bp)
    results = []
    for spec in specs:
        out = {"batch": batch, "shifted": "relation" in spec}
        try:
            with untraced():
                plain = relabel(base, spec["perm"])
                cand = plain
                if "relation" in spec:
                    i, j, mult = spec["relation"]
                    cand = plain + mult * divisors.relation_row(i, j, 12)
            t0, c0 = time.perf_counter(), time.process_time()
            rep = cone.fnef_check(cand, threads=THREADS)
            reduced = divisors.reduce_canonical(cand)
            out["ms"] = (time.perf_counter() - t0) * 1e3
            out["cpu_ms"] = (time.process_time() - c0) * 1e3
            with untraced():
                out["min_value"] = rep.min_value
                out["zero_count"] = rep.zero_count
                out["oracle"] = pairing.pair_divisor_fcurve(cand, rep.argmin)
                out["reduced_matches"] = reduced == (
                    divisors.reduce_canonical(plain) if "relation" in spec else reduced
                )
        except Exception as exc:  # one bad candidate must not stop the screen
            out["error"] = repr(exc)
        results.append(out)
    return results


def timed_screen(seed: int, seconds: float, bp) -> tuple[list[dict], list[float]]:
    """Warm-up batch 0, then timed batches 1..B until ``seconds`` have
    passed.  Returns the results and B+1 calibration samples: sample b-1 is
    timed just before batch b, and sample B just after the last batch."""
    from calibrate import Calibration

    calibration = Calibration()
    calibration.sample()  # first touch of its arrays, not kept
    results = screen(candidate_specs(seed, 0), bp, 0)
    calibration.samples.clear()
    t0 = time.monotonic()
    batch = 1
    while batch == 1 or time.monotonic() - t0 < seconds:
        calibration.sample()
        results += screen(candidate_specs(seed, batch), bp, batch)
        batch += 1
    calibration.sample()
    return results, calibration.samples


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    mode = ap.add_mutually_exclusive_group()
    mode.add_argument("--seconds", type=float, help="screen timed batches for this long")
    mode.add_argument("--batches", type=int, default=0, help="screen this many batches, untimed")
    ap.add_argument("--spans", metavar="FILE", help="record spans and write them here")
    args = ap.parse_args(argv)

    import fnef  # noqa: F401  (loads every layer before the wrappers go in)

    recorder = None
    if args.spans:
        from spans import Recorder

        recorder = Recorder(f"candidates12-{args.seed}")
        recorder.install()
    bp, setup_s = set_up()
    out = {"seed": args.seed, "setup_s": setup_s}
    if args.seconds is not None:
        out["candidates"], out["calibration_s"] = timed_screen(args.seed, args.seconds, bp)
    else:
        out["candidates"] = [
            c for b in range(args.batches)
            for c in screen(candidate_specs(args.seed, b), bp, b, recorder)
        ]
    if recorder:
        recorder.write(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
