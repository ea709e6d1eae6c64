"""In-memory span recorder for the traced benchmark runs.

The recorder wraps public functions of the ``fnef`` layers from outside the
package: each wrapper replaces the function in every ``fnef`` module that
binds it, so calls nest the way the program really makes them
(``cone.fnef_check`` -> ``pairing.pairing_values`` -> ...).  Each span keeps
its name, start, end, parent span, run id, counters and the process peak
RSS at its end.  Spans stay in memory until ``write`` is called.

Run as a script it executes one traced ``fnef`` command in-process::

    PYTHONPATH=src python3 perfbench/spans.py --out spans.json -- verify --json

and exits with the command's exit code.
"""

from __future__ import annotations

import argparse
import contextvars
import functools
import json
import resource
import sys
import time
from contextlib import contextmanager


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _rows(args, kwargs, result, before):
    return {"n": args[0] if args else kwargs["n"], "rows": len(result)}


def _curves(args, kwargs, result, before):
    return {"curves": len(result)}


def _rank_before(args, kwargs):
    return args[0].rows_seen


def _rank_counts(args, kwargs, result, before):
    return {"rows_fed": args[0].rows_seen - before, "rank": int(result)}


def _rank_name(args, kwargs):
    return f"cone.rank.{args[0].p}"


#: (module, attribute, span name or name function, counters, snapshot).
#: The attribute may be ``Class.method``; names missing from the program
#: are reported as absent.
TARGETS = [
    ("fnef.subsets", "fcurve_block_arrays", "subsets.fcurve_block_arrays", _rows, None),
    ("fnef.divisors", "relation_system", "divisors.relation_system", None, None),
    ("fnef.divisors", "reduce_canonical", "divisors.reduce_canonical", None, None),
    ("fnef.divisors", "eliminate_psi", "divisors.eliminate_psi", None, None),
    ("fnef.divisors", "pullback_forgetful", "divisors.pullback_forgetful", None, None),
    ("fnef.pairing", "pairing_values", "pairing.pairing_values", _curves, None),
    ("fnef.cone", "fnef_check", "cone.fnef_check", None, None),
    ("fnef.cone", "extremality_rank", "cone.extremality_rank", None, None),
    ("fnef.cone", "projection_formula_report", "cone.projection_formula", None, None),
    ("fnef.cone", "ModpEliminator.add_pattern_rows", _rank_name, _rank_counts, _rank_before),
]


class Recorder:
    """Collects spans of one run; ``install`` wraps the layer functions."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.absent: list[str] = []
        self.paused = False
        self._parent: contextvars.ContextVar = contextvars.ContextVar("parent", default=None)

    @contextmanager
    def span(self, name: str):
        """Record one span; yields its counter dict."""
        if self.paused:
            yield {}
            return
        rec = {
            "id": len(self.spans),
            "name": name,
            "run": self.run_id,
            "parent": self._parent.get(),
            "start": time.perf_counter(),
            "end": None,
            "counters": {},
        }
        self.spans.append(rec)
        token = self._parent.set(rec["id"])
        try:
            yield rec["counters"]
        finally:
            self._parent.reset(token)
            rec["end"] = time.perf_counter()
            rec["peak_rss_mb"] = peak_rss_mb()

    @contextmanager
    def pause(self):
        """Calls made inside record no spans (the benchmark's own checks)."""
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    def _wrapper(self, original, name, counters, snapshot):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            span_name = name(args, kwargs) if callable(name) else name
            before = snapshot(args, kwargs) if snapshot else None
            with self.span(span_name) as counts:
                result = original(*args, **kwargs)
                if counters and not self.paused:
                    counts.update(counters(args, kwargs, result, before))
                return result

        return wrapper

    def install(self) -> None:
        """Wrap every target where the fnef modules look it up."""
        modules = [m for n, m in sys.modules.items() if n == "fnef" or n.startswith("fnef.")]
        for module_name, attr, name, counters, snapshot in TARGETS:
            owner = sys.modules.get(module_name)
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part, None)
            original = getattr(owner, leaf, None)
            if original is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            wrapper = self._wrapper(original, name, counters, snapshot)
            if path:
                setattr(owner, leaf, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"run": self.run_id, "absent": self.absent, "spans": self.spans}, fh)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="run one fnef command with spans recorded")
    ap.add_argument("--out", required=True, help="span file to write at the end")
    ap.add_argument("--run-id", default="cli")
    ap.add_argument("command", nargs=argparse.REMAINDER, help="-- then the fnef arguments")
    args = ap.parse_args(argv)
    command = args.command[1:] if args.command[:1] == ["--"] else args.command

    import fnef.cli

    rec = Recorder(args.run_id)
    rec.install()
    sys.argv = ["fnef", *command]
    try:
        code = fnef.cli.main(command)
    finally:
        sys.stdout.flush()
        rec.write(args.out)
    return code


if __name__ == "__main__":
    sys.exit(main())
