"""Benchmark runner for fnef: end-to-end times of the commands people run,
checked against the exact headline numbers, plus a traced run for per-layer
spans.  See perfbench/README.md for the workloads and metrics.

Run one workload from the repository root::

    python3 perfbench/run.py --workload verify12 --seed 1 --seconds 15 --trace 0

The last line of stdout is the summary: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The full report (environment, seed, raw samples,
failure messages) is written under perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from calibrate import CALIBRATION_S, Calibration, ModularCalibration
from candidates import BATCH

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
#: The host's two vCPUs run at different speeds that drift apart and back
#: by a third within minutes, so the runner pins itself, its calibration and
#: every child to one vCPU, and the program runs with one thread.
THREADS = 1
PRIMES = (2147483629, 2147483647)
SETUP_SAMPLES = 7
#: Batches of the traced candidates12 run (the timed run screens as many as
#: fit in --seconds).
TRACE_BATCHES = 4
TIME_LIMIT_S = 170.0
#: A run of extremal12 lasts about 50 s, far longer than the calibration
#: samples taken before it, so its run is calibrated by samples taken every
#: DURING_S while it runs (about 1.5% of the vCPU), timed in thread CPU time.
DURING_S = 4.0

FNEF = [sys.executable, "-m", "fnef.cli"]

#: Expected exact values, by dotted path into the command's JSON report.
CLI_WORKLOADS = {
    "verify12": {
        "argv": ["verify", "--json", "--threads", str(THREADS)],
        "expect": {
            "exit": 0,
            "fnef.n": 12,
            "fnef.min_value": 0,
            "fnef.zero_count": 124366,
            "fnef.nonnegative": True,
            "functional_boundary_min": 0,
            "canonical_pairing": 13,
            "divisor_pairing": -1,
            "certificate.certified_with_canonical": True,
            "decomposition_equal": True,
            "verdict": True,
        },
    },
    "extremal12": {
        "argv": ["extremal", "--json", "--threads", str(THREADS)],
        "expect": {
            "exit": 0,
            "ambient_dim": 1981,
            "zero_set_size": 124366,
            **{f"rank_mod_p.{p}": 1980 for p in PRIMES},
            "certified_extremal": True,
        },
    },
    "pullback13": {
        "argv": ["pullback", "--scan", "--spot-check", "100000", "--json",
                 "--threads", str(THREADS), "--out", "{out}"],
        "expect": {
            "exit": 0,
            "n": 13,
            "fnef.n": 13,
            "fnef.min_value": 0,
            "fnef.nonnegative": True,
            "fnef.zero_count": 583990,
            "projection_formula.total": 100000,
            "projection_formula.mismatches": 0,
            "out_file.n": 13,
        },
    },
}
CANDIDATE_EXPECT = {"min_value": 0, "zero_count": 124366, "oracle": 0, "reduced_matches": True}
WORKLOADS = [*CLI_WORKLOADS, "candidates12"]


def sample_every(stop: threading.Event, sample) -> None:
    """Call ``sample`` every DURING_S until ``stop`` is set."""
    while not stop.wait(DURING_S):
        sample()


class Child:
    """One child process, timed from spawn to exit, with its own rusage."""

    def __init__(self, cmd: list[str], deadline: float, tag: str, sample_during=None):
        tmp = RESULTS / "tmp"
        tmp.mkdir(parents=True, exist_ok=True)
        out_path, err_path = tmp / f"{tag}.out", tmp / f"{tag}.err"
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
        )
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
            timer = threading.Timer(
                max(1.0, deadline - time.monotonic()), os.kill, (proc.pid, signal.SIGKILL)
            )
            timer.start()
            stop = threading.Event()
            sampler = (threading.Thread(target=sample_every, args=(stop, sample_during))
                       if sample_during else None)
            if sampler:
                sampler.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
                stop.set()
            self.wall_s = time.perf_counter() - t0
            if sampler:
                sampler.join()
        proc.returncode = self.code = os.waitstatus_to_exitcode(status)
        self.cpu_s = usage.ru_utime + usage.ru_stime
        self.peak_rss_mb = usage.ru_maxrss / 1024
        self.stdout = out_path.read_text(encoding="utf-8", errors="replace")
        self.stderr = err_path.read_text(encoding="utf-8", errors="replace")[-2000:]
        out_path.unlink()
        err_path.unlink()

    def json(self):
        """The child's JSON output, or None when it printed none."""
        try:
            return json.loads(self.stdout)
        except json.JSONDecodeError:
            return None


def lookup(report, path: str):
    node = report
    for part in path.split("."):
        if not isinstance(node, dict) or part not in node:
            return "<missing>"
        node = node[part]
    return node


def mismatches(report, expect: dict) -> list[str]:
    """Every expected value that the report does not reproduce exactly."""
    bad = []
    for path, want in expect.items():
        got = lookup(report, path)
        if got != want or type(got) is not type(want):
            bad.append(f"{path}: expected {want!r}, got {got!r}")
    return bad


class Bench:
    def __init__(self, workload: str, seed: int, expect_override: dict):
        self.workload = workload
        self.seed = seed
        self.deadline = time.monotonic() + TIME_LIMIT_S
        self.override = expect_override
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.children = 0
        self.calibration = Calibration()
        #: extremal12's runs are calibrated by samples taken while they run
        self.during_calibration = ModularCalibration() if workload == "extremal12" else None

    def spawn(self, cmd: list[str], during: bool = False) -> Child:
        self.children += 1
        self.calibration.sample()
        sample = (lambda: self.during_calibration.sample(time.thread_time)) if during else None
        return Child(cmd, self.deadline, f"{self.workload}-{os.getpid()}-{self.children}", sample)

    def fail(self, what: str, problems: list[str], ops: int = 1) -> None:
        self.failed += ops
        self.failures.append(f"{what}: " + "; ".join(problems))

    # -- CLI workloads -------------------------------------------------

    def cli_argv(self, out: Path) -> list[str]:
        return [a.replace("{out}", str(out)) for a in CLI_WORKLOADS[self.workload]["argv"]]

    def check_cli(self, child: Child, out: Path) -> None:
        self.attempted += 1
        report = child.json()
        if report is None:
            self.fail("run", [f"exit {child.code}, no JSON report", child.stderr.strip()])
            return
        report["exit"] = child.code
        if out.exists():
            report["out_file"] = json.loads(out.read_text(encoding="utf-8"))
            out.unlink()
        expect = {**CLI_WORKLOADS[self.workload]["expect"], **self.override}
        problems = mismatches(report, expect)
        if problems:
            self.fail("run", problems)

    def cli_run(self, traced_spans: Path | None = None, during: bool = False) -> Child:
        out = RESULTS / "tmp" / f"out-{os.getpid()}-{self.children}.json"
        argv = self.cli_argv(out)
        if traced_spans is None:
            cmd = FNEF + argv
        else:
            cmd = [sys.executable, str(HERE / "spans.py"), "--out", str(traced_spans),
                   "--run-id", f"{self.workload}-{self.seed}", "--", *argv]
        child = self.spawn(cmd, during)
        self.check_cli(child, out)
        return child

    # -- candidates12 ----------------------------------------------------

    def candidates_run(self, mode: list[str], traced_spans: Path | None = None):
        """One candidates12 worker; ``mode`` is ``--seconds S`` or ``--batches N``."""
        cmd = [sys.executable, str(HERE / "candidates.py"), "--seed", str(self.seed), *mode]
        if traced_spans is not None:
            cmd += ["--spans", str(traced_spans)]
        child = self.spawn(cmd)
        out = child.json()
        if child.code != 0 or out is None or not out["candidates"]:
            self.attempted += BATCH
            self.fail("worker", [f"exit {child.code}", child.stderr.strip()], ops=BATCH)
            return child, None
        expect = {**CANDIDATE_EXPECT, **self.override}
        for cand in out["candidates"]:
            self.attempted += 1
            problems = [cand["error"]] if "error" in cand else mismatches(cand, expect)
            if problems:
                self.fail(f"candidate {cand['batch']}", problems)
        return child, out

    # -- measurement -----------------------------------------------------

    def setup_samples(self) -> list[float]:
        """Set-up times; a set-up that fails counts as a failed operation."""
        if self.workload == "candidates12":
            cmd = [sys.executable, str(HERE / "candidates.py"), "--seed", str(self.seed)]
        else:
            cmd = FNEF + ["--version"]
        samples = []
        for _ in range(SETUP_SAMPLES):
            child = self.spawn(cmd)
            out = child.json() if self.workload == "candidates12" else {"setup_s": child.wall_s}
            if child.code != 0 or out is None:
                self.attempted += 1
                self.fail("set-up", [f"exit {child.code}", child.stderr.strip()])
            else:
                samples.append(out["setup_s"])
        return samples

    def measure(self, seconds: float) -> tuple[dict, dict]:
        setup = self.setup_samples() or [0.0]
        if self.workload == "candidates12":
            runs, op_ms, extra = self.measure_candidates(seconds)
        else:
            runs, op_ms, extra = self.measure_cli(seconds)
        # every run failed outright: report zeros, the summary says incorrect
        runs = runs or [(0.0, 0.0, 0.0, 0)]
        op_ms = op_ms or [0.0, 0.0]
        wall, cpu, rss, ops = zip(*runs)
        rate = [n / w for w, n in zip(wall, ops) if w > 0] or [0.0]
        setup_speed = self.calibration.factor()
        metrics = {
            "wall_s": (statistics.median(wall), "s"),
            "cpu_s": (statistics.median(cpu), "s"),
            "peak_rss_mb": (statistics.median(rss), "MB"),
            "setup_s": (setup_speed * statistics.median(setup), "s"),
            "ops_per_s": (statistics.median(rate), "1/s"),
            "op_ms_p50": (statistics.median(op_ms), "ms"),
        }
        samples = {
            "setup_speed_factor": setup_speed,
            "calibration_s": self.calibration.samples,
            "runs": len(runs),
            "ops": len(op_ms),
            # too few samples on the CLI workloads to be steady, so report-only
            "op_ms_p90": percentile(op_ms, 90),
            "setup": len(setup),
            "wall_s": list(wall),
            "cpu_s": list(cpu),
            "peak_rss_mb": list(rss),
            "setup_s": setup,
            **extra,
        }
        return metrics, samples

    def measure_cli(self, seconds: float):
        """Complete runs, one fresh process each, until ``seconds`` have
        passed.  Each run is calibrated by the mean of the samples timed
        just before and just after it, so drift within the run is tracked;
        extremal12's one long run by the samples taken while it ran."""
        children, before = [], []
        t0 = time.monotonic()
        while True:
            children.append(self.cli_run(during=self.during_calibration is not None))
            before.append(len(self.calibration.samples) - 1)
            now = time.monotonic()
            if now - t0 >= seconds or now + 1.5 * children[-1].wall_s > self.deadline:
                break
        if self.during_calibration:
            f = self.during_calibration.factor()
            factors = [f] * len(children)
            extra = {"during_calibration_s": self.during_calibration.samples}
        else:
            self.calibration.sample()  # after the last run
            cal = self.calibration.samples
            factors = [CALIBRATION_S / ((cal[k] + cal[k + 1]) / 2) for k in before]
            extra = {"run_speed_factors": factors}
        runs = [(f * c.wall_s, f * c.cpu_s, c.peak_rss_mb, 1) for f, c in zip(factors, children)]
        return runs, [r[0] * 1e3 for r in runs], extra

    def measure_candidates(self, seconds: float):
        """One warm worker screening timed batches for ``seconds``; a run is
        one batch.  Each batch is calibrated by the mean of the two samples
        the worker timed next to it, in its own process, so drift within the
        run is tracked too."""
        child, out = self.candidates_run(["--seconds", str(seconds)])
        if out is None:
            return [], [], {}
        batches: dict[int, list[dict]] = {}
        for cand in out["candidates"]:
            if cand["batch"] > 0 and "ms" in cand:
                batches.setdefault(cand["batch"], []).append(cand)
        cal = out["calibration_s"]
        runs, op_ms, factors = [], [], []
        for b, cands in sorted(batches.items()):
            f = CALIBRATION_S / ((cal[b - 1] + cal[b]) / 2)
            factors.append(f)
            runs.append((f * sum(c["ms"] for c in cands) / 1e3,
                         f * sum(c["cpu_ms"] for c in cands) / 1e3, child.peak_rss_mb, len(cands)))
            op_ms += [f * c["ms"] for c in cands]
        extra = {"batch_speed_factors": factors, "worker_calibration_s": cal,
                 "worker_wall_s": child.wall_s}
        return runs, op_ms, extra

    def trace(self) -> tuple[dict, dict]:
        """One untraced and one traced run of the same inputs."""
        spans_path = RESULTS / f"spans-{self.workload}-seed{self.seed}.json"
        if spans_path.exists():
            spans_path.unlink()
        if self.workload == "candidates12":
            batches = ["--batches", str(TRACE_BATCHES)]
            plain, _ = self.candidates_run(batches)
            traced, _ = self.candidates_run(batches, spans_path)
        else:
            plain = self.cli_run()
            traced = self.cli_run(spans_path)
        if not spans_path.exists():
            self.fail("traced run", [f"no span file (exit {traced.code})", traced.stderr.strip()])
            dump = {"spans": [], "absent": []}
        else:
            dump = json.loads(spans_path.read_text(encoding="utf-8"))
        metrics = layer_metrics(dump, traced.wall_s, plain.wall_s)
        samples = {"untraced_wall_s": plain.wall_s, "traced_wall_s": traced.wall_s,
                   "spans_file": str(spans_path.relative_to(ROOT)), "absent": dump["absent"]}
        return metrics, samples


def percentile(values: list[float], pct: int) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def layer_metrics(dump: dict, traced_wall: float, untraced_wall: float) -> dict:
    """Per-layer metrics from one run's spans: self times (a span minus the
    part its child spans cover), counters and per-layer peak RSS."""
    spans = dump["spans"]
    child_time = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]

    def self_s(name: str) -> float:
        return sum(s["end"] - s["start"] - child_time[s["id"]] for s in spans if s["name"] == name)

    def counter(name: str, key: str) -> int:
        return sum(s["counters"].get(key, 0) for s in spans if s["name"] == name)

    def peak(layer: str) -> float:
        return max((s["peak_rss_mb"] for s in spans if s["name"].startswith(layer + ".")), default=0.0)

    rows_by_n = {}
    for s in spans:
        if s["name"] == "subsets.fcurve_block_arrays":
            rows_by_n.setdefault(s["counters"]["n"], s["counters"]["rows"])
    scan_s = self_s("pairing.pairing_values")
    curves = counter("pairing.pairing_values", "curves")
    top_level = sum(s["end"] - s["start"] for s in spans if s["parent"] is None)
    m = {
        "subsets.fcurve_block_arrays_s": (self_s("subsets.fcurve_block_arrays"), "s"),
        "subsets.rows": (sum(rows_by_n.values()), "count"),
        "divisors.relation_system_s": (self_s("divisors.relation_system"), "s"),
        "divisors.reduce_canonical_s": (self_s("divisors.reduce_canonical"), "s"),
        "divisors.eliminate_psi_s": (self_s("divisors.eliminate_psi"), "s"),
        "divisors.pullback_forgetful_s": (self_s("divisors.pullback_forgetful"), "s"),
        "pairing.pairing_values_s": (scan_s, "s"),
        "pairing.calls": (sum(s["name"] == "pairing.pairing_values" for s in spans), "count"),
        "pairing.curves_scanned": (curves, "count"),
        "pairing.curves_per_s": (curves / scan_s if scan_s else 0.0, "1/s"),
        "cone.fnef_check_s": (self_s("cone.fnef_check"), "s"),
        "cone.extremality_rank_s": (self_s("cone.extremality_rank"), "s"),
    }
    for p in PRIMES:
        m[f"cone.rank_s.{p}"] = (self_s(f"cone.rank.{p}"), "s")
        m[f"cone.rows_fed.{p}"] = (counter(f"cone.rank.{p}", "rows_fed"), "count")
        m[f"cone.rank.{p}"] = (counter(f"cone.rank.{p}", "rank"), "count")
    m["cone.projection_formula_s"] = (self_s("cone.projection_formula"), "s")
    for layer in ("subsets", "divisors", "pairing", "cone"):
        m[f"{layer}.peak_rss_mb"] = (peak(layer), "MB")
    m["cli.overhead_s"] = (traced_wall - top_level, "s")
    m["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    m["trace.spans"] = (len(spans), "count")
    m["trace.absent"] = (len(dump["absent"]), "count")
    return m


def environment() -> dict:
    env = {
        "nproc": os.cpu_count(),
        "cpu_model": platform.machine(),
        "python": platform.python_version(),
        "threads": THREADS,
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            env["cpu_model"] = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                env["cpu_model"],
            )
    except OSError:
        pass
    import numpy

    env["numpy"] = numpy.__version__
    try:
        env["blas"] = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        env["blas"] = "unknown"
    return env


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None
    when the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def parse_expect(items: list[str]) -> dict:
    out = {}
    for item in items:
        key, _, value = item.partition("=")
        out[key] = json.loads(value)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="fnef benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--expect", action="append", default=[], metavar="PATH=JSON",
                    help="override one expected value (used to prove the gates fail)")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "fnef" / "cli.py").is_file():
        print(f"error: no fnef sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # the highest vCPU: the lowest takes most interrupts and, here, most steal
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})  # children inherit it
    bench = Bench(args.workload, args.seed, parse_expect(args.expect))
    warm = bench.spawn(FNEF + ["--version"])  # also byte-compiles the package
    if warm.code != 0:
        print(f"error: fnef does not start (exit {warm.code}):\n{warm.stderr}", file=sys.stderr)
        return 1

    metrics, samples = bench.trace() if args.trace else bench.measure(args.seconds)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "samples": samples,
        "failures": bench.failures[:50],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    RESULTS.mkdir(exist_ok=True)
    path = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(report, indent=2) + "\n", encoding="utf-8")
    for line in bench.failures[:10]:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps({"report": str(path.relative_to(ROOT)), "environment": report["environment"]}))
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
