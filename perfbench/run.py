"""metaline benchmark: time to a verdict on check-suite workloads.

    python3 perfbench/run.py --workload NAME [--seed 42] [--seconds 55] [--trace 0|1]

Run it from the root of a checkout; it imports the package from `src/`
and writes its reports, digests and traces under `.perfbench/`.

Every timing is taken from outside the package, around calls into its
public entry points.  With `--trace 0` the run repeats the workload's
`metaline.cli.main(["verify", ...])` calls for about `--seconds` seconds
and reports the sum over calls of each call's median time (`verify_s`),
the median launch-to-ready time of fresh interpreters (`setup_s`) and the
peak resident memory (`peak_rss_mb`).

Both times are in reference seconds.  On a shared host the speed of the
machine drifts by up to 2x over seconds to minutes, which no statistic
over one run removes.  So a fixed exact elimination with the stdlib
`Fraction` (the kind of arithmetic metaline spends its time on, but none
of its code) runs before the first and after every timed item; an item's
wall time is divided by the mean time of the two runs on either side of
it and multiplied by REFERENCE_S.  A change to metaline moves the item and
not the reference.  The wall times are kept in the run's metadata.

With `--trace 1` it makes one untraced and one traced pass plus one
`run_verification(checks=[name])` per check, and reports the per-layer
metrics named in BENCHMARK.json in wall seconds.

Every report is checked: its verdict against the known answer, its bytes
against the committed sha256 at seed 42 (digests.json) and against the
other passes of the same run; traced reports and single-check results
must equal the untraced full reports.  On other seeds the digests are
written to `.perfbench/` so two commits can be compared byte for byte.
The last line of standard output is one JSON object: {"correct",
"attempted", "failed", "metrics"}.  `failed` over `attempted` is the
share of checked reports that were wrong; it is not an end-to-end metric
because those must never read 0.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from workloads import WORKLOADS, expected_verdict

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
DIGEST_SEED = 42
SETUP_LAUNCHES_PER_PASS = 2
REFERENCE_SIZE = 30
# A round figure near the reference's time on an undisturbed 2-vCPU Intel
# Xeon (2.0 GHz) VM under CPython 3.11, so reference seconds read about as
# wall seconds there.  Changing it rescales every timing of the benchmark.
REFERENCE_S = 0.3

_SETUP_CODE = """\
import time
import metaline.cli
from metaline.varieties import builtin_chart
for name in {names!r}:
    builtin_chart(name)
print(time.monotonic())
"""


class BenchError(Exception):
    """The checkout cannot be benchmarked; no result is printed."""


def _reference_rows():
    rng = random.Random(REFERENCE_SIZE)
    return [
        [Fraction(rng.randint(-99, 99), rng.randint(1, 99)) for _ in range(REFERENCE_SIZE)]
        for _ in range(REFERENCE_SIZE + 2)
    ]


_REFERENCE_ROWS = _reference_rows()


def reference_s():
    """Wall seconds for one fixed Gauss-Jordan elimination over Fraction."""
    rows = [row[:] for row in _REFERENCE_ROWS]
    gc.collect()
    start = time.perf_counter()
    rank = 0
    for col in range(REFERENCE_SIZE):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inverse = 1 / rows[rank][col]
        rows[rank] = [x * inverse for x in rows[rank]]
        for i, row in enumerate(rows):
            if i != rank and row[col]:
                factor = row[col]
                rows[i] = [a - factor * b for a, b in zip(row, rows[rank])]
        rank += 1
    return time.perf_counter() - start


class Yardstick:
    """Turns the wall time of consecutive items into reference seconds."""

    def __init__(self):
        self.samples = [reference_s()]

    def scale(self, seconds):
        """Reference seconds for an item that took `seconds` just now, since
        the previous reference run."""
        self.samples.append(reference_s())
        return seconds * REFERENCE_S / statistics.fmean(self.samples[-2:])


class Checker:
    """Counts verify calls and the ones whose verdict or bytes are wrong."""

    def __init__(self, seed):
        self.attempted = 0
        self.failed = 0
        self.digests = {}
        committed = json.loads((HERE / "digests.json").read_text())
        self.committed = committed.get(str(seed))

    def _record(self, what, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"MISMATCH {what}: {'; '.join(problems)}", file=sys.stderr)

    def report(self, workload, call, code, data):
        """Check one verify report's verdict and bytes."""
        problems = []
        want = expected_verdict(call.fixture)
        try:
            verdict = json.loads(data).get("verdict")
        except ValueError:
            verdict = None
        if verdict != want:
            problems.append(f"verdict {verdict!r}, expected {want!r}")
        if code != (0 if want == "pass" else 1):
            problems.append(f"exit code {code}")
        digest = hashlib.sha256(data).hexdigest()
        if self.committed is not None:
            expected = self.committed[workload.name][call.key]
            if digest != expected:
                problems.append(f"sha256 {digest} differs from committed {expected}")
        seen = self.digests.setdefault(workload.name, {}).setdefault(call.key, digest)
        if seen != digest:
            problems.append(f"sha256 {digest} differs from an earlier pass {seen}")
        self._record(f"{workload.name} {call.key}", problems)

    def same(self, what, got, expected):
        """Check that two renderings of one report are byte-identical."""
        problems = [] if got == expected else ["bytes differ"]
        self._record(what, problems)


def verify_pass(workload, seed, tag, tracer=None, after_call=None):
    """Run each verify call of the workload once: ([seconds per call], [(call, code, bytes)]).

    `after_call(seconds)` runs right after each call, outside its timing."""
    from metaline import cli

    seconds = []
    outputs = []
    for index, call in enumerate(workload.calls):
        path = OUT / f"{workload.name}-{call.key}-{tag}.json"
        argv = call.argv(seed, path)
        gc.collect()  # each call starts from the same heap, not the last call's garbage
        start = time.perf_counter()
        if tracer is None:
            code = cli.main(argv)
        else:
            code = tracer.root(index, call.key, lambda: cli.main(argv))
        seconds.append(time.perf_counter() - start)
        if after_call is not None:
            after_call(seconds[-1])
        outputs.append((call, code, path.read_bytes()))
    return seconds, outputs


def check_pass(checker, workload, outputs):
    for call, code, data in outputs:
        checker.report(workload, call, code, data)


class SetupTimer:
    """Seconds from launching a fresh interpreter until metaline.cli is
    imported and the workload's fixtures are loaded.

    The child reports the system-wide monotonic clock when it is ready, so
    interpreter shutdown is not counted.  Launches are spread over the run
    so that their median does not hang on one moment's host speed.
    """

    def __init__(self, workload):
        names = list(dict.fromkeys(call.fixture for call in workload.calls))
        self.code = _SETUP_CODE.format(names=names)
        path = [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
        self.samples = []
        self.launch()  # fills the bytecode cache, which users do not pay on every run
        self.samples.clear()

    def launch(self):
        start = time.monotonic()
        done = subprocess.run(
            [sys.executable, "-c", self.code],
            cwd=ROOT,
            env=self.env,
            capture_output=True,
            text=True,
            timeout=60,
        )
        if done.returncode != 0:
            raise BenchError(f"set-up interpreter failed: {done.stderr.strip()}")
        self.samples.append(float(done.stdout.split()[-1]) - start)
        return self.samples[-1]


def peak_rss_mb():
    """Peak resident memory of this process, which runs every verify call."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_untraced(workload, seed, seconds, checker, meta):
    setup = SetupTimer(workload)
    import metaline.cli  # noqa: F401  (imported outside the timed passes)

    yardstick = Yardstick()
    launches = []
    per_call = [[] for _ in workload.calls]
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        for _ in range(SETUP_LAUNCHES_PER_PASS):
            launches.append(yardstick.scale(setup.launch()))
        scaled = []
        call_s, outputs = verify_pass(
            workload, seed, "untraced", after_call=lambda wall: scaled.append(yardstick.scale(wall))
        )
        check_pass(checker, workload, outputs)
        for samples, value in zip(per_call, scaled):
            samples.append(value)
        meta["verify_wall_s"].append(call_s)
        pass_s = time.perf_counter() - pass_start
        print(f"pass {len(per_call[0])}: verify {sum(scaled):.3f} ref s, {sum(call_s):.3f} wall s")
        # stop where the run ends closest to the requested length
        if time.perf_counter() - start + pass_s / 2 > seconds:
            break
    meta["setup_wall_s"] = setup.samples
    meta["reference_wall_s"] = yardstick.samples
    return {
        "verify_s": (sum(statistics.median(samples) for samples in per_call), "s"),
        "setup_s": (statistics.median(launches), "s"),
        "peak_rss_mb": (peak_rss_mb(), "MiB"),
    }


def runner_metrics(workload, seed, checker, outputs):
    """runner.<check>_s from one run_verification(checks=[name]) per check
    on a form built once.

    Each single-check result must equal that check's entry in the full report.
    """
    from metaline.omega_builder import build_omega
    from metaline.runner import CHECK_NAMES, run_verification
    from metaline.varieties import builtin_chart

    per_check = dict.fromkeys(CHECK_NAMES, 0.0)
    for call, _, data in outputs:
        full = {entry["name"]: entry for entry in json.loads(data)["checks"]}
        chart, omega = builtin_chart(call.fixture)
        if omega is None:
            omega = build_omega(chart, seed=seed).omega
        for name in call.checks or CHECK_NAMES:
            start = time.perf_counter()
            report = run_verification(
                chart, omega, seed=seed, samples=call.samples, checks=[name]
            )
            per_check[name] += time.perf_counter() - start
            got = json.dumps(report.checks[0].to_dict(), sort_keys=True)
            want = json.dumps(full.get(name), sort_keys=True)
            checker.same(f"{workload.name} {call.key} --checks {name}", got, want)
    return {f"runner.{name}_s": (seconds, "s") for name, seconds in per_check.items()}


def run_traced(workload, seed, checker, meta):
    from tracer import Tracer

    plain_s, plain = verify_pass(workload, seed, "untraced")
    plain_s = sum(plain_s)
    check_pass(checker, workload, plain)
    tracer = Tracer()
    tracer.install()
    try:
        traced_s, traced = verify_pass(workload, seed, "traced", tracer)
        traced_s = sum(traced_s)
    finally:
        tracer.uninstall()
    for (call, _, got), (_, _, want) in zip(traced, plain):
        checker.same(f"{workload.name} {call.key} traced vs untraced", got, want)

    metrics = tracer.layer_metrics()
    metrics.update(runner_metrics(workload, seed, checker, plain))
    metrics["report.bytes"] = (sum(len(data) for _, _, data in plain), "bytes")
    metrics["trace.verify_s"] = (traced_s, "s")
    metrics["trace.overhead_s"] = (traced_s - plain_s, "s")
    meta["untraced_verify_s"] = plain_s
    trace = dict(tracer.dump(), workload=workload.name, seed=seed, meta=meta)
    (OUT / f"trace-{workload.name}-seed{seed}.json").write_text(json.dumps(trace, indent=1))
    return metrics


def git_commit():
    """HEAD's commit read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: ") :]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def metadata(seed):
    from metaline.scalars import Q

    src_lines = 0
    for path in sorted(SRC.rglob("*.py")):
        with open(path, "rb") as handle:
            src_lines += sum(1 for _ in handle)
    return {
        "seed": seed,
        "backend": type(Q(1)).__name__,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "src_lines": src_lines,
        "reference_s": REFERENCE_S,
        "verify_wall_s": [],
    }


def declared_metrics(trace):
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read BENCHMARK.json: {exc}")
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DIGEST_SEED)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "metaline" / "__init__.py").is_file():
        raise BenchError(f"no metaline package under {SRC}")
    names = declared_metrics(args.trace)
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)

    workload = WORKLOADS[args.workload]
    checker = Checker(args.seed)
    meta = metadata(args.seed)
    if args.trace:
        measured = run_traced(workload, args.seed, checker, meta)
    else:
        measured = run_untraced(workload, args.seed, args.seconds, checker, meta)
    missing = [name for name in names if name not in measured]
    if missing:
        raise BenchError(f"metrics not measured: {', '.join(missing)}")
    metrics = {name: {"value": measured[name][0], "unit": measured[name][1]} for name in names}

    meta["digests"] = checker.digests
    record = {"workload": workload.name, "trace": args.trace, "meta": meta, "metrics": metrics}
    name = f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1, sort_keys=True))
    print("meta " + json.dumps(meta, sort_keys=True))
    result = {
        "correct": checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
