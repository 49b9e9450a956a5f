"""Benchmark of the maksarum CLI.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout.  Each invocation of the CLI is a
child process (perfbench/child.py) started from this process, one at a time:
a closed loop with a single client.  A workload is a batch of invocations
(workloads.py); batches repeat until --seconds have passed, and every output
is checked against an oracle that does not import maksarum.

Right before each invocation, and once after the last, the same launcher
times a bare interpreter start (`python -c pass`), the reference.  An
invocation's end-to-end times are scaled by NOMINAL_START_S over the mean of
the references on either side of it, so that a change in the machine's speed
during or between runs cancels out; the raw medians are printed beside them.

With --trace 0 the last stdout line is a JSON object whose metrics are the
end-to-end ones, each the median over the run.  With --trace 1 untraced and
traced batches alternate, and the metrics are the per-module ones from the
traced batches plus the tracing overhead.  Lines before it repeat the
figures for people.  See README.md for every metric's definition.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
RUN_SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "golden"
HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
REFERENCE = ("-c", "pass")  # a bare interpreter start, timed before every invocation
NOMINAL_START_S = 0.060  # the reference's median on a quiet 2-vCPU Sapphire Rapids guest

END_TO_END = {  # name -> unit
    "wall_s": "s",
    "setup_s": "s",
    "items_per_s": "1/s",
    "peak_rss_mb": "MiB",
    "ok_ratio": "ratio",
}


@dataclass
class Result:
    """One finished invocation."""

    wall_s: float
    setup_s: float
    ref_s: float  # reference start before it; run() makes it the mean with the one after
    import_s: float
    rss_mb: float
    ok: bool
    items: int
    csv_bytes: int
    spans: list = field(default_factory=list)  # (name, start, end, parent, out)


class Launcher:
    """The small process that spawns and times every child; see launcher.py."""

    def __init__(self, env: dict):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py")], stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
        )

    def run(self, argv: list[str], out: Path, err: Path) -> tuple[int, float, float, float]:
        """(exit code, monotonic start, monotonic end, ru_maxrss in MiB) of one child."""
        self.proc.stdin.write("\0".join([str(out), str(err), *argv]) + "\n")
        self.proc.stdin.flush()
        code, start, end, rss_kib = self.proc.stdout.readline().split()
        return int(code), float(start), float(end), int(rss_kib) / 1024

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=60)


def reference(launcher: Launcher, tmp: Path) -> float:
    """Wall time of one reference start."""
    _, start, end, _ = launcher.run([sys.executable, *REFERENCE], tmp / "stdout.txt", tmp / "stderr.txt")
    return end - start


def spawn(launcher: Launcher, inv, tmp: Path, traced: bool, verified: dict) -> Result:
    """Run one invocation to its exit and check its output."""
    meta, out, err = tmp / "meta.txt", tmp / "stdout.txt", tmp / "stderr.txt"
    for path in [meta, *map(Path, inv.files.values())]:
        path.unlink(missing_ok=True)
    ref_s = reference(launcher, tmp)
    argv = [sys.executable, str(CHILD), str(meta), "1" if traced else "0", *inv.argv]
    code, start, end, rss_mb = launcher.run(argv, out, err)
    stdout = out.read_bytes()
    files = {role: Path(path).read_bytes() for role, path in inv.files.items() if Path(path).exists()}
    ok, items, setup_s, import_s, spans = False, 0, float("nan"), float("nan"), []
    if code == 0 and meta.exists():
        head, *trace = meta.read_text(encoding="ascii").splitlines()
        import_text, mark, module = head.split(" ", 2)
        import_s, setup_s = float(import_text), float(mark) - start
        spans = _parse_spans(trace)
        ok, items = _verify(inv, stdout, files, verified, Path(module))
    if not ok:
        sys.stderr.write(f"FAILED: {' '.join(inv.argv)} (exit {code})\n{err.read_text()[-2000:]}")
    return Result(end - start, setup_s, ref_s, import_s, rss_mb, ok, items,
                  len(files.get("records", b"")), spans)


def _verify(inv, stdout: bytes, files: dict, verified: dict, module: Path) -> tuple[bool, int]:
    """Check an output against its oracle; identical outputs are checked once."""
    if not module.resolve().is_relative_to(SRC.resolve()):
        sys.stderr.write(f"maksarum was imported from {module}, not from {SRC}\n")
        return False, 0
    digest = hashlib.sha256(stdout)
    for role in sorted(inv.files):
        digest.update(role.encode() + b"\0" + files.get(role, b""))
    key = (inv.argv, digest.hexdigest())
    if key not in verified:
        try:
            verified[key] = (True, inv.check(stdout.decode("utf-8"), files))
        except (workloads.Mismatch, ValueError, IndexError, KeyError) as exc:
            sys.stderr.write(f"wrong output from {' '.join(inv.argv)}: {exc}\n")
            verified[key] = (False, 0)
    return verified[key]


def _parse_spans(lines: list[str]) -> list:
    if not lines:
        return []
    names = lines[0].split(",")
    spans = []
    for line in lines[1:]:
        nid, start, end, parent, out = line.split()
        spans.append((names[int(nid)], float(start), float(end), int(parent), int(out)))
    return spans


# --- metrics ----------------------------------------------------------------

def end_to_end(batches: list[list[Result]], scaled: bool = True) -> dict:
    """The END_TO_END metrics of a run: medians over batches, setup_s over invocations.

    Each invocation's times are scaled by NOMINAL_START_S over its reference,
    or left raw with scaled=False.
    """
    results = [r for b in batches for r in b]

    def scale(r: Result) -> float:
        return NOMINAL_START_S / r.ref_s if scaled else 1.0

    return {
        "wall_s": statistics.median(sum(r.wall_s * scale(r) for r in b) for b in batches),
        "setup_s": statistics.median(r.setup_s * scale(r) for r in results),
        "items_per_s": statistics.median(
            sum(r.items for r in b) / sum((r.wall_s - r.setup_s) * scale(r) for r in b) for b in batches),
        "peak_rss_mb": statistics.median(max(r.rss_mb for r in b) for b in batches),
        "ok_ratio": sum(r.ok for r in results) / len(results),
    }


# name -> unit of each per-module metric; computed per traced batch by layers()
PER_LAYER = {
    "ntheory.factorize.calls": "count", "ntheory.factorize.s": "s",
    "ntheory.divisors.calls": "count", "ntheory.divisors.s": "s", "ntheory.divisors.out": "count",
    "factor.solve_integer.calls": "count", "factor.solve_integer.s": "s",
    "factor.derive_q.calls": "count", "factor.derive_q.s": "s",
    "survey.enumerate_solutions.s": "s", "survey.enumerate_solutions.self_s": "s",
    "survey.records": "count", "survey.kept_ratio": "ratio",
    "survey.stats.s": "s", "survey.band_filter.s": "s",
    "survey.write_records_csv.s": "s", "survey.csv_bytes": "bytes", "survey.histogram.s": "s",
    "partitions.enumerate_bounded.s": "s", "partitions.enumerate_bounded.self_s": "s",
    "partitions.pairs": "count", "partitions.kept_ratio": "ratio",
    "partitions.pair_solution.calls": "count", "partitions.pair_solution.s": "s",
    "sexagesimal.to_string.calls": "count", "sexagesimal.to_string.s": "s",
    "tablet.reconstruct_all.s": "s", "tablet.explain_errors.s": "s", "circle.pi_digits.s": "s",
    "cli.interp_s": "s", "cli.import_s": "s", "cli.self_s": "s",
    "trace.overhead_ratio": "ratio",
}


def layers(batch: list[Result]) -> dict:
    """Per-module figures of one traced batch, summed over its invocations.

    A span's self time is its duration minus that of its direct children;
    calls in one process never overlap, so the children never overlap either.
    """
    calls: dict[str, int] = {}
    total: dict[str, float] = {}
    self_s: dict[str, float] = {}
    out: dict[str, int] = {}
    divisors_out = {"survey.enumerate_solutions": 0, "partitions.enumerate_bounded": 0}
    for r in batch:
        child_s = [0.0] * len(r.spans)
        for name, start, end, parent, _ in r.spans:
            if parent >= 0:
                child_s[parent] += end - start
        for i, (name, start, end, parent, n) in enumerate(r.spans):
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + end - start
            self_s[name] = self_s.get(name, 0.0) + end - start - child_s[i]
            out[name] = out.get(name, 0) + n
            if name == "ntheory.divisors" and parent >= 0 and r.spans[parent][0] in divisors_out:
                divisors_out[r.spans[parent][0]] += n
    records, pairs = out.get("survey.enumerate_solutions", 0), out.get("partitions.enumerate_bounded", 0)
    metrics = {"survey.records": records, "partitions.pairs": pairs, "ntheory.divisors.out": out.get("ntheory.divisors", 0)}
    metrics["survey.kept_ratio"] = records / divisors_out["survey.enumerate_solutions"] if records else 0.0
    metrics["partitions.kept_ratio"] = pairs / divisors_out["partitions.enumerate_bounded"] if pairs else 0.0
    metrics["survey.csv_bytes"] = sum(r.csv_bytes for r in batch)
    metrics["cli.import_s"] = statistics.median(r.import_s for r in batch)
    metrics["cli.self_s"] = self_s.get("cli.main", 0.0)
    for key in PER_LAYER:
        if key in metrics:
            continue
        name, _, kind = key.rpartition(".")
        if kind == "calls":
            metrics[key] = calls.get(name, 0)
        elif kind == "s":
            metrics[key] = total.get(name, 0.0)
        elif kind == "self_s":
            metrics[key] = self_s.get(name, 0.0)
    return metrics


# --- running a workload -----------------------------------------------------

def check_checkout() -> None:
    missing = [p for p in (SRC / "maksarum" / "cli.py", GOLDEN / "tablet.tsv") if not p.is_file()]
    if missing:
        raise SystemExit(f"not a maksarum checkout: {', '.join(map(str, missing))} missing")


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("MAKSARUM_PRECISION", None)
    verified: dict = {}
    launcher = Launcher(env)
    try:
        with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp_name:
            tmp = Path(tmp_name)
            batch = workloads.build(workload, seed, GOLDEN, tmp)
            spawn(launcher, workloads.WARM_UP, tmp, False, verified)  # bytecode and page caches
            plain, traced, in_order = [], [], []
            deadline = time.monotonic() + seconds
            # start a batch only if one as long as the last still ends by the deadline
            while not plain or (trace and not traced) or time.monotonic() + last_s <= deadline:
                into = traced if trace and len(traced) < len(plain) else plain
                start = time.monotonic()
                into.append([spawn(launcher, inv, tmp, into is traced, verified) for inv in batch])
                last_s = time.monotonic() - start
                in_order += into[-1]
            # each invocation's reference: the mean of the starts timed before and after it
            last_ref = reference(launcher, tmp)
            for r, after in zip(in_order, [r.ref_s for r in in_order[1:]] + [last_ref]):
                r.ref_s = (r.ref_s + after) / 2
    finally:
        launcher.close()
    results = [r for b in plain + traced for r in b]
    failed = sum(not r.ok for r in results)
    report = {"correct": failed == 0, "attempted": len(results), "failed": failed}
    print(f"workload {workload}, seed {seed}: {len(plain)} untraced and {len(traced)} traced "
          f"batches of {len(batch)} invocation(s)")
    for inv in batch[:3]:
        print("  maksarum " + " ".join(inv.argv))
    print(f"{'fail_ratio':14s} {failed / len(results):.6g} ratio ({failed} of {len(results)} invocations)")
    if failed:
        return report | {"metrics": {}}
    figures, raw = end_to_end(plain), end_to_end(plain, scaled=False)
    print(f"{'metric':24s} {'scaled':>12s} {'raw':>12s}")
    for key, unit in END_TO_END.items():
        print(f"{key:24s} {figures[key]:12.6g} {raw[key]:12.6g} {unit}")
    print(f"{'reference start':24s} {statistics.median(r.ref_s for b in plain for r in b):25.6g} s (median)")
    units = END_TO_END
    if trace:
        per_batch = [layers(b) for b in traced]
        figures = {k: statistics.median(m[k] for m in per_batch) for k in per_batch[0]}
        figures["cli.interp_s"] = statistics.median(r.ref_s for b in traced for r in b)
        figures["trace.overhead_ratio"] = end_to_end(traced)["wall_s"] / end_to_end(plain)["wall_s"]
        units = PER_LAYER
        for key, unit in units.items():
            print(f"{key:40s} {figures[key]:.6g} {unit}")
    report["metrics"] = {key: {"value": figures[key], "unit": unit} for key, unit in units.items()}
    return report


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    check_checkout()
    report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(report))
    return 0 if report["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
