"""Benchmark of the scenq command line, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a scenq checkout; scenq is imported from
``./src``. One run:

1. generates the workload's inputs from the seed (``gen.py``, in a child);
2. runs CLI passes back to back for ``--seconds`` (at least ``MIN_PASSES``),
   each in a fresh child (``child.py``) calling ``scenq.cli.main(argv)``;
   a closed loop with one client, so at most one child is alive;
3. checks the first pass's outputs (``check.py``, in a child) and that
   every later pass wrote byte-identical result files.

With ``--trace 0`` it reports the end-to-end metrics: ``traces_per_s``
(traces processed per second of ``main()``), ``peak_rss_mb`` (the CLI
child's peak RSS from ``os.wait4``) and ``setup_s`` (spawn until
``scenq.cli`` is imported), each the median over passes. Both times are
in reference seconds: wall seconds divided by the pass's ``slowdown``
(see ``child.py``), which takes out the host's speed drift. With
``--trace 1`` passes alternate untraced and traced, and it reports the
per-layer metrics of ``spans.metric_specs()``. The last line
of standard output is the JSON result; the lines before it give every
metric with its unit, quartiles and sample count, and ``error_rate``
(failed / attempted passes).

This process imports only the standard library: a child's peak RSS as
``os.wait4`` reports it starts from the parent's own high-water mark.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import spans

HERE = Path(__file__).resolve().parent
WORKLOADS = ("grid_simulate", "grid_evaluate", "repeat_compare")
MIN_PASSES = 2
CHILD_TIMEOUT_S = 150.0
POLL_S = 0.01


class ChildError(RuntimeError):
    pass


def _spawn(args: list[str], env: dict, stderr_path: Path,
           stdout_path: Path | None = None) -> tuple[float, int, object]:
    """Run ``python3 args`` to completion; returns (spawn time, exit code, rusage)."""
    with stderr_path.open("wb") as err, \
            (stdout_path or Path(os.devnull)).open("wb") as out:
        start = time.monotonic()
        proc = subprocess.Popen([sys.executable, *args], env=env, stdout=out, stderr=err)
    try:
        while True:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() - start > CHILD_TIMEOUT_S:
                raise ChildError(f"{args[0]} ran longer than {CHILD_TIMEOUT_S} s")
            time.sleep(POLL_S)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    return start, proc.returncode, usage


def _tail(path: Path) -> str:
    lines = path.read_text(encoding="utf-8", errors="replace").strip().splitlines()
    return lines[-1] if lines else ""


def _digest(out: Path) -> dict[str, str]:
    """sha256 of every result file; the manifest holds timestamps and is left out."""
    digests = {}
    for path in sorted(out.rglob("*")):
        if path.is_file() and path.name != "manifest.json":
            h = hashlib.sha256()
            with path.open("rb") as f:
                for block in iter(lambda: f.read(1 << 20), b""):
                    h.update(block)
            digests[str(path.relative_to(out))] = h.hexdigest()
    return digests


class Bench:
    def __init__(self, workload: str, seed: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.env = dict(os.environ, PYTHONPATH=str(Path("src").resolve()),
                        OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
        self.spec_path = work / "inputs" / "pass.json"

    def child(self, script: str, *args: str, log: str,
              stdout: str | None = None) -> tuple[float, int, object]:
        return _spawn([str(HERE / script), *args], self.env, self.work / log,
                      stdout and self.work / stdout)

    def generate(self) -> dict:
        _, code, _ = self.child("gen.py", "--workload", self.workload, "--seed", str(self.seed),
                                "--out", str(self.work / "inputs"), log="gen.stderr")
        if code != 0:
            raise ChildError(f"input generation failed: {_tail(self.work / 'gen.stderr')}")
        return json.loads(self.spec_path.read_text(encoding="utf-8"))

    def run_pass(self, k: int, traced: bool) -> dict:
        out = self.work / f"pass{k}"
        report = self.work / f"pass{k}.json"
        span_file = self.work / f"spans{k}.json"
        args = ["--report", str(report), "--spec", str(self.spec_path), "--out", str(out),
                "--pass-id", str(k)]
        if traced:
            args += ["--spans", str(span_file)]
        spawned, code, usage = self.child("child.py", *args, log=f"pass{k}.stderr")
        record = {"k": k, "traced": traced, "problems": [], "rss_mb": usage.ru_maxrss / 1024}
        if code != 0 or not report.is_file():
            record["problems"].append(
                f"pass {k} crashed (exit {code}): {_tail(self.work / f'pass{k}.stderr')}")
            return record
        data = json.loads(report.read_text(encoding="utf-8"))
        record.update(rc=data["rc"], main_s=data["main_s"], slowdown=data["slowdown"],
                      setup_s=(data["ready"] - spawned) / data["ready_slowdown"])
        if traced:
            record["spans"] = json.loads(span_file.read_text(encoding="utf-8"))
            span_file.unlink()
        record["digest"] = _digest(out)
        return record

    def check(self, passes: list[dict], first: dict) -> None:
        """Adds each pass's failed checks to its ``problems``; ``first`` kept its outputs."""
        _, code, _ = self.child("check.py", "--spec", str(self.spec_path), "--out",
                                str(self.work / f"pass{first['k']}"), log="check.stderr",
                                stdout="check.json")
        if code != 0:
            raise ChildError(f"output check crashed: {_tail(self.work / 'check.stderr')}")
        verdict = json.loads((self.work / "check.json").read_text(encoding="utf-8"))
        for p in passes:
            if "rc" not in p:
                continue
            if p["digest"] != first["digest"]:
                changed = sorted(set(p["digest"].items()) ^ set(first["digest"].items()))
                p["problems"].append(f"pass {p['k']} result files differ from pass "
                                     f"{first['k']}: {changed[0][0]}")
            elif verdict["problems"]:
                p["problems"] += verdict["problems"] if p is first else [
                    f"pass {p['k']} wrote the same outputs as pass {first['k']}"]
            if p["rc"] != verdict["expected_rc"]:
                p["problems"].append(f"pass {p['k']} exited {p['rc']}, outputs imply "
                                     f"{verdict['expected_rc']}")

    def run(self, seconds: float, trace: bool) -> tuple[dict, list[dict]]:
        spec = self.generate()
        passes: list[dict] = []
        first = None
        deadline = time.monotonic() + seconds
        while len(passes) < MIN_PASSES or time.monotonic() < deadline:
            k = len(passes)
            passes.append(self.run_pass(k, traced=trace and k % 2 == 1))
            if first is None and "rc" in passes[-1]:
                first = passes[-1]
            else:
                shutil.rmtree(self.work / f"pass{k}", ignore_errors=True)
        if first is None:
            raise ChildError(passes[0]["problems"][0])
        self.check(passes, first)
        return spec, passes


def _summary(name: str, values: list[float], unit: str) -> str:
    p25, _, p75 = spans.quartiles(values)
    return (f"{name:<16} {median(values):.6g} {unit}  (p25 {p25:.6g}, p75 {p75:.6g}, "
            f"n={len(values)})")


def report(workload: str, spec: dict, passes: list[dict], trace: bool) -> dict:
    failed = [p for p in passes if p["problems"]]
    for p in failed:
        for problem in p["problems"][:5]:
            print(f"FAIL {problem}")
    done = [p for p in passes if "main_s" in p]
    plain = [p for p in done if not p["traced"]]
    tps = [spec["traces"] / p["main_s"] * p["slowdown"] for p in plain]
    print(f"{workload}: {len(passes)} passes of {spec['traces']} traces, "
          f"{'traced' if trace else 'untraced'}")
    print(f"error_rate       {len(failed) / len(passes):.6g} 1  "
          f"({len(failed)} failed / {len(passes)} attempted passes)")
    if trace:
        traced = [p for p in done if p["traced"]]
        if not traced or not tps:
            raise ChildError("a traced run needs one untraced and one traced pass that ran")
        traced_tps = median(spec["traces"] / p["main_s"] * p["slowdown"] for p in traced)
        metrics = spans.layer_metrics([p["spans"] for p in traced], median(tps), traced_tps)
        for name, m in metrics.items():
            print(f"{name:<44} {m['value']:.6g} {m['unit']}")
    else:
        rss = [p["rss_mb"] for p in plain]
        setup = [p["setup_s"] for p in plain]
        raw = [spec["traces"] / p["main_s"] for p in plain]
        print(_summary("slowdown", [p["slowdown"] for p in plain], "1"))
        print(_summary("raw_traces_per_s", raw, "1/s"))
        print(_summary("traces_per_s", tps, "1/s"))
        print(_summary("peak_rss_mb", rss, "MB"))
        print(_summary("setup_s", setup, "s"))
        metrics = {
            "traces_per_s": {"value": median(tps), "unit": "1/s"},
            "peak_rss_mb": {"value": median(rss), "unit": "MB"},
            "setup_s": {"value": median(setup), "unit": "s"},
        }
    return {"correct": not failed, "attempted": len(passes), "failed": len(failed),
            "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not Path("src/scenq/cli.py").is_file():
        print("perfbench: run from the root of a scenq checkout (no src/scenq/cli.py here)",
              file=sys.stderr)
        return 2
    work_root = Path(".perfbench_work")
    work = work_root / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        bench = Bench(args.workload, args.seed, work)
        spec, passes = bench.run(args.seconds, bool(args.trace))
        result = report(args.workload, spec, passes, bool(args.trace))
    except ChildError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work_root.is_dir() and not any(work_root.iterdir()):
            work_root.rmdir()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
