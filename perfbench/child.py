"""One scenq CLI pass, run in a fresh process by ``run.py``.

    python3 perfbench/child.py --report FILE --spec PASS_JSON --out DIR [--spans FILE --pass-id N]

Imports ``scenq.cli`` (from ``src/`` via PYTHONPATH), records the
monotonic clock once it is ready to call ``main``, then calls
``scenq.cli.main(argv)`` and writes the time spent in it and its return
code to the report. With ``--spans`` every layer call is traced.

The host's speed drifts by up to 2x over seconds to minutes when other
tenants load it. So while ``main`` runs, a timer interrupts it every
``SAMPLE_EVERY_S`` to time a fixed piece of pure Python; the report carries
``slowdown``, its mean time over ``CALIBRATION_REFERENCE_S`` (its time
on an idle core of the reference machine), and ``main_s`` without the time
spent in it. Dividing times by ``slowdown`` puts them in reference
seconds. ``ready_slowdown`` does the same for the import, from
``READY_SAMPLES`` of them timed right after it.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
import time
import tracemalloc
from pathlib import Path

CALIBRATION_LOOPS = 10_000
CALIBRATION_KEYS = 4_000
CALIBRATION_REFERENCE_S = 0.0015
SAMPLE_EVERY_S = 0.05
READY_SAMPLES = 15


def calibrate() -> float:
    """Seconds this process takes now for a fixed piece of pure Python.

    Integer arithmetic plus building a string-keyed dict: together they
    slow down under contention about as much as the workloads do (timed
    against CLI passes, arithmetic alone under-reports the slowdown).
    """
    start = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_LOOPS):
        total += i * i
    table = {}
    for i in range(CALIBRATION_KEYS):
        table[str(i)] = i * 0.5
    sum(table.values())
    return time.perf_counter() - start


class SpeedSampler:
    """Times ``calibrate`` once on entry and then on every timer tick.

    The timer is re-armed after each sample, so samples never nest. Ticks
    while tracemalloc traces (inside a traced ``dtw`` span) are skipped:
    tracemalloc slows the sample's allocations but not the program's.
    """

    def __init__(self):
        self.samples: list[float] = []

    def _tick(self, signum, frame) -> None:
        if not tracemalloc.is_tracing():
            self.samples.append(calibrate())
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S)

    def __enter__(self) -> "SpeedSampler":
        self.samples.append(calibrate())
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    @property
    def slowdown(self) -> float:
        return sum(self.samples) / len(self.samples) / CALIBRATION_REFERENCE_S


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--report", required=True)
    parser.add_argument("--spec", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans")
    parser.add_argument("--pass-id", type=int, default=0)
    args = parser.parse_args()

    import scenq.cli

    source = Path(scenq.cli.__file__).resolve()
    if not source.is_relative_to(Path("src").resolve()):
        print(f"scenq imported from {source}, not from ./src", file=sys.stderr)
        return 3
    cli_main = scenq.cli.main
    recorder = None
    if args.spans:
        import tracing

        recorder = tracing.Recorder(args.pass_id)
        cli_main = tracing.install(recorder, cli_main)
    ready = time.monotonic()
    ready_slowdown = sum(calibrate() for _ in range(READY_SAMPLES)) / READY_SAMPLES
    spec = json.loads(Path(args.spec).read_text(encoding="utf-8"))
    argv = [a.replace("{out}", args.out) for a in spec["argv"]]
    with SpeedSampler() as speed:
        start = time.perf_counter()
        rc = cli_main(argv)
        main_s = time.perf_counter() - start
    report = {"ready": ready, "rc": rc, "main_s": main_s - sum(speed.samples[1:]),
              "slowdown": speed.slowdown,
              "ready_slowdown": ready_slowdown / CALIBRATION_REFERENCE_S}
    if recorder is not None:
        recorder.dump(Path(args.spans))
    Path(args.report).write_text(json.dumps(report), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
