"""What every workload shares: locating the program, timing set-up,
repeating units for the run's seconds, the count ledger, and the result.

The program under test is the checkout's ``src/`` tree; nothing is
installed.  Everything the benchmark writes goes under ``.perfbench_out/``
at the root of the checkout.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from typing import Callable, Dict, List, Sequence

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SPEC = ROOT / "BENCHMARK.json"


def bootstrap() -> None:
    """Put the checkout's ``src/`` first on the import path (also for
    worker processes), or exit non-zero when the program is absent."""
    if not (SRC / "repro" / "__init__.py").is_file() or not SPEC.is_file():
        sys.stderr.write(
            f"perfbench: no program to measure: expected {SRC}/repro and "
            f"{SPEC} in the checkout\n"
        )
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p
    )
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        sys.stderr.write(
            f"perfbench: imported repro from {repro.__file__}, not from "
            f"the checkout's {SRC}\n"
        )
        sys.exit(2)
    OUT.mkdir(exist_ok=True)


def import_seconds(modules: Sequence[str]) -> float:
    """Wall time to import ``modules`` in a fresh interpreter."""
    code = (
        "import time, importlib\n"
        "t = time.perf_counter()\n"
        f"for m in {list(modules)!r}: importlib.import_module(m)\n"
        "print(repr(time.perf_counter() - t))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        check=True, timeout=60,
    )
    return float(done.stdout.strip().splitlines()[-1])


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (``0 <= q <= 100``)."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of no samples")
    pos = (len(data) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def run_units(
    seconds: float, unit: Callable[[int], float], max_units: int
) -> int:
    """Call ``unit(0), unit(1), ...`` (each returns its wall time) while the
    next one is predicted to end within ``seconds``; always at least one."""
    spent = 0.0
    done = 0
    while done < max_units:
        spent += unit(done)
        done += 1
        if spent + spent / done > seconds:
            break
    return done


def derive_seed(seed: int, unit: int) -> int:
    """The input seed of unit ``unit`` of a run with workload seed ``seed``."""
    digest = hashlib.sha256(f"perfbench|{seed}|{unit}".encode()).digest()
    return int.from_bytes(digest[:4], "little") >> 1


def code_digest() -> str:
    """Hash of the program's and the benchmark's sources: counts are only
    compared between runs of the same code."""
    h = hashlib.sha256()
    for root in (SRC, Path(__file__).resolve().parent):
        for path in sorted(root.rglob("*.py")):
            if "__pycache__" not in path.parts:
                h.update(str(path.relative_to(ROOT)).encode())
                h.update(path.read_bytes())
    return h.hexdigest()[:16]


def peak_rss_mb() -> float:
    """This process's resident-set high-water mark in MB (Linux ru_maxrss)."""
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Run:
    """One benchmark run: its metrics, operation tally, checks and counts."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.metrics: Dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.refusals: List[str] = []
        self.tracer = None
        self.digests: List[str] = []
        self._code = code_digest()

    def check(self, ok: bool, message: str, wrong_output: bool = True) -> bool:
        """Count one failed operation unless ``ok``; a wrong output also
        makes the run incorrect, a refused request only counts."""
        if not ok:
            self.failed += 1
            (self.problems if wrong_output else self.refusals).append(message)
        return ok

    def expect(self, ok: bool, message: str) -> bool:
        """A check on the run as a whole (not an operation)."""
        if not ok:
            self.problems.append(message)
        return ok

    def record_counts(self, unit: int, counts: Dict[str, object]) -> None:
        """Fail the run if a count differs from an earlier run (or pass) of
        the same program, workload, seed and unit; then remember it."""
        path = OUT / "counts.json"
        ledger = json.loads(path.read_text()) if path.exists() else {}
        key = f"{self._code}|{self.workload}|{self.seed}|{unit}"
        seen = ledger.setdefault(key, {})
        for name, value in counts.items():
            if name in seen and seen[name] != value:
                self.expect(False, (
                    f"count {name} of unit {unit} is {value!r}, but an "
                    f"earlier run with seed {self.seed} recorded "
                    f"{seen[name]!r}"
                ))
            seen.setdefault(name, value)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(ledger, sort_keys=True, indent=1))
        os.replace(tmp, path)

    def emit(self, spec: dict) -> None:
        """Print the human table, then the one-line JSON result last."""
        section = "per_layer" if self.trace else "end_to_end"
        expected = {m["name"]: m["unit"] for m in spec[section]}
        missing = set(expected) - set(self.metrics)
        extra = set(self.metrics) - set(expected)
        if missing or extra:
            raise RuntimeError(
                f"metrics differ from BENCHMARK.json {section}: missing "
                f"{sorted(missing)}, unexpected {sorted(extra)}"
            )
        for line in self.digests:
            print(f"digest {line}")
        for problem in self.problems:
            print(f"WRONG {problem}")
        for refusal in self.refusals:
            print(f"FAILED {refusal}")
        attempted = max(self.attempted, 1)
        print(f"{'workload':<44} {self.workload} (seed {self.seed}, "
              f"{'traced' if self.trace else 'untraced'})")
        print(f"{'failed_frac':<44} {self.failed / attempted:.6g} ratio "
              f"({self.failed}/{attempted})")
        for name in expected:
            print(f"{name:<44} {self.metrics[name]:.6g} {expected[name]}")
        result = {
            "correct": not self.problems,
            "attempted": attempted,
            "failed": self.failed,
            "metrics": {
                name: {"value": self.metrics[name], "unit": expected[name]}
                for name in expected
            },
        }
        print(json.dumps(result))
