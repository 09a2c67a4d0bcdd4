"""Pipeline benchmark for arcwalk.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

One process drives a closed loop with one job at a time.  Every CLI job is
the real ``arcwalk`` entry point in a fresh interpreter (PYTHONPATH=src),
reading the workload's graphs from files generated from ``--seed``.

``--trace 0`` measures the end-to-end metrics: the workload's CLI jobs run
round after round for ``--seconds`` seconds, with ``SETUP_REPEATS`` timed
set-ups (loadgraph.py: a fresh interpreter that imports arcwalk and loads
the graphs) spread over the same window.
``--trace 1`` runs one untraced round, then the traced run (traced.py) in
child processes, and reports the per-layer metrics and a stage report.

Every CLI document is checked (checker.py); a non-zero exit or a failed
check counts as a failed command, and so does a failed invariant of the
traced run.  The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  Full results, the environment
and the spans are written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import checker
from workloads import DEFAULT_SEED, WORKLOADS, Workload, cli_args, make_inputs

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
REFERENCE_DIR = BENCH_DIR / "reference"

SETUP_REPEATS = 7
# children still running this long after start are killed (and count as
# failed), so a hung build cannot keep a run past its time limit
RUN_BUDGET_S = 160
# BLAS/OpenMP threads in every child; never more than the CPUs we may use
THREADS = min(2, len(os.sched_getaffinity(0)))

CLI_CODE = "import sys\nfrom arcwalk.cli import main\nsys.exit(main())\n"
ENV_CODE = (
    "import json, sys, numpy, scipy, arcwalk\n"
    "def blas(mod):\n"
    "    try:\n"
    "        dep = mod.show_config(mode='dicts')['Build Dependencies']['blas']\n"
    "        return f\"{dep['name']} {dep['version']}\"\n"
    "    except Exception as exc:\n"
    "        return f'unknown ({exc})'\n"
    "print(json.dumps({'python': sys.version.split()[0], 'numpy': numpy.__version__,\n"
    "    'scipy': scipy.__version__, 'numpy_blas': blas(numpy), 'scipy_blas': blas(scipy),\n"
    "    'arcwalk': arcwalk.__version__, 'arcwalk_file': arcwalk.__file__}))\n"
)

END_TO_END = {
    "wall_s": ("s", "lower", 0.25),
    "setup_s": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.05),
}

# name -> (unit, better, the end-to-end metric and workload it should move)
PER_LAYER = {
    "graph.load_s": ("s", "lower", "setup_s on every workload"),
    "graph.nodes": ("count", "lower", "exact; repeats across runs"),
    "graph.arcs": ("count", "lower", "exact; repeats across runs"),
    "graph.betti": ("count", "lower", "exact; repeats across runs"),
    "operators.build_s": ("s", "lower", "no expected share anywhere"),
    "operators.materialize_s": ("s", "lower", "wall_s on *-exact"),
    "operators.dense_mb": ("MB", "lower", "peak_rss_mb on *-exact (computed 16*D^2/2^20)"),
    "operators.apply_step_s": ("s", "lower", "wall_s on finite-t100 (one step on min(1024, D) start arcs)"),
    "evolution.finite_average_s": ("s", "lower", "wall_s on finite-t100"),
    "evolution.arc_steps": ("count", "lower", "wall_s on finite-t100 (computed D*T)"),
    "evolution.arc_steps_per_s": ("1/s", "higher", "wall_s on finite-t100"),
    "spectral.decompose_s": ("s", "lower", "wall_s on fourier-exact and grover-exact"),
    "spectral.cesaro_s": ("s", "lower", "wall_s on fourier-exact and grover-exact"),
    "spectral.decompose_peak_mb": ("MB", "lower", "peak_rss_mb on *-exact"),
    "spectral.cesaro_peak_mb": ("MB", "lower", "peak_rss_mb on *-exact"),
    "spectral.groups": ("count", "higher", "exact; explains the Cesaro cost"),
    "spectral.max_group": ("count", "lower", "exact; explains the Cesaro cost"),
    "spectral.degenerate_dim": ("count", "lower", "exact; explains the Cesaro cost"),
    "spectral.degeneracy_s": ("s", "lower", "wall_s on paper-builtins"),
    "community.detect_s": ("s", "lower", "wall_s on paper-builtins; negligible elsewhere"),
    "community.margin_s": ("s", "lower", "wall_s on paper-builtins; negligible elsewhere"),
    "community.communities": ("count", "lower", "exact; wall_s on paper-builtins"),
    "io.render_s": ("s", "lower", "wall_s on paper-builtins"),
    "io.doc_bytes": ("B", "lower", "wall_s on paper-builtins"),
    "classical.trace_s": ("s", "lower", "wall_s on paper-builtins"),
    "cli.cpu_s": ("s", "lower", "wall_s; cpu_s/wall_s shows BLAS parallel efficiency"),
    "trace.overhead_s": ("s", "lower", "none; traced detect total minus untraced detect wall_s"),
}


class Bench:
    """One benchmark invocation: its workload, seed, inputs and counters."""

    def __init__(self, workload: Workload, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = str(ROOT / "src")
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            self.env[var] = str(THREADS)
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.attempted = 0
        self.failures: list[str] = []
        self.docs: dict[str, dict] = {}  # command key -> last CLI document
        (OUT_DIR / "inputs").mkdir(parents=True, exist_ok=True)
        (OUT_DIR / "docs").mkdir(parents=True, exist_ok=True)
        self.graphs = make_inputs(workload, seed, os.path.relpath(OUT_DIR / "inputs", ROOT))
        ref_path = REFERENCE_DIR / f"{workload.name}.json"
        self.reference = json.loads(ref_path.read_text()) if ref_path.exists() else None

    def spawn(self, args: list[str]) -> dict:
        """Run one child to completion; wall clock from spawn to exit, rusage."""
        stdout_path, stderr_path = OUT_DIR / "child.stdout", OUT_DIR / "child.stderr"
        with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *args], cwd=ROOT, env=self.env, stdout=out, stderr=err
            )
            timer = threading.Timer(max(1.0, self.deadline - time.monotonic()), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return {
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024,
            "returncode": proc.returncode,
            "stdout": stdout_path.read_text(errors="replace"),
            "stderr": stderr_path.read_text(errors="replace"),
        }

    def setup_once(self) -> float:
        sources = [g["source"] for g in self.graphs.values()]
        result = self.spawn([str(BENCH_DIR / "loadgraph.py"), *sources])
        if result["returncode"] != 0:
            raise RuntimeError(f"set-up failed: {result['stderr'].strip()}")
        return result["wall_s"]

    def environment(self) -> dict:
        result = self.spawn(["-c", ENV_CODE])
        if result["returncode"] != 0:
            raise RuntimeError(f"cannot import arcwalk: {result['stderr'].strip()}")
        info = json.loads(result["stdout"])
        if not Path(info["arcwalk_file"]).resolve().is_relative_to(ROOT / "src"):
            raise RuntimeError(f"arcwalk imported from {info['arcwalk_file']}, not {ROOT / 'src'}")
        info.update(
            commit=_commit(),
            source_sha256=_source_hash(),
            cpu_model=_cpu_model(),
            platform=platform.platform(),
            nproc=os.cpu_count(),
            usable_cpus=len(os.sched_getaffinity(0)),
            blas_threads=THREADS,
            seed=self.seed,
        )
        return info

    def run_command(self, command: dict) -> dict:
        """One CLI job; its document is checked and failures counted."""
        label = command["graph"]
        doc_path = os.path.relpath(OUT_DIR / "docs" / f"{command['key'].replace('/', '_')}.json", ROOT)
        if os.path.exists(ROOT / doc_path):
            os.unlink(ROOT / doc_path)
        result = self.spawn(["-c", CLI_CODE, *cli_args(command, self.graphs[label]["source"], doc_path)])
        self.attempted += 1
        problems = []
        if result["returncode"] != 0:
            problems.append(f"exit {result['returncode']}: {result['stderr'].strip()[-300:]}")
        else:
            with open(ROOT / doc_path, encoding="utf-8") as handle:
                doc = json.load(handle)
            self.docs[command["key"]] = doc
            problems = self.check_document(command, doc)
        if problems:
            self.failures.append(f"{command['key']}: " + "; ".join(problems[:5]))
        return result

    def check_document(self, command: dict, doc: dict) -> list[str]:
        problems = []
        builtin = command["graph"].startswith("builtin:")
        if self.reference and (builtin or self.seed == self.reference["seed"]):
            ref = self.reference["documents"].get(command["key"])
            if ref is None:
                problems.append("no reference document")
            else:
                problems += checker.compare_to_reference(ref, doc)
        if command["command"] == "detect":
            problems += checker.detect_invariants(doc, self.graphs[command["graph"]]["stats"])
        return problems

    def run_round(self) -> list[dict]:
        return [self.run_command(c) for c in self.workload.commands]


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _source_hash() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "arcwalk").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def tail(values: list[float]) -> dict | None:
    """Highest percentile with at least ten samples beyond it, if any."""
    n = len(values)
    if n <= 10:
        return None
    return {"percentile": 100 * (n - 10) // n, "value": sorted(values)[n - 11]}


def summarize(name: str, values: list[float], unit: str) -> str:
    t = tail(values)
    extra = (
        f"p{t['percentile']} {t['value']:.4f} {unit}"
        if t
        else "no percentile has 10 samples beyond it"
    )
    return f"{name}: median {statistics.median(values):.4f} {unit} over {len(values)} samples; {extra}"


def measure(bench: Bench, seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics from CLI jobs and set-ups over ``seconds``.

    The workload's commands run in order, over and over, until the time is
    up and each has run at least once.  ``SETUP_REPEATS`` set-ups are spread
    evenly over the same window, so both sample the machine's slow and fast
    spells alike.  ``wall_s`` is the sum over commands of each command's
    median wall time; for a one-command workload that is the median job time.
    """
    info = bench.environment()  # also a warm-up: caches and bytecode
    commands = bench.workload.commands
    jobs: dict[str, list[dict]] = {c["key"]: [] for c in commands}
    setups: list[float] = []
    start = time.perf_counter()
    count = 0
    while True:
        elapsed = time.perf_counter() - start
        jobs_due = count < len(commands) or elapsed < seconds
        if len(setups) < SETUP_REPEATS and (
            not jobs_due or elapsed >= len(setups) * seconds / SETUP_REPEATS
        ):
            setups.append(bench.setup_once())
        elif jobs_due:
            command = commands[count % len(commands)]
            jobs[command["key"]].append(bench.run_command(command))
            count += 1
        else:
            break
    rounds = min(len(runs) for runs in jobs.values())
    round_walls = [sum(runs[i]["wall_s"] for runs in jobs.values()) for i in range(rounds)]
    values = {
        "wall_s": sum(statistics.median(r["wall_s"] for r in runs) for runs in jobs.values()),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(r["rss_mb"] for runs in jobs.values() for r in runs),
    }
    print(f"wall_s: {values['wall_s']:.4f} s, sum of per-command medians over {count} CLI jobs")
    print(summarize("wall_s per round", round_walls, "s"))
    print(summarize("setup_s", setups, "s"))
    print(f"peak_rss_mb: max {values['peak_rss_mb']:.1f} MB over {count} CLI processes")
    print(f"failed_frac: {len(bench.failures)}/{bench.attempted}")
    detail = {
        "environment": info,
        "samples": {"wall_s_per_round": round_walls, "setup_s": setups},
        "tails": {"wall_s_per_round": tail(round_walls), "setup_s": tail(setups)},
        "jobs": {
            key: [{k: r[k] for k in ("wall_s", "cpu_s", "rss_mb", "returncode")} for r in runs]
            for key, runs in jobs.items()
        },
    }
    return values, detail


def _probes(workload: Workload, graphs: dict) -> list[dict]:
    """Probe tasks covering the layers the workload's detect path skips."""
    probes = []
    coins = {}
    for c in workload.commands:
        source = graphs[c["graph"]]["source"]
        if c["command"] == "detect":
            coins.setdefault(c["graph"], c["coin"])
            what = "finite" if c["mode"] == "average-infinite" else "exact"
            probes.append({"what": what, "coin": c["coin"], "label": c["graph"], "source": source})
        elif c["command"] == "spectrum":
            probes.append({"what": "spectrum", "coin": c["coin"], "label": c["graph"], "source": source})
    for label, g in graphs.items():
        probes.append({"what": "classical", "label": label, "source": g["source"]})
    last = workload.graphs[-1]
    probes.append({"what": "apply_step", "coin": coins[last], "label": last, "source": graphs[last]["source"]})
    return probes


def _duration(span: dict) -> float:
    return span["end"] - span["start"]


def traced(bench: Bench) -> tuple[dict, dict]:
    """Per-layer metrics from one untraced round plus the traced run."""
    info = bench.environment()
    untraced = dict(zip((c["key"] for c in bench.workload.commands), bench.run_round()))
    results, child_walls = [], {}
    tasks = []
    for c in bench.workload.commands:
        if c["command"] == "detect":
            tasks.append({"job": c["key"], "kind": "detect", "label": c["graph"],
                          "source": bench.graphs[c["graph"]]["source"], "coin": c["coin"],
                          "mode": c["mode"], "steps": c.get("steps", 100)})
    tasks.append({"job": "probe", "kind": "probe", "probes": _probes(bench.workload, bench.graphs)})
    for task in tasks:
        task_path, out_path = OUT_DIR / "task.json", OUT_DIR / "task.out.json"
        task_path.write_text(json.dumps(task))
        if out_path.exists():
            out_path.unlink()
        child = bench.spawn([str(BENCH_DIR / "traced.py"), str(task_path), str(out_path)])
        if child["returncode"] != 0:
            raise RuntimeError(f"traced run {task['job']} failed: {child['stderr'].strip()[-500:]}")
        result = json.loads(out_path.read_text())
        result["job"] = task["job"]
        child_walls[task["job"]] = child["wall_s"]
        results.append(result)

    spans = [s for r in results for s in r["spans"]]
    for r in results:
        for chk in r["checks"]:
            bench.attempted += 1
            if not chk["ok"]:
                bench.failures.append(f"traced {chk['job']}: {chk['name']} ({chk['detail']})")
        if "document" in r:
            bench.attempted += 1
            if _decisions(r["document"]) != _decisions(bench.docs.get(r["job"], {})):
                bench.failures.append(f"traced {r['job']}: partition differs from the CLI's")

    def total(name: str) -> float:
        return sum(_duration(s) for s in spans if s["name"] == name)

    required = {"graph.load", "operators.build", "operators.materialize", "operators.apply_step",
                "evolution.finite_average", "spectral.decompose", "spectral.cesaro",
                "spectral.degeneracy", "community.detect", "community.margin", "io.render",
                "classical.trace"}
    missing = required - {s["name"] for s in spans}
    if missing:
        raise RuntimeError(f"traced run recorded no span for {sorted(missing)}")

    detect_results = [r for r in results if "document" in r]
    spectral = [c for r in results for c in r["decompositions"]]
    graph_meta = [r["document"]["metadata"]["graph"] for r in detect_results]
    finite = [s for s in spans if s["name"] == "evolution.finite_average"]
    arc_steps = sum(s["attrs"]["D"] * s["attrs"]["steps"] for s in finite)
    max_dense = max(s["attrs"]["D"] for s in spans if s["name"] == "operators.materialize")
    checks_in = {}
    for s in spans:
        if s["name"] == "checks" and s["parent"] is None:
            checks_in[s["job"]] = checks_in.get(s["job"], 0.0) + _duration(s)
    traced_total = sum(child_walls[r["job"]] - checks_in.get(r["job"], 0.0) for r in detect_results)
    untraced_total = sum(untraced[r["job"]]["wall_s"] for r in detect_results)

    values = {
        "graph.load_s": total("graph.load"),
        "graph.nodes": sum(g["nodes"] for g in graph_meta),
        "graph.arcs": sum(g["arcs"] for g in graph_meta),
        "graph.betti": sum(g["betti"] for g in graph_meta),
        "operators.build_s": total("operators.build"),
        "operators.materialize_s": total("operators.materialize"),
        "operators.dense_mb": 16 * max_dense**2 / 2**20,
        "operators.apply_step_s": statistics.median(
            _duration(s) for s in spans if s["name"] == "operators.apply_step"
        ),
        "evolution.finite_average_s": total("evolution.finite_average"),
        "evolution.arc_steps": arc_steps,
        "evolution.arc_steps_per_s": arc_steps / total("evolution.finite_average"),
        "spectral.decompose_s": total("spectral.decompose"),
        "spectral.cesaro_s": total("spectral.cesaro"),
        "spectral.decompose_peak_mb": max(s["peak_mb"] for s in spans if s["name"] == "spectral.decompose"),
        "spectral.cesaro_peak_mb": max(s["peak_mb"] for s in spans if s["name"] == "spectral.cesaro"),
        "spectral.groups": sum(c["groups"] for c in spectral),
        "spectral.max_group": max(c["max_group"] for c in spectral),
        "spectral.degenerate_dim": sum(c["degenerate_dim"] for c in spectral),
        "spectral.degeneracy_s": total("spectral.degeneracy"),
        "community.detect_s": total("community.detect"),
        "community.margin_s": total("community.margin"),
        "community.communities": sum(len(r["document"]["payload"]["hubs"]) for r in detect_results),
        "io.render_s": total("io.render"),
        "io.doc_bytes": sum(r["doc_bytes"] for r in detect_results),
        "classical.trace_s": total("classical.trace"),
        "cli.cpu_s": sum(r["cpu_s"] for r in untraced.values()),
        "trace.overhead_s": traced_total - untraced_total,
    }
    print(stage_report(spans))
    print(f"failed_frac: {len(bench.failures)}/{bench.attempted}")
    detail = {
        "environment": info,
        "untraced": {k: {f: r[f] for f in ("wall_s", "cpu_s", "rss_mb", "returncode")} for k, r in untraced.items()},
        "traced_child_wall_s": child_walls,
        "traced_checks": [c for r in results for c in r["checks"]],
    }
    _write(f"spans_{bench.workload.name}_seed{bench.seed}.json", {"spans": spans})
    return values, detail


def _decisions(doc: dict) -> tuple:
    """The discrete answer of a detect document: hubs, assignment, flags."""
    payload = doc.get("payload", {})
    return (
        payload.get("hubs"),
        payload.get("assignment"),
        [(m["node"], m["hub"], m["marginal"]) for m in payload.get("margins", [])],
    )


STAGE_COLUMNS = (
    ("load", ("graph.load",)),
    ("build", ("operators.build",)),
    ("materialize", ("operators.materialize",)),
    ("Schur", ("spectral.decompose",)),
    ("Cesaro", ("spectral.cesaro",)),
    ("finite T=100", ("evolution.finite_average",)),
    ("detect", ("community.detect", "community.margin")),
    ("render", ("io.document", "io.render")),
)


def stage_report(spans: list[dict]) -> str:
    """Self time per layer, one row per (graph, coin), in the ROADMAP's columns."""
    children: dict[tuple, float] = {}
    for s in spans:
        if s["parent"] is not None:
            key = (s["job"], s["parent"])
            children[key] = children.get(key, 0.0) + _duration(s)
    rows: dict[tuple, dict] = {}
    for s in spans:
        attrs = s["attrs"]
        if "coin" not in attrs or "D" not in attrs:
            continue
        row = rows.setdefault((attrs["graph"], attrs["N"], attrs["D"], attrs["coin"]), {})
        self_time = _duration(s) - children.get((s["job"], s["id"]), 0.0)
        row[s["name"]] = row.get(s["name"], 0.0) + self_time
    width = max([len(f"{g} ({n}, {d})") for g, n, d, _ in rows] + [12])
    head = f"{'graph (N, D)':<{width}}  {'coin':<7}" + "".join(f"  {c:>12}" for c, _ in STAGE_COLUMNS)
    lines = ["stage report: self time in seconds (traced run)", head]
    for (g, n, d, coin), row in sorted(rows.items()):
        if not any(name in row for _, names in STAGE_COLUMNS for name in names):
            continue
        cells = ""
        for _, names in STAGE_COLUMNS:
            present = [row[name] for name in names if name in row]
            cells += f"  {sum(present):>12.4f}" if present else f"  {'-':>12}"
        lines.append(f"{f'{g} ({n}, {d})':<{width}}  {coin:<7}{cells}")
    return "\n".join(lines)


def _write(name: str, data: dict) -> None:
    (OUT_DIR / name).write_text(json.dumps(data, indent=1) + "\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "arcwalk" / "__init__.py").is_file():
        print(f"perfbench: no arcwalk sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = Bench(WORKLOADS[args.workload], args.seed)
    if args.trace:
        values, detail = traced(bench)
        units = {name: spec[0] for name, spec in PER_LAYER.items()}
    else:
        values, detail = measure(bench, args.seconds)
        units = {name: spec[0] for name, spec in END_TO_END.items()}
    for failure in bench.failures:
        print(f"FAILED {failure}")
    correct = not bench.failures
    _write(
        f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json",
        {
            "workload": args.workload,
            "seed": args.seed,
            "graphs": bench.graphs,
            "metrics": values,
            "attempted": bench.attempted,
            "failures": bench.failures,
            **detail,
        },
    )
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
