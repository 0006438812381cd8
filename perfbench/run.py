"""hermcodes benchmark: run one workload and report its metrics.

    python3 perfbench/run.py --workload exhaustive --seed 1 --seconds 30 --trace 0

Runs one workload (see ``workloads.py`` and ``README.md``) as a series of
passes until ``--seconds`` have elapsed.  Each pass is a fresh child
process (``passrun.py``); only one runs at a time, and each job is issued
after the previous one finishes (a closed loop with one client).  Every
job's reports are checked by the output gate.

With ``--trace 0`` the run reports the end-to-end metrics: median pass
wall time, median set-up time (spawn to ``hermcodes.cli`` imported, also
sampled by extra probe processes) and median peak RSS.  With ``--trace 1``
each round is an untraced pass followed by a traced one, and the run
reports the per-layer metrics of the traced passes.

Every metric is printed by name with its unit; the last stdout line is the
JSON summary, and a result file with provenance is written under
``.perfbench_out/``.  ``--record-digests`` rewrites ``digests.json`` from
the current code (run it only at a commit whose reports are known good).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from time import perf_counter

import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
DIGESTS = HERE / "digests.json"
SETUP_PROBES = 5
MIN_PASSES = 2  # an untraced run reports a median of at least two passes
PASS_TIMEOUT_S = 150
RUN_LIMIT_S = 170


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------


def _spawn(args: list[str]):
    """Start passrun.py and wait for its ready line; returns (proc, setup_s)."""
    start = perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "passrun.py"), *args],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )
    line = proc.stdout.readline()
    setup = perf_counter() - start
    if line.strip() != "ready":
        _, err = proc.communicate(timeout=PASS_TIMEOUT_S)
        raise RuntimeError(f"pass process failed to start:\n{line}{err}")
    return proc, setup


def _finish(proc) -> None:
    try:
        _, err = proc.communicate(timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise RuntimeError(f"pass process exceeded {PASS_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise RuntimeError(f"pass process exited with {proc.returncode}:\n{err}")


def probe_setup() -> float:
    proc, setup = _spawn(["--probe"])
    _finish(proc)
    return setup


def run_pass(jobs: list[dict], traced: bool, tag: str) -> tuple[float, dict]:
    """Run one pass in a fresh process; returns (setup_s, pass result)."""
    tmp = OUT / "tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    spec = {"jobs": jobs, "tmp": str(tmp), "traced": traced,
            "spans_path": str(OUT / f"spans-{tag}.jsonl")}
    spec_path, result_path = tmp / "spec.json", OUT / f"pass-{tag}.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    proc, setup = _spawn([str(spec_path), str(result_path)])
    _finish(proc)
    return setup, json.loads(result_path.read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# Output gate
# ---------------------------------------------------------------------------


def _semantic_failures(job: dict, got: dict, expected: dict | None) -> list[str]:
    streams = got["streams"]
    if job["gate"] == "verify":
        report = json.loads(streams["stdout"]["text"])
        problems = []
        if report.get("passed") is not True:
            problems.append("passed is not true")
        failed = [c["name"] for c in report.get("checks", []) if c.get("passed") is not True]
        if failed:
            problems.append(f"failed checks {failed}")
        names = [c["name"] for c in report.get("checks", [])]
        if expected is None or names != expected.get("checks"):
            problems.append("check names differ from the recorded ones")
        return problems
    # partial shard report
    report = json.loads(streams["out"]["text"])
    index, total = job["argv"][job["argv"].index("--shard") + 1].split("/")
    if report.get("partial") is not True or report.get("shard") != {
        "index": int(index), "total": int(total)
    }:
        return ["not a partial report of the requested shard"]
    return []


def gate(jobs: list[dict], result: dict, expected: dict) -> dict[str, list[str]]:
    """Failures per job name; a job with no entry passed."""
    by_name = {j["name"]: j for j in result["jobs"]}
    failures: dict[str, list[str]] = {}
    for job in jobs:
        got = by_name[job["name"]]
        rec = expected.get(job["name"])
        problems = []
        if got["error"]:
            problems.append("raised:\n" + got["error"])
        elif got["exit"] != 0:
            problems.append(f"exit code {got['exit']}, expected 0")
        elif any(s is None for s in got["streams"].values()):
            problems.append("an output file is missing")
        elif job["gate"] == "digest":
            if rec is None:
                problems.append("no recorded digest")
            else:
                for stream, info in got["streams"].items():
                    if rec.get(stream) != info["sha256"]:
                        problems.append(f"{stream} digest differs from the recorded one")
        else:
            problems.extend(_semantic_failures(job, got, rec))
        if job["same_as"] and not problems:
            other = by_name[job["same_as"]]["streams"]["stdout"]
            if got["streams"]["stdout"]["sha256"] != other["sha256"]:
                problems.append(f"stdout differs from {job['same_as']} in the same pass")
        if problems:
            failures[job["name"]] = problems
    return failures


def differing_reports(a: dict, b: dict) -> list[str]:
    """Jobs whose report bytes differ between two passes over one job list."""
    def digests(job):
        return {stream: info and info["sha256"] for stream, info in job["streams"].items()}

    return [ja["name"] for ja, jb in zip(a["jobs"], b["jobs"]) if digests(ja) != digests(jb)]


def expected_entries(jobs: list[dict], result: dict) -> dict:
    """What ``gate`` checks, taken from a known-good pass: the digests of
    seed-independent jobs and the check names of ``verify`` jobs."""
    entries = {}
    for job, got in zip(jobs, result["jobs"]):
        if job["gate"] == "digest":
            entries[job["name"]] = {s: i["sha256"] for s, i in got["streams"].items()}
        elif job["gate"] == "verify":
            report = json.loads(got["streams"]["stdout"]["text"])
            entries[job["name"]] = {"checks": [c["name"] for c in report["checks"]]}
    return entries


def record_digests() -> None:
    """Record ``expected_entries`` of every workload in ``digests.json``."""
    record = {}
    for name in workloads.WORKLOADS:
        jobs = workloads.jobs(name, 0)
        _, result = run_pass(jobs, traced=False, tag=f"record-{name}")
        for job, got in zip(jobs, result["jobs"]):
            if got["error"] or got["exit"] != 0:
                raise SystemExit(f"{name}/{job['name']} failed; not recording")
        record[name] = expected_entries(jobs, result)
    DIGESTS.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {DIGESTS.relative_to(ROOT)}")


# ---------------------------------------------------------------------------
# Provenance
# ---------------------------------------------------------------------------


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _sysconf(name: str):
    try:
        value = os.sysconf(name)
    except (ValueError, OSError):
        return None
    return value if value > 0 else None


def _cache_sizes() -> dict[str, str]:
    """Unified cache sizes of CPU 0 by level, as the kernel reports them."""
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            if (index / "type").read_text().strip() == "Unified":
                sizes[f"l{(index / 'level').read_text().strip()}_cache"] = (
                    (index / "size").read_text().strip()
                )
        except OSError:
            continue
    return sizes


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return done.stdout.strip() or "unknown"


def _source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def provenance(args, passes: int) -> dict:
    pages, page_size = _sysconf("SC_PHYS_PAGES"), _sysconf("SC_PAGE_SIZE")
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        **_cache_sizes(),
        "ram_mib": pages * page_size // 2**20 if pages and page_size else None,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes_per_run": passes,
    }


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------


def _another_round(start: float, seconds: int, rounds: list[float], minimum: int) -> bool:
    elapsed = perf_counter() - start
    if rounds and elapsed + max(rounds) > RUN_LIMIT_S:
        return False
    return len(rounds) < minimum or elapsed < seconds


def run(args, bench: dict) -> tuple[dict, dict]:
    jobs = workloads.jobs(args.workload, args.seed)
    expected = json.loads(DIGESTS.read_text(encoding="utf-8"))[args.workload]
    setups = [] if args.trace else [probe_setup() for _ in range(SETUP_PROBES)]
    untraced, traced, failures, rounds = [], [], [], []
    start = perf_counter()
    minimum = 1 if args.trace else MIN_PASSES
    while _another_round(start, args.seconds, rounds, minimum):
        t0 = perf_counter()
        tag = f"{args.workload}-{len(rounds)}"
        setup, result = run_pass(jobs, traced=False, tag=tag)
        setups.append(setup)
        untraced.append(result)
        failures.append(gate(jobs, result, expected))
        if args.trace:
            _, tresult = run_pass(jobs, traced=True, tag=f"{tag}-traced")
            traced.append(tresult)
            tfail = gate(jobs, tresult, expected)
            for name in differing_reports(result, tresult):
                tfail.setdefault(name, []).append("traced report bytes differ from untraced")
            failures.append(tfail)
        rounds.append(perf_counter() - t0)

    attempted = len(jobs) * (len(untraced) + len(traced))
    failed = sum(len(f) for f in failures)
    walls = [r["wall_s"] for r in untraced]
    end_to_end = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
    }
    per_layer = {}
    if args.trace:
        names = [m["name"] for m in bench["per_layer"]]
        samples = []
        for i, tresult in enumerate(traced):
            spans = _read_spans(OUT / f"spans-{args.workload}-{i}-traced.jsonl")
            samples.append(
                tracer.layer_metrics(names, spans, tresult["counts"], tresult["wall_s"], walls[i])
            )
        per_layer = {n: _median_of(s[n] for s in samples) for n in names}
    summary = {
        "attempted": attempted,
        "failed": failed,
        "fail_rate": failed / attempted,
        "passes": len(untraced),
        "traced_passes": len(traced),
        "setup_samples": len(setups),
        "pass_wall_s": walls,
        "job_seconds": {j["name"]: [r["jobs"][i]["seconds"] for r in untraced]
                        for i, j in enumerate(jobs)},
        "setup_s_samples": setups,
        "failures": [f for f in failures if f],
        "end_to_end": end_to_end,
        "per_layer": per_layer,
    }
    return summary, provenance(args, len(untraced))


def _median_of(values):
    """Median, keeping a count that repeats exactly as the count itself."""
    values = list(values)
    return values[0] if len(set(values)) == 1 else statistics.median(values)


def _read_spans(path: Path) -> list[tuple]:
    with open(path, encoding="utf-8") as fh:
        return [tuple(json.loads(line)) for line in fh]


def _print_metric(name, value, unit, note="") -> None:
    print(f"{name:<48} {value!r:>24} {unit}{note}")


def report(args, bench: dict, summary: dict, prov: dict) -> dict:
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    for key, value in prov.items():
        print(f"# {key}: {value}")
    for problems in summary["failures"]:
        for job, lines in problems.items():
            print(f"FAILED {job}: " + "; ".join(lines))
    n = summary["passes"]
    notes = {"wall_s": f"  (median of {n} passes)",
             "setup_s": f"  (median of {summary['setup_samples']} spawns)",
             "peak_rss_mb": f"  (median of {n} passes)"}
    for name, value in summary["end_to_end"].items():
        _print_metric(name, value, units[name], notes[name])
    _print_metric("fail_rate", summary["fail_rate"], "ratio",
                  f"  ({summary['failed']} failed of {summary['attempted']} attempted jobs)")
    for name, value in summary["per_layer"].items():
        _print_metric(name, value, units[name])
    section = "per_layer" if args.trace else "end_to_end"
    metrics = {
        m["name"]: {"value": summary[section][m["name"]], "unit": m["unit"]}
        for m in bench[section]
    }
    return {
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "hermcodes" / "cli.py").is_file():
        sys.stderr.write(f"no hermcodes source under {ROOT / 'src'}; nothing to measure\n")
        return 2
    OUT.mkdir(exist_ok=True)
    if args.record_digests:
        record_digests()
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    summary, prov = run(args, bench)
    line = report(args, bench, summary, prov)
    result_path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(
        json.dumps({"provenance": prov, **summary, "result": line}, indent=2) + "\n",
        encoding="utf-8",
    )
    print(f"# result file: {result_path.relative_to(ROOT)}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
