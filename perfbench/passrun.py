"""One benchmark pass, run in a fresh process.

    python3 perfbench/passrun.py SPEC.json RESULT.json
    python3 perfbench/passrun.py --probe

The process imports ``hermcodes.cli`` from the checkout's ``src/``, prints
``ready`` (the parent times spawn-to-ready as set-up), then runs the spec's
jobs in order through ``hermcodes.cli.main(argv)``, capturing stdout and
stderr.  Every pass starts with cold process-global caches, as a CLI run
does; the jobs of one pass share them, as one library process does.  With
``"traced": true`` in the spec the tracer's wrappers are installed after
the ready line and spans are written to ``spans_path`` when the pass ends.
``--probe`` stops after the ready line.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_cli():
    sys.path.insert(0, str(SRC))
    import hermcodes.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"hermcodes was imported from {cli.__file__}, not from {SRC}")
    return cli


def _run_job(cli, job: dict, tmp: str) -> dict:
    argv = [a.replace("{tmp}", tmp) for a in job["argv"]]
    out, err = io.StringIO(), io.StringIO()
    error = None
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects bad arguments this way
        code = exc.code
    except Exception:  # a job that raises is a failed job, not a failed pass
        code = None
        error = traceback.format_exc()
    return {"name": job["name"], "exit": code, "seconds": perf_counter() - start,
            "stdout": out.getvalue(), "stderr": err.getvalue(), "error": error}


def _streams(job: dict, raw: dict, tmp: str) -> dict:
    """SHA-256, size and (for semantically gated jobs) text of each stream."""
    data = {"stdout": raw["stdout"].encode("utf-8")}
    for stream, template in job["files"].items():
        path = Path(template.replace("{tmp}", tmp))
        data[stream] = path.read_bytes() if path.exists() else None
    keep_text = job["gate"] != "digest"
    out = {}
    for stream, blob in data.items():
        if blob is None:
            out[stream] = None
            continue
        out[stream] = {"sha256": hashlib.sha256(blob).hexdigest(), "bytes": len(blob)}
        if keep_text:
            out[stream]["text"] = blob.decode("utf-8")
    return out


def run_pass(cli, spec: dict) -> dict:
    tmp = spec["tmp"]
    tracer = None
    if spec.get("traced"):
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    raws = []
    try:
        start = perf_counter()
        for job in spec["jobs"]:
            if tracer:
                tracer.job = job["name"]
            raws.append(_run_job(cli, job, tmp))
        wall = perf_counter() - start
    finally:
        if tracer:
            tracer.uninstall()
    jobs = []
    for job, raw in zip(spec["jobs"], raws):
        streams = _streams(job, raw, tmp)
        jobs.append({"name": job["name"], "exit": raw["exit"], "seconds": raw["seconds"],
                     "error": raw["error"], "stderr": raw["stderr"], "streams": streams})
    result = {
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "jobs": jobs,
    }
    if tracer:
        tracer.counts["cli.report_bytes"] = sum(
            s["bytes"] for j in jobs for s in j["streams"].values() if s
        )
        result["counts"] = dict(tracer.counts)
        with open(spec["spans_path"], "w", encoding="utf-8") as fh:
            for span in tracer.spans:
                fh.write(json.dumps(span) + "\n")
    return result


def main(argv: list[str]) -> int:
    cli = _import_cli()
    print("ready", flush=True)
    if argv[:1] == ["--probe"]:
        return 0
    spec_path, result_path = argv
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    result = run_pass(cli, spec)
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
