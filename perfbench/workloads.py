"""The benchmark's workloads: fixed lists of ``hermcodes`` CLI jobs.

A job is one CLI invocation.  ``{tmp}`` in an argument stands for the
pass's work directory, where ``--out`` and ``--weights-csv`` files go.
The seed picks only the shard count of the sharded oracle job and the
``--seed`` of every ``verify`` job; the cells and the total work are fixed.

Each job names the output gate that checks it:

- ``digest``: the report is a pure function of the job, so every byte
  stream it writes must match the SHA-256 recorded in ``digests.json``;
- ``verify``: the report carries the seed, so its semantic fields are
  checked instead (``passed``, every check passed, the recorded check names);
- ``partial``: a shard report; it must be a partial report of the
  requested shard.  The merged report is checked by digest and must also be
  byte-identical to the unsharded report of the same pass (``same_as``).
"""

from __future__ import annotations

WORKLOADS = ("exhaustive", "invariants", "large-variety")


def shard_total(seed: int) -> int:
    """Shard count T in {2, ..., 6} of the sharded oracle job."""
    return 2 + seed % 5


def verify_seed(seed: int) -> int:
    """The ``--seed`` passed to every ``verify`` job (numpy needs >= 0)."""
    return seed % 2**32


def _job(name, argv, gate="digest", files=None, same_as=None):
    return {
        "name": name,
        "argv": argv,
        "gate": gate,
        "files": files or {},
        "same_as": same_as,
    }


def _verify(name, field, suite, seed, extra=()):
    argv = ["verify", *field, "--suite", suite, *extra, "--seed", str(verify_seed(seed))]
    return _job(name, argv, gate="verify")


def _exhaustive(seed: int) -> list[dict]:
    cell = ["--p", "2", "--n", "3", "--d", "2"]
    total = shard_total(seed)
    shards = [
        _job(
            f"oracle-p2n3d2-shard{i}",
            ["oracle", *cell, "--shard", f"{i}/{total}", "--out", f"{{tmp}}/shard{i}.json"],
            gate="partial",
            files={"out": f"{{tmp}}/shard{i}.json"},
        )
        for i in range(total)
    ]
    return [
        _job(
            "params-p2n3d2",
            ["params", *cell, "--weights-csv", "{tmp}/weights-p2n3d2.csv"],
            files={"weights_csv": "{tmp}/weights-p2n3d2.csv"},
        ),
        _job("oracle-p2n3d2-cone", ["oracle", *cell]),
        _job("oracle-p2n3d2-nondegenerate", ["oracle", *cell, "--variety", "nondegenerate"]),
        *shards,
        _job(
            "merge-p2n3d2",
            ["merge", *(f"{{tmp}}/shard{i}.json" for i in range(total))],
            same_as="oracle-p2n3d2-cone",
        ),
        _job("params-p3n2d2", ["params", "--p", "3", "--n", "2", "--d", "2"]),
        _job("oracle-p3n2d2-cone", ["oracle", "--p", "3", "--n", "2", "--d", "2"]),
        _job(
            "oracle-p3n2d2-space",
            ["oracle", "--p", "3", "--n", "2", "--d", "2", "--variety", "space"],
        ),
        _job(
            "oracle-p2n2d2-space",
            ["oracle", "--p", "2", "--n", "2", "--d", "2", "--variety", "space"],
        ),
    ]


def _invariants(seed: int) -> list[dict]:
    p2, p3, p2e2 = ["--p", "2"], ["--p", "3"], ["--p", "2", "--e", "2"]
    return [
        _verify("verify-field-p2", p2, "field", seed),
        _verify("verify-field-p3", p3, "field", seed),
        _verify("verify-field-p2e2", p2e2, "field", seed),
        # GF(289) is the only input that reaches the sparse-table path.
        _verify("verify-field-p17", ["--p", "17"], "field", seed),
        _verify("verify-projspace-p2n3", p2, "projspace", seed, ["--n", "3"]),
        _verify("verify-projspace-p3n3", p3, "projspace", seed, ["--n", "3"]),
        _verify("verify-hermitian-p2", p2, "hermitian", seed),
        _verify("verify-hermitian-p3", p3, "hermitian", seed),
        _verify("verify-hermitian-p2e2n2", p2e2, "hermitian", seed, ["--n", "2"]),
    ]


def _large_variety(seed: int) -> list[dict]:
    p3n4d1 = ["--p", "3", "--n", "4", "--d", "1"]
    p2e2n3d1 = ["--p", "2", "--e", "2", "--n", "3", "--d", "1"]
    return [
        _job("oracle-p2n4d1", ["oracle", "--p", "2", "--n", "4", "--d", "1"]),
        _job("params-p3n4d1", ["params", *p3n4d1]),
        _job("oracle-p3n4d1", ["oracle", *p3n4d1]),
        _job("params-p2e2n3d1", ["params", *p2e2n3d1]),
        _job("oracle-p2e2n3d1", ["oracle", *p2e2n3d1]),
        _job("construct-p3n4d3", ["construct", "--p", "3", "--n", "4", "--d", "3"]),
        _job("construct-p2e2n4d1", ["construct", "--p", "2", "--e", "2", "--n", "4", "--d", "1"]),
        _job("construct-p2e2n4d4", ["construct", "--p", "2", "--e", "2", "--n", "4", "--d", "4"]),
        _verify("verify-bounds-p3", ["--p", "3"], "bounds", seed),
    ]


_JOB_LISTS = {
    "exhaustive": _exhaustive,
    "invariants": _invariants,
    "large-variety": _large_variety,
}


def jobs(workload: str, seed: int) -> list[dict]:
    """The job list of a workload for a seed, in the order a pass runs it."""
    return _JOB_LISTS[workload](seed)
