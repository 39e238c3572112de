"""A byte manifest of the CLI's outputs, and the difference between two of them.

    PYTHONPATH=src python tests/byte_sweep.py --manifest change.json [--against parent.json]

Runs ``cli.main`` in this process on every spec of the sweep at seeds 11, 12 and
13: the golden, report, setting and CRN specs of ``tests/test_cli.py`` and the
benchmark's specs in ``bench/workloads.py``.  Each run writes its artifacts to a
fresh ``--out`` directory.  The manifest maps one key per output to its SHA-256
(the exit code is kept as it is):

* ``<spec>@<seed> exit``, ``stdout`` and ``stderr``;
* ``<spec>@<seed> file/<name>`` for each artifact, ``report.yaml`` among them;
* ``<spec>@<seed> results/<field>`` for each field of the report's ``results``,
  so that a changed report says which fields changed.

The specs are read from the files beside this one, and the program from whatever
``selfdual`` is on the path, so a parent commit is swept with this commit's specs
by pointing ``PYTHONPATH`` at the parent's ``src``.  ``--against OTHER.json``
prints the keys whose values differ or that only one manifest has, grouped by
spec.  ``--workers N`` sets ``duality.WORKERS`` (1 draws inline).

The file name has no ``test_`` prefix, so pytest does not collect it.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import hashlib
import io
import json
import sys
import tempfile
import time
from pathlib import Path

import yaml

HERE = Path(__file__).resolve().parent
SEEDS = (11, 12, 13)


def sweep_specs() -> dict[str, tuple[str, str]]:
    """``{name: (task kind, spec text)}`` of every spec the sweep runs."""
    sys.path[:0] = [str(HERE), str(HERE.parent / "bench")]
    import test_cli
    import workloads

    specs = {f"golden/{name}": spec for name, spec in test_cli.GOLDEN_SPECS.items()}
    specs |= {f"report/{kind}": (kind, text) for kind, text in test_cli.REPORT_SPECS.items()}
    specs |= {
        f"setting/{name}": (name.split("-")[0], text)
        for name, text in test_cli.SETTING_SPECS.items()
    }
    specs |= {f"crn/{name}": ("check", text) for name, text in test_cli.CRN_SPECS.items()}
    specs |= {
        f"bench/{task.name}": (task.command, task.spec)
        for tasks in workloads.WORKLOADS.values()
        for task in tasks
    }
    return specs


def _sha(data: bytes | str) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def outputs(kind: str, text: str, seed: int) -> dict[str, object]:
    """The manifest entries of one run, keyed without the ``<spec>@<seed>`` prefix."""
    from selfdual import cli

    with tempfile.TemporaryDirectory() as tmp:
        spec_file, out_dir = Path(tmp) / "spec.yaml", Path(tmp) / "out"
        spec_file.write_text(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([kind, str(spec_file), "--seed", str(seed), "--out", str(out_dir)])
        entries = {"exit": code, "stdout": _sha(out.getvalue()), "stderr": _sha(err.getvalue())}
        if out_dir.is_dir():
            entries |= {f"file/{p.name}": _sha(p.read_bytes()) for p in sorted(out_dir.iterdir())}
    results = (yaml.safe_load(out.getvalue()) or {}).get("results") or {}
    for field, value in results.items():
        entries[f"results/{field}"] = _sha(json.dumps(value, sort_keys=True))
    return entries


def manifest(specs: dict[str, tuple[str, str]], seeds=SEEDS) -> dict[str, object]:
    return dict(sorted(
        (f"{name}@{seed} {key}", value)
        for name, (kind, text) in specs.items()
        for seed in seeds
        for key, value in outputs(kind, text, seed).items()
    ))


def differences(ours: dict, theirs: dict) -> dict[str, dict[str, list[int]]]:
    """``{spec: {key: [seed, ...]}}`` of the keys whose values differ or that one side lacks."""
    grouped = collections.defaultdict(lambda: collections.defaultdict(list))
    for key in sorted(ours.keys() | theirs.keys()):
        if ours.get(key, "absent") != theirs.get(key, "absent"):
            run, output = key.split(" ", 1)
            spec, seed = run.rsplit("@", 1)
            grouped[spec][output].append(int(seed))
    return {spec: dict(keys) for spec, keys in grouped.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--manifest", required=True, help="where to write this run's manifest")
    parser.add_argument("--against", help="a manifest to compare this run's with")
    parser.add_argument("--workers", type=int, help="set duality.WORKERS for the run")
    args = parser.parse_args(argv)
    if args.workers is not None:
        from selfdual import duality

        duality.WORKERS = args.workers
    start = time.perf_counter()
    specs = sweep_specs()
    ours = manifest(specs)
    Path(args.manifest).write_text(json.dumps(ours, indent=1) + "\n")
    print(f"{len(specs)} specs x {len(SEEDS)} seeds, {len(ours)} keys, "
          f"{time.perf_counter() - start:.1f} s -> {args.manifest}")
    if args.against:
        diff = differences(ours, json.loads(Path(args.against).read_text()))
        runs = {key.split(" ", 1)[0] for key in ours}
        changed = sum(len(seeds) for keys in diff.values() for seeds in keys.values())
        print(f"{changed} keys differ, in {len(diff)} of {len(specs)} specs ({len(runs)} runs)")
        for spec, keys in diff.items():
            print(f"{spec}:")
            for output, seeds in keys.items():
                print(f"  {output} @ {','.join(map(str, seeds))}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
